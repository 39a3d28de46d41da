"""Tests for the thread-pool real executor as a plain bag of tasks."""

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.savanna import RealExecutor, execute_manifest


def make_manifest(values=(1, 2, 3)):
    camp = Campaign("local", app=AppSpec("square"))
    sg = camp.sweep_group("g", nodes=1, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", values)]))
    return camp.to_manifest()


class TestLocalExecutor:
    def test_runs_every_configuration(self):
        results = (
            RealExecutor(max_workers=2).execute(make_manifest(), lambda p: p["x"] ** 2).results
        )
        assert len(results) == 3
        assert results["g/run-0001"].value == 4
        assert all(r.status == "done" for r in results.values())

    def test_elapsed_recorded(self):
        results = RealExecutor().execute(make_manifest((1,)), lambda p: p["x"]).results
        assert results["g/run-0000"].elapsed >= 0

    def test_exception_isolated_per_run(self):
        def app(p):
            if p["x"] == 2:
                raise ValueError("boom")
            return p["x"]

        results = RealExecutor(max_workers=2).execute(make_manifest(), app).results
        assert results["g/run-0001"].status == "failed"
        assert "ValueError: boom" in results["g/run-0001"].error
        assert results["g/run-0000"].status == "done"
        assert results["g/run-0002"].status == "done"

    def test_resume_via_directory_pending(self, tmp_path):
        """The directory's pending set drives resumption of a partial campaign."""
        from repro.cheetah.directory import CampaignDirectory, RunStatus

        man = make_manifest()
        cd = CampaignDirectory(tmp_path, man)
        cd.create()
        cd.set_status("g/run-0000", RunStatus.DONE)
        result = execute_manifest(
            man, backend="local-threads", app_fn=lambda p: p["x"], directory=cd, resume=True
        )
        assert set(result.results) == {"g/run-0001", "g/run-0002"}

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            RealExecutor(max_workers=0)

    def test_failure_captures_traceback(self):
        def app(p):
            if p["x"] == 2:
                raise ValueError("boom")
            return p["x"]

        results = RealExecutor(max_workers=2).execute(make_manifest(), app).results
        tb = results["g/run-0001"].traceback
        assert tb is not None
        assert "Traceback (most recent call last)" in tb
        assert 'raise ValueError("boom")' in tb
        assert results["g/run-0000"].traceback is None  # success carries none

    def test_per_run_seed_recorded(self):
        results = RealExecutor(seed=5).execute(make_manifest(), lambda p: p["x"]).results
        seeds = {r.seed for r in results.values()}
        assert None not in seeds
        assert len(seeds) == 3  # distinct per run

    def test_is_thread_pool_face_of_realexec(self):
        assert RealExecutor().pool == "threads"
