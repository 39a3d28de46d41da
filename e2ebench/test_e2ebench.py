"""Tests of the end-to-end benchmark itself, at small sizes.

Run from the repository root::

    python -m pytest e2ebench/test_e2ebench.py

They pin three things: the same seed gives the same inputs and the same
count metrics; every metric a run prints is declared in
``BENCHMARK.json``; and a traced run measures every per-layer metric on
some workload.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import run, speed, tracing  # noqa: E402
from e2ebench.workloads import (  # noqa: E402
    CatalogQuery,
    RealDispatch,
    ServiceFleet,
    SimCampaign,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    """Shrink every workload and keep its files under ``tmp_path``."""
    monkeypatch.setattr(SimCampaign, "RUNS", 300)
    monkeypatch.setattr(RealDispatch, "RUNS", 40)
    monkeypatch.setattr(ServiceFleet, "RATE", 40.0)
    monkeypatch.setattr(ServiceFleet, "MIN_SUBMISSIONS", 6)
    monkeypatch.setattr(CatalogQuery, "XS", 150)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def _inputs(workload) -> dict:
    """Everything a workload generated from its seed, comparably."""
    out = {}
    if hasattr(workload, "manifest"):
        out["manifest"] = [(r.run_id, r.parameters) for r in workload.manifest.runs]
    if isinstance(workload, SimCampaign):
        out["durations"] = workload.model.durations.tolist()
    if isinstance(workload, ServiceFleet):
        out["arrivals"] = [
            (a.due, a.tenant, sorted(a.resumed_half), [r.parameters for r in a.manifest.runs])
            for a in workload.arrivals
        ]
    if isinstance(workload, CatalogQuery):
        out["oracle"] = [(r.run_id, r.metrics) for r in workload.oracle.records()]
    return out


@pytest.mark.parametrize("cls", [SimCampaign, RealDispatch, ServiceFleet, CatalogQuery])
def test_same_seed_same_inputs(cls, tmp_path):
    def generated(seed, name):
        workload = cls(seed, tmp_path / name)
        workload.setup(0.1)
        return _inputs(workload)

    first = generated(5, "a")
    assert first == generated(5, "b")
    assert first != generated(6, "c")


def _traced_counts(cls, seed, workdir) -> dict:
    workload = cls(seed, workdir)
    workload.setup(0.0)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        m = workload.run(0.0)  # exactly one repetition
    assert not m.check_failures
    return tracing.layer_metrics(tracer, m.extras)


@pytest.mark.parametrize("cls", [SimCampaign, RealDispatch, ServiceFleet])
def test_same_seed_same_counts(cls, tmp_path):
    counted = ("checkpoint.record_calls", "bus.events", "lint.app_fn_calls")
    a = _traced_counts(cls, 3, tmp_path / "a")
    b = _traced_counts(cls, 3, tmp_path / "b")
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}
    assert a["checkpoint.record_calls"] > 0 and a["bus.events"] > 0
    if cls is RealDispatch:
        assert a["lint.app_fn_calls"] == 1
    if cls is ServiceFleet:  # the submit gate and the drive's gate
        assert a["lint.app_fn_calls"] == 2 * ServiceFleet.MIN_SUBMISSIONS


def test_instrumentation_is_restored():
    from repro.cheetah.directory import CampaignDirectory
    from repro.savanna import drive

    before = (CampaignDirectory.create, drive.lint_manifest)
    with tracing.instrumented(tracing.Tracer()):
        assert CampaignDirectory.create is not before[0]
    assert (CampaignDirectory.create, drive.lint_manifest) == before


def test_scaled_time_is_the_mean_speed_over_the_span():
    meter = speed.Speedometer()
    meter.times = [10.0, 10.5, 11.0, 11.5, 12.0]
    meter.speeds = [1.0, 0.5, 0.5, 1.0, 0.25]
    # Half the samples in 10..11.5 are slow: 0.75 of the fast state's work.
    assert meter.scaled(10.0, 11.5) == pytest.approx(1.5 * 0.75)
    # A short span takes the samples of MIN_WINDOW_S around its middle.
    assert meter.scaled(10.74, 10.76) == pytest.approx(0.02 * 0.5)
    # No samples (an unstarted meter): the span as measured.
    assert speed.Speedometer().scaled(1.0, 3.0) == 2.0


def test_speedometer_samples_and_stops():
    with speed.Speedometer() as meter:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert not meter._thread.is_alive()
    assert len(meter.speeds) >= 5 and all(s > 0 for s in meter.speeds)


def test_quantile_is_harrell_davis():
    assert tracing.quantile([], 0.5) == 0.0
    assert tracing.quantile([4.0] * 7, 0.8) == pytest.approx(4.0)
    assert tracing.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    values = list(range(1, 102))
    assert tracing.quantile(values, 0.2) < tracing.quantile(values, 0.8)
    # The weights form a beta distribution with mean q, so on the
    # integers 1..n the estimate is n * q + 1/2.
    assert tracing.quantile(values, 0.8) == pytest.approx(101 * 0.8 + 0.5, rel=1e-6)


def _declared(kind: str) -> list:
    return [metric["name"] for metric in SPEC[kind]]


def test_every_printed_metric_is_declared():
    for name in _declared("workloads"):
        result, _ = run.run_workload(SPEC, name, seed=1, seconds=0.0, trace=False)
        assert result["correct"]
        assert list(result["metrics"]) == _declared("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_traced_runs_measure_every_layer():
    measured = set()
    for name in _declared("workloads"):
        result, lines = run.run_workload(SPEC, name, seed=1, seconds=0.0, trace=True)
        assert result["correct"]
        assert list(result["metrics"]) == _declared("per_layer")
        measured |= {k for k, m in result["metrics"].items() if m["value"] != 0}
        assert any(line.startswith("spans: ") for line in lines)
    assert measured >= set(_declared("per_layer")) - {"trace.overhead_pct"}
