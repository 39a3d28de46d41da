#!/usr/bin/env python
"""Campaign-store smoke test (CI): drive -> migrate -> identical answers.

Exercises the durable-result-store contract end to end on a real
campaign:

1. drive a ``local-threads`` campaign (outcomes land in
   ``.cheetah/store.sqlite``), then ``python -m repro.store export`` it
   so the end point holds *both* persistence forms (per-run
   ``params.json`` and ``result.json`` files too);
2. build the pre-store answer: read every result file, assemble the
   in-memory ``CampaignCatalog``, answer ``best`` / ``rank`` / Pareto /
   impact;
3. migrate the directory into a *fresh* store db with
   ``python -m repro.store migrate --db ...`` (the CLI, not the API) and
   assert the SQL catalog returns identical answers;
4. delete the result files, assert ``directory.read_run_result`` still
   answers from the in-place store, and re-export the files with
   ``python -m repro.store export``;
5. spot-check the ``status`` / ``info`` / ``query`` subcommands;
6. drive the same manifest on the simulated pilot, which leaves no
   store, and assert its export still writes every ``params.json`` and
   creates no store;
7. respell a second real end point's ``.cheetah/`` records the way
   older versions wrote them (indented), and assert that ``migrate``,
   ``status`` and a resumed re-drive give the compact end point's
   catalog answers and statuses.

Usage: ``python tools/smoke_store.py`` (creates a temp campaign root).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

N_X = 6


def loss_app(params):
    mode_bump = 0.25 if params["mode"] == "b" else 0.0
    return {
        "loss": float((params["x"] * 7919) % 100) / 10.0 + mode_bump,
        "cost": float((params["x"] * 104729) % 50),
    }


def build_manifest():
    from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter

    camp = Campaign(
        "smoke-store", app=AppSpec("loss-app"), objective="minimize loss"
    )
    camp.sweep_group("g", nodes=1, walltime=600.0).add(
        Sweep([SweepParameter("x", range(N_X)), SweepParameter("mode", ["a", "b"])])
    )
    return camp.to_manifest()


def run_cli(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.store", *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, (
        f"repro.store {' '.join(args)} failed ({proc.returncode}):\n"
        f"{proc.stdout}\n{proc.stderr}"
    )
    return proc


def answers_of(catalog) -> dict:
    from repro.cheetah.objectives import Direction, Objective

    loss = Objective("loss", metric="loss", direction=Direction.MINIMIZE)
    cost = Objective("cost", metric="cost", direction=Direction.MINIMIZE)
    return {
        "best": catalog.best(loss).run_id,
        "rank": [r.run_id for r in catalog.rank(loss)],
        "pareto": sorted(r.run_id for r in catalog.pareto_front([loss, cost])),
        "impact": round(catalog.parameter_impact("mode", "loss")["effect"], 12),
    }


def assert_params_exported(directory, manifest) -> None:
    """Every run has a ``params.json`` holding its manifest parameters."""
    from repro._util import loads_tagged

    for run in manifest.runs:
        path = directory.run_dir(run.run_id) / "params.json"
        assert path.exists(), f"export wrote no params.json for {run.run_id}"
        assert loads_tagged(path.read_text()) == run.parameters, (
            f"{path} disagrees with the manifest"
        )


def respell_as_older_versions(directory) -> None:
    """Rewrite the ``.cheetah/`` records as older versions wrote them:
    ``indent=2`` with sorted keys, and ``indent=1`` for the report."""
    import json

    meta = directory.root / directory.METADATA_DIR
    for name, indent, sort_keys, end in (
        ("manifest.json", 2, True, ""),
        ("status.json", 2, True, ""),
        ("report.json", 1, False, "\n"),
        ("lint.json", 2, True, "\n"),
    ):
        doc = json.loads((meta / name).read_text())
        (meta / name).write_text(json.dumps(doc, indent=indent, sort_keys=sort_keys) + end)


def main() -> int:
    from repro.cheetah.catalog import CampaignCatalog
    from repro.cheetah.directory import CampaignDirectory, RunStatus
    from repro.cluster import ClusterSpec, SimulatedCluster
    from repro.savanna import execute_manifest
    from repro.store import CampaignStore, metrics_from_value

    manifest = build_manifest()
    with tempfile.TemporaryDirectory(prefix="smoke-store-") as td:
        root = Path(td)

        # 1. real drive into the store, then the per-run file export
        result = execute_manifest(
            manifest,
            backend="local-threads",
            directory=root,
            app_fn=loss_app,
            max_workers=4,
        )
        assert len(result.completed) == len(manifest.runs), "drive incomplete"
        campaign_dir = root / manifest.campaign
        directory = CampaignDirectory.open(campaign_dir)
        assert directory.store_path().exists(), "drive did not materialize the store"
        run_cli("export", str(campaign_dir))
        for run in manifest.runs:
            assert (directory.run_dir(run.run_id) / "result.json").exists(), (
                f"export wrote no result.json for {run.run_id}"
            )
        assert_params_exported(directory, manifest)

        # 2. the pre-store answer from the files
        mem = CampaignCatalog(manifest.campaign)
        for run in manifest.runs:
            payload = directory.read_run_result(run.run_id)
            mem.add(run.run_id, dict(run.parameters), metrics_from_value(payload["value"]))
        expected = answers_of(mem)
        print(f"[smoke-store] file-based answers: best={expected['best']}")

        # 3. CLI migration into a fresh db -> identical catalog answers
        fresh_db = root / "migrated.sqlite"
        out = run_cli("migrate", str(campaign_dir), "--db", str(fresh_db))
        print(f"[smoke-store] {out.stdout.strip()}")
        with CampaignStore(fresh_db) as store:
            migrated = answers_of(store.catalog(manifest.campaign))
        assert migrated == expected, (
            f"migrated catalog diverged:\n  files: {expected}\n  store: {migrated}"
        )
        print("[smoke-store] migrated SQL catalog answers identical")

        # 4. files deleted -> reads fall back to the in-place store; export restores
        for run in manifest.runs:
            (directory.run_dir(run.run_id) / "result.json").unlink()
        payload = directory.read_run_result(manifest.runs[0].run_id)
        assert payload is not None and payload["status"] == "done", (
            "store fallback read failed after deleting result.json files"
        )
        run_cli("export", str(campaign_dir))
        assert (directory.run_dir(manifest.runs[0].run_id) / "result.json").exists()
        print("[smoke-store] store fallback read + export round trip ok")

        # 5. CLI query surface
        best = run_cli("query", str(campaign_dir), "best", "--metric", "loss")
        assert expected["best"] in best.stdout, best.stdout
        run_cli("query", str(campaign_dir), "rank", "--metric", "loss", "--k", "3")
        run_cli(
            "query", str(campaign_dir), "pareto",
            "--objective", "loss:minimize", "--objective", "cost:minimize",
        )
        run_cli("query", str(campaign_dir), "impact", "--metric", "loss")
        status = run_cli("status", str(campaign_dir))
        assert f"{len(manifest.runs)} runs" in status.stdout, status.stdout
        info = run_cli("info", str(campaign_dir))
        assert manifest.campaign in info.stdout, info.stdout
        print("[smoke-store] CLI query/status/info ok")

        # 6. a simulated drive has no store; its export is the params view
        sim_root = root / "simulated"
        result = execute_manifest(
            manifest,
            lambda params: 1.0,
            SimulatedCluster(ClusterSpec(nodes=2), seed=1),
            directory=sim_root,
        )
        assert result.all_done, result.summary()
        sim_dir = CampaignDirectory.open(sim_root / manifest.campaign)
        assert not sim_dir.store_path().exists(), "a simulated drive made a store"
        out = run_cli("export", str(sim_dir.root))
        assert out.stdout.startswith("exported 0 result.json files"), out.stdout
        assert_params_exported(sim_dir, manifest)
        assert not sim_dir.store_path().exists(), "export created a store"
        print("[smoke-store] simulated end point: params.json export, no store")

        # 7. an end point spelled by older versions answers like the
        #    compact one: migrate, status, and a resumed re-drive
        old_root = root / "older"
        execute_manifest(
            manifest,
            backend="local-threads",
            directory=old_root,
            app_fn=loss_app,
            max_workers=4,
            report=True,
        )
        old_dir = CampaignDirectory.open(old_root / manifest.campaign)
        run_cli("export", str(old_dir.root))
        respell_as_older_versions(old_dir)
        old_db = root / "older.sqlite"
        run_cli("migrate", str(old_dir.root), "--db", str(old_db))
        with CampaignStore(old_db) as store:
            migrated = answers_of(store.catalog(manifest.campaign))
        assert migrated == expected, (
            f"indented end point migrated apart:\n  compact: {expected}\n  indented: {migrated}"
        )
        compact_status = run_cli("status", str(fresh_db)).stdout
        assert run_cli("status", str(old_db)).stdout == compact_status
        # As an older driver cut off before a third of its runs left it.
        interrupted = {run.run_id for run in manifest.runs[::3]}
        old_dir.update_status({run_id: RunStatus.PENDING for run_id in interrupted})
        respell_as_older_versions(old_dir)
        result = execute_manifest(
            manifest,
            backend="local-threads",
            directory=old_root,
            app_fn=loss_app,
            max_workers=4,
            report=True,
        )
        assert set(result.results) == interrupted, sorted(result.results)
        assert old_dir.read_status() == directory.read_status(), "resumed statuses differ"
        assert run_cli("status", str(old_dir.root)).stdout == run_cli(
            "status", str(campaign_dir)
        ).stdout
        assert [r["group"] for r in old_dir.read_report()] == ["g"]
        print("[smoke-store] indented end point: migrate, status and resume agree")

    print("[smoke-store] PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
