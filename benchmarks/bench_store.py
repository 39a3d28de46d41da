#!/usr/bin/env python
"""Campaign-store benchmark: bulk SQL ingestion + query pushdown vs files.

The ROADMAP north-star talks about a million-run campaign catalog.  The
pre-store persistence path pays one fsynced JSON file per run on write
and a full directory scan + in-memory catalog build per query.  The
campaign store (:mod:`repro.store`) replaces both with chunked
``executemany`` bulk ingestion into sqlite and §II-C catalog queries
(``best`` / ``rank`` / Pareto / impact) pushed down to SQL.

Per tier of N runs this benchmark measures:

- **files ingest**: per-run ``CampaignDirectory.write_run_result`` — the
  real atomic-write path (temp file + fsync + rename), N times;
- **store ingest**: ``ensure_campaign`` + N buffered ``add_result`` +
  final flush — chunked bulk inserts in whole transactions;
- **files query**: read every ``result.json`` back, build the in-memory
  ``CampaignCatalog``, answer best/rank/pareto/impact;
- **store query**: the same four answers evaluated inside sqlite;
- **queries_match**: the store returned the same answers as the files
  (exact run ids for best/rank/pareto, numeric agreement for impact).
  Where no files are written, the store's answers are checked instead
  against an in-memory ``CampaignCatalog`` built from the same outcomes,
  outside the timed section (``answers_checked_against`` names which).

Results go, schema-versioned (``repro.bench.store/v1``), to
``benchmarks/results/BENCH_store.json`` and are validated by
``tools/check_bench_schema.py``.  The acceptance bar is
``speedup_ingest >= 5`` at the 10k-run tier.

Modes
-----
``--quick``
    one 2,000-run tier, both sides measured — seconds end to end, CI smoke.
full (default)
    measured 2,000- and 10,000-run tiers plus a 100,000-run tier where the
    store is measured and the per-file baseline is extrapolated from the
    measured 10k per-file rate (writing 100k fsynced files just to time
    them adds minutes for no information; the entry is flagged
    ``files_extrapolated``).

The Pareto front is in the query set at every tier.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter  # noqa: E402
from repro.cheetah.catalog import CampaignCatalog  # noqa: E402
from repro.cheetah.directory import CampaignDirectory  # noqa: E402
from repro.cheetah.objectives import Direction, Objective  # noqa: E402
from repro.store import CampaignStore, metrics_from_value  # noqa: E402

SCHEMA = "repro.bench.store/v1"
RESULTS = REPO / "benchmarks" / "results"
DEFAULT_OUTPUT = RESULTS / "BENCH_store.json"

MODES = {
    "quick": {
        "tiers": [{"runs": 2_000, "measure_files": True, "pareto": True}],
        "rounds": 2,
    },
    "full": {
        "tiers": [
            {"runs": 2_000, "measure_files": True, "pareto": True},
            {"runs": 10_000, "measure_files": True, "pareto": True},
            {"runs": 100_000, "measure_files": False, "pareto": True},
        ],
        "rounds": 2,
    },
}

LOSS = Objective("loss", metric="loss", direction=Direction.MINIMIZE)
COST = Objective("cost", metric="cost", direction=Direction.MINIMIZE)


def make_manifest(n_runs: int, campaign: str):
    camp = Campaign(campaign, app=AppSpec("bench-app"), objective="minimize loss")
    group = camp.sweep_group("g", nodes=1, walltime=600.0)
    group.add(
        Sweep([SweepParameter("x", range(n_runs // 2)), SweepParameter("mode", ["a", "b"])])
    )
    return camp.to_manifest()


def outcome_of(i: int, run) -> dict:
    """A deterministic, realistic run outcome for run index ``i``."""
    x = run.parameters["x"]
    mode_bump = 0.25 if run.parameters["mode"] == "b" else 0.0
    return {
        "run_id": run.run_id,
        "status": "done",
        "value": {
            "loss": float((x * 7919) % 1000) / 100.0 + mode_bump,
            "cost": float((x * 104729) % 500) / 10.0,
        },
        "error": None,
        "traceback": None,
        "elapsed": 0.001 * (i % 97),
        "attempts": 1,
        "seed": i,
    }


def timed(fn):
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out
    finally:
        gc.enable()


def ingest_files(workdir: Path, manifest) -> float:
    """The per-file baseline: one atomic fsynced JSON write per run."""
    directory = CampaignDirectory(workdir, manifest)

    def write_all():
        for i, run in enumerate(manifest.runs):
            directory.write_run_result(run.run_id, outcome_of(i, run))

    seconds, _ = timed(write_all)
    return seconds


def query_files(workdir: Path, manifest, pareto: bool):
    """The pre-store query path: scan files, build the catalog, answer."""
    directory = CampaignDirectory(workdir, manifest)

    def build_and_query():
        catalog = CampaignCatalog(manifest.campaign)
        for run in manifest.runs:
            payload = directory.read_run_result(run.run_id)
            catalog.add(
                run.run_id, dict(run.parameters), metrics_from_value(payload["value"])
            )
        return answers_of(catalog, pareto)

    return timed(build_and_query)


def query_memory(manifest, pareto: bool) -> dict:
    """The in-memory catalog's answers over the outcomes the store ingests
    (untimed: the oracle for tiers that write no files)."""
    catalog = CampaignCatalog(manifest.campaign)
    for i, run in enumerate(manifest.runs):
        catalog.add(
            run.run_id, dict(run.parameters), metrics_from_value(outcome_of(i, run)["value"])
        )
    return answers_of(catalog, pareto)


def ingest_store(db: Path, manifest) -> float:
    """The store path: register the manifest, bulk-ingest every outcome."""

    def write_all():
        with CampaignStore(db) as store:
            store.ensure_campaign(manifest)
            for i, run in enumerate(manifest.runs):
                payload = outcome_of(i, run)
                store.add_result(
                    manifest.campaign,
                    run.run_id,
                    value=payload["value"],
                    elapsed=payload["elapsed"],
                    attempts=payload["attempts"],
                    seed=payload["seed"],
                )

    seconds, _ = timed(write_all)
    return seconds


def query_store(db: Path, manifest, pareto: bool):
    def run_queries():
        with CampaignStore(db) as store:
            return answers_of(store.catalog(manifest.campaign), pareto)

    return timed(run_queries)


def answers_of(catalog, pareto: bool) -> dict:
    """The §II-C answers, in a comparable shape."""
    impact = catalog.parameter_impact("mode", "loss")
    answers = {
        "best": catalog.best(LOSS).run_id,
        "rank": [r.run_id for r in catalog.rank(LOSS, k=10)],
        "impact_effect": impact["effect"],
    }
    if pareto:
        answers["pareto"] = sorted(
            r.run_id for r in catalog.pareto_front([LOSS, COST])
        )
    return answers


def answers_match(a: dict, b: dict) -> bool:
    return (
        a["best"] == b["best"]
        and a["rank"] == b["rank"]
        and a.get("pareto") == b.get("pareto")
        and abs(a["impact_effect"] - b["impact_effect"]) <= 1e-9 * max(1.0, abs(a["impact_effect"]))
    )


def run_tier(
    runs: int,
    measure_files: bool,
    rounds: int,
    files_rate: float | None,
    pareto: bool,
):
    manifest = make_manifest(runs, f"bench-store-{runs}")
    best = {
        "files_ingest": float("inf"),
        "store_ingest": float("inf"),
        "files_query": float("inf"),
        "store_query": float("inf"),
    }
    queries_match = True
    memory_answers = None if measure_files else query_memory(manifest, pareto)
    for _ in range(rounds):
        workdir = Path(tempfile.mkdtemp(prefix="bench-store-"))
        try:
            expected = memory_answers
            if measure_files:
                best["files_ingest"] = min(
                    best["files_ingest"], ingest_files(workdir, manifest)
                )
                seconds, expected = query_files(workdir, manifest, pareto)
                best["files_query"] = min(best["files_query"], seconds)
            db = workdir / "store.sqlite"
            best["store_ingest"] = min(best["store_ingest"], ingest_store(db, manifest))
            seconds, store_answers = query_store(db, manifest, pareto)
            best["store_query"] = min(best["store_query"], seconds)
            queries_match = queries_match and answers_match(expected, store_answers)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    if measure_files:
        files_ingest = best["files_ingest"]
        files_query = best["files_query"]
        extrapolated = False
    else:
        # per-file writes are O(runs): scale the measured rate
        assert files_rate is not None, "measured tier must come first"
        files_ingest = runs / files_rate
        files_query = None
        extrapolated = True

    tier = {
        "runs": runs,
        "pareto_in_query_set": pareto,
        "files_ingest_seconds": files_ingest,
        "files_runs_per_sec": runs / files_ingest,
        "store_ingest_seconds": best["store_ingest"],
        "store_runs_per_sec": runs / best["store_ingest"],
        "speedup_ingest": files_ingest / best["store_ingest"],
        "files_extrapolated": extrapolated,
        "store_query_seconds": best["store_query"],
        "queries_match": queries_match,
        "answers_checked_against": "files" if measure_files else "in-memory catalog",
    }
    if files_query is not None:
        tier["files_query_seconds"] = files_query
        tier["speedup_query"] = files_query / best["store_query"]
    return tier


def run_bench(mode: str) -> dict:
    shape = MODES[mode]
    tiers = []
    files_rate = None
    for tier_shape in shape["tiers"]:
        tier = run_tier(
            tier_shape["runs"],
            tier_shape["measure_files"],
            shape["rounds"],
            files_rate,
            tier_shape["pareto"],
        )
        if not tier["files_extrapolated"]:
            files_rate = tier["files_runs_per_sec"]
        tiers.append(tier)
    return {
        "mode": mode,
        "workload": {
            "name": "synthetic-codesign-campaign",
            "params_per_run": 2,
            "metrics_per_run": 2,
        },
        "protocol": (
            f"gc-disabled best-of-{shape['rounds']}; files = per-run atomic "
            "fsynced result.json writes + full-scan catalog build; store = "
            "chunked executemany ingestion + SQL catalog queries; "
            "extrapolated tiers scale the measured per-file rate and check "
            "the store's answers against an untimed in-memory catalog"
        ),
        "rounds": shape["rounds"],
        "tiers": tiers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true", help="CI shape (one 2k tier)")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"where to write the JSON (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    result = run_bench(mode)
    for tier in result["tiers"]:
        extra = " (files extrapolated)" if tier["files_extrapolated"] else ""
        print(
            f"[{mode}] {tier['runs']} runs: files {tier['files_ingest_seconds']:.2f}s "
            f"({tier['files_runs_per_sec']:.0f}/s){extra}, store "
            f"{tier['store_ingest_seconds']:.2f}s ({tier['store_runs_per_sec']:.0f}/s) "
            f"-> {tier['speedup_ingest']:.1f}x ingest; store queries "
            f"{tier['store_query_seconds']:.3f}s, match={tier['queries_match']}"
        )

    output = args.output or DEFAULT_OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    document = {"schema": SCHEMA, "modes": {}}
    if output.exists():
        try:
            existing = json.loads(output.read_text())
            if existing.get("schema") == SCHEMA:
                document = existing
        except (json.JSONDecodeError, OSError):
            pass
    document.setdefault("modes", {})[mode] = result
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[wrote {output} ({mode} entry)]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
