#!/usr/bin/env python
"""Validate committed benchmark artifacts against their declared schemas.

Every machine-readable benchmark artifact in this repo is a
``benchmarks/results/BENCH_*.json`` document carrying a top-level
``"schema"`` identifier (e.g. ``"repro.bench.simcore/v1"``).  CI runs
this script so that a hand edit, a merge accident, or a bench-script
change that silently alters the artifact shape fails loudly instead of
poisoning the perf-trajectory gate downstream.

Usage::

    python tools/check_bench_schema.py            # validate all BENCH_*.json
    python tools/check_bench_schema.py FILE...    # validate specific files

Exit status is non-zero if any file fails validation.  Adding a new
benchmark artifact family means registering its schema id and validator
in ``VALIDATORS`` below — unknown schema ids are an error by design.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"


class SchemaError(Exception):
    """A document does not conform to its declared schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _positive_number(doc: dict, key: str, where: str) -> None:
    value = doc.get(key)
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where}: {key!r} must be a number, got {value!r}",
    )
    _require(value > 0, f"{where}: {key!r} must be positive, got {value!r}")


def _check_simcore_mode(name: str, entry: dict) -> None:
    where = f"modes[{name!r}]"
    _require(isinstance(entry, dict), f"{where}: must be an object")
    _require(entry.get("mode") == name, f"{where}: 'mode' must equal the key")
    for key in ("tasks_per_sec", "event_tasks_per_sec", "best_seconds",
                "speedup_vs_event", "speedup_vs_prechange"):
        _positive_number(entry, key, where)
    _require(
        isinstance(entry.get("attempts"), int) and entry["attempts"] > 0,
        f"{where}: 'attempts' must be a positive integer",
    )
    _require(
        isinstance(entry.get("rounds"), int) and entry["rounds"] > 0,
        f"{where}: 'rounds' must be a positive integer",
    )
    _require(
        isinstance(entry.get("peak_rss_bytes"), int) and entry["peak_rss_bytes"] > 0,
        f"{where}: 'peak_rss_bytes' must be a positive integer",
    )
    _require(
        isinstance(entry.get("protocol"), str) and entry["protocol"],
        f"{where}: 'protocol' must be a non-empty string",
    )

    workload = entry.get("workload")
    _require(isinstance(workload, dict), f"{where}: 'workload' must be an object")
    for key in ("n_tasks", "nodes"):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"{where}.workload: {key!r} must be a positive integer",
        )
    _require(
        isinstance(workload.get("name"), str) and workload["name"],
        f"{where}.workload: 'name' must be a non-empty string",
    )
    _require("seed" in workload, f"{where}.workload: missing 'seed'")

    prechange = entry.get("prechange")
    _require(isinstance(prechange, dict), f"{where}: 'prechange' must be an object")
    _require(
        isinstance(prechange.get("commit"), str) and prechange["commit"],
        f"{where}.prechange: 'commit' must be a non-empty string",
    )
    _positive_number(prechange, "tasks_per_sec", f"{where}.prechange")

    fold = entry.get("report_fold")
    _require(isinstance(fold, dict), f"{where}: 'report_fold' must be an object")
    for key in ("events", "campaigns"):
        _require(
            isinstance(fold.get(key), int) and fold[key] > 0,
            f"{where}.report_fold: {key!r} must be a positive integer",
        )
    for key in ("seconds", "events_per_sec"):
        _positive_number(fold, key, f"{where}.report_fold")
    trace = fold.get("trace")
    _require(
        isinstance(trace, str) and trace,
        f"{where}.report_fold: 'trace' must be a non-empty string",
    )
    _require(
        (RESULTS / trace).is_file(),
        f"{where}.report_fold: trace fixture {trace!r} is not committed "
        f"under benchmarks/results/",
    )

    finalize = entry.get("report_finalize")
    where = f"{where}.report_finalize"
    _require(isinstance(finalize, dict), f"{where}: must be an object")
    _require(
        isinstance(finalize.get("rounds"), int) and finalize["rounds"] > 0,
        f"{where}: 'rounds' must be a positive integer",
    )
    _require(
        isinstance(finalize.get("protocol"), str) and finalize["protocol"],
        f"{where}: 'protocol' must be a non-empty string",
    )
    prechange = finalize.get("prechange")
    _require(isinstance(prechange, dict), f"{where}: 'prechange' must be an object")
    _require(
        isinstance(prechange.get("commit"), str) and prechange["commit"],
        f"{where}.prechange: 'commit' must be a non-empty string",
    )
    workloads = finalize.get("workloads")
    _require(isinstance(workloads, dict), f"{where}: 'workloads' must be an object")
    _require(
        set(workloads) == {"pilot-campaign", "pilot-chain"},
        f"{where}: 'workloads' must be exactly 'pilot-campaign' and "
        f"'pilot-chain', got {sorted(workloads)}",
    )
    for workload, row in sorted(workloads.items()):
        at = f"{where}.workloads[{workload!r}]"
        _require(isinstance(row, dict), f"{at}: must be an object")
        for key in ("n_tasks", "nodes", "events", "attempts", "critical_path"):
            _require(
                isinstance(row.get(key), int) and row[key] > 0,
                f"{at}: {key!r} must be a positive integer",
            )
        for key in ("seconds", "prechange_seconds", "speedup_vs_prechange"):
            _positive_number(row, key, at)


def check_simcore_v1(doc: dict) -> None:
    modes = doc.get("modes")
    _require(
        isinstance(modes, dict) and modes,
        "'modes' must be a non-empty object",
    )
    known = {"quick", "full"}
    unknown = set(modes) - known
    _require(not unknown, f"unknown mode entries: {sorted(unknown)}")
    for name, entry in sorted(modes.items()):
        _check_simcore_mode(name, entry)


def _check_lint_mode(name: str, entry: dict) -> None:
    where = f"modes[{name!r}]"
    _require(isinstance(entry, dict), f"{where}: must be an object")
    _require(entry.get("mode") == name, f"{where}: 'mode' must equal the key")
    for key in (
        "cold_seconds",
        "warm_seconds",
        "touched_seconds",
        "campaigns_per_sec_cold",
        "campaigns_per_sec_warm",
        "speedup_cold_over_warm",
        "speedup_cold_over_touched",
    ):
        _positive_number(entry, key, where)
    _require(
        isinstance(entry.get("rounds"), int) and entry["rounds"] > 0,
        f"{where}: 'rounds' must be a positive integer",
    )
    _require(
        isinstance(entry.get("protocol"), str) and entry["protocol"],
        f"{where}: 'protocol' must be a non-empty string",
    )
    workload = entry.get("workload")
    _require(isinstance(workload, dict), f"{where}: 'workload' must be an object")
    for key in ("n_campaigns", "sources_per_campaign"):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"{where}.workload: {key!r} must be a positive integer",
        )
    _require(
        isinstance(workload.get("name"), str) and workload["name"],
        f"{where}.workload: 'name' must be a non-empty string",
    )
    # The acceptance bar for the incremental cache: an unchanged catalog
    # re-lints at least an order of magnitude faster than a cold one.
    _require(
        entry["speedup_cold_over_warm"] >= 10.0,
        f"{where}: 'speedup_cold_over_warm' is "
        f"{entry['speedup_cold_over_warm']:.1f}, below the 10x acceptance bar",
    )


def check_lint_v1(doc: dict) -> None:
    modes = doc.get("modes")
    _require(
        isinstance(modes, dict) and modes,
        "'modes' must be a non-empty object",
    )
    known = {"quick", "full"}
    unknown = set(modes) - known
    _require(not unknown, f"unknown mode entries: {sorted(unknown)}")
    for name, entry in sorted(modes.items()):
        _check_lint_mode(name, entry)


def _check_telemetry_mode(name: str, entry: dict) -> None:
    where = f"modes[{name!r}]"
    _require(isinstance(entry, dict), f"{where}: must be an object")
    _require(entry.get("mode") == name, f"{where}: 'mode' must equal the key")
    for key in ("off_seconds", "on_seconds"):
        _positive_number(entry, key, where)
    overhead = entry.get("overhead_pct")
    _require(
        isinstance(overhead, (int, float)) and not isinstance(overhead, bool),
        f"{where}: 'overhead_pct' must be a number, got {overhead!r}",
    )
    _require(
        isinstance(entry.get("rounds"), int) and entry["rounds"] > 0,
        f"{where}: 'rounds' must be a positive integer",
    )
    _require(
        isinstance(entry.get("protocol"), str) and entry["protocol"],
        f"{where}: 'protocol' must be a non-empty string",
    )
    workload = entry.get("workload")
    _require(isinstance(workload, dict), f"{where}: 'workload' must be an object")
    for key in ("n_campaigns", "runs_per_campaign", "tenants"):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"{where}.workload: {key!r} must be a positive integer",
        )
    _require(
        isinstance(workload.get("name"), str) and workload["name"],
        f"{where}.workload: 'name' must be a non-empty string",
    )
    # Evidence the plane actually ran during the 'on' configuration —
    # a zero here means the measurement compared off against off.
    telemetry = entry.get("telemetry")
    _require(isinstance(telemetry, dict), f"{where}: 'telemetry' must be an object")
    for key in ("events", "log_lines", "worker_samples", "scrape_bytes"):
        _require(
            isinstance(telemetry.get(key), int) and telemetry[key] > 0,
            f"{where}.telemetry: {key!r} must be a positive integer",
        )
    # The acceptance bar from docs/telemetry.md: the whole plane (sampler
    # + exposition + logs + profiler) stays under 5% end-to-end overhead.
    # Negative values pass — that is noise saying the plane is free.
    _require(
        overhead < 5.0,
        f"{where}: 'overhead_pct' is {overhead:.2f}, at or above the "
        f"5% acceptance bar",
    )


def check_telemetry_v1(doc: dict) -> None:
    modes = doc.get("modes")
    _require(
        isinstance(modes, dict) and modes,
        "'modes' must be a non-empty object",
    )
    known = {"quick", "full"}
    unknown = set(modes) - known
    _require(not unknown, f"unknown mode entries: {sorted(unknown)}")
    for name, entry in sorted(modes.items()):
        _check_telemetry_mode(name, entry)


def _check_store_tier(where: str, tier: dict) -> None:
    _require(isinstance(tier, dict), f"{where}: must be an object")
    _require(
        isinstance(tier.get("runs"), int) and tier["runs"] > 0,
        f"{where}: 'runs' must be a positive integer",
    )
    for key in (
        "files_ingest_seconds",
        "files_runs_per_sec",
        "store_ingest_seconds",
        "store_runs_per_sec",
        "speedup_ingest",
        "store_query_seconds",
    ):
        _positive_number(tier, key, where)
    for key in ("files_extrapolated", "queries_match", "pareto_in_query_set"):
        _require(
            isinstance(tier.get(key), bool),
            f"{where}: {key!r} must be a boolean",
        )
    _require(
        tier["queries_match"] is True,
        f"{where}: 'queries_match' must be true — the SQL catalog and the "
        f"in-memory catalog disagreed",
    )
    if not tier["files_extrapolated"]:
        _positive_number(tier, "files_query_seconds", where)
        _positive_number(tier, "speedup_query", where)
    # The acceptance bar: bulk SQL ingestion beats per-file persistence
    # by at least 5x from the 10k-run tier up.
    if tier["runs"] >= 10_000:
        _require(
            tier["speedup_ingest"] >= 5.0,
            f"{where}: 'speedup_ingest' is {tier['speedup_ingest']:.1f} at "
            f"{tier['runs']} runs, below the 5x acceptance bar",
        )


def _check_store_mode(name: str, entry: dict) -> None:
    where = f"modes[{name!r}]"
    _require(isinstance(entry, dict), f"{where}: must be an object")
    _require(entry.get("mode") == name, f"{where}: 'mode' must equal the key")
    _require(
        isinstance(entry.get("rounds"), int) and entry["rounds"] > 0,
        f"{where}: 'rounds' must be a positive integer",
    )
    _require(
        isinstance(entry.get("protocol"), str) and entry["protocol"],
        f"{where}: 'protocol' must be a non-empty string",
    )
    workload = entry.get("workload")
    _require(isinstance(workload, dict), f"{where}: 'workload' must be an object")
    _require(
        isinstance(workload.get("name"), str) and workload["name"],
        f"{where}.workload: 'name' must be a non-empty string",
    )
    for key in ("params_per_run", "metrics_per_run"):
        _require(
            isinstance(workload.get(key), int) and workload[key] > 0,
            f"{where}.workload: {key!r} must be a positive integer",
        )
    tiers = entry.get("tiers")
    _require(isinstance(tiers, list) and tiers, f"{where}: 'tiers' must be a non-empty list")
    for i, tier in enumerate(tiers):
        _check_store_tier(f"{where}.tiers[{i}]", tier)
    if name == "full":
        _require(
            any(t.get("runs", 0) >= 10_000 for t in tiers),
            f"{where}: the full mode must include a >=10k-run tier",
        )


def check_store_v1(doc: dict) -> None:
    modes = doc.get("modes")
    _require(
        isinstance(modes, dict) and modes,
        "'modes' must be a non-empty object",
    )
    known = {"quick", "full"}
    unknown = set(modes) - known
    _require(not unknown, f"unknown mode entries: {sorted(unknown)}")
    for name, entry in sorted(modes.items()):
        _check_store_mode(name, entry)


#: Registered schema id -> validator.  Unknown ids fail validation.
VALIDATORS = {
    "repro.bench.simcore/v1": check_simcore_v1,
    "repro.bench.lint/v1": check_lint_v1,
    "repro.bench.telemetry/v1": check_telemetry_v1,
    "repro.bench.store/v1": check_store_v1,
}


def check_file(path: Path) -> list[str]:
    """Return a list of problems with *path* (empty if it validates)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"not readable JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]
    schema = doc.get("schema")
    if not isinstance(schema, str) or not schema:
        return ["missing top-level 'schema' identifier"]
    validator = VALIDATORS.get(schema)
    if validator is None:
        return [
            f"unregistered schema id {schema!r} — register a validator in "
            f"tools/check_bench_schema.py"
        ]
    try:
        validator(doc)
    except SchemaError as exc:
        return [str(exc)]
    return []


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        paths = sorted(RESULTS.glob("BENCH_*.json"))
        if not paths:
            print(f"error: no BENCH_*.json found under {RESULTS}", file=sys.stderr)
            return 1
    failures = 0
    for path in paths:
        problems = check_file(path)
        rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        if problems:
            failures += 1
            for problem in problems:
                print(f"FAIL {rel}: {problem}")
        else:
            schema = json.loads(path.read_text())["schema"]
            print(f"ok   {rel} ({schema})")
    if failures:
        print(f"{failures} of {len(paths)} benchmark artifact(s) failed validation")
        return 1
    print(f"all {len(paths)} benchmark artifact(s) conform to their schemas")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
