#!/usr/bin/env python
"""Validate committed benchmark artifacts against their declared schemas.

Every machine-readable benchmark artifact in this repo is a
``benchmarks/results/BENCH_*.json`` document of one shape::

    {"schema": "repro.bench.<family>/v1",
     "modes": {"quick": ENTRY, "full": ENTRY}}    # one mode may be absent

CI runs this script so that a hand edit, a merge accident, or a
bench-script change that silently alters the artifact shape fails loudly
instead of poisoning the perf-trajectory gate downstream.

The rules live in two tables.  :data:`ENTRY` holds what every mode entry
carries, whatever its family: ``mode`` (equal to its key), ``rounds``,
``protocol`` and ``workload.name``.  :data:`SCHEMAS` holds one row per
schema id: the kind of each of that family's values (a positive number,
a positive integer, a non-empty string, a boolean, a nested object or a
non-empty list of them) and its acceptance bars, each a short predicate.
A new artifact family is one new row; unknown schema ids are an error by
design.

Usage::

    python tools/check_bench_schema.py            # validate all BENCH_*.json
    python tools/check_bench_schema.py FILE...    # validate specific files

Exit status is non-zero if any file fails validation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"


class SchemaError(Exception):
    """A document does not conform to its declared schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


class Kind(NamedTuple):
    """What a leaf value must be (``noun``) and the test for it."""

    noun: str
    test: Callable[[object], bool]


class Obj(NamedTuple):
    """A nested object: the kind of each required key, then acceptance
    bars as ``(predicate, message)`` pairs.  A bar runs once every key
    has its kind, and its message is formatted with the object's keys."""

    fields: dict
    bars: tuple = ()


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


NUMBER = Kind("a number", _number)
POSITIVE = Kind("a positive number", lambda v: _number(v) and v > 0)
COUNT = Kind("a positive integer", lambda v: POSITIVE.test(v) and isinstance(v, int))
TEXT = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
FLAG = Kind("a boolean", lambda v: isinstance(v, bool))
PRESENT = Kind("present", lambda v: True)

def keys(kind: Kind, names: str) -> dict:
    """``{name: kind}`` for each whitespace-separated name."""
    return dict.fromkeys(names.split(), kind)


#: What every mode entry carries; its ``mode`` must also equal its key.
ENTRY = Obj({"mode": TEXT, "rounds": COUNT, "protocol": TEXT, "workload": {"name": TEXT}})

FINALIZE_WORKLOADS = ("pilot-campaign", "pilot-chain")

FINALIZE_ROW = {
    **keys(COUNT, "n_tasks nodes events attempts critical_path"),
    **keys(POSITIVE, "seconds prechange_seconds speedup_vs_prechange"),
}

STORE_TIER = Obj(
    {
        "runs": COUNT,
        **keys(POSITIVE, "files_ingest_seconds files_runs_per_sec store_ingest_seconds "
               "store_runs_per_sec speedup_ingest store_query_seconds"),
        **keys(FLAG, "files_extrapolated queries_match pareto_in_query_set"),
    },
    (
        (lambda tier: tier["queries_match"] is True,
         "'queries_match' must be true — the SQL catalog and the in-memory catalog disagreed"),
        (lambda tier: tier["files_extrapolated"]
         or all(POSITIVE.test(tier.get(k)) for k in ("files_query_seconds", "speedup_query")),
         "a measured tier needs positive 'files_query_seconds' and 'speedup_query'"),
        # Bulk SQL ingestion beats per-file persistence by at least 5x
        # from the 10k-run tier up.
        (lambda tier: tier["runs"] < 10_000 or tier["speedup_ingest"] >= 5.0,
         "'speedup_ingest' is {speedup_ingest:.1f} at {runs} runs, below the 5x acceptance bar"),
    ),
)

#: Registered schema id -> the rules for one of its mode entries, beyond
#: :data:`ENTRY`.  Unknown ids fail validation.
SCHEMAS = {
    "repro.bench.simcore/v1": Obj({
        **keys(POSITIVE, "tasks_per_sec event_tasks_per_sec best_seconds speedup_vs_event "
               "speedup_vs_prechange"),
        **keys(COUNT, "attempts peak_rss_bytes"),
        "workload": {"n_tasks": COUNT, "nodes": COUNT, "seed": PRESENT},
        "prechange": {"commit": TEXT, "tasks_per_sec": POSITIVE},
        "report_fold": Obj(
            {**keys(COUNT, "events campaigns"), **keys(POSITIVE, "seconds events_per_sec"),
             "trace": TEXT},
            ((lambda fold: (RESULTS / fold["trace"]).is_file(),
              "trace fixture {trace!r} is not committed under benchmarks/results/"),),
        ),
        "report_finalize": Obj(
            {"rounds": COUNT, "protocol": TEXT, "prechange": {"commit": TEXT},
             "workloads": dict.fromkeys(FINALIZE_WORKLOADS, FINALIZE_ROW)},
            ((lambda finalize: set(finalize["workloads"]) == set(FINALIZE_WORKLOADS),
              "'workloads' must be exactly 'pilot-campaign' and 'pilot-chain'"),),
        ),
    }),
    "repro.bench.lint/v1": Obj(
        {
            **keys(POSITIVE, "cold_seconds warm_seconds touched_seconds campaigns_per_sec_cold "
                   "campaigns_per_sec_warm speedup_cold_over_warm speedup_cold_over_touched"),
            "workload": keys(COUNT, "n_campaigns sources_per_campaign"),
        },
        # The incremental cache's bar: an unchanged catalog re-lints at
        # least an order of magnitude faster than a cold one.
        ((lambda entry: entry["speedup_cold_over_warm"] >= 10.0,
          "'speedup_cold_over_warm' is {speedup_cold_over_warm:.1f}, below the 10x "
          "acceptance bar"),),
    ),
    "repro.bench.telemetry/v1": Obj(
        {
            **keys(POSITIVE, "off_seconds on_seconds"),
            "overhead_pct": NUMBER,
            "workload": keys(COUNT, "n_campaigns runs_per_campaign tenants"),
            # Evidence the plane ran in the 'on' configuration: a zero
            # here means the measurement compared off against off.
            "telemetry": keys(COUNT, "events log_lines worker_samples scrape_bytes"),
        },
        # docs/telemetry.md's bar: the whole plane stays under 5% end to
        # end.  Negative values pass: that is noise saying it is free.
        ((lambda entry: entry["overhead_pct"] < 5.0,
          "'overhead_pct' is {overhead_pct:.2f}, at or above the 5% acceptance bar"),),
    ),
    "repro.bench.store/v1": Obj(
        {"workload": keys(COUNT, "params_per_run metrics_per_run"), "tiers": [STORE_TIER]},
        ((lambda entry: entry["mode"] != "full"
          or any(tier["runs"] >= 10_000 for tier in entry["tiers"]),
          "the full mode must include a >=10k-run tier"),),
    ),
}


def _walk(value, spec, where: str) -> None:
    """Raise :class:`SchemaError` at the first place ``value`` breaks ``spec``
    (an :class:`Obj`, a plain dict of fields, or ``[item_spec]``)."""
    if isinstance(spec, list):
        _require(isinstance(value, list) and value, f"{where}: must be a non-empty list")
        for i, item in enumerate(value):
            _walk(item, spec[0], f"{where}[{i}]")
        return
    if isinstance(spec, dict):
        spec = Obj(spec)
    _require(isinstance(value, dict), f"{where}: must be an object")
    for key, kind in spec.fields.items():
        _require(key in value, f"{where}: missing {key!r}")
        if isinstance(kind, Kind):
            got = value[key]
            _require(kind.test(got), f"{where}: {key!r} must be {kind.noun}, got {got!r}")
        else:
            _walk(value[key], kind, f"{where}.{key}")
    for holds, message in spec.bars:
        _require(holds(value), f"{where}: " + message.format(**value))


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
    if schema not in SCHEMAS:
        return [
            f"unregistered schema id {schema!r} — add its row to SCHEMAS in "
            f"tools/check_bench_schema.py"
        ]
    modes = doc.get("modes")
    try:
        _require(isinstance(modes, dict) and modes, "'modes' must be a non-empty object")
        unknown = set(modes) - {"quick", "full"}
        _require(not unknown, f"unknown mode entries: {sorted(unknown)}")
        for name, entry in sorted(modes.items()):
            where = f"modes[{name!r}]"
            _walk(entry, ENTRY, where)
            _require(entry["mode"] == name, f"{where}: 'mode' must equal the key")
            _walk(entry, SCHEMAS[schema], where)
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
