#!/usr/bin/env python
"""Incremental-lint-cache benchmark: cold vs. warm over a campaign catalog.

The ROADMAP north-star talks about a million-entry campaign catalog; a
catalog that size cannot afford to re-run thirty rules over every entry
each time one campaign changes.  This benchmark generates a directory of
N real campaign end points (each with a manifest and a couple of source
artifacts, so a cold lint pays the full AST + rule cost), then measures:

- **cold**: ``lint_path`` over the whole catalog with every
  ``.cheetah/lintcache.json`` absent — the full manifest-parse +
  rule-evaluation cost;
- **warm**: the same call again, every digest unchanged — file reads
  plus one SHA-256 per campaign, no rule runs;
- **touched**: one campaign's source modified — the near-O(changed)
  claim: one cold entry, N-1 warm ones.

Results go, schema-versioned (``repro.bench.lint/v1``), to
``benchmarks/results/BENCH_lint.json`` and are validated by
``tools/check_bench_schema.py``.  The acceptance bar for the cache is
``speedup_cold_over_warm >= 10``.

Modes
-----
``--quick``
    60 campaigns — seconds end to end, right for CI smoke.
full (default)
    500 campaigns — the shape the acceptance number is quoted for.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from _artifact import arguments, timed, write_mode

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter  # noqa: E402
from repro.cheetah.directory import CampaignDirectory  # noqa: E402
from repro.lint import lint_path  # noqa: E402
from repro.lint.cache import CACHE_FILENAME  # noqa: E402

SCHEMA = "repro.bench.lint/v1"
RESULTS = REPO / "benchmarks" / "results"
DEFAULT_OUTPUT = RESULTS / "BENCH_lint.json"

MODES = {
    "quick": {"n_campaigns": 60, "rounds": 3},
    "full": {"n_campaigns": 500, "rounds": 3},
}

#: Per-campaign analysis module: realistic post-processing size (a few
#: hundred lines, a dozen functions) so a cold lint pays a real AST +
#: interprocedural-analysis cost, while the warm path only hashes bytes.
ANALYSIS_HEADER = '''"""Post-processing for campaign {name}."""

import json
import os


def load(run_dir):
    with open(os.path.join(run_dir, "result.json")) as fh:
        return json.load(fh)


def summarize(run_dirs):
    rows = []
    for run_dir in run_dirs:
        payload = load(run_dir)
        rows.append((run_dir, payload.get("value")))
    return rows
'''

ANALYSIS_STAGE = '''

def stage_{i}(params, run_dir):
    acc = 0.0
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (int, float)):
            acc += value * {i}
        else:
            acc += len(str(value))
    path = os.path.join(run_dir, "stage_{i}.json")
    with open(path, "w") as fh:
        json.dump({{"stage": {i}, "acc": acc}}, fh)
    return acc


def merge_{i}(rows):
    merged = {{}}
    for run_dir, value in rows:
        bucket = merged.setdefault(run_dir, [])
        bucket.append((value, {i}))
    return merged
'''


def analysis_source(name: str, stages: int) -> str:
    parts = [ANALYSIS_HEADER.format(name=name)]
    parts += [ANALYSIS_STAGE.format(i=i) for i in range(stages)]
    return "".join(parts)

LAUNCH_TEMPLATE = """#!/bin/sh
# launcher for {name}
exec python analysis.py "$@"
"""


def build_catalog(root: Path, n_campaigns: int) -> list[Path]:
    """Materialize ``n_campaigns`` real campaign end points under root."""
    entries = []
    for i in range(n_campaigns):
        name = f"camp-{i:04d}"
        camp = Campaign(name, app=AppSpec("bench-app"))
        group = camp.sweep_group("g", nodes=1, walltime=600.0)
        group.add(Sweep([SweepParameter("x", range(1 + i % 3))]))
        directory = CampaignDirectory(root, camp.to_manifest())
        directory.create()
        (directory.root / "analysis.py").write_text(analysis_source(name, stages=12))
        (directory.root / "launch.sh").write_text(LAUNCH_TEMPLATE.format(name=name))
        entries.append(directory.root)
    return entries


def drop_caches(root: Path) -> None:
    for cache in root.rglob(CACHE_FILENAME):
        cache.unlink()


def timed_lint(root: Path) -> tuple[float, int]:
    elapsed, report = timed(lint_path, root)
    return elapsed, len(report)


def run_bench(mode: str) -> dict:
    shape = MODES[mode]
    n_campaigns, rounds = shape["n_campaigns"], shape["rounds"]
    workdir = Path(tempfile.mkdtemp(prefix="bench-lint-"))
    try:
        catalog = workdir / "catalog"
        catalog.mkdir()
        entries = build_catalog(catalog, n_campaigns)

        best = {"cold": float("inf"), "warm": float("inf"), "touched": float("inf")}
        findings = 0
        for round_index in range(rounds):
            drop_caches(catalog)
            cold, findings = timed_lint(catalog)
            warm, warm_findings = timed_lint(catalog)
            assert warm_findings == findings, "cache changed the verdict"
            # touch one campaign's source: near-O(changed) re-lint
            victim = entries[round_index % len(entries)] / "analysis.py"
            victim.write_text(victim.read_text() + f"\n# round {round_index}\n")
            touched, _ = timed_lint(catalog)
            best["cold"] = min(best["cold"], cold)
            best["warm"] = min(best["warm"], warm)
            best["touched"] = min(best["touched"], touched)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "mode": mode,
        "workload": {
            "name": "generated-campaign-catalog",
            "n_campaigns": n_campaigns,
            "sources_per_campaign": 2,
            "findings": findings,
        },
        "protocol": (
            f"gc-disabled best-of-{rounds}; cold = caches dropped, warm = "
            "unchanged digests, touched = one campaign source modified"
        ),
        "rounds": rounds,
        "cold_seconds": best["cold"],
        "warm_seconds": best["warm"],
        "touched_seconds": best["touched"],
        "campaigns_per_sec_cold": n_campaigns / best["cold"],
        "campaigns_per_sec_warm": n_campaigns / best["warm"],
        "speedup_cold_over_warm": best["cold"] / best["warm"],
        "speedup_cold_over_touched": best["cold"] / best["touched"],
    }


def main(argv=None) -> int:
    args = arguments(__doc__, "CI shape (60 campaigns)", DEFAULT_OUTPUT).parse_args(argv)

    mode = "quick" if args.quick else "full"
    result = run_bench(mode)
    print(
        f"[{mode}] {result['workload']['n_campaigns']} campaigns: "
        f"cold {result['cold_seconds']:.3f}s, warm {result['warm_seconds']:.3f}s "
        f"({result['speedup_cold_over_warm']:.1f}x), one-touched "
        f"{result['touched_seconds']:.3f}s "
        f"({result['speedup_cold_over_touched']:.1f}x)"
    )
    write_mode(args.output or DEFAULT_OUTPUT, SCHEMA, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
