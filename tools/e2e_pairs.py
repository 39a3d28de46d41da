#!/usr/bin/env python3
"""Alternating parent/change pairs of one e2ebench workload.

Usage, from the repository root::

    python tools/e2e_pairs.py --parent ../parent --workload sim-campaign \\
        --pairs 10 --seconds 25 --seed 907

``--parent`` and ``--change`` (default: this checkout) are two source
trees, each with its own ``e2ebench/``, ``src/`` and ``BENCHMARK.json``;
benchmark snapshots (``git archive``), not a tree being edited.  Each
pair runs both sides once, each in a fresh process, the parent first in
even pairs and the change first in odd ones, so a drift of the host
hits both sides alike.  ``--pairs`` defaults to 6, an even count; an
odd count is named in one line before the first pair, since its extra
pair runs the parent first.  A run calls ``e2ebench.run.run_workload``
of its own tree in process, with its work and output directories in a
fresh directory under ``--workdir`` (default ``/dev/shm``), so no mount
is made; the directory is removed afterwards.

For each end-to-end metric of ``BENCHMARK.json`` the table gives each
side's median and quartiles, the change of the median, and in how many
pairs the change was better (a tie counts for neither side).  Then each
metric is judged against its ``bound`` (see :func:`judge`): "within
bound", "worse by more than the X% bound", or "unresolved" when the
parent's own runs spread wider than the bound.  Last, each metric's
median change of a pair over the pairs where the parent ran first and
over those where the change ran first (see :func:`order_split`): a
difference that follows run order, not the code, shows there.  The
exit status is 1 when a run reports ``correct: false`` or the change
failed more operations than the parent over all pairs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Run in a child process with ``root workload seed seconds workdir``.
_CHILD = """
import json, shutil, sys, tempfile
from pathlib import Path
root, workload, seed, seconds, workdir = sys.argv[1:]
sys.path[:0] = [str(Path(root) / "src"), root]
from e2ebench import run
work = Path(tempfile.mkdtemp(prefix="e2e-pairs-", dir=workdir))
try:
    run.WORK, run.OUT = work / "work", work / "out"
    spec = json.loads((Path(root) / "BENCHMARK.json").read_text())
    result, _ = run.run_workload(spec, workload, int(seed), float(seconds), False)
finally:
    shutil.rmtree(work, ignore_errors=True)
print(json.dumps(result))
"""


def run_once(root: Path, args) -> dict:
    """One untraced run of ``args.workload`` from the tree at ``root``."""
    proc = subprocess.run(
        [
            sys.executable, "-c", _CHILD,
            str(root), args.workload, str(args.seed), str(args.seconds), args.workdir,
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"e2e_pairs: the run from {root} did not finish")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list, parent: list, change: list) -> list:
    """One table row per metric: both sides' quartiles, the median's
    change and the change's wins."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] / pq[1] - 1.0) * 100.0 if pq[1] else float("nan")
        rows.append(
            f"{name:18s} parent {pq[1]:.6g} [{pq[0]:.6g}-{pq[2]:.6g}]  "
            f"change {cq[1]:.6g} [{cq[0]:.6g}-{cq[2]:.6g}]  "
            f"{delta:+.1f}%  change better in {wins}/{len(p)}"
        )
    return rows


def judge(metric: dict, parent: list, change: list) -> str:
    """One metric's standing against its ``BENCHMARK.json`` bound, from
    each side's values.

    "unresolved" when the parent's interquartile range divided by its
    median is wider than the bound, unless every change run beats every
    parent run; else "worse by more than the X% bound" when the change's
    median is worse than the parent's by more than the bound, else
    "within bound".
    """
    lower, bound = metric["better"] == "lower", metric["bound"]
    q1, median, q3 = quartiles(parent)
    if not median:
        return "unresolved"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if (q3 - q1) / abs(median) > bound and not beats_all:
        return "unresolved"
    ratio = quartiles(change)[1] / median
    if (ratio - 1.0 if lower else 1.0 - ratio) > bound:
        return f"worse by more than the {bound:.0%} bound"
    return "within bound"


def order_split(metrics: list, parent: list, change: list) -> list:
    """One row per metric: the median of each pair's change, the change's
    value over the parent's, over the pairs where the parent ran first
    (the even pairs) and over those where the change ran first, each
    with its pair count.  A pair whose parent value is 0 has no change
    and counts in neither."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        cells = []
        for label, first in (("parent first", 0), ("change first", 1)):
            deltas = [
                (c["metrics"][name]["value"] / p["metrics"][name]["value"] - 1.0) * 100.0
                for p, c in zip(parent[first::2], change[first::2])
                if p["metrics"][name]["value"]
            ]
            median = f"{statistics.median(deltas):+.1f}%" if deltas else "n/a"
            cells.append(f"{label} {median} (n={len(deltas)})")
        rows.append(f"{name:18s} " + "  ".join(cells))
    return rows


def verdict(results: dict) -> list:
    """What fails the change, given each side's results: a run that
    reported ``correct: false``, or more failed operations than the
    parent over all pairs.  Empty when nothing does."""
    problems = [
        f"a {side} run reported correct: false"
        for side, runs in results.items()
        if not all(r["correct"] for r in runs)
    ]
    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    if failed["change"] > failed["parent"]:
        problems.append(
            f"the change failed {failed['change']} operations, the parent {failed['parent']}"
        )
    return problems


def parser() -> argparse.ArgumentParser:
    """The command line.  ``--pairs`` defaults to an even count, so each
    run order gets as many pairs as the other."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", default=ROOT, type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", default="/dev/shm", help="where the runs' directories go")
    return parser


def uneven_orders(pairs: int) -> str:
    """The line that warns of an odd pair count, or ``""``: the parent
    runs first in even pairs, so it gets the extra one."""
    if pairs % 2 == 0:
        return ""
    return (
        f"e2e_pairs: an odd pair count ({pairs}): the parent-first order runs one "
        "more pair than the change-first order"
    )


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    if uneven_orders(args.pairs):
        print(uneven_orders(args.pairs), flush=True)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args)
            results[side].append(result)
            print(
                f"pair {pair + 1}/{args.pairs} {side}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    for row in summarize(spec["end_to_end"], results["parent"], results["change"]):
        print(row)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()
        }
        print(f"{name:18s} {judge(metric, values['parent'], values['change'])}")
    for row in order_split(spec["end_to_end"], results["parent"], results["change"]):
        print(row)
    problems = verdict(results)
    for problem in problems:
        print(f"e2e_pairs: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
