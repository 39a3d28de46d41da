#!/usr/bin/env python
"""Simulator-core throughput benchmark: the perf-trajectory anchor.

Measures three things and writes them, schema-versioned, to
``benchmarks/results/BENCH_simcore.json``:

- **simulated tasks/sec** of the default vectorized engine
  (``repro.savanna._vector``) on the Figure-6 campaign workload — both
  executors (static set-synchronized + dynamic pilot), GC disabled,
  best-of-N rounds;
- the same workload through the **per-event reference engine**, the
  test suite's oracle in ``tests/_event_engine.py`` (selected through
  ``tests/_oracle.py``, as the equivalence tests select it), with rounds
  *interleaved* vector/event so machine drift hits both engines equally;
- **report-fold latency**: events/sec of the streaming analytics builder
  (:class:`~repro.observability.analysis.StreamingCampaignReport`)
  folding the committed fig6 Chrome trace;
- **report-finalize latency**: seconds of the builder's ``reports()``
  (critical path, slack, attribution, stragglers) on two captured pilot
  campaigns: the mode's campaign, and a 2,000-task chain on 2 nodes,
  which has a real-dispatch campaign's shape (a critical path through
  ~1,000 tasks on one node).

Plus peak RSS for the whole benchmark process.

Modes
-----
``--quick``
    The committed Figure-6 shape (120 tasks / 20 nodes).  Small enough
    for CI; the per-event dispatch overhead is only partially exposed at
    this scale.
full (default)
    The fig6 campaign scaled to production size (20 000 tasks / 500
    nodes, ~40 000 attempts).  This is where the vectorized core's
    headline speedup vs the pre-change engine is measured.

``--check BASELINE.json`` re-runs the current mode and gates against a
committed baseline: exit 1 if tasks/sec or a report-finalize time
regressed more than ``--tolerance`` (default 20%), a loud warning — not
a failure — if one *improved* more than the tolerance without the
baseline being regenerated (an unexplained speedup usually means the
workload changed, not the machine).

Protocol notes
--------------
GC is collected then disabled around every timed region (the Task ↔
TaskAttempt reference cycles otherwise trigger gen-2 collections mid
run, adding double-digit-percent noise).  Timings are best-of-N because
throughput is noise-bounded from above: the fastest round is the one
least perturbed by the machine.  The ``prechange`` reference numbers
were measured at commit 06aa00e (the last commit before the vectorized
core landed) with this same script's workload, protocol, and
interleaved A/B runs on the development machine; they are carried here
so ``speedup_vs_prechange`` stays meaningful after the event engine
itself picks up optimizations.  ``PRECHANGE_FINALIZE`` does the same for
report finalize, measured at the last commit whose finalize ran
per-attempt Python passes instead of numpy columns.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from math import inf
from pathlib import Path

import numpy as np
from _artifact import arguments, timed, write_mode

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from repro.cluster.cluster import ClusterSpec, SimulatedCluster  # noqa: E402
from repro.cluster.job import Task  # noqa: E402
from repro.observability.analysis import StreamingCampaignReport  # noqa: E402
from repro.observability.recorder import events_from_trace  # noqa: E402
from repro.savanna.pilot import PilotExecutor  # noqa: E402
from repro.savanna.static import StaticSetExecutor  # noqa: E402
from _oracle import event_engine  # noqa: E402

SCHEMA = "repro.bench.simcore/v1"
RESULTS = REPO / "benchmarks" / "results"
DEFAULT_OUTPUT = RESULTS / "BENCH_simcore.json"
FOLD_TRACE = RESULTS / "fig6_utilization_timeline.trace.json"

#: Campaign seeds shared with the fig6 experiment drivers.
SEED = 21

MODES = {
    # The fig6 campaign family at a CI-friendly size: ~16k attempts, a
    # ~20 ms vector timed region (large enough that the +-20% CI gate
    # does not flap on timer noise), a few seconds end to end.
    "quick": {"n_tasks": 8_000, "nodes": 100, "walltime": 1.0e6, "rounds": 7},
    # The same campaign family at production scale: ~40k task attempts
    # across the two executors per round.
    "full": {"n_tasks": 20_000, "nodes": 500, "walltime": 1.0e6, "rounds": 5},
}

#: Pre-change engine throughput, measured at commit 06aa00e (the last
#: commit before the vectorized core) with this protocol — GC-off,
#: best-of-N, interleaved A/B subprocess runs against the current tree
#: on the development machine.  Session-to-session machine drift is
#: +-15-20%, so the full-shape value is the *median of per-session
#: bests* across eleven interleaved sessions (per-session bests ranged
#: 64k-77k tasks/s) — the central estimate of the old engine's speed,
#: not either tail.  The quick-shape value is the best observed in its
#: interleaved session.
PRECHANGE = {
    "commit": "06aa00e",
    "quick_tasks_per_sec": 84_160.0,
    "full_tasks_per_sec": 73_153.0,
    "protocol": (
        "gc-disabled best-of-N wall time over both executors; rounds "
        "interleaved with the candidate tree in alternating subprocesses; "
        "full-shape reference is the median of per-session bests"
    ),
}


#: The second report-finalize workload: a pilot chain with real-dispatch's
#: shape (e2ebench runs 2,000 no-op runs on 2 worker slots).
FINALIZE_CHAIN = {"n_tasks": 2_000, "nodes": 2}

#: Report-finalize rounds run for at least this long: a shared virtual
#: CPU can run ~1.9x slower for seconds at a time, and a best-of-N taken
#: inside one slow stretch would misread the code.
FINALIZE_MIN_SECONDS = 4.0

#: Report-finalize seconds at commit 5481e03, the last commit whose
#: finalize ran per-attempt Python passes (numpy columns replaced them).
#: Measured with :func:`measure_report_finalize`'s workloads and protocol
#: on the development machine (2-vCPU shared host, Python 3.11.7), in five
#: sessions per mode alternating with the candidate tree; each value is
#: the median of the per-session bests.
PRECHANGE_FINALIZE = {
    "commit": "5481e03",
    "quick": {"pilot-campaign": 0.128, "pilot-chain": 0.0252},
    "full": {"pilot-campaign": 0.310, "pilot-chain": 0.0258},
    "protocol": (
        "gc-disabled best-of-N seconds of StreamingCampaignReport.reports(); "
        "sessions alternated with the candidate tree; median of per-session bests"
    ),
}


def irf_tasks(n: int, seed: int = SEED) -> list[Task]:
    """The fig6 iRF sweep: lognormal durations around a 600 s median."""
    rng = np.random.default_rng(seed)
    durations = rng.lognormal(mean=np.log(600.0), sigma=0.35, size=n)
    return [Task(name=f"irf-{i:05d}", duration=float(d)) for i, d in enumerate(durations)]


def one_round(n_tasks: int, nodes: int, walltime: float) -> tuple[float, int]:
    """Run both executors over fresh state; return (seconds, attempts)."""
    spec = ClusterSpec(
        nodes=nodes, queue_sigma=0.0, queue_median_wait=120.0, node_mttf=2.0e6
    )
    c_static = SimulatedCluster(spec, seed=SEED)
    c_pilot = SimulatedCluster(spec, seed=SEED)
    t_static = irf_tasks(n_tasks)
    t_pilot = irf_tasks(n_tasks)
    elapsed, results = timed(
        lambda: [
            StaticSetExecutor(c_static, set_gap=60.0).run(
                t_static, nodes=nodes, walltime=walltime, max_allocations=1
            ),
            PilotExecutor(c_pilot).run(
                t_pilot, nodes=nodes, walltime=walltime, max_allocations=1
            ),
        ]
    )
    return elapsed, sum(len(o.attempts) for result in results for o in result.outcomes)


def measure_engines(n_tasks: int, nodes: int, walltime: float, rounds: int):
    """Interleaved best-of-N for the vector and event engines."""
    best = {"vector": float("inf"), "event": float("inf")}
    attempts = 0
    for _ in range(rounds):
        for engine in ("vector", "event"):
            with event_engine() if engine == "event" else nullcontext():
                elapsed, attempts = one_round(n_tasks, nodes, walltime)
            best[engine] = min(best[engine], elapsed)
    return best, attempts


def measure_report_fold() -> dict:
    """Streaming-analytics fold rate over the committed fig6 trace."""
    if not FOLD_TRACE.exists():
        return {"trace": None, "events": 0, "seconds": None, "events_per_sec": None}
    events = events_from_trace(FOLD_TRACE)
    builder = StreamingCampaignReport()

    def fold():
        builder.on_batch(events)
        return builder.reports()

    elapsed, reports = timed(fold)
    return {
        "trace": FOLD_TRACE.name,
        "events": len(events),
        "seconds": elapsed,
        "events_per_sec": len(events) / elapsed if elapsed > 0 else None,
        "campaigns": len(reports),
    }


def capture_pilot_events(n_tasks: int, nodes: int, walltime: float) -> list:
    """The event stream of one pilot campaign over the fig6 iRF sweep."""
    spec = ClusterSpec(
        nodes=nodes, queue_sigma=0.0, queue_median_wait=120.0, node_mttf=2.0e6
    )
    cluster = SimulatedCluster(spec, seed=SEED)
    events: list = []
    cluster.bus.subscribe(events.append)
    PilotExecutor(cluster).run(
        irf_tasks(n_tasks), nodes=nodes, walltime=walltime, max_allocations=1
    )
    return events


def measure_report_finalize(mode: str) -> dict:
    """Best-of-N seconds of ``StreamingCampaignReport.reports()``.

    Each round feeds a fresh builder the captured events untimed, then
    times only the finalize: span closing plus every report pass.  The
    workloads alternate round by round, and rounds continue until
    ``FINALIZE_MIN_SECONDS`` have passed, so each best is taken across
    seconds of machine state rather than one slow stretch.
    """
    shape = MODES[mode]
    shapes = {
        "pilot-campaign": (shape["n_tasks"], shape["nodes"]),
        "pilot-chain": (FINALIZE_CHAIN["n_tasks"], FINALIZE_CHAIN["nodes"]),
    }
    captured = {
        name: capture_pilot_events(n_tasks, nodes, shape["walltime"])
        for name, (n_tasks, nodes) in shapes.items()
    }
    best = dict.fromkeys(captured, inf)
    reports = {}
    rounds = 0
    t_start = time.perf_counter()
    while rounds < shape["rounds"] or time.perf_counter() - t_start < FINALIZE_MIN_SECONDS:
        for name, events in captured.items():
            builder = StreamingCampaignReport()
            builder.on_batch(events)
            seconds, (reports[name],) = timed(builder.reports)
            best[name] = min(best[name], seconds)
        rounds += 1
    workloads = {}
    for name, report in reports.items():
        n_tasks, nodes = shapes[name]
        prechange = PRECHANGE_FINALIZE[mode][name]
        workloads[name] = {
            "n_tasks": n_tasks,
            "nodes": nodes,
            "events": len(captured[name]),
            "attempts": report.counts["attempts"],
            "critical_path": len(report.critical_path),
            "seconds": best[name],
            "prechange_seconds": prechange,
            "speedup_vs_prechange": prechange / best[name],
        }
    return {
        "protocol": f"gc-disabled best-of-{rounds} seconds of "
        "StreamingCampaignReport.reports() on a builder fed the captured "
        f"events; workloads alternated, rounds spanning >= {FINALIZE_MIN_SECONDS:g}s",
        "rounds": rounds,
        "prechange": {
            "commit": PRECHANGE_FINALIZE["commit"],
            "protocol": PRECHANGE_FINALIZE["protocol"],
        },
        "workloads": workloads,
    }


def run_bench(mode: str) -> dict:
    shape = MODES[mode]
    n_tasks, nodes, walltime, rounds = (
        shape["n_tasks"],
        shape["nodes"],
        shape["walltime"],
        shape["rounds"],
    )
    best, attempts = measure_engines(n_tasks, nodes, walltime, rounds)
    tasks_per_sec = attempts / best["vector"]
    event_tasks_per_sec = attempts / best["event"]
    prechange_ref = PRECHANGE[f"{mode}_tasks_per_sec"]
    # ru_maxrss is KiB on Linux, bytes on macOS; normalize to bytes.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_bytes = rss if sys.platform == "darwin" else rss * 1024
    return {
        "mode": mode,
        "workload": {
            "name": "fig6-irf-campaign" + ("" if mode == "quick" else "-scaled"),
            "n_tasks": n_tasks,
            "nodes": nodes,
            "walltime": walltime,
            "executors": ["static-set(set_gap=60)", "pilot"],
            "seed": SEED,
        },
        "protocol": f"gc-disabled best-of-{rounds}, vector/event rounds interleaved",
        "rounds": rounds,
        "attempts": attempts,
        "best_seconds": best["vector"],
        "tasks_per_sec": tasks_per_sec,
        "event_tasks_per_sec": event_tasks_per_sec,
        "speedup_vs_event": tasks_per_sec / event_tasks_per_sec,
        "prechange": {
            "commit": PRECHANGE["commit"],
            "tasks_per_sec": prechange_ref,
            "protocol": PRECHANGE["protocol"],
        },
        "speedup_vs_prechange": tasks_per_sec / prechange_ref,
        "peak_rss_bytes": peak_rss_bytes,
        "report_fold": measure_report_fold(),
        "report_finalize": measure_report_finalize(mode),
    }


def check_against(result: dict, baseline_path: Path, tolerance: float) -> int:
    """Gate ``result`` against a committed baseline; returns exit code."""
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != SCHEMA:
        print(
            f"FAIL: baseline {baseline_path} has schema "
            f"{baseline.get('schema')!r}, expected {SCHEMA!r}"
        )
        return 1
    mode_baseline = baseline.get("modes", {}).get(result["mode"])
    if mode_baseline is None:
        print(
            f"FAIL: baseline {baseline_path} has no {result['mode']!r} "
            "entry; regenerate the baseline"
        )
        return 1
    verdicts = [
        _judge(
            "tasks/sec",
            result["tasks_per_sec"],
            mode_baseline["tasks_per_sec"],
            tolerance,
            lower_is_better=False,
            spec=",.0f",
        )
    ]
    base_finalize = mode_baseline.get("report_finalize", {}).get("workloads", {})
    for name, entry in result["report_finalize"]["workloads"].items():
        if name not in base_finalize:
            print(
                f"FAIL: baseline {baseline_path} has no report_finalize "
                f"{name!r} entry; regenerate the baseline"
            )
            return 1
        verdicts.append(
            _judge(
                f"report finalize {name} seconds",
                entry["seconds"],
                base_finalize[name]["seconds"],
                tolerance,
                lower_is_better=True,
                spec=".4f",
            )
        )
    for verdict, line in verdicts:
        print(f"{verdict}: {line}")
    if any(verdict == "FAIL" for verdict, _ in verdicts):
        print(
            "Regressed beyond tolerance. If this is expected (intentional "
            "trade-off), regenerate the baseline: "
            "python benchmarks/bench_simcore.py --quick"
        )
        return 1
    if any(verdict == "WARN" for verdict, _ in verdicts):
        print(
            "Unexplained speedup beyond tolerance — the workload or the "
            "machine class likely changed. Regenerate the committed "
            "baseline so the gate keeps teeth."
        )
    return 0


def _judge(label, cur, base, tolerance, lower_is_better, spec):
    """``(FAIL|WARN|OK, line)`` for one gated figure against its baseline."""
    change = cur / base - 1.0
    gain = -change if lower_is_better else change
    line = (
        f"{label}: current {cur:{spec}} vs baseline {base:{spec}} "
        f"({change:+.1%} vs baseline, tolerance +-{tolerance:.0%})"
    )
    if gain < -tolerance:
        return "FAIL", line
    if gain > tolerance:
        return "WARN", line
    return "OK", line


def main(argv=None) -> int:
    parser = arguments(__doc__, "CI shape (8000 tasks / 100 nodes)", DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare against a committed BENCH_simcore.json; exit 1 on "
        "regression beyond tolerance, warn on unexplained speedup",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="relative tolerance for --check on tasks/sec and on report "
        "finalize seconds (default 0.20)",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    result = run_bench(mode)
    print(
        f"[{mode}] {result['attempts']} attempts in {result['best_seconds']:.3f}s "
        f"best-of-{result['rounds']}: {result['tasks_per_sec']:,.0f} tasks/s "
        f"(event engine {result['event_tasks_per_sec']:,.0f}, "
        f"{result['speedup_vs_event']:.2f}x; pre-change reference "
        f"{result['prechange']['tasks_per_sec']:,.0f} @ "
        f"{result['prechange']['commit']}, "
        f"{result['speedup_vs_prechange']:.2f}x)"
    )
    fold = result["report_fold"]
    if fold["events"]:
        print(
            f"[report-fold] {fold['events']} events in {fold['seconds']:.4f}s "
            f"({fold['events_per_sec']:,.0f} events/s, "
            f"{fold['campaigns']} campaign(s))"
        )
    for name, entry in result["report_finalize"]["workloads"].items():
        print(
            f"[report-finalize] {name}: {entry['attempts']} attempts, "
            f"{entry['critical_path']}-element critical path in "
            f"{entry['seconds']:.4f}s (pre-change {entry['prechange_seconds']:.4f}s, "
            f"{entry['speedup_vs_prechange']:.2f}x)"
        )
    print(f"[rss] peak {result['peak_rss_bytes'] / 1e6:,.1f} MB")

    exit_code = 0
    if args.check is not None:
        exit_code = check_against(result, args.check, args.tolerance)

    # The committed file carries one entry per mode (full = the headline
    # speedup evidence, quick = the CI gate baseline).  Under --check the
    # fresh result is only written when --output names an explicit
    # destination (CI uploads it as an artifact) so a gate run never
    # clobbers the committed baseline it just compared against.
    if args.check is None or args.output is not None:
        write_mode(args.output or DEFAULT_OUTPUT, SCHEMA, result)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
