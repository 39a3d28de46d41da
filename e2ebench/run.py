#!/usr/bin/env python3
"""End-to-end campaign benchmark: run one workload, print one JSON line.

Usage, from the repository root::

    python3 e2ebench/run.py --workload sim-campaign --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 25

A run sets up its inputs from ``--seed`` several times (``setup_s`` is
the median), measures the workload for ``--seconds``, checks every
output, and prints as its last line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

Every time is scaled to the CPUs' fast-state speed, which a probe
thread samples throughout the run (:mod:`e2ebench.speed`).
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` first measures the workload untraced, then again with
every layer wrapped (:mod:`e2ebench.tracing`), and reports the per-layer
metrics plus the tracing overhead (process CPU time per operation,
traced against untraced); the spans go to
``.e2ebench_out/spans-<workload>-seed<seed>.json``.  ``--workload all``
runs every workload of ``BENCHMARK.json`` in turn, each in its own
process, and prints a table.

The exit code is 0 when every correctness check held, 1 when one did
not, and 2 when the benchmark cannot run here (no ``src/repro`` beside
it, or an unknown workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".e2ebench_work"
OUT = ROOT / ".e2ebench_out"


def environment(workdir: Path) -> dict:
    """Machine facts the figures depend on, recorded beside the results."""
    try:
        fs = subprocess.run(
            ["stat", "-f", "-c", "%T", str(workdir)],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "campaign_dir_fs": fs,
        "campaign_dir": os.path.relpath(workdir, ROOT),
    }


#: Set in the environment of a run re-executed inside its own namespace.
_IN_NAMESPACE = "E2EBENCH_MOUNT_NAMESPACE"


def enter_private_tmpfs(argv) -> None:
    """Re-execute this run in a private mount namespace (``unshare -m``).

    :func:`mount_work_tmpfs` then puts the campaign directories on a
    tmpfs that only this process sees and that vanishes when it exits.
    The shared disk under the checkout is throttled: a burst of campaign
    directories ran at 1,636 runs/s and the same load, repeated, settled
    between 738 and 1,070 runs/s, so timings taken on it were not steady.
    Where no namespace can be made, the run stays on the checkout's disk;
    ``campaign_dir_fs`` in the recorded environment says which one ran.
    """
    if os.environ.get(_IN_NAMESPACE) or shutil.which("unshare") is None:
        return
    probe = subprocess.run(["unshare", "-m", "true"], capture_output=True, check=False)
    if probe.returncode != 0:
        return
    os.environ[_IN_NAMESPACE] = "1"
    os.execvp("unshare", ["unshare", "-m", sys.executable, str(Path(__file__).resolve()), *argv])


def mount_work_tmpfs() -> None:
    """Mount a tmpfs over the work directory, when in a private namespace."""
    WORK.mkdir(exist_ok=True)
    if os.environ.get(_IN_NAMESPACE):
        subprocess.run(
            ["mount", "-t", "tmpfs", "-o", "size=1g", "e2ebench", str(WORK)],
            capture_output=True,
            check=False,
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float):
    """The workload's timed loop, with the objects set-up left behind
    (inputs, the oracle) frozen out of the garbage collector's scans, so
    collections during the loop cost what the program's own objects cost."""
    gc.collect()
    gc.freeze()
    try:
        return workload.run(seconds)
    finally:
        gc.unfreeze()


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Set up, measure and check one workload; returns ``(result, lines)``."""
    from e2ebench import speed

    cpus = sorted(os.sched_getaffinity(0))
    speed.pin_process(cpus[0])
    try:
        with speed.Speedometer() as meter:
            result, lines, env = _measure_and_check(spec, name, seed, seconds, trace, meter)
    finally:
        speed.pin_process(*cpus)
    env["pinned_cpu"] = cpus[0]
    env["cpu_speed"] = meter.summary()
    lines.insert(0, f"env: {json.dumps(env)}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    result.pop("details")
    return result, lines


def _measure_and_check(spec, name, seed, seconds, trace, meter) -> tuple:
    from e2ebench import tracing
    from e2ebench.workloads import SETUP_REPEATS, WORKLOADS

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(workdir)
        workload = WORKLOADS[name](seed, workdir, meter)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(seconds)
            setups.append(meter.scaled(t0, time.perf_counter()))
        m = measure(workload, seconds)
        lines = []
        if trace:
            untraced = m
            workload.setup(seconds)
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                m = measure(workload, seconds)
            values = tracing.layer_metrics(tracer, m.extras)
            # CPU per operation: unlike wall time it ignores the load
            # generator's idle gaps and the worker processes, neither of
            # which tracing touches.
            values["trace.overhead_pct"] = 100.0 * (
                (m.cpu_s / m.attempted) / (untraced.cpu_s / untraced.attempted) - 1.0
            )
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(spans_path, {"workload": name, "seed": seed, "env": env})
            lines.append(f"spans: {len(tracer.spans)} -> {os.path.relpath(spans_path, ROOT)}")
            declared = spec["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setups),
                "throughput_per_s": statistics.median(m.rates),
                "turnaround_p50_s": tracing.quantile(m.turnarounds, 0.5),
                "turnaround_p80_s": tracing.quantile(m.turnarounds, 0.8),
                "peak_rss_mb": peak_rss_mb(),
            }
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(units))} are not both produced "
            "and declared in BENCHMARK.json"
        )
    lines.append(f"{name}: {json.dumps(m.details)} over {len(m.turnarounds)} operations")
    lines += [f"failed: {e}" for e in m.errors[:20]]
    lines += [f"CHECK FAILED: {c}" for c in m.check_failures[:20]]
    result = {
        "correct": not m.check_failures and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "details": m.details,
    }
    return result, lines, env


def run_all(spec: dict, args) -> int:
    """Every workload in its own process; a table, then exit status."""
    status = 0
    rows = []
    for workload in spec["workloads"]:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        rows.append((workload["name"], result))
    for name, result in rows:
        if result is None:
            print(f"{name:15s} no result")
            continue
        metrics = "  ".join(
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
        )
        print(
            f"{name:15s} correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}  {metrics}"
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"e2ebench: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    if args.workload == "all":
        return run_all(spec, args)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"e2ebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    enter_private_tmpfs(sys.argv[1:] if argv is None else argv)
    mount_work_tmpfs()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result, lines = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
