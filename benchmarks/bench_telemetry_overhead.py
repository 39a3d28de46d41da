#!/usr/bin/env python
"""Telemetry-plane overhead benchmark: the same fleet, plane on vs. off.

``docs/telemetry.md`` promises the live telemetry plane costs less than
5% end to end.  This benchmark earns that number: it drives an identical
fleet of campaigns through one ``CampaignService`` twice —

- **off**: telemetry disabled (the default — no sampler, no socket,
  no log subscriber, no profiler), and
- **on**: the whole plane at once — ``serve_telemetry=True`` (sampler
  folding every bus event + HTTP server bound), a ``JsonLogSubscriber``
  serializing every event to ``os.devnull``, ``profile_interval=`` on
  every submission streaming ``worker.sample`` readings, and one
  ``/metrics`` scrape per round while work is in flight —

and records best-of-N wall clock for each, plus evidence the plane
actually ran (events folded, log lines written, worker samples seen).

Results go, schema-versioned (``repro.bench.telemetry/v1``), to
``benchmarks/results/BENCH_telemetry.json`` and are validated by
``tools/check_bench_schema.py``, which enforces the acceptance bar:
``overhead_pct < 5`` (negative is fine — that is measurement noise
saying the plane is free).

Modes
-----
``--quick``
    4 campaigns x 3 tenants, seconds end to end — CI smoke.
full (default)
    12 campaigns, the shape the committed number is quoted for.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
import urllib.request
from pathlib import Path

from _artifact import arguments, gc_paused, write_mode

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter  # noqa: E402
from repro.observability.live import JsonLogSubscriber  # noqa: E402
from repro.savanna import CampaignService  # noqa: E402

SCHEMA = "repro.bench.telemetry/v1"
RESULTS = REPO / "benchmarks" / "results"
DEFAULT_OUTPUT = RESULTS / "BENCH_telemetry.json"

TENANTS = ("lab-a", "lab-b", "lab-c")

MODES = {
    "quick": {"n_campaigns": 6, "runs_per_campaign": 32, "rounds": 3},
    "full": {"n_campaigns": 12, "runs_per_campaign": 48, "rounds": 5},
}

PROFILE_INTERVAL = 0.05


def app(params):
    # A few milliseconds of real work per run: long enough that the
    # fleet is execution-bound (as production is) and the plane's fixed
    # costs amortize, short enough that per-event telemetry cost would
    # still show if it were not O(1).  (Real campaign runs are seconds
    # to hours; this is already an aggressively fine granularity.)
    acc = 0
    for i in range(60000):
        acc += i * i
    return acc + params["x"]


def make_manifest(name: str, runs: int):
    camp = Campaign(name, app=AppSpec("bench-app"))
    group = camp.sweep_group("g", nodes=2, walltime=600.0)
    group.add(Sweep([SweepParameter("x", range(runs))]))
    return camp.to_manifest()


async def run_fleet(n_campaigns: int, runs: int, telemetry: bool) -> dict:
    """Drive one fleet; return wall seconds + telemetry evidence."""
    devnull = open(os.devnull, "w")  # noqa: SIM115 - closed in finally
    log = JsonLogSubscriber(stream=devnull)
    service = CampaignService(max_workers=2, max_queue_depth=64,
                              serve_telemetry=telemetry)
    extra = {"profile_interval": PROFILE_INTERVAL} if telemetry else {}
    samples = 0

    def count_samples(event):
        nonlocal samples
        if event.name == "worker.sample":
            samples += 1

    try:
        t0 = time.perf_counter()
        async with service:
            if telemetry:
                log.attach(service.bus)
                service.bus.subscribe(count_samples)
                address = service.telemetry_server.address
            handles = [
                service.submit(
                    make_manifest(f"fleet-{i:02d}", runs),
                    backend="local-threads", app_fn=app,
                    tenant=TENANTS[i % len(TENANTS)], **extra,
                )
                for i in range(n_campaigns)
            ]
            if telemetry:
                # one in-flight scrape per round: exposition is part of
                # the cost being measured
                await asyncio.sleep(0.05)
                scraped = await asyncio.to_thread(
                    lambda: urllib.request.urlopen(
                        address + "/metrics", timeout=5).read()
                )
            await asyncio.gather(*(h.wait() for h in handles))
            elapsed = time.perf_counter() - t0
        evidence = {}
        if telemetry:
            status = service.telemetry.status()
            evidence = {
                "events": status["events"],
                "log_lines": log.lines,
                "worker_samples": samples,
                "scrape_bytes": len(scraped),
            }
        assert all(h.result["g"].all_done for h in handles)
        return {"seconds": elapsed, **evidence}
    finally:
        devnull.close()


def timed_round(n_campaigns: int, runs: int, telemetry: bool) -> dict:
    with gc_paused():
        return asyncio.run(run_fleet(n_campaigns, runs, telemetry))


def run_bench(mode: str) -> dict:
    shape = MODES[mode]
    n, runs, rounds = (shape["n_campaigns"], shape["runs_per_campaign"],
                       shape["rounds"])
    best_off = float("inf")
    best_on = float("inf")
    evidence = {}
    for _ in range(rounds):
        best_off = min(best_off, timed_round(n, runs, telemetry=False)["seconds"])
        on = timed_round(n, runs, telemetry=True)
        if on["seconds"] < best_on:
            best_on = on["seconds"]
            evidence = {k: v for k, v in on.items() if k != "seconds"}

    return {
        "mode": mode,
        "workload": {
            "name": "campaign-service-fleet",
            "n_campaigns": n,
            "runs_per_campaign": runs,
            "tenants": len(TENANTS),
        },
        "protocol": (
            f"gc-disabled best-of-{rounds} per config; off = default "
            "service, on = sampler + HTTP server + JSON log to devnull + "
            f"worker profiler @ {PROFILE_INTERVAL}s + one in-flight "
            "/metrics scrape"
        ),
        "rounds": rounds,
        "off_seconds": best_off,
        "on_seconds": best_on,
        "overhead_pct": (best_on - best_off) / best_off * 100.0,
        "telemetry": evidence,
    }


def main(argv=None) -> int:
    args = arguments(__doc__, "CI shape (4 campaigns)", DEFAULT_OUTPUT).parse_args(argv)

    mode = "quick" if args.quick else "full"
    result = run_bench(mode)
    tel = result["telemetry"]
    print(
        f"[{mode}] {result['workload']['n_campaigns']} campaigns: "
        f"off {result['off_seconds']:.3f}s, on {result['on_seconds']:.3f}s "
        f"({result['overhead_pct']:+.2f}%); plane folded {tel['events']} "
        f"events, wrote {tel['log_lines']} log lines, "
        f"{tel['worker_samples']} worker samples"
    )
    write_mode(args.output or DEFAULT_OUTPUT, SCHEMA, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
