#!/usr/bin/env python
"""CI smoke: three concurrent campaigns through one ``CampaignService``.

Submits three campaigns (three tenants) on the ``local-threads`` backend
to a two-worker service with live telemetry enabled, cancels one
mid-flight, and asserts:

- every submission reaches a terminal state (DONE, DONE, CANCELLED);
- the two surviving campaigns completed every run;
- the cancelled one actually started and was cut short (some runs
  ``interrupted``), proving cancellation reached a *running* drive;
- the monitoring bus interleaved ``service.*`` lifecycle instants with
  forwarded per-submission execution events;
- a mid-flight scrape of ``/metrics`` serves parseable Prometheus text
  with non-zero per-tenant counters, and ``/status`` is valid JSON;
- the final ``/status`` document reconciles exactly with what the
  submission handles report (per-tenant ``tasks_done`` == completed
  runs), and each submission carries a distinct trace id.

Run from the repo root (CI's ``service-smoke`` job does)::

    PYTHONPATH=src python tools/smoke_service.py
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import time
import urllib.request

from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep, SweepParameter
from repro.savanna import CampaignService, SubmissionState

#: metric_name{optional labels} value  — Prometheus text format 0.0.4.
PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+]?[0-9.eE+naif]+$"
)


def app(params):
    time.sleep(params.get("sleep", 0.01))
    return params["x"] * 2


def make_manifest(name: str, runs: int, sleep: float):
    campaign = Campaign(name, app=AppSpec("smoke-app"))
    group = campaign.sweep_group("g", nodes=2, walltime=600.0)
    group.add(Sweep([RangeParameter("x", 0, runs - 1), SweepParameter("sleep", [sleep])]))
    return campaign.to_manifest()


def scrape(address: str, route: str) -> tuple[str, str]:
    with urllib.request.urlopen(address + route, timeout=5) as response:
        return response.read().decode(), response.headers.get("Content-Type", "")


async def drive() -> int:
    events = []
    service = CampaignService(max_workers=2, max_queue_depth=8,
                              serve_telemetry=True)
    service.bus.subscribe(events.append)

    async with service:
        address = service.telemetry_server.address
        fast_a = service.submit(make_manifest("smoke-a", 8, 0.01),
                                backend="local-threads", app_fn=app,
                                tenant="lab-a")
        slow = service.submit(make_manifest("smoke-slow", 40, 0.1),
                              backend="local-threads", app_fn=app,
                              tenant="lab-b")
        fast_b = service.submit(make_manifest("smoke-b", 8, 0.01),
                                backend="local-threads", app_fn=app,
                                tenant="lab-c")

        # Let the slow campaign get genuinely underway, then scrape the
        # telemetry plane *while work is in flight* and cut the slow one.
        await asyncio.sleep(0.5)
        metrics_text, metrics_type = await asyncio.to_thread(
            scrape, address, "/metrics")
        mid_status = json.loads((await asyncio.to_thread(
            scrape, address, "/status"))[0])
        slow.cancel()
        await asyncio.gather(fast_a.wait(), slow.wait(), fast_b.wait())
        final_status = json.loads((await asyncio.to_thread(
            scrape, address, "/status"))[0])

    failures: list[str] = []

    def check(cond: bool, what: str) -> None:
        (print(f"  ok: {what}") if cond else failures.append(what))

    check(fast_a.status() is SubmissionState.DONE, "fast-a DONE")
    check(fast_b.status() is SubmissionState.DONE, "fast-b DONE")
    check(slow.status() is SubmissionState.CANCELLED, "slow CANCELLED")
    for handle, label in ((fast_a, "fast-a"), (fast_b, "fast-b")):
        result = handle.result["g"]
        check(result.all_done, f"{label} completed every run")
    slow_statuses = list(slow.result["g"].statuses().values())
    check("interrupted" in slow_statuses,
          f"cancel cut a running campaign ({slow_statuses.count('interrupted')} interrupted)")

    names = [e.name for e in events]
    check(names.count("service.submitted") == 3, "3 service.submitted events")
    check(names.count("service.finished") == 2, "2 service.finished events")
    check(names.count("service.cancelled") == 1, "1 service.cancelled event")
    forwarded = [e for e in events if e.fields.get("submission")]
    check(len({e.fields["submission"] for e in forwarded}) == 3,
          "execution events forwarded from all 3 submissions")

    # --- live telemetry plane -------------------------------------------
    check(metrics_type.startswith("text/plain; version=0.0.4"),
          "/metrics content type is Prometheus text 0.0.4")
    payload_lines = [line for line in metrics_text.splitlines()
                     if line and not line.startswith("#")]
    bad = [line for line in payload_lines if not PROM_LINE.match(line)]
    check(payload_lines and not bad,
          f"every /metrics line parses ({len(payload_lines)} samples)"
          if not bad else f"unparseable /metrics lines: {bad[:3]}")
    submitted = {
        tenant: stats["submitted"]
        for tenant, stats in mid_status["tenants"].items()
    }
    check(all(submitted.get(t, 0) > 0 for t in ("lab-a", "lab-b", "lab-c")),
          f"mid-flight per-tenant counters non-zero {submitted}")
    check(any(f'tenant="lab-b"' in line and line.split()[-1] != "0"
              for line in payload_lines),
          "per-tenant series with non-zero value exposed mid-flight")

    # final /status reconciles with what the handles themselves report
    tenants = final_status["tenants"]
    for handle, tenant in ((fast_a, "lab-a"), (fast_b, "lab-c")):
        done = sum(1 for s in handle.result["g"].statuses().values()
                   if s == "done")
        check(tenants[tenant]["tasks_done"] == done,
              f"{tenant} tasks_done == {done} completed runs")
        check(tenants[tenant]["finished"] == 1, f"{tenant} finished == 1")
    slow_done = slow_statuses.count("done")
    check(tenants["lab-b"]["tasks_done"] == slow_done,
          f"lab-b tasks_done == {slow_done} runs done before cancel")
    check(tenants["lab-b"]["cancelled_running"] == 1,
          "lab-b cancelled while running")
    check(final_status["service"]["active"] == 0
          and final_status["service"]["queued"] == 0,
          "nothing left in flight in final /status")

    trace_ids = {h.trace_id for h in (fast_a, slow, fast_b)}
    check(len(trace_ids) == 3 and all(trace_ids), "3 distinct trace ids")
    for handle, label in ((fast_a, "fast-a"), (slow, "slow"), (fast_b, "fast-b")):
        tagged = [e for e in forwarded
                  if e.fields.get("trace_id") == handle.trace_id]
        check(len(tagged) > 0, f"{label} events carry its trace id")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"service smoke ok: 3 submissions, {len(events)} bus events, "
          f"{len(payload_lines)} metric samples")
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(drive()))
