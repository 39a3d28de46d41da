"""The four benchmark workloads: inputs from a seed, a timed loop, checks.

Each workload drives whole campaigns through a public entry point —
``repro.savanna.execute_campaign``, ``CampaignService.submit`` or
``CampaignStore.catalog`` — and reports, per run of the benchmark:

- ``throughput_per_s``: runs durably recorded per second (the three
  campaign workloads) or catalog queries answered per second
  (catalog-query);
- ``turnaround``: one sample per operation, from the time it was due to
  its terminal state — a whole campaign, a service submission, or one
  pass over the catalog query mix;
- ``attempted`` / ``failed`` operations, with each failure's text;
- ``check_failures``: every correctness check that did not hold.

Times are scaled to the CPUs' fast-state speed by the run's
:class:`~e2ebench.speed.Speedometer` (see :mod:`e2ebench.speed`); the
unscaled medians go into ``details``.  Every check runs on every
repetition, outside the timed interval.
"""

from __future__ import annotations

import asyncio
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from e2ebench.apps import noop_app
from e2ebench.speed import Speedometer
from repro import savanna
from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.catalog import CampaignCatalog
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cheetah.objectives import Direction, Objective
from repro.cluster import ClusterSpec, SimulatedCluster
from repro.observability import GROUP_RESUMED, SERVICE_STARTED
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.savanna import CampaignService, SubmissionState
from repro.store import CampaignStore

LOSS = Objective("loss", metric="loss", direction=Direction.MINIMIZE)
COST = Objective("cost", metric="cost", direction=Direction.MINIMIZE)

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass
class Measurement:
    """What one timed loop observed."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    check_failures: list = field(default_factory=list)
    rates: list = field(default_factory=list)  # per repetition, ops/s, scaled
    turnarounds: list = field(default_factory=list)  # seconds, per operation, scaled
    raw_turnarounds: list = field(default_factory=list)  # the same, unscaled
    cpu_s: float = 0.0  # process CPU time spent in the timed operations
    details: dict = field(default_factory=dict)  # named, workload-specific
    extras: dict = field(default_factory=dict)  # inputs to per-layer metrics

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.check_failures.append(what)

    def timed(self, meter: Speedometer, t0: float, t1: float) -> float:
        """Record one operation's turnaround, ``t0``..``t1`` on the
        perf_counter clock; returns it scaled."""
        self.raw_turnarounds.append(t1 - t0)
        self.turnarounds.append(meter.scaled(t0, t1))
        return self.turnarounds[-1]

    def summarize(self, **details) -> None:
        """Fill ``details`` with the workload's own figures and the
        unscaled medians beside the scaled ones."""
        self.details = {
            **details,
            "turnaround_p50_s_unscaled": statistics.median(self.raw_turnarounds or [0.0]),
        }


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _repetitions(seconds: float):
    """Yield repetition numbers until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < deadline:
        yield rep
        rep += 1


def _codesign_manifest(name: str, xs, modes=None):
    """A one-group campaign sweeping ``x`` (and optionally ``mode``)."""
    camp = Campaign(name, app=AppSpec("e2ebench"), objective="minimize loss")
    params = [SweepParameter("x", [int(x) for x in xs])]
    if modes is not None:
        params.append(SweepParameter("mode", list(modes)))
    camp.sweep_group("g", nodes=1, walltime=600.0).add(Sweep(params))
    return camp.to_manifest()


def _check_durable_record(m: Measurement, directory: CampaignDirectory, label: str) -> dict:
    """status.json, its journal overlay and (when present) the store agree.

    Returns the run statuses from ``status.json``.
    """
    status = directory.read_status()
    overlay = CampaignCheckpoint(directory).effective_status()
    m.check(overlay == status, f"{label}: journal overlay disagrees with status.json")
    if directory.store_path().exists():
        with directory.open_store() as store:
            stored = store.statuses(directory.manifest.campaign)
        m.check(
            stored == {rid: s.value for rid, s in status.items()},
            f"{label}: store statuses disagree with status.json",
        )
    return status


def _store_outcomes(directory: CampaignDirectory) -> int:
    """Runs with a recorded outcome in the campaign's store."""
    with directory.open_store() as store:
        cid = store.campaign_id(directory.manifest.campaign)
        return store.query(
            "SELECT COUNT(*) FROM runs WHERE campaign_id = ? AND attempts IS NOT NULL",
            (cid,),
        )[0][0]


class _Workload:
    """Shared shape: ``setup()`` builds inputs, ``run(seconds)`` measures.

    ``meter`` scales the timed spans; an unstarted one (the default)
    has no samples and leaves them as measured.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, meter: Speedometer | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.meter = meter if meter is not None else Speedometer()

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self, seconds: float) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Measurement:
        raise NotImplementedError


# -- sim-campaign --------------------------------------------------------------


class _Durations:
    """Duration model: a run's nominal seconds, looked up by its ``x``."""

    def __init__(self, durations):
        self.durations = durations

    def __call__(self, parameters) -> float:
        return float(self.durations[parameters["x"]])


class SimCampaign(_Workload):
    """The fig6 iRF sweep on the simulated pilot, one fresh directory each.

    8,000 runs with lognormal durations around 600 s on 100 simulated
    nodes, ``report=True``, single-threaded.  The simulator core, the
    checkpoint journal, the streaming report and directory creation do
    the work; realexec, the service and the catalog do none.
    """

    name = "sim-campaign"
    RUNS = 8000
    NODES = 100
    WALLTIME = 1.0e6

    def _spec(self) -> ClusterSpec:
        return ClusterSpec(
            nodes=self.NODES, queue_sigma=0.0, queue_median_wait=120.0, node_mttf=2.0e6
        )

    def setup(self, seconds: float) -> None:
        rng = _rng(self.seed, 1)
        self.model = _Durations(rng.lognormal(mean=math.log(600.0), sigma=0.35, size=self.RUNS))
        self.manifest = self._manifest(self.RUNS)
        # Warm-up: one small campaign through the same path, so lazy
        # imports and first-call costs stay out of the timed loop.
        warm = self._manifest(min(1000, self.RUNS), name=f"warm-{self.seed}")
        savanna.execute_campaign(
            warm,
            self.model,
            SimulatedCluster(self._spec(), seed=self.seed),
            backend="pilot",
            directory=str(self.fresh_dir("warm")),
            report=True,
        )

    def _manifest(self, runs: int, name: str | None = None):
        camp = Campaign(name or f"irf-{self.seed}", app=AppSpec("irf"))
        camp.sweep_group("irf", nodes=self.NODES, walltime=self.WALLTIME).add(
            Sweep([SweepParameter("x", range(runs))])
        )
        return camp.to_manifest()

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        done_counts = []
        for rep in _repetitions(seconds):
            root = self.fresh_dir(f"sim-{rep}")
            cluster = SimulatedCluster(self._spec(), seed=self.seed)
            c0, t0 = time.process_time(), time.perf_counter()
            result = savanna.execute_campaign(
                self.manifest,
                self.model,
                cluster,
                backend="pilot",
                directory=str(root),
                report=True,
            )
            t1 = time.perf_counter()
            m.cpu_s += time.process_time() - c0
            label = f"{self.name} rep {rep}"
            directory = CampaignDirectory.open(root / self.manifest.campaign)
            status = _check_durable_record(m, directory, label)
            recorded = sum(s in (RunStatus.DONE, RunStatus.FAILED) for s in status.values())
            done = sum(s is RunStatus.DONE for s in status.values())
            m.check(recorded == self.RUNS, f"{label}: {recorded} of {self.RUNS} runs recorded")
            m.check(
                done == len(result["irf"].completed),
                f"{label}: status.json DONE count differs from the executor's",
            )
            m.check(len(directory.read_report()) == 1, f"{label}: report.json missing")
            shutil.rmtree(root)
            done_counts.append(done)
            m.attempted += self.RUNS
            m.failed += self.RUNS - done
            m.rates.append(recorded / m.timed(self.meter, t0, t1))
        m.check(
            len(set(done_counts)) == 1,
            f"{self.name}: DONE count varies across repetitions {done_counts}",
        )
        m.summarize(runs_per_s=statistics.median(m.rates), campaigns=len(m.rates))
        return m


# -- real-dispatch -------------------------------------------------------------


class RealDispatch(_Workload):
    """~2,000 no-op runs on ``local-processes`` with two workers.

    Fresh directory per campaign and ``report=True``: per-task dispatch
    overhead, with realexec, the lint gate, store ingestion and the
    journal doing the work and the simulator core doing none.
    """

    name = "real-dispatch"
    RUNS = 2000
    WORKERS = 2

    def setup(self, seconds: float) -> None:
        xs = _rng(self.seed, 2).choice(10**6, size=self.RUNS, replace=False)
        self.manifest = _codesign_manifest(f"dispatch-{self.seed}", xs)
        warm = _codesign_manifest(f"warm-{self.seed}", xs[:200])
        self._execute(warm, self.fresh_dir("warm"))

    def _execute(self, manifest, root: Path):
        return savanna.execute_campaign(
            manifest,
            backend="local-processes",
            directory=str(root),
            report=True,
            app_fn=noop_app,
            max_workers=self.WORKERS,
            seed=self.seed,
        )

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        busy = 0.0
        executed = 0
        for rep in _repetitions(seconds):
            root = self.fresh_dir(f"real-{rep}")
            c0, t0 = time.process_time(), time.perf_counter()
            result = self._execute(self.manifest, root)["g"]
            t1 = time.perf_counter()
            m.cpu_s += time.process_time() - c0
            label = f"{self.name} rep {rep}"
            directory = CampaignDirectory.open(root / self.manifest.campaign)
            status = _check_durable_record(m, directory, label)
            done = sum(s is RunStatus.DONE for s in status.values())
            outcomes = _store_outcomes(directory)
            m.check(outcomes == self.RUNS, f"{label}: {outcomes} of {self.RUNS} outcomes stored")
            m.check(done == self.RUNS, f"{label}: {done} of {self.RUNS} runs DONE")
            m.check(len(directory.read_report()) == 1, f"{label}: report.json missing")
            for run in self.manifest.runs[:: self.RUNS // 4]:
                stored = directory.read_run_result(run.run_id)
                m.check(
                    stored is not None and stored["value"] == noop_app(run.parameters),
                    f"{label}: stored value of {run.run_id} is wrong",
                )
            shutil.rmtree(root)
            m.errors += [f"{r.run_id}: {r.error}" for r in result.failed]
            m.attempted += self.RUNS
            m.failed += self.RUNS - len(result.completed)
            busy += sum(r.elapsed for r in result.results.values()) / self.WORKERS
            executed += len(result.results)
            m.rates.append(outcomes / m.timed(self.meter, t0, t1))
        m.summarize(runs_per_s=statistics.median(m.rates), campaigns=len(m.rates))
        m.extras = {"realexec.busy_s": busy, "realexec.runs": executed}
        return m


# -- service-fleet -------------------------------------------------------------


@dataclass
class _Arrival:
    index: int
    due: float  # seconds after the load generator starts
    tenant: str
    manifest: object
    root: Path
    resumed_half: frozenset  # run ids pre-seeded DONE (empty: fresh campaign)


class ServiceFleet(_Workload):
    """An open loop of 64-run submissions from three tenants.

    Poisson arrivals at :attr:`RATE` per second — about 15% of the
    service's measured closed-loop capacity (20–23 submissions/s on two
    cores) — with tenants sharing 2:1:1.  The service runs two
    submissions at once; each is a ``local-threads`` campaign with one
    worker in its own directory.  A third of the submissions, chosen by
    the seed, resubmit a directory that set-up pre-seeded with half its
    runs DONE.  ``report`` stays off.

    The rate is low because ``turnaround_p80_s`` was not steady
    otherwise (see the README): a submission arriving while another runs
    shares the interpreter with it, so at 8/s p80 sat on a tail of
    collisions whose mass moved with each seed's schedule and with the
    host's speed.
    """

    name = "service-fleet"
    RATE = 3.0
    RUNS = 64
    MIN_SUBMISSIONS = 60
    SERVICE_WORKERS = 2
    TENANTS = ("tenant-a", "tenant-b", "tenant-c")
    SHARES = (0.5, 0.25, 0.25)

    def setup(self, seconds: float) -> None:
        rng = _rng(self.seed, 3)
        # A Poisson process holding n arrivals in the window places them
        # as sorted uniform draws; fixing n keeps the offered load steady.
        window = max(seconds, self.MIN_SUBMISSIONS / self.RATE)
        n = round(self.RATE * window)
        dues = np.sort(rng.uniform(0.0, window, size=n)).tolist()
        tenants = rng.choice(len(self.TENANTS), size=len(dues), p=self.SHARES)
        resumed = set(rng.permutation(len(dues))[: len(dues) // 3].tolist())
        base = self.fresh_dir("fleet")
        self.arrivals = []
        for i, due in enumerate(dues):
            xs = rng.choice(10**6, size=self.RUNS, replace=False)
            manifest = _codesign_manifest(f"fleet-{self.seed}-{i:04d}", xs)
            root = base / f"{i:04d}"
            half = frozenset()
            if i in resumed:
                picked = rng.choice(self.RUNS, size=self.RUNS // 2, replace=False)
                half = frozenset(manifest.runs[j].run_id for j in picked)
                self._preseed(manifest, root, half)
            self.arrivals.append(
                _Arrival(i, due, self.TENANTS[tenants[i]], manifest, root, half)
            )
        # Warm-up: one small drive through the same path.
        warm = _codesign_manifest(f"warm-{self.seed}", range(8))
        savanna.execute_campaign(
            warm,
            backend="local-threads",
            directory=str(self.fresh_dir("warm")),
            app_fn=noop_app,
            max_workers=1,
        )

    @staticmethod
    def _preseed(manifest, root: Path, half: frozenset) -> None:
        """Leave the record an interrupted earlier drive would have left:
        half the runs executed, stored and DONE, the rest PENDING."""
        root.mkdir(parents=True)
        directory = CampaignDirectory(root, manifest)
        directory.create()
        directory.record_results(
            {
                run.run_id: {
                    "run_id": run.run_id,
                    "status": "done",
                    "value": noop_app(run.parameters),
                    "elapsed": 0.0,
                    "attempts": 1,
                }
                for run in manifest.runs
                if run.run_id in half
            }
        )
        directory.update_status({rid: RunStatus.DONE for rid in half})

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        monitor = {"events": 0, "waits": [], "resumed": {}}

        def observe(event) -> None:
            monitor["events"] += 1
            if event.name == SERVICE_STARTED:
                monitor["waits"].append(event.fields["queued_for"])
            elif event.name == GROUP_RESUMED:
                monitor["resumed"][event.fields["submission"]] = event.fields["skipped"]

        c0 = time.process_time()
        start, handles, lags, ended = asyncio.run(self._drive_fleet(m, observe))
        m.cpu_s = time.process_time() - c0
        runs_recorded = 0
        for arrival, handle in handles:
            label = f"{self.name} {handle.id}"
            state = handle.status()
            if state is not SubmissionState.DONE:
                m.failed += 1
                m.errors.append(f"{label}: {state.value}: {handle.error!r}")
                continue
            m.timed(self.meter, start + arrival.due, ended[handle.id])
            directory = CampaignDirectory.open(arrival.root / arrival.manifest.campaign)
            status = _check_durable_record(m, directory, label)
            done = sum(s is RunStatus.DONE for s in status.values())
            m.check(done == self.RUNS, f"{label}: {done} of {self.RUNS} runs DONE")
            outcomes = _store_outcomes(directory)
            m.check(outcomes == self.RUNS, f"{label}: {outcomes} of {self.RUNS} outcomes stored")
            executed = set(handle.result["g"].results)
            expected = {r.run_id for r in arrival.manifest.runs} - arrival.resumed_half
            m.check(executed == expected, f"{label}: executed a different set than pending")
            skipped = monitor["resumed"].get(handle.id, 0)
            m.check(
                skipped == len(arrival.resumed_half),
                f"{label}: group.resumed skipped {skipped}, "
                f"expected {len(arrival.resumed_half)}",
            )
            runs_recorded += len(executed)
        m.attempted = len(self.arrivals)
        m.failed += len(self.arrivals) - len(handles)
        # Unscaled: the offered load, not the CPUs, sets this rate.
        first_due = start + self.arrivals[0].due
        last_end = max(ended.values(), default=first_due)
        m.rates.append(runs_recorded / (last_end - first_due) if last_end > first_due else 0.0)
        m.summarize(
            runs_per_s=m.rates[0],
            submissions=len(self.arrivals),
            resumed=sum(1 for a in self.arrivals if a.resumed_half),
        )
        m.extras = {
            "service.queue_waits": monitor["waits"],
            "service.monitor_events": monitor["events"],
            "loadgen.lag_max_s": max(lags, default=0.0),
        }
        return m

    async def _drive_fleet(self, m: Measurement, observe):
        """Submit on schedule, wait for every submission, time each one.

        Returns the perf_counter time the schedule started, the handles,
        the load generator's lags and each submission's end time."""
        service = CampaignService(
            max_workers=self.SERVICE_WORKERS, max_queue_depth=len(self.arrivals)
        )
        service.bus.subscribe(observe)
        handles, lags, ended = [], [], {}

        async def watch(handle) -> None:
            await handle.wait()
            ended[handle.id] = time.perf_counter()

        watchers = []
        async with service:
            start = time.perf_counter()
            for arrival in self.arrivals:
                delay = start + arrival.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(time.perf_counter() - start - arrival.due)
                try:
                    handle = service.submit(
                        arrival.manifest,
                        backend="local-threads",
                        tenant=arrival.tenant,
                        app_fn=noop_app,
                        max_workers=1,
                        directory=str(arrival.root),
                        seed=self.seed,
                    )
                except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
                    m.errors.append(f"submission {arrival.index}: {exc!r}")
                    continue
                handles.append((arrival, handle))
                watchers.append(asyncio.create_task(watch(handle)))
            await asyncio.gather(*watchers)
        return start, handles, lags, ended


# -- catalog-query -------------------------------------------------------------


class CatalogQuery(_Workload):
    """A fixed query mix over a ~10,000-run store built in set-up.

    The store is written through the same ingestion path the drive uses
    (``ensure_campaign`` + ``record_run_results``) with the synthetic
    codesign shape of ``benchmarks/bench_store.py``: ``x`` x ``mode``,
    two metrics.  An in-memory ``CampaignCatalog`` over the same outcomes
    is the oracle every answer must equal.
    """

    name = "catalog-query"
    XS = 5000

    def setup(self, seconds: float) -> None:
        rng = _rng(self.seed, 4)
        self.manifest = _codesign_manifest(f"catalog-{self.seed}", range(self.XS), "ab")
        n = len(self.manifest.runs)
        loss = np.round(rng.uniform(0.0, 10.0, size=n), 2)
        cost = np.round(rng.uniform(0.0, 50.0, size=n), 1)
        outcomes, self.oracle = {}, CampaignCatalog(self.manifest.campaign)
        for i, run in enumerate(self.manifest.runs):
            bump = 0.25 if run.parameters["mode"] == "b" else 0.0
            value = {"loss": float(loss[i]) + bump, "cost": float(cost[i])}
            outcomes[run.run_id] = {
                "run_id": run.run_id,
                "status": "done",
                "value": value,
                "elapsed": 0.001 * (i % 97),
                "attempts": 1,
                "seed": i,
            }
            self.oracle.add(run.run_id, run.parameters, value)
        self.db = self.fresh_dir("catalog") / "store.sqlite"
        with CampaignStore(self.db) as store:
            store.ensure_campaign(self.manifest)
            store.record_run_results(self.manifest.campaign, outcomes)

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        # The oracle's answers are check work, so they stay out of
        # set-up and out of the timed loop.
        expected = {label: _answer(query(self.oracle)) for label, query in QUERY_MIX}
        with CampaignStore(self.db) as store:
            catalog = store.catalog(self.manifest.campaign)
            for rep in _repetitions(seconds):
                answers = {}
                c0, t0 = time.process_time(), time.perf_counter()
                for label, query in QUERY_MIX:
                    m.attempted += 1
                    try:
                        answers[label] = query(catalog)
                    except Exception as exc:  # noqa: BLE001 - counted, the loop goes on
                        m.failed += 1
                        m.errors.append(f"{label}: {exc!r}")
                t1 = time.perf_counter()
                m.cpu_s += time.process_time() - c0
                m.rates.append(len(answers) / m.timed(self.meter, t0, t1))
                for label, answer in answers.items():
                    m.check(
                        _same_answer(_answer(answer), expected[label]),
                        f"{self.name} rep {rep}: {label} differs from the oracle",
                    )
        m.summarize(
            queries_per_s=statistics.median(m.rates),
            catalog_runs=len(self.manifest.runs),
        )
        return m


#: The timed query mix, in order: (label, query over a catalog).
QUERY_MIX = (
    ("best(loss)", lambda c: c.best(LOSS)),
    ("rank(loss, k=10)", lambda c: c.rank(LOSS, k=10)),
    ("pareto_front(loss, cost)", lambda c: c.pareto_front([LOSS, COST])),
    ("parameter_impact(x, loss)", lambda c: c.parameter_impact("x", "loss")),
    ("parameter_impact(mode, loss)", lambda c: c.parameter_impact("mode", "loss")),
)


def _answer(value):
    """A query answer in comparable form: run ids, or the impact report."""
    if isinstance(value, dict):
        return value
    if isinstance(value, list):
        return [r.run_id for r in value]
    return value.run_id


def _same_answer(got, want) -> bool:
    if not isinstance(want, dict):
        return got == want
    if got["group_means"].keys() != want["group_means"].keys():
        return False
    pairs = [(got[k], want[k]) for k in ("grand_mean", "effect")]
    pairs += [(got["group_means"][k], v) for k, v in want["group_means"].items()]
    return all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) for a, b in pairs)


WORKLOADS = {w.name: w for w in (SimCampaign, RealDispatch, ServiceFleet, CatalogQuery)}
