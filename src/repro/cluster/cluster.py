"""The :class:`SimulatedCluster` façade.

Savanna executors and the checkpoint experiments talk to this object: it
owns one discrete-event :class:`~repro.cluster.engine.Simulator` plus the
node pool, batch scheduler, filesystem, and failure model, all seeded from
one root seed via independent child streams.

Every cluster also owns an :class:`~repro.observability.EventBus` clocked
by its simulator; the scheduler and the Savanna executors running on the
cluster emit their lifecycle events there (attach a
:class:`~repro.observability.TraceRecorder` to ``cluster.bus`` to capture
a run — see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import spawn_children, check_positive
from repro.cluster.engine import Simulator
from repro.cluster.failures import FailureModel
from repro.cluster.filesystem import FilesystemLoadModel, ParallelFilesystem
from repro.cluster.node import NodePool
from repro.cluster.scheduler import BatchScheduler, QueueModel
from repro.observability import EventBus


@dataclass
class ClusterSpec:
    """Static description of the simulated machine.

    Defaults sketch a Summit-like system at the fidelity the experiments
    need: node count is set per-experiment; bandwidth and MTTF use
    leadership-class orders of magnitude.
    """

    nodes: int = 128
    cores_per_node: int = 42
    peak_bandwidth: float = 2.5e12  # bytes/s aggregate to the PFS
    node_mttf: float | None = 3.0e6  # ~35 node-days
    queue_median_wait: float = 300.0
    queue_sigma: float = 0.5
    fs_load: FilesystemLoadModel | None = field(default_factory=FilesystemLoadModel)
    #: Lognormal sigma of per-node speed factors (0 = homogeneous fleet).
    node_speed_sigma: float = 0.0

    def __post_init__(self) -> None:
        check_positive("nodes", self.nodes)
        check_positive("cores_per_node", self.cores_per_node)
        check_positive("peak_bandwidth", self.peak_bandwidth)
        if self.node_speed_sigma < 0:
            raise ValueError(
                f"node_speed_sigma must be >= 0, got {self.node_speed_sigma}"
            )


class SimulatedCluster:
    """One simulated machine instance (simulator + scheduler + FS + failures).

    Create a fresh instance per experiment run; the event clock starts at 0.

    Example
    -------
    >>> cluster = SimulatedCluster(ClusterSpec(nodes=4), seed=7)
    >>> cluster.pool.free_count
    4
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        seed=None,
        bus: EventBus | None = None,
        faults=None,
    ):
        self.spec = spec or ClusterSpec()
        #: Optional :class:`~repro.resilience.FaultInjector`; the Savanna
        #: within-allocation engines consult it at every task launch and
        #: emit ``task.fault_injected`` when it strikes.
        self.faults = faults
        rng_queue, rng_fs, rng_fail, rng_speed = spawn_children(seed, 4)
        self.sim = Simulator()
        self.bus = bus if bus is not None else EventBus(name="cluster")
        self.bus.clock = lambda: self.sim.now
        if self.spec.node_speed_sigma > 0:
            s = self.spec.node_speed_sigma
            # mean-1 lognormal: the fleet is slower/faster per node, not overall
            speeds = rng_speed.lognormal(
                mean=-0.5 * s * s, sigma=s, size=self.spec.nodes
            )
        else:
            speeds = None
        self.pool = NodePool(self.spec.nodes, cores=self.spec.cores_per_node, speeds=speeds)
        self.scheduler = BatchScheduler(
            self.sim,
            self.pool,
            QueueModel(median_wait=self.spec.queue_median_wait, sigma=self.spec.queue_sigma),
            seed=rng_queue,
            bus=self.bus,
        )
        self.filesystem = ParallelFilesystem(
            peak_bandwidth=self.spec.peak_bandwidth,
            load_model=self.spec.fs_load,
            seed=rng_fs,
        )
        self.failures = FailureModel(mttf=self.spec.node_mttf, seed=rng_fail)

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: float | None = None) -> float:
        """Advance the event loop (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until)
