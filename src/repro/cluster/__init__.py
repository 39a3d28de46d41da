"""Simulated HPC substrate (replaces Summit / LSF / GPFS in the paper).

This package provides a deterministic discrete-event simulation of a
leadership-class cluster at the granularity the paper's experiments need:

- :mod:`repro.cluster.engine` — the discrete-event core (clock + event queue).
- :mod:`repro.cluster.node` — compute nodes and the node pool.
- :mod:`repro.cluster.job` — tasks, task attempts, allocation requests.
- :mod:`repro.cluster.scheduler` — a batch scheduler with FCFS queueing,
  queue-wait model, and walltime enforcement.
- :mod:`repro.cluster.filesystem` — a parallel-filesystem model with
  time-correlated load, used by the checkpoint-restart experiments.
- :mod:`repro.cluster.failures` — MTTF-style task failure injection.
- :mod:`repro.cluster.cluster` — :class:`SimulatedCluster`, the façade the
  Savanna executors talk to.
- :mod:`repro.cluster.trace` — utilization traces and timeline extraction
  (Figure 6 data).

Why a simulator: Figures 3, 4, 6, and 7 of the paper measure *scheduling
and I/O dynamics* (barrier stragglers, idle nodes, checkpoint overhead,
queue gaps), not machine-specific constants.  A discrete-event model of
nodes, allocations, filesystem load, and failures reproduces exactly those
dynamics on a laptop.
"""

from repro.cluster.engine import Simulator, EventHandle
from repro.cluster.node import Node, NodePool
from repro.cluster.job import Task, TaskAttempt, TaskState, AllocationRequest, Allocation
from repro.cluster.scheduler import BatchScheduler, QueueModel
from repro.cluster.filesystem import ParallelFilesystem, FilesystemLoadModel
from repro.cluster.failures import FailureModel
from repro.cluster.cluster import SimulatedCluster, ClusterSpec
from repro.cluster.trace import UtilizationTrace, TimelineRow
from repro.cluster.staging import StagingArea, StagingSpec

__all__ = [
    "Simulator",
    "EventHandle",
    "Node",
    "NodePool",
    "Task",
    "TaskAttempt",
    "TaskState",
    "AllocationRequest",
    "Allocation",
    "BatchScheduler",
    "QueueModel",
    "ParallelFilesystem",
    "FilesystemLoadModel",
    "FailureModel",
    "SimulatedCluster",
    "ClusterSpec",
    "UtilizationTrace",
    "TimelineRow",
    "StagingArea",
    "StagingSpec",
]
