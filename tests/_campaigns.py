"""Hypothesis strategies of whole campaigns and hand-built run tuples.

:func:`campaigns` composes a :class:`~repro.cheetah.Campaign` through
``Campaign``/``SweepGroup``/``Sweep`` the way a user does: one to three
groups of one to three sweeps each.  The draws cover what the run table
and the lint gate must keep apart:

- sweeps of one group that bind different parameter names (FAIR005);
- a sweep that repeats an earlier sweep of its group, so the two overlap
  and FAIR002 refuses the campaign;
- filters that prune points, sometimes all of a group's (FAIR001);
- ``nodes_per_run`` from 1 to 3 against group envelopes of 1 to 3 nodes
  (FAIR003);
- parameter values of type ``int``, ``float`` (``-0.0``, ``1e16``,
  ``nan``, ``inf``), ``str`` (non-ASCII, quotes, backslashes, control
  characters), ``bool``, ``None`` and short lists and dicts;
- group walltimes drawn from ``walltimes`` (generous by default).

Apart from the repeated sweeps, no two sweeps of a group can share a
point: each sweep's first parameter takes ordinals of its own
(``10 * (sweep + 1) + k``, or a string or float made from it) that the
other values never take.

:func:`run_tuples` draws hand-built :class:`~repro.cheetah.RunSpec`
tuples instead: groups interleaved run by run, groups the manifest does
not declare, widths that differ within a group, and parameter sets that
differ from run to run.

:func:`drive_plans` draws how a campaign is driven on a simulated
cluster: a fault plan, a retry policy and an allocation budget.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.manifest import CampaignManifest, RunSpec
from repro.resilience import (
    CRASH_ON_START,
    MID_RUN_CRASH,
    STRAGGLER,
    ExponentialBackoffPolicy,
    FaultInjector,
    FaultSpec,
    FixedDelayPolicy,
    RetryPolicy,
)

NAMES = ("a", "b", "c")

#: Every value type the interop JSON must spell as ``json.dumps`` does.
VALUES = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([-0.0, 0.5, 1e16, 2.5e-7, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["", "é", "naïve ☃", 'q"uote', "back\\slash", "tab\tnew\nline", "\x00"]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["k", "é", "z"]), st.integers(0, 3), max_size=2),
)


class Prune:
    """A sweep filter that drops the points whose checksum ``% modulus``
    is 0: deterministic, so every drive of a campaign sees its runs."""

    def __init__(self, modulus: int):
        self.modulus = modulus

    def __call__(self, config: dict) -> bool:
        return zlib.crc32(repr(config).encode()) % self.modulus != 0


def ordinals(kind: str, sweep: int, count: int) -> list:
    """``count`` first-parameter values that belong to sweep ``sweep``."""
    base = [10 * (sweep + 1) + k for k in range(count)]
    if kind == "str":
        return [f"s{v}" for v in base]
    if kind == "float":
        return [v + 0.25 for v in base]
    return base


@st.composite
def sweeps(draw, index: int):
    """One sweep: its parameters, and whether (and how) a filter prunes it."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    count = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["int", "str", "float"]))
    params = [SweepParameter(names[0], ordinals(kind, index, count))]
    for name in names[1:]:
        params.append(
            SweepParameter(name, draw(st.lists(VALUES, min_size=1, max_size=3, unique_by=repr)))
        )
    modulus = draw(st.sampled_from([None, None, 1, 2, 3]))
    return params, modulus


@st.composite
def campaigns(draw, walltimes=st.just(1.0e6)) -> Campaign:
    """A whole campaign, composed through the Cheetah API; each group's
    walltime is drawn from ``walltimes``."""
    camp = Campaign(
        f"drawn-{draw(st.integers(0, 99))}",
        app=AppSpec("drawn", nodes_per_run=draw(st.integers(1, 3))),
    )
    for g in range(draw(st.integers(1, 3))):
        group = camp.sweep_group(
            f"g{g}", nodes=draw(st.integers(1, 3)), walltime=draw(walltimes)
        )
        drawn = []
        for s in range(draw(st.integers(1, 3))):
            if drawn and draw(st.integers(0, 4)) == 0:
                params, _ = drawn[draw(st.integers(0, len(drawn) - 1))]
                modulus = None  # the repeat keeps every point: it overlaps
            else:
                params, modulus = draw(sweeps(s))
            drawn.append((params, modulus))
            group.add(
                Sweep(params, filter=None if modulus is None else Prune(modulus), name=f"s{s}")
            )
    return camp


@dataclass(frozen=True)
class DrivePlan:
    """How a campaign is driven on a simulated cluster: a fault plan
    (``fault_specs``, seeded by ``fault_seed``), a retry policy (``None``:
    the backend's default) and an allocation budget."""

    fault_specs: tuple
    fault_seed: int
    retry_policy: object
    max_allocations: int

    def injector(self):
        """A fresh injector per drive (an injector counts its faults)."""
        if not self.fault_specs:
            return None
        return FaultInjector(self.fault_specs, seed=self.fault_seed)


@st.composite
def drive_plans(draw) -> DrivePlan:
    """A fault plan over crash-on-start, mid-run crashes and stragglers
    (often none), a retry policy of each kind (or the default), and one
    to three allocations."""
    kinds = draw(
        st.sampled_from([()] * 3 + [(CRASH_ON_START,), (MID_RUN_CRASH,), (STRAGGLER,)])
        | st.lists(
            st.sampled_from([CRASH_ON_START, MID_RUN_CRASH, STRAGGLER]),
            min_size=2, max_size=3, unique=True,
        )
    )
    specs = [FaultSpec(kind, draw(st.sampled_from([0.15, 0.4]))) for kind in kinds]
    retries = draw(st.integers(0, 2))
    policy = draw(
        st.sampled_from(
            [
                None,
                RetryPolicy(max_retries=retries),
                FixedDelayPolicy(max_retries=retries, delay_seconds=2.0),
                ExponentialBackoffPolicy(max_retries=retries, base=1.0, jitter=0.5, seed=3),
            ]
        )
    )
    return DrivePlan(
        tuple(specs), draw(st.integers(0, 9)), policy, draw(st.sampled_from([2, 1, 3]))
    )


@st.composite
def run_tuples(draw) -> CampaignManifest:
    """A manifest built from a hand-made tuple of ``RunSpec``s."""
    declared = draw(st.lists(st.sampled_from(["g", "h", "k"]), min_size=1, max_size=3, unique=True))
    groups = tuple(
        {"name": name, "nodes": draw(st.integers(1, 3)), "walltime": 60.0} for name in declared
    )
    runs = []
    suffixes = st.sampled_from(["x", "é", 'q"'])
    for i in range(draw(st.integers(0, 12))):
        names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
        runs.append(
            RunSpec(
                run_id=f"r{i:02d}-" + draw(suffixes),
                group=draw(st.sampled_from(["g", "h", "k", "undeclared"])),
                parameters={name: draw(st.integers(0, 2) | VALUES) for name in names},
                nodes=draw(st.integers(1, 3)),
            )
        )
    return CampaignManifest(
        campaign="hand-built",
        app="app",
        runs=tuple(runs),
        executable=draw(st.sampled_from(["", "run ${a}", "run ${a} ${zz}"])),
        groups=groups,
        metadata=draw(st.sampled_from([{}, {"lint": {"suppress": ["FAIR005"]}}, {"é": [1.5]}])),
    )
