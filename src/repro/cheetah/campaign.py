"""Campaign / SweepGroup / Sweep — Cheetah's composition model (§IV, §V-D).

"The Campaign abstraction in Cheetah allows creating a large ensemble
study composed of one or more parameter 'Sweeps', which may be grouped
into 'SweepGroups'."  A Sweep is a cartesian product of parameters
(optionally filtered); a SweepGroup carries the batch-resource envelope
(nodes, walltime) its runs execute under; a Campaign names the study and
its application.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro._util import check_positive
from repro.cheetah.manifest import CampaignManifest, RunTable, node_width
from repro.cheetah.parameters import DerivedParameter, ParameterError, SweepParameter
from repro.metadata.provenance import CampaignContext
from repro.observability import CAMPAIGN_COMPOSED


@dataclass(frozen=True)
class AppSpec:
    """The science application a campaign drives.

    ``nodes_per_run`` is a whole number of nodes >= 1 (a numpy integer
    is taken as its ``int``), checked here by the manifest's width rule.
    """

    name: str
    executable: str = ""
    nodes_per_run: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nodes_per_run", node_width(self.nodes_per_run, "nodes_per_run")
        )


class Sweep:
    """A cartesian product of parameters, optionally filtered.

    ``filter`` is a predicate over the full configuration dict; rejected
    points are skipped (the paper's "high-level expression of
    application-level, middleware-level, and system-level parameters"
    routinely needs constraint pruning).
    """

    def __init__(
        self,
        parameters,
        derived=(),
        filter: Callable[[dict], bool] | None = None,
        name: str = "sweep",
    ):
        if not name or not str(name).strip():
            raise ParameterError("sweep name must be non-empty")
        self.name = name
        self.parameters = tuple(parameters)
        self.derived = tuple(derived)
        self.filter = filter
        if not self.parameters:
            raise ParameterError(f"sweep {name!r} has no parameters")
        for p in self.parameters:
            if not isinstance(p, SweepParameter):
                raise ParameterError(
                    f"sweep {name!r}: expected SweepParameter, got {type(p).__name__}"
                )
        for d in self.derived:
            if not isinstance(d, DerivedParameter):
                raise ParameterError(
                    f"sweep {name!r}: expected DerivedParameter, got {type(d).__name__}"
                )
        # Validate names here, at composition time, not during manifest
        # expansion or template rendering: a sweep that cannot express its
        # own parameters is broken regardless of how it is later executed.
        # Cross-sweep collisions (duplicate points, inconsistent parameter
        # sets across a SweepGroup) are the campaign-level backstop of
        # ``repro.lint`` (FAIR002/FAIR005).
        names = [p.name for p in self.parameters] + [d.name for d in self.derived]
        non_identifiers = sorted(n for n in names if not str(n).isidentifier())
        if non_identifiers:
            raise ParameterError(
                f"sweep {name!r}: parameter names must be valid identifiers "
                f"(template-addressable), got {non_identifiers}"
            )
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ParameterError(
                f"duplicate parameter names in sweep {name!r}: {duplicates}"
            )

    def configurations(self):
        """Yield configuration dicts in deterministic cartesian order."""
        names = [p.name for p in self.parameters]
        for combo in itertools.product(*(p.values for p in self.parameters)):
            config = dict(zip(names, combo))
            for d in self.derived:
                config[d.name] = d.fn(config)
            if self.filter is None or self.filter(config):
                yield config

    def __len__(self) -> int:
        return sum(1 for _ in self.configurations())


class SweepGroup:
    """A named group of sweeps sharing one batch-resource envelope.

    ``nodes`` and ``walltime`` describe the allocation the group's runs
    execute in; Savanna "may simply re-submit a partially completed
    SweepGroup" to continue execution, so group identity is the resume
    unit.
    """

    def __init__(self, name: str, nodes: int, walltime: float, sweeps=()):
        check_positive("nodes", nodes)
        check_positive("walltime", walltime)
        self.name = name
        self.nodes = nodes
        self.walltime = walltime
        self.sweeps: list[Sweep] = list(sweeps)

    def add(self, sweep: Sweep) -> "SweepGroup":
        self.sweeps.append(sweep)
        return self

    def configurations(self):
        for sweep in self.sweeps:
            yield from sweep.configurations()

    def __len__(self) -> int:
        return sum(len(s) for s in self.sweeps)


class Campaign:
    """A composed codesign/ensemble campaign.

    Example
    -------
    >>> from repro.cheetah.parameters import RangeParameter
    >>> camp = Campaign("irf-loop", app=AppSpec("irf"))
    >>> sg = camp.sweep_group("features", nodes=20, walltime=7200)
    >>> _ = sg.add(Sweep([RangeParameter("feature", 0, 5)]))
    >>> [r.run_id for r in camp.to_manifest().runs][:2]
    ['features/run-0000', 'features/run-0001']
    """

    def __init__(
        self,
        name: str,
        app: AppSpec,
        objective: str = "explore parameters",
        metadata: dict | None = None,
    ):
        if not name:
            raise ValueError("campaign name must be non-empty")
        self.name = name
        self.app = app
        self.objective = objective
        self.groups: list[SweepGroup] = []
        #: Free-form campaign metadata; travels through the manifest JSON.
        #: ``metadata["lint"]["suppress"]`` lists ``repro.lint`` rule ids
        #: this campaign opts out of (see ``docs/lint.md``).
        self.metadata: dict = dict(metadata or {})

    def sweep_group(self, name: str, nodes: int, walltime: float) -> SweepGroup:
        """Create, register, and return a new SweepGroup."""
        if any(g.name == name for g in self.groups):
            raise ValueError(f"duplicate sweep group name {name!r}")
        group = SweepGroup(name=name, nodes=nodes, walltime=walltime)
        self.groups.append(group)
        return group

    def add_group(self, group: SweepGroup) -> "Campaign":
        if any(g.name == group.name for g in self.groups):
            raise ValueError(f"duplicate sweep group name {group.name!r}")
        self.groups.append(group)
        return self

    def total_runs(self) -> int:
        return sum(len(g) for g in self.groups)

    def context(self) -> CampaignContext:
        """Campaign-tier provenance context for this study."""
        swept = []
        for group in self.groups:
            for sweep in group.sweeps:
                swept.extend(p.name for p in sweep.parameters)
        return CampaignContext(
            name=self.name,
            objective=self.objective,
            swept_parameters=tuple(dict.fromkeys(swept)),
        )

    def to_manifest(self, bus=None) -> CampaignManifest:
        """Build the abstract manifest — the Cheetah↔Savanna interop layer.

        With an :class:`~repro.observability.EventBus` passed, emits one
        ``campaign.composed`` instant recording the materialized shape
        (campaign name, group count, total runs) — composition is the
        first provenance-relevant act of a study, so it belongs on the
        same stream the execution layers write to.
        """
        ids, groups, parameters = [], [], []
        groups_meta = []
        for group in self.groups:
            configs = list(group.configurations())
            ids += [f"{group.name}/run-{count:04d}" for count in range(len(configs))]
            groups += itertools.repeat(group.name, len(configs))
            parameters += configs
            groups_meta.append(
                {
                    "name": group.name,
                    "nodes": group.nodes,
                    "walltime": group.walltime,
                    "runs": len(configs),
                }
            )
        runs = RunTable._from_rows(ids, groups, parameters, [self.app.nodes_per_run] * len(ids))
        if bus is not None:
            bus.emit(
                CAMPAIGN_COMPOSED,
                campaign=self.name,
                groups=len(groups_meta),
                runs=len(runs),
            )
        return CampaignManifest(
            campaign=self.name,
            app=self.app.name,
            executable=self.app.executable,
            objective=self.objective,
            groups=tuple(groups_meta),
            runs=runs,
            metadata=dict(self.metadata),
        )
