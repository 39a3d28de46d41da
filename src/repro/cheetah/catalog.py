"""The codesign campaign catalog (§II-C).

"The output of a codesign campaign is a catalog that describes the impact
of different parameters on different output metrics."  The catalog
collects per-run metrics, answers objective queries (best configuration,
Pareto front over competing objectives), and quantifies per-parameter
impact — the machine-queriable study product the paper argues for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.cheetah.objectives import Objective


@dataclass(frozen=True)
class RunRecord:
    """One run's identity, swept parameters, and measured metrics."""

    run_id: str
    parameters: dict
    metrics: dict

    def metric(self, name: str) -> float:
        try:
            return float(self.metrics[name])
        except KeyError:
            raise KeyError(
                f"run {self.run_id!r} has no metric {name!r}; "
                f"known: {sorted(self.metrics)}"
            ) from None


class CampaignCatalog:
    """Collected results of a codesign campaign, with query interfaces."""

    def __init__(self, campaign: str):
        self.campaign = campaign
        self._records: dict[str, RunRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, run_id: str, parameters: dict, metrics: dict) -> RunRecord:
        if run_id in self._records:
            raise ValueError(f"duplicate run_id {run_id!r} in catalog")
        record = RunRecord(run_id=run_id, parameters=dict(parameters), metrics=dict(metrics))
        self._records[run_id] = record
        return record

    def records(self) -> list[RunRecord]:
        return [self._records[k] for k in sorted(self._records)]

    def metric_names(self) -> set:
        names: set[str] = set()
        for r in self._records.values():
            names |= set(r.metrics)
        return names

    # -- objective queries -----------------------------------------------------

    def best(self, objective: Objective) -> RunRecord:
        """The single best run under ``objective``."""
        records = self.records()
        if not records:
            raise ValueError("catalog is empty")
        best = records[0]
        for record in records[1:]:
            if objective.better(record.metric(objective.metric), best.metric(objective.metric)):
                best = record
        return best

    def rank(self, objective: Objective, k: int | None = None) -> list[RunRecord]:
        """Runs ordered best-first under ``objective`` (the top ``k`` if given)."""
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        records = sorted(
            self.records(),
            key=lambda r: r.metric(objective.metric),
            reverse=objective.direction.value == "maximize",
        )
        return records if k is None else records[:k]

    def pareto_front(self, objectives) -> list[RunRecord]:
        """Non-dominated runs under multiple competing objectives.

        A run is dominated if some other run is at least as good on every
        objective and strictly better on one.
        """
        objectives = list(objectives)
        if not objectives:
            raise ValueError("need at least one objective")
        records = self.records()

        def dominates(a: RunRecord, b: RunRecord) -> bool:
            at_least_as_good = all(
                not o.better(b.metric(o.metric), a.metric(o.metric)) for o in objectives
            )
            strictly_better = any(
                o.better(a.metric(o.metric), b.metric(o.metric)) for o in objectives
            )
            return at_least_as_good and strictly_better

        return [
            r for r in records if not any(dominates(other, r) for other in records)
        ]

    # -- parameter impact --------------------------------------------------------

    def parameter_impact(self, parameter: str, metric: str) -> dict:
        """Impact of one swept parameter on one metric.

        Groups runs by the parameter's value and reports the per-value
        metric mean, plus ``effect``: the spread of group means divided by
        the grand mean (0 = the parameter does not matter).
        """
        groups: dict = {}
        for record in self._records.values():
            if parameter not in record.parameters or metric not in record.metrics:
                continue
            groups.setdefault(record.parameters[parameter], []).append(
                record.metric(metric)
            )
        if not groups:
            raise ValueError(
                f"no runs carry both parameter {parameter!r} and metric {metric!r}"
            )
        means = {value: float(np.mean(vals)) for value, vals in groups.items()}
        grand = float(np.mean([v for vals in groups.values() for v in vals]))
        spread = max(means.values()) - min(means.values())
        return {
            "parameter": parameter,
            "metric": metric,
            "group_means": means,
            "grand_mean": grand,
            "effect": spread / abs(grand) if grand != 0 else float("inf"),
        }

    def impact_ranking(self, metric: str) -> list[tuple[str, float]]:
        """Parameters ordered by their effect on ``metric`` (largest first)."""
        parameters: set[str] = set()
        for record in self._records.values():
            parameters |= set(record.parameters)
        rows = []
        for parameter in sorted(parameters):
            try:
                impact = self.parameter_impact(parameter, metric)
            except ValueError:
                continue
            rows.append((parameter, impact["effect"]))
        rows.sort(key=lambda pair: -pair[1])
        return rows

    def to_table(self, metrics=None) -> str:
        """Render the catalog as an aligned text table (sorted by run_id)."""
        from repro._util import format_table

        records = self.records()
        if not records:
            return f"campaign {self.campaign!r}: (empty catalog)"
        params = sorted({k for r in records for k in r.parameters})
        metrics = sorted(self.metric_names()) if metrics is None else list(metrics)
        headers = ["run_id", *params, *metrics]
        rows = []
        for r in records:
            rows.append(
                [r.run_id]
                + [r.parameters.get(p, "") for p in params]
                + [r.metrics.get(m, "") for m in metrics]
            )
        return format_table(headers, rows)

    # -- persistence -----------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "campaign": self.campaign,
            "runs": [
                {"run_id": r.run_id, "parameters": r.parameters, "metrics": r.metrics}
                for r in self.records()
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignCatalog":
        doc = json.loads(text)
        catalog = cls(doc["campaign"])
        for run in doc["runs"]:
            catalog.add(run["run_id"], run["parameters"], run["metrics"])
        return catalog
