"""The SQL-pushdown face of the §II-C codesign catalog.

:class:`StoreCatalog` answers the same queries as the in-memory
:class:`repro.cheetah.CampaignCatalog` — ``best``, ``rank``, the Pareto
front, per-parameter impact — but evaluates them *inside* the store's
SQL engine and builds a :class:`RunRecord` only for the runs an answer
returns, never for the whole campaign:

- ``best``/``rank`` are one ``ORDER BY`` scan over the metric (ties
  broken by ``run_id``, exactly the in-memory rule) that validates the
  metric in the same pass;
- the Pareto front is a skyline over one scan ordered by the objective
  columns: a single sweep for two objectives (Kung, Luccio & Preparata
  1975), sort-filter-skyline for any other count (Börzsönyi, Kossmann &
  Stocker, "The Skyline Operator", ICDE 2001);
- ``parameter_impact`` is a ``GROUP BY`` over the parameters table with
  the grand mean folded from the same aggregate pass.

The answers are equivalent by construction and pinned by
``tests/test_store_catalog_equivalence.py``: identical run ids in
identical order for ``best``/``rank``/``pareto_front``, and the same
``KeyError``/``ValueError`` contracts on missing metrics, empty catalogs
and negative ``k``.  One deliberate strictness difference: every
objective query here validates the metric on *every* run (first missing
run in run-id order names itself), where the in-memory catalog only
discovers a missing metric lazily while comparing (and not at all for a
single-record ``best``).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro._util import loads_tagged
from repro.cheetah.catalog import RunRecord
from repro.cheetah.objectives import Direction, Objective

#: The runs a catalog answers over: finished runs of one campaign (bound
#: as the first parameter) that were really executed.
_SCOPE = "r.campaign_id = ? AND r.status = 'done' AND r.attempts IS NOT NULL"

#: Run keys per ``IN (...)`` lookup, well under every engine's bound on
#: query parameters.
_FETCH_CHUNK = 500


class StoreCatalog:
    """Campaign catalog queries pushed down to the campaign store."""

    def __init__(self, store, campaign: str):
        self.store = store
        self.campaign = campaign
        self._cid = store.campaign_id(campaign)

    def __len__(self) -> int:
        return self.store.query(f"SELECT COUNT(*) FROM runs r WHERE {_SCOPE}", (self._cid,))[0][0]

    # -- record access ---------------------------------------------------------

    def records(self) -> list[RunRecord]:
        """Every run as a :class:`RunRecord`, ordered by run id."""
        return self._fetch(
            self.store.query(
                f"SELECT r.id, r.run_id FROM runs r WHERE {_SCOPE} ORDER BY r.run_id",
                (self._cid,),
            )
        )

    def metric_names(self) -> set:
        """Every metric name any run of the campaign reports."""
        return {
            name
            for (name,) in self.store.query(
                "SELECT DISTINCT m.name FROM metrics m "
                f"JOIN runs r ON r.id = m.run_key WHERE {_SCOPE}",
                (self._cid,),
            )
        }

    def record(self, run_id: str) -> RunRecord:
        """One run's record (KeyError if the run is unknown)."""
        rows = self.store.query(
            f"SELECT r.id, r.run_id FROM runs r WHERE {_SCOPE} AND r.run_id = ?",
            (self._cid, run_id),
        )
        if not rows:
            raise KeyError(f"unknown run_id {run_id!r}")
        return self._fetch(rows)[0]

    # -- objective queries -----------------------------------------------------

    def best(self, objective: Objective) -> RunRecord:
        """The single best run under ``objective`` (SQL ``ORDER BY ... LIMIT 1``)."""
        rows = self._ranked(objective, 1)
        if not rows:
            raise ValueError("catalog is empty")
        return self._fetch(rows)[0]

    def rank(self, objective: Objective, k: int | None = None) -> list[RunRecord]:
        """Runs ordered best-first under ``objective`` (one ordered scan)."""
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        # k = 0 still reads one row, so a missing metric raises as the
        # in-memory sort does.
        rows = self._ranked(objective, None if k is None else max(k, 1))
        return self._fetch(rows[:k])

    def pareto_front(self, objectives) -> list[RunRecord]:
        """Non-dominated runs under competing objectives (skyline of one sorted scan).

        One query pivots the requested metrics into a row per run, each
        negated where it is maximized so that smaller is better
        everywhere, and sorts the rows by them.  A run that dominates
        another sorts before it, so one pass in that order finds every
        run that no other run is at least as good as on every objective
        and strictly better than on one — the §II-C dominance rule.  The
        front comes back ordered by run id.
        """
        objectives = list(objectives)
        if not objectives:
            raise ValueError("need at least one objective")
        values = ", ".join(
            f"{'-' if o.direction is Direction.MAXIMIZE else ''}m{i}.value AS v{i}"
            for i, o in enumerate(objectives)
        )
        joins = " ".join(
            f"LEFT JOIN metrics m{i} ON m{i}.run_key = r.id AND m{i}.name = ?"
            for i in range(len(objectives))
        )
        order = ", ".join(f"v{i}" for i in range(len(objectives)))
        rows = self.store.query(
            f"SELECT r.id, r.run_id, {values} FROM runs r {joins} WHERE {_SCOPE} ORDER BY {order}",
            (*(o.metric for o in objectives), self._cid),
        )
        for i, objective in enumerate(objectives):
            missing = [row[1] for row in rows if row[2 + i] is None]
            if missing:
                raise self._missing_metric(min(missing), objective.metric)
        front = _sweep(rows) if len(objectives) == 2 else _sort_filter(rows)
        return self._fetch(sorted(front, key=itemgetter(1)))

    # -- parameter impact ------------------------------------------------------

    def parameter_impact(self, parameter: str, metric: str) -> dict:
        """Impact of one swept parameter on one metric (SQL ``GROUP BY``).

        Same report shape as the in-memory catalog: per-value metric
        means, the grand mean over every included run, and ``effect`` =
        spread of group means / |grand mean|.
        """
        rows = self.store.query(
            "SELECT p.value_json, AVG(m.value), SUM(m.value), COUNT(*) "
            "FROM runs r "
            "JOIN parameters p ON p.run_key = r.id AND p.name = ? "
            "JOIN metrics m ON m.run_key = r.id AND m.name = ? "
            f"WHERE {_SCOPE} GROUP BY p.value_json",
            (parameter, metric, self._cid),
        )
        if not rows:
            raise ValueError(
                f"no runs carry both parameter {parameter!r} and metric {metric!r}"
            )
        means = {}
        total = 0.0
        count = 0
        for value_json, mean, group_sum, group_count in rows:
            key = loads_tagged(value_json)
            means[key] = float(mean)
            total += group_sum
            count += group_count
        grand = total / count
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
        names = [
            name
            for (name,) in self.store.query(
                "SELECT DISTINCT p.name FROM parameters p "
                "JOIN runs r ON r.id = p.run_key "
                f"WHERE {_SCOPE} ORDER BY p.name",
                (self._cid,),
            )
        ]
        rows = []
        for name in names:
            try:
                impact = self.parameter_impact(name, metric)
            except ValueError:
                continue
            rows.append((name, impact["effect"]))
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

    # -- internals -------------------------------------------------------------

    def _ranked(self, objective: Objective, limit: int | None) -> list[tuple]:
        """``(run key, run id)`` rows best-first under ``objective``.

        Runs missing the metric sort first, in run-id order, so the same
        scan that ranks also validates: a missing metric raises
        :meth:`_missing_metric` for the first offending run.
        """
        order = "DESC" if objective.direction is Direction.MAXIMIZE else "ASC"
        rows = self.store.query(
            "SELECT r.id, r.run_id, m.value FROM runs r "
            "LEFT JOIN metrics m ON m.run_key = r.id AND m.name = ? "
            f"WHERE {_SCOPE} ORDER BY m.value IS NULL DESC, m.value {order}, r.run_id"
            + ("" if limit is None else f" LIMIT {int(limit)}"),
            (objective.metric, self._cid),
        )
        if rows and rows[0][2] is None:
            raise self._missing_metric(rows[0][1], objective.metric)
        return rows

    def _fetch(self, rows) -> list[RunRecord]:
        """Records for ``(run key, run id, ...)`` rows, in the rows' order.

        Parameters and metrics are read by primary key for just these
        runs, a chunk of keys per lookup.
        """
        params = {row[0]: {} for row in rows}
        metrics = {key: {} for key in params}
        keys = list(params)
        for start in range(0, len(keys), _FETCH_CHUNK):
            chunk = tuple(keys[start : start + _FETCH_CHUNK])
            marks = ", ".join("?" * len(chunk))
            for key, name, value_json in self.store.query(
                f"SELECT run_key, name, value_json FROM parameters WHERE run_key IN ({marks})",
                chunk,
            ):
                params[key][name] = loads_tagged(value_json)
            for key, name, value in self.store.query(
                f"SELECT run_key, name, value FROM metrics WHERE run_key IN ({marks})",
                chunk,
            ):
                metrics[key][name] = value
        return [
            RunRecord(run_id=row[1], parameters=params[row[0]], metrics=metrics[row[0]])
            for row in rows
        ]

    def _missing_metric(self, run_id: str, metric: str) -> KeyError:
        """KeyError parity with the in-memory catalog: the offending run
        names itself and its known metrics."""
        known = sorted(
            name
            for (name,) in self.store.query(
                "SELECT m.name FROM metrics m JOIN runs r ON r.id = m.run_key "
                f"WHERE {_SCOPE} AND r.run_id = ?",
                (self._cid, run_id),
            )
        )
        return KeyError(f"run {run_id!r} has no metric {metric!r}; known: {known}")


def _sweep(rows) -> list[tuple]:
    """Two-objective skyline of ``(key, run id, a, b)`` rows sorted by
    ``(a, b)``, smaller better: one pass (Kung, Luccio & Preparata 1975).

    Within a group of equal ``a`` only the runs with the group's best
    ``b`` can survive, and they do when that ``b`` strictly beats the
    best ``b`` of every run with a better ``a``.
    """
    front: list[tuple] = []
    bound = None  # the best b of every earlier group
    for _, group in groupby(rows, key=itemgetter(2)):
        first = next(group)
        if bound is not None and first[3] >= bound:
            continue
        bound = first[3]
        front.append(first)
        for row in group:
            if row[3] != bound:
                break
            front.append(row)
    return front


def _sort_filter(rows) -> list[tuple]:
    """Skyline of ``(key, run id, *values)`` rows sorted by their values,
    smaller better: sort-filter-skyline (Börzsönyi et al., ICDE 2001).

    A run can only be dominated by one sorted before it, so each run is
    checked once, in one array comparison, against the distinct front
    vectors found so far: a distinct earlier vector no worse on every
    objective dominates it.  Equal vectors sort together and share one
    verdict.
    """
    front: list[tuple] = []
    window = np.empty((len(rows), len(rows[0]) - 2 if rows else 0))
    size = 0
    previous = keep = None
    for row in rows:
        vector = row[2:]
        if vector != previous:
            previous = vector
            keep = not (window[:size] <= vector).all(axis=1).any()
            if keep:
                window[size] = vector
                size += 1
        if keep:
            front.append(row)
    return front
