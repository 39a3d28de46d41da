"""Property tests: StoreCatalog answers == in-memory CampaignCatalog answers.

The SQL-pushdown catalog (repro.store) must be observationally identical
to the in-memory catalog (repro.cheetah.catalog) on the §II-C queries:
``best``/``rank`` return the same run ids in the same order (ties broken
by run id in both), the Pareto front contains the same runs, parameter
impact agrees numerically, and the error contracts (KeyError on missing
metrics naming the first offending run, ValueError on empty catalogs and
on negative ``k``) match message for message.

Generic finite floats almost never tie, so a second generator draws
every metric from a four-value set: equal values, and whole equal
objective vectors, are then the common case the skyline sweep must get
right.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cheetah.catalog import CampaignCatalog
from repro.cheetah.manifest import CampaignManifest
from repro.cheetah.objectives import Direction, Objective
from repro.store import CampaignStore

PARAM_POOL = {
    "x": st.integers(0, 5),
    "depth": st.integers(1, 4),
    "mode": st.sampled_from(["a", "b", "c"]),
}
METRIC_POOL = ["loss", "cost", "throughput"]

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@st.composite
def catalogs(draw, min_runs=0, max_runs=12, full_metrics=False):
    """A list of (run_id, parameters, metrics) rows."""
    n = draw(st.integers(min_runs, max_runs))
    rows = []
    for i in range(n):
        parameters = {
            name: draw(values)
            for name, values in PARAM_POOL.items()
            if full_metrics or draw(st.booleans())
        }
        metric_names = (
            METRIC_POOL
            if full_metrics
            else draw(
                st.lists(st.sampled_from(METRIC_POOL), unique=True, max_size=3)
            )
        )
        metrics = {name: draw(finite) for name in metric_names}
        rows.append((f"run-{i:03d}", parameters, metrics))
    return rows


#: The tie-heavy generator's whole value set.
TIED_VALUES = (-1.0, 0.0, 1.0, 2.5)


@st.composite
def tied_catalogs(draw, min_runs=0, max_runs=60):
    """Rows with every metric drawn from :data:`TIED_VALUES`.

    Run ids are a drawn permutation, so insertion order (the store's row
    order) differs from run-id order.
    """
    n = draw(st.integers(min_runs, max_runs))
    order = draw(st.permutations(range(n)))
    return [
        (
            f"run-{j:03d}",
            {"x": draw(PARAM_POOL["x"])},
            {name: draw(st.sampled_from(TIED_VALUES)) for name in METRIC_POOL},
        )
        for j in order
    ]


def build_both(rows, campaign="equiv"):
    """The same rows as an in-memory catalog and as a store catalog."""
    mem = CampaignCatalog(campaign)
    store = CampaignStore(":memory:", chunk_size=5)
    store.ensure_campaign(
        CampaignManifest(campaign=campaign, app="app", runs=())
    )
    for run_id, parameters, metrics in rows:
        mem.add(run_id, parameters, metrics)
        store.add_result(
            campaign, run_id, parameters=parameters, metrics=metrics,
            status="done", attempts=1,
        )
    return mem, store.catalog(campaign), store


@settings(deadline=None, max_examples=60)
@given(rows=catalogs(min_runs=1, full_metrics=True), metric=st.sampled_from(METRIC_POOL),
       direction=st.sampled_from(list(Direction)))
def test_best_and_rank_identical(rows, metric, direction):
    mem, sql, store = build_both(rows)
    objective = Objective("o", metric=metric, direction=direction)
    try:
        assert sql.best(objective).run_id == mem.best(objective).run_id
        assert [r.run_id for r in sql.rank(objective)] == [
            r.run_id for r in mem.rank(objective)
        ]
        assert [r.run_id for r in sql.rank(objective, k=3)] == [
            r.run_id for r in mem.rank(objective, k=3)
        ]
    finally:
        store.close()


@settings(deadline=None, max_examples=60)
@given(rows=catalogs(full_metrics=True),
       n_objectives=st.integers(1, 3),
       directions=st.lists(st.sampled_from(list(Direction)), min_size=3, max_size=3))
def test_pareto_front_identical(rows, n_objectives, directions):
    mem, sql, store = build_both(rows)
    objectives = [
        Objective(f"o{i}", metric=METRIC_POOL[i], direction=directions[i])
        for i in range(n_objectives)
    ]
    try:
        assert [r.run_id for r in sql.pareto_front(objectives)] == [
            r.run_id for r in mem.pareto_front(objectives)
        ]
    finally:
        store.close()


@settings(deadline=None, max_examples=60)
@given(rows=catalogs(min_runs=1, full_metrics=True),
       parameter=st.sampled_from(sorted(PARAM_POOL)),
       metric=st.sampled_from(METRIC_POOL))
def test_parameter_impact_agrees(rows, parameter, metric):
    mem, sql, store = build_both(rows)
    try:
        mem_impact = mem.parameter_impact(parameter, metric)
        sql_impact = sql.parameter_impact(parameter, metric)
        assert sql_impact["group_means"].keys() == mem_impact["group_means"].keys()
        for key, mean in mem_impact["group_means"].items():
            assert sql_impact["group_means"][key] == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert sql_impact["grand_mean"] == pytest.approx(
            mem_impact["grand_mean"], rel=1e-9, abs=1e-9
        )
        if mem_impact["effect"] != float("inf"):
            assert sql_impact["effect"] == pytest.approx(
                mem_impact["effect"], rel=1e-6, abs=1e-9
            )
    finally:
        store.close()


@settings(deadline=None, max_examples=40)
@given(rows=catalogs())
def test_records_and_metric_names_identical(rows):
    mem, sql, store = build_both(rows)
    try:
        assert sql.metric_names() == mem.metric_names()
        assert [
            (r.run_id, r.parameters, r.metrics) for r in sql.records()
        ] == [(r.run_id, r.parameters, r.metrics) for r in mem.records()]
    finally:
        store.close()


@settings(deadline=None, max_examples=40)
@given(rows=catalogs(min_runs=1))
def test_missing_metric_raises_identically(rows):
    """KeyError parity on ``rank``, ``k=0`` included: same exception type
    and message — the first run (in run-id order) missing the metric
    names itself.  On ``best`` the store is strictly *more* validating
    than the in-memory catalog (which skips the metric check entirely
    for single-run catalogs): any missing metric raises, naming the
    first offender."""
    mem, sql, store = build_both(rows)
    objective = Objective("o", metric="loss")
    missing = [rid for rid, _, metrics in rows if "loss" not in metrics]
    try:
        if not missing:
            assert sql.best(objective).run_id == mem.best(objective).run_id
            return
        with pytest.raises(KeyError) as best_err:
            sql.best(objective)
        assert repr(missing[0]) in str(best_err.value)
        for k in (None, 0):
            with pytest.raises(KeyError) as mem_err:
                mem.rank(objective, k=k)
            with pytest.raises(KeyError) as sql_err:
                sql.rank(objective, k=k)
            assert sql_err.value.args == mem_err.value.args
    finally:
        store.close()


def test_empty_catalog_contracts_match():
    mem, sql, store = build_both([])
    objective = Objective("o", metric="loss")
    try:
        with pytest.raises(ValueError, match="catalog is empty"):
            mem.best(objective)
        with pytest.raises(ValueError, match="catalog is empty"):
            sql.best(objective)
        assert mem.rank(objective) == [] == sql.rank(objective)
        assert mem.pareto_front([objective]) == [] == sql.pareto_front([objective])
        with pytest.raises(ValueError, match="need at least one objective"):
            sql.pareto_front([])
    finally:
        store.close()


DIRECTION_MIXES = [
    mix for n in (1, 2, 3) for mix in itertools.product(list(Direction), repeat=n)
]


@pytest.mark.parametrize(
    "directions", DIRECTION_MIXES, ids=lambda mix: "-".join(d.value[:3] for d in mix)
)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_pareto_front_identical_under_ties(directions, data):
    """Every 1-3 objective direction mix, on metrics that tie constantly
    (an objective may repeat a metric, e.g. loss minimized and
    maximized): same front, ordered by run id."""
    rows = data.draw(tied_catalogs())
    metrics = data.draw(
        st.lists(st.sampled_from(METRIC_POOL), min_size=len(directions), max_size=len(directions))
    )
    mem, sql, store = build_both(rows)
    objectives = [
        Objective(f"o{i}", metric=metric, direction=direction)
        for i, (metric, direction) in enumerate(zip(metrics, directions))
    ]
    try:
        front = [r.run_id for r in sql.pareto_front(objectives)]
        assert front == [r.run_id for r in mem.pareto_front(objectives)]
        assert front == sorted(front)
    finally:
        store.close()


@settings(deadline=None, max_examples=80)
@given(data=st.data(), metric=st.sampled_from(METRIC_POOL),
       direction=st.sampled_from(list(Direction)))
def test_best_and_rank_identical_under_ties(data, metric, direction):
    rows = data.draw(tied_catalogs(min_runs=1))
    n = len(rows)
    k = data.draw(st.sampled_from([None, 0, 1, 3, n, n + 5]))
    mem, sql, store = build_both(rows)
    objective = Objective("o", metric=metric, direction=direction)
    try:
        assert sql.best(objective).run_id == mem.best(objective).run_id
        assert [r.run_id for r in sql.rank(objective, k=k)] == [
            r.run_id for r in mem.rank(objective, k=k)
        ]
    finally:
        store.close()


@settings(deadline=None, max_examples=20)
@given(rows=tied_catalogs(), k=st.integers(max_value=-1))
def test_negative_k_raises_identically(rows, k):
    mem, sql, store = build_both(rows)
    objective = Objective("o", metric="loss")
    try:
        with pytest.raises(ValueError) as mem_err:
            mem.rank(objective, k=k)
        with pytest.raises(ValueError) as sql_err:
            sql.rank(objective, k=k)
        assert sql_err.value.args == mem_err.value.args
    finally:
        store.close()


@settings(deadline=None, max_examples=40)
@given(rows=catalogs(), data=st.data())
def test_record_identical(rows, data):
    """``record(run_id)`` returns the in-memory record; an unknown id, or a
    run that is not done, is a KeyError."""
    mem, sql, store = build_both(rows)
    store.add_result("equiv", "zz-failed", metrics={"loss": 0.0}, status="failed")
    try:
        by_id = {r.run_id: r for r in mem.records()}
        if by_id:
            run_id = data.draw(st.sampled_from(sorted(by_id)))
            got = sql.record(run_id)
            want = by_id[run_id]
            assert (got.run_id, got.parameters, got.metrics) == (
                want.run_id, want.parameters, want.metrics
            )
        for unknown in ("no-such-run", "zz-failed"):
            with pytest.raises(KeyError, match=f"unknown run_id {unknown!r}"):
                sql.record(unknown)
    finally:
        store.close()
