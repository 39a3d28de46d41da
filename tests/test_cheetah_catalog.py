"""Tests for codesign objectives and the campaign catalog."""

import pytest

from repro.cheetah.catalog import CampaignCatalog, RunRecord
from repro.cheetah.objectives import Direction, Objective, standard_objectives


def filled_catalog():
    catalog = CampaignCatalog("codesign")
    # sweep: buffer in {1,2,4}, compression in {on, off}
    data = [
        ({"buffer": 1, "compression": "off"}, {"runtime_seconds": 100, "storage_bytes": 1000}),
        ({"buffer": 2, "compression": "off"}, {"runtime_seconds": 80, "storage_bytes": 1000}),
        ({"buffer": 4, "compression": "off"}, {"runtime_seconds": 70, "storage_bytes": 1000}),
        ({"buffer": 1, "compression": "on"}, {"runtime_seconds": 120, "storage_bytes": 400}),
        ({"buffer": 2, "compression": "on"}, {"runtime_seconds": 95, "storage_bytes": 400}),
        ({"buffer": 4, "compression": "on"}, {"runtime_seconds": 85, "storage_bytes": 400}),
    ]
    for i, (params, metrics) in enumerate(data):
        catalog.add(f"run-{i:02d}", params, metrics)
    return catalog


class TestObjective:
    def test_minimize_direction(self):
        o = Objective("fast", "runtime_seconds")
        assert o.better(1.0, 2.0)
        assert not o.better(2.0, 1.0)
        assert o.best_of([3.0, 1.0, 2.0]) == 1.0

    def test_maximize_direction(self):
        o = Objective("tp", "throughput", Direction.MAXIMIZE)
        assert o.better(2.0, 1.0)
        assert o.best_of([3.0, 1.0]) == 3.0

    def test_empty_best_of_rejected(self):
        with pytest.raises(ValueError):
            Objective("x", "m").best_of([])

    def test_standard_objectives_cover_paper_examples(self):
        names = set(standard_objectives())
        assert {"optimal-runtime", "minimal-storage", "minimal-communication"} <= names


class TestCatalogQueries:
    def test_best_run(self):
        catalog = filled_catalog()
        fastest = catalog.best(Objective("fast", "runtime_seconds"))
        assert fastest.parameters == {"buffer": 4, "compression": "off"}
        smallest = catalog.best(Objective("small", "storage_bytes"))
        assert smallest.parameters["compression"] == "on"

    def test_rank_order(self):
        catalog = filled_catalog()
        ranked = catalog.rank(Objective("fast", "runtime_seconds"), k=3)
        runtimes = [r.metric("runtime_seconds") for r in ranked]
        assert runtimes == sorted(runtimes)
        assert len(ranked) == 3

    def test_rank_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            filled_catalog().rank(Objective("fast", "runtime_seconds"), k=-1)

    def test_pareto_front(self):
        catalog = filled_catalog()
        front = catalog.pareto_front(
            [Objective("fast", "runtime_seconds"), Objective("small", "storage_bytes")]
        )
        params = {(r.parameters["buffer"], r.parameters["compression"]) for r in front}
        # buffer=4/off is fastest; buffer=4/on is smallest among fast;
        # everything strictly dominated must be excluded.
        assert (4, "off") in params
        assert (4, "on") in params
        assert (1, "on") not in params  # dominated by (4, on)
        assert (1, "off") not in params

    def test_pareto_single_objective_is_best_set(self):
        catalog = filled_catalog()
        front = catalog.pareto_front([Objective("fast", "runtime_seconds")])
        assert len(front) == 1
        assert front[0].metric("runtime_seconds") == 70

    def test_pareto_needs_objectives(self):
        with pytest.raises(ValueError):
            filled_catalog().pareto_front([])

    def test_empty_catalog_best_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CampaignCatalog("x").best(Objective("f", "m"))


class TestParameterImpact:
    def test_impact_identifies_dominant_parameter(self):
        catalog = filled_catalog()
        ranking = catalog.impact_ranking("storage_bytes")
        assert ranking[0][0] == "compression"  # storage is all about compression
        ranking_rt = catalog.impact_ranking("runtime_seconds")
        assert ranking_rt[0][0] == "buffer"  # runtime is mostly buffer

    def test_group_means(self):
        catalog = filled_catalog()
        impact = catalog.parameter_impact("compression", "storage_bytes")
        assert impact["group_means"] == {"off": 1000.0, "on": 400.0}
        assert impact["effect"] > 0

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError, match="no runs carry"):
            filled_catalog().parameter_impact("nonexistent", "runtime_seconds")

    def test_unknown_metric_on_record(self):
        record = RunRecord("r", {}, {"a": 1.0})
        with pytest.raises(KeyError, match="no metric"):
            record.metric("b")


class TestPersistence:
    def test_json_roundtrip(self):
        catalog = filled_catalog()
        again = CampaignCatalog.from_json(catalog.to_json())
        assert again.campaign == catalog.campaign
        assert len(again) == len(catalog)
        assert again.records() == catalog.records()

    def test_duplicate_run_rejected(self):
        catalog = CampaignCatalog("c")
        catalog.add("r", {}, {})
        with pytest.raises(ValueError, match="duplicate run_id"):
            catalog.add("r", {}, {})

    def test_metric_names_union(self):
        catalog = CampaignCatalog("c")
        catalog.add("a", {}, {"m1": 1})
        catalog.add("b", {}, {"m2": 2})
        assert catalog.metric_names() == {"m1", "m2"}
