"""The manifest's run table against its per-``RunSpec`` oracles.

- ``manifest_to_json`` writes, byte for byte, what ``json.dumps`` of one
  dict per run writes (``_manifest_oracle.manifest_to_json``), and
  ``manifest_from_json`` reads it back into the same table;
- the column lint rules (FAIR001, 002, 003, 005, 006) find what the
  per-``RunSpec`` bodies find: the same rule ids, messages, locations
  and order;

over the drawn campaigns and hand-built run tuples of ``_campaigns``.
Then the table itself: views, read-only parameters shared with the
simulated tasks, ``take``, widths that must be whole numbers of nodes,
and unique group names.
"""

from __future__ import annotations

import copy
import enum
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

import _manifest_oracle as oracle
from _campaigns import campaigns, run_tuples
from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cheetah.manifest import (
    CampaignManifest,
    RunSpec,
    RunTable,
    manifest_from_json,
    manifest_to_json,
)
from repro.cluster import ClusterSpec
from repro.lint import REGISTRY, lint_manifest
from repro.lint.context import LintContext
from repro.lint.rules import FunctionRule
from repro.resilience import CampaignCheckpoint
from repro.savanna import execute_manifest
from repro.savanna.executor import tasks_from_manifest

SPEC = ClusterSpec(nodes=4, queue_sigma=0.0, queue_median_wait=10.0, node_mttf=None, fs_load=None)


def check_against_oracle(manifest) -> None:
    text = manifest_to_json(manifest)
    assert text == oracle.manifest_to_json(manifest)
    loaded = manifest_from_json(text)
    assert manifest_to_json(loaded) == text
    assert loaded.runs.ids == manifest.runs.ids
    assert loaded.runs.widths == manifest.runs.widths
    assert [r.group for r in loaded.runs] == [r.group for r in manifest.runs]

    ctx = LintContext(subject_name="c", cluster_spec=SPEC)
    for rule_id, body in oracle.RULES.items():
        rule = REGISTRY.get(rule_id)
        expected = FunctionRule(
            rule_id, rule.severity, rule.target, rule.title, rule.rationale, body
        )
        assert list(rule.check(manifest, ctx)) == list(expected.check(manifest, ctx))
    assert lint_manifest(manifest, cluster=SPEC) == oracle.lint_manifest(manifest, SPEC)


@settings(max_examples=150, deadline=None)
@given(camp=campaigns())
def test_drawn_campaigns_match_the_oracles(camp):
    check_against_oracle(camp.to_manifest())


@settings(max_examples=150, deadline=None)
@given(manifest=run_tuples())
def test_hand_built_runs_match_the_oracles(manifest):
    check_against_oracle(manifest)


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


class Fraction(float):
    pass


def hand_built(*parameter_dicts, groups=({"name": "g", "nodes": 2, "walltime": 1.0},)):
    return CampaignManifest(
        campaign="spell",
        app="app",
        runs=[
            RunSpec(f"g/run-{i}", "g", parameters, nodes=1 + i % 2)
            for i, parameters in enumerate(parameter_dicts)
        ],
        groups=groups,
        metadata={"z": 1, "a": [2.5, None]},
    )


def test_every_value_is_spelled_as_json_dumps_spells_it():
    manifest = hand_built(
        {"b": True, "a": 1, "c": False},
        {"b": 2, "a": 1.0, "c": None},
        {"b": Colour.RED, "a": Fraction(0.1), "c": Label("é\"\\")},
        {"b": float("nan"), "a": float("inf"), "c": -float("inf")},
        {"b": -0.0, "a": 1e16, "c": "☃\n\x01"},
        {"b": [1, {"z": 1, "a": (2, 3)}], "a": {"y": 1, "x": [None]}, "c": {1: "int key"}},
        {"b": 10**30, "a": 2.5e-300, "c": ""},
    )
    check_against_oracle(manifest)


def test_names_that_are_not_strings_fall_back_to_the_encoder():
    check_against_oracle(hand_built({1: "a"}, {2.5: "b", 1: 1}, {True: 0}))
    check_against_oracle(hand_built({None: 2}))
    mixed = hand_built({1: "a", "b": 2})
    with pytest.raises(TypeError):
        oracle.manifest_to_json(mixed)
    with pytest.raises(TypeError):
        manifest_to_json(mixed)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", np.int64(3)])
def test_an_unencodable_value_still_raises_type_error(value):
    manifest = hand_built({"x": 1}, {"x": value})
    with pytest.raises(TypeError):
        oracle.manifest_to_json(manifest)
    with pytest.raises(TypeError):
        manifest_to_json(manifest)


def test_an_empty_campaign_spells_as_json_dumps_spells_it():
    check_against_oracle(CampaignManifest(campaign="c", app="a", runs=()))
    check_against_oracle(hand_built({}, {}))


# -- the table -----------------------------------------------------------------


def sweep_manifest(xs=range(4), modes=("a", "b")):
    camp = Campaign("t", app=AppSpec("app", nodes_per_run=2))
    group = camp.sweep_group("g", nodes=4, walltime=60.0)
    group.add(Sweep([SweepParameter("x", xs)]))
    group.add(Sweep([SweepParameter("x", xs), SweepParameter("mode", modes)]))
    camp.sweep_group("h", nodes=2, walltime=60.0).add(Sweep([SweepParameter("y", [0.5])]))
    return camp.to_manifest()


def test_the_table_is_a_sequence_of_run_spec_views():
    manifest = sweep_manifest()
    table = manifest.runs
    assert isinstance(table, RunTable) and len(table) == 13
    assert [seg.names for seg in table.segments] == [("x",), ("x", "mode"), ("y",)]
    assert table[0] == RunSpec("g/run-0000", "g", {"x": 0}, nodes=2)
    assert table[-1] == RunSpec("h/run-0000", "h", {"y": 0.5}, nodes=2)
    assert table[4:6] == (
        RunSpec("g/run-0004", "g", {"x": 0, "mode": "a"}, nodes=2),
        RunSpec("g/run-0005", "g", {"x": 0, "mode": "b"}, nodes=2),
    )
    assert list(table) == list(table[:])
    assert table == tuple(table) and table != list(table)
    assert table[7] in table and table.index(table[7]) == 7
    assert [r.run_id for r in manifest.runs_in_group("h")] == ["h/run-0000"]
    assert table.rows_of("g") == list(range(12)) and table.rows_of("nope") == []
    with pytest.raises(AttributeError):
        table.ids = ()


def test_a_run_tuple_becomes_a_table_that_keeps_its_specs():
    runs = (RunSpec("a", "g", {"x": 1}), RunSpec("b", "g", {"x": 2}, nodes=3))
    manifest = CampaignManifest(campaign="c", app="a", runs=runs)
    assert manifest.runs[1] is runs[1]
    assert manifest.runs.parameters[0] is runs[0].parameters
    assert manifest.runs.widths == (1, 3)
    with pytest.raises(ValueError, match="duplicate run_ids"):
        CampaignManifest(campaign="c", app="a", runs=runs + (RunSpec("a", "h", {}),))
    with pytest.raises(TypeError, match="RunSpecs"):
        RunTable([{"run_id": "a"}])


def test_parameters_are_read_only_and_behave_as_a_dict():
    manifest = sweep_manifest()
    parameters = manifest.runs[5].parameters
    for edit in (
        lambda p: p.__setitem__("x", 9),
        lambda p: p.__delitem__("x"),
        lambda p: p.update(x=9),
        lambda p: p.pop("x"),
        lambda p: p.popitem(),
        lambda p: p.setdefault("z", 1),
        lambda p: p.clear(),
        lambda p: p.__ior__({"x": 9}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            edit(parameters)
    assert parameters == {"x": 0, "mode": "b"}
    assert f"{parameters}" == "{'x': 0, 'mode': 'b'}"
    assert json.dumps(parameters) == '{"x": 0, "mode": "b"}'
    mutable = dict(parameters)
    mutable["x"] = 9
    assert type(parameters.copy()) is dict and (parameters | {"x": 9}) == mutable
    assert pickle.loads(pickle.dumps(manifest)) == manifest
    assert copy.deepcopy(manifest.runs[5]) == manifest.runs[5]
    source = {"x": 1}
    run = RunSpec("r", "g", source)
    source["x"] = 2
    assert run.parameters == {"x": 1}


def test_tasks_share_each_rows_parameters():
    manifest = sweep_manifest()
    tasks = tasks_from_manifest(manifest, lambda p: 1.0 + p.get("x", 0))
    assert [t.name for t in tasks] == list(manifest.runs.ids)
    assert [t.nodes for t in tasks] == [2] * 13
    assert all(t.payload is p for t, p in zip(tasks, manifest.runs.parameters))
    assert manifest.runs[3].parameters is tasks[3].payload
    with pytest.raises(ValueError, match="duration model returned 0.0 for run 'g/run-0001'"):
        tasks_from_manifest(manifest, lambda p: 1.0 - p.get("x", 0))


def test_take_narrows_to_rows_and_shares_them():
    table = sweep_manifest().runs
    assert table.take(range(len(table))) is table
    taken = table.take([1, 5, 6, 12])
    assert list(taken) == [table[1], table[5], table[6], table[12]]
    assert [seg.names for seg in taken.segments] == [("x",), ("x", "mode"), ("y",)]
    assert [(s.start, s.stop) for s in taken.segments] == [(0, 1), (1, 3), (3, 4)]
    assert taken.parameters[1] is table.parameters[5]
    assert taken[2].parameters is table[6].parameters
    assert len(table.take([])) == 0
    for rows in ([3, 3], [4, 2], [-1], [13]):
        with pytest.raises(ValueError, match="ascending"):
            table.take(rows)


# -- widths --------------------------------------------------------------------


def interop(nodes) -> str:
    doc = json.loads(manifest_to_json(sweep_manifest()))
    doc["runs"][2]["nodes"] = nodes
    return json.dumps(doc)


@pytest.mark.parametrize("nodes", [2.5, True, "3", 0, 2.0])
def test_a_width_that_is_not_a_whole_number_of_nodes_names_its_run(nodes):
    with pytest.raises(ValueError, match=r"run 'g/run-0002': nodes must be a whole number"):
        manifest_from_json(interop(nodes))


@pytest.mark.parametrize("nodes", [1.5, True, "3", 0, None])
def test_a_run_spec_refuses_a_width_that_is_not_a_whole_number(nodes):
    with pytest.raises(ValueError, match="nodes must be a whole number"):
        RunSpec("r", "g", {}, nodes=nodes)


def test_numpy_integers_are_widths():
    run = RunSpec("r", "g", {}, nodes=np.int64(3))
    assert run.nodes == 3 and type(run.nodes) is int
    assert manifest_from_json(interop(3)).runs.widths[2] == 3
    camp = Campaign("t", app=AppSpec("app", nodes_per_run=np.int32(2)))
    camp.sweep_group("g", nodes=4, walltime=1.0).add(Sweep([SweepParameter("x", [1])]))
    assert camp.to_manifest().runs.widths == (2,)
    with pytest.raises(ValueError, match="nodes_per_run must be a whole number"):
        AppSpec("app", nodes_per_run=1.5)


@pytest.mark.parametrize("nodes", [1.5, True, "2", 0])
def test_an_app_spec_refuses_a_width_that_is_not_a_whole_number(nodes):
    with pytest.raises(ValueError, match=f"nodes_per_run must be a whole number >= 1, got {nodes!r}"):
        AppSpec("app", nodes_per_run=nodes)


def test_an_app_spec_takes_a_numpy_integer_width_as_its_int():
    app = AppSpec("app", nodes_per_run=np.int64(2))
    assert app.nodes_per_run == 2 and type(app.nodes_per_run) is int


# -- groups --------------------------------------------------------------------


def test_a_manifest_that_names_a_group_twice_is_refused():
    doc = json.loads(manifest_to_json(sweep_manifest()))
    doc["groups"].append(dict(doc["groups"][0]))
    with pytest.raises(ValueError, match="duplicate group 'g' in manifest"):
        manifest_from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="duplicate group 'h'"):
        CampaignManifest(campaign="c", app="a", runs=(), groups=({"name": "h"}, {"name": "h"}))


# -- the pending set -----------------------------------------------------------


def test_resume_keeps_the_status_checks(tmp_path):
    from conftest import make_cluster

    manifest = sweep_manifest(xs=range(2), modes=("a",))
    directory = CampaignDirectory(tmp_path, manifest)
    directory.create()
    path = directory._status_path()
    assert not path.exists()  # every run PENDING until the first status write
    record = dict.fromkeys(manifest.runs.ids, "pending")
    done = {"g/run-0000", "g/run-0002"}
    path.write_text(json.dumps({r: "done" if r in done else s for r, s in record.items()}))
    assert CampaignCheckpoint(directory).effective_status()["g/run-0000"] is RunStatus.DONE

    def drive():
        return execute_manifest(
            manifest, lambda p: 5.0, make_cluster(), group="g", directory=directory, resume=True
        )

    assert sorted(t.name for t in drive().tasks) == ["g/run-0001", "g/run-0003"]
    path.write_text(json.dumps(dict(record, **{"g/run-0001": "finished"})))
    with pytest.raises(ValueError, match="'finished' is not a valid RunStatus"):
        drive()
    del record["g/run-0003"]
    path.write_text(json.dumps(record))
    with pytest.raises(KeyError, match="g/run-0003"):
        drive()
