"""Tests for research-object export/load and provenance serialization."""

import json

from repro.cheetah import AppSpec, Campaign, CampaignCatalog, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.metadata.provenance import (
    ExportClass,
    ExportPolicy,
    ProvenanceRecord,
    ProvenanceStore,
)
from repro.research import export_research_object, load_research_object
from repro.resilience.checkpoint import CampaignCheckpoint


def build_study(tmp_path):
    camp = Campaign("study", app=AppSpec("app"), objective="test objective")
    sg = camp.sweep_group("g", nodes=2, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", [1, 2, 3])]))
    manifest = camp.to_manifest()
    directory = CampaignDirectory(tmp_path / "campaign", manifest)
    directory.create()
    directory.update_status(
        {"g/run-0000": RunStatus.DONE, "g/run-0001": RunStatus.DONE}
    )
    store = ProvenanceStore()
    store.register_campaign(camp.context())
    for i, export in enumerate(
        (ExportClass.PUBLIC, ExportClass.PUBLIC, ExportClass.PRIVATE)
    ):
        store.add(
            ProvenanceRecord(
                component=f"g/run-{i:04d}",
                start_time=0.0,
                end_time=10.0 + i,
                campaign="study",
                export_class=export,
                environment={"USER": "alice", "THREADS": "4"},
                parameters={"x": i + 1},
            )
        )
    catalog = CampaignCatalog("study")
    for i in range(3):
        catalog.add(f"g/run-{i:04d}", {"x": i + 1}, {"runtime": 10.0 + i})
    return directory, store, catalog


class TestProvenanceSerialization:
    def test_dict_roundtrip(self):
        record = ProvenanceRecord(
            component="c",
            start_time=1.0,
            end_time=2.0,
            parameters={"x": 1},
            export_class=ExportClass.PUBLIC,
        )
        again = ProvenanceRecord.from_dict(record.to_dict())
        assert again.component == record.component
        assert again.parameters == record.parameters
        assert again.export_class is ExportClass.PUBLIC

    def test_dict_is_json_safe(self):
        record = ProvenanceRecord(component="c", start_time=0.0, end_time=1.0)
        json.dumps(record.to_dict())


class TestExport:
    def test_bundle_contents(self, tmp_path):
        directory, store, catalog = build_study(tmp_path)
        dest = export_research_object(tmp_path / "object", directory, store, catalog)
        for name in ("OBJECT.md", "manifest.json", "status.json",
                     "provenance.json", "catalog.json"):
            assert (dest / name).exists(), name

    def test_status_includes_journaled_transitions(self, tmp_path):
        """The exported status is the one resume trusts: the compacted
        record overlaid with the journal, not the compacted record alone."""
        directory, store, catalog = build_study(tmp_path)
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0002", RunStatus.DONE)
        dest = export_research_object(tmp_path / "object", directory, store, catalog)
        status = json.loads((dest / "status.json").read_text())
        assert status == {r: s.value for r, s in checkpoint.effective_status().items()}
        assert status["g/run-0002"] == "done"
        assert "- runs: 3 (3 done)" in (dest / "OBJECT.md").read_text()

    def test_export_policy_filters_and_redacts(self, tmp_path):
        directory, store, catalog = build_study(tmp_path)
        dest = export_research_object(tmp_path / "object", directory, store, catalog)
        records = json.loads((dest / "provenance.json").read_text())
        assert len(records) == 2  # the PRIVATE record stayed home
        for r in records:
            assert "USER" not in r["environment"]  # redacted
            assert r["environment"]["THREADS"] == "4"

    def test_object_md_summarizes(self, tmp_path):
        directory, store, catalog = build_study(tmp_path)
        dest = export_research_object(tmp_path / "object", directory, store, catalog)
        text = (dest / "OBJECT.md").read_text()
        assert "Research object: study" in text
        assert "3 runs" in text or "runs: 3" in text
        assert "2 exported records" in text
        assert "1 withheld" in text

    def test_minimal_object_without_store_or_catalog(self, tmp_path):
        directory, _store, _catalog = build_study(tmp_path)
        dest = export_research_object(tmp_path / "min", directory)
        assert not (dest / "provenance.json").exists()
        assert not (dest / "catalog.json").exists()
        assert (dest / "manifest.json").exists()

    def test_custom_policy_respected(self, tmp_path):
        directory, store, catalog = build_study(tmp_path)
        policy = ExportPolicy(include=frozenset({ExportClass.PUBLIC, ExportClass.PRIVATE}))
        dest = export_research_object(
            tmp_path / "object", directory, store, catalog, policy=policy
        )
        records = json.loads((dest / "provenance.json").read_text())
        assert len(records) == 3


class TestLoad:
    def test_roundtrip(self, tmp_path):
        directory, store, catalog = build_study(tmp_path)
        dest = export_research_object(tmp_path / "object", directory, store, catalog)
        loaded = load_research_object(dest)
        assert loaded["manifest"] == directory.manifest
        assert loaded["status"]["g/run-0000"] == "done"
        assert len(loaded["provenance"]) == 2
        assert len(loaded["catalog"]) == 3

    def test_loaded_manifest_is_executable(self, tmp_path):
        """The reuse promise: a stranger re-runs the pending set from the
        bundle alone."""
        from conftest import make_cluster

        from repro.savanna import PilotExecutor, tasks_from_manifest

        directory, store, catalog = build_study(tmp_path)
        dest = export_research_object(tmp_path / "object", directory, store, catalog)
        loaded = load_research_object(dest)
        pending_ids = {
            run_id for run_id, s in loaded["status"].items() if s != "done"
        }
        runs = [r for r in loaded["manifest"].runs if r.run_id in pending_ids]
        assert len(runs) == 1
        from repro.cheetah.manifest import CampaignManifest

        sub = CampaignManifest(
            campaign=loaded["manifest"].campaign,
            app=loaded["manifest"].app,
            runs=tuple(runs),
            groups=loaded["manifest"].groups,
        )
        tasks = tasks_from_manifest(sub, lambda p: 10.0)
        result = PilotExecutor(make_cluster(nodes=2)).run(tasks, nodes=2, walltime=60.0)
        assert result.all_done
