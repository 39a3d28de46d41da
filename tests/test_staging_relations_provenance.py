"""Tests for data staging, model relations, provenance capture, and the
GTF2/PSL annotation formats."""

import pytest

from repro.cluster.filesystem import ParallelFilesystem
from repro.cluster.staging import StagingArea, StagingSpec


class TestStaging:
    def backing(self, bandwidth=1e9):
        return ParallelFilesystem(peak_bandwidth=bandwidth, load_model=None)

    def test_ingest_faster_than_direct_write(self):
        fs = self.backing(bandwidth=1e9)
        staged = StagingArea(self.backing(bandwidth=1e9), StagingSpec(ingest_bandwidth=1e10))
        direct = fs.write_time(int(5e9), now=0.0)
        buffered = staged.write_time(int(5e9), now=0.0)
        assert buffered < direct / 5

    def test_buffer_drains_over_time(self):
        staged = StagingArea(self.backing(bandwidth=1e9), StagingSpec(capacity_bytes=1e10))
        staged.write_time(int(4e9), now=0.0)
        assert staged.buffered_bytes(1.0) == pytest.approx(3e9)
        assert staged.buffered_bytes(10.0) == 0.0

    def test_overflow_stalls_application(self):
        spec = StagingSpec(ingest_bandwidth=1e12, capacity_bytes=1e9)
        staged = StagingArea(self.backing(bandwidth=1e8), spec)
        first = staged.write_time(int(1e9), now=0.0)  # fills the buffer
        second = staged.write_time(int(1e9), now=0.0)  # must wait for drain
        assert second > first
        assert second >= 1e9 / 1e8 * 0.99  # ~ the drain time of the overflow

    def test_duck_types_for_checkpoint_middleware(self):
        from repro.apps.simulation.checkpoint import CheckpointMiddleware, FixedIntervalPolicy

        staged = StagingArea(self.backing())
        mw = CheckpointMiddleware(staged, FixedIntervalPolicy(1), checkpoint_bytes=int(1e9))
        io = mw.end_of_timestep(10.0, now=10.0)
        assert io > 0
        assert mw.stats.checkpoints_written == 1

    def test_staging_raises_checkpoint_count_at_fixed_budget(self):
        """Extension claim: cheaper visible writes -> more checkpoints in
        the same overhead budget."""
        from repro.apps.simulation.checkpoint import CheckpointMiddleware, OverheadBudgetPolicy

        def run(filesystem):
            mw = CheckpointMiddleware(
                filesystem, OverheadBudgetPolicy(0.10), checkpoint_bytes=int(1e12)
            )
            clock = 0.0
            for _ in range(50):
                clock += 30.0
                clock += mw.end_of_timestep(30.0, now=clock)
            return mw.stats.checkpoints_written

        direct = run(ParallelFilesystem(peak_bandwidth=5e10, load_model=None))
        staged = run(
            StagingArea(
                ParallelFilesystem(peak_bandwidth=5e10, load_model=None),
                StagingSpec(ingest_bandwidth=5e11, capacity_bytes=5e12),
            )
        )
        assert staged > direct

    def test_reads_bypass_staging(self):
        backing = self.backing(bandwidth=1e9)
        staged = StagingArea(backing, StagingSpec(ingest_bandwidth=1e12))
        assert staged.read_time(int(1e9), 0.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StagingSpec(ingest_bandwidth=0)
        with pytest.raises(ValueError):
            StagingArea(self.backing()).write_time(-1, 0.0)


class TestModelRelations:
    def model(self, **overrides):
        from repro.skel.library import paste_model_schema
        from repro.skel.model import SkelModel

        values = {
            "dataset_dir": "/d",
            "file_pattern": "*.tsv",
            "output_file": "out.tsv",
            "num_files": 100,
            "group_size": 10,
            "machine_name": "m",
            "account": "a",
        }
        values.update(overrides)
        return SkelModel(paste_model_schema(), values)

    def test_valid_model_passes(self):
        from repro.skel.relations import check_relations, paste_relations

        assert check_relations(self.model(), paste_relations()) == []

    def test_group_larger_than_dataset_caught(self):
        from repro.skel.relations import check_relations, paste_relations

        violations = check_relations(
            self.model(num_files=5, group_size=10), paste_relations()
        )
        names = {v.relation.name for v in violations}
        assert "group-fits-dataset" in names

    def test_enforce_raises_with_readable_message(self):
        from repro.skel.model import ModelValidationError
        from repro.skel.relations import enforce_relations, paste_relations

        with pytest.raises(ModelValidationError, match="fan-in"):
            enforce_relations(self.model(num_files=5000, group_size=2000), paste_relations())

    def test_single_strategy_skips_two_phase_rule(self):
        from repro.skel.relations import check_relations, paste_relations

        model = self.model(num_files=10, group_size=10, strategy="single")
        names = {v.relation.name for v in check_relations(model, paste_relations())}
        assert "two-phase-needs-groups" not in names

    def test_missing_variable_raises(self):
        from repro.skel.relations import ModelRelation

        relation = ModelRelation("r", ("ghost",), lambda v: True, "m")
        with pytest.raises(KeyError, match="ghost"):
            relation.holds({"other": 1})

    def test_relation_validation(self):
        from repro.skel.relations import ModelRelation

        with pytest.raises(ValueError):
            ModelRelation("r", (), lambda v: True, "m")
        with pytest.raises(ValueError):
            ModelRelation("r", ("a",), "not-callable", "m")


class TestProvenanceCapture:
    def run_campaign(self):
        """Run four tasks (one straggler) on a recorded cluster; its events."""
        from conftest import make_cluster

        from repro.cluster.job import Task
        from repro.observability import TraceRecorder
        from repro.savanna import PilotExecutor

        tasks = [
            Task(name=f"t{i}", duration=d, payload={"i": i})
            for i, d in enumerate([10, 10, 10, 300])  # one straggler
        ]
        cluster = make_cluster(nodes=2)
        recorder = TraceRecorder().attach(cluster.bus)
        PilotExecutor(cluster).run(tasks, nodes=2, walltime=5000.0)
        recorder.detach()
        return recorder.events

    def test_records_every_attempt_with_campaign(self):
        from repro.metadata.provenance import CampaignContext
        from repro.observability import provenance_store_from_trace

        store = provenance_store_from_trace(
            self.run_campaign(), context=CampaignContext("cap", "test")
        )
        summary = store.summarize_campaign("cap")
        assert summary["runs"] == 4
        assert summary["outcomes"] == {"done": 4}
        record = store.query(component="t2")[0]
        assert record.parameters == {"i": 2}

    def test_idempotent_campaign_registration(self):
        from repro.metadata.provenance import CampaignContext
        from repro.observability import provenance_store_from_trace

        ctx = CampaignContext("cap", "test")
        store = provenance_store_from_trace(self.run_campaign(), context=ctx)
        # Same campaign name again: no raise, records accumulate.
        provenance_store_from_trace(self.run_campaign(), context=ctx, store=store)
        assert len(store.query(campaign="cap")) == 8

    def test_straggler_report_finds_the_long_run(self):
        from repro.observability.analysis import analyze_events

        (report,) = analyze_events(self.run_campaign())
        assert [s["task"] for s in report.stragglers] == ["t3"]

    def test_straggler_report_empty_campaign(self):
        from repro.observability import EventBus
        from repro.observability.analysis import analyze_events

        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        with bus.span("campaign", campaign="empty"):
            pass
        (report,) = analyze_events(events)
        assert report.stragglers == []


class TestGtf2Psl:
    from repro.apps.gwas.formats import AnnotationRecord

    RECORDS = [
        AnnotationRecord("chr1", 10, 20, "geneA", 5.0, "+"),
        AnnotationRecord("chr2", 0, 7, "geneB", 3.0, "-"),
    ]

    def test_gtf2_roundtrip(self):
        from repro.apps.gwas.formats import parse_gtf2, to_gtf2

        assert parse_gtf2(to_gtf2(self.RECORDS)) == self.RECORDS

    def test_gtf2_attribute_grammar(self):
        from repro.apps.gwas.formats import to_gtf2

        line = to_gtf2(self.RECORDS[:1]).splitlines()[0]
        assert 'gene_id "geneA";' in line

    def test_psl_roundtrip_for_stranded_records(self):
        from repro.apps.gwas.formats import parse_psl, to_psl

        assert parse_psl(to_psl(self.RECORDS)) == self.RECORDS

    def test_psl_21_columns(self):
        from repro.apps.gwas.formats import to_psl

        line = to_psl(self.RECORDS[:1]).splitlines()[0]
        assert len(line.split("\t")) == 21

    def test_psl_coordinates_are_zero_based(self):
        from repro.apps.gwas.formats import to_psl

        cols = to_psl(self.RECORDS[:1]).splitlines()[0].split("\t")
        assert (cols[15], cols[16]) == ("10", "20")

    def test_registry_reaches_new_formats(self):
        from repro.apps.gwas.formats import annotation_registry, parse_gtf2, to_bed

        reg = annotation_registry()
        gtf = reg.convert(to_bed(self.RECORDS), "bed", "gtf2")
        assert parse_gtf2(gtf) == self.RECORDS
        assert reg.can_convert("psl", "custom")

    def test_malformed_lines_rejected(self):
        from repro.apps.gwas.formats import parse_gtf2, parse_psl

        with pytest.raises(ValueError, match="GTF2 line"):
            parse_gtf2("too\tfew\n")
        with pytest.raises(ValueError, match="PSL line"):
            parse_psl("1\t2\t3\n")
