"""The savanna.drive pre-run lint gate and the shared directory resolver."""

from __future__ import annotations

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, resolve_campaign_dir
from repro.cheetah.manifest import CampaignManifest, RunSpec, manifest_from_json, manifest_to_json
from repro.lint import CampaignLintError
from repro.observability import CAMPAIGN_LINTED
from repro.savanna import execute_campaign, execute_manifest

import lint_fixture_apps as fixture_apps
from conftest import make_cluster


def make_manifest(n=6, nodes=4, walltime=300.0, metadata=None):
    camp = Campaign("drive", app=AppSpec("app"), metadata=metadata)
    sg = camp.sweep_group("g", nodes=nodes, walltime=walltime)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    return camp.to_manifest()


def broken_manifest():
    """One run demanding more nodes than its group envelope (FAIR003)."""
    return CampaignManifest(
        campaign="broken", app="app",
        runs=(RunSpec(run_id="g/run-0000", group="g",
                      parameters={"x": 0}, nodes=64),),
        groups=({"name": "g", "nodes": 4, "walltime": 300.0},),
    )


class TestPreRunGate:
    def test_refuses_campaign_with_errors(self):
        with pytest.raises(CampaignLintError, match="FAIR003"):
            execute_manifest(broken_manifest(), lambda p: 10.0, make_cluster())

    def test_error_carries_the_report(self):
        with pytest.raises(CampaignLintError) as exc:
            execute_manifest(broken_manifest(), lambda p: 10.0, make_cluster())
        assert exc.value.campaign == "broken"
        assert "FAIR003" in exc.value.report.rule_ids()

    def test_lint_false_overrides(self):
        # The analyzer objects, but an explicit opt-out still executes
        # (the run starves at the scheduler, which is the user's problem).
        cluster = make_cluster(nodes=4)
        result = execute_manifest(
            broken_manifest(), lambda p: 10.0, cluster,
            lint=False, max_allocations=1,
        )
        assert not result.all_done

    def test_execute_campaign_gates_too(self):
        with pytest.raises(CampaignLintError):
            execute_campaign(broken_manifest(), lambda p: 10.0, make_cluster())

    @pytest.mark.parametrize("backend", ["pilot", "local-threads"])
    def test_execute_campaign_persists_the_verdict(self, tmp_path, backend):
        if backend == "pilot":
            drive = dict(duration_model=lambda p: 10.0, cluster=make_cluster(nodes=4))
        else:
            drive = dict(app_fn=fixture_apps.clean)
        execute_campaign(make_manifest(), backend=backend, directory=tmp_path, **drive)
        directory = CampaignDirectory.open(tmp_path / "drive")
        assert directory.read_lint_report() is not None

    def test_cluster_oversubscription_caught(self):
        # FAIR004 needs the cluster model: a 100-node group on 4 nodes.
        manifest = make_manifest(nodes=100)
        with pytest.raises(CampaignLintError, match="FAIR004"):
            execute_manifest(manifest, lambda p: 10.0, make_cluster(nodes=4))

    def test_clean_campaign_executes_and_emits_event(self):
        cluster = make_cluster(nodes=4)
        seen = []
        cluster.bus.subscribe(seen.append)
        result = execute_manifest(manifest := make_manifest(), lambda p: 10.0,
                                  cluster)
        assert result.all_done
        linted = [e for e in seen if e.name == CAMPAIGN_LINTED]
        assert len(linted) == 1
        assert linted[0].fields == {
            "campaign": manifest.campaign, "errors": 0, "warnings": 0,
            "infos": 0, "suppressed": 0,
        }

    def test_metadata_suppression_unblocks_execution(self):
        # Suppressing the failing rule via campaign metadata lets the
        # same campaign through the gate — and the decision is recorded
        # in the manifest, not in the invocation.
        manifest = CampaignManifest(
            campaign="broken", app="app",
            runs=broken_manifest().runs, groups=broken_manifest().groups,
            metadata={"lint": {"suppress": ["FAIR003"]}},
        )
        cluster = make_cluster(nodes=4)
        seen = []
        cluster.bus.subscribe(seen.append)
        result = execute_manifest(manifest, lambda p: 10.0, cluster,
                                  max_allocations=1)
        assert not result.all_done  # still starves; but the gate opened
        linted = [e for e in seen if e.name == CAMPAIGN_LINTED]
        assert linted[0].fields["suppressed"] == 1

    def test_directory_accepts_plain_path(self, tmp_path):
        manifest = make_manifest()
        result = execute_manifest(
            manifest, lambda p: 10.0, make_cluster(nodes=4),
            directory=tmp_path,
        )
        assert result.all_done
        directory = CampaignDirectory.open(tmp_path / manifest.campaign)
        assert directory.summary()["done"] == 6


class TestResolveCampaignDir:
    def test_creates_then_reopens(self, tmp_path):
        manifest = make_manifest()
        created = resolve_campaign_dir(tmp_path, manifest, create=True)
        assert created.root == tmp_path / "drive"
        reopened = resolve_campaign_dir(tmp_path, manifest)
        assert reopened.root == created.root

    def test_accepts_campaign_root_itself(self, tmp_path):
        manifest = make_manifest()
        created = resolve_campaign_dir(tmp_path, manifest, create=True)
        direct = resolve_campaign_dir(created.root)
        assert direct.manifest.campaign == "drive"

    def test_rejects_mismatched_campaign(self, tmp_path):
        created = resolve_campaign_dir(tmp_path, make_manifest(), create=True)
        other = CampaignManifest(campaign="other", app="app",
                                 runs=(), groups=())
        with pytest.raises(ValueError, match="other"):
            resolve_campaign_dir(created.root, other)

    def test_missing_without_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_campaign_dir(tmp_path / "nowhere")


class TestMetadataRoundTrip:
    def test_metadata_survives_json(self):
        manifest = make_manifest(metadata={"lint": {"suppress": ["FAIR005"]},
                                           "owner": "me"})
        back = manifest_from_json(manifest_to_json(manifest))
        assert back.metadata == {"lint": {"suppress": ["FAIR005"]},
                                 "owner": "me"}

    def test_absent_metadata_defaults_empty(self):
        back = manifest_from_json(manifest_to_json(make_manifest()))
        assert back.metadata == {}
