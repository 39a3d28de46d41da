"""The ``python -m repro.lint`` CLI and the engine's path/dispatch faces."""

from __future__ import annotations

import json

import pytest

from repro.cheetah import (
    AppSpec,
    Campaign,
    CampaignDirectory,
    Sweep,
    SweepParameter,
)
from repro.cheetah.manifest import manifest_to_json
from repro.lint import lint, lint_path, suppressions_of
from repro.lint.__main__ import main


def compose(metadata=None, values=(1, 2)):
    campaign = Campaign(
        "demo",
        app=AppSpec("app", executable="run --x ${x}"),
        metadata=metadata,
    )
    campaign.sweep_group("g", nodes=4, walltime=600.0).add(
        Sweep([SweepParameter("x", list(values))])
    )
    return campaign


@pytest.fixture
def clean_campaign_dir(tmp_path):
    directory = CampaignDirectory(tmp_path, compose().to_manifest())
    directory.create()
    return directory.root


class TestCli:
    def test_clean_campaign_exits_zero(self, clean_campaign_dir, capsys):
        assert main([str(clean_campaign_dir)]) == 0
        assert "0 error" in capsys.readouterr().out

    def test_fail_on_warn_tightens_the_gate(self, tmp_path, capsys):
        source = tmp_path / "script.py"
        source.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main([str(source)]) == 0  # FAIR303 is a warning
        assert main([str(source), "--fail-on", "warn"]) == 1
        assert "FAIR303" in capsys.readouterr().out

    def test_suppress_flag(self, tmp_path):
        source = tmp_path / "script.py"
        source.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main([str(source), "--fail-on", "warn",
                     "--suppress", "FAIR303"]) == 0

    def test_json_format(self, tmp_path, capsys):
        source = tmp_path / "script.py"
        source.write_text("x = 1\n")
        assert main([str(source), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"] == []

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "FAIR001" in out and "FAIR900" in out

    def test_no_paths_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["/no/such/path"])
        assert exc.value.code == 2

    def test_manifest_json_file(self, tmp_path, capsys):
        bad = compose(values=(1,)).to_manifest()  # single-value param: info only
        path = tmp_path / "manifest.json"
        path.write_text(manifest_to_json(bad))
        assert main([str(path)]) == 0

    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
    def test_long_manifest_json_file_gets_the_manifest_rules(self, tmp_path, capsys, indent):
        # Sorted keys put schema_version after the runs list: 40 runs
        # push it far past the head of the file in either spelling.
        duplicates = compose(values=(1,) * 40).to_manifest()  # FAIR002 errors
        path = tmp_path / "manifest.json"
        doc = json.loads(manifest_to_json(duplicates))
        path.write_text(json.dumps(doc, indent=indent, sort_keys=True))
        assert len(doc["runs"]) == 40
        assert main([str(path)]) == 1
        assert "FAIR002" in capsys.readouterr().out


class TestSuppressionMetadata:
    def test_campaign_metadata_reaches_the_report(self):
        campaign = compose(metadata={"lint": {"suppress": ["FAIR009"]}},
                           values=(1,))
        report = lint(campaign)
        assert "FAIR009" not in report.rule_ids()
        assert [f.rule_id for f in report.suppressed] == ["FAIR009"]

    def test_suppressions_travel_through_manifest_json(self, tmp_path):
        campaign = compose(metadata={"lint": {"suppress": ["FAIR009"]}},
                           values=(1,))
        directory = CampaignDirectory(tmp_path, campaign.to_manifest())
        directory.create()
        report = lint_path(directory.root)
        assert suppressions_of(directory.manifest) == frozenset({"FAIR009"})
        assert "FAIR009" not in report.rule_ids()

    def test_unknown_suppression_flagged(self):
        campaign = compose(metadata={"lint": {"suppress": ["FAIR999"]}})
        report = lint(campaign)
        assert "FAIR900" in report.rule_ids()


class TestDispatch:
    def test_lint_rejects_unknown_subjects(self):
        with pytest.raises(TypeError, match="cannot lint"):
            lint(42)

    def test_lint_accepts_path_strings(self, clean_campaign_dir):
        assert not lint(str(clean_campaign_dir)).errors

    def test_tree_walk_finds_nested_campaigns(self, tmp_path):
        campaign = compose(values=(1, 1))  # duplicate sweep point: FAIR002
        directory = CampaignDirectory(tmp_path / "nested", campaign.to_manifest())
        directory.create()
        (tmp_path / "loose.py").write_text("def f():\n    return 1\n")
        report = lint_path(tmp_path)
        assert "FAIR002" in report.rule_ids()
