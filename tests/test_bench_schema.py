"""The benchmark-artifact checker accepts every committed ``BENCH_*.json``
and rejects a document that breaks one of its acceptance rules (see
``tools/check_bench_schema.py``)."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_bench_schema.py"
RESULTS = REPO_ROOT / "benchmarks" / "results"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_bench_schema", CHECKER)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_bench_schema", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def committed(name: str) -> dict:
    return json.loads((RESULTS / f"BENCH_{name}.json").read_text())


def problems(doc: dict, tmp_path: Path) -> list:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    return checker.check_file(path)


@pytest.mark.parametrize(
    "path", sorted(RESULTS.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_every_committed_artifact_validates(path):
    assert checker.check_file(path) == []


def test_main_accepts_the_committed_set(capsys):
    assert checker.main([]) == 0
    assert "conform to their schemas" in capsys.readouterr().out


def _lint_slow_warm(doc):
    doc["modes"]["quick"]["speedup_cold_over_warm"] = 9.9


def _telemetry_overhead_at_bar(doc):
    doc["modes"]["quick"]["overhead_pct"] = 5.0


def _telemetry_no_events(doc):
    doc["modes"]["quick"]["telemetry"]["events"] = 0


def _store_slow_10k_ingest(doc):
    tier = next(t for t in doc["modes"]["full"]["tiers"] if t["runs"] >= 10_000)
    tier["speedup_ingest"] = 4.9


def _store_queries_disagree(doc):
    doc["modes"]["quick"]["tiers"][0]["queries_match"] = False


def _store_full_without_10k(doc):
    full = doc["modes"]["full"]
    full["tiers"] = [t for t in full["tiers"] if t["runs"] < 10_000]


def _simcore_missing_trace(doc):
    doc["modes"]["quick"]["report_fold"]["trace"] = "no_such_trace.json"


def _simcore_third_finalize_workload(doc):
    workloads = doc["modes"]["quick"]["report_finalize"]["workloads"]
    workloads["pilot-third"] = copy.deepcopy(workloads["pilot-campaign"])


def _simcore_boolean_attempts(doc):
    # bool subclasses int in Python, but JSON's true is not a count.
    doc["modes"]["quick"]["attempts"] = True


def _unknown_schema(doc):
    doc["schema"] = "repro.bench.nonesuch/v1"


def _case(name, breaks, expect):
    return pytest.param(name, breaks, expect, id=breaks.__name__.lstrip("_"))


@pytest.mark.parametrize(
    "name, breaks, expect",
    [
        _case("lint", _lint_slow_warm, "below the 10x acceptance bar"),
        _case("telemetry", _telemetry_overhead_at_bar, "at or above the 5% acceptance bar"),
        _case("telemetry", _telemetry_no_events, "'events' must be a positive integer"),
        _case("store", _store_slow_10k_ingest, "below the 5x acceptance bar"),
        _case("store", _store_queries_disagree, "'queries_match' must be true"),
        _case("store", _store_full_without_10k, "must include a >=10k-run tier"),
        _case("simcore", _simcore_missing_trace, "is not committed"),
        _case("simcore", _simcore_third_finalize_workload, "must be exactly"),
        _case("simcore", _simcore_boolean_attempts, "'attempts' must be a positive integer"),
        _case("lint", _unknown_schema, "unregistered schema id"),
    ],
)
def test_rule_breaking_document_is_rejected(name, breaks, expect, tmp_path):
    doc = copy.deepcopy(committed(name))
    assert problems(doc, tmp_path) == []
    breaks(doc)
    found = problems(doc, tmp_path)
    assert len(found) == 1 and expect in found[0], found
