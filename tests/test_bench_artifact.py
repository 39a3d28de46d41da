"""The simulator-core perf gate and the shared benchmark-artifact writer.

``benchmarks/bench_simcore.py --check`` gates tasks/s and two
report-finalize times at +-20% against a committed baseline.  The gate
tests feed ``main`` the committed quick entry, scaled, in place of a
timed run, so they pin its verdicts, exit codes and write policy without
measuring anything.  ``benchmarks/_artifact.py``'s ``write_mode`` merges
one mode's entry into an artifact; the writer tests pin that the other
mode's entry keeps its bytes.
"""

import copy
import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
RESULTS = BENCHMARKS / "results"
BASELINE = RESULTS / "BENCH_simcore.json"


def _load_benchmarks():
    """``_artifact`` and ``bench_simcore``, imported as the script run sees
    them: with ``benchmarks/`` importable."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import _artifact

        spec = importlib.util.spec_from_file_location(
            "bench_simcore", BENCHMARKS / "bench_simcore.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return _artifact, bench


artifact, bench = _load_benchmarks()


def quick_entry() -> dict:
    return copy.deepcopy(json.loads(BASELINE.read_text())["modes"]["quick"])


def scaled(tasks=1.0, campaign=1.0, chain=1.0) -> dict:
    """The committed quick entry with its three gated figures scaled."""
    result = quick_entry()
    result["tasks_per_sec"] *= tasks
    workloads = result["report_finalize"]["workloads"]
    workloads["pilot-campaign"]["seconds"] *= campaign
    workloads["pilot-chain"]["seconds"] *= chain
    return result


@pytest.fixture
def gate(monkeypatch, tmp_path, capsys):
    """``run(result, *argv)``: bench_simcore's CLI with ``result`` standing
    in for the timed run; returns ``(exit code, verdict lines)``."""
    monkeypatch.setattr(bench, "DEFAULT_OUTPUT", tmp_path / "default" / "BENCH_simcore.json")

    def run(result, *argv):
        monkeypatch.setattr(bench, "run_bench", lambda mode: result)
        code = bench.main(["--quick", *argv])
        out = capsys.readouterr().out.splitlines()
        return code, [line for line in out if line.startswith(("OK:", "WARN:", "FAIL:"))]

    return run


def baseline_copy(tmp_path, breaks) -> Path:
    doc = json.loads(BASELINE.read_text())
    breaks(doc)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    return path


def test_everything_within_tolerance_passes(gate):
    code, verdicts = gate(scaled(tasks=0.81, campaign=1.19, chain=0.81), "--check", str(BASELINE))
    assert code == 0
    assert [line.split(": ")[:2] for line in verdicts] == [
        ["OK", "tasks/sec"],
        ["OK", "report finalize pilot-campaign seconds"],
        ["OK", "report finalize pilot-chain seconds"],
    ]


def test_slower_tasks_fail(gate):
    code, verdicts = gate(scaled(tasks=0.79), "--check", str(BASELINE))
    assert code == 1
    assert [line.split(": ")[0] for line in verdicts] == ["FAIL", "OK", "OK"]


@pytest.mark.parametrize("workload", ["campaign", "chain"])
def test_slower_report_finalize_fails(gate, workload):
    code, verdicts = gate(scaled(**{workload: 1.21}), "--check", str(BASELINE))
    assert code == 1
    assert sum(line.startswith("FAIL: report finalize") for line in verdicts) == 1


def test_faster_tasks_pass_with_a_warning(gate):
    code, verdicts = gate(scaled(tasks=1.21), "--check", str(BASELINE))
    assert code == 0
    assert [line.split(": ")[0] for line in verdicts] == ["WARN", "OK", "OK"]


def _other_schema(doc):
    doc["schema"] = "repro.bench.lint/v1"


def _no_quick_mode(doc):
    del doc["modes"]["quick"]


def _no_chain_workload(doc):
    del doc["modes"]["quick"]["report_finalize"]["workloads"]["pilot-chain"]


@pytest.mark.parametrize("breaks", [_other_schema, _no_quick_mode, _no_chain_workload])
def test_unusable_baseline_fails(gate, tmp_path, breaks):
    baseline = baseline_copy(tmp_path, breaks)
    code, verdicts = gate(quick_entry(), "--check", str(baseline))
    assert code == 1
    assert len(verdicts) == 1 and verdicts[0].startswith("FAIL: baseline")


def test_check_writes_only_to_an_explicit_output(gate, tmp_path):
    gate(scaled(tasks=0.5), "--check", str(BASELINE))
    assert not bench.DEFAULT_OUTPUT.exists()
    output = tmp_path / "fresh.json"
    assert gate(scaled(tasks=0.5), "--check", str(BASELINE), "--output", str(output))[0] == 1
    assert json.loads(output.read_text())["modes"] == {"quick": scaled(tasks=0.5)}
    gate(quick_entry())
    assert json.loads(bench.DEFAULT_OUTPUT.read_text())["modes"] == {"quick": quick_entry()}


def entry_lines(text: str, mode: str) -> list:
    """The lines of one mode's entry in an indent=2 artifact."""
    lines = text.splitlines()
    start = lines.index(f'    "{mode}": {{')
    end = next(i for i in range(start, len(lines)) if lines[i].rstrip(",") == "    }")
    return lines[start:end]


@pytest.mark.parametrize("path", sorted(RESULTS.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_writing_one_mode_keeps_the_other_byte_for_byte(path, tmp_path):
    committed = path.read_text()
    doc = json.loads(committed)
    target = tmp_path / path.name
    target.write_text(committed)
    fresh = dict(doc["modes"]["quick"], rounds=99, protocol="fresh")
    artifact.write_mode(target, doc["schema"], fresh)
    written = target.read_text()
    assert entry_lines(written, "full") == entry_lines(committed, "full")
    assert list(json.loads(written)["modes"]) == list(doc["modes"])
    assert json.loads(written)["modes"]["quick"] == fresh
    artifact.write_mode(target, doc["schema"], doc["modes"]["quick"])
    assert target.read_text() == committed


@pytest.mark.parametrize(
    "stale",
    [
        '{"schema": "repro.bench.other/v1", "modes": {"full": {"mode": "full"}}}',
        '{"schema": "repro.bench.simcore/v1", "modes": {"full": {',
        b"\xff\xfe not text",
        "[]",
        None,
    ],
    ids=["other-schema", "torn-json", "not-utf8", "not-an-object", "missing"],
)
def test_writer_replaces_what_it_cannot_merge_into(stale, tmp_path):
    target = tmp_path / "results" / "BENCH_simcore.json"
    if stale is not None:
        target.parent.mkdir()
        (target.write_bytes if isinstance(stale, bytes) else target.write_text)(stale)
    entry = {"mode": "quick", "rounds": 1}
    artifact.write_mode(target, "repro.bench.simcore/v1", entry)
    assert json.loads(target.read_text()) == {
        "schema": "repro.bench.simcore/v1",
        "modes": {"quick": entry},
    }


def test_timed_runs_with_the_collector_off():
    seconds, enabled = artifact.timed(gc.isenabled)
    assert seconds >= 0 and enabled is False and gc.isenabled()
