"""The paired-run tool's tally (``tools/e2e_pairs.py``): quartiles, the
change's wins with ties counting for neither side, and the exit status."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "e2e_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("e2e_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("e2e_pairs", module)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()

METRICS = [
    {"name": "throughput_per_s", "better": "higher"},
    {"name": "turnaround_p50_s", "better": "lower"},
]


def _result(throughput, p50, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "throughput_per_s": {"value": throughput},
            "turnaround_p50_s": {"value": p50},
        },
    }


def test_quartiles_of_one_value_are_that_value():
    assert tool.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    parent = [_result(10.0, 0.5), _result(10.0, 0.5), _result(10.0, 0.5)]
    change = [_result(12.0, 0.4), _result(10.0, 0.5), _result(9.0, 0.6)]
    throughput, p50 = tool.summarize(METRICS, parent, change)
    assert throughput.endswith("change better in 1/3")
    assert p50.endswith("change better in 1/3")
    assert "parent 10 [10-10]" in throughput
    assert "change 10 [9.5-11]" in throughput


def test_verdict_fails_incorrect_runs_and_extra_failures():
    parent = [_result(10.0, 0.5, failed=1), _result(10.0, 0.5, failed=1)]
    same = [_result(9.0, 0.6, failed=2), _result(9.0, 0.6)]
    assert tool.verdict({"parent": parent, "change": same}) == []
    extra = tool.verdict({"parent": parent, "change": [_result(11.0, 0.4, failed=3)]})
    assert extra == ["the change failed 3 operations, the parent 2"]
    wrong = [_result(11.0, 0.4), _result(11.0, 0.4, correct=False)]
    assert tool.verdict({"parent": parent, "change": wrong}) == [
        "a change run reported correct: false"
    ]
