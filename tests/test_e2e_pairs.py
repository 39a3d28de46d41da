"""The paired-run tool's tally (``tools/e2e_pairs.py``): quartiles, the
change's wins with ties counting for neither side, each metric's
standing against its bound, and the exit status."""

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


THROUGHPUT = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "turnaround_p50_s", "better": "lower", "bound": 0.25}


def test_judge_within_bound():
    parent = [10.0, 10.5, 11.0, 11.5, 12.0]
    assert tool.judge(THROUGHPUT, parent, [9.0, 9.5, 10.0, 10.5, 11.0]) == "within bound"
    assert tool.judge(P50, parent, [12.0, 12.5, 13.0, 13.5, 14.0]) == "within bound"


def test_judge_worse_by_more_than_the_bound():
    parent = [10.0, 10.5, 11.0, 11.5, 12.0]
    assert tool.judge(THROUGHPUT, parent, [7.0, 7.5, 8.0, 8.5, 12.5]) == (
        "worse by more than the 25% bound"
    )
    assert tool.judge(P50, parent, [13.0, 13.5, 14.0, 14.5, 15.0]) == (
        "worse by more than the 25% bound"
    )


def test_judge_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # Quartiles 8-12 around a median of 10: a spread of 40%.
    parent = [6.0, 8.0, 10.0, 12.0, 14.0]
    assert tool.judge(THROUGHPUT, parent, [5.0, 6.0, 7.0, 8.0, 9.0]) == "unresolved"
    assert tool.judge(THROUGHPUT, parent, [10.0, 11.0, 12.0, 13.0, 15.0]) == "unresolved"
    # ... unless every change run beats every parent run.
    assert tool.judge(THROUGHPUT, parent, [15.0, 16.0, 17.0, 18.0, 19.0]) == "within bound"
    assert tool.judge(P50, parent, [1.0, 2.0, 3.0, 4.0, 5.0]) == "within bound"
