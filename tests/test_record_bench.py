"""The benchmark recorder's parsing and summaries, on canned ``run.py`` output;
no benchmark runs here."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "record_bench", Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)


def _result(items_per_s, p50, correct=True, failed=0):
    return {"correct": correct, "attempted": 840, "failed": failed, "metrics": {
        "items_per_s": {"value": items_per_s, "unit": "1/s"},
        "item_p50_ms": {"value": p50, "unit": "ms"}}}


def _run(items_per_s, p50):
    return {"correct": True, "failed": 0,
            "metrics": {"items_per_s": items_per_s, "item_p50_ms": p50}}


def test_parse_result_reads_the_last_line():
    report = {"workload": "tape-pipeline", "counts": {"serialize.bytes": 3}}
    stdout = f"{json.dumps(report)}\n{json.dumps(_result(2100.5, 0.3))}\n\n"
    assert record_bench.parse_result(stdout) == _result(2100.5, 0.3)


@pytest.mark.parametrize("stdout", [
    "", "\n\n", "Traceback (most recent call last):\n  ...\nValueError: x\n",
    json.dumps({"workload": "tape-pipeline"}) + "\n", "[1, 2]\n",
])
def test_parse_result_refuses_output_without_a_result_line(stdout):
    with pytest.raises(ValueError):
        record_bench.parse_result(stdout)


def test_summary_gives_median_and_quartiles_per_metric():
    runs = [_run(v, 0.1 * i) for i, v in enumerate([5, 1, 4, 2, 3, 6, 7, 8], start=1)]
    runs.append({"correct": False, "failed": 1, "metrics": {}, "error": "exit 1"})
    summary = record_bench.summarize(runs)
    assert summary["items_per_s"] == {"median": 4.5, "q1": 2.25, "q3": 6.75, "runs": 8}
    assert summary["item_p50_ms"]["median"] == pytest.approx(0.45)
    assert record_bench.summarize([_run(3, 1)])["items_per_s"] == {
        "median": 3, "q1": 3, "q3": 3, "runs": 1}


def test_pair_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    tree = [_run(10, 1.0), _run(12, 0.9), _run(9, 1.0)]
    parent = [_run(9, 1.1), _run(12, 1.0), _run(11, 0.8)]
    wins = record_bench.pair_wins(tree, parent, {"items_per_s": "higher", "item_p50_ms": "lower"})
    assert wins == {"items_per_s": {"wins": 1, "pairs": 3},
                    "item_p50_ms": {"wins": 2, "pairs": 3}}


ACCEPTANCE_STDERR = """\
PASS C01 [  0.057s] dominating-set encoding soundness: 200/200 agree with subset enumeration
PASS C02 [  0.000s] five-cycle pattern fidelity: per-cell marks exact
FAIL C05 [ 12.345s] tape to token sliding: answer changed on artifact 3
PASS C10 [  0.079s] engine self-consistency: 500/500 match the DFS oracle; [1.000s] in details
"""


def test_parse_acceptance_reads_each_criterions_seconds():
    run = record_bench.parse_acceptance("warning: something\n" + ACCEPTANCE_STDERR)
    assert run == {"correct": False, "failed": 1, "metrics": {
        "C01_s": 0.057, "C02_s": 0.0, "C05_s": 12.345, "C10_s": 0.079}}
    passing = "".join(line + "\n" for line in ACCEPTANCE_STDERR.splitlines() if "FAIL" not in line)
    assert record_bench.parse_acceptance(passing)["correct"]


@pytest.mark.parametrize("stderr", ["", "Traceback (most recent call last):\n", "PASS C01 fake\n",
                                    "PASS C01 [  0.1s fake: ok\n"])
def test_parse_acceptance_refuses_stderr_without_a_criterion_line(stderr):
    with pytest.raises(ValueError):
        record_bench.parse_acceptance(stderr)


@pytest.mark.parametrize("stdout, counts", [
    ("....\n466 passed in 24.49s\n", {"passed": 466, "failed": 0, "errors": 0}),
    ("F...\nFAILED tests/test_x.py::test_y - assert 1 == 2\n1 failed, 465 passed in 30.12s\n",
     {"passed": 465, "failed": 1, "errors": 0}),
    ("E.\n= 1 failed, 463 passed, 2 errors in 28.00s =\n",
     {"passed": 463, "failed": 1, "errors": 2}),
    ("\n1 error in 0.31s\n", {"passed": 0, "failed": 0, "errors": 1}),
])
def test_parse_tier1_reads_the_summary_counts(stdout, counts):
    assert record_bench.parse_tier1(stdout) == counts


@pytest.mark.parametrize("stdout", ["", "....\n", "Traceback (most recent call last):\n",
                                    "test_passed in 3 files\n"])
def test_parse_tier1_refuses_stdout_without_a_summary_line(stdout):
    with pytest.raises(ValueError):
        record_bench.parse_tier1(stdout)
