"""The summary of tools/bench_pair.py on canned paired runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pair import quartiles, summarize  # noqa: E402

RATE = {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
MEMORY = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
BASE = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 97.0, 100.0, 105.0]


def runs(values, name, failed=4, attempted=401, correct=True):
    """``bench/run.py`` result lines holding ``values`` of metric ``name``."""
    return [{"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": {name: {"value": v}}} for v in values]


def test_quartiles_of_ten_runs():
    # statistics.quantiles' default (exclusive) method; the median between
    assert quartiles(BASE) == (98.75, 100.5, 103.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_gain_larger_than_the_spread_in_nine_of_ten_pairs_is_resolved():
    head = [b + 10.0 for b in BASE]
    head[3] = BASE[3]  # a tie counts for neither side
    line = summarize(RATE, runs(BASE, "work_per_s"),
                     runs(head, "work_per_s", failed=6, attempted=802))
    assert (line["wins"], line["pairs"], line["verdict"]) == (9, 10, "resolved")
    assert line["gain"] == 9.5 and line["spread"] == 4.5
    assert line["base"] == {"median": 100.5, "q1": 98.75, "q3": 103.25,
                            "correct": True, "failed": 40, "attempted": 4010}
    assert (line["head"]["failed"], line["head"]["attempted"]) == (60, 8020)
    assert (line["metric"], line["unit"], line["better"], line["bound"]) == (
        "work_per_s", "1/s", "higher", 0.2)


@pytest.mark.parametrize("head, wins", [
    # eight wins of ten, though the median gain is large
    ([b + 10.0 for b in BASE[:8]] + [b - 1.0 for b in BASE[8:]], 8),
    # ten wins, but a median gain of 4 inside the parent's spread of 4.5
    ([b + 4.0 for b in BASE], 10),
])
def test_too_few_wins_or_a_gain_inside_the_spread_is_unresolved(head, wins):
    line = summarize(RATE, runs(BASE, "work_per_s"), runs(head, "work_per_s"))
    assert (line["wins"], line["verdict"]) == (wins, "unresolved")


def test_a_lower_is_better_metric_gains_by_going_down():
    base = runs(BASE, "peak_rss_mb")
    lower = summarize(MEMORY, base, runs([b - 10.0 for b in BASE], "peak_rss_mb"))
    assert (lower["wins"], lower["gain"], lower["verdict"]) == (10, 10.0, "resolved")
    higher = summarize(MEMORY, base, runs([b + 10.0 for b in BASE], "peak_rss_mb"))
    assert (higher["wins"], higher["gain"], higher["verdict"]) == (0, -10.0, "unresolved")


@pytest.mark.parametrize("side", ["base", "head"])
def test_an_incorrect_run_on_either_side_is_never_resolved(side):
    pairs = {"base": runs(BASE, "work_per_s"),
             "head": runs([b + 10.0 for b in BASE], "work_per_s")}
    pairs[side][7]["correct"] = False
    line = summarize(RATE, pairs["base"], pairs["head"])
    assert (line["wins"], line["verdict"]) == (10, "incorrect")
    assert line[side]["correct"] is False


def test_a_larger_failed_share_is_never_resolved():
    # 5 of 401 against 4 of 401, though every pair wins by far
    line = summarize(RATE, runs(BASE, "work_per_s"),
                     runs([b + 10.0 for b in BASE], "work_per_s", failed=5))
    assert (line["wins"], line["verdict"]) == (10, "more failed")
    assert (line["base"]["failed"], line["head"]["failed"]) == (40, 50)


def test_trajectory_lines_name_the_benchmark_s_workloads_and_metrics():
    # BENCH_TRAJECTORY.json: one JSON object per line, each naming a
    # workload and end-to-end metrics of BENCHMARK.json (a metric's parent
    # and change medians, or null where none was recorded), in PR order
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    prs = []
    for text in (ROOT / "BENCH_TRAJECTORY.json").read_text().splitlines():
        line = json.loads(text)
        assert line["workload"] in workloads
        named = set(line) - {"pr", "date", "machine", "workload", "source"}
        assert named and named <= metrics
        for name in named:
            assert line[name] is None or set(line[name]) == {"parent", "change"}
        prs.append(line["pr"])
    assert prs and prs == sorted(prs)
