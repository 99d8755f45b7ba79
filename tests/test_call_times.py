"""The summary of tools/call_times.py on canned paired times, and one
child run on this tree."""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from call_times import FUNCTIONS, run_child, summarize  # noqa: E402

BASE = [20.0, 22.0, 21.0, 25.0, 19.0, 24.0]


def test_a_faster_head_wins_its_pairs_and_a_tie_counts_for_neither():
    head = [18.0, 19.8, 21.0, 20.0, 17.1, 21.6]
    line = summarize("RationalLineshape", BASE, head)
    assert (line["function"], line["pairs"], line["wins"]) == ("RationalLineshape", 6, 5)
    assert (line["base_us"], line["head_us"]) == (21.5, 19.9)
    # the ratios are 0.9, 0.9, 1.0, 0.8, 0.9, 0.9: their median, not the
    # ratio of the medians (19.9 / 21.5)
    assert math.isclose(line["ratio"], 0.9, rel_tol=1e-12)


def test_a_slower_head_wins_no_pair():
    line = summarize("certify", BASE, [b * 1.25 for b in BASE])
    assert (line["wins"], line["ratio"]) == (0, 1.25)
    assert (line["base_us"], line["head_us"]) == (21.5, 26.875)


def test_a_child_times_every_function_in_this_tree():
    times = run_child(ROOT)
    assert list(times) == list(FUNCTIONS)
    assert all(0.0 < t < math.inf for t in times.values())
