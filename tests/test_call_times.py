"""The summary of tools/call_times.py on canned paired times, the scans
its children time, and one child run on this tree."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from call_times import (FUNCTIONS, N_SCANS, SCANS, SEED, run_child,  # noqa: E402
                        summarize)

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


def test_the_child_scans_are_the_two_regimes_of_the_stacked_fit():
    # ``scans`` are of nearly all distinct lengths (stacks of one or two);
    # ``mix`` is the benchmark's scan-batch, three lengths in stacks of
    # 40, 20 and 10 scans
    code = (f"SCAN_SEED, N_SCANS = {SEED}, {N_SCANS}\n{SCANS}\n"
            "import json\nfrom cptsim.scans import _stacks\n"
            "print(json.dumps([[len(stack) for stack in _stacks(v)] for v in (scans, mix)]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    distinct, mix = json.loads(proc.stdout)
    assert (sum(distinct), len(distinct), max(distinct)) == (100, 86, 2)
    assert mix == [40, 20, 20, 10, 10, 10, 10]
