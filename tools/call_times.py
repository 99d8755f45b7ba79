#!/usr/bin/env python3
"""Time the library's per-call costs at two revisions, in paired child
interpreters.

    python tools/call_times.py BASE [HEAD]

BASE and HEAD (default ``HEAD``) are git revisions of the repository that
holds this file; each is exported with ``git archive`` (``cli_bytes.export``)
into a temporary directory.  There are ``ROUNDS`` pairs of child
interpreters, the base first in even pairs and the head first in odd
ones.  Each child imports its tree's ``cptsim`` and times ``FUNCTIONS`` on
the same ``N_DRAWS`` draws of ``tests/conftest.py::random_params`` from
``np.random.default_rng(SEED)``: ``RationalLineshape`` is the
factorization ``RationalLineshape(p)``, ``certify`` the certificate of an
already built factorization, ``solve_steady_state`` the one-detuning state
at each draw's own delta_raman, ``calibrate_power_broadening`` the
calibration at its default multiple, ``fit_resonance`` the scan fit on
``N_SCANS`` scans of ``tests/oracles.py::lorentzian_scan`` from
``np.random.default_rng([SEED, 1])`` (201 to 801 samples, 1% noise),
``batch_metrics`` one call over all of those scans (86 lengths, so stacks
of one or two), ``batch_metrics_mix`` one call over the 120 scans of
three lengths that the tree's benchmark ``scan-batch``
(``bench/workloads.py::ScanBatch``) writes at seed ``SEED``, read back
with ``load_scan`` (stacks of 40, 20 and 10 scans), and the others the
library functions of that name.  A cptsim error ends its call, which is
timed all the same.  Per function, a child reports the mean microseconds
per call of its fastest of ``PASSES`` passes over the draws, with the
garbage collector off.

One JSON line per function goes to stdout: each side's median
microseconds over the pairs, the median over the pairs of the head's time
over the base's, and the pairs in which the head was faster.  The exit
status is 0, or 2 on a usage error; a git error or a failed child stops
the tool with a message and status 1.

Standard library and git only; the trees need numpy, as cptsim does, and
``tests/conftest.py`` imports pytest.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_bytes import export

SEED = 7
N_DRAWS = 100
N_SCANS = 100
ROUNDS = 20
PASSES = 7
FUNCTIONS = ("RationalLineshape", "certify", "solve_steady_state",
             "physical_contrast", "resonance_metrics", "calibration_fwhm",
             "calibrate_power_broadening", "fit_resonance", "batch_metrics",
             "batch_metrics_mix")

# The first lines of a child run as ``python -c CODE TREE``: they put the
# tree's src, tests and bench first on sys.path and build, from SCAN_SEED and
# N_SCANS, ``scans``, the scans of distinct lengths, and ``mix``, the scans
# the tree's benchmark ``scan-batch`` (bench/workloads.py) writes at
# SCAN_SEED, each read with ``load_scan`` in file-name order.
SCANS = r"""
import sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests", sys.argv[1] + "/bench"]
import numpy as np
from cptsim import Scan, load_scan
from oracles import lorentzian_scan
from workloads import ScanBatch

scan_rng = np.random.default_rng([SCAN_SEED, 1])
scans = [Scan(*lorentzian_scan(scan_rng, n=int(scan_rng.integers(201, 802)))[:2])
         for _ in range(N_SCANS)]
with tempfile.TemporaryDirectory() as scan_tmp:
    ScanBatch(SCAN_SEED, scan_tmp)
    mix = [load_scan(path) for path in sorted(Path(scan_tmp, "scans").glob("scan_*.csv"))]
"""

# Run in a tree after SCANS; prints one JSON object, function name ->
# microseconds per call.
CHILD = r"""
import gc, json, time
import cptsim.lineshape as lineshape
from cptsim import (CptsimError, RationalLineshape, batch_metrics, fit_resonance,
                    solve_steady_state)
from conftest import random_params

rng = np.random.default_rng(SEED)
draws = [random_params(rng) for _ in range(N_DRAWS)]
jobs = {"RationalLineshape": (RationalLineshape, draws),
        "certify": (RationalLineshape.certify, [RationalLineshape(p) for p in draws]),
        "solve_steady_state": (solve_steady_state, draws),
        "fit_resonance": (fit_resonance, scans),
        "batch_metrics": (batch_metrics, [scans]),
        "batch_metrics_mix": (batch_metrics, [mix])}

def one_pass(fn, inputs):
    start = time.perf_counter()
    for x in inputs:
        try:
            fn(x)
        except CptsimError:
            pass
    return (time.perf_counter() - start) / len(inputs)

times = {}
gc.disable()
for name in FUNCTIONS:
    fn, inputs = jobs.get(name) or (getattr(lineshape, name), draws)
    times[name] = 1e6 * min(one_pass(fn, inputs) for _ in range(PASSES))
gc.enable()
print(json.dumps(times))
"""


def run_child(tree: Path) -> dict[str, float]:
    """Microseconds per call of each of FUNCTIONS, timed in ``tree``."""
    code = (f"SEED, N_DRAWS, PASSES = {SEED}, {N_DRAWS}, {PASSES}\n"
            f"SCAN_SEED, N_SCANS = {SEED}, {N_SCANS}\n"
            f"FUNCTIONS = {FUNCTIONS!r}\n"
            f"{SCANS}{CHILD}")
    proc = subprocess.run([sys.executable, "-c", code, str(tree)], cwd=tree,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"call_times: the child in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summarize(name: str, base: list[float], head: list[float]) -> dict:
    """The summary of one function's paired times: ``base[i]`` and
    ``head[i]`` are its microseconds per call in pair i."""
    ratios = [h / b for b, h in zip(base, head)]
    return {"function": name, "pairs": len(base),
            "base_us": statistics.median(base), "head_us": statistics.median(head),
            "ratio": statistics.median(ratios),
            "wins": sum(h < b for b, h in zip(base, head))}


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[0] in ("-h", "--help"):
        print("usage:", __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    revs = (argv[0], argv[1] if len(argv) == 2 else "HEAD")
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="call_times.") as tmp:
        trees = {}
        for side, rev in zip(runs, revs):
            trees[side] = Path(tmp) / side
            print(f"{side}: {rev} = {export(rev, trees[side])}", file=sys.stderr)
        for i in range(ROUNDS):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[side].append(run_child(trees[side]))
    for name in FUNCTIONS:
        print(json.dumps(summarize(name, [r[name] for r in runs["base"]],
                                   [r[name] for r in runs["head"]])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
