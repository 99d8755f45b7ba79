"""Benchmark of cptsim: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {model-grid,sweep-dense,scan-batch}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src`` and the oracles from ``tests``.  One process drives the load.

Every run first executes one reference round, checks all of its outputs
against the oracles (``checks.py``) and self-tests the checks.  Then:

* ``--trace 0`` runs whole rounds for ``--seconds``, timing each slice
  of a round, and reports the end-to-end metrics: ``work_per_s`` (the
  median slice rate of checked work), ``setup_s`` (median over fresh
  interpreters) and ``peak_rss_mb`` (a fresh process that runs one
  slice of program calls and nothing else).
* ``--trace 1`` alternates untraced and traced rounds for ``--seconds``
  and reports the per-layer metrics of ``tracing.py`` per round
  (medians over the traced rounds), plus ``trace.overhead_s``.

All times are scaled by ReferenceKernel to cancel the machine's speed
drift.  Every output of a timed round must equal the checked reference
output, or it counts as an unexpected failure.  Only the two named
program faults on their fixed inputs may fail; ``correct`` is false if
anything else does.  Work files go to ``.bench_work/`` and are removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

SETUP_CHILDREN = 5      # fresh interpreters per run for setup_s
IMPORT_CHILDREN = 3     # -X importtime interpreters per traced run
CHILD_TIMEOUT_S = 150
END_TO_END_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Times are reported in seconds of a machine that runs ReferenceKernel's
# kernel in exactly REF_NOMINAL_S.  Around each measurement the kernel runs
# at least twice and for at least KERNEL_SHARE of the measured time.
REF_NOMINAL_S = 0.020
KERNEL_SHARE = 0.05


class Tally:
    """Attempted and failed operations over the timed rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def add(self, verdicts):
        """Count one op's verdicts; return how many sub-operations passed."""
        self.attempted += len(verdicts)
        bad = [v for v in verdicts if v is not None]
        self.failed += len(bad)
        self.unexpected += [v[1] for v in bad if v[0] == "unexpected"]
        return len(verdicts) - len(bad)


class ReferenceKernel:
    """A fixed, program-independent mix of interpreter work and small LAPACK solves.

    The CPU speed of a shared machine drifts by up to 1.8x within
    seconds, in CPU time as much as in wall time.  The kernel is timed
    right before and right after each measurement; the measurement is
    scaled by the mean kernel time over REF_NOMINAL_S, which cancels
    most of the drift.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(200, 10, 10)) + 10.0 * np.eye(10)
        self._b = rng.normal(size=(200, 10, 1))
        self._solve = np.linalg.solve
        self.times = []
        self.recent = None   # mean kernel time right after the latest measurement

    def _run(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(90_000):
            acc += (i % 7) * 0.5
        table = {}
        for i in range(15_000):
            table[i] = (i, str(i))
        for _ in range(30):
            self._solve(self._a, self._b)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def _sample(self, measured_s):
        n = max(2, math.ceil(KERNEL_SHARE * measured_s / REF_NOMINAL_S))
        self.recent = statistics.mean(self._run() for _ in range(n))
        return self.recent

    def around(self, measure):
        """Run measure(); return (its result, kernel time around it / REF_NOMINAL_S)."""
        before = self.recent if self.recent is not None else self._sample(0.0)
        t0 = time.perf_counter()
        result = measure()
        after = self._sample(time.perf_counter() - t0)
        return result, 0.5 * (before + after) / REF_NOMINAL_S


def run_slice(wl, indices, reference, verdicts, tally):
    """Run one slice of program calls; return (checked work/s, call time, bytes written)."""
    t0 = time.perf_counter()
    results = [wl.run(wl.ops[i]) for i in indices]
    elapsed = time.perf_counter() - t0
    work = 0.0
    written = 0
    for i, result in zip(indices, results):
        op = wl.ops[i]
        key, size = wl.collect(op, result)
        written += size
        found = verdicts[i]
        if key != reference[i]:
            found = [("unexpected", f"op {i}: output differs from the checked "
                                    f"reference round")] * len(found)
        work += tally.add(found) * op.units / len(found)
    return work / elapsed, elapsed, written


def run_round(wl, reference, verdicts, tally):
    """One whole round; return (call time, bytes written)."""
    total, written = 0.0, 0
    for indices in wl.slices:
        _, elapsed, size = run_slice(wl, indices, reference, verdicts, tally)
        total += elapsed
        written += size
    return total, written


def run_child(workload, seed, workdir, mode):
    workdir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(workdir), mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args, wl, reference, verdicts, tally, workdir):
    memory = run_child(args.workload, args.seed, workdir / "memory", "memory")
    kernel = ReferenceKernel()
    deadline = time.perf_counter() + args.seconds
    rates = []
    while True:
        for indices in wl.slices:
            (rate, _, _), slowdown = kernel.around(
                lambda: run_slice(wl, indices, reference, verdicts, tally))
            rates.append(rate * slowdown)
        if time.perf_counter() >= deadline:
            break
    setups = []
    for k in range(SETUP_CHILDREN):
        child, slowdown = kernel.around(
            lambda: run_child(args.workload, args.seed, workdir / f"setup{k}", "setup"))
        setups.append(child["setup_s"] / slowdown)
    return {"work_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": memory["peak_rss_mb"]}, END_TO_END_UNITS


def traced(args, wl, reference, verdicts, tally):
    import tracing

    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    kernel = ReferenceKernel()
    imports = []
    for _ in range(IMPORT_CHILDREN):
        (cptsim_s, scipy_s), slowdown = kernel.around(lambda: tracing.import_time(SRC))
        imports.append((cptsim_s / slowdown, scipy_s / slowdown))
    deadline = time.perf_counter() + args.seconds
    per_round, overheads = [], []
    while not per_round or time.perf_counter() < deadline:
        (plain, _), plain_slowdown = kernel.around(
            lambda: run_round(wl, reference, verdicts, tally))
        tracer = tracing.Tracer()
        with tracer.installed():
            (with_trace, written), slowdown = kernel.around(
                lambda: run_round(wl, reference, verdicts, tally))
        layers = tracing.layer_metrics(tracer, written)
        # times in reference seconds, like the end-to-end figures
        for name, value in layers.items():
            if units[name] in ("s", "us"):
                layers[name] = value / slowdown
            elif units[name] == "MB/s":
                layers[name] = value * slowdown
        per_round.append(layers)
        overheads.append(with_trace / slowdown - plain / plain_slowdown)
    values = {"import.cptsim_s": statistics.median(i[0] for i in imports),
              "import.scipy_s": statistics.median(i[1] for i in imports),
              "trace.overhead_s": statistics.median(overheads),
              "machine.ref_kernel_s": statistics.median(kernel.times)}
    for name in per_round[0]:
        values[name] = statistics.median(r[name] for r in per_round)
    return values, units


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("model-grid", "sweep-dense", "scan-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cptsim" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        sys.exit(f"bench: no cptsim sources under {SRC} or no oracles under {TESTS}; "
                 f"run from the root of a source checkout")
    sys.path[:0] = [str(SRC), str(TESTS), str(BENCH)]
    import cptsim
    if Path(cptsim.__file__).resolve().parent != (SRC / "cptsim").resolve():
        sys.exit(f"bench: imported cptsim from {cptsim.__file__}, not from {SRC}")
    import checks
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        (workdir / "main").mkdir()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir / "main")
        results = [wl.run(op) for op in wl.ops]
        reference = [wl.collect(op, r)[0] for op, r in zip(wl.ops, results)]
        verdicts = checks.check(wl, results, args.seed)
        missed = checks.self_test(wl, results)
        tally = Tally()
        if args.trace:
            values, units = traced(args, wl, reference, verdicts, tally)
        else:
            values, units = untraced(args, wl, reference, verdicts, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    reference_bad = [v[1] for vs in verdicts for v in vs if v and v[0] == "unexpected"]
    for message in (reference_bad + tally.unexpected)[:10]:
        print(f"bench: unexpected failure: {message}", file=sys.stderr)
    for name in missed:
        print(f"bench: check accepted a perturbed answer: {name}", file=sys.stderr)
    result = {
        "correct": not (reference_bad or tally.unexpected or missed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
