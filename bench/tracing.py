"""Per-layer tracing: wrappers around the program's public functions.

Only the traced run installs these wrappers; the end-to-end figures come
from untraced runs.  A wrapper replaces a function on every module that
holds it (the defining module, the package and the callers that import
it by name), so calls from one module into another pass through it.
Each wrapper records a span; a span's self time is its duration minus
the time its child spans cover.  Counters are kept at the same
boundaries.  Functions a later version of the program no longer has are
skipped, and their layer reads zero.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import cptsim
import cptsim.cli
import cptsim.lineshape
import cptsim.scans
import cptsim.steady_state

MODULES = (cptsim, cptsim.steady_state, cptsim.lineshape, cptsim.scans, cptsim.cli)

# function name -> span (layer) name
SPANS = {
    "rho_ee_many": "steady_state.rho_ee_many",
    "sweep": "lineshape.sweep",
    "physical_contrast": "lineshape.physical_contrast",
    "fwhm": "lineshape.shape_metrics",
    "resonance_center": "lineshape.shape_metrics",
    "asymmetry": "lineshape.shape_metrics",
    "calibrate_power_broadening": "lineshape.calibrate",
    "load_scan": "scans.load_scan",
    "fit_resonance": "scans.fit_resonance",
    "batch_metrics": "scans.batch_metrics",
    "main": "cli.main",
}

# (metric name, unit, better); see layer_metrics for the definitions
PER_LAYER = (
    ("import.cptsim_s", "s", "lower"), ("import.scipy_s", "s", "lower"),
    ("steady_state.rho_ee_many.calls", "count", "lower"),
    ("steady_state.rho_ee_many.points", "count", "lower"),
    ("steady_state.rho_ee_many.self_s", "s", "lower"),
    ("steady_state.rho_ee_many.us_per_point", "us", "lower"),
    ("lineshape.sweep.calls", "count", "lower"),
    ("lineshape.sweep.self_s", "s", "lower"),
    ("lineshape.sweep.useful_ratio", "ratio", "higher"),
    ("lineshape.physical_contrast.calls", "count", "lower"),
    ("lineshape.physical_contrast.self_s", "s", "lower"),
    ("lineshape.physical_contrast.solves_per_call", "count", "lower"),
    ("lineshape.shape_metrics.self_s", "s", "lower"),
    ("lineshape.spline_builds", "count", "lower"),
    ("lineshape.calibrate.calls", "count", "lower"),
    ("lineshape.calibrate.self_s", "s", "lower"),
    ("lineshape.calibrate.sweeps_per_call", "count", "lower"),
    ("lineshape.calibrate.points_per_call", "count", "lower"),
    ("scans.load_scan.calls", "count", "lower"),
    ("scans.load_scan.self_s", "s", "lower"),
    ("scans.load_scan.mb_per_s", "MB/s", "higher"),
    ("scans.fit_resonance.calls", "count", "lower"),
    ("scans.fit_resonance.self_s", "s", "lower"),
    ("scans.fit_resonance.iterations_mean", "count", "lower"),
    ("scans.batch_metrics.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("machine.ref_kernel_s", "s", "lower"),
)


class Tracer:
    """Span self times and work counters, reset for each traced round."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self._children = []     # child time accumulated by each open span

    def _open(self):
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, name, t0):
        dt = time.perf_counter() - t0
        self.calls[name] += 1
        self.self_s[name] += dt - self._children.pop()
        if self._children:
            self._children[-1] += dt

    def wrap(self, name, fn, account=None):
        def wrapper(*args, **kwargs):
            before = dict(self.count)
            t0 = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(name, t0)
                if account is not None:
                    account(self, args, result, before)
        return wrapper

    def delta(self, before, key):
        return self.count[key] - before.get(key, 0.0)

    @contextmanager
    def installed(self):
        """Wrap the program's functions on every module that holds them."""
        originals = {}
        for attr in SPANS:
            holders = [m for m in MODULES if callable(getattr(m, attr, None))]
            if holders:
                originals[attr] = getattr(holders[0], attr)
        patched = []
        for attr, orig in originals.items():
            wrapper = self.wrap(SPANS[attr], orig, ACCOUNTS.get(attr))
            for module in MODULES:
                if getattr(module, attr, None) is orig:
                    patched.append((module, attr, orig))
                    setattr(module, attr, wrapper)
        spline = getattr(cptsim.lineshape, "CubicSpline", None)
        if spline is not None:
            def counted_spline(*args, **kwargs):
                self.count["spline_builds"] += 1
                return spline(*args, **kwargs)
            patched.append((cptsim.lineshape, "CubicSpline", spline))
            cptsim.lineshape.CubicSpline = counted_spline
        try:
            yield self
        finally:
            for module, attr, orig in reversed(patched):
                setattr(module, attr, orig)


def _points(tracer, args, result, before):
    tracer.count["points"] += np.size(args[1])


def _sweep(tracer, args, result, before):
    tracer.count["sweep.calls"] += 1
    if result is not None:
        tracer.count["sweep.kept"] += result.deltas.size
        tracer.count["sweep.solved"] += tracer.delta(before, "points")


def _contrast(tracer, args, result, before):
    tracer.count["contrast.points"] += tracer.delta(before, "points")


def _calibrate(tracer, args, result, before):
    tracer.count["calibrate.points"] += tracer.delta(before, "points")
    tracer.count["calibrate.sweeps"] += tracer.delta(before, "sweep.calls")


def _load(tracer, args, result, before):
    if isinstance(args[0], (str, os.PathLike)):
        tracer.count["load.bytes"] += os.path.getsize(args[0])


def _fit(tracer, args, result, before):
    if result is not None:
        tracer.count["fit.iterations"] += result.iterations


ACCOUNTS = {"rho_ee_many": _points, "sweep": _sweep,
            "physical_contrast": _contrast,
            "calibrate_power_broadening": _calibrate,
            "load_scan": _load, "fit_resonance": _fit}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, bytes_written):
    """Per-layer figures of one traced round (zero where a layer is bypassed)."""
    c, t, n = tracer.calls, tracer.self_s, tracer.count
    shape = "lineshape.shape_metrics"
    return {
        "steady_state.rho_ee_many.calls": c["steady_state.rho_ee_many"],
        "steady_state.rho_ee_many.points": n["points"],
        "steady_state.rho_ee_many.self_s": t["steady_state.rho_ee_many"],
        "steady_state.rho_ee_many.us_per_point":
            1e6 * _ratio(t["steady_state.rho_ee_many"], n["points"]),
        "lineshape.sweep.calls": c["lineshape.sweep"],
        "lineshape.sweep.self_s": t["lineshape.sweep"],
        "lineshape.sweep.useful_ratio": _ratio(n["sweep.kept"], n["sweep.solved"]),
        "lineshape.physical_contrast.calls": c["lineshape.physical_contrast"],
        "lineshape.physical_contrast.self_s": t["lineshape.physical_contrast"],
        "lineshape.physical_contrast.solves_per_call":
            _ratio(n["contrast.points"], c["lineshape.physical_contrast"]),
        "lineshape.shape_metrics.self_s": t[shape],
        "lineshape.spline_builds": n["spline_builds"],
        "lineshape.calibrate.calls": c["lineshape.calibrate"],
        "lineshape.calibrate.self_s": t["lineshape.calibrate"],
        "lineshape.calibrate.sweeps_per_call":
            _ratio(n["calibrate.sweeps"], c["lineshape.calibrate"]),
        "lineshape.calibrate.points_per_call":
            _ratio(n["calibrate.points"], c["lineshape.calibrate"]),
        "scans.load_scan.calls": c["scans.load_scan"],
        "scans.load_scan.self_s": t["scans.load_scan"],
        "scans.load_scan.mb_per_s": 1e-6 * _ratio(n["load.bytes"], t["scans.load_scan"]),
        "scans.fit_resonance.calls": c["scans.fit_resonance"],
        "scans.fit_resonance.self_s": t["scans.fit_resonance"],
        "scans.fit_resonance.iterations_mean":
            _ratio(n["fit.iterations"], c["scans.fit_resonance"]),
        "scans.batch_metrics.self_s": t["scans.batch_metrics"],
        "cli.main.self_s": t["cli.main"],
        "cli.bytes_written": bytes_written,
    }


def import_time(src):
    """(cptsim, scipy) import seconds from one fresh ``-X importtime`` interpreter.

    cptsim: cumulative import time of the package.  scipy: summed self
    time of every scipy module, whichever import pulled it in.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cptsim"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = float(parts[0].split(":")[1])
            cumulative_us = float(parts[1])
        except ValueError:
            continue  # the column header
        name = parts[2].strip()
        if name == "cptsim":
            total = cumulative_us * 1e-6
        elif name.split(".")[0] == "scipy":
            scipy += self_us * 1e-6
    return total, scipy
