"""Seeded inputs and program calls of the three benchmark workloads.

A workload builds its inputs from the seed in its constructor (the
"set-up" that ``setup_s`` times) and exposes them as a fixed list of
operations.  One *round* runs every operation once; runs always execute
whole rounds, so the share of failed operations is the same in every
run whatever the seed or the run length.  A round is cut into slices;
each timed slice gives one rate sample.

The program is driven only through its public functions and
``cptsim.cli.main``.  Names are looked up on the modules at call time
so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cptsim
from cptsim import cli

NONE = cptsim.Depolarization.NONE
COMPLETE = cptsim.Depolarization.COMPLETE

# Fixed parts of the optical geometry (Hz); the fig-1 working point of the CLI.
GAMMA_NAT_HZ = 5.75e6
OMEGA_E_HZ = 817e6
GAMMA_G_HZ = 100.0
FIG1_GAMMA_OPT_HZ = 1e9
FIG1_DELTA_OPT_HZ = -30e6

# Seeded draws cover the paper's comparison space.  s stays <= 1e4, below
# the stiff range where fault 1 strikes, so no seed adds a failure.
DELTA_MHZ_RANGE = (-400.0, 400.0)
GAMMA_GHZ_RANGE = (0.5, 3.0)
LOG10_S_RANGE = (-1.0, 4.0)
N_DRAW_PAIRS = 24             # each draw is evaluated in both modes
N_CONTRAST_AXIS = 96          # s samples per mode on the dense axis
N_CALIBRATION_GEOMETRIES = 4
CALIBRATION_MULTIPLES = (1.0, 3.0, 10.0)
MODEL_SLICES = 12

# Fixed grid of the named fault 2 (spline through near-duplicate detunings):
# it strikes COMPLETE-mode points of the adaptive sweep, on inputs that do
# not depend on the seed.
GRID_DELTA_MHZ = (-300.0, -180.0, -60.0, 60.0, 180.0, 300.0)
GRID_GAMMA_GHZ = (0.5, 1.0, 2.0, 3.0)
GRID_S = (10.0, 100.0, 1000.0)

# Named fault 1 (absolute invariant tolerances reject valid stiff
# solutions): fig-1 geometry, (gamma_g/2pi in Hz, s, mode).  The model's
# validity flags hold at every one of these points.
FAULT1_POINTS = (
    (0.1, 1e7, NONE), (0.1, 1e7, COMPLETE), (0.1, 3e6, COMPLETE),
    (1.0, 3e6, NONE), (1.0, 3e6, COMPLETE),
)

SWEEP_STRENGTH = 30.0
SWEEP_POINTS = 100_001

# Scan-batch make-up: every seed gets the same mix of sample counts and
# noise levels, so the per-round work does not depend on the seed.
N_SCANS = 120
SCAN_SAMPLES = (201, 401, 801)
SCAN_NOISE = (0.003, 0.01, 0.03)   # Gaussian noise, share of the peak amplitude
SCAN_GASES = ("Ne", "N2")
SCAN_TEMPERATURES_C = (55.0, 65.0, 75.0)
SCAN_INTENSITIES = (0.1, 0.2, 0.4, 0.8, 1.6)
CLOCK_HZ = 6.834682610904e9
# Files the analyzer must reject, with the error class it must report.
MALFORMED = {
    "bad_00_text_row.csv": ("ParseError",
                            "frequency_hz,signal\n" + "".join(
                                f"{i}.0,1.0\n" for i in range(10))
                            + "oops\n" + "".join(f"{i}.0,1.0\n" for i in range(10, 20))),
    "bad_01_three_columns.csv": ("ParseError",
                                 "frequency_hz,signal\n" + "".join(
                                     f"{i}.0,1.0\n" for i in range(19)) + "19.0,1.0,2.0\n"),
    "bad_02_too_few.csv": ("TooFewSamples",
                           "frequency_hz,signal\n" + "".join(
                               f"{i}.0,1.0\n" for i in range(15))),
    "bad_03_duplicate.csv": ("MonotonicityError",
                             "frequency_hz,signal\n" + "".join(
                                 f"{i}.0,{1.0 + 0.01 * i!r}\n" for i in range(19)) + "5.0,2.0\n"),
    "bad_04_flat.csv": ("NoResonance",
                        "# gas = flat\nfrequency_hz,signal\n" + "".join(
                            f"{1e3 * i!r},{1.0 + 1e-3 * math.sin(7.0 * i)!r}\n"
                            for i in range(200))),
}


@dataclass
class Op:
    """One program call and what its checks need to know about it."""

    kind: str
    args: tuple
    info: dict = field(default_factory=dict)
    units: int = 1        # work units one passing call stands for


def model_params(mode, delta_opt_hz, gamma_opt_hz, strength,
                 gamma_g_hz=GAMMA_G_HZ):
    base = cptsim.ModelParams(
        rabi=0.0,
        gamma_opt=cptsim.hz_to_angular(gamma_opt_hz),
        gamma_nat=cptsim.hz_to_angular(GAMMA_NAT_HZ),
        gamma_g=cptsim.hz_to_angular(gamma_g_hz),
        omega_e=cptsim.hz_to_angular(OMEGA_E_HZ),
        delta_opt=cptsim.hz_to_angular(delta_opt_hz),
        depolarization=mode,
    )
    if strength is None:
        return base
    return base.replace(rabi=cptsim.rabi_for_pumping_strength(base, strength))


def _draw_geometry(rng):
    delta_hz = rng.uniform(*DELTA_MHZ_RANGE) * 1e6
    lo, hi = (math.log10(g) for g in GAMMA_GHZ_RANGE)
    gamma_hz = 10 ** rng.uniform(lo, hi) * 1e9
    return delta_hz, gamma_hz


def _stratified_log(rng, n, lo, hi):
    """n values, one log-uniform draw in each of n equal strata of [lo, hi]."""
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return 10 ** (lo + (hi - lo) * u)


def _fingerprint(paths):
    digest = hashlib.sha256()
    size = 0
    for path in paths:
        data = Path(path).read_bytes()
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


class ModelGrid:
    """In-process library calls of the paper's comparison.

    resonance_metrics over the fixed fault-2 grid, the fault-1 points and
    seeded draws (both modes each); physical_contrast over a dense s
    axis in both modes; calibrate_power_broadening at several multiples
    for a few geometries.  No file I/O.
    """

    name = "model-grid"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        # Groups of ops that share a slice: the two modes of one point, or
        # a single op.  Each kind is dealt round-robin over the slices, so
        # every slice holds the same mix of calls whatever the seed.
        kinds = []
        kinds.append([[self._metrics_op(mode, d * 1e6, g * 1e9, s, fixed_grid=True)
                       for mode in (NONE, COMPLETE)]
                      for d in GRID_DELTA_MHZ for g in GRID_GAMMA_GHZ for s in GRID_S])
        fault1 = []
        for gg, s, mode in FAULT1_POINTS:
            op = self._metrics_op(mode, FIG1_DELTA_OPT_HZ, FIG1_GAMMA_OPT_HZ, s,
                                  gamma_g_hz=gg)
            op.info["fault1"] = True
            fault1.append([op])
        kinds.append(fault1)
        draws = []
        for s in _stratified_log(rng, N_DRAW_PAIRS, *LOG10_S_RANGE):
            delta_hz, gamma_hz = _draw_geometry(rng)
            draws.append([self._metrics_op(mode, delta_hz, gamma_hz, float(s))
                          for mode in (NONE, COMPLETE)])
        kinds.append(draws)

        delta_hz, gamma_hz = _draw_geometry(rng)
        kinds.append([[Op("contrast", (model_params(mode, delta_hz, gamma_hz, float(s)),),
                          {"strength": float(s)}) for mode in (NONE, COMPLETE)]
                      for s in _stratified_log(rng, N_CONTRAST_AXIS, *LOG10_S_RANGE)])

        calibrations = []
        for k in range(N_CALIBRATION_GEOMETRIES):
            delta_hz, gamma_hz = _draw_geometry(rng)
            base = model_params((NONE, COMPLETE)[k % 2], delta_hz, gamma_hz, None)
            calibrations += [[Op("calibrate", (base, m))] for m in CALIBRATION_MULTIPLES]
        kinds.append(calibrations)

        self.ops = []
        self.slices = [[] for _ in range(MODEL_SLICES)]
        j = 0
        for groups in kinds:
            for group in groups:
                self.slices[j % MODEL_SLICES] += range(len(self.ops), len(self.ops) + len(group))
                self.ops += group
                j += 1

    @staticmethod
    def _metrics_op(mode, delta_hz, gamma_hz, s, gamma_g_hz=GAMMA_G_HZ,
                    fixed_grid=False):
        p = model_params(mode, delta_hz, gamma_hz, s, gamma_g_hz)
        return Op("metrics", (p,), {"strength": s, "fixed_grid": fixed_grid,
                                    "pair": (delta_hz, gamma_hz, s, gamma_g_hz)})

    def run(self, op):
        try:
            if op.kind == "metrics":
                return cptsim.resonance_metrics(*op.args)
            if op.kind == "contrast":
                return cptsim.physical_contrast(*op.args)
            return cptsim.calibrate_power_broadening(*op.args)
        except cptsim.CptsimError as exc:
            return exc

    def collect(self, op, result):
        if isinstance(result, Exception):
            return (type(result).__name__, str(result)), 0
        return result, 0


class SweepDense:
    """``cptsim sweep`` at one pumping strength, both modes, ~1e5 linear samples."""

    name = "sweep-dense"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        delta_hz, gamma_hz = _draw_geometry(rng)
        self.ops = []
        for mode in (NONE, COMPLETE):
            out = Path(workdir) / f"sweep_{mode.value}.csv"
            argv = ["sweep", "--mode", mode.value,
                    "--pumping-strength", repr(SWEEP_STRENGTH),
                    "--gamma-opt-hz", repr(gamma_hz),
                    "--gamma-nat-hz", repr(GAMMA_NAT_HZ),
                    "--gamma-g-hz", repr(GAMMA_G_HZ),
                    "--omega-e-hz", repr(OMEGA_E_HZ),
                    "--delta-opt-hz", repr(delta_hz),
                    "--spacing", "linear", "--n-points", str(SWEEP_POINTS),
                    "--out", str(out)]
            params = model_params(mode, delta_hz, gamma_hz, SWEEP_STRENGTH)
            self.ops.append(Op("sweep", (argv,), {
                "params": params, "out": out,
                "sidecar": out.with_name(out.stem + "_metrics.json")},
                units=SWEEP_POINTS))
        self.slices = [[0], [1]]

    def run(self, op):
        return cli.main(list(op.args[0]))

    def collect(self, op, result):
        digest, size = _fingerprint([op.info["out"], op.info["sidecar"]])
        return (result, digest), size


def _scan_text(f, y, metadata):
    lines = [f"# {k} = {v}" for k, v in metadata.items()]
    lines.append("frequency_hz,signal")
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(f, y)]
    return "\n".join(lines) + "\n"


class ScanBatch:
    """``cptsim analyze`` over a seeded directory of synthetic scans."""

    name = "scan-batch"

    def __init__(self, seed, workdir):
        import oracles

        rng = np.random.default_rng([seed, 3])
        scan_dir = Path(workdir) / "scans"
        scan_dir.mkdir(parents=True, exist_ok=True)
        truths = {}
        for i in range(N_SCANS):
            n = SCAN_SAMPLES[i % len(SCAN_SAMPLES)]
            noise = SCAN_NOISE[(i // len(SCAN_SAMPLES)) % len(SCAN_NOISE)]
            sign = 1 if (i // 9) % 2 == 0 else -1
            fwhm = 10 ** rng.uniform(math.log10(300.0), math.log10(3000.0))
            span = fwhm * rng.uniform(8.0, 15.0)
            center = CLOCK_HZ + rng.uniform(-0.1, 0.1) * span
            slope = rng.uniform(-0.02, 0.02) / span
            contrast = rng.uniform(0.01, 0.10)
            f, y, truth = oracles.lorentzian_scan(
                rng, n=n, span_hz=span, center_hz=center, fwhm_hz=fwhm,
                contrast=contrast, baseline=1.0 - slope * center, slope=slope,
                noise_frac=noise, sign=sign)
            metadata = {
                "gas": SCAN_GASES[i % len(SCAN_GASES)],
                "temperature_C": SCAN_TEMPERATURES_C[(i // 2) % len(SCAN_TEMPERATURES_C)],
                "intensity_mW_cm2": SCAN_INTENSITIES[int(rng.integers(len(SCAN_INTENSITIES)))],
            }
            name = f"scan_{i:03d}.csv"
            (scan_dir / name).write_text(_scan_text(f, y, metadata), encoding="utf-8")
            truth.update(noise_sigma=noise * truth["amplitude"], sign=sign,
                         frequency=f, slope=slope, baseline=1.0 - slope * center)
            truths[name] = truth
        for name, (_, text) in MALFORMED.items():
            (scan_dir / name).write_text(text, encoding="utf-8")
        out = Path(workdir) / "table.csv"
        files = [out, out.with_name("table_qmax.csv"), out.with_name("table.json")]
        self.ops = [Op("analyze", (["analyze", str(scan_dir), "--out", str(out)],),
                       {"truths": truths, "malformed": {k: v[0] for k, v in MALFORMED.items()},
                        "files": files},
                       units=len(truths) + len(MALFORMED))]
        self.slices = [[0]]

    def run(self, op):
        return cli.main(list(op.args[0]))

    def collect(self, op, result):
        digest, size = _fingerprint(op.info["files"])
        return (result, digest), size


WORKLOADS = {w.name: w for w in (ModelGrid, SweepDense, ScanBatch)}
