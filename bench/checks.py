"""Correctness checks on the workloads' outputs.

Every check compares an output with a computation made apart from the
program (``tests/oracles.py``: the un-reduced 18-unknown solver and the
synthetic-scan truth) or with an exact property of the model.  No
stored copy of earlier output is used.  Tolerances come from the
accuracy each method states:

* a linear solve agrees with the oracle to rounding amplified by the
  conditioning, far below TOL_SOLVE;
* the far-detuned baseline stops once successive doublings of |delta|
  move it by less than 1e-6 relative (``physical_contrast``), so it
  lies within TOL_BASELINE of the asymptote;
* the adaptive sweep holds at least n_points/3 samples inside the FWHM,
  so a sample spacing h <= FWHM/333 at the default 1001 points.  Linear
  interpolation of a Lorentzian-like crossing, plus the sampled (not
  exact) minimum, moves the width by at most 1.5 (h/FWHM)^2 relative;
  the check allows 4 (h/FWHM)^2.  The spline center is O(h^4) accurate,
  so the reported center must be a minimum of the oracle's curve within
  one sample spacing;
* in COMPLETE mode the exact lineshape is even in delta, so the center
  is 0 and the asymmetry 0 up to rounding (about 1e-13 on a symmetric
  grid); SYMMETRY_TOL sits far above rounding and far below any real
  asymmetry;
* a scan fit is a least-squares estimate: its error is compared with
  the Cramer-Rao standard deviation from the model's Jacobian at the
  seeded truth and each scan's noise.

Each check returns a list of problems; an empty list is a pass.
``self_test`` feeds each check a deliberately perturbed answer and
reports any check that fails to reject it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np

import oracles
from workloads import COMPLETE, NONE, SWEEP_POINTS, SWEEP_STRENGTH

TWO_PI = 2.0 * math.pi
TOL_SOLVE = 1e-9
TOL_BASELINE = 1e-6
SYMMETRY_TOL = 1e-6
DEFAULT_SPAN_HALFWIDTHS = 20.0    # default sweep span, in estimated half widths
DEFAULT_IN_FWHM = 1001 // 3       # samples the default adaptive sweep keeps in the FWHM
PROBE_STRENGTH = 1e-3             # calibration's zero-power reference level
CALIBRATION_SPAN_HALFWIDTHS = 25.0
CALIBRATION_IN_FWHM = 241 // 3    # calibration sweeps: 241 points, adaptive
ORDER_MIN_STRENGTH = 10.0         # contrast(complete) > contrast(none) from here on
N_CSV_SAMPLES = 64
SCAN_SIGMAS = 6.0


# --------------------------------------------------------------- oracle

def rho_ee(params, delta):
    """Total excited population from the un-reduced 18-unknown solve."""
    _, excited, _ = oracles.solve_full_system(params.replace(delta_raman=float(delta)))
    return float(excited.sum())


def halfwidth_estimate(params):
    """gamma_g + P/2 with the coherence pump rate P = V^2 (lu + ld/3)."""
    g2 = params.gamma_opt**2
    lu = params.gamma_opt / (params.delta_opt**2 + g2)
    ld = params.gamma_opt / ((params.delta_opt + params.omega_e) ** 2 + g2)
    return params.gamma_g + params.rabi**2 * (lu + ld / 3.0) / 2.0


def far_baseline(params):
    # the tail falls as 1/delta^2, so 1e6 sweep spans out it is gone
    return rho_ee(params, 1e6 * DEFAULT_SPAN_HALFWIDTHS * halfwidth_estimate(params))


def crossing(params, a, b, level, steps=40):
    """Bisection for rho_ee(delta) = level between a and b, or None if unbracketed."""
    fa = rho_ee(params, a) - level
    fb = rho_ee(params, b) - level
    if fa == 0.0:
        return a
    if (fa < 0) == (fb < 0):
        return None
    for _ in range(steps):
        mid = 0.5 * (a + b)
        fm = rho_ee(params, mid) - level
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def oracle_fwhm(params, center, baseline, inner, outer, steps=40):
    """Half-depth width of the oracle curve.

    The crossings are searched at distances inner..outer on each side of
    ``center``; None if either is not bracketed there.
    """
    level = baseline - (baseline - rho_ee(params, center)) / 2.0
    lo = crossing(params, center - inner, center - outer, level, steps)
    hi = crossing(params, center + inner, center + outer, level, steps)
    if lo is None or hi is None:
        return None
    return hi - lo


# ----------------------------------------------------------- model checks

def _rel(a, b):
    return abs(a - b) / abs(b)


def contrast_problems(params, baseline, amplitude, contrast):
    problems = []
    ob = far_baseline(params)
    o0 = rho_ee(params, 0.0)
    if not _rel(baseline, ob) <= TOL_BASELINE:
        problems.append(f"baseline {baseline!r} vs oracle {ob!r}")
    if not _rel(baseline - amplitude, o0) <= TOL_SOLVE:
        problems.append(f"rho_ee(0) {baseline - amplitude!r} vs oracle {o0!r}")
    if not abs(contrast - (ob - o0) / ob) <= TOL_BASELINE:
        problems.append(f"contrast {contrast!r} vs oracle {(ob - o0) / ob!r}")
    return problems


def metrics_problems(params, m):
    """All checks on one ResonanceMetrics from the default adaptive sweep."""
    problems = contrast_problems(params, m.baseline, m.amplitude, m.physical_contrast)
    if not (m.fwhm_hz > 0 and math.isfinite(m.center_hz)
            and 0.0 <= m.asymmetry < 1.0):
        return problems + [f"malformed metrics {m!r}"]
    if not _rel(m.qfactor, m.physical_contrast / m.fwhm_hz) <= 1e-12:
        problems.append(f"qfactor {m.qfactor!r} != contrast/fwhm")
    edge = DEFAULT_SPAN_HALFWIDTHS * halfwidth_estimate(params)
    return problems + shape_problems(params, m.center_hz, m.fwhm_hz, (-edge, edge),
                                     TWO_PI * m.fwhm_hz / DEFAULT_IN_FWHM,
                                     4.0 / DEFAULT_IN_FWHM**2)


def shape_problems(params, center_hz, fwhm_hz, edges, h, width_tol):
    """Center and FWHM of a sampled dip against the oracle.

    The center must be the oracle's minimum within one sample spacing h
    (no higher than the oracle at center +/- 2h).  The width must match
    the oracle's half-depth width against the mean of the two sweep-edge
    values to width_tol relative.
    """
    problems = []
    width = TWO_PI * fwhm_hz
    center = TWO_PI * center_hz
    at_center = rho_ee(params, center)
    if not (at_center <= rho_ee(params, center - 2 * h)
            and at_center <= rho_ee(params, center + 2 * h)):
        problems.append(f"center {center_hz!r} Hz is not the oracle minimum "
                        f"within one sample spacing")
    edge_baseline = 0.5 * (rho_ee(params, edges[0]) + rho_ee(params, edges[1]))
    ow = oracle_fwhm(params, center, edge_baseline, 0.45 * width, 0.55 * width)
    if ow is None or not _rel(width, ow) <= width_tol:
        problems.append(f"fwhm {fwhm_hz!r} Hz vs oracle "
                        f"{None if ow is None else ow / TWO_PI!r} Hz")
    return problems


def symmetry_problems(center_hz, asym, fwhm_hz):
    problems = []
    if not abs(center_hz) <= SYMMETRY_TOL * fwhm_hz:
        problems.append(f"COMPLETE-mode center {center_hz!r} Hz, exact value 0")
    if not asym <= SYMMETRY_TOL:
        problems.append(f"COMPLETE-mode asymmetry {asym!r}, exact value 0")
    return problems


def ordering_problems(strength, c_none, c_complete):
    if strength >= ORDER_MIN_STRENGTH and not c_complete > c_none:
        return [f"contrast complete {c_complete!r} <= none {c_none!r} at s={strength!r}"]
    return []


def calibration_width(params):
    """FWHM of the oracle curve by the calibration's definition (rad/s).

    Calibration measures widths against the mean of the two sweep-edge
    samples at +/-CALIBRATION_SPAN_HALFWIDTHS estimated half widths.
    """
    edge = CALIBRATION_SPAN_HALFWIDTHS * halfwidth_estimate(params)
    baseline = 0.5 * (rho_ee(params, -edge) + rho_ee(params, edge))
    return oracle_fwhm(params, 0.0, baseline, 0.0, edge, steps=60)


def calibration_problems(base, multiple, rabi):
    lu = base.gamma_opt / (base.delta_opt**2 + base.gamma_opt**2)
    probe = base.replace(rabi=math.sqrt(PROBE_STRENGTH * base.gamma_g / lu))
    w0 = calibration_width(probe)
    w = calibration_width(base.replace(rabi=rabi))
    if w0 is None or w is None:
        return [f"calibrated rabi {rabi!r}: oracle width not bracketed"]
    # each width carries up to 1.5 (h/FWHM)^2 interpolation error with
    # CALIBRATION_IN_FWHM samples inside the FWHM
    tol = 8.0 / CALIBRATION_IN_FWHM**2
    if not _rel(w / w0, 1.0 + multiple) <= tol:
        return [f"calibrated FWHM ratio {w / w0!r}, target {1.0 + multiple!r}"]
    return []


def check(wl, results, seed):
    """Verdicts per op, one per sub-operation the op stands for.

    A verdict is None (pass), ("fault1" | "fault2", message) for a named
    program fault on its fixed inputs, or ("unexpected", message).
    """
    if wl.name == "scan-batch":
        return [check_scan_batch(wl, results)]
    if wl.name == "sweep-dense":
        return [[v] for v in check_sweep_dense(wl, results, seed)]
    return [[v] for v in check_model_grid(wl, results)]


def check_model_grid(wl, results):
    verdicts = [None] * len(wl.ops)
    by_pair = {}
    for i, (op, res) in enumerate(zip(wl.ops, results)):
        if isinstance(res, Exception):
            msg = f"{type(res).__name__}: {res}"
            if op.info.get("fault1") and type(res).__name__ == "InvariantViolation":
                verdicts[i] = ("fault1", msg)
            else:
                verdicts[i] = ("unexpected", msg)
            continue
        if op.kind == "metrics":
            problems = metrics_problems(op.args[0], res)
            if problems:
                verdicts[i] = ("unexpected", "; ".join(problems))
            elif op.info["fixed_grid"]:
                sym = symmetry_problems(res.center_hz, res.asymmetry, res.fwhm_hz) \
                    if op.args[0].depolarization is COMPLETE else []
                if sym:
                    verdicts[i] = ("fault2", "; ".join(sym))
            key = ("metrics", op.info["pair"])
        elif op.kind == "contrast":
            problems = contrast_problems(op.args[0], res.baseline, res.amplitude,
                                         res.physical_contrast)
            if problems:
                verdicts[i] = ("unexpected", "; ".join(problems))
            key = ("contrast", op.info["strength"])
        else:
            problems = calibration_problems(op.args[0], op.args[1], res)
            if problems:
                verdicts[i] = ("unexpected", "; ".join(problems))
            continue
        by_pair.setdefault(key, {})[op.args[0].depolarization] = (i, res)
    for pair in by_pair.values():
        if NONE in pair and COMPLETE in pair:
            (i_n, r_n), (i_c, r_c) = pair[NONE], pair[COMPLETE]
            problems = ordering_problems(wl.ops[i_n].info["strength"],
                                         r_n.physical_contrast, r_c.physical_contrast)
            for i in (i_n, i_c):
                if problems and verdicts[i] is None:
                    verdicts[i] = ("unexpected", "; ".join(problems))
    return verdicts


# ----------------------------------------------------------- sweep checks

def read_sweep(op):
    text = op.info["out"].read_text(encoding="utf-8")
    lines = text.splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    meta = json.loads(op.info["sidecar"].read_text(encoding="utf-8"))
    return lines[0], rows, meta


def sweep_problems(params, header, rows, meta, rng):
    problems = []
    n = rows.shape[0]
    if header != "delta_hz,rho_ee" or n != meta.get("n_samples") or n != SWEEP_POINTS:
        return [f"sweep output has {n} rows, header {header!r}"]
    deltas = TWO_PI * rows[:, 0]
    if not np.all(np.diff(deltas) > 0):
        problems.append("detunings not strictly increasing")
    edge = DEFAULT_SPAN_HALFWIDTHS * halfwidth_estimate(params)
    if not (_rel(-deltas[0], edge) <= 1e-12 and _rel(deltas[-1], edge) <= 1e-12):
        problems.append(f"sweep edges {deltas[0]!r}, {deltas[-1]!r} vs +/-{edge!r}")
    for j in rng.choice(n, N_CSV_SAMPLES, replace=False):
        o = rho_ee(params, deltas[j])
        if not _rel(rows[j, 1], o) <= TOL_SOLVE:
            problems.append(f"row {j}: rho_ee {rows[j, 1]!r} vs oracle {o!r}")
            break
    problems += contrast_problems(params, meta["baseline"], meta["amplitude"],
                                  meta["physical_contrast"])
    h = (deltas[-1] - deltas[0]) / (n - 1)
    problems += shape_problems(params, meta["center_hz"], meta["fwhm_hz"],
                               (deltas[0], deltas[-1]), h,
                               4.0 * (h / (TWO_PI * meta["fwhm_hz"])) ** 2 + TOL_SOLVE)
    if params.depolarization is COMPLETE:
        problems += symmetry_problems(meta["center_hz"], meta["asymmetry"], meta["fwhm_hz"])
    return problems


def check_sweep_dense(wl, results, seed):
    rng = np.random.default_rng([seed, 4])
    verdicts, contrasts = [], {}
    for op, code in zip(wl.ops, results):
        if code != 0:
            verdicts.append(("unexpected", f"exit code {code}"))
            continue
        header, rows, meta = read_sweep(op)
        problems = sweep_problems(op.info["params"], header, rows, meta, rng)
        contrasts[op.info["params"].depolarization] = meta["physical_contrast"]
        verdicts.append(("unexpected", "; ".join(problems)) if problems else None)
    if len(contrasts) == 2:
        problems = ordering_problems(SWEEP_STRENGTH, contrasts[NONE], contrasts[COMPLETE])
        if problems:
            verdicts = [v or ("unexpected", problems[0]) for v in verdicts]
    return verdicts


# ------------------------------------------------------------ scan checks

def scan_sigmas(truth):
    """Cramer-Rao standard deviations of (center, fwhm, contrast) at the truth.

    Model a + b*x + A*w^2/((x-x0)^2 + w^2) with white noise sigma; the
    covariance of the least-squares estimate is sigma^2 (J^T J)^-1.
    """
    f = truth["frequency"]
    x = f - 0.5 * (f[0] + f[-1])
    x0 = truth["center_hz"] - 0.5 * (f[0] + f[-1])
    w = truth["fwhm_hz"] / 2.0
    sa = truth["sign"] * truth["amplitude"]
    lor = w**2 / ((x - x0) ** 2 + w**2)
    dx = x - x0
    jac = np.column_stack([np.ones_like(x), x, lor,
                           sa * 2.0 * dx * lor**2 / w**2,
                           sa * 2.0 * dx**2 * lor**2 / w**3])
    cov = truth["noise_sigma"] ** 2 * np.linalg.inv(jac.T @ jac)
    level = truth["baseline"] + truth["slope"] * truth["center_hz"]
    # contrast = A / (level + sign*A), level = a + b*x0 in centered coordinates
    peak = level + sa
    grad = np.array([-abs(sa) / peak**2, -abs(sa) * x0 / peak**2,
                     truth["sign"] * level / peak**2, 0.0, 0.0])
    return (math.sqrt(cov[3, 3]), 2.0 * math.sqrt(cov[4, 4]),
            math.sqrt(grad @ cov @ grad))


def scan_row_problems(truth, row):
    if row["status"] != "ok":
        return [f"status {row['status']!r}"]
    s_center, s_fwhm, s_contrast = scan_sigmas(truth)
    problems = []
    for key, sigma in (("center_hz", s_center), ("fwhm_hz", s_fwhm),
                       ("contrast", s_contrast)):
        err = float(row[key]) - truth[key]
        if not abs(err) <= SCAN_SIGMAS * sigma:
            problems.append(f"{key} off by {err:.3e}, {SCAN_SIGMAS:g} sigma = "
                            f"{SCAN_SIGMAS * sigma:.3e}")
    return problems


def qmax_problems(rows, qmax_rows, vary="intensity_mW_cm2"):
    """The qmax table must hold, per metadata group, the ok row of largest Q."""
    columns = list(rows[0])
    meta_keys = [k for k in columns[:columns.index("status")] if k not in ("file", vary)]
    best = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        key = tuple(row[k] for k in meta_keys)
        if key not in best or float(row["qfactor"]) > float(best[key]["qfactor"]):
            best[key] = row
    expected = sorted(tuple(r.items()) for r in best.values())
    got = sorted(tuple(r.items()) for r in qmax_rows)
    return [] if expected == got else ["qmax table differs from per-group maximum Q"]


def read_table(path):
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def check_scan_batch(wl, results):
    """Verdict per scan file (one op covers the whole directory)."""
    op = wl.ops[0]
    truths, malformed = op.info["truths"], op.info["malformed"]
    names = sorted(list(truths) + list(malformed))
    if results[0] != 0:
        return [("unexpected", f"exit code {results[0]}")] * len(names)
    table_path, qmax_path, mirror_path = op.info["files"]
    rows = read_table(table_path)
    by_file = {row["file"]: row for row in rows}
    shared = qmax_problems(rows, read_table(qmax_path))
    mirror = json.loads(mirror_path.read_text(encoding="utf-8"))
    if len(mirror["rows"]) != len(rows) or len(rows) != len(names):
        shared.append("table, mirror and inputs disagree in row count")
    verdicts = []
    for name in names:
        row = by_file.get(name)
        if row is None:
            problems = ["no row"]
        elif name in malformed:
            expected = malformed[name]
            problems = [] if row["status"].startswith(expected + ":") else [
                f"status {row['status']!r}, expected {expected}"]
        else:
            problems = scan_row_problems(truths[name], row)
        problems += shared
        verdicts.append(("unexpected", f"{name}: " + "; ".join(problems)) if problems else None)
    return verdicts


# --------------------------------------------------------------- self-test

def self_test(wl, results):
    """Names of the checks that accept a deliberately wrong answer."""
    missed = []

    def expect_reject(name, problems):
        if not problems:
            missed.append(name)

    if wl.name == "model-grid":
        ok = {op.args[0].depolarization: (op, res) for op, res in zip(wl.ops, results)
              if op.kind == "metrics" and not op.info["fixed_grid"]
              and not isinstance(res, Exception)}
        for mode, (op, m) in ok.items():
            p = op.args[0]
            expect_reject("baseline", metrics_problems(
                p, replace(m, baseline=m.baseline * (1 + 1e-5),
                            amplitude=m.amplitude + m.baseline * 1e-5)))
            expect_reject("rho_ee(0)", metrics_problems(
                p, replace(m, amplitude=m.amplitude * (1 + 1e-7))))
            expect_reject("contrast", metrics_problems(
                p, replace(m, physical_contrast=m.physical_contrast + 1e-5)))
            expect_reject("fwhm", metrics_problems(
                p, replace(m, fwhm_hz=m.fwhm_hz * (1 + 1e-3),
                            qfactor=m.physical_contrast / (m.fwhm_hz * (1 + 1e-3)))))
            expect_reject("center minimum", metrics_problems(
                p, replace(m, center_hz=m.center_hz + 0.02 * m.fwhm_hz)))
            expect_reject("qfactor", metrics_problems(p, replace(m, qfactor=m.qfactor * 1.01)))
            if mode is COMPLETE:
                expect_reject("symmetric center", symmetry_problems(
                    1e-5 * m.fwhm_hz, m.asymmetry, m.fwhm_hz))
                expect_reject("zero asymmetry", symmetry_problems(
                    m.center_hz, 1e-5, m.fwhm_hz))
        expect_reject("contrast ordering", ordering_problems(100.0, 0.5, 0.3))
        cal = next((op, r) for op, r in zip(wl.ops, results) if op.kind == "calibrate")
        expect_reject("calibration", calibration_problems(
            cal[0].args[0], cal[0].args[1], cal[1] * 1.01))
        con = next((op, r) for op, r in zip(wl.ops, results) if op.kind == "contrast")
        expect_reject("contrast baseline", contrast_problems(
            con[0].args[0], con[1].baseline * (1 + 1e-5), con[1].amplitude,
            con[1].physical_contrast))
    elif wl.name == "sweep-dense":
        op = wl.ops[1]
        header, rows, meta = read_sweep(op)
        p = op.info["params"]
        bad_rows = rows.copy()
        bad_rows[:, 1] *= 1 + 1e-7
        expect_reject("csv rows", sweep_problems(p, header, bad_rows, meta,
                                                 np.random.default_rng(0)))
        for key, factor in (("fwhm_hz", 1 + 1e-4), ("baseline", 1 + 1e-5)):
            bad = dict(meta)
            bad[key] *= factor
            expect_reject(f"sweep {key}", sweep_problems(p, header, rows, bad,
                                                         np.random.default_rng(0)))
        bad = dict(meta, center_hz=1e-5 * meta["fwhm_hz"])
        expect_reject("sweep symmetric center", sweep_problems(
            p, header, rows, bad, np.random.default_rng(0)))
    else:
        op = wl.ops[0]
        rows = read_table(op.info["files"][0])
        row = next(r for r in rows if r["file"] in op.info["truths"])
        truth = op.info["truths"][row["file"]]
        s_center, s_fwhm, s_contrast = scan_sigmas(truth)
        for key, sigma in (("center_hz", s_center), ("fwhm_hz", s_fwhm),
                           ("contrast", s_contrast)):
            bad = dict(row)
            bad[key] = repr(float(row[key]) + 10 * SCAN_SIGMAS * sigma)
            expect_reject(f"scan {key}", scan_row_problems(truth, bad))
        qmax = read_table(op.info["files"][1])
        worse = [dict(r) for r in qmax]
        donor = next(r for r in rows if r["status"] == "ok"
                     and r not in qmax and r["gas"] == worse[0]["gas"])
        worse[0] = donor
        expect_reject("qmax", qmax_problems(rows, worse))
    return missed
