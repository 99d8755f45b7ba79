"""Independent reference implementations used to check the package.

Everything here writes the model's steady-state equations out longhand,
one literal line per term, deliberately sharing no tables or assembly
code with the package.  Two routes are provided:

* residual_verbatim: substitutes a candidate solution into each
  equation and returns the imbalance, equation by equation;
* solve_full_system: solves the un-eliminated 18-real-unknown system
  (8 ground + 8 excited + Re/Im coherence) with the excited-state
  populations kept as explicit unknowns.

parse_lines_verbatim is the scan format's line-by-line parser, kept as
the reference for the package's bulk conversion.  fit_verbatim is the
scan fit written with numpy's own wrappers (np.median, np.mean, the
polynomial package's polyfit, np.linspace and .sum()), the reference for
the package's fit; mirrored_offsets_verbatim and
antisymmetric_fraction_verbatim are its asymmetry helpers.

assemble_verbatim, factorization_verbatim and checked_call_verbatim are
the package's own assembly, factorization, rho_ee samples and
one-detuning state written as fancy-indexed and sliced updates, with the
delta-free scalars re-read on every call, one numpy operation after
another; assemble_verbatim forms the population rows with one np.dot
over the package's (5, 130) layout, so its bits match on every BLAS
kernel.  Their per-rate tables come from rate_tables_verbatim, dense
Fraction products of the full coupling tables rather than the package's
sparse loop over them.  Unlike the routes above they share the package's
coupling tables: they are a bit for bit reference of the package's
arithmetic, not of the physics.

Ground ordering matches the package: (2,-2), (2,-1), (2,0), (2,1),
(2,2), (1,-1), (1,0), (1,1); excited ordering u(-2..2) then d(-1..1).
"""

import functools
import math
from fractions import Fraction

import numpy as np

from cptsim.couplings import (EXCITED_INDEX, EXCITED_IS_UPPER, GROUND_INDEX,
                              build_coupling_tables)
from cptsim.errors import NoResonance, ParseError
from cptsim.lineshape import ResonanceMetrics, level_crossings
from cptsim.params import Depolarization, lorentz_factors
from cptsim.scans import (CSV_HEADER, MAX_ITERATIONS, SSE_RTOL, FitModel,
                          FitReport, Scan, _parse_metadata_value)
from cptsim.steady_state import _I10, _I20


def _rates(params):
    V = params.rabi
    G = params.gamma_opt
    we = params.omega_e
    D = params.delta_opt
    den_u = D**2 + G**2
    den_d = (D + we) ** 2 + G**2
    return {
        "cu": V**2 * G / den_u,          # Gamma V^2 / (Delta^2 + Gamma^2)
        "cd": V**2 * G / den_d,
        "au": V**2 * D / den_u,          # Delta V^2 / (Delta^2 + Gamma^2)
        "ad": V**2 * (D + we) / den_d,
        "Lu": (2.0 * G / params.gamma_nat) / den_u,   # Gamma/(gamma/2) factor
        "Ld": (2.0 * G / params.gamma_nat) / den_d,
    }


def excited_verbatim(params, g, re21):
    """The eight excitation equations, literally."""
    V2 = params.rabi**2
    r = _rates(params)
    Lu, Ld = r["Lu"], r["Ld"]
    g22m2, g22m1, g220, g221, g222, g11m1, g110, g111 = g
    dark = g220 + g110 - 2.0 * re21
    return np.array([
        0.0,                                            # uu -2-2
        (V2 / 6.0) * Lu * g22m2,                        # uu -1-1
        (V2 / 4.0) * Lu * (g22m1 + g11m1 / 3.0),        # uu 00
        (V2 / 4.0) * Lu * dark,                         # uu 11
        (V2 / 2.0) * Lu * (g221 / 3.0 + g111),          # uu 22
        (V2 / 2.0) * Ld * g22m2,                        # dd -1-1
        (V2 / 4.0) * Ld * (g22m1 + g11m1 / 3.0),        # dd 00
        (V2 / 12.0) * Ld * dark,                        # dd 11
    ])


def residual_verbatim(params, ground, coherence):
    """Imbalance of each steady-state equation at a candidate solution.

    Returns 10 values: the eight ground-population equations in
    canonical order, then the real and imaginary parts of the
    coherence equation.
    """
    gam = params.gamma_nat
    gg = params.gamma_g
    dlt = params.delta_raman
    r = _rates(params)
    cu, cd, au, ad = r["cu"], r["cd"], r["au"], r["ad"]
    g22m2, g22m1, g220, g221, g222, g11m1, g110, g111 = ground
    re, im = coherence.real, coherence.imag

    e = excited_verbatim(params, ground, re)
    if params.depolarization.value == "complete":
        e = np.full(8, e.sum() / 8.0)
    uu_m2, uu_m1, uu_0, uu_1, uu_2, dd_m1, dd_0, dd_1 = e

    res = np.empty(10)
    # rho22_-2-2
    res[0] = (-(cu / 3.0 + cd) * g22m2 + gg / 8.0
              + gam * (uu_m2 / 3.0 + uu_m1 / 6.0 + dd_m1 / 2.0)
              - gg * g22m2)
    # rho22_-1-1
    res[1] = (-(cu + cd) / 2.0 * g22m1 + gg / 8.0
              + gam * (uu_m2 / 6.0 + uu_m1 / 12.0 + uu_0 / 4.0
                       + dd_m1 / 4.0 + dd_0 / 4.0)
              - gg * g22m1)
    # rho22_00 (with the coherence cross terms)
    res[2] = (-(cu + cd / 3.0) / 2.0 * g220
              + 0.5 * (au * im + cu * re) + (ad * im + cd * re) / 6.0
              + gg / 8.0
              + gam * (uu_m1 / 4.0 + uu_1 / 4.0 + dd_m1 / 12.0
                       + dd_0 / 3.0 + dd_1 / 12.0)
              - gg * g220)
    # rho22_11
    res[3] = (-(cu / 3.0) * g221 + gg / 8.0
              + gam * (uu_2 / 6.0 + uu_1 / 12.0 + uu_0 / 4.0
                       + dd_1 / 4.0 + dd_0 / 4.0)
              - gg * g221)
    # rho22_22 (no pump-out; the stretched sublevel only collects decay)
    res[4] = (gg / 8.0
              + gam * (uu_2 / 3.0 + uu_1 / 6.0 + dd_1 / 2.0)
              - gg * g222)
    # rho11_-1-1
    res[5] = (-(cu + cd) / 6.0 * g11m1 + gg / 8.0
              + gam * (uu_m2 / 2.0 + uu_m1 / 4.0 + uu_0 / 12.0
                       + dd_m1 / 12.0 + dd_0 / 12.0)
              - gg * g11m1)
    # rho11_00
    res[6] = (-(cu + cd / 3.0) / 2.0 * g110
              - 0.5 * (au * im - cu * re) - (ad * im - cd * re) / 6.0
              + gg / 8.0
              + gam * (uu_m1 / 4.0 + uu_0 / 3.0 + uu_1 / 4.0
                       + dd_m1 / 12.0 + dd_1 / 12.0)
              - gg * g110)
    # rho11_11
    res[7] = (-cu * g111 + gg / 8.0
              + gam * (uu_2 / 2.0 + uu_1 / 4.0 + uu_0 / 12.0
                       + dd_1 / 12.0 + dd_0 / 12.0)
              - gg * g111)
    # coherence equation
    pump = 0.5 * (cu + cd / 3.0)
    lhs = (dlt + 1j * (gg + pump)) * coherence
    rhs = (0.25j * (cu + cd / 3.0) * (g220 + g110)
           + 0.25 * (au + ad / 3.0) * (g220 - g110))
    res[8] = (rhs - lhs).real
    res[9] = (rhs - lhs).imag
    return res


def solve_full_system(params):
    """Solve the 18-unknown system with excited populations kept explicit.

    Unknowns: x[0:8] ground, x[8:16] excited, x[16] Re(rho21),
    x[17] Im(rho21).  Returns (ground, excited, coherence).
    """
    gam = params.gamma_nat
    gg = params.gamma_g
    dlt = params.delta_raman
    V2 = params.rabi**2
    r = _rates(params)
    cu, cd, au, ad, Lu, Ld = (r["cu"], r["cd"], r["au"], r["ad"],
                              r["Lu"], r["Ld"])
    complete = params.depolarization.value == "complete"

    iG = {"22-2": 0, "22-1": 1, "220": 2, "221": 3, "222": 4,
          "11-1": 5, "110": 6, "111": 7}
    iE = {"u-2": 8, "u-1": 9, "u0": 10, "u1": 11, "u2": 12,
          "d-1": 13, "d0": 14, "d1": 15}
    R, J = 16, 17

    A = np.zeros((18, 18))
    b = np.zeros(18)

    # excitation equations: rho_e - (expression) = 0
    A[0, iE["u-2"]] = 1.0
    A[1, iE["u-1"]] = 1.0
    A[1, iG["22-2"]] = -(V2 / 6.0) * Lu
    A[2, iE["u0"]] = 1.0
    A[2, iG["22-1"]] = -(V2 / 4.0) * Lu
    A[2, iG["11-1"]] = -(V2 / 12.0) * Lu
    A[3, iE["u1"]] = 1.0
    A[3, iG["220"]] = -(V2 / 4.0) * Lu
    A[3, iG["110"]] = -(V2 / 4.0) * Lu
    A[3, R] = +(V2 / 2.0) * Lu
    A[4, iE["u2"]] = 1.0
    A[4, iG["221"]] = -(V2 / 6.0) * Lu
    A[4, iG["111"]] = -(V2 / 2.0) * Lu
    A[5, iE["d-1"]] = 1.0
    A[5, iG["22-2"]] = -(V2 / 2.0) * Ld
    A[6, iE["d0"]] = 1.0
    A[6, iG["22-1"]] = -(V2 / 4.0) * Ld
    A[6, iG["11-1"]] = -(V2 / 12.0) * Ld
    A[7, iE["d1"]] = 1.0
    A[7, iG["220"]] = -(V2 / 12.0) * Ld
    A[7, iG["110"]] = -(V2 / 12.0) * Ld
    A[7, R] = +(V2 / 6.0) * Ld

    def feed(row, pairs):
        if complete:
            for key in iE:
                A[row, iE[key]] -= gam / 8.0
        else:
            for key, coeff in pairs:
                A[row, iE[key]] -= gam * coeff

    row = 8
    A[row, iG["22-2"]] = gg + cu / 3.0 + cd
    feed(row, [("u-2", 1 / 3), ("u-1", 1 / 6), ("d-1", 1 / 2)])
    b[row] = gg / 8.0

    row = 9
    A[row, iG["22-1"]] = gg + (cu + cd) / 2.0
    feed(row, [("u-2", 1 / 6), ("u-1", 1 / 12), ("u0", 1 / 4),
               ("d-1", 1 / 4), ("d0", 1 / 4)])
    b[row] = gg / 8.0

    row = 10
    A[row, iG["220"]] = gg + (cu + cd / 3.0) / 2.0
    A[row, J] -= 0.5 * au + ad / 6.0
    A[row, R] -= 0.5 * cu + cd / 6.0
    feed(row, [("u-1", 1 / 4), ("u1", 1 / 4), ("d-1", 1 / 12),
               ("d0", 1 / 3), ("d1", 1 / 12)])
    b[row] = gg / 8.0

    row = 11
    A[row, iG["221"]] = gg + cu / 3.0
    feed(row, [("u2", 1 / 6), ("u1", 1 / 12), ("u0", 1 / 4),
               ("d1", 1 / 4), ("d0", 1 / 4)])
    b[row] = gg / 8.0

    row = 12
    A[row, iG["222"]] = gg
    feed(row, [("u2", 1 / 3), ("u1", 1 / 6), ("d1", 1 / 2)])
    b[row] = gg / 8.0

    row = 13
    A[row, iG["11-1"]] = gg + (cu + cd) / 6.0
    feed(row, [("u-2", 1 / 2), ("u-1", 1 / 4), ("u0", 1 / 12),
               ("d-1", 1 / 12), ("d0", 1 / 12)])
    b[row] = gg / 8.0

    row = 14
    A[row, iG["110"]] = gg + (cu + cd / 3.0) / 2.0
    A[row, J] += 0.5 * au + ad / 6.0
    A[row, R] -= 0.5 * cu + cd / 6.0
    feed(row, [("u-1", 1 / 4), ("u0", 1 / 3), ("u1", 1 / 4),
               ("d-1", 1 / 12), ("d1", 1 / 12)])
    b[row] = gg / 8.0

    row = 15
    A[row, iG["111"]] = gg + cu
    feed(row, [("u2", 1 / 2), ("u1", 1 / 4), ("u0", 1 / 12),
               ("d1", 1 / 12), ("d0", 1 / 12)])
    b[row] = gg / 8.0

    pump = 0.5 * (cu + cd / 3.0)
    A[16, R] = dlt
    A[16, J] = -(gg + pump)
    A[16, iG["220"]] = -0.25 * (au + ad / 3.0)
    A[16, iG["110"]] = +0.25 * (au + ad / 3.0)
    A[17, R] = gg + pump
    A[17, J] = dlt
    A[17, iG["220"]] = -0.5 * pump
    A[17, iG["110"]] = -0.5 * pump

    x = np.linalg.solve(A, b)
    return x[:8], x[8:16], complex(x[16], x[17])


def lorentzian_scan(rng, n=401, span_hz=10_000.0, center_hz=0.0,
                    fwhm_hz=1000.0, contrast=0.05, baseline=1.0,
                    slope=0.0, noise_frac=0.01, sign=+1):
    """Synthetic transmission scan with Gaussian noise on the peak amplitude."""
    f = np.linspace(center_hz - span_hz / 2, center_hz + span_hz / 2, n)
    w = fwhm_hz / 2.0
    level = baseline + slope * center_hz
    amp = sign * contrast * level / (1.0 - sign * contrast)
    clean = baseline + slope * f + amp * w**2 / ((f - center_hz) ** 2 + w**2)
    noisy = clean + rng.normal(0.0, noise_frac * abs(amp), n)
    return f, noisy, {"amplitude": abs(amp), "center_hz": center_hz,
                      "fwhm_hz": fwhm_hz, "contrast": contrast}


def parse_lines_verbatim(lines):
    """Scan parser, one line at a time: blank lines skipped, ``# key =
    value`` comment lines as metadata, an optional header before the
    first data line, then two finite comma-separated numbers per row."""
    metadata: dict = {}
    freqs: list[float] = []
    sigs: list[float] = []
    header_allowed = True
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = _parse_metadata_value(value)
            continue
        if header_allowed and line.replace(" ", "").lower() == CSV_HEADER:
            header_allowed = False
            continue
        header_allowed = False
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 comma-separated columns, got {len(parts)}",
                             line=lineno)
        try:
            f = float(parts[0])
            y = float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric value in {line!r}", line=lineno) from None
        if not (math.isfinite(f) and math.isfinite(y)):
            raise ParseError(f"non-finite value in {line!r}", line=lineno)
        freqs.append(f)
        sigs.append(y)
    return Scan(np.array(freqs), np.array(sigs), metadata)


def mirrored_offsets_verbatim(center, d_lo, d_hi, n_half):
    """center + x, then center - x, for the n_half + 1 offsets x of
    np.linspace across half the window [d_lo, d_hi]."""
    xs = np.linspace(0.0, (d_hi - d_lo) / 2.0, n_half + 1)
    return center + np.concatenate([xs, -xs])


def antisymmetric_fraction_verbatim(values, baseline):
    """||v(+x) - v(-x)|| / ||baseline - v|| over mirrored values, with
    numpy's ``** 2`` and ``.sum()``."""
    up, dn = values.reshape(2, -1)
    num = math.sqrt(((up - dn) ** 2).sum())
    den = math.sqrt(((baseline - up) ** 2).sum() + ((baseline - dn) ** 2).sum())
    return num / den if den else 0.0


def normal_equations_step(jac, r):
    """The Gauss-Newton step from JᵀJ·step = Jᵀr: both sides from one
    product M @ M.T, whose rows are the columns of ``jac`` and then ``r``,
    each starting 16-byte aligned as in the package; solved by
    np.linalg.solve."""
    n = r.size
    m = np.empty((6, n + n % 2))[:, :n]
    m[:5] = jac.T
    m[5] = r
    products = m @ m.T
    return np.linalg.solve(products[:5, :5], products[:5, 5])


def lstsq_step(jac, r):
    """The Gauss-Newton step by np.linalg.lstsq (an SVD) at its default rcond."""
    return np.linalg.lstsq(jac, r, rcond=None)[0]


def fit_verbatim(scan, step=normal_equations_step):
    """fit_resonance's FitReport (or error) for ``scan``, through np.mean,
    np.median, (u - u0) ** 2 and numpy.polynomial's polyfit: the frequency
    and the signal divided by the powers of two at the median spacing and
    at the largest |signal|, the edge baseline, the half-depth initial
    guess, Gauss-Newton with step halving, each step from ``step(jac, r)``
    (by default the normal equations as the package forms them), then the
    NoResonance checks, the affine guard on ``converged`` and the figures,
    in the scaled units, each figure multiplied back by its powers of
    two."""
    f, y_raw = scan.frequency, scan.signal
    f_mid = 0.5 * (float(f[0]) + float(f[-1]))
    x = f - f_mid
    hz = math.ldexp(1.0, math.frexp(float(np.median(np.diff(x))))[1])
    u = x / hz
    scale = math.ldexp(1.0, math.frexp(float(np.abs(y_raw).max()))[1])
    y = y_raw / scale
    n_edge = max(3, u.size // 10)
    ul, yl = float(np.mean(u[:n_edge])), float(np.median(y[:n_edge]))
    ur, yr = float(np.mean(u[-n_edge:])), float(np.median(y[-n_edge:]))
    b0 = (yr - yl) / (ur - ul)
    a0 = yl - b0 * ul
    resid = y - (a0 + b0 * u)
    i0 = int(np.argmax(np.abs(resid)))
    sign = 1 if resid[i0] >= 0 else -1
    amp0 = abs(resid[i0])
    spacing = float(np.median(np.diff(u)))
    lo, hi = level_crossings(u, -sign * resid, i0, -amp0 / 2.0)
    direct_fwhm = hi - lo
    if math.isnan(lo):
        lo = u[i0] - spacing
    if math.isnan(hi):
        hi = u[i0] + spacing
    theta = np.array([a0, b0, sign * amp0, float(u[i0]), max((hi - lo) / 2.0, spacing)])

    def evaluate(t):
        a, b, sa, u0, w = t
        lor = w**2 / ((u - u0) ** 2 + w**2)
        r = y - (a + b * u + sa * lor)
        return lor, r, float(r @ r)

    lor, r, sse = evaluate(theta)
    jac = np.empty((u.size, 5))
    jac[:, 0] = 1.0
    jac[:, 1] = u
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        _, _, sa, u0, w = theta
        du = u - u0
        jac[:, 2] = lor
        jac[:, 3] = sa * 2.0 * du * lor**2 / w**2
        jac[:, 4] = sa * 2.0 * du**2 * lor**2 / w**3
        if not (np.all(np.isfinite(jac)) and math.isfinite(sse)):
            raise NoResonance("resonance fit failed: non-finite Jacobian")
        try:
            full_step = step(jac, r)
        except np.linalg.LinAlgError as exc:
            raise NoResonance(f"resonance fit failed: {exc}") from exc
        accepted = False
        for _ in range(40):
            trial = theta + full_step
            if trial[4] > 0 and np.all(np.isfinite(trial)):
                trial_lor, trial_r, new_sse = evaluate(trial)
                if math.isfinite(new_sse) and new_sse <= sse:
                    accepted = True
                    break
            full_step = full_step / 2.0
        if not accepted:
            break
        change = sse - new_sse
        theta, lor, r, sse = trial, trial_lor, trial_r, new_sse
        if change <= SSE_RTOL * max(sse, 1e-300):
            converged = True
            break

    a, b, sa, u0, w = (float(t) for t in theta)
    sign = 1 if sa >= 0 else -1
    amp = abs(sa)
    rms = math.sqrt(sse / u.size)
    if amp <= 3.0 * rms:
        raise NoResonance(f"fitted amplitude {amp * scale:.3e} not above 3x "
                          f"residual rms {rms * scale:.3e}")
    if w < spacing:
        raise NoResonance(
            f"fitted half width {w * hz:.3e} Hz below the sample spacing")
    affine = np.polynomial.polynomial.polyfit(u, y, 1)
    affine_rms = math.sqrt(float(np.mean((y - (affine[0] + affine[1] * u)) ** 2)))
    converged = converged and rms <= affine_rms * (1.0 + 1e-12)

    baseline_at_center = a + b * u0
    contrast = amp / (baseline_at_center + sign * amp)
    mirrored = np.interp(mirrored_offsets_verbatim(u0, 0.0, 2.0 * w, 100), u,
                         y - (a + b * u))
    asymmetry = antisymmetric_fraction_verbatim(mirrored, 0.0)
    # back to Hz and to the signal's units
    a, b, amp, rms = a * scale, b * scale / hz, amp * scale, rms * scale
    baseline_at_center *= scale
    x0, w, direct_fwhm = u0 * hz, w * hz, direct_fwhm * hz
    fwhm_hz = 2.0 * w
    metrics = ResonanceMetrics(
        baseline=baseline_at_center, amplitude=amp, physical_contrast=contrast,
        fwhm_hz=fwhm_hz, center_hz=f_mid + x0, asymmetry=asymmetry,
        qfactor=contrast / fwhm_hz)
    model = FitModel(offset=a - b * f_mid, slope=b, center_hz=f_mid + x0,
                     half_width_hz=w, amplitude=amp, sign=sign)
    return FitReport(model=model, metrics=metrics, rms_residual=rms,
                     iterations=iterations, converged=converged,
                     fwhm_direct_hz=direct_fwhm)


def rate_tables_verbatim(depolarization):
    """Exact (blocks, weights) of each optical branch k (0: F_e=2, 1:
    F_e=1) from dense Fraction products of the full tables: C_k is the
    8x9 pump-coefficient matrix (the pump table's c, and 2w for Re(rho21)
    in column 8) of k's excited levels, F the 8x8 feed matrix (the
    branching table in NONE mode, 1/8 everywhere in COMPLETE mode), O the
    pump-out placement (the identity, and 1/2 on the m=0 rows in column
    8).  blocks[k] = O * colsum(C_k) - F @ C_k, padded to a flattened
    10x10; weights[k] is 2 * (the excitation table's a, and w) summed over
    k's excited levels, per column."""
    tables = build_coupling_tables()
    zero = Fraction(0)
    complete = depolarization is Depolarization.COMPLETE
    feed = [[Fraction(1, 8) if complete else zero] * 8 for _ in range(8)]
    if not complete:
        for e, rows in tables.branch.items():
            for g, b in rows:
                feed[GROUND_INDEX[g]][EXCITED_INDEX[e]] = b
    pump = [[zero] * 9 for _ in range(8)]
    excitation = [[zero] * 9 for _ in range(8)]
    for g, rows in tables.pump.items():
        for e, c in rows:
            pump[EXCITED_INDEX[e]][GROUND_INDEX[g]] = c
    for e, rows in tables.excitation.items():
        for g, a in rows:
            excitation[EXCITED_INDEX[e]][GROUND_INDEX[g]] = a
    for e, w in tables.coherence_weight.items():
        pump[EXCITED_INDEX[e]][8] = 2 * w
        excitation[EXCITED_INDEX[e]][8] = w
    placement = [[Fraction(g == j) for j in range(8)] + [Fraction(g in (_I20, _I10), 2)]
                 for g in range(8)]
    blocks, weights = [], []
    for upper in (True, False):
        ck = [row if EXCITED_IS_UPPER[e] == upper else [zero] * 9
              for e, row in enumerate(pump)]
        pump_out = [sum(ck[e][j] for e in range(8)) for j in range(9)]
        block = [[zero] * 10 for _ in range(10)]
        for g in range(8):
            for j in range(9):
                block[g][j] = (placement[g][j] * pump_out[j]
                               - sum(feed[g][e] * ck[e][j] for e in range(8)))
        blocks.append([x for row in block for x in row])
        weights.append([2 * sum(excitation[e][j] for e in range(8)
                                if EXCITED_IS_UPPER[e] == upper) for j in range(9)])
    return blocks, weights


@functools.cache
def _rounded_rate_tables(depolarization):
    """rate_tables_verbatim as float arrays, built once per mode on first
    use, so that importing this module stays cheap."""
    return tuple(np.array(t, dtype=float) for t in rate_tables_verbatim(depolarization))


@functools.cache
def _system_table_verbatim(depolarization):
    """[A0 | b | A0[:, 8:]] per unit of each of V^2*lu, V^2*ld, gamma_g, D
    and gamma_g/8, as a (5, 130) array, built once per mode: the two
    rounded blocks of rate_tables_verbatim, the unit gamma_g diagonal of
    the population block, -1/2 and +1/2 on the m=0 rows of column 9, 1 in
    the b column of the population rows, and columns 11-12 of those rows
    repeating columns 8-9."""
    table = np.zeros((5, 10, 13))
    table[:2, :, :10] = _rounded_rate_tables(depolarization)[0].reshape(2, 10, 10)
    table[2, range(8), range(8)] = 1.0
    table[3, _I20, 9] = -0.5
    table[3, _I10, 9] = 0.5
    table[4, :8, 10] = 1.0
    table[:, :8, 11:] = table[:, :8, 8:10]
    return table.reshape(5, 130)


def assemble_verbatim(params):
    """(A, b) of steady_state.assemble_linear_system: the population rows
    and b as one np.dot of the five scalars (V^2*lu, V^2*ld, gamma_g, D,
    gamma_g/8) with _system_table_verbatim, as the package forms them
    (the same product, so the same bits on every BLAS kernel), then the
    six coherence-row entries and delta_raman on the two coherence
    diagonals, one update at a time."""
    lf = lorentz_factors(params)
    gg = params.gamma_g
    v2 = params.rabi**2
    P = v2 * (lf.lu + lf.ld / 3.0)
    D = lf.du + lf.dd / 3.0

    M = np.dot((v2 * lf.lu, v2 * lf.ld, gg, D, gg / 8.0),
               _system_table_verbatim(params.depolarization)).reshape(10, 13)
    A, b = M[:, :10], M[:, 10]

    width = gg + P / 2.0
    A[8, 8] = params.delta_raman
    A[8, 9] = -width
    A[8, _I20] = -D / 4.0
    A[8, _I10] = +D / 4.0
    A[9, 8] = width
    A[9, 9] = params.delta_raman
    A[9, _I20] = -P / 4.0
    A[9, _I10] = -P / 4.0
    return A, b


def factorization_verbatim(params):
    """What steady_state.RationalLineshape(params) forms, as a dict: the
    delta-free A0 and b, y0, Z, S, r, and the scalars c0, p0, p1, q0, q1.
    The Lorentz factors are formed once more for the rho_ee weights, the
    two branch rates over gamma times rate_tables_verbatim's rounded
    weights."""
    A0, b = assemble_verbatim(params)
    A0[8, 8] = A0[9, 9] = 0.0
    rhs = np.empty((8, 3))
    rhs[:, 0], rhs[:, 1:] = b[:8], A0[:8, 8:]
    Y = np.linalg.solve(A0[:8, :8], rhs)
    y0, Z = Y[:, 0], Y[:, 1:]
    S = A0[8:, 8:] - A0[8:, :8] @ Z
    r = -(A0[8:, :8] @ y0)
    (s00, s01), (s10, s11) = S.tolist()
    r0, r1 = r.tolist()

    lf = lorentz_factors(params)
    v2g = params.rabi**2 / params.gamma_nat
    w = np.dot((v2g * lf.lu, v2g * lf.ld), _rounded_rate_tables(params.depolarization)[1])
    c0, z0, z1 = (w[:8] @ Y).tolist()
    g0, g1 = float(w[8]) - z0, 0.0 - z1
    return {
        "A0": A0, "b": b, "y0": y0, "Z": Z, "S": S, "r": r,
        "c0": c0,
        "q1": s00 + s11, "q0": s00 * s11 - s01 * s10,
        "p1": g0 * r0 + g1 * r1,
        "p0": g0 * (s11 * r0 - s01 * r1) + g1 * (s00 * r1 - s10 * r0),
    }


def checked_call_verbatim(f, deltas):
    """What the package forms at ``deltas`` from a factorization_verbatim
    dict ``f``, as (x, rho) with one column of x per detuning.  x holds the
    19 delta-free rows of RationalLineshape._rows (rows 0-9 the residual
    A(delta) x - b, row 10 the trace less 1, rows 11-18 the ground
    populations), each evaluated as c + (a*t + b) / (t^2 + hw2) with t =
    delta + q1/2, then Re and Im rho21 as (a*t + b) / (t^2 + hw2) of the
    rows [0 | -I]: what solve_steady_state forms at its one detuning.  rho
    is the rho_ee of a RationalLineshape call: the closed form c0 +
    (p1*delta + p0) / (delta^2 + q1*delta + q0) of f's scalars."""
    (s00, s01), (s10, s11) = f["S"].tolist()
    r0, r1 = f["r"].tolist()
    Y = np.empty((8, 3))
    Y[:, 0] = f["y0"]
    Y[:, 1:] = f["Z"]
    rows = np.empty((19, 3))
    rows[:10] = f["A0"][:, :8] @ Y
    rows[:8, 0] -= f["b"][:8]
    rows[:8, 1:] -= f["A0"][:8, 8:]
    rows[8:10, 0] += f["r"]
    rows[8:10, 1:] += f["S"] - f["A0"][8:, 8:]
    rows[10] = Y.sum(axis=0)
    rows[10, 0] -= 1.0
    rows[11:] = Y
    ab = rows[:, 1:] @ np.array([[-r0, s01 * r1 - s11 * r0],
                                 [-r1, s10 * r0 - s00 * r1]])
    a = ab[:, 0]
    b = ab[:, 1] - (0.5 * f["q1"]) * a
    b_coh = np.empty(2)
    b_coh[0] = s11 * r0 - s01 * r1 - (0.5 * f["q1"]) * r0
    b_coh[1] = s00 * r1 - s10 * r0 - (0.5 * f["q1"]) * r1
    t = deltas + 0.5 * f["q1"]
    den = t * t + (f["q0"] - 0.25 * f["q1"] * f["q1"])
    x = np.empty((21, deltas.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x[:19] = rows[:, :1] + (a[:, None] * t + b[:, None]) / den
        x[19:] = (f["r"][:, None] * t + b_coh[:, None]) / den
        rho = f["c0"] + (f["p1"] * deltas + f["p0"]) / ((deltas + f["q1"]) * deltas + f["q0"])
    return x, rho
