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
the reference for the package's bulk conversion.

Ground ordering matches the package: (2,-2), (2,-1), (2,0), (2,1),
(2,2), (1,-1), (1,0), (1,1); excited ordering u(-2..2) then d(-1..1).
"""

import math

import numpy as np

from cptsim.errors import ParseError
from cptsim.scans import CSV_HEADER, Scan, _parse_metadata_value


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
