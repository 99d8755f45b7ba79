"""Raman-detuning sweeps and resonance figures of merit.

The model observable is the total excited-state population rho_ee as a
function of the two-photon detuning delta.  The dark state forms at
delta = 0, so rho_ee shows a dip there (the transmitted intensity
correspondingly peaks).  All metrics below are defined on that dip:

* physical contrast  [rho_ee(far) - rho_ee(0)] / rho_ee(far), with the
  far-detuned baseline obtained by pushing |delta| out by doubling
  factors until it stabilizes;
* FWHM from the two half-depth crossings of a sampled lineshape;
* asymmetry as the L2 fraction of the antisymmetric part of the dip
  about its extremum, over the FWHM window;
* quality factor = contrast / FWHM(Hz).

All detunings in this module are angular (rad/s) except where a name
ends in ``_hz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .errors import (NonConvergentBaseline, NoResonance, NotBracketed,
                     ParameterError, Unbracketed)
from .params import TWO_PI, ModelParams, lorentz_factors, pump_rate
from .steady_state import rho_ee_many

BASELINE_K_START = 1e3
BASELINE_K_MAX = 1e9
BASELINE_RTOL = 1e-6
PROBE_PUMPING_STRENGTH = 1e-3     # "zero-power" reference for broadening
CALIBRATION_BRACKET = (1e-4, 1e4)  # pumping-strength bracket for the V search
MIN_SAMPLES_IN_FWHM = 50
MIN_GAP_REL = 1e-9                # closest refinement detuning, share of the sweep span


class Spacing(Enum):
    LINEAR = "linear"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class SweepSpec:
    """Sampling plan for a detuning sweep (angular units)."""

    delta_min: float
    delta_max: float
    n_points: int = 1001
    spacing: Spacing = Spacing.ADAPTIVE

    def __post_init__(self):
        if not self.delta_min < self.delta_max:
            raise ParameterError("delta_min must be < delta_max")
        if self.n_points < 3:
            raise ParameterError("n_points must be >= 3")


@dataclass(frozen=True)
class Lineshape:
    """Sampled rho_ee(delta) curve with the parameters that produced it."""

    deltas: np.ndarray
    rho_ee: np.ndarray
    params: ModelParams

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        y = np.asarray(self.rho_ee, dtype=float)
        if d.ndim != 1 or d.shape != y.shape:
            raise ParameterError("deltas and rho_ee must be matching 1-d arrays")
        if d.size >= 2 and not np.all(np.diff(d) > 0):
            raise ParameterError("deltas must be strictly increasing")
        if y.size and y.min() < 0:
            raise ParameterError("rho_ee must be nonnegative")
        object.__setattr__(self, "deltas", d)
        object.__setattr__(self, "rho_ee", y)

    @cached_property
    def _spline(self) -> CubicSpline:
        """Not-a-knot cubic spline through the samples, built once and
        shared by the center and the asymmetry."""
        return CubicSpline(self.deltas, self.rho_ee)


@dataclass(frozen=True)
class ContrastSummary:
    baseline: float
    amplitude: float
    physical_contrast: float


@dataclass(frozen=True)
class ResonanceMetrics:
    baseline: float
    amplitude: float
    physical_contrast: float
    fwhm_hz: float
    center_hz: float
    asymmetry: float
    qfactor: float


def halfwidth_estimate(params: ModelParams) -> float:
    """Expected resonance half width gamma_g + pump_rate/2 (rad/s)."""
    return params.gamma_g + pump_rate(params) / 2.0


def default_sweep_spec(params: ModelParams, span_halfwidths: float = 20.0,
                       n_points: int = 1001,
                       spacing: Spacing = Spacing.ADAPTIVE) -> SweepSpec:
    hw = halfwidth_estimate(params)
    return SweepSpec(-span_halfwidths * hw, span_halfwidths * hw,
                     n_points, spacing)


def sweep(params: ModelParams, spec: SweepSpec) -> Lineshape:
    """Sample rho_ee over the requested detuning grid.

    ADAPTIVE spacing starts from the linear grid and inserts points
    across the dip until the half-depth span holds at least
    max(MIN_SAMPLES_IN_FWHM, n_points/3) samples.  Each round solves
    only its new detunings and merges them into the sorted samples; a
    new detuning within MIN_GAP_REL * (delta_max - delta_min) of a kept
    sample is dropped, since a spline through such a near-duplicate pair
    turns roundoff in rho_ee into center and asymmetry errors.
    """
    deltas = np.linspace(spec.delta_min, spec.delta_max, spec.n_points)
    ys = rho_ee_many(params, deltas)
    if spec.spacing is Spacing.LINEAR:
        return Lineshape(deltas, ys, params)

    # target sampling inside the dip scales with the requested grid so
    # that doubling n_points keeps halving the in-window spacing
    target = max(MIN_SAMPLES_IN_FWHM, spec.n_points // 3)
    min_gap = MIN_GAP_REL * (spec.delta_max - spec.delta_min)
    for _ in range(12):
        try:
            lo, hi = _half_depth_crossings(deltas, ys)
        except (NoResonance, Unbracketed):
            break
        inside = int(np.count_nonzero((deltas > lo) & (deltas < hi)))
        if inside >= target:
            break
        width = hi - lo
        extra = np.linspace(lo - width, hi + width, max(spec.n_points, 51))
        extra = extra[(extra >= spec.delta_min) & (extra <= spec.delta_max)]
        at = np.searchsorted(deltas, extra)
        gap = np.minimum(extra - deltas[np.maximum(at - 1, 0)],
                         deltas[np.minimum(at, deltas.size - 1)] - extra)
        keep = gap > min_gap
        if not keep.any():
            break
        extra, at = extra[keep], at[keep]
        deltas = np.insert(deltas, at, extra)
        ys = np.insert(ys, at, rho_ee_many(params, extra))
    return Lineshape(deltas, ys, params)


def _edge_baseline(ys: np.ndarray) -> float:
    return 0.5 * (float(ys[0]) + float(ys[-1]))


def _half_depth_crossings(deltas: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Locate the two half-depth crossings of a dip by linear interpolation."""
    baseline = _edge_baseline(ys)
    i_min = int(np.argmin(ys))
    depth = baseline - float(ys[i_min])
    # flatness guard, relative so it works at any rho_ee magnitude
    scale = max(abs(baseline), abs(float(ys[i_min])), 1e-300)
    if depth <= 1e-12 * scale:
        raise NoResonance("no dip below the baseline")
    half = baseline - depth / 2.0

    left = np.nonzero(ys[:i_min] >= half)[0]
    if left.size == 0:
        raise Unbracketed("left half-depth crossing outside the sweep")
    j = int(left[-1])
    d_lo = deltas[j] + (half - ys[j]) * (deltas[j + 1] - deltas[j]) / (ys[j + 1] - ys[j])

    right = np.nonzero(ys[i_min:] >= half)[0]
    if right.size == 0:
        raise Unbracketed("right half-depth crossing outside the sweep")
    k = i_min + int(right[0])
    d_hi = deltas[k - 1] + (half - ys[k - 1]) * (deltas[k] - deltas[k - 1]) / (ys[k] - ys[k - 1])
    return float(d_lo), float(d_hi)


def fwhm(shape: Lineshape) -> float:
    """Full width at half depth of the dip, in Hz."""
    d_lo, d_hi = _half_depth_crossings(shape.deltas, shape.rho_ee)
    return (d_hi - d_lo) / TWO_PI


def _piece(spline: PPoly, k0: int, k1: int) -> PPoly:
    """The polynomial pieces of ``spline`` on intervals k0..k1-1."""
    return PPoly(spline.c[:, k0:k1], spline.x[k0:k1 + 1])


def _extremum_location(shape: Lineshape) -> float:
    """Dip position from a cubic-spline derivative root near the minimum.

    The antisymmetric metric is steeply sensitive to center errors, so
    the quadratic-vertex estimate (O(h^2) bias) is not enough; the
    spline root carries an O(h^4) bias instead.  Only the four intervals
    within two samples of the sampled minimum are searched.
    """
    deltas, ys = shape.deltas, shape.rho_ee
    i = int(np.argmin(ys))
    if i == 0 or i == ys.size - 1:
        return float(deltas[i])
    lo, hi = max(i - 2, 0), min(i + 2, ys.size - 1)
    spline = shape._spline
    roots = _piece(spline, lo, hi).derivative().roots(extrapolate=False)
    candidates = roots[(roots >= deltas[lo]) & (roots <= deltas[hi])]
    if candidates.size == 0:
        return float(deltas[i])
    values = spline(candidates)
    return float(candidates[int(np.argmin(values))])


def _level_crossings(spline: PPoly, level: float,
                     center: float) -> tuple[float | None, float | None]:
    """Nearest roots of spline == level below and above ``center``.

    Equal to taking the largest root below and the smallest above from
    spline.solve(level, extrapolate=False), without solving every
    interval.  A cubic piece lies within the hull of its Bernstein
    coefficients, so an interval whose hull (widened for rounding) misses
    the level holds no root.  The remaining intervals are solved
    outward from the center on each side, up to the first root found.
    """
    x, c = spline.x, spline.c
    h = np.diff(x)
    d0 = c[3] - level
    d1 = d0 + c[2] * h / 3.0
    d2 = d1 + (c[2] * h + c[1] * h * h) / 3.0
    d3 = d0 + c[2] * h + c[1] * h * h + c[0] * h**3
    hull = np.stack([d0, d1, d2, d3])
    slack = 1e-9 * (np.abs(c[3]).max() + abs(level))
    maybe = (hull.min(axis=0) <= slack) & (hull.max(axis=0) >= -slack)

    def nearest(ks, side):
        for k in ks:
            roots = _piece(spline, k, k + 1).solve(level, extrapolate=False)
            roots = roots[side * (roots - center) > 0]
            if roots.size:
                return float(roots.min() if side > 0 else roots.max())
        return None

    k = np.nonzero(maybe)[0]
    below = nearest(k[x[k] < center][::-1], -1)
    above = nearest(k[x[k + 1] > center], +1)
    return below, above


def resonance_center(shape: Lineshape) -> float:
    """Extremum location of the dip (rad/s)."""
    return _extremum_location(shape)


def asymmetry(shape: Lineshape, n_half: int = 200) -> float:
    """Antisymmetric L2 fraction of the dip about its extremum.

    Samples the lineshape's cubic spline (the one the center also uses)
    at mirrored offsets delta_c +/- x across the FWHM window and returns
    ||rho(+x) - rho(-x)|| / ||baseline - rho||.  The window ends are the
    spline's half-depth crossings nearest the center, or the linear
    crossings where the spline has none on a side.  Zero for a perfectly
    symmetric dip.
    """
    deltas, ys = shape.deltas, shape.rho_ee
    d_lo, d_hi = _half_depth_crossings(deltas, ys)
    center = _extremum_location(shape)
    baseline = _edge_baseline(ys)

    # spline-refined window and samples: the metric is first-order
    # sensitive to the window span, so the O(h^2) linear crossings would
    # dominate its grid error
    spline = shape._spline
    half = 0.5 * (baseline + float(spline(center)))
    below, above = _level_crossings(spline, half, center)
    if below is not None and above is not None:
        d_lo, d_hi = below, above
    xs = np.linspace(0.0, (d_hi - d_lo) / 2.0, n_half + 1)
    up = spline(center + xs)
    dn = spline(center - xs)
    num = float(np.sqrt(np.sum((up - dn) ** 2)))
    den = float(np.sqrt(np.sum((baseline - up) ** 2) + np.sum((baseline - dn) ** 2)))
    if den == 0.0:
        return 0.0
    return num / den


def physical_contrast(params: ModelParams) -> ContrastSummary:
    """Contrast of the dip against the far-detuned baseline.

    The baseline is the mean of rho_ee at delta = +/- K*W with
    W = max(gamma_g, V^2*lu); K starts at BASELINE_K_START and doubles
    until the baseline moves by less than BASELINE_RTOL relative.
    """
    if params.rabi == 0.0:
        return ContrastSummary(0.0, 0.0, 0.0)
    lf = lorentz_factors(params)
    w = max(params.gamma_g, params.rabi**2 * lf.lu)
    at_zero = float(rho_ee_many(params, np.array([0.0]))[0])

    def baseline_at(k: float) -> float:
        vals = rho_ee_many(params, np.array([-k * w, k * w]))
        return float(vals.mean())

    k = BASELINE_K_START
    prev = baseline_at(k)
    while k <= BASELINE_K_MAX:
        k *= 2.0
        cur = baseline_at(k)
        if abs(cur - prev) <= BASELINE_RTOL * abs(prev):
            amplitude = cur - at_zero
            return ContrastSummary(cur, amplitude, amplitude / cur)
        prev = cur
    raise NonConvergentBaseline(
        f"baseline still drifting at |delta| = {k:.3e} * W")


def calibrate_power_broadening(params: ModelParams, multiple: float = 3.0) -> float:
    """Rabi frequency whose excess FWHM is ``multiple`` times the zero-power FWHM.

    The zero-power reference width is measured at the probe level
    V^2*lu = PROBE_PUMPING_STRENGTH * gamma_g; the returned V satisfies
    FWHM(V) = (1 + multiple) * FWHM(probe).  Solved by bisection on
    log V to 1e-6 relative within the CALIBRATION_BRACKET pumping
    strengths.
    """
    if multiple < 0:
        raise ParameterError("broadening multiple must be >= 0")
    lf = lorentz_factors(params)

    def v_for(s: float) -> float:
        return math.sqrt(s * params.gamma_g / lf.lu)

    def width_at(v: float) -> float:
        p = params.replace(rabi=v)
        shape = sweep(p, default_sweep_spec(p, span_halfwidths=25.0, n_points=241))
        return fwhm(shape) * TWO_PI

    w0 = width_at(v_for(PROBE_PUMPING_STRENGTH))
    target = (1.0 + multiple) * w0

    lo, hi = (v_for(s) for s in CALIBRATION_BRACKET)
    w_lo, w_hi = width_at(lo), width_at(hi)
    if not (w_lo <= target <= w_hi):
        raise NotBracketed(
            f"target width {target:.6e} rad/s outside attainable "
            f"[{w_lo:.6e}, {w_hi:.6e}]")

    ln_lo, ln_hi = math.log(lo), math.log(hi)
    while ln_hi - ln_lo > 1e-6:
        mid = 0.5 * (ln_lo + ln_hi)
        if width_at(math.exp(mid)) < target:
            ln_lo = mid
        else:
            ln_hi = mid
    return math.exp(0.5 * (ln_lo + ln_hi))


def qfactor(metrics: ResonanceMetrics) -> float:
    """Contrast-to-width ratio (per Hz)."""
    if not metrics.fwhm_hz > 0:
        raise ParameterError("fwhm_hz must be > 0")
    return metrics.physical_contrast / metrics.fwhm_hz


def resonance_metrics(params: ModelParams, spec: SweepSpec | None = None,
                      shape: Lineshape | None = None) -> ResonanceMetrics:
    """All figures of merit for one parameter set.

    Contrast comes from the asymptotic-baseline procedure; width,
    center, and asymmetry from a sampled sweep (the default adaptive
    sweep when neither ``spec`` nor a precomputed ``shape`` is given).
    """
    summary = physical_contrast(params)
    if shape is None:
        shape = sweep(params, spec or default_sweep_spec(params))
    width_hz = fwhm(shape)
    center = resonance_center(shape)
    return ResonanceMetrics(
        baseline=summary.baseline,
        amplitude=summary.amplitude,
        physical_contrast=summary.physical_contrast,
        fwhm_hz=width_hz,
        center_hz=center / TWO_PI,
        asymmetry=asymmetry(shape),
        qfactor=summary.physical_contrast / width_hz,
    )
