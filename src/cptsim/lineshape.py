"""Raman-detuning sweeps and resonance figures of merit.

The model observable is the total excited-state population rho_ee as a
function of the two-photon detuning delta.  The dark state forms at
delta = 0, so rho_ee shows a dip there (the transmitted intensity
correspondingly peaks).  All metrics below are defined on that dip:

* physical contrast  [c0 - rho_ee(0)] / c0, against the exact
  far-detuned baseline c0 = rho_ee(|delta| -> inf);
* FWHM between the two crossings of the level halfway from the edge
  baseline (the mean of rho_ee at the two window edges) to the bottom;
* center, the extremum of the dip, and asymmetry, the L2 fraction of
  the dip's antisymmetric part about it over the FWHM window;
* quality factor = contrast / FWHM(Hz).

Model metrics (``physical_contrast``, ``resonance_metrics(params)``,
``calibration_fwhm``, ``calibrate_power_broadening``) are exact: rho_ee
is a rational function of delta (``steady_state.RationalLineshape``), so
c0 is its limit, the center and the crossings are roots of quadratics,
and each factorization whose value a call returns or decides on is
certified once, for every real detuning and the limit
(``RationalLineshape.certify``).  ``sweep`` samples that same
rational function, placing its ADAPTIVE grid from the exact crossings.
Sampled metrics (``fwhm``, ``resonance_center``, ``asymmetry`` of a
``Lineshape``) use linear crossings and a local cubic through the
samples, with an O(h^4) value error at sample spacing h; they serve
sampled and measured curves.

All detunings in this module are angular (rad/s) except where a name
ends in ``_hz``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoResonance, NotBracketed, ParameterError, Unbracketed
from .params import TWO_PI, ModelParams, lorentz_factors, rabi_for_pumping_strength
from .steady_state import RationalLineshape

PROBE_PUMPING_STRENGTH = 1e-3     # "zero-power" reference for broadening
CALIBRATION_BRACKET = (1e-4, 1e4)  # pumping-strength bracket for the V search
MIN_SAMPLES_IN_FWHM = 50
# +/- windows in estimated half widths: of the metrics and default sweeps,
# and of the calibration widths
METRIC_SPAN_HALFWIDTHS = 20.0
CALIBRATION_SPAN_HALFWIDTHS = 25.0
ASYMMETRY_OFFSETS = 200  # n_half of the model and sampled asymmetries' offsets
BROADENING_MULTIPLE = 3.0  # default excess FWHM of the calibration (fig 1: 3x)


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
        # finite bounds alone can still overflow linspace's span
        if not math.isfinite(self.delta_max - self.delta_min):
            raise ParameterError("delta_max - delta_min must be finite")
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
    """An estimate gamma_g + V^2*(lu + ld/3)/2 (rad/s) of the resonance
    half width, the coherence damping rate, used to size detuning windows.

    It overstates the width at strong pumping (about 46 times at s = 1e4
    in the fig-1 geometry).  The exact half width of the model's
    Lorentzian denominator is sqrt(q0 - q1^2/4) of
    ``steady_state.RationalLineshape``.
    """
    lf = lorentz_factors(params)
    return params.gamma_g + params.rabi**2 * (lf.lu + lf.ld / 3.0) / 2.0


def default_sweep_spec(params: ModelParams, span_halfwidths: float = METRIC_SPAN_HALFWIDTHS,
                       n_points: int = SweepSpec.n_points,
                       spacing: Spacing = SweepSpec.spacing) -> SweepSpec:
    hw = halfwidth_estimate(params)
    return SweepSpec(-span_halfwidths * hw, span_halfwidths * hw,
                     n_points, spacing)


def sweep(params: ModelParams, spec: SweepSpec) -> Lineshape:
    """Sample rho_ee over the requested detuning grid.

    One RationalLineshape factorization places the grid, and one call of
    it, certified, gives rho_ee at every detuning on it.  ADAPTIVE spacing
    places the grid in one step from the exact half-depth crossings lo, hi
    of the model dip (``_model_dip`` at +/-20 estimated half widths): the
    linear samples in [lo - w, hi + w], w = hi - lo, clipped to the span,
    are replaced by an even grid that puts at least
    max(MIN_SAMPLES_IN_FWHM, n_points // 3) samples inside the FWHM, and
    linear samples within half its spacing of that window are dropped.
    The linear grid is kept when the model has no dip, a crossing lies
    outside the span, or the linear grid already holds that many samples.
    """
    return _sample(RationalLineshape(params), spec)


def _sample(model: RationalLineshape, spec: SweepSpec) -> Lineshape:
    """``sweep`` of an already factorized model."""
    deltas = np.linspace(spec.delta_min, spec.delta_max, spec.n_points)
    if spec.spacing is Spacing.ADAPTIVE:
        deltas = _adaptive_grid(model, spec, deltas)
    return Lineshape(deltas, model(deltas), model.params)


def _adaptive_grid(model: RationalLineshape, spec: SweepSpec,
                   deltas: np.ndarray) -> np.ndarray:
    """The linear grid ``deltas`` refined across the model dip (see ``sweep``)."""
    try:
        dip = _model_dip(model, METRIC_SPAN_HALFWIDTHS)
    except (NoResonance, Unbracketed):
        return deltas
    # target sampling inside the dip scales with the requested grid so
    # that doubling n_points keeps halving the in-window spacing
    target = max(MIN_SAMPLES_IN_FWHM, spec.n_points // 3)
    inside = np.count_nonzero((deltas > dip.lo) & (deltas < dip.hi))
    if not spec.delta_min < dip.lo < dip.hi < spec.delta_max or inside >= target:
        return deltas
    width = dip.hi - dip.lo
    a = max(dip.lo - width, spec.delta_min)
    b = min(dip.hi + width, spec.delta_max)
    # a spacing <= width / (target + 1) puts >= target samples in (lo, hi)
    fine = np.linspace(a, b, math.ceil((b - a) / width * (target + 1)) + 1)
    half = 0.5 * (fine[1] - fine[0])
    return np.concatenate([deltas[deltas < a - half], fine, deltas[deltas > b + half]])


def _dip(ys: np.ndarray) -> tuple[int, float, float]:
    """Index of the minimum, baseline (mean of the two edge samples) and
    depth of a dip."""
    baseline = 0.5 * (float(ys[0]) + float(ys[-1]))
    i_min = int(np.argmin(ys))
    depth = baseline - float(ys[i_min])
    _require_depth(depth, baseline, float(ys[i_min]))
    return i_min, baseline, depth


def _require_depth(depth: float, baseline: float, bottom: float) -> None:
    """NoResonance unless a dip's depth exceeds 1e-12 of the larger of its
    rho_ee values |baseline|, |bottom|: flatness at any rho_ee magnitude."""
    if depth <= 1e-12 * max(abs(baseline), abs(bottom), 1e-300):
        raise NoResonance("no dip below the baseline")


def _brackets(ys: np.ndarray, i: int, level: float) -> tuple[int | None, int | None]:
    """Sample intervals [j, j+1] nearest sample i, one on each side, across
    which ys reaches ``level`` from below; None where there is none, and
    on both sides unless ys[i] lies below the level."""
    if not ys[i] < level:
        return None, None
    left = (ys[:i] >= level).nonzero()[0]
    right = (ys[i + 1:] >= level).nonzero()[0]
    return (int(left[-1]) if left.size else None,
            i + int(right[0]) if right.size else None)


def level_crossings(xs: np.ndarray, ys: np.ndarray, i: int,
                    level: float) -> tuple[float, float]:
    """Linear crossings of ``level`` nearest a dip at sample i, one on each
    side, on the intervals ``_brackets`` finds; nan where it finds none.
    For a peak, pass -ys and -level."""
    return tuple(math.nan if j is None else
                 float(xs[j] + (level - ys[j]) * (xs[j + 1] - xs[j]) / (ys[j + 1] - ys[j]))
                 for j in _brackets(ys, i, level))


def _half_depth_crossings(deltas: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Locate the two half-depth crossings of a dip by linear interpolation."""
    i_min, baseline, depth = _dip(ys)
    d_lo, d_hi = level_crossings(deltas, ys, i_min, baseline - depth / 2.0)
    if math.isnan(d_lo):
        raise Unbracketed("left half-depth crossing outside the sweep")
    if math.isnan(d_hi):
        raise Unbracketed("right half-depth crossing outside the sweep")
    return d_lo, d_hi


def fwhm(shape: Lineshape) -> float:
    """Full width at half depth of the dip, in Hz."""
    d_lo, d_hi = _half_depth_crossings(shape.deltas, shape.rho_ee)
    return (d_hi - d_lo) / TWO_PI


def _local_cubic(xs: np.ndarray, ys: np.ndarray, k0: int, k1: int) -> np.ndarray:
    """Coefficients of the local cubic on the sample intervals k0..k1-1.

    On each interval, the cubic Hermite interpolant of its two samples,
    with the slope at a sample the mean of the slopes there of the
    four-point cubics (through samples k-1..k+2 of interval k, shifted
    inward at the ends) of the two intervals that meet at it; value error
    O(h^4) at spacing h.  The four-point cubics alone kink by O(h^3) in
    slope at each sample, enough to snap a nearby dip minimum onto it.
    Row r holds the powers of u = t - xs[k0 + r], highest first.
    """
    n = xs.size
    if n < 4:
        raise ParameterError("the local cubic needs at least four samples")
    # row r: the interval left of sample k0 + r; row r + 1: the one right of it
    e = np.minimum(np.maximum(np.arange(k0 - 1, k1 + 1), 0), n - 2)
    nodes = np.minimum(np.maximum(e - 1, 0), n - 4)[:, None] + np.arange(4)
    x, y = xs[nodes], ys[nodes]
    d1 = (y[:, 1:] - y[:, :-1]) / (x[:, 1:] - x[:, :-1])
    d2 = (d1[:, 1:] - d1[:, :-1]) / (x[:, 2:] - x[:, :-2])
    d3 = (d2[:, 1] - d2[:, 0]) / (x[:, 3] - x[:, 0])

    def slope(r):  # slopes at samples k0..k1 of the four-point cubics in rows r
        a = xs[k0:k1 + 1, None] - x[r, :3]
        return (d1[r, 0] + d2[r, 0] * (a[:, 0] + a[:, 1])
                + d3[r] * (a[:, 0] * a[:, 1] + a[:, 2] * (a[:, 0] + a[:, 1])))

    m = 0.5 * (slope(np.s_[:-1]) + slope(np.s_[1:]))
    m0, m1 = m[:-1], m[1:]
    h = xs[k0 + 1:k1 + 1] - xs[k0:k1]
    d = (ys[k0 + 1:k1 + 1] - ys[k0:k1]) / h
    return np.stack([(m0 + m1 - 2.0 * d) / h**2, (3.0 * d - 2.0 * m0 - m1) / h,
                     m0, ys[k0:k1]], axis=1)


def _horner(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    return ((p[:, 0] * u + p[:, 1]) * u + p[:, 2]) * u + p[:, 3]


def _extremum_location(deltas: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Dip position and the local cubic's value there: the lowest root of
    its derivative (a quadratic) within two samples of the sampled minimum.
    The cubic's O(h^4) value error leaves an O(h^3) center error, against
    O(h^2) for a quadratic vertex; the asymmetry is steeply sensitive to it."""
    i = int(np.argmin(ys))
    if i == 0 or i == ys.size - 1:
        return float(deltas[i]), float(ys[i])
    k0, k1 = max(i - 2, 0), min(i + 2, ys.size - 1)
    p = _local_cubic(deltas, ys, k0, k1)
    u = np.array([_quadratic_roots(3.0 * a, 2.0 * b, c) for a, b, c, _ in p.tolist()])
    row, col = np.nonzero((u >= 0.0) & (u <= np.diff(deltas[k0:k1 + 1])[:, None]))
    if row.size == 0:
        return float(deltas[i]), float(ys[i])
    u = u[row, col]
    values = _horner(p[row], u)
    best = int(np.argmin(values))
    return float(deltas[k0 + row[best]] + u[best]), float(values[best])


def _cubic_crossings(deltas: np.ndarray, ys: np.ndarray, i: int,
                     level: float) -> tuple[float, float]:
    """Crossings of the local cubic with ``level`` nearest a dip at sample i:
    on each side, the cubic's root nearest the linear crossing on the
    interval ``_brackets`` finds (the cubic runs through its samples)."""
    j_lo, j_hi = _brackets(ys, i, level)
    if j_lo is None or j_hi is None:
        raise Unbracketed("half level of the local cubic not bracketed by the samples")
    j = np.array([j_lo, j_hi])
    p = _local_cubic(deltas, ys, j_lo, j_hi + 1)[[0, -1]]
    p[:, 3] -= level
    h = deltas[j + 1] - deltas[j]
    linear = (level - ys[j]) * h / (ys[j + 1] - ys[j])
    u = [r[np.argmin(np.abs(r - g))].real for r, g in zip(map(np.roots, p), linear)]
    d_lo, d_hi = deltas[j] + np.clip(u, 0.0, h)
    return float(d_lo), float(d_hi)


def resonance_center(shape: Lineshape) -> float:
    """Extremum location of the dip (rad/s)."""
    return _extremum_location(shape.deltas, shape.rho_ee)[0]


def asymmetry(shape: Lineshape) -> float:
    """Antisymmetric L2 fraction of the dip about its extremum.

    Samples the local cubic (O(h^4) value error) at mirrored offsets
    delta_c +/- x across the window between its crossings of the level
    halfway from the baseline to its value at the center, and returns
    ||rho(+x) - rho(-x)|| / ||baseline - rho||; zero for a symmetric dip.
    """
    deltas, ys = shape.deltas, shape.rho_ee
    center, bottom = _extremum_location(deltas, ys)
    i_min, baseline, _ = _dip(ys)
    # the metric is first-order sensitive to the window span, so O(h^2)
    # linear crossings would dominate its grid error
    d_lo, d_hi = _cubic_crossings(deltas, ys, i_min, 0.5 * (baseline + bottom))
    t = _mirrored_offsets(center, d_lo, d_hi, ASYMMETRY_OFFSETS)
    k = np.clip(np.searchsorted(deltas, t, side="right") - 1, 0, ys.size - 2)
    k0 = int(k.min())
    p = _local_cubic(deltas, ys, k0, int(k.max()) + 1)
    return _antisymmetric_fraction(_horner(p[k - k0], t - deltas[k]), baseline)


def _mirrored_offsets(center, d_lo, d_hi, n_half: int) -> np.ndarray:
    """center + x, then center - x, for n_half + 1 offsets x across half
    the window [d_lo, d_hi]: the x of np.linspace(0.0, stop, n_half + 1),
    formed with linspace's own arithmetic, and center - x, which is the
    same double as center + (-x).  center, d_lo and d_hi are floats (one
    window, 2 * (n_half + 1) offsets) or columns, arrays of shape (k, 1)
    (k windows, one row of offsets each); a row whose step underflows is
    scaled as linspace scales it."""
    stop = (d_hi - d_lo) / 2.0
    step = stop / n_half
    xs = np.arange(n_half + 1.0) * step
    under = step == 0.0  # a bool, or a column of them
    if under.any() if isinstance(under, np.ndarray) else under:
        xs = np.where(under, np.arange(n_half + 1.0) / n_half * stop, xs)
    xs += 0.0
    xs[..., -1:] = stop
    m = n_half + 1
    out = np.empty(xs.shape[:-1] + (2 * m,))
    np.add(center, xs, out=out[..., :m])
    np.subtract(center, xs, out=out[..., m:])
    return out


def _antisymmetric_fraction(values: np.ndarray, baseline):
    """||rho(+x) - rho(-x)|| / ||baseline - rho|| over mirrored values:
    a float for one row of them, a list of floats for the rows of a stack
    (the sums run along the last axis, each row's as it runs alone)."""
    rows, h = values.shape[:-1], values.shape[-1] // 2
    # per row: rho(+x) - rho(-x), then baseline - rho at +x and at -x;
    # squared and summed, each part on its own
    parts = np.empty(rows + (3, h))
    np.subtract(values[..., :h], values[..., h:], out=parts[..., 0, :])
    np.subtract(baseline, values.reshape(rows + (2, h)), out=parts[..., 1:, :])
    sums = np.add.reduce(np.square(parts, out=parts), axis=-1)
    fractions = []
    for num, up, dn in sums.reshape(-1, 3).tolist():
        den = math.sqrt(up + dn)
        fractions.append(math.sqrt(num) / den if den else 0.0)
    return fractions if values.ndim > 1 else fractions[0]


def physical_contrast(params: ModelParams) -> ContrastSummary:
    """Contrast of the dip against the far-detuned baseline.

    The baseline is c0, the exact limit of rho_ee as |delta| -> inf, and
    the amplitude is c0 - rho_ee(0) = -(p0/q0), both from one
    RationalLineshape, certified for every detuning; the amplitude is
    taken directly, not as that difference.
    """
    model = RationalLineshape(params)
    model.certify()
    return _contrast(model)


def _contrast(model: RationalLineshape) -> ContrastSummary:
    """Contrast from the closed form of a certified model.  Raises
    NoResonance when c0 underflows to 0, or |amplitude| below the
    smallest normal double."""
    if model.params.rabi == 0.0:
        return ContrastSummary(0.0, 0.0, 0.0)
    if model.c0 == 0.0:
        raise NoResonance("far-detuned baseline underflows to 0; contrast is undefined")
    amplitude = -model.excess(0.0)
    if abs(amplitude) < sys.float_info.min:
        raise NoResonance(f"dip amplitude {amplitude!r} underflows; contrast is undefined")
    return ContrastSummary(model.c0, amplitude, amplitude / model.c0)


def _quadratic_roots(a: float, b: float, c: float) -> tuple[float, float]:
    """Roots of a*x^2 + b*x + c without cancellation; nan where a root is
    not real or not finite (one root when a = 0)."""
    disc = b * b - 4.0 * a * c
    if not disc >= 0.0:
        return math.nan, math.nan
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return (q / a if a else math.nan, c / q if q else math.nan)


@dataclass(frozen=True)
class _ModelDip:
    """The exact dip of a RationalLineshape inside a +/- ``edge`` window.

    ``baseline`` is an excess over c0; ``lo`` and ``hi`` are the crossings
    of the level halfway from it to the bottom of the dip.
    """

    edge: float
    baseline: float
    center: float
    lo: float
    hi: float


def _model_dip(model: RationalLineshape, span_halfwidths: float) -> _ModelDip:
    """Center and half-depth crossings of the model dip, in closed form.

    The baseline is the mean of rho_ee at the window edges +/- span
    half widths (``halfwidth_estimate``, read as the model's
    ``damping``).  The center is the root of
    the derivative's numerator -p1*d^2 - 2*p0*d + (p1*q0 - p0*q1) with
    the lower rho_ee; each crossing of a level c0 + k solves
    k*d^2 + (k*q1 - p1)*d + (k*q0 - p0) = 0.  Raises SingularSystem for
    a real pole (``RationalLineshape.require_no_real_pole``, before the
    closed form is read), NoResonance for a flat or inverted dip and
    Unbracketed when the center or a crossing lies outside the window.
    """
    model.require_no_real_pole()
    p1, p0, q1, q0 = model.p1, model.p0, model.q1, model.q0
    edge = span_halfwidths * model.damping
    baseline = 0.5 * (model.excess(-edge) + model.excess(edge))
    roots = [d for d in _quadratic_roots(-p1, -2.0 * p0, p1 * q0 - p0 * q1)
             if math.isfinite(d)]
    if not roots:
        raise NoResonance("no dip below the baseline")
    bottom, center = min((model.excess(d), d) for d in roots)
    depth = baseline - bottom
    _require_depth(depth, model.c0 + baseline, model.c0 + bottom)
    k = baseline - depth / 2.0
    lo, hi = sorted(_quadratic_roots(k, k * q1 - p1, k * q0 - p0))
    if not -edge <= lo < center:
        raise Unbracketed(f"left half-depth crossing outside +/-{span_halfwidths:g} half widths")
    if not center < hi <= edge:
        raise Unbracketed(f"right half-depth crossing outside +/-{span_halfwidths:g} half widths")
    return _ModelDip(edge, baseline, center, lo, hi)


def calibration_fwhm(params: ModelParams) -> float:
    """FWHM (Hz) of the model dip against the mean of rho_ee at +/-25
    estimated half widths, in closed form (see ``_model_dip``), of a
    certified model: ``_calibration_width``, then the certificate."""
    model, width = _calibration_width(params)
    model.certify()
    return width


def _calibration_width(params: ModelParams) -> tuple[RationalLineshape, float]:
    """The factorization of ``params`` and its ``calibration_fwhm`` (Hz),
    not yet certified."""
    model = RationalLineshape(params)
    dip = _model_dip(model, CALIBRATION_SPAN_HALFWIDTHS)
    return model, (dip.hi - dip.lo) / TWO_PI


def calibrate_power_broadening(params: ModelParams,
                               multiple: float = BROADENING_MULTIPLE) -> float:
    """Rabi frequency whose excess FWHM is ``multiple`` times the zero-power FWHM.

    The zero-power reference width is taken at the probe level
    V^2*lu = PROBE_PUMPING_STRENGTH * gamma_g; the returned V satisfies
    FWHM(V) = (1 + multiple) * FWHM(probe), both closed-form widths from
    ``calibration_fwhm``.  Solved by Brent's bracketed root finder on
    ln FWHM - ln target as a function of ln V, within the
    CALIBRATION_BRACKET pumping strengths: the returned V is one whose
    width was evaluated, and the root lies within 1e-6 of it in ln V.
    Raises NotBracketed when the target width is not attainable there.

    About ten widths are evaluated; three of their models are certified,
    those the result rests on: the probe, V and the other end of Brent's
    final bracket.  The other widths only chose the next step.  Before
    NotBracketed is raised, both bracket ends are certified.
    """
    return _calibrate(params, multiple)[0]


def _calibrate(params: ModelParams, multiple: float) -> tuple[float, float, float]:
    """``calibrate_power_broadening`` with the widths it evaluated:
    (V, zero-power FWHM, FWHM at V), the widths in Hz as
    ``calibration_fwhm`` gives them."""
    if math.isnan(multiple):
        raise ParameterError(f"broadening multiple must be finite, not {multiple}")
    if not multiple >= 0:
        raise ParameterError("broadening multiple must be >= 0")
    w0 = calibration_fwhm(params.replace(
        rabi=rabi_for_pumping_strength(params, PROBE_PUMPING_STRENGTH)))
    target = (1.0 + multiple) * (w0 * TWO_PI)
    ln_target = math.log(target)
    seen = {}  # ln V -> (V, model, FWHM in Hz) of every evaluated width

    def evaluate(v: float, u: float) -> float:
        seen[u] = v, *_calibration_width(params.replace(rabi=v))
        return math.log(seen[u][2] * TWO_PI) - ln_target

    lo, hi = (rabi_for_pumping_strength(params, s) for s in CALIBRATION_BRACKET)
    ln_lo, ln_hi = math.log(lo), math.log(hi)
    g_lo, g_hi = evaluate(lo, ln_lo), evaluate(hi, ln_hi)
    w_lo, w_hi = seen[ln_lo][2] * TWO_PI, seen[ln_hi][2] * TWO_PI
    if not (w_lo <= target <= w_hi):
        seen[ln_lo][1].certify()
        seen[ln_hi][1].certify()
        raise NotBracketed(
            f"target width {target:.6e} rad/s outside attainable "
            f"[{w_lo:.6e}, {w_hi:.6e}]")
    b, c = _brent_root(lambda u: evaluate(math.exp(u), u), ln_lo, ln_hi, g_lo, g_hi, 1e-6)
    seen[b][1].certify()
    seen[c][1].certify()
    v, _, w = seen[b]
    return v, w0, w


def _brent_root(f, a: float, b: float, fa: float, fb: float,
                xtol: float) -> tuple[float, float]:
    """A root of f on [a, b], where fa = f(a) and fb = f(b) differ in sign
    or vanish: Brent's method (inverse quadratic, secant or bisection
    steps; Brent 1973, ch. 4).  Returns the final bracket (b, c): points
    each evaluated or a given end, with f(b)*f(c) <= 0 and either
    |b - c| <= xtol or f(b) = 0, so a root lies within xtol of b."""
    c, fc = a, fa
    d = e = b - a
    tol = 0.5 * xtol
    while True:
        if fb * fc > 0.0:
            c, fc = a, fa  # keep the sign change between b and c
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b, c
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)


def resonance_metrics(params: ModelParams) -> ResonanceMetrics:
    """All figures of merit for one parameter set, from one RationalLineshape.

    Contrast is exact, as in ``physical_contrast``.  Width, center and
    asymmetry are exact too: from the closed form, against the mean of
    rho_ee at +/-20 estimated half widths (``_model_dip``).  The model
    is certified once, for every detuning and the limit, after the dip
    is found.
    """
    return _metrics(RationalLineshape(params))


def _metrics(model: RationalLineshape) -> ResonanceMetrics:
    """``resonance_metrics`` of an already factorized model."""
    dip = _model_dip(model, METRIC_SPAN_HALFWIDTHS)
    model.certify()
    summary = _contrast(model)
    t = _mirrored_offsets(dip.center, dip.lo, dip.hi, ASYMMETRY_OFFSETS)
    width_hz = (dip.hi - dip.lo) / TWO_PI
    return ResonanceMetrics(
        baseline=summary.baseline,
        amplitude=summary.amplitude,
        physical_contrast=summary.physical_contrast,
        fwhm_hz=width_hz,
        center_hz=dip.center / TWO_PI,
        asymmetry=_antisymmetric_fraction(model.excess(t), dip.baseline),
        qfactor=summary.physical_contrast / width_hz,
    )
