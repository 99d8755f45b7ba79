"""Measured-scan ingestion and resonance fitting.

Scan file format (CSV, UTF-8): optional leading comment lines
``# key = value`` carrying metadata, an optional ``frequency_hz,signal``
header, then exactly two numeric columns per row.  Frequencies must be
strictly increasing after sorting (duplicates are rejected).

Parsing converts the whole data block at once, in numpy's C reader,
which reads each field to the bits ``float()`` gives.  Text that this
bulk pass does not take (a comment line among the data, a wrong column
count, a non-numeric or non-finite field) is parsed again line by line;
that loop is the format's definition and names the failing line.

Fitting uses an affine baseline plus a Lorentzian peak or dip:

    model(f) = offset + slope*f + sign * A * w^2 / ((f - f0)^2 + w^2)

refined by Gauss-Newton steps with step halving whenever the squared
residual would grow.  Frequencies are centered on the scan midpoint
internally, which keeps the normal equations well conditioned for
absolute frequencies in the GHz range and makes the fit exactly
equivariant under frequency shifts.  ``batch_metrics`` fits the scans of
one length together, in bounded stacks, with one stacked least-squares
solve per step; LAPACK solves each item of a stack as it solves it alone,
so a scan's report is the one it gets fitted alone.  The array work of
the initial guess (edge sums and medians, residuals, median spacing) and
of the report's asymmetry (mirrored offsets, sums) is formed on the
whole stack too, each row's arithmetic its own; the half-depth
crossings, the interpolation and each report's few float operations run
scan by scan.  A stack runs under one numpy error state, so the
overflows of an extreme frequency scale raise no warning; the fit
refuses a non-finite state by itself.

Contrast follows the transmission convention: fitted amplitude divided
by the fitted signal level at the resonance extremum (baseline plus
full peak).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (MonotonicityError, NoResonance, ParseError,
                     TooFewSamples)
from .lineshape import (ResonanceMetrics, _antisymmetric_fraction,
                        _mirrored_offsets, level_crossings)

MIN_SAMPLES = 16
MAX_ITERATIONS = 200
SSE_RTOL = 1e-10
STACK_SAMPLES = 1 << 13  # samples per fitted stack: bounds its memory, moves no answer
CSV_HEADER = "frequency_hz,signal"
VARY_KEY = "intensity_mW_cm2"  # the metadata key batch_metrics sweeps by default
FILE_KEY = "file"              # the source file name, never a grouping key
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Scan:
    """One measured (or simulated) transmission scan."""

    frequency: np.ndarray                 # Hz, strictly increasing
    signal: np.ndarray                    # volts or arbitrary units
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        # contiguous copies the scan owns
        f = np.array(self.frequency, dtype=float)
        y = np.array(self.signal, dtype=float)
        if f.ndim != 1 or f.shape != y.shape:
            raise ParseError("frequency and signal must be matching 1-d arrays")
        if f.size < MIN_SAMPLES:
            raise TooFewSamples(f"scan has {f.size} samples, need >= {MIN_SAMPLES}")
        # strictly increasing input (no NaN) is its own stable sort
        if not (f[1:] > f[:-1]).all():
            order = np.argsort(f, kind="stable")
            f, y = f[order], y[order]
            if np.any(np.diff(f) <= 0):
                raise MonotonicityError("duplicate or non-increasing frequencies")
        if not (np.isfinite(f).all() and np.isfinite(y).all()):
            raise ParseError("non-finite frequency or signal value")
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "signal", y)


def _parse_metadata_value(raw: str):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        return raw


def load_scan(source) -> Scan:
    """Parse a scan from a path (``str`` or any ``os.PathLike``) or a
    line iterable.

    Raises ParseError (with 1-based line number), MonotonicityError, or
    TooFewSamples.
    """
    if isinstance(source, (str, os.PathLike)):
        # utf-8-sig: files saved with a byte-order mark parse as without one.
        # Universal newlines turn "\r\n" and "\r" into "\n"; split on that
        # alone, as line iteration does (str.splitlines also splits on
        # "\x0c", "\x85", "\u2028" and others, which would renumber lines).
        with open(source, "r", encoding="utf-8-sig") as fh:
            return _parse_lines(fh.read().split("\n"))
    if hasattr(source, "__iter__"):
        return _parse_lines(source)
    raise TypeError(f"cannot read a scan from {type(source).__name__}")


# str.isspace holds for these four, so numpy's reader strips them from
# around a field, but float() refuses them
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _bulk_columns(body: list[str]):
    """Frequency and signal columns of ``body``, the stripped lines from
    the first data line on, converted in one pass by numpy's C reader
    (blank lines skipped).  It reads each field with
    ``PyOS_string_to_double``, as ``float()`` does, so the bits are the
    same.  None, leaving the text to the per-line loop, if the body holds
    a separator character, if the reader refuses it (a comment line among
    the data, a line break inside a line, a non-numeric field, or a
    spelling only ``float()`` takes, such as ``1_0`` or non-ASCII
    digits), or unless the result is finite with two columns.
    """
    text = "".join(body)
    if any(sep in text for sep in _SEPARATORS):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != 2 or not np.isfinite(values).all():
        return None
    return values[:, 0], values[:, 1]


def _parse_lines(lines: Iterable[str]) -> Scan:
    """The scan format's one definition.  At the first data line the rest
    of the lines are tried in one bulk conversion; any text that fails it
    is parsed line by line below, which names the failing line."""
    lines = list(map(str.strip, lines))
    metadata: dict = {}
    freqs: list[float] = []
    sigs: list[float] = []
    header_allowed = True
    for lineno, line in enumerate(lines, start=1):
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
        if not freqs:  # the first data line: try the rest in one pass
            columns = _bulk_columns(lines[lineno - 1:])
            if columns is not None:
                return Scan(*columns, metadata)
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


def write_scan_csv(path, frequency: Sequence[float], signal: Sequence[float],
                   metadata: dict | None = None) -> None:
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(CSV_HEADER)
    for f, y in zip(frequency, signal):
        lines.append(f"{float(f)!r},{float(y)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class FitModel:
    """Affine baseline plus signed Lorentzian peak."""

    offset: float          # baseline value extrapolated to f = 0
    slope: float           # baseline slope per Hz
    center_hz: float
    half_width_hz: float
    amplitude: float       # >= 0
    sign: int              # +1 transmission peak, -1 dip

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        lor = self.half_width_hz**2 / ((f - self.center_hz) ** 2 + self.half_width_hz**2)
        return self.offset + self.slope * f + self.sign * self.amplitude * lor


@dataclass(frozen=True)
class FitReport:
    model: FitModel
    metrics: ResonanceMetrics
    rms_residual: float
    iterations: int
    converged: bool
    fwhm_direct_hz: float   # half-depth read of the raw data (cross-check)


def _median(v: np.ndarray) -> np.ndarray:
    """``np.median`` of each row (along the last axis) of a non-empty
    finite float array, by its own steps: ``np.partition``'s copy and
    partition at the kth list it builds, then ``np.mean``'s sum and
    division of the middle one or two elements.  So the same doubles."""
    m = v.shape[-1]
    k = m // 2
    kth = [k, -1] if m % 2 else [k - 1, k, -1]
    v = v.copy()
    v.partition(kth)
    middle = v[..., kth[0]:k + 1]
    return np.add.reduce(middle, axis=-1) / middle.shape[-1]


def _initial_guess(x: np.ndarray, y: np.ndarray):
    """Starting theta for each row of x and y (a stack of scans of one
    length), from the edge baseline and the half-depth crossings of the
    largest excursion; with, per row, the width between those crossings
    (nan where one is missing) and the median sample spacing.  The edge
    baseline runs through the medians of the two scan edges, at the
    edges' mean x (summed as ``np.mean`` sums).  The sums, medians,
    residuals and their largest excursions are formed on the stack; the
    line through the edges and the crossings, row by row.  Each row's
    arithmetic is that row's alone."""
    k, n = x.shape
    n_edge = max(3, n // 10)
    edges = np.concatenate((x[:, :n_edge], x[:, -n_edge:], y[:, :n_edge], y[:, -n_edge:]),
                           axis=1).reshape(k, 4, n_edge)
    lines = []
    for (xl, xr), (yl, yr) in zip((np.add.reduce(edges[:, :2], axis=2) / n_edge).tolist(),
                                  _median(edges[:, 2:]).tolist()):
        slope = (yr - yl) / (xr - xl)
        lines.append((yl - slope * xl, slope))
    line = np.array(lines)
    resid = y - (line[:, :1] + line[:, 1:] * x)
    spacings = _median(x[:, 1:] - x[:, :-1]).tolist()
    thetas, widths = [], []
    for (a0, b0), xj, rj, i0, spacing in zip(lines, x, resid,
                                              np.abs(resid).argmax(axis=1).tolist(), spacings):
        peak, at = float(rj[i0]), float(xj[i0])
        sign = 1 if peak >= 0 else -1
        lo, hi = level_crossings(xj, -sign * rj, i0, -abs(peak) / 2.0)
        widths.append(hi - lo)
        if math.isnan(lo):
            lo = at - spacing
        if math.isnan(hi):
            hi = at + spacing
        thetas.append((a0, b0, sign * abs(peak), at, max((hi - lo) / 2.0, spacing)))
    return np.array(thetas), widths, spacings


def _raise_lstsq(err, flag):
    """The error callback of np.linalg.lstsq: LAPACK's SVD did not converge."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@np.errstate(call=_raise_lstsq, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _lstsq(a: np.ndarray, b: np.ndarray, rcond: float) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond)[0]`` for a float64 matrix and vector,
    or for each of a stack of them: its own gufunc call under its own error
    state, without its checks and wrapping.  LAPACK solves each item of a
    stack as it solves it alone; if any item fails, the call fails."""
    return _umath_linalg.lstsq(a, b[..., None], rcond, signature="ddd->ddid")[0][..., 0]


def _evaluate(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> list:
    """For each row of ``t`` and the same rows of x and y: x - x0, its
    square, w**2 (as a column), the Lorentzian factor, the residual and the
    squared residual.  w**2 is each scan's numpy scalar power, because
    numpy's array power can differ from it in the last bit.  Each row of
    the residual starts 16-byte aligned, as a lone array does: OpenBLAS's
    SSE3 (Prescott) dot kernel sums an unaligned vector in another order."""
    w2 = np.array([w**2 for w in t[:, 4]])[:, None]
    dx = x - t[:, 3:4]
    dx2 = np.square(dx)
    lor = w2 / (dx2 + w2)
    n = x.shape[1]
    r = np.empty((len(t), n + n % 2))[:, :n]
    np.subtract(y, t[:, :1] + t[:, 1:2] * x + t[:, 2:3] * lor, out=r)
    return [dx, dx2, w2, lor, r, np.vecdot(r, r)]


def _jacobian(x, t, dx, dx2, w2, lor) -> np.ndarray:
    """The Jacobian of the model at each row of ``t``, from that row's
    state (``_evaluate``), stored column by column: the (k, n, 5) stack is
    the returned array's ``swapaxes(1, 2)``.  w**3 is each scan's numpy
    scalar power."""
    sa2 = t[:, 2:3] * 2.0
    lor2 = np.square(lor)
    jac = np.empty((len(x), 5, x.shape[1]))
    jac[:, 0] = 1.0
    jac[:, 1] = x
    jac[:, 2] = lor
    jac[:, 3] = sa2 * dx * lor2 / w2
    jac[:, 4] = sa2 * dx2 * lor2 / np.array([w**3 for w in t[:, 4]])[:, None]
    return jac


def _halve(x, y, theta, sse, step):
    """Step halving for one scan whose full step was refused: the first of
    theta + step/2, theta + step/4, ... (39 tries) that has w > 0, is
    finite, and whose squared residual is finite and not above ``sse``,
    with its state (``_evaluate`` on the one-row stack x, y); None if no
    try is."""
    for _ in range(39):
        step = step / 2.0
        trial = theta + step
        if trial[4] > 0 and np.isfinite(trial).all():
            state = _evaluate(x, y, trial[None])
            new_sse = float(state[-1][0])
            if math.isfinite(new_sse) and new_sse <= sse:
                return trial, state
    return None


def _fit_damped(x: np.ndarray, y_raw: np.ndarray) -> list:
    """Gauss-Newton with step halving on theta = (a, b, sA, x0, w), for each
    row of x and y_raw (a stack of scans of one length), in lockstep: one
    stacked least-squares solve and one stacked trial of the full steps per
    iteration; a row that refuses its full step halves on its own, and a
    row leaves the stack when it converges or stalls.  Each row's
    arithmetic is the arithmetic of that row fitted alone.

    Each signal is pre-scaled by a power of two so that rescaling the
    input (by any power of two) reproduces bit-identical fit geometry;
    for the same reason the half-depth width of the initial guess is the
    direct width of the unscaled signal, and is returned as it is, with
    the median sample spacing.

    Returns, per row, (theta, sse, iterations, converged, width, spacing).
    Raises NoResonance if any row's Jacobian or squared residual is not
    finite, or if the stack's least-squares solve fails.
    """
    scales = [math.ldexp(1.0, math.frexp(float(m) or 1.0)[1])
              for m in np.maximum.reduce(np.abs(y_raw), axis=1)]
    y = y_raw / np.array(scales)[:, None]
    theta, widths, spacings = _initial_guess(x, y)
    fits: list = [None] * len(x)
    rcond = _EPS * max(x.shape[1], 5)  # lstsq's rcond=None

    def finish(i, theta, sse, converged):
        theta = theta.copy()
        theta[:3] *= scales[i]  # offset, slope, amplitude back to input units (exact)
        fits[i] = (theta, sse * scales[i] * scales[i], iterations, converged,
                   widths[i], spacings[i])

    rows = np.arange(len(x))
    state = _evaluate(x, y, theta)
    for iterations in range(1, MAX_ITERATIONS + 1):
        dx, dx2, w2, lor, r, sse = state
        sse = sse.tolist()
        jac = _jacobian(x, theta, dx, dx2, w2, lor)
        # on a non-finite input LAPACK writes DLASCL text to stdout
        if not (all(map(math.isfinite, sse)) and np.isfinite(jac).all()):
            raise NoResonance("resonance fit failed: non-finite Jacobian")
        try:
            step = _lstsq(jac.swapaxes(1, 2), r, rcond)
        except np.linalg.LinAlgError as exc:  # extreme-scale Jacobian
            raise NoResonance(f"resonance fit failed: {exc}") from exc
        del jac  # not held through the trials: it is the stack's largest array
        # the full steps as one stack; a row whose step is not a valid
        # theta evaluates its own theta instead, and halves below
        trials = theta + step
        valid = [t[4] > 0 and all(map(math.isfinite, t)) for t in trials.tolist()]
        if not all(valid):
            invalid = np.logical_not(valid)
            trials[invalid] = theta[invalid]
        trial_state = _evaluate(x, y, trials)
        keep = []
        for j, (ok, old, new) in enumerate(zip(valid, sse, trial_state[-1].tolist())):
            if not (ok and math.isfinite(new) and new <= old):
                halved = _halve(x[j:j + 1], y[j:j + 1], theta[j], old, step[j])
                if halved is None:  # no step lowers the squared residual
                    finish(rows[j], theta[j], old, False)
                    continue
                trials[j], row_state = halved
                for full, part in zip(trial_state, row_state):
                    full[j] = part[0]
                new = float(row_state[-1][0])
            if old - new <= SSE_RTOL * max(new, 1e-300):
                finish(rows[j], trials[j], new, True)
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(rows):
            rows, x, y, trials, *trial_state = (v[keep] for v in (rows, x, y, trials,
                                                                   *trial_state))
        theta, state = trials, trial_state
    else:
        for j, i in enumerate(rows):
            finish(i, theta[j], float(state[-1][j]), False)
    return fits


def _affine_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Offset and slope of the least-squares line through (x, y), or through
    each row of a stack of them, by the arithmetic of
    ``np.polynomial.polynomial.polyfit(x, y, 1)``: the design rows [1, x]
    scaled to unit 2-norm (a zero norm counts as 1), ``lstsq`` at rcond
    n*eps, and the result divided by the scales.  Unlike polyfit it
    neither adds 0.0 to x and y (which moves no bit) nor warns below rank 2,
    which 16 distinct finite x of both signs reach only when the norm of x
    overflows (|x| of order 1e153; the coefficients are the same).
    """
    v = np.empty(x.shape[:-1] + (2, x.shape[-1]))
    v[..., 0, :] = 1.0
    v[..., 1, :] = x
    scl = np.sqrt(np.add.reduce(np.square(v), axis=-1))
    scl[scl == 0] = 1.0
    return _lstsq(np.swapaxes(v, -1, -2) / scl[..., None, :], y, x.shape[-1] * _EPS) / scl


def _reports(x: np.ndarray, y: np.ndarray, f_mid: np.ndarray, fits: list,
             affine_ss: np.ndarray) -> list:
    """The report of each row's ``_fit_damped`` result, or the NoResonance
    that refuses it: an amplitude not above three times the residual rms,
    or a half width below the sample spacing.  ``affine_ss`` holds each
    row's squared residual of the least-squares line through the scan.
    The asymmetry's offsets, baseline-removed data and sums are formed on
    the stack (only its interpolation runs row by row), the rest row by
    row in floats; each row's arithmetic is that row's alone."""
    thetas = np.array([fit[0] for fit in fits])
    # the baseline-removed data at mirrored offsets across the FWHM window
    offsets = _mirrored_offsets(thetas[:, 3:4], 0.0, 2.0 * thetas[:, 4:5], 100)
    level = y - (thetas[:, :1] + thetas[:, 1:2] * x)
    asymmetries = _antisymmetric_fraction(
        np.array([np.interp(*row) for row in zip(offsets, x, level)]), 0.0)
    n = x.shape[1]
    reports = []
    for (a, b, sa, x0, w), fit, mid, ss, asymmetry in zip(
            thetas.tolist(), fits, f_mid.tolist(), affine_ss.tolist(), asymmetries):
        _, sse, iterations, converged, direct_fwhm, spacing = fit
        sign = 1 if sa >= 0 else -1
        amp = abs(sa)
        rms = math.sqrt(sse / n)
        if amp <= 3.0 * rms:
            reports.append(NoResonance(
                f"fitted amplitude {amp:.3e} not above 3x residual rms {rms:.3e}"))
            continue
        if w < spacing:
            # narrower than the sampling: a noise spike, not a resonance
            reports.append(NoResonance(
                f"fitted half width {w:.3e} Hz below the sample spacing"))
            continue
        if converged:
            # A converged fit can never sit above the plain affine fit.
            converged = rms <= math.sqrt(ss / n) * (1.0 + 1e-12)
        baseline_at_center = a + b * x0
        peak_level = baseline_at_center + sign * amp
        contrast = amp / peak_level
        fwhm_hz = 2.0 * w
        metrics = ResonanceMetrics(
            baseline=baseline_at_center,
            amplitude=amp,
            physical_contrast=contrast,
            fwhm_hz=fwhm_hz,
            center_hz=mid + x0,
            asymmetry=asymmetry,
            qfactor=contrast / fwhm_hz,
        )
        model = FitModel(offset=a - b * mid, slope=b, center_hz=mid + x0,
                         half_width_hz=w, amplitude=amp, sign=sign)
        reports.append(FitReport(model=model, metrics=metrics, rms_residual=rms,
                                 iterations=iterations, converged=converged,
                                 fwhm_direct_hz=direct_fwhm))
    return reports


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def _fit_together(scans: Sequence[Scan]) -> list:
    """The report, or the NoResonance of a refused fit, of each of
    ``scans`` (all of one length): one lockstep ``_fit_damped``, one
    stacked affine fit for the converged-fit guard and one stacked report,
    under one error state that keeps numpy's warnings of extreme scales
    off stderr (the fit refuses a non-finite state by itself)."""
    f = np.array([scan.frequency for scan in scans])
    y = np.array([scan.signal for scan in scans])
    f_mid = 0.5 * (f[:, 0] + f[:, -1])
    x = f - f_mid[:, None]
    fits = _fit_damped(x, y)
    c = _affine_fit(x, y)
    r = y - (c[:, :1] + c[:, 1:] * x)
    return _reports(x, y, f_mid, fits, np.add.reduce(r * r, axis=1))


def _fit_stack(scans: Sequence[Scan]) -> list:
    """fit_resonance's report, or the exception it raises, for each of
    ``scans`` (all of one length), fitted together.  If the stack raises
    (say, on one scan's non-finite Jacobian), its scans are fitted again
    one by one; so a scan's outcome never depends on the other scans."""
    try:
        return _fit_together(scans)
    except Exception as exc:  # collected, not fatal to the batch
        if len(scans) == 1:
            return [exc]
    return [outcome for scan in scans for outcome in _fit_stack([scan])]


def fit_resonance(scan: Scan) -> FitReport:
    """Fit baseline + Lorentzian to a scan and extract metrics: a stack of
    one (see ``batch_metrics``).

    Raises NoResonance when the fitted amplitude is below three times
    the residual RMS, or when a fit step's Jacobian or squared residual is
    not finite or its least-squares solve fails (as at extreme frequency
    scales).  A fit that stalls before the SSE tolerance is returned with
    converged=False rather than raised.
    """
    (outcome,) = _fit_stack([scan])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


METRIC_COLUMNS = ("baseline", "amplitude", "contrast", "fwhm_hz", "center_hz",
                  "asymmetry", "qfactor", "fwhm_direct_hz", "rms_residual",
                  "iterations", "converged")


@dataclass(frozen=True)
class BatchResult:
    rows: list
    qmax: list


def _row_from_report(metadata: dict, report: FitReport) -> dict:
    """The table row of a fitted scan: its metadata, ``status`` ok, then
    the ``ResonanceMetrics`` fields and the fit's own figures, named by
    METRIC_COLUMNS."""
    m = report.metrics
    values = (*(getattr(m, f.name) for f in fields(m)), report.fwhm_direct_hz,
              report.rms_residual, report.iterations, report.converged)
    return {**metadata, "status": "ok", **dict(zip(METRIC_COLUMNS, values, strict=True))}


def failed_row(metadata: dict, exc: Exception) -> dict:
    """The table row of a scan that failed with ``exc``: its metadata,
    the error as ``status``, and every metric column empty."""
    return {**metadata, "status": f"{type(exc).__name__}: {exc}",
            **dict.fromkeys(METRIC_COLUMNS)}


def _stacks(scans: Sequence[Scan]) -> Iterator[list[int]]:
    """The indices of ``scans`` in stacks of one length, in input order
    within a length, each of at most STACK_SAMPLES samples (or one scan)."""
    by_length: dict[int, list[int]] = {}
    for i, scan in enumerate(scans):
        by_length.setdefault(scan.frequency.size, []).append(i)
    for n, indices in by_length.items():
        size = max(1, STACK_SAMPLES // n)
        for start in range(0, len(indices), size):
            yield indices[start:start + size]


def batch_metrics(scans: Sequence[Scan], vary: str = VARY_KEY) -> BatchResult:
    """Fit every scan and tabulate metrics alongside its metadata, in input
    order.  Scans of one length are fitted together, in stacks of at most
    STACK_SAMPLES samples; each scan's row is the one its own
    ``fit_resonance`` gives.

    Per-scan failures become rows with a ``status`` column naming the
    error; they never abort the batch.  A per-group maximum-Q summary
    is also produced, grouping on all metadata keys except ``vary``
    (the swept quantity, e.g. laser intensity) and FILE_KEY (the source
    file name, an identifier).
    """
    outcomes: list = [None] * len(scans)
    for stack in _stacks(scans):
        for i, outcome in zip(stack, _fit_stack([scans[i] for i in stack])):
            outcomes[i] = outcome
    rows = [failed_row(scan.metadata, outcome) if isinstance(outcome, Exception)
            else _row_from_report(scan.metadata, outcome)
            for scan, outcome in zip(scans, outcomes)]
    keys = {key for scan in scans for key in scan.metadata}

    group_keys = [k for k in sorted(keys) if k not in (vary, FILE_KEY)]
    groups: dict[tuple, dict] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        gkey = tuple((k, repr(row.get(k))) for k in group_keys)
        best = groups.get(gkey)
        if best is None or row["qfactor"] > best["qfactor"]:
            groups[gkey] = row
    qmax = [dict(groups[g]) for g in sorted(groups)]
    return BatchResult(rows=rows, qmax=qmax)
