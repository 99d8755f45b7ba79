"""Measured-scan ingestion and resonance fitting.

Scan file format (CSV, UTF-8): optional leading comment lines
``# key = value`` carrying metadata, an optional ``frequency_hz,signal``
header, then exactly two numeric columns per row.  Frequencies must be
strictly increasing after sorting (duplicates are rejected).

Parsing converts the whole data block at once: one ``float`` per field
of the joined rows.  Text that this bulk pass does not take (a comment
line among the data, a wrong column count, a non-numeric or non-finite
field) is parsed again line by line; that loop is the format's
definition and names the failing line.

Fitting uses an affine baseline plus a Lorentzian peak or dip:

    model(f) = offset + slope*f + sign * A * w^2 / ((f - f0)^2 + w^2)

refined by Gauss-Newton steps with step halving whenever the squared
residual would grow.  Frequencies are centered on the scan midpoint
internally, which keeps the normal equations well conditioned for
absolute frequencies in the GHz range and makes the fit exactly
equivariant under frequency shifts.

Contrast follows the transmission convention: fitted amplitude divided
by the fitted signal level at the resonance extremum (baseline plus
full peak).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from operator import methodcaller
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (MonotonicityError, NoResonance, ParseError,
                     TooFewSamples)
from .lineshape import (ResonanceMetrics, _antisymmetric_fraction,
                        _mirrored_offsets, level_crossings)

MIN_SAMPLES = 16
MAX_ITERATIONS = 200
SSE_RTOL = 1e-10
CSV_HEADER = "frequency_hz,signal"


@dataclass(frozen=True)
class Scan:
    """One measured (or simulated) transmission scan."""

    frequency: np.ndarray                 # Hz, strictly increasing
    signal: np.ndarray                    # volts or arbitrary units
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        f = np.asarray(self.frequency, dtype=float)
        y = np.asarray(self.signal, dtype=float)
        if f.ndim != 1 or f.shape != y.shape:
            raise ParseError("frequency and signal must be matching 1-d arrays")
        if f.size < MIN_SAMPLES:
            raise TooFewSamples(f"scan has {f.size} samples, need >= {MIN_SAMPLES}")
        order = np.argsort(f, kind="stable")
        f, y = f[order], y[order]
        if np.any(np.diff(f) <= 0):
            raise MonotonicityError("duplicate or non-increasing frequencies")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(y))):
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


_comma_count = methodcaller("count", ",")


def _bulk_columns(body: list[str]):
    """Frequency and signal columns of ``body``, the stripped lines from
    the first data line on, converted in one pass; None unless every
    non-blank line holds exactly one comma and every field is a finite
    number.  A comment line among the data fails the conversion (no
    number contains ``#``), so its metadata is left to the per-line loop.
    """
    body = list(filter(None, body))
    if set(map(_comma_count, body)) != {1}:
        return None
    try:
        values = np.array(list(map(float, ",".join(body).split(","))))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values[0::2], values[1::2]


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


def _edge_affine(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Affine baseline through the medians of the two scan edges."""
    n_edge = max(3, x.size // 10)
    xl, yl = float(np.mean(x[:n_edge])), float(np.median(y[:n_edge]))
    xr, yr = float(np.mean(x[-n_edge:])), float(np.median(y[-n_edge:]))
    slope = (yr - yl) / (xr - xl)
    return yl - slope * xl, slope


def _initial_guess(x: np.ndarray, y: np.ndarray):
    """Starting theta from the edge baseline and the half-depth crossings
    of the largest excursion, the width between those crossings (nan
    where one is missing), and the median sample spacing."""
    a0, b0 = _edge_affine(x, y)
    resid = y - (a0 + b0 * x)
    i0 = int(np.argmax(np.abs(resid)))
    sign = 1 if resid[i0] >= 0 else -1
    amp0 = abs(resid[i0])
    spacing = float(np.median(np.diff(x)))
    lo, hi = level_crossings(x, -sign * resid, i0, -amp0 / 2.0)
    width = hi - lo
    if math.isnan(lo):
        lo = x[i0] - spacing
    if math.isnan(hi):
        hi = x[i0] + spacing
    w0 = max((hi - lo) / 2.0, spacing)
    return np.array([a0, b0, sign * amp0, float(x[i0]), w0]), width, spacing


def _fit_damped(x: np.ndarray, y_raw: np.ndarray):
    """Gauss-Newton with step halving on theta = (a, b, sA, x0, w).

    The signal is pre-scaled by a power of two so that rescaling the
    input (by any power of two) reproduces bit-identical fit geometry;
    for the same reason the half-depth width of the initial guess is the
    direct width of the unscaled signal, and is returned as it is, with
    the median sample spacing.
    """
    _, exp2 = math.frexp(float(np.abs(y_raw).max()) or 1.0)
    scale = math.ldexp(1.0, exp2)
    y = y_raw / scale

    theta, width, spacing = _initial_guess(x, y)

    def evaluate(t):
        """Lorentzian factor, residual and squared residual at ``t``."""
        a, b, sa, x0, w = t
        lor = w**2 / ((x - x0) ** 2 + w**2)
        r = y - (a + b * x + sa * lor)
        return lor, r, float(r @ r)

    lor, r, sse = evaluate(theta)
    jac = np.empty((x.size, 5))
    jac[:, 0] = 1.0
    jac[:, 1] = x
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        _, _, sa, x0, w = theta
        dx = x - x0
        lor2 = lor**2
        jac[:, 2] = lor
        jac[:, 3] = sa * 2.0 * dx * lor2 / w**2
        jac[:, 4] = sa * 2.0 * dx**2 * lor2 / w**3
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        accepted = False
        for _ in range(40):
            trial = theta + step
            if trial[4] > 0 and np.all(np.isfinite(trial)):
                trial_lor, trial_r, new_sse = evaluate(trial)
                if math.isfinite(new_sse) and new_sse <= sse:
                    accepted = True
                    break
            step = step / 2.0
        if not accepted:
            break
        change = sse - new_sse
        theta, lor, r, sse = trial, trial_lor, trial_r, new_sse
        if change <= SSE_RTOL * max(sse, 1e-300):
            converged = True
            break
    theta = theta.copy()
    theta[:3] *= scale  # offset, slope, amplitude back to input units (exact)
    return theta, sse * scale * scale, iterations, converged, width, spacing


def fit_resonance(scan: Scan) -> FitReport:
    """Fit baseline + Lorentzian to a scan and extract metrics.

    Raises NoResonance when the fitted amplitude is below three times
    the residual RMS.  A fit that stalls before the SSE tolerance is
    returned with converged=False rather than raised.
    """
    f = scan.frequency
    y = scan.signal
    f_mid = 0.5 * (float(f[0]) + float(f[-1]))
    x = f - f_mid

    theta, sse, iterations, converged, direct_fwhm, spacing = _fit_damped(x, y)
    a, b, sa, x0, w = (float(t) for t in theta)
    sign = 1 if sa >= 0 else -1
    amp = abs(sa)
    rms = math.sqrt(sse / x.size)

    if amp <= 3.0 * rms:
        raise NoResonance(
            f"fitted amplitude {amp:.3e} not above 3x residual rms {rms:.3e}")
    if w < spacing:
        # narrower than the sampling: a noise spike, not a resonance
        raise NoResonance(
            f"fitted half width {w:.3e} Hz below the sample spacing")

    # A converged fit can never sit above the plain affine fit.
    affine = np.polynomial.polynomial.polyfit(x, y, 1)
    affine_rms = math.sqrt(float(np.mean((y - (affine[0] + affine[1] * x)) ** 2)))
    converged = converged and rms <= affine_rms * (1.0 + 1e-12)

    baseline_at_center = a + b * x0
    peak_level = baseline_at_center + sign * amp
    contrast = amp / peak_level
    fwhm_hz = 2.0 * w
    # the baseline-removed data at mirrored offsets across the FWHM window
    mirrored = np.interp(_mirrored_offsets(x0, 0.0, fwhm_hz, 100), x, y - (a + b * x))
    metrics = ResonanceMetrics(
        baseline=baseline_at_center,
        amplitude=amp,
        physical_contrast=contrast,
        fwhm_hz=fwhm_hz,
        center_hz=f_mid + x0,
        asymmetry=_antisymmetric_fraction(mirrored, 0.0),
        qfactor=contrast / fwhm_hz,
    )
    model = FitModel(offset=a - b * f_mid, slope=b, center_hz=f_mid + x0,
                     half_width_hz=w, amplitude=amp, sign=sign)
    return FitReport(model=model, metrics=metrics, rms_residual=rms,
                     iterations=iterations, converged=converged,
                     fwhm_direct_hz=direct_fwhm)


METRIC_COLUMNS = ("baseline", "amplitude", "contrast", "fwhm_hz", "center_hz",
                  "asymmetry", "qfactor", "fwhm_direct_hz", "rms_residual",
                  "iterations", "converged")


@dataclass(frozen=True)
class BatchResult:
    rows: list
    qmax: list
    metadata_keys: list


def _row_from_report(metadata: dict, report: FitReport) -> dict:
    m = report.metrics
    row = dict(metadata)
    row["status"] = "ok"
    row.update({
        "baseline": m.baseline,
        "amplitude": m.amplitude,
        "contrast": m.physical_contrast,
        "fwhm_hz": m.fwhm_hz,
        "center_hz": m.center_hz,
        "asymmetry": m.asymmetry,
        "qfactor": m.qfactor,
        "fwhm_direct_hz": report.fwhm_direct_hz,
        "rms_residual": report.rms_residual,
        "iterations": report.iterations,
        "converged": report.converged,
    })
    return row


def failed_row(metadata: dict, exc: Exception) -> dict:
    """The table row of a scan that failed with ``exc``: its metadata,
    the error as ``status``, and every metric column empty."""
    return {**metadata, "status": f"{type(exc).__name__}: {exc}",
            **dict.fromkeys(METRIC_COLUMNS)}


def batch_metrics(scans: Sequence[Scan], vary: str = "intensity_mW_cm2",
                  ignore_keys: Sequence[str] = ("file",)) -> BatchResult:
    """Fit every scan and tabulate metrics alongside its metadata.

    Per-scan failures become rows with a ``status`` column naming the
    error; they never abort the batch.  A per-group maximum-Q summary
    is also produced, grouping on all metadata keys except ``vary``
    (the swept quantity, e.g. laser intensity) and ``ignore_keys``
    (identifiers such as the source file name).
    """
    rows = []
    keys: set[str] = set()
    for scan in scans:
        keys.update(scan.metadata.keys())
        try:
            report = fit_resonance(scan)
        except Exception as exc:  # collected, not fatal to the batch
            rows.append(failed_row(scan.metadata, exc))
            continue
        rows.append(_row_from_report(scan.metadata, report))

    metadata_keys = sorted(keys)
    group_keys = [k for k in metadata_keys if k != vary and k not in ignore_keys]
    groups: dict[tuple, dict] = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        gkey = tuple((k, repr(row.get(k))) for k in group_keys)
        best = groups.get(gkey)
        if best is None or row["qfactor"] > best["qfactor"]:
            groups[gkey] = row
    qmax = [dict(groups[g]) for g in sorted(groups)]
    return BatchResult(rows=rows, qmax=qmax, metadata_keys=metadata_keys)
