"""Scan parsing, Lorentzian fitting, and batch reduction."""

import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptsim import (CptsimError, Depolarization, MonotonicityError, NoResonance,
                    ParseError, Scan, TooFewSamples, batch_metrics,
                    default_sweep_spec, fit_resonance, fwhm, load_scan,
                    rabi_for_pumping_strength, sweep, write_scan_csv)

import cptsim.scans as scans_mod
from cptsim.lineshape import level_crossings
from cptsim.scans import CSV_HEADER, _affine_fit, _bulk_columns, _median

from conftest import make_params
from oracles import fit_verbatim, lorentzian_scan, lstsq_step, parse_lines_verbatim


def scan_text(rows, header=True, meta=()):
    lines = [f"# {k} = {v}" for k, v in meta]
    if header:
        lines.append("frequency_hz,signal")
    lines += rows
    return io.StringIO("\n".join(lines) + "\n")


def simple_rows(n=20):
    return [f"{float(i)},{1.0 + 0.01 * i}" for i in range(n)]


# ---------------------------------------------------------------- parsing

def test_load_well_formed_csv():
    scan = load_scan(scan_text(simple_rows(), meta=[("temperature_C", 65)]))
    assert scan.frequency.size == 20
    assert scan.metadata == {"temperature_C": 65.0}
    assert scan.signal[3] == pytest.approx(1.03)


def test_load_without_column_header():
    scan = load_scan(scan_text(simple_rows(), header=False))
    assert scan.frequency.size == 20


def test_metadata_keeps_strings():
    scan = load_scan(scan_text(simple_rows(), meta=[("buffer_gas", "Ne"),
                                                    ("pressure_Torr", 90)]))
    assert scan.metadata == {"buffer_gas": "Ne", "pressure_Torr": 90.0}


def test_duplicate_frequency_rejected():
    rows = simple_rows(19) + ["5.0,2.0"]
    with pytest.raises(MonotonicityError):
        load_scan(scan_text(rows))


def test_unsorted_input_is_sorted():
    rows = simple_rows(20)[::-1]
    scan = load_scan(scan_text(rows))
    assert np.all(np.diff(scan.frequency) > 0)


def test_sorted_input_yields_the_arrays_the_sort_gives():
    # strictly increasing input skips the sort; the arrays are the same
    # doubles as the sorted reversed input, and the scan owns them
    rng = np.random.default_rng(3)
    f = np.cumsum(rng.uniform(0.5, 1.5, 200)) - 80.0
    y = rng.normal(size=200)
    scan = Scan(f, y)
    reversed_scan = Scan(f[::-1], y[::-1])
    for got, want in [(scan.frequency, f), (scan.signal, y),
                      (reversed_scan.frequency, f), (reversed_scan.signal, y)]:
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.flags.owndata
    assert not np.shares_memory(scan.frequency, f)


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        load_scan(scan_text(simple_rows(15)))


def test_parse_error_carries_line_number():
    rows = simple_rows(10) + ["oops"] + simple_rows(10)
    with pytest.raises(ParseError) as err:
        load_scan(scan_text(rows))
    assert err.value.line == 12  # header line is line 1
    with pytest.raises(ParseError) as err2:
        load_scan(scan_text(simple_rows(10) + ["1e5,nan"] + simple_rows(8)))
    assert err2.value.line is not None


def test_three_columns_rejected():
    with pytest.raises(ParseError):
        load_scan(scan_text(simple_rows(19) + ["1.0,2.0,3.0"]))


def test_write_read_round_trip(tmp_path):
    f = np.linspace(0, 1e4, 32)
    y = 1.0 + 0.1 * np.sin(f / 1e3)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, f, y, {"cell": "A1", "temperature_C": 65.0})
    scan = load_scan(path)
    np.testing.assert_array_equal(scan.frequency, f)
    np.testing.assert_array_equal(scan.signal, y)
    assert scan.metadata["cell"] == "A1"


@pytest.mark.parametrize("meta", [[("temperature_C", 65)], []])
def test_load_file_with_byte_order_mark(tmp_path, meta):
    # the mark precedes a "# key = value" line, or the column header
    path = tmp_path / "bom.csv"
    path.write_text(scan_text(simple_rows(), meta=meta).getvalue(),
                    encoding="utf-8-sig")
    scan = load_scan(path)
    assert scan.frequency.size == 20
    assert scan.metadata == dict((k, float(v)) for k, v in meta)


def test_load_scan_accepts_any_path_like(tmp_path):
    write_scan_csv(tmp_path / "scan.csv", np.arange(20.0), np.linspace(1, 2, 20),
                   {"cell": "A1"})
    with os.scandir(tmp_path) as entries:
        (entry,) = entries
        scan = load_scan(entry)
    expected = load_scan(str(tmp_path / "scan.csv"))
    np.testing.assert_array_equal(scan.frequency, expected.frequency)
    np.testing.assert_array_equal(scan.signal, expected.signal)
    assert scan.metadata == expected.metadata == {"cell": "A1"}


def test_scan_refuses_mismatched_or_non_finite_arrays_and_load_scan_a_non_source():
    f = np.arange(20.0)
    for frequency, signal in ((f, np.ones(19)), (f.reshape(4, 5), np.ones((4, 5)))):
        with pytest.raises(ParseError, match="matching 1-d arrays"):
            Scan(frequency, signal)
    y = np.ones(20)
    y[7] = np.nan
    for frequency, signal in ((f, y), (np.append(f[:-1], np.inf), np.ones(20))):
        with pytest.raises(ParseError, match="non-finite frequency or signal"):
            Scan(frequency, signal)
    with pytest.raises(TypeError, match="cannot read a scan from int"):
        load_scan(42)


# whitespace that str.strip drops, some of which str.splitlines would also
# treat as a line break; float() refuses "\x1c" to "\x1f" around a number
# and accepts the rest, while numpy's reader strips all of them
_PAD = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                        "\x85", "\u2028"])
_VALUE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# spellings that float() accepts and numpy's reader refuses
_ODD_VALUE = st.sampled_from(["1_0.5", "\u0661\u0662"])
_FAULTY_ROWS = ("dup", "blank", "comment", "one", "three", "text", "nan", "inf",
                "header", "odd")


@st.composite
def scan_lines(draw):
    """Lines of a scan file, without line endings: metadata and comment
    lines, an optional header in any accepted spelling, then data rows,
    well formed but for a few kinds of faulty row."""
    lines = [draw(st.sampled_from(["# {} = {}", "#{}={}", "## {} = {}", "# {} {}"]))
             .format(draw(st.sampled_from(["gas", "temperature_C", "file"])),
                     draw(st.sampled_from(["Ne", " 65 ", "1e-3", "nan", "a = b", ""])))
             for _ in range(draw(st.integers(0, 3)))]
    lines += draw(st.lists(st.sampled_from(["", "  ", "# note"]), max_size=2))
    header = draw(st.sampled_from([None, "frequency_hz,signal", "frequency_hz , signal",
                                   "FREQUENCY_HZ,SIGNAL", " Frequency_Hz,Signal "]))
    if header is not None:
        lines.append(header)
    kinds = ("row",) * 8 + tuple(draw(st.lists(st.sampled_from(_FAULTY_ROWS), max_size=2)))
    pads = st.sampled_from(["", *draw(st.lists(_PAD, max_size=2))])
    start = draw(st.sampled_from([0.0, -1e3, 6.834682610904e9]))
    step = draw(st.sampled_from([1.0, 0.1, -3.0]))
    for i in range(draw(st.integers(0, 15) | st.integers(16, 40))):
        kind = draw(st.sampled_from(kinds))
        f = repr(start + step * (i - (kind == "dup")))
        y = draw(_ODD_VALUE if kind == "odd" else _VALUE)
        fields = {"row": (f, y), "dup": (f, y), "one": (f,), "three": (f, y, y),
                  "text": (f, "oops"), "nan": (f, "nan"), "inf": ("-inf", y),
                  "odd": (f, y)}.get(kind)
        if fields is None:
            lines.append({"blank": draw(pads), "comment": "# k = 1",
                          "header": CSV_HEADER}[kind])
        else:
            lines.append(",".join(draw(pads) + v + draw(pads) for v in fields))
    return lines


def _outcome(parse, source):
    """Bit patterns and metadata of a parsed scan, or its error."""
    try:
        scan = parse(source)
    except (ParseError, MonotonicityError, TooFewSamples) as exc:
        return type(exc), str(exc), exc.line if isinstance(exc, ParseError) else None
    return (scan.frequency.tobytes(), scan.signal.tobytes(),
            repr(list(scan.metadata.items())))


_ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@settings(deadline=None, max_examples=200)
@given(lines=scan_lines(), endings=st.data())
def test_bulk_parse_of_line_list_matches_per_line_reference(lines, endings):
    source = [line + endings.draw(_ENDING) for line in lines]
    assert _outcome(load_scan, source) == _outcome(parse_lines_verbatim, source)


@settings(deadline=None, max_examples=200)
@given(lines=scan_lines(), endings=st.data(), final_newline=st.booleans(),
       encoding=st.sampled_from(["utf-8", "utf-8-sig"]))
def test_bulk_parse_of_file_matches_per_line_reference(tmp_path_factory, lines, endings,
                                                       final_newline, encoding):
    text = "".join(line + endings.draw(_ENDING) for line in lines)
    if lines and not final_newline:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    path.write_bytes(text.encode(encoding))

    def reference(p):
        with open(p, "r", encoding="utf-8-sig") as fh:
            return parse_lines_verbatim(fh)

    assert _outcome(load_scan, path) == _outcome(reference, path)


def test_bulk_conversion_takes_a_written_scan_and_refuses_a_separator(tmp_path):
    f = 6.8e9 + 0.1 * np.arange(20)
    y = np.linspace(-1.0, 1.0, 20) ** 3
    write_scan_csv(tmp_path / "scan.csv", f, y)
    body = (tmp_path / "scan.csv").read_text().split("\n")[1:]
    columns = _bulk_columns(body)
    assert columns is not None
    assert columns[0].tobytes() == f.tobytes() and columns[1].tobytes() == y.tobytes()
    assert _bulk_columns(["0.0,\x1d0.0"]) is None


# ---------------------------------------------------------------- fitting

def test_fit_recovers_clean_peak():
    rng = np.random.default_rng(0)
    f, y, truth = lorentzian_scan(rng, noise_frac=0.0, slope=1e-6,
                                  center_hz=137.0)
    report = fit_resonance(Scan(f, y))
    assert report.converged
    assert report.model.sign == +1
    assert report.metrics.center_hz == pytest.approx(137.0, abs=1e-3)
    assert report.metrics.fwhm_hz == pytest.approx(truth["fwhm_hz"], rel=1e-6)
    assert report.metrics.physical_contrast == pytest.approx(truth["contrast"],
                                                             abs=1e-8)


def test_fit_recovers_dip():
    rng = np.random.default_rng(1)
    f, y, truth = lorentzian_scan(rng, sign=-1, noise_frac=0.005)
    report = fit_resonance(Scan(f, y))
    assert report.model.sign == -1
    assert report.metrics.fwhm_hz == pytest.approx(truth["fwhm_hz"], rel=0.03)


def test_fit_round_trip_noisy_ensemble():
    # 1% amplitude noise, 30 seeds here (the acceptance suite runs 100)
    rng = np.random.default_rng(7)
    for _ in range(30):
        center = rng.uniform(-200.0, 200.0)
        f, y, truth = lorentzian_scan(rng, center_hz=center, noise_frac=0.01)
        report = fit_resonance(Scan(f, y))
        assert abs(report.metrics.center_hz - center) < 20.0
        assert abs(report.metrics.fwhm_hz / truth["fwhm_hz"] - 1) < 0.03
        assert abs(report.metrics.physical_contrast - truth["contrast"]) < 0.003


def test_flat_noisy_scan_raises_no_resonance():
    rng = np.random.default_rng(3)
    f = np.linspace(-5e3, 5e3, 200)
    y = 1.0 + rng.normal(0.0, 1e-3, f.size)
    with pytest.raises(NoResonance):
        fit_resonance(Scan(f, y))


def test_fit_idempotence():
    rng = np.random.default_rng(5)
    f, y, _ = lorentzian_scan(rng, noise_frac=0.01)
    first = fit_resonance(Scan(f, y))
    # refit the model's own clean curve: parameters must reproduce
    clean = first.model(f)
    second = fit_resonance(Scan(f, clean))
    assert second.metrics.center_hz == pytest.approx(first.metrics.center_hz,
                                                     abs=1e-6 * first.metrics.fwhm_hz)
    assert second.metrics.fwhm_hz == pytest.approx(first.metrics.fwhm_hz,
                                                   rel=1e-8)
    assert second.metrics.amplitude == pytest.approx(first.metrics.amplitude,
                                                     rel=1e-8)


def test_scale_equivariance_exact():
    rng = np.random.default_rng(11)
    f, y, _ = lorentzian_scan(rng, noise_frac=0.01)
    a = fit_resonance(Scan(f, y))
    b = fit_resonance(Scan(f, 4.0 * y))  # power of two: float-exact scaling
    assert b.metrics.physical_contrast == a.metrics.physical_contrast
    assert b.metrics.fwhm_hz == a.metrics.fwhm_hz
    assert b.metrics.center_hz == a.metrics.center_hz
    assert b.metrics.qfactor == a.metrics.qfactor
    assert b.metrics.amplitude == 4.0 * a.metrics.amplitude
    assert b.metrics.baseline == 4.0 * a.metrics.baseline


def test_shift_equivariance_exact():
    rng = np.random.default_rng(13)
    f, y, _ = lorentzian_scan(rng, noise_frac=0.01)
    assert np.all(f == np.round(f))  # integers, so the shift is exact
    shift = 12345.0
    a = fit_resonance(Scan(f, y))
    b = fit_resonance(Scan(f + shift, y))
    assert b.metrics.center_hz == a.metrics.center_hz + shift
    assert b.metrics.fwhm_hz == a.metrics.fwhm_hz
    assert b.metrics.physical_contrast == a.metrics.physical_contrast
    assert b.metrics.amplitude == a.metrics.amplitude


def test_direct_halfdepth_cross_check():
    rng = np.random.default_rng(17)
    f, y, truth = lorentzian_scan(rng, noise_frac=0.0)
    report = fit_resonance(Scan(f, y))
    assert report.fwhm_direct_hz == pytest.approx(truth["fwhm_hz"], rel=0.02)


def _direct_fwhm_reference(f, y):
    """Half-depth width read straight off the unscaled samples: the edge
    baseline, the largest excursion and its linear half-depth crossings."""
    x = f - 0.5 * (float(f[0]) + float(f[-1]))
    n_edge = max(3, x.size // 10)
    xl, yl = float(np.mean(x[:n_edge])), float(np.median(y[:n_edge]))
    xr, yr = float(np.mean(x[-n_edge:])), float(np.median(y[-n_edge:]))
    slope = (yr - yl) / (xr - xl)
    resid = y - ((yl - slope * xl) + slope * x)
    i0 = int(np.argmax(np.abs(resid)))
    sign = 1 if resid[i0] >= 0 else -1
    lo, hi = level_crossings(x, -sign * resid, i0, -abs(resid[i0]) / 2.0)
    return hi - lo


@pytest.mark.parametrize("exp2", [-7, 0, 3, 40])
@pytest.mark.parametrize("sign", [+1, -1])
def test_direct_width_is_the_unscaled_half_depth_width(exp2, sign):
    # the fit reads the direct width off its power-of-two scaled guess;
    # that is the same double as the width of the unscaled signal
    rng = np.random.default_rng(23)
    cases = [lorentzian_scan(rng, center_hz=c, sign=sign, noise_frac=nf, slope=sl)[:2]
             for c, nf, sl in [(0.0, 0.0, 0.0), (-1234.5, 0.01, 1e-6),
                               (2500.0, 0.03, -3e-6)]]
    # a peak at the scan's edge: no crossing on its right, width nan
    f = np.linspace(-5000.0, 5000.0, 401)
    cases.append((f, 1.0 + sign * 0.05 * 50.0**2 / ((f - 4975.0) ** 2 + 50.0**2)))
    for f, y in cases:
        y = math.ldexp(1.0, exp2) * y
        direct = fit_resonance(Scan(f, y)).fwhm_direct_hz
        reference = _direct_fwhm_reference(f, y)
        assert direct == reference or math.isnan(direct) and math.isnan(reference)
    assert math.isnan(direct)


def _scan_of_width(fwhm_hz):
    """The same noisy scan at any width: 401 samples over 10 FWHM."""
    f, y, _ = lorentzian_scan(np.random.default_rng(1), n=401, span_hz=10.0 * fwhm_hz,
                              fwhm_hz=fwhm_hz, contrast=0.05, noise_frac=0.01)
    return Scan(f, y)


@pytest.mark.parametrize("fwhm_hz", [1e3, 1e5, 1e6])
def test_fit_width_does_not_depend_on_the_frequency_scale(fwhm_hz):
    # the fit runs in units of the median spacing, so its Jacobian keeps
    # full rank at every width (in Hz it lost rank from about 200 kHz up,
    # and the fit returned the direct width, 0.9722 of the truth)
    report = fit_resonance(_scan_of_width(fwhm_hz))
    assert report.metrics.fwhm_hz == pytest.approx(fwhm_hz, rel=0.01)


def test_fit_at_a_tiny_frequency_scale_is_silent_and_typed(capfd):
    # a width of 1e-115 Hz: in units of the median spacing nothing
    # underflows; a report or a typed refusal is all that may come out,
    # and nothing reaches LAPACK that would make it print on stdout
    scan = _scan_of_width(1e-115)
    with np.errstate(all="ignore"):
        try:
            fit_resonance(scan)
        except CptsimError:
            pass  # a typed refusal is an answer; numpy's LinAlgError is not
    assert capfd.readouterr() == ("", "")


def _outlying_scan(rng):
    """A 10 Hz scan whose first and last frequencies lie at -+1e200 Hz: in
    units of its median spacing, the squares of the outliers' offsets
    overflow, and the Jacobian holds nan."""
    u = np.linspace(-5.0, 5.0, 401)
    y = 1.0 + 0.05 / (u**2 + 1.0) + rng.normal(0.0, 5e-4, u.size)
    f = u.copy()
    f[0], f[-1] = -1e200, 1e200
    return Scan(f, y)


def test_fit_at_an_extreme_frequency_scale_is_a_typed_failure():
    # the fit says so as NoResonance before LAPACK sees a non-finite
    # number, not as numpy's LinAlgError
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NoResonance, match="resonance fit failed"):
        fit_resonance(_outlying_scan(np.random.default_rng(1)))


def test_fit_at_an_extreme_frequency_scale_warns_nothing():
    # the same scan with numpy set to warn on everything and warnings made
    # errors: the fit enters its own error state, so the typed failure is
    # all that comes out
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoResonance, match="non-finite Jacobian"):
            fit_resonance(_outlying_scan(np.random.default_rng(1)))


def test_a_fit_that_stalls_is_unconverged_and_a_narrow_one_no_resonance():
    # on this noisy scan no halving of the Gauss-Newton step lowers the
    # SSE after 2 steps: the fit stops unconverged, below MAX_ITERATIONS,
    # on a half width far below the sample spacing (both in the fit's units)
    rng = np.random.default_rng([5, 1545])
    n = int(rng.integers(16, 300))
    noise = rng.uniform(0.0, 2.0)
    f, y, _ = lorentzian_scan(rng, n=n, noise_frac=noise)
    x = f - 0.5 * (f[0] + f[-1])
    *_, (fit,) = scans_mod._fit_damped(x[None], y[None])  # a stack of one
    theta, _, iterations, converged, _, spacing = fit
    assert (n, iterations, converged) == (265, 2, False)
    assert iterations < scans_mod.MAX_ITERATIONS and theta[4] < spacing
    with pytest.raises(NoResonance, match="below the sample spacing"):
        fit_resonance(Scan(f, y))


def test_a_failed_least_squares_solve_is_no_resonance():
    # a flat scan: the initial guess has no amplitude, so the Jacobian's
    # center and width columns are zero, and LAPACK finds the normal
    # equations singular
    f = lorentzian_scan(np.random.default_rng(19))[0]
    with pytest.raises(NoResonance) as info:
        fit_resonance(Scan(f, np.ones_like(f)))
    assert str(info.value) == "resonance fit failed: Singular matrix"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_converged_fit_beats_affine_baseline():
    rng = np.random.default_rng(19)
    f, y, _ = lorentzian_scan(rng, noise_frac=0.01)
    report = fit_resonance(Scan(f, y))
    assert report.converged
    affine = np.polyfit(f, y, 1)
    affine_rms = float(np.sqrt(np.mean((y - np.polyval(affine, f)) ** 2)))
    assert report.rms_residual <= affine_rms


def _outcome(fit, scan):
    """repr of a fit's report, or its error's type and message."""
    try:
        return repr(fit(scan))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


GUARDED_LINES = (25, 38, 87, 224, 1288, 2371, 2487)


def _verbatim_cases(rng):
    """Scans for the verbatim-fit property (see its test)."""
    mix = []
    for i in range(180):
        n = (201, 401, 801)[i % 3]
        noise = (0.003, 0.01, 0.03)[(i // 3) % 3]
        fwhm = 10 ** rng.uniform(math.log10(300.0), math.log10(3000.0))
        span = fwhm * rng.uniform(8.0, 15.0)
        center = 6.834682610904e9 + rng.uniform(-0.1, 0.1) * span
        slope = rng.uniform(-0.02, 0.02) / span
        f, y, _ = lorentzian_scan(rng, n=n, span_hz=span, center_hz=center,
                                  fwhm_hz=fwhm, contrast=rng.uniform(0.01, 0.1),
                                  baseline=1.0 - slope * center, slope=slope,
                                  noise_frac=noise, sign=1 if i % 2 else -1)
        mix.append((f, y))
    cases = list(mix)
    # power-of-two rescaled signals
    for f, y in mix[:20]:
        cases += [(f, np.ldexp(y, e)) for e in (-7, 0, 3, 17, 40)]
    for n in (201, 401, 801):
        f = np.linspace(-5000.0, 5000.0, n)
        for sign in (1, -1):
            # a peak at the scan edge (nan direct width), and flat noise
            cases.append((f, 1.0 + sign * 0.05 * 150.0**2 / ((f - 4900.0) ** 2 + 150.0**2)
                          + rng.normal(0.0, 1e-4, n)))
            cases.append((f, 1.0 + rng.normal(0.0, 1e-3, n)))
            # edges made of exact +-0.0 ties around a peak
            for _ in range(4):
                y = sign * 0.05 * 200.0**2 / (f**2 + 200.0**2)
                edge = max(3, n // 10)
                y[:edge] = rng.choice([0.0, -0.0], edge)
                y[-edge:] = rng.choice([0.0, -0.0], edge)
                cases.append((f, y))
    # noisy sloped lines whose fit converges above the least-squares line,
    # so that the affine guard turns converged off (kept last); a fit to
    # noise takes its path from the last bits, so these reach the guard on
    # every setting of tools/kernels.py
    for k in GUARDED_LINES:
        line = np.random.default_rng([7, k])
        n = int(line.integers(16, 64))
        f = np.sort(line.uniform(-1e3, 1e3, n))
        cases.append((f, line.normal(0.0, 1.0, n) + line.normal() * f))
    return cases


def test_fit_matches_the_verbatim_fit():
    # the package's fit is the same floating-point arithmetic as the one
    # written with np.median, np.mean and numpy.polynomial's polyfit
    cases = _verbatim_cases(np.random.default_rng(4711))
    assert len(cases) >= 300
    outcomes = [(_outcome(fit_resonance, Scan(f, y)), _outcome(fit_verbatim, Scan(f, y)))
                for f, y in cases]
    for got, want in outcomes:
        assert got == want
    reports = [got for got, _ in outcomes if got.startswith("FitReport")]
    assert sum("fwhm_direct_hz=nan" in r for r in reports) >= 6
    assert sum(got.startswith("NoResonance") for got, _ in outcomes) >= 6
    assert sum("converged=True" in r for r in reports) >= 0.9 * len(reports)
    assert all("converged=False" in got for got, _ in outcomes[-len(GUARDED_LINES):])


def _wide_scale_cases(rng):
    """Seeded scans of FWHM 1 kHz to 1 MHz, at the clock frequency."""
    cases = []
    for i in range(60):
        fwhm = 10 ** rng.uniform(3.0, 6.0)
        span = fwhm * rng.uniform(8.0, 15.0)
        f, y, _ = lorentzian_scan(rng, n=(201, 401, 801)[i % 3], span_hz=span,
                                  center_hz=6.834682610904e9 + rng.uniform(-0.1, 0.1) * span,
                                  fwhm_hz=fwhm, contrast=rng.uniform(0.01, 0.1),
                                  noise_frac=(0.003, 0.01, 0.03)[(i // 3) % 3],
                                  sign=1 if i % 2 else -1)
        cases.append((f, y))
    return cases


def test_the_normal_equations_step_fits_as_an_orthogonal_one():
    # the fit with its step from np.linalg.lstsq (an SVD) in place of the
    # normal equations: in power-of-two-scaled units the two give the same
    # outcome and the same converged flag, and a converged fit's figures
    # agree within 1e-7 (measured: at most 2.3e-9).  An unconverged fit,
    # such as the noisy lines the affine guard marks, has found no minimum,
    # and the two steps may leave it on different paths
    rng = np.random.default_rng(4711)
    cases = _verbatim_cases(rng) + _wide_scale_cases(np.random.default_rng(36))
    reports = 0
    for f, y in cases:
        outcomes = []
        for step in (None, lstsq_step):
            try:
                outcomes.append(fit_resonance(Scan(f, y)) if step is None
                                else fit_verbatim(Scan(f, y), step))
            except NoResonance as exc:
                outcomes.append(exc)
        got, want = outcomes
        assert type(got) is type(want), (got, want)
        if isinstance(got, NoResonance):
            continue
        assert got.converged == want.converged
        if not got.converged:
            continue
        reports += 1
        g, w = got.metrics, want.metrics
        assert abs(g.fwhm_hz / w.fwhm_hz - 1.0) <= 1e-7
        assert abs(g.center_hz - w.center_hz) <= 1e-7 * w.fwhm_hz
        assert abs(g.physical_contrast / w.physical_contrast - 1.0) <= 1e-7
    assert reports >= 300


def test_a_signal_scaled_by_a_power_of_two_scales_its_report_exactly():
    # baseline, amplitude and rms scale by exactly 2**k, and every other
    # figure is the same double, from k = -500 to the largest k at which
    # the signal stays finite
    f, y, _ = lorentzian_scan(np.random.default_rng(37), n=101, sign=-1)
    base = fit_resonance(Scan(f, y))
    scaled = ("baseline", "amplitude")
    for k in range(-500, 1016, 7):
        report = fit_resonance(Scan(f, np.ldexp(y, k)))
        for name in ("baseline", "amplitude", "physical_contrast", "fwhm_hz",
                     "center_hz", "asymmetry", "qfactor"):
            want = getattr(base.metrics, name)
            assert getattr(report.metrics, name) == (
                math.ldexp(want, k) if name in scaled else want), (k, name)
        assert report.rms_residual == math.ldexp(base.rms_residual, k), k
        assert (report.fwhm_direct_hz, report.iterations, report.converged) == (
            base.fwhm_direct_hz, base.iterations, base.converged), k


def test_a_frequency_scaled_by_a_power_of_two_scales_width_and_center_exactly():
    # over the widest j at which the frequencies, their midpoint and their
    # spacings stay normal doubles: FWHM, center and direct width scale by
    # exactly 2**j, and the signal's figures are the same doubles
    f, y, _ = lorentzian_scan(np.random.default_rng(41), n=201, center_hz=137.0)
    base = fit_resonance(Scan(f, y))
    total = f[0] + f[-1]
    small = [abs(v) for v in (*f, 0.5 * total, *np.diff(f)) if v != 0.0]
    lo = max(-1021 - math.frexp(v)[1] for v in small)
    hi = min(1024 - math.frexp(v)[1] for v in (*np.abs(f), abs(total)))
    assert lo < -1000 and hi > 1000
    for j in [*range(lo, hi, 7), hi]:
        report = fit_resonance(Scan(np.ldexp(f, j), y))
        assert report.metrics.fwhm_hz == math.ldexp(base.metrics.fwhm_hz, j), j
        assert report.metrics.center_hz == math.ldexp(base.metrics.center_hz, j), j
        assert report.fwhm_direct_hz == math.ldexp(base.fwhm_direct_hz, j), j
        for name in ("baseline", "amplitude", "physical_contrast", "asymmetry"):
            assert getattr(report.metrics, name) == getattr(base.metrics, name), (j, name)
        assert (report.rms_residual, report.iterations, report.converged) == (
            base.rms_residual, base.iterations, base.converged), j


def _row_alone(scan):
    """The table row of ``scan`` fitted on its own."""
    try:
        return scans_mod._row_from_report(scan.metadata, fit_resonance(scan))
    except Exception as exc:
        return scans_mod.failed_row(scan.metadata, exc)


@pytest.mark.parametrize("stack_samples", [None, 1, 3000])
def test_a_scan_reports_in_a_stack_as_alone(monkeypatch, stack_samples):
    # the verbatim cases, with the fit that stalls (see the stall test) and
    # a normal scan of its length, fitted as one batch: at the
    # default stack bound, at one scan a stack, and at a bound that splits
    # each length's group
    cases = _verbatim_cases(np.random.default_rng(4711))
    rng = np.random.default_rng([5, 1545])
    n = int(rng.integers(16, 300))
    cases.append(lorentzian_scan(rng, n=n, noise_frac=rng.uniform(0.0, 2.0))[:2])
    cases.append(lorentzian_scan(np.random.default_rng(8), n=n)[:2])
    scans = [Scan(f, y, {"case": i}) for i, (f, y) in enumerate(cases)]
    alone = [_row_alone(scan) for scan in scans]
    if stack_samples is not None:
        monkeypatch.setattr(scans_mod, "STACK_SAMPLES", stack_samples)
    stacks = list(scans_mod._stacks(scans))
    assert sorted(i for stack in stacks for i in stack) == list(range(len(scans)))
    lengths = [scans[stack[0]].frequency.size for stack in stacks]
    assert max(map(len, stacks)) == {None: 40, 1: 1, 3000: 14}[stack_samples]
    assert len(set(lengths)) < len(lengths)  # some length's group is split
    rows = batch_metrics(scans).rows
    assert len(rows) == len(alone) >= 300
    for got, want in zip(rows, alone):
        assert repr(got) == repr(want)
    # the stalled fit is refused for its width, beside an accepted fit
    assert rows[-2]["status"].endswith("Hz below the sample spacing")
    assert rows[-1]["status"] == "ok"
    assert sum(row["status"] != "ok" for row in rows) >= 6


def test_stacked_residual_rows_start_where_a_lone_array_does():
    # OpenBLAS's SSE3 (Prescott) dot kernel sums a vector that starts 8
    # bytes past a 16-byte boundary in another order; so each row of a
    # stack's residual starts 16-byte aligned, as a lone array does, and so
    # does each row that the stacked product M @ M.T of the normal
    # equations reads, in a stack of any size
    for n in (16, 17, 201):
        for k in (1, 5):
            x = np.linspace(-1.0, 1.0, n) + np.zeros((k, 1))
            t = np.tile([1.0, 0.0, 0.5, 0.0, 0.3], (k, 1))
            state = scans_mod._evaluate(x, x, t)
            assert [row.ctypes.data % 16 for row in state[4]] == [0] * k
            m = scans_mod._jacobian_and_residual(x, t, *state[:5])
            assert m.shape == (k, 6, n)
            assert [row.ctypes.data % 16 for item in m for row in item] == [0] * (6 * k)
            assert (m[:, 5] == state[4]).all()


def _failure(outcome):
    """An outcome's exception as type, message and cause."""
    cause = outcome.__cause__
    return (type(outcome), str(outcome), type(cause), str(cause))


def test_a_typed_failure_stays_with_its_scan_in_a_stack():
    # a scan with outlying frequencies (a non-finite Jacobian) and a flat
    # scan (singular normal equations), each among normal scans of the
    # same length
    rng = np.random.default_rng(29)
    normal = [Scan(*lorentzian_scan(rng)[:2]) for _ in range(3)]
    outlying = _outlying_scan(rng)
    flat = Scan(lorentzian_scan(rng, span_hz=12_000.0)[0], np.ones(401))
    stack = [normal[0], outlying, normal[1], flat, normal[2]]
    assert list(scans_mod._stacks(stack)) == [[0, 1, 2, 3, 4]]
    with np.errstate(over="ignore", invalid="ignore"):
        outcomes = scans_mod._fit_stack(stack)
        alone = []
        for scan in stack:
            try:
                alone.append(fit_resonance(scan))
            except NoResonance as exc:
                alone.append(exc)
        rows = batch_metrics(stack).rows
    assert [type(o) for o in outcomes] == [scans_mod.FitReport, NoResonance,
                                           scans_mod.FitReport, NoResonance,
                                           scans_mod.FitReport]
    assert _failure(outcomes[1]) == _failure(alone[1]) == (
        NoResonance, "resonance fit failed: non-finite Jacobian", type(None), "None")
    assert _failure(outcomes[3]) == _failure(alone[3]) == (
        NoResonance, "resonance fit failed: Singular matrix",
        np.linalg.LinAlgError, "Singular matrix")
    for i in (0, 2, 4):
        assert repr(outcomes[i]) == repr(alone[i])
    assert [row["status"] for row in rows] == [
        "ok", f"NoResonance: {alone[1]}", "ok", f"NoResonance: {alone[3]}", "ok"]


def test_median_is_numpys_median():
    # each row of a stack: its median is np.median of that row alone, to
    # the sign of a zero, in stacks of one to four rows of each kind
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -1.0, 0.5])
    for n in range(1, 201):
        k = 1 + n % 4
        stack = np.concatenate([rng.choice(pool, (k, n)), rng.choice([0.0, -0.0], (k, n)),
                                np.round(rng.normal(0.0, 3.0, (k, n))),
                                rng.choice([1e308, -1e308], (k, n))])
        with np.errstate(over="ignore"):  # the even case may overflow to inf
            got = _median(stack)
            want = [float(np.median(row)) for row in stack]
        assert got.shape == (len(stack),)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want], stack


def test_affine_fit_is_polyfit():
    rng = np.random.default_rng(6)
    for n in (16, 17, 201):
        for ex in range(-300, 301, 50):
            for ey in range(-300, 301, 100):
                x = np.sort(rng.normal(0.0, 1.0, n)) * 10.0**ex
                y = rng.normal(1.0, 1.0, n) * 10.0**ey
                x[n // 2], y[::3] = -0.0, -0.0
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")  # rank and overflow at the extremes
                    got = _affine_fit(x, y)
                    want = np.polynomial.polynomial.polyfit(x, y, 1)
                assert got.tobytes() == want.tobytes(), (n, ex, ey)


def test_fit_model_lineshape_export():
    # cross-module consistency: fit a low-power (near-Lorentzian) model dip
    base = make_params(mode=Depolarization.COMPLETE)
    p = base.replace(rabi=rabi_for_pumping_strength(base, 0.05))
    shape = sweep(p, default_sweep_spec(p, span_halfwidths=30.0, n_points=801))
    model_fwhm = fwhm(shape)
    scan = Scan(shape.deltas / (2 * math.pi), shape.rho_ee)
    report = fit_resonance(scan)
    assert report.model.sign == -1
    assert report.metrics.fwhm_hz == pytest.approx(model_fwhm, rel=0.02)


# ------------------------------------------------------------------ batch

def make_series(rng, intensities, contrasts, temperature=65.0):
    scans = []
    for inten, cont in zip(intensities, contrasts):
        f, y, _ = lorentzian_scan(rng, contrast=cont, noise_frac=0.002)
        scans.append(Scan(f, y, {"temperature_C": temperature,
                                 "intensity_mW_cm2": inten}))
    return scans


def test_batch_empty():
    result = batch_metrics([])
    assert result.rows == [] and result.qmax == []


def test_batch_metadata_pass_through(rng):
    scans = make_series(rng, [0.1, 0.1], [0.05, 0.05])
    scans[1] = Scan(scans[0].frequency, scans[0].signal,
                    {**scans[0].metadata, "cell": "B"})
    result = batch_metrics(scans)
    assert len(result.rows) == 2
    assert result.rows[0]["contrast"] == result.rows[1]["contrast"]
    assert result.rows[1]["cell"] == "B"


def test_batch_collects_errors_without_aborting(rng):
    scans = make_series(rng, [0.1, 0.3], [0.05, 0.06])
    flat = Scan(scans[0].frequency,
                np.ones_like(scans[0].signal), {"intensity_mW_cm2": 0.2})
    result = batch_metrics([scans[0], flat, scans[1]])
    statuses = [row["status"] for row in result.rows]
    assert statuses[0] == "ok" and statuses[2] == "ok"
    assert statuses[1].startswith("NoResonance")


def test_batch_qmax_selects_constructed_argmax(rng):
    intensities = [0.05, 0.1, 0.2, 0.4, 0.8]
    contrasts = [0.01, 0.025, 0.045, 0.055, 0.058]  # rising then saturating
    scans = make_series(rng, intensities, contrasts)
    result = batch_metrics(scans)
    qs = [row["qfactor"] for row in result.rows]
    assert len(result.qmax) == 1
    winner = result.qmax[0]
    assert winner["intensity_mW_cm2"] == intensities[int(np.argmax(qs))]
    # fixed FWHM means Q tracks contrast, so the last intensity wins
    assert winner["intensity_mW_cm2"] == 0.8


def test_batch_qmax_groups_by_temperature(rng):
    cold = make_series(rng, [0.1, 0.2], [0.02, 0.05], temperature=55.0)
    hot = make_series(rng, [0.1, 0.2], [0.06, 0.03], temperature=75.0)
    result = batch_metrics(cold + hot)
    assert len(result.qmax) == 2
    by_temp = {row["temperature_C"]: row["intensity_mW_cm2"]
               for row in result.qmax}
    assert by_temp == {55.0: 0.2, 75.0: 0.1}
