"""Scan parsing, Lorentzian fitting, and batch reduction."""

import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptsim import (Depolarization, MonotonicityError, NoResonance,
                    ParseError, Scan, TooFewSamples, batch_metrics,
                    default_sweep_spec, fit_resonance, fwhm, load_scan,
                    rabi_for_pumping_strength, sweep, write_scan_csv)

from cptsim.lineshape import level_crossings
from cptsim.scans import CSV_HEADER

from conftest import make_params
from oracles import lorentzian_scan, parse_lines_verbatim


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


# whitespace that str.strip drops, some of which str.splitlines would also
# treat as a line break; float() accepts all but "\x1c" around a number
_PAD = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
_VALUE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_FAULTY_ROWS = ("dup", "blank", "comment", "one", "three", "text", "nan", "inf",
                "header")


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
        y = draw(_VALUE)
        fields = {"row": (f, y), "dup": (f, y), "one": (f,), "three": (f, y, y),
                  "text": (f, "oops"), "nan": (f, "nan"), "inf": ("-inf", y)}.get(kind)
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


def test_converged_fit_beats_affine_baseline():
    rng = np.random.default_rng(19)
    f, y, _ = lorentzian_scan(rng, noise_frac=0.01)
    report = fit_resonance(Scan(f, y))
    assert report.converged
    affine = np.polyfit(f, y, 1)
    affine_rms = float(np.sqrt(np.mean((y - np.polyval(affine, f)) ** 2)))
    assert report.rms_residual <= affine_rms


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
