"""Command-line behaviors: dispatch, config merging, outputs, exit codes."""

import contextlib
import csv
import dataclasses
import errno
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cptsim
from cptsim import cli
from cptsim.cli import main
from cptsim.vapor import spin_exchange

from conftest import make_params
from oracles import lorentzian_scan


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags with exit 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scan(path, seed=0, meta=(), **kwargs):
    rng = np.random.default_rng(seed)
    f, y, truth = lorentzian_scan(rng, **kwargs)
    lines = [f"# {k} = {v}" for k, v in dict(meta).items()]
    lines.append("frequency_hz,signal")
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(f, y)]
    path.write_text("\n".join(lines) + "\n")
    return truth


# ------------------------------------------------------------------ solve

def test_solve_zero_rabi_uniform(capsys):
    code, out, _ = run(capsys, "solve", "--rabi-hz", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(v == 0.125 for v in data["ground"].values())
    assert data["rho_ee"] == 0.0


def test_solve_fig1_preset_none_mode(capsys):
    code, out, _ = run(capsys, "solve", "--preset", "fig1", "--mode", "none",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    ground = data["ground"]
    assert max(ground, key=ground.get) == "F2_m2"
    assert data["params_hz"]["gamma_opt_hz"] == 1e9
    assert data["params_hz"]["delta_opt_hz"] == -30e6


def test_solve_fig1_preset_complete_mode(capsys):
    code, out, _ = run(capsys, "solve", "--preset", "fig1", "--mode", "both",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    excited = data["complete"]["excited_effective"]
    values = list(excited.values())
    assert all(v == values[0] for v in values)
    ground = data["complete"]["ground"]
    assert ground["F1_m1"] < ground["F1_m-1"]
    assert ground["F2_m2"] < data["none"]["ground"]["F2_m2"]


def test_solve_csv_format(capsys):
    code, out, _ = run(capsys, "solve", "--rabi-hz", "1e6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    assert any(line.startswith("ground.F2_m-2,") for line in lines)


def test_hz_round_trip_full_precision(capsys):
    rabi = "943472.5306745064"
    _, out, _ = run(capsys, "solve", "--rabi-hz", rabi, "--format", "json")
    data = json.loads(out)
    assert data["params_hz"]["rabi_hz"] == float(rabi)


def test_solve_at_a_huge_detuning_prints_the_call_s_rho_ee(capsys):
    # at 1e160 Hz the state is its far-detuned limit, and rho_ee is what a
    # RationalLineshape call returns at that detuning
    code, out, err = run(capsys, "solve", "--rabi-hz", "1e5", "--delta-raman-hz", "1e160",
                         "--format", "json")
    assert (code, err) == (0, "")
    p = make_params(rabi=cptsim.hz_to_angular(1e5), delta_raman=cptsim.hz_to_angular(1e160))
    assert json.loads(out)["rho_ee"] == cptsim.RationalLineshape(p)(np.array([p.delta_raman]))[0]


@pytest.mark.parametrize("flag, field", [("--rabi-hz", "rabi"), ("--gamma-opt-hz", "gamma_opt"),
                                         ("--delta-opt-hz", "delta_opt"),
                                         ("--omega-e-hz", "omega_e")])
def test_solve_with_an_overflowing_rate_is_a_parameter_error(capsys, flag, field):
    code, out, err = run(capsys, "solve", "--rabi-hz", "1e5", flag, "1e160")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: ParameterError: {field} too large: ")


def test_mode_both_rejected_outside_solve(capsys, tmp_path):
    # argparse's --mode choices, and the same choices for a config file,
    # refuse 'both' before a subcommand other than solve runs
    cfg = tmp_path / "both.cfg"
    cfg.write_text("mode = both\n")
    for argv in (["sweep", "--rabi-hz", "1e6", "--mode", "both"],
                 ["power-broadening", "--mode", "both"],
                 ["power-broadening", "--config", str(cfg)]):
        code, _, err = run(capsys, *argv)
        assert code == 2
    assert "config key 'mode': 'both' not in" in err


# ------------------------------------------------------------------ sweep

def test_sweep_writes_csv_and_metrics(tmp_path, capsys):
    out = tmp_path / "shape.csv"
    code, _, _ = run(capsys, "sweep", "--preset", "fig1", "--mode", "complete",
                     "--n-points", "301", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta_hz,rho_ee"
    assert len(lines) > 300
    metrics = json.loads((tmp_path / "shape_metrics.json").read_text())
    assert metrics["asymmetry"] < 1e-6
    assert metrics["physical_contrast"] > 0.3


def test_sweep_flat_region_no_resonance_exit_code(capsys):
    code, _, err = run(capsys, "sweep", "--rabi-hz", "0", "--n-points", "3")
    assert code == 3
    assert "NoResonance" in err


@pytest.mark.parametrize("rabi_hz", ["1e100", "1e140"])
def test_sweep_at_a_huge_rabi_frequency_is_singular(capsys, rabi_hz):
    # the adaptive grid meets the real pole before it reads the closed form
    code, out, err = run(capsys, "sweep", "--rabi-hz", rabi_hz, "--n-points", "5")
    assert (code, out) == (3, "")
    assert err.startswith("error: SingularSystem: coherence block singular at a real detuning")
    assert "Traceback" not in err


def test_sweep_stdout_metrics(capsys):
    code, out, _ = run(capsys, "sweep", "--pumping-strength", "5",
                       "--n-points", "201")
    assert code == 0
    metrics = json.loads(out)
    assert metrics["fwhm_hz"] > 0


@pytest.mark.parametrize("grid", [("--spacing", "linear", "--n-points", "301"),
                                  ("--span-halfwidths", "40", "--n-points", "101"),
                                  ("--delta-span-hz", "3000",)],
                         ids=["linear", "span-40", "delta-span"])
def test_sweep_sidecar_is_the_library_metrics(tmp_path, capsys, grid):
    # the sidecar reports resonance_metrics(params), whatever grid the
    # CSV samples; its baseline stays at +/-20 estimated half widths
    out = tmp_path / "shape.csv"
    code, _, _ = run(capsys, "sweep", "--pumping-strength", "8.9", "--mode", "none",
                     *grid, "--out", str(out))
    assert code == 0
    sidecar = json.loads((tmp_path / "shape_metrics.json").read_text())
    base = make_params(mode=cptsim.Depolarization.NONE)
    params = base.replace(rabi=cptsim.rabi_for_pumping_strength(base, 8.9))
    metrics = cptsim.resonance_metrics(params)
    for field in dataclasses.fields(metrics):
        assert sidecar[field.name] == getattr(metrics, field.name), field.name
    assert sidecar["n_samples"] == len(out.read_text().splitlines()) - 1


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def test_each_output_comes_from_one_source(tmp_path, capsys, monkeypatch):
    # every printed value reaches _fmt or _dump_json as a plain Python
    # scalar, so neither needs a case for numpy's scalars
    printed = []
    real_fmt, real_dump_json = cli._fmt, cli._dump_json

    def fmt(value):
        printed.append(value)
        return real_fmt(value)

    def dump_json(obj):
        printed.extend(_leaves(obj))
        return real_dump_json(obj)

    monkeypatch.setattr(cli, "_fmt", fmt)
    monkeypatch.setattr(cli, "_dump_json", dump_json)
    scans = tmp_path / "scans"
    scans.mkdir()
    write_scan(scans / "a.csv", seed=1, meta={"gas": "Ne", "intensity_mW_cm2": 0.1})
    write_scan(scans / "b.csv", seed=2, sign=-1, meta={"gas": "N2", "intensity_mW_cm2": 0.2})
    (scans / "c_text.csv").write_text("frequency_hz,signal\n1,2\nbad\n")
    table, shape = tmp_path / "table.csv", tmp_path / "shape.csv"
    commands = [("sweep", "--preset", "fig1", "--n-points", "101", "--out", str(shape)),
                ("sweep", "--preset", "fig1", "--n-points", "101", "--format", "json"),
                ("analyze", str(scans), "--out", str(table))]
    for fmt_name in ("csv", "json"):
        commands += [("solve", "--preset", "fig1", "--mode", "both", "--format", fmt_name),
                     ("contrast-ratio", "--pumping-strengths", "1,1e3", "--format", fmt_name),
                     ("power-broadening", "--format", fmt_name),
                     ("spin-exchange", "--t-max-c", "52", "--format", fmt_name),
                     ("analyze", str(scans), "--format", fmt_name)]
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    assert {type(value) for value in printed} == {float, int, bool, str, type(None)}

    sidecar = json.loads((tmp_path / "shape_metrics.json").read_text())
    assert list(sidecar) == ["params_hz", "baseline", "amplitude", "physical_contrast",
                             "fwhm_hz", "center_hz", "asymmetry", "qfactor", "n_samples"]
    assert list(sidecar)[1:-1] == [f.name for f in dataclasses.fields(cptsim.ResonanceMetrics)]
    params_hz = list(sidecar["params_hz"])
    assert params_hz == ["rabi_hz", "gamma_opt_hz", "gamma_nat_hz", "gamma_g_hz",
                         "omega_e_hz", "delta_opt_hz", "delta_raman_hz", "mode",
                         "pumping_strength"]
    assert [f"{f.name}_hz" for f in dataclasses.fields(cptsim.ModelParams)][:-1] == params_hz[:-2]

    columns = list(cptsim.scans.METRIC_COLUMNS)
    assert table.read_text().splitlines()[0].split(",")[-len(columns):] == columns
    mirror = json.loads((tmp_path / "table.json").read_text())
    for row in mirror["rows"] + mirror["qmax"]:
        keys = list(row)
        assert keys[keys.index("status") + 1:] == columns
    report = cptsim.fit_resonance(cptsim.load_scan(scans / "a.csv"))
    m = report.metrics
    assert [mirror["rows"][0][c] for c in columns] == [
        m.baseline, m.amplitude, m.physical_contrast, m.fwhm_hz, m.center_hz, m.asymmetry,
        m.qfactor, report.fwhm_direct_hz, report.rms_residual, report.iterations,
        report.converged]


@pytest.mark.parametrize("n_points", [301, 2001])
@pytest.mark.parametrize("mode", ["none", "complete"])
@pytest.mark.parametrize("spacing", list(cptsim.Spacing))
def test_sweep_numbers_are_the_repr_of_the_library_doubles(tmp_path, capsys,
                                                           spacing, mode, n_points):
    # each number is repr(float) of the library sample: delta / 2pi and
    # rho_ee, shortest round-trip text, in the CSV and in the JSON samples
    base = make_params(mode=cptsim.Depolarization(mode))
    params = base.replace(rabi=cptsim.rabi_for_pumping_strength(base, 8.9))
    shape = cptsim.sweep(params, cptsim.default_sweep_spec(
        params, 20.0, n_points, spacing))
    hz, ys = shape.deltas / (2 * np.pi), shape.rho_ee
    expected = [[repr(float(d)), repr(float(y))] for d, y in zip(hz, ys)]
    argv = ("sweep", "--pumping-strength", "8.9", "--mode", mode,
            "--spacing", spacing.value, "--n-points", str(n_points))

    out = tmp_path / "shape.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    header, *rows = out.read_text().splitlines()
    assert header == "delta_hz,rho_ee"
    assert [row.split(",") for row in rows] == expected
    for row, d, y in zip(rows, hz, ys):
        a, b = row.split(",")
        assert float(a) == d and float(b) == y

    json_out = tmp_path / "shape.json"
    code, stdout, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    code, _, _ = run(capsys, *argv, "--format", "json", "--out", str(json_out))
    assert code == 0
    assert json_out.read_text() == stdout
    # parse_float hands back each number's text as written
    samples = json.loads(stdout, parse_float=str)["samples"]
    assert samples == expected
    assert json.loads(stdout)["samples"] == np.column_stack((hz, ys)).tolist()


@pytest.mark.parametrize("span", [("--delta-span-hz", "inf"),
                                  ("--span-halfwidths", "inf"),
                                  ("--span-halfwidths", "3e304")],
                         ids=["delta-span", "span-halfwidths", "overflow"])
def test_sweep_infinite_span_is_a_parameter_error(capsys, span):
    # refused by SweepSpec before any sample: no numpy warning (an error
    # under this suite's filterwarnings), no SingularSystem at delta = inf;
    # 3e304 half widths give finite bounds whose difference overflows
    code, out, err = run(capsys, "sweep", "--pumping-strength", "10", *span)
    assert code == 3
    assert out == ""
    assert err == "error: ParameterError: delta_max - delta_min must be finite\n"


def test_sweep_without_out_formats_no_csv(monkeypatch, capsys):
    argv = ("sweep", "--pumping-strength", "8.9", "--spacing", "linear",
            "--n-points", "20001")
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def refuse(shape):
        raise AssertionError("the CSV was formatted without --out")

    monkeypatch.setattr(cli, "_sweep_csv", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


def test_sweep_factorizes_once_for_samples_and_metrics(monkeypatch, tmp_path, capsys):
    built, calls = [], {"_sample": [], "_metrics": []}
    real_init = cptsim.RationalLineshape.__init__

    def counting_init(self, params):
        built.append(self)
        real_init(self, params)

    def counting(name):
        real = getattr(cli, name)

        def wrapper(model, *args):
            calls[name].append(model)
            return real(model, *args)
        return wrapper

    monkeypatch.setattr(cptsim.RationalLineshape, "__init__", counting_init)
    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    code, _, _ = run(capsys, "sweep", "--pumping-strength", "8.9", "--mode", "none",
                     "--out", str(tmp_path / "shape.csv"))
    assert code == 0
    assert len(built) == 1
    assert calls == {"_sample": built, "_metrics": built}


LARGE_SWEEP = ("sweep", "--pumping-strength", "8.9", "--spacing", "linear",
               "--n-points", "100001")


def _src_env(**extra):
    """The environment with this tree's package first on PYTHONPATH."""
    src = str(Path(cptsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_sweep_csv_streams_in_blocks(monkeypatch, tmp_path, capsys):
    # a CSV written in chunks of 4 rows has the bytes of one chunk
    argv = ("sweep", "--pumping-strength", "8.9", "--spacing", "linear",
            "--n-points", "11")
    assert run(capsys, *argv, "--out", str(tmp_path / "one.csv"))[0] == 0
    monkeypatch.setattr(cli, "BLOCK_SIZE", 4)
    chunks, real = [], cli._sweep_csv

    def recording(shape):
        for chunk in real(shape):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(cli, "_sweep_csv", recording)
    assert run(capsys, *argv, "--out", str(tmp_path / "blocks.csv"))[0] == 0
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert [chunk.count("\n") for chunk in chunks] == [1, 4, 4, 3]


def test_large_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # each child sets its own thread count; a 1e5-sample product split over
    # two threads used to move some rho_ee by an ulp
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run([sys.executable, "-m", "cptsim", *LARGE_SWEEP,
                               "--out", str(out)],
                              env=_src_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 100002


def test_large_sweep_memory_is_bounded(tmp_path, capsys):
    # the samples and their rho_ee take 16 B per sample; everything else
    # is bounded by one block (measured: 2.7 MB in all for 1e5 samples,
    # where a whole-array solve and CSV took 25 MB)
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *LARGE_SWEEP, "--out", str(tmp_path / "s.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 6e6


# --------------------------------------------------------- contrast-ratio

def test_contrast_ratio_table(capsys):
    code, out, _ = run(capsys, "contrast-ratio", "--pumping-strengths",
                       "10,1000", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["pumping_strength"] for r in rows] == [10.0, 1000.0]
    assert rows[1]["ratio"] > rows[0]["ratio"]
    assert rows[1]["ratio"] == pytest.approx(1.894, abs=0.01)


def test_contrast_ratio_weak_pumping(capsys):
    code, out, _ = run(capsys, "contrast-ratio", "--pumping-strengths",
                       "0.001", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["contrast_none"] < 1e-3
    assert row["contrast_complete"] < 1e-3


# -------------------------------------------------------- power-broadening

def test_power_broadening_round_trip(capsys):
    code, out, _ = run(capsys, "power-broadening", "--preset", "fig1",
                       "--mode", "complete", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["fwhm_hz"] == pytest.approx(data["target_fwhm_hz"], rel=0.01)
    assert data["fwhm_hz"] == pytest.approx(4 * data["fwhm0_hz"], rel=0.01)


@pytest.mark.parametrize("mode", ["none", "complete"])
def test_power_broadening_prints_the_calibration_widths(monkeypatch, capsys, mode):
    # the printed widths are the ones the calibration evaluated, and no
    # factorization is made beyond it
    built, calibrations = [], []
    real_init = cptsim.RationalLineshape.__init__
    real_calibrate = cli._calibrate

    def counting_init(self, params):
        built.append(self)
        real_init(self, params)

    def recording(params, multiple):
        calibrations.append((params, real_calibrate(params, multiple), len(built)))
        return calibrations[-1][1]

    monkeypatch.setattr(cptsim.RationalLineshape, "__init__", counting_init)
    monkeypatch.setattr(cli, "_calibrate", recording)
    code, out, _ = run(capsys, "power-broadening", "--preset", "fig1",
                       "--mode", mode, "--multiple", "3", "--format", "json")
    assert code == 0
    [(base, (rabi, w0, w), n_built)] = calibrations
    assert len(built) == n_built
    data = json.loads(out)
    assert (data["fwhm0_hz"], data["fwhm_hz"]) == (w0, w)
    monkeypatch.undo()
    probe = base.replace(rabi=cptsim.rabi_for_pumping_strength(base, 1e-3))
    assert w0 == cptsim.lineshape.calibration_fwhm(probe)
    assert w == cptsim.lineshape.calibration_fwhm(base.replace(rabi=rabi))
    assert data["rabi_hz"] == cptsim.angular_to_hz(rabi)


# ----------------------------------------------------------- spin-exchange

def test_spin_exchange_monotone_width(capsys):
    code, out, _ = run(capsys, "spin-exchange", "--t-min-c", "50",
                       "--t-max-c", "90", "--t-step-c", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "temperature_C,n_cm3,vr_cm_s,gamma_se_rad_s,width_hz"
    widths = [float(line.split(",")[4]) for line in lines[1:]]
    assert len(widths) == 9
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_spin_exchange_prefactor_and_linearity(capsys):
    _, out1, _ = run(capsys, "spin-exchange", "--t-min-c", "60",
                     "--t-max-c", "60", "--format", "json")
    _, out2, _ = run(capsys, "spin-exchange", "--t-min-c", "60",
                     "--t-max-c", "60", "--nuclear-spin", "3.5",
                     "--format", "json")
    _, out3, _ = run(capsys, "spin-exchange", "--t-min-c", "60",
                     "--t-max-c", "60", "--sigma-se-cm2", "3.8e-14",
                     "--format", "json")
    g1 = json.loads(out1)["rows"][0]["gamma_se_rad_s"]
    g2 = json.loads(out2)["rows"][0]["gamma_se_rad_s"]
    g3 = json.loads(out3)["rows"][0]["gamma_se_rad_s"]
    assert g2 / g1 == pytest.approx(0.6875 / 0.625, rel=1e-12)
    assert g3 == pytest.approx(2 * g1, rel=1e-12)


def test_spin_exchange_stops_at_t_max(capsys):
    def temperatures(*argv):
        code, out, _ = run(capsys, "spin-exchange", *argv)
        assert code == 0
        return [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]

    # a step that does not divide the range ends below t_max, not past it
    assert temperatures("--t-min-c", "50", "--t-max-c", "51",
                        "--t-step-c", "0.6") == [50.0, 50.6]
    # a step that divides it up to roundoff still reaches t_max
    temps = temperatures("--t-min-c", "50", "--t-max-c", "50.3", "--t-step-c", "0.1")
    assert len(temps) == 4 and temps[-1] == pytest.approx(50.3, abs=1e-12)
    assert temperatures() == [50.0 + i for i in range(41)]


def test_spin_exchange_out_of_range(capsys):
    code, _, err = run(capsys, "spin-exchange", "--t-max-c", "400")
    assert code == 3
    assert "OutOfRange" in err


def test_spin_exchange_forms_each_temperature_as_its_row_is_solved(capsys, monkeypatch):
    # a range far past the vapor-pressure window fails at its first
    # temperature outside it (row 178, 500.15 K) after solving only the
    # rows before it, and never holds the whole range (as a list, its 1e5
    # temperatures took 3.5 MB; measured 0.27 MB in all)
    temperatures = []
    real = cli.spin_exchange

    def counting(params):
        temperatures.append(params.temperature)
        return real(params)

    monkeypatch.setattr(cli, "spin_exchange", counting)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "spin-exchange", "--t-max-c", "1e5", "--t-step-c", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == "error: OutOfRange: temperature 500.15 K outside [273, 500] K\n"
    assert len(temperatures) == 178 and temperatures[-1] == 500.15
    assert peak <= 1e6


SPIN_EXCHANGE_FLOAT_FLAGS = ["--t-min-c", "--t-max-c", "--t-step-c", "--nuclear-spin",
                             "--sigma-se-cm2", "--atomic-mass-amu"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", SPIN_EXCHANGE_FLOAT_FLAGS)
def test_spin_exchange_non_finite_flag_keeps_the_exit_codes(capsys, flag, value):
    # a bad temperature range is a usage error (2), a bad physical
    # parameter a typed error (3); an infinite step is one row at t_min
    code, out, err = run(capsys, "spin-exchange", f"{flag}={value}")
    if (flag, value) == ("--t-step-c", "inf"):
        assert (code, out.count("\n"), out.splitlines()[1][:5]) == (0, 2, "50.0,")
    else:
        assert code == (2 if flag.startswith("--t-") else 3)
        assert err.startswith("error: ")


# ---------------------------------------------------------------- analyze

def test_analyze_directory(tmp_path, capsys):
    scans = tmp_path / "scans"
    scans.mkdir()
    for i, inten in enumerate([0.1, 0.3]):
        write_scan(scans / f"s{i}.csv", seed=i, contrast=0.03 + 0.02 * i,
                   meta={"temperature_C": 65, "intensity_mW_cm2": inten})
    (scans / "broken.csv").write_text("frequency_hz,signal\n1,2\nbad\n")
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "analyze", str(scans), "--out", str(out))
    assert code == 0  # soft per-file errors keep the batch green
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 files
    assert sum("ParseError" in r for r in rows) == 1
    mirror = json.loads((tmp_path / "table.json").read_text())
    assert len(mirror["rows"]) == 3
    assert len(mirror["qmax"]) == 1
    assert mirror["qmax"][0]["intensity_mW_cm2"] == 0.3


def test_analyze_tables_each_scan_once_under_its_path_name(tmp_path, capsys):
    scans = tmp_path / "scans"
    scans.mkdir()
    # a "# file = ..." line comes first in the file, and so first in the row
    write_scan(scans / "a.csv", seed=1, contrast=0.04,
               meta={"file": "other.csv", "gas": "Ne", "intensity_mW_cm2": 0.1})
    write_scan(scans / "b.csv", seed=2, contrast=0.06, sign=-1,
               meta={"gas": "N2", "intensity_mW_cm2": 0.2})
    (scans / "c_text.csv").write_text("frequency_hz,signal\n1,2\nbad\n")
    (scans / "d_short.csv").write_text("".join(f"{i}.0,1.0\n" for i in range(15)))
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "analyze", str(scans), "--out", str(out))
    assert code == 0

    # expected: each path loaded and fitted on its own, tabled under its name
    rows, fitted = [], []
    for path in sorted(scans.glob("*.csv")):
        try:
            raw = cptsim.load_scan(path)
        except cptsim.CptsimError as exc:
            rows.append(cptsim.scans.failed_row({"file": path.name}, exc))
            continue
        scan = cptsim.Scan(raw.frequency, raw.signal, {**raw.metadata, "file": path.name})
        fitted.append(scan)
        rows.append(cptsim.batch_metrics([scan]).rows[0])
    columns = ["file", "gas", "intensity_mW_cm2", "status", *cptsim.scans.METRIC_COLUMNS]
    assert [row["file"] for row in rows] == ["a.csv", "b.csv", "c_text.csv", "d_short.csv"]
    assert [row["status"] for row in rows] == [
        "ok", "ok", "ParseError: line 3: expected 2 comma-separated columns, got 1",
        "TooFewSamples: scan has 15 samples, need >= 16"]
    assert out.read_text() == cli._table_csv(rows, columns)
    assert (tmp_path / "table_qmax.csv").read_text() == cli._table_csv(
        cptsim.batch_metrics(fitted).qmax, columns)
    mirror = (tmp_path / "table.json").read_text()
    assert mirror == cli._dump_json({"rows": rows, "qmax": cptsim.batch_metrics(fitted).qmax})
    assert list(json.loads(mirror)["rows"][0])[:4] == ["file", "gas", "intensity_mW_cm2",
                                                       "status"]


def test_analyze_csv_quotes_only_the_fields_that_need_it(tmp_path, capsys):
    # a status and a metadata value that hold a comma, and one that holds a
    # double quote, stay one field each in the table and in _qmax.csv
    scans = tmp_path / "scans"
    scans.mkdir()
    write_scan(scans / "a.csv", seed=1, meta={"gas": "Ne, 30 Torr", "cell": 'say "A"',
                                              "intensity_mW_cm2": 0.1})
    write_scan(scans / "b.csv", seed=2, meta={"gas": "N2", "cell": "B",
                                              "intensity_mW_cm2": 0.2})
    (scans / "c.csv").write_text("frequency_hz,signal\n"
                                 + "".join(f"{i}.0,1.0\n" for i in range(20)) + "20.0,abc\n")
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "analyze", str(scans), "--out", str(out))
    assert code == 0
    tables = {}
    for path in (out, tmp_path / "table_qmax.csv"):
        text = path.read_text()
        records = list(csv.reader(io.StringIO(text)))
        header = records[0]
        assert all(len(record) == len(header) for record in records)
        # a line without a quoted field is its fields joined by commas
        for line, record in zip(text.splitlines(), records):
            if '"' not in line:
                assert line == ",".join(record)
        tables[path.name] = [dict(zip(header, record)) for record in records[1:]]
    rows = tables["table.csv"]
    assert [(row["file"], row["gas"], row["cell"]) for row in rows] == [
        ("a.csv", "Ne, 30 Torr", 'say "A"'), ("b.csv", "N2", "B"), ("c.csv", "", "")]
    assert [row["status"] for row in rows] == [
        "ok", "ok", "ParseError: line 22: non-numeric value in '20.0,abc'"]
    assert [row["gas"] for row in tables["table_qmax.csv"]] == ["N2", "Ne, 30 Torr"]
    assert out.read_text().splitlines()[1].startswith('"say ""A""",a.csv,"Ne, 30 Torr",0.1,ok,')


def test_analyze_stdout_is_the_table_when_a_fit_overflows(tmp_path):
    # a 10 Hz scan with two outlying frequencies at -+1e200 Hz overflows
    # the fit's Jacobian; the scan is a typed row, and LAPACK, which writes
    # to fd 1, never sees the non-finite input, also when a normal scan of
    # the same length shares its stack
    scans = tmp_path / "scans"
    scans.mkdir()
    u = np.linspace(-5.0, 5.0, 401)
    write_scan(scans / "normal.csv", seed=0, n=u.size)
    y = 1.0 + 0.05 / (u**2 + 1.0) + np.random.default_rng(1).normal(0.0, 5e-4, u.size)
    f = u.copy()
    f[0], f[-1] = -1e200, 1e200
    (scans / "wide.csv").write_text(
        "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(f, y)))
    proc = subprocess.run([sys.executable, "-m", "cptsim", "analyze", str(scans)],
                          env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("file,status,")
    assert "DLASCL" not in proc.stdout
    assert "NoResonance: resonance fit failed: non-finite Jacobian" in proc.stdout
    assert "\nnormal.csv,ok," in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_analyze_total_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("frequency_hz,signal\n1,2\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3


def test_analyze_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 2


def test_analyze_json_format_is_for_stdout_only(tmp_path, capsys):
    scans = tmp_path / "scans"
    scans.mkdir()
    write_scan(scans / "s0.csv", seed=0, meta={"intensity_mW_cm2": 0.1})
    out = tmp_path / "table.csv"
    # --out writes fixed formats: the CSV table, _qmax.csv and .json
    code, stdout, err = run(capsys, "analyze", str(scans), "--format", "json",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == ("error: analyze --out writes the CSV table with _qmax.csv and "
                   ".json sidecars; --format json is for stdout only\n")
    assert [q.name for q in tmp_path.iterdir()] == ["scans"]
    code, _, _ = run(capsys, "analyze", str(scans), "--format", "csv", "--out", str(out))
    assert code == 0 and out.read_text().startswith("file,intensity_mW_cm2,status,")
    # without --out, json is the mirror that --out writes beside the table
    code, stdout, _ = run(capsys, "analyze", str(scans), "--format", "json")
    assert (code, stdout) == (0, (tmp_path / "table.json").read_text())


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "se.csv"
    code, _, err = run(capsys, "spin-exchange", "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_directory_is_config_error_and_leaves_no_temp_file(tmp_path, capsys):
    # the error names the path given and the system's reason, the same on
    # every run: not the random temp file name
    out = tmp_path / "se"
    out.mkdir()
    for _ in range(2):
        code, _, err = run(capsys, "spin-exchange", "--out", str(out))
        assert code == 2
        assert err == f"error: cannot write {out}: {os.strerror(errno.EISDIR)}\n"
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []


def test_stray_tmp_directory_does_not_block_write(tmp_path, capsys):
    out = tmp_path / "se.csv"
    (tmp_path / "se.csv.tmp").mkdir()
    code, _, _ = run(capsys, "spin-exchange", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("temperature_C,")
    assert sorted(q.name for q in tmp_path.iterdir()) == ["se.csv", "se.csv.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


# ---------------------------------------------------------- extreme values

EXTREME_VALUES = ("0", "-1", "5e-324", "1e-300", "1e-30", "1e30", "1e300", "inf", "-inf",
                  "nan")
# the drive a subcommand needs unless the option under test is one
GRID_DRIVES = {"solve": ("--pumping-strength", "1"), "sweep": ("--pumping-strength", "1"),
               "contrast-ratio": ("--pumping-strengths", "1")}
# cases that end in a typed error with numpy RuntimeWarnings on stderr:
# none, since a gamma_g whose rates underflow and a V^2/gamma that
# overflows are refused with the parameters, before any product warns
WARNED_AT_RATCHET = set()


@pytest.mark.parametrize("command", [c for c in cli.build_parser()[1] if c != "analyze"])
def test_every_float_option_fails_typed_at_extreme_values(command, monkeypatch):
    # each float option of the subcommand, in turn, at each extreme value:
    # exit 0, 2 or 3 without a traceback, and no inf or nan printed
    rows = []
    def counted(vp):
        rows.append(vp)
        assert len(rows) <= cli.MAX_SPIN_EXCHANGE_ROWS, "unbounded spin-exchange range"
        return spin_exchange(vp)
    monkeypatch.setattr(cli, "spin_exchange", counted)
    _, options = cli.build_parser()
    warned = set()
    for dest, (kind, _, flags) in options[command].items():
        if kind is not float:
            continue
        drive = () if dest in ("rabi_hz", "pumping_strength") else GRID_DRIVES.get(command, ())
        for value in EXTREME_VALUES:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, *drive, f"{flags[0]}={value}"])
            case = (command, flags[0], value)
            assert code in (0, 2, 3), case
            assert code == 0 or err.getvalue().startswith("error: "), case
            assert not re.search(r"(?i)\b(inf|infinity|nan)\b", out.getvalue()), case
            if caught:
                assert {w.category for w in caught} == {RuntimeWarning}, case
                warned.add(case)
    assert warned == {c for c in WARNED_AT_RATCHET if c[0] == command}


@pytest.mark.parametrize("argv, code, message", [
    (("solve", "--pumping-strength", "1", "--gamma-opt-hz=5e-324"), 3,
     "ParameterError: optical Lorentz factor lu = 0.0"),
    (("power-broadening", "--gamma-opt-hz=5e-324"), 3,
     "ParameterError: optical Lorentz factor lu = 0.0"),
    (("spin-exchange", "--t-step-c=5e-324"), 2, "exceeds 100000 rows"),
    (("spin-exchange", "--t-step-c=1e-30"), 2, "exceeds 100000 rows"),
    (("spin-exchange", "--sigma-se-cm2=1e300"), 3,
     "ParameterError: spin-exchange rate not finite at 323.15 K"),
])
def test_extreme_values_are_one_line_typed_errors(capsys, monkeypatch, argv, code, message):
    if argv[1].startswith("--t-step-c"):  # refused before the first row
        monkeypatch.setattr(cli, "spin_exchange", lambda vp: pytest.fail("a row was solved"))
    got, out, err = run(capsys, *argv)
    assert (got, out, err.count("\n")) == (code, "", 1)
    assert err.startswith("error: ") and message in err


def test_contrast_ratio_at_a_vanishing_decay_rate_is_a_non_finite_factorization(capsys):
    # V^2/gamma overflows, which would make c0, p1 and p0 nan: the
    # parameters are refused, not a table of nan
    code, out, err = run(capsys, "contrast-ratio", "--pumping-strengths", "1",
                         "--gamma-nat-hz=1e-300")
    assert (code, out, err) == (3, "", "error: ParameterError: rabi**2/gamma_nat overflows\n")


# ------------------------------------------------------------------ config

def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run configuration\nrabi_hz = 1e6\ngamma_g_hz = 250\n")
    _, out, _ = run(capsys, "solve", "--config", str(cfg), "--format", "json")
    data = json.loads(out)
    # printed values are angular/2pi at full precision (1 ulp from input)
    assert data["params_hz"]["rabi_hz"] == pytest.approx(1e6, rel=1e-15)
    assert data["params_hz"]["gamma_g_hz"] == pytest.approx(250.0, rel=1e-15)
    # explicit flag beats the config value
    _, out2, _ = run(capsys, "solve", "--config", str(cfg),
                     "--gamma-g-hz", "400", "--format", "json")
    assert json.loads(out2)["params_hz"]["gamma_g_hz"] == pytest.approx(
        400.0, rel=1e-15)


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_flag = 1\n")
    code, _, err = run(capsys, "solve", "--config", str(cfg), "--rabi-hz", "1")
    assert code == 2
    assert "not_a_flag" in err


# (argv, text of {d}/run.cfg or None, the error line); {d} is the test's
# own directory, which holds no scan file
CONFIG_ERRORS = {
    "unreadable-config": (
        ["solve", "--config", "{d}/missing.cfg"], None,
        "cannot read config file {d}/missing.cfg: [Errno 2] "
        "No such file or directory: '{d}/missing.cfg'"),
    "config-line-without-equals": (
        ["solve", "--config", "{d}/run.cfg"], "# run\nrabi_hz 1e6\n",
        "{d}/run.cfg:2: expected 'key = value'"),
    "config-value-of-wrong-type": (
        ["solve", "--config", "{d}/run.cfg"], "gamma_g_hz = fast\n",
        "config key 'gamma_g_hz': could not convert string to float: 'fast'"),
    "config-value-not-a-choice": (
        ["sweep", "--config", "{d}/run.cfg"], "mode = both\n",
        "config key 'mode': 'both' not in ['complete', 'none']"),
    "non-numeric-strength": (
        ["contrast-ratio", "--pumping-strengths", "1,x"], None,
        "--pumping-strengths: could not convert string to float: 'x'"),
    "empty-strengths": (
        ["contrast-ratio", "--pumping-strengths", ""], None,
        "--pumping-strengths needs at least one value"),
    "only-commas": (
        ["contrast-ratio", "--pumping-strengths", ",,"], None,
        "--pumping-strengths needs at least one value"),
    "directory-without-scans": (["analyze", "{d}"], None, "no scan files found"),
}


@pytest.mark.parametrize("argv, config, message", CONFIG_ERRORS.values(),
                         ids=CONFIG_ERRORS)
def test_config_errors_name_their_cause(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(d=tmp_path)}\n")


def test_help_states_the_defaults():
    # each option's help text ends in its default, "[value]" or
    # "(default value)"; those are literal copies of DEFAULTS
    parser, _ = cli.build_parser()
    (commands,) = (a for a in parser._actions if a.dest == "command")
    stated = set()
    for name, sub in commands.choices.items():
        for action in sub._actions:
            m = re.search(r"\[(\S+)[^]]*\]$|\(default (\w+)\)$", action.help or "")
            if m:
                value = (action.type or str)(m.group(1) or m.group(2))
                assert value == cli.DEFAULTS[action.dest], (name, action.dest)
                stated.add(action.dest)
    assert stated == set(cli.DEFAULTS)


def test_choices_are_the_enum_values():
    # --mode offers each Depolarization (solve adds "both") and --spacing
    # each Spacing, in enum order; the default multiple is the library's
    _, options = cli.build_parser()
    modes = [mode.value for mode in cptsim.Depolarization]
    assert options["solve"]["mode"][1] == (*modes, "both")
    for name in ("sweep", "power-broadening"):
        assert options[name]["mode"][1] == tuple(modes)
    assert options["sweep"]["spacing"][1] == tuple(s.value for s in cptsim.Spacing)
    default = inspect.signature(cptsim.calibrate_power_broadening).parameters["multiple"]
    assert cli.DEFAULTS["multiple"] == default.default


# Each (subcommand, option) pair below was parsed and then never read:
# contrast-ratio runs both modes at delta = 0 with V from each strength,
# power-broadening calibrates V at delta = 0, sweep covers its own
# detunings, and spin-exchange and analyze use no model parameter.
REMOVED_OPTIONS = [
    ("contrast-ratio", "--mode", "complete"),
    ("contrast-ratio", "--preset", "fig1"),
    ("contrast-ratio", "--rabi-hz", "1e6"),
    ("contrast-ratio", "--pumping-strength", "5"),
    ("contrast-ratio", "--delta-raman-hz", "50"),
    ("power-broadening", "--rabi-hz", "1e6"),
    ("power-broadening", "--pumping-strength", "5"),
    ("power-broadening", "--delta-raman-hz", "50"),
    ("sweep", "--delta-raman-hz", "50"),
    ("spin-exchange", "--mode", "complete"),
    ("spin-exchange", "--preset", "fig1"),
    ("analyze", "--mode", "complete"),
    ("analyze", "--preset", "fig1"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_OPTIONS,
                         ids=[f"{c}{f}" for c, f, _ in REMOVED_OPTIONS])
def test_subcommand_refuses_an_option_it_does_not_read(tmp_path, capsys,
                                                       command, flag, value):
    write_scan(tmp_path / "s.csv")
    required = {"sweep": ["--pumping-strength", "8", "--n-points", "11"],
                "contrast-ratio": ["--pumping-strengths", "10"],
                "analyze": [str(tmp_path / "s.csv")]}
    argv = [command, *required.get(command, [])]
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err

    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: unknown config key {key!r}\n"


def test_abbreviated_flag_is_refused(capsys):
    # a prefix never stands for a longer flag
    for argv in (["contrast-ratio", "--pumping-strengths", "10",
                  "--pumping-strength", "5"],
                 ["sweep", "--pumping-strength", "8", "--n-point", "11"],
                 ["solve", "--rabi", "1e6"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {argv[-2]}" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--pumping-strength", "5"],
    ["sweep", "--pumping-strength", "5", "--spacing", "linear", "--n-points", "41"],
])
@pytest.mark.parametrize("value", ["-30e6", "-3E7", "-3.0e+07", "-30000000", "-.3e8",
                                   "-inf", "-nan"])
def test_negative_value_in_any_float_spelling_is_a_separate_argument(capsys, argv, value):
    # argparse reads -30e6 as a flag of its own unless it is joined to its
    # option; both spellings give the same bytes and exit code
    separate = run(capsys, *argv, "--delta-opt-hz", value)
    joined = run(capsys, *argv, f"--delta-opt-hz={value}")
    assert separate == joined
    assert separate[0] == (0 if value[1:].lower() not in ("inf", "nan") else 3)


def test_negative_value_does_not_reach_an_unknown_flag(capsys):
    for argv in (["solve", "--pumping-strength", "5", "--bogus-hz", "-30e6"],
                 ["sweep", "--pumping-strength", "5", "--delta-raman-hz", "-1e3"],
                 ["contrast-ratio", "--pumping-strengths", "5", "--rabi-hz", "-1e3"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_tokens_after_a_bare_double_dash_are_not_joined(capsys):
    _, options = cli.build_parser()
    argv = ["solve", "--delta-opt-hz", "-30e6", "--", "--rabi-hz", "-1e3"]
    assert cli._attach_negative_values(argv, options) == [
        "solve", "--delta-opt-hz=-30e6", "--", "--rabi-hz", "-1e3"]
    code, out, err = run(capsys, "solve", "--pumping-strength", "5", "--",
                         "--delta-opt-hz", "-30e6")
    assert (code, out) == (2, "")
    # argparse names the unjoined pair, with or without the "--"
    assert "unrecognized arguments:" in err and err.endswith(" --delta-opt-hz -30e6\n")


@pytest.mark.parametrize("value", ["-x", "-e5", "--"])
def test_a_dash_value_that_is_not_a_number_is_not_joined(capsys, value):
    _, options = cli.build_parser()
    argv = ["solve", "--delta-opt-hz", value, "--pumping-strength", "5"]
    assert cli._attach_negative_values(argv, options) == argv
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "argument --delta-opt-hz: expected one argument" in err


@pytest.mark.parametrize("argv", [["contrast-ratio", "--pumping-strengths", "nan"],
                                  ["contrast-ratio", "--pumping-strengths", "1,inf"],
                                  ["solve", "--pumping-strength", "-inf"],
                                  ["sweep", "--pumping-strength=nan"]])
def test_non_finite_pumping_strength_is_named(capsys, argv):
    code, out, err = run(capsys, *argv)
    value = argv[-1].split(",")[-1].split("=")[-1]
    assert (code, out) == (3, "")
    assert err == f"error: ParameterError: pumping strength must be finite, not {value}\n"


@pytest.mark.parametrize("value", ["-1e3", "-1e3,5", "-2.5", "-inf"])
def test_negative_first_pumping_strength_is_a_separate_argument(capsys, value):
    separate = run(capsys, "contrast-ratio", "--pumping-strengths", value)
    joined = run(capsys, "contrast-ratio", f"--pumping-strengths={value}")
    assert separate == joined
    message = ("must be finite, not -inf" if value == "-inf" else "must be >= 0")
    assert separate == (3, "", f"error: ParameterError: pumping strength {message}\n")


def test_nan_broadening_multiple_is_named(capsys):
    code, out, err = run(capsys, "power-broadening", "--multiple", "nan")
    assert (code, out) == (3, "")
    assert err == "error: ParameterError: broadening multiple must be finite, not nan\n"


def test_vanishing_contrast_baseline_is_a_typed_error(capsys):
    code, out, err = run(capsys, "contrast-ratio", "--pumping-strengths", "1e-320")
    assert (code, out) == (3, "")
    assert err == ("error: NoResonance: far-detuned baseline underflows to 0; "
                   "contrast is undefined\n")


@pytest.mark.parametrize("strength, amplitude", [("1e-160", "0.0"), ("1e-170", "-0.0")])
def test_underflowing_contrast_amplitude_is_a_typed_error(capsys, strength, amplitude):
    # in the default geometry the amplitude -(p0/q0) is about 1.6e-6 s^2:
    # subnormal below s = 1.2e-151, long before c0 underflows
    code, out, err = run(capsys, "contrast-ratio", "--pumping-strengths", strength)
    assert (code, out) == (3, "")
    assert err == (f"error: NoResonance: dip amplitude {amplitude} underflows; "
                   "contrast is undefined\n")


def test_contrast_of_a_normal_amplitude_keeps_its_bits(capsys):
    code, out, err = run(capsys, "contrast-ratio", "--pumping-strengths",
                         "0,1e-150,1e-100", "--format", "json")
    assert (code, err) == (0, "")
    zero, tiny, small = json.loads(out)["rows"]
    assert list(zero.values())[:3] == [0.0, 0.0, 0.0] and math.isnan(zero["ratio"])
    # the contrast is linear in s here, so 1e-150 scales the 1e-100 value
    for key in ("contrast_none", "contrast_complete"):
        assert tiny[key] / 1e-150 == pytest.approx(small[key] / 1e-100, rel=1e-14)
    assert tiny["ratio"] == 1.0


@pytest.mark.parametrize("key, value", [("gamma_opt_hz", "2e9"),
                                        ("omega_e_hz", "6e8"),
                                        ("delta_opt_hz", "5e6"),
                                        ("delta_raman_hz", "100")])
def test_preset_refuses_a_different_value_of_its_keys(tmp_path, capsys, key, value):
    flag = "--" + key.replace("_", "-")
    expected = (f"error: --preset fig1 sets {key} to "
                f"{cli.FIG1_PRESET_HZ[key]!r}, not {float(value)!r}\n")
    code, out, err = run(capsys, "solve", "--preset", "fig1", flag, value)
    assert (code, out, err) == (2, "", expected)
    # the preset, the value or both from a config file
    for text, extra in ((f"preset = fig1\n{key} = {value}\n", []),
                        (f"{key} = {value}\n", ["--preset", "fig1"]),
                        ("preset = fig1\n", [flag, value])):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "solve", "--config", str(cfg), *extra)
        assert (code, out, err) == (2, "", expected)
    # the value fig 1 fixes is accepted, and changes nothing
    _, plain, _ = run(capsys, "solve", "--preset", "fig1")
    code, same, _ = run(capsys, "solve", "--preset", "fig1", flag,
                        repr(cli.FIG1_PRESET_HZ[key]))
    assert (code, same) == (0, plain)
    if key != "delta_raman_hz":
        for command in ("sweep", "power-broadening"):
            code, out, err = run(capsys, command, "--preset", "fig1", flag, value)
            assert (code, out, err) == (2, "", expected)


def test_missing_rabi_is_config_error(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 2
    assert "rabi" in err


def test_rabi_and_strength_conflict(capsys):
    code, _, err = run(capsys, "solve", "--rabi-hz", "1e6",
                       "--pumping-strength", "5")
    assert code == 2


# -------------------------------------------------------------- determinism

def test_repeat_runs_byte_identical(tmp_path, capsys):
    args = ("sweep", "--pumping-strength", "8", "--mode", "complete",
            "--n-points", "201")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, *args, "--out", str(a))
    run(capsys, *args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------- dependencies

def test_every_subcommand_runs_on_numpy_alone(tmp_path):
    # numpy is the only dependency: with every other non-stdlib import
    # blocked, each subcommand still works
    write_scan(tmp_path / "s.csv")
    commands = [
        ["solve", "--preset", "fig1", "--mode", "both"],
        ["sweep", "--pumping-strength", "8.9", "--n-points", "301",
         "--out", str(tmp_path / "sweep.csv")],
        ["contrast-ratio", "--pumping-strengths", "10,100"],
        ["power-broadening", "--mode", "complete"],
        ["spin-exchange"],
        ["analyze", str(tmp_path / "s.csv"), "--out", str(tmp_path / "t.csv")],
    ]
    script = f"""
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top not in ("numpy", "cptsim"):
            raise ImportError(f"blocked import of {{name}}")

sys.meta_path.insert(0, Block())
from cptsim.cli import main
sys.exit(max([main(argv) for argv in {commands!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").read_text().startswith("delta_hz,rho_ee\n")


def test_analyze_leaves_numpy_polynomial_unimported(tmp_path):
    # the fit's affine guard is polyfit's arithmetic without the
    # numpy.polynomial package (about 1.7 MB and a few ms per process)
    scans = tmp_path / "scans"
    scans.mkdir()
    for i in range(3):
        write_scan(scans / f"s{i}.csv", seed=i, meta={"intensity_mW_cm2": 0.1 * (i + 1)})
    out = tmp_path / "table.csv"
    script = f"""
import sys
from cptsim.cli import main
code = main(["analyze", {str(scans)!r}, "--out", {str(out)!r}])
print(code, "numpy.polynomial" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.stdout == "0 False\n", proc.stderr
    table = out.read_text()
    # three converged fits: the guard ran on each
    assert table.count(",ok,") == 3 and table.count(",true\n") == 3
