"""Command-line behaviors: dispatch, config merging, outputs, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cptsim
from cptsim import cli
from cptsim.cli import main

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
    # is bounded by one block (measured: 3.7 MB in all for 1e5 samples,
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


def test_analyze_total_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("frequency_hz,signal\n1,2\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 3


def test_analyze_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
    assert code == 2


def test_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "se.csv"
    code, _, err = run(capsys, "spin-exchange", "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
