"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Each test states the measured quantity, the target, and PASS/FAIL
before asserting, so a red criterion still reports its numbers.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from cptsim import (Depolarization, RationalLineshape, Scan, VaporParams,
                    asymmetry, build_coupling_tables,
                    calibrate_power_broadening, default_sweep_spec,
                    fit_resonance, fwhm, nuclear_spin_prefactor,
                    physical_contrast, rabi_for_pumping_strength,
                    solve_steady_state, spin_exchange, sweep)
from cptsim.cli import main as cli_main
from cptsim.vapor import RB87_SIGMA_SE_CM2

from conftest import make_params, random_params
from oracles import lorentzian_scan, residual_verbatim

TWO_PI = 2 * np.pi


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_contrast_doubling():
    """Depolarization doubles the physical contrast at strong pumping."""
    t0 = time.time()
    base = make_params()
    rabi = rabi_for_pumping_strength(base, 1e3)
    c_none = physical_contrast(
        base.replace(rabi=rabi, depolarization=Depolarization.NONE))
    c_complete = physical_contrast(
        base.replace(rabi=rabi, depolarization=Depolarization.COMPLETE))
    ratio = c_complete.physical_contrast / c_none.physical_contrast
    elapsed = time.time() - t0
    ok = 1.9 <= ratio <= 2.1
    report("criterion 1", ok,
           f"contrast ratio complete/none = {ratio:.5f} "
           f"(none={c_none.physical_contrast:.5f}, "
           f"complete={c_complete.physical_contrast:.5f}) "
           f"target [1.9, 2.1], {elapsed:.2f} s")
    assert elapsed < 5.0
    assert ok


def test_criterion_2_population_redistribution():
    """Qualitative population pattern at the 3x-broadening working point."""
    t0 = time.time()
    base = make_params(mode=Depolarization.COMPLETE)
    rabi = calibrate_power_broadening(base, 3.0)
    none = solve_steady_state(
        base.replace(rabi=rabi, depolarization=Depolarization.NONE))
    comp = solve_steady_state(base.replace(rabi=rabi))
    checks = {
        "none max at (2,+2)":
            max(none.ground_as_dict(), key=none.ground_as_dict().get) == (2, 2),
        "complete reduces (2,+2)":
            comp.ground_population(2, 2) < none.ground_population(2, 2),
        "complete raises (2,0)":
            comp.ground_population(2, 0) > none.ground_population(2, 0),
        "complete raises (1,0)":
            comp.ground_population(1, 0) > none.ground_population(1, 0),
        "(1,+1) < (1,-1)":
            comp.ground_population(1, 1) < comp.ground_population(1, -1),
    }
    elapsed = time.time() - t0
    ok = all(checks.values())
    report("criterion 2", ok,
           f"{sum(checks.values())}/5 population checks, {elapsed:.2f} s")
    assert elapsed < 1.0
    assert ok, checks


def test_criterion_3_solver_correctness():
    """Residual oracle, trace, and positivity over 1000 random draws."""
    t0 = time.time()
    rng = np.random.default_rng(31415)
    worst_resid = 0.0
    worst_trace = 0.0
    worst_pop = 0.0
    for _ in range(1000):
        p = random_params(rng)
        sol = solve_steady_state(p)
        resid = np.abs(residual_verbatim(p, sol.ground, sol.coherence)).max()
        worst_resid = max(worst_resid, resid / max(1.0, p.gamma_g))
        worst_trace = max(worst_trace, abs(sol.ground.sum() - 1.0))
        worst_pop = min(worst_pop, sol.ground.min())
    elapsed = time.time() - t0
    ok = worst_resid < 1e-10 and worst_trace < 1e-10 and worst_pop > -1e-12
    report("criterion 3", ok,
           f"1000 draws: max residual/max(1,gamma_g)={worst_resid:.2e} "
           f"(<1e-10), trace error={worst_trace:.2e} (<1e-10), "
           f"min population={worst_pop:.2e} (>-1e-12), {elapsed:.1f} s")
    assert elapsed < 30.0
    assert ok


def test_criterion_4_lineshape_symmetry():
    """Complete-mode lineshapes are mirror symmetric; bare mode is not."""
    t0 = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng, mode=Depolarization.COMPLETE)
        strength = 10 ** rng.uniform(-0.5, 3.0)
        p = p.replace(rabi=rabi_for_pumping_strength(p, strength),
                      delta_raman=0.0)
        half_span = 8.0 * p.gamma_g * (1.0 + strength)
        xs = np.linspace(0.0, half_span, 151)[1:]
        up = RationalLineshape(p)(xs)
        dn = RationalLineshape(p)(-xs)
        baseline = float(RationalLineshape(p)(np.array([60.0 * half_span]))[0])
        amplitude = baseline - float(RationalLineshape(p)(np.array([0.0]))[0])
        worst = max(worst, np.abs(up - dn).max() / amplitude)
    sym_ok = worst < 1e-8

    base = make_params(mode=Depolarization.COMPLETE)
    rabi = rabi_for_pumping_strength(base, 8.9)
    shape_c = sweep(base.replace(rabi=rabi), default_sweep_spec(
        base.replace(rabi=rabi)))
    pn = base.replace(rabi=rabi, depolarization=Depolarization.NONE)
    shape_n = sweep(pn, default_sweep_spec(pn))
    a_c, a_n = asymmetry(shape_c), asymmetry(shape_n)
    asym_ok = a_n > a_c
    elapsed = time.time() - t0
    ok = sym_ok and asym_ok
    report("criterion 4", ok,
           f"20 sets: max mirror error/amplitude={worst:.2e} (<1e-8); "
           f"asymmetry none={a_n:.2e} > complete={a_c:.2e}: {asym_ok}; "
           f"{elapsed:.1f} s")
    assert elapsed < 60.0
    assert ok


def test_criterion_5_coupling_table_audit():
    """Exact rational branch normalization and detailed balance."""
    tables = build_coupling_tables()
    row_sums_ok = all(total == Fraction(1)
                      for total in tables.branch_row_sums().values())
    balance_ok = tables.detailed_balance_defects() == []
    ok = row_sums_ok and balance_ok
    report("criterion 5", ok,
           f"branch rows sum to 1: {row_sums_ok}; "
           f"pump/excitation detailed balance: {balance_ok}")
    assert ok


def test_criterion_6_spin_exchange_formula():
    """Prefactor values, linearity, and monotone broadening."""
    pre_ok = (nuclear_spin_prefactor(1.5) == 0.625
              and nuclear_spin_prefactor(3.5) == 0.6875)
    base = spin_exchange(VaporParams(temperature=338.15))
    doubled = spin_exchange(VaporParams(temperature=338.15,
                                        sigma_se=2 * RB87_SIGMA_SE_CM2))
    linear_sigma = doubled.gamma_se == pytest.approx(2 * base.gamma_se,
                                                     rel=1e-12)
    hot = spin_exchange(VaporParams(temperature=353.15))
    linear_n = (hot.gamma_se / base.gamma_se ==
                pytest.approx(hot.n * hot.v_r / (base.n * base.v_r), rel=1e-12))
    widths = [spin_exchange(VaporParams(temperature=273.15 + t)).width_hz
              for t in np.arange(50.0, 90.5, 1.0)]
    monotone = all(b > a for a, b in zip(widths, widths[1:]))
    ok = pre_ok and linear_sigma and linear_n and monotone
    report("criterion 6", ok,
           f"prefactors exact: {pre_ok}; linear in sigma: {linear_sigma}; "
           f"tracks n*v_r: {linear_n}; width strictly increasing 50-90 C: "
           f"{monotone} ({widths[0]:.1f} -> {widths[-1]:.1f} Hz)")
    assert ok


def test_criterion_7_lineshape_metric_oracles():
    """Synthetic FWHM, low-power width limit, calibration round trip."""
    t0 = time.time()
    from cptsim import Lineshape
    w = 1.3
    deltas = np.linspace(-220 * w, 220 * w, 30001)
    ys = 2.0 - w**2 / (deltas**2 + w**2)
    lor_fwhm = fwhm(Lineshape(deltas, ys, make_params()))
    lor_ok = abs(lor_fwhm / (2 * w / TWO_PI) - 1.0) < 1e-3

    base = make_params(mode=Depolarization.COMPLETE)
    low = base.replace(rabi=rabi_for_pumping_strength(base, 0.01))
    low_fwhm = fwhm(sweep(low, default_sweep_spec(low, 25.0, 801)))
    low_ok = abs(low_fwhm / (2 * base.gamma_g / TWO_PI) - 1.0) < 0.05

    rabi = calibrate_power_broadening(base, 3.0)
    probe = base.replace(rabi=rabi_for_pumping_strength(base, 1e-3))
    w0 = fwhm(sweep(probe, default_sweep_spec(probe, 25.0, 241)))
    cal = base.replace(rabi=rabi)
    w3 = fwhm(sweep(cal, default_sweep_spec(cal, 25.0, 241)))
    cal_ok = abs((w3 - w0) / w0 / 3.0 - 1.0) < 0.01
    elapsed = time.time() - t0
    ok = lor_ok and low_ok and cal_ok
    report("criterion 7", ok,
           f"Lorentzian FWHM rel err={abs(lor_fwhm/(2*w/TWO_PI)-1):.2e} "
           f"(<1e-3); low-power FWHM={low_fwhm:.1f} Hz vs 2*gamma_g/2pi="
           f"{2*base.gamma_g/TWO_PI:.1f} Hz (5%); calibration excess="
           f"{(w3-w0)/w0:.4f} vs 3 (1%); {elapsed:.1f} s")
    assert elapsed < 30.0
    assert ok


def test_criterion_8_scan_round_trip():
    """Fit recovery on 100 noisy scans plus exact equivariances."""
    t0 = time.time()
    rng = np.random.default_rng(1618)
    worst_center = 0.0
    worst_fwhm = 0.0
    worst_contrast = 0.0
    for _ in range(100):
        center = float(rng.uniform(-200.0, 200.0))
        f, y, truth = lorentzian_scan(rng, center_hz=center, noise_frac=0.01)
        rep = fit_resonance(Scan(f, y))
        worst_center = max(worst_center, abs(rep.metrics.center_hz - center))
        worst_fwhm = max(worst_fwhm,
                         abs(rep.metrics.fwhm_hz / truth["fwhm_hz"] - 1.0))
        worst_contrast = max(worst_contrast,
                             abs(rep.metrics.physical_contrast
                                 - truth["contrast"]))
    recovery_ok = (worst_center < 20.0 and worst_fwhm < 0.03
                   and worst_contrast < 0.003)

    f, y, _ = lorentzian_scan(np.random.default_rng(4), noise_frac=0.01)
    a = fit_resonance(Scan(f, y))
    scaled = fit_resonance(Scan(f, 4.0 * y))
    shifted = fit_resonance(Scan(f + 12345.0, y))
    equiv_ok = (scaled.metrics.physical_contrast == a.metrics.physical_contrast
                and scaled.metrics.fwhm_hz == a.metrics.fwhm_hz
                and scaled.metrics.center_hz == a.metrics.center_hz
                and shifted.metrics.center_hz == a.metrics.center_hz + 12345.0
                and shifted.metrics.fwhm_hz == a.metrics.fwhm_hz
                and shifted.metrics.physical_contrast
                == a.metrics.physical_contrast)
    elapsed = time.time() - t0
    ok = recovery_ok and equiv_ok
    report("criterion 8", ok,
           f"100 scans: |center err|max={worst_center:.1f} Hz (<20), "
           f"FWHM rel err max={worst_fwhm:.4f} (<0.03), contrast err max="
           f"{worst_contrast:.5f} (<0.003); equivariance exact: {equiv_ok}; "
           f"{elapsed:.1f} s")
    assert elapsed < 60.0
    assert ok


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Every subcommand produces byte-identical output across two runs."""
    scans_dir = tmp_path / "scans"
    scans_dir.mkdir()
    rng = np.random.default_rng(5)
    for i in range(2):
        f, y, _ = lorentzian_scan(rng, contrast=0.04 + 0.01 * i)
        lines = ["# intensity_mW_cm2 = %.1f" % (0.1 * (i + 1)),
                 "frequency_hz,signal"]
        lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(f, y)]
        (scans_dir / f"s{i}.csv").write_text("\n".join(lines) + "\n")

    commands = {
        "solve": ["solve", "--preset", "fig1", "--mode", "both",
                  "--format", "json"],
        "sweep": ["sweep", "--pumping-strength", "8", "--mode", "complete",
                  "--n-points", "201"],
        "contrast-ratio": ["contrast-ratio", "--pumping-strengths", "10,100"],
        "power-broadening": ["power-broadening", "--mode", "complete",
                             "--multiple", "2"],
        "spin-exchange": ["spin-exchange", "--t-min-c", "50", "--t-max-c",
                          "60", "--t-step-c", "5"],
        "analyze": ["analyze", str(scans_dir)],
    }
    results = {}
    for name, argv in commands.items():
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            outputs.append((code, captured.out))
        results[name] = (outputs[0][0] == 0
                         and outputs[0] == outputs[1]
                         and len(outputs[0][1]) > 0)
    ok = all(results.values())
    report("criterion 9", ok,
           "byte-identical stdout for " + ", ".join(
               f"{name}:{'yes' if good else 'NO'}"
               for name, good in results.items()))
    assert ok
