"""Sweep machinery and figure-of-merit extraction."""

import math

import numpy as np
import pytest

import cptsim.lineshape as lineshape_mod
from cptsim import (Depolarization, InvariantViolation, Lineshape,
                    NoResonance, NotBracketed, ParameterError,
                    RationalLineshape, SingularSystem, Spacing, SweepSpec,
                    Unbracketed, asymmetry,
                    calibrate_power_broadening, default_sweep_spec, fwhm,
                    hz_to_angular, physical_contrast, rabi_for_pumping_strength,
                    resonance_center, resonance_metrics, sweep)
from cptsim.lineshape import CALIBRATION_BRACKET, calibration_fwhm, halfwidth_estimate

from conftest import fuzz_range_draws, make_params, random_params, use_fake_system
from oracles import (antisymmetric_fraction_verbatim, mirrored_offsets_verbatim,
                     solve_full_system)

TWO_PI = 2 * np.pi


def params_at_strength(s, mode=Depolarization.COMPLETE, **overrides):
    base = make_params(mode=mode, **overrides)
    return base.replace(rabi=rabi_for_pumping_strength(base, s))


def synthetic_dip(half_width=1.0, baseline=2.0, depth=1.0, span=60.0,
                  n=4001, center=0.0):
    deltas = np.linspace(center - span / 2, center + span / 2, n)
    ys = baseline - depth * half_width**2 / ((deltas - center) ** 2 + half_width**2)
    return Lineshape(deltas, ys, make_params())


# ------------------------------------------------------------------ types

def test_sweep_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec(1.0, -1.0)
    with pytest.raises(ParameterError):
        SweepSpec(-1.0, 1.0, n_points=2)


@pytest.mark.parametrize("bounds", [(-math.inf, math.inf), (-1.0, math.inf),
                                    (-math.inf, 1.0), (-1e308, 1e308)])
def test_sweep_spec_span_must_be_finite(bounds):
    # an infinite bound, or finite bounds whose span overflows, is refused
    # before linspace could warn or a solve could meet delta = inf
    with pytest.raises(ParameterError, match="finite"):
        SweepSpec(*bounds)
    spec = SweepSpec(-0.5e308, 0.5e308, 5, Spacing.LINEAR)
    assert np.all(np.isfinite(np.linspace(spec.delta_min, spec.delta_max,
                                          spec.n_points)))


def test_lineshape_validation():
    with pytest.raises(ParameterError):
        Lineshape(np.array([0.0, 0.0, 1.0]), np.zeros(3), make_params())
    with pytest.raises(ParameterError):
        Lineshape(np.array([0.0, 1.0]), np.array([1.0, -0.5]), make_params())


# ------------------------------------------------------------------ sweep

def test_sweep_dark_cell_is_flat_zero():
    shape = sweep(make_params(rabi=0.0),
                  SweepSpec(-1e4, 1e4, 101, Spacing.LINEAR))
    assert np.all(shape.rho_ee == 0.0)
    assert shape.deltas.size == 101


def test_sweep_fig1_complete_single_centered_dip():
    p = params_at_strength(8.9)
    shape = sweep(p, default_sweep_spec(p))
    i_min = int(np.argmin(shape.rho_ee))
    assert abs(shape.deltas[i_min]) < (shape.deltas[1] - shape.deltas[0])
    # single dip: rho_ee falls to the minimum and rises after it (up to
    # solver noise between neighbouring samples)
    noise = 1e-9 * float(np.ptp(shape.rho_ee))
    assert np.all(np.diff(shape.rho_ee[: i_min + 1]) < noise)
    assert np.all(np.diff(shape.rho_ee[i_min:]) > -noise)


@pytest.mark.parametrize("n", [101, 1001])
@pytest.mark.parametrize("s", [5.0, 1e3, 1e4])
def test_adaptive_sweep_brackets_fwhm_densely(s, n):
    p = params_at_strength(s)
    shape = sweep(p, default_sweep_spec(p, span_halfwidths=40.0, n_points=n))
    lo, hi = lineshape_mod._half_depth_crossings(shape.deltas, shape.rho_ee)
    inside = np.count_nonzero((shape.deltas > lo) & (shape.deltas < hi))
    assert inside >= max(lineshape_mod.MIN_SAMPLES_IN_FWHM, n // 3)


def test_adaptive_sweep_keeps_the_linear_grid_unless_it_brackets_the_dip():
    # a span inside the FWHM, or one holding only one crossing, is not
    # refined: an even grid over it could be coarser than the linear one
    p = params_at_strength(8.9, mode=Depolarization.NONE)
    dip = lineshape_mod._model_dip(RationalLineshape(p), 20.0)
    width = dip.hi - dip.lo
    for lo, hi in ((dip.center - 0.1 * width, dip.center + 0.1 * width),
                   (dip.center, dip.hi + 10.0 * width)):
        shape = sweep(p, SweepSpec(lo, hi, 1001, Spacing.ADAPTIVE))
        np.testing.assert_array_equal(shape.deltas, np.linspace(lo, hi, 1001))


# COMPLETE mode, Delta = -300 MHz, Gamma = 0.5 GHz, s = 1e3: a point where
# refinement used to keep near-duplicate detunings (0 and ~1e-9 rad/s)
FAULT2_OVERRIDES = {"delta_opt": -300e6, "gamma_opt": 0.5e9}


def test_adaptive_sweep_keeps_no_near_duplicates():
    p = params_at_strength(1e3, **FAULT2_OVERRIDES)
    spec = default_sweep_spec(p)
    shape = sweep(p, spec)
    gaps = np.diff(shape.deltas)
    assert gaps.min() > 1e-9 * (spec.delta_max - spec.delta_min)


def test_complete_mode_metrics_symmetric_at_refined_point():
    m = resonance_metrics(params_at_strength(1e3, **FAULT2_OVERRIDES))
    assert abs(m.center_hz) / m.fwhm_hz < 1e-6
    assert m.asymmetry < 1e-6


def test_grid_convergence_of_metrics():
    p = params_at_strength(8.9)
    coarse = sweep(p, default_sweep_spec(p, n_points=1001))
    fine = sweep(p, default_sweep_spec(p, n_points=2001))
    assert fwhm(fine) == pytest.approx(fwhm(coarse), rel=1e-3)
    a_c, a_f = asymmetry(coarse), asymmetry(fine)
    assert a_f == pytest.approx(a_c, abs=1e-8)  # both are numerically zero


def test_grid_convergence_none_mode_asymmetric():
    p = params_at_strength(8.9, mode=Depolarization.NONE)
    coarse = sweep(p, default_sweep_spec(p, n_points=1001))
    fine = sweep(p, default_sweep_spec(p, n_points=2001))
    assert fwhm(fine) == pytest.approx(fwhm(coarse), rel=1e-3)
    assert asymmetry(fine) == pytest.approx(asymmetry(coarse), rel=1e-3)


# ------------------------------------------------------------------- fwhm

def test_fwhm_of_synthetic_lorentzian():
    w = 1.7
    shape = synthetic_dip(half_width=w, span=200 * w, n=20001)
    assert fwhm(shape) == pytest.approx(2 * w / TWO_PI, rel=1e-3)


def test_fwhm_flat_line_raises():
    deltas = np.linspace(-1, 1, 64)
    with pytest.raises(NoResonance):
        fwhm(Lineshape(deltas, np.ones(64), make_params()))


def test_fwhm_unbracketed_window():
    # dip center outside the sweep: the left crossing cannot be bracketed
    deltas = np.linspace(0.0, 10.0, 101)
    ys = 2.0 - 1.0 / (1.0 + (deltas + 1.0) ** 2)
    with pytest.raises(Unbracketed):
        fwhm(Lineshape(deltas, ys, make_params()))


def test_low_power_fwhm_approaches_ground_relaxation():
    p = params_at_strength(0.01)
    shape = sweep(p, default_sweep_spec(p, span_halfwidths=25.0, n_points=801))
    width_hz = fwhm(shape)
    expected_hz = 2 * p.gamma_g / TWO_PI
    assert width_hz == pytest.approx(expected_hz, rel=0.05)


# -------------------------------------------------------------- asymmetry

def test_asymmetry_zero_for_even_function():
    shape = synthetic_dip(half_width=2.0, span=40.0, n=2001)
    assert asymmetry(shape) < 1e-10


@pytest.mark.parametrize("n_half", [100, 200])
@pytest.mark.parametrize("center", [0.0, -0.0, 1.25e9, -3.5])
def test_mirrored_offsets_match_linspace(n_half, center):
    # byte for byte the linspace + concatenate form, from a subnormal half
    # width (whose step underflows to 0) up to 1e300, on windows at 0 and
    # around 0; half width 0 and -0.0 windows included
    for half in (0.0, 5e-324, 1e-322, 1e-320, 2.2250738585072014e-308,
                 1e-300, 3e-7, 0.1, 1.0, 7.0, 1e5, 6.8e9, 1e300):
        for d_lo, d_hi in ((0.0, 2.0 * half), (-half, half), (half, -half),
                           (-0.0, -0.0)):
            got = lineshape_mod._mirrored_offsets(center, d_lo, d_hi, n_half)
            want = mirrored_offsets_verbatim(center, d_lo, d_hi, n_half)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (center, d_lo, d_hi)


def test_antisymmetric_fraction_matches_verbatim():
    # byte for byte the ** 2 and .sum() form: random mirrored values at
    # several scales, an exactly symmetric set, and a zero denominator
    rng = np.random.default_rng(20261022)
    cases = [(np.full(202, 0.75), 0.75), (np.zeros(402), 0.0),
             (np.tile(rng.normal(size=101), 2), 0.5)]
    for n in (101, 201):
        for scale in (1e-170, 1e-3, 1.0, 1e150):
            values = scale * rng.normal(size=2 * n)
            cases += [(values, 0.0), (values, scale * rng.normal())]
    for values, baseline in cases:
        got = lineshape_mod._antisymmetric_fraction(values, baseline)
        want = antisymmetric_fraction_verbatim(values, baseline)
        assert type(got) is type(want) and got.hex() == want.hex()
    assert lineshape_mod._antisymmetric_fraction(np.full(202, 0.75), 0.75) == 0.0


def test_stacked_mirrored_offsets_and_fraction_are_each_rows_own():
    # one stack of windows, columns in and one row of offsets out each: every
    # row is byte for byte the verbatim offsets of its own window, including
    # rows whose step underflows (subnormal and zero half widths) beside
    # normal ones; the fraction of each row of a stack is that row's alone,
    # a zero denominator included
    halves = (0.0, 5e-324, 1e-322, 1e-320, 2.2250738585072014e-308, 1e-300, 3e-7,
              0.1, 7.0, 6.8e9, 1e300)
    windows = [(center, d_lo, d_lo + 2.0 * half) for center in (0.0, -0.0, 1.25e9, -3.5)
               for half in halves for d_lo in (0.0, -half, -0.0)]
    center, d_lo, d_hi = (np.array(column)[:, None] for column in zip(*windows))
    for n_half in (100, 200):
        got = lineshape_mod._mirrored_offsets(center, d_lo, d_hi, n_half)
        assert got.shape == (len(windows), 2 * (n_half + 1))
        for row, window in zip(got, windows):
            want = mirrored_offsets_verbatim(*window, n_half)
            assert row.tobytes() == want.tobytes(), window
    rng = np.random.default_rng(20261021)
    for n in (101, 201):
        values = np.concatenate([scale * rng.normal(size=(3, 2 * n))
                                 for scale in (1e-170, 1e-3, 1.0, 1e150)])
        values = np.concatenate([values, np.zeros((1, 2 * n)),
                                 np.tile(rng.normal(size=n), (1, 2))])
        for baseline in (0.0, 0.5):
            got = lineshape_mod._antisymmetric_fraction(values, baseline)
            want = [antisymmetric_fraction_verbatim(row, baseline) for row in values]
            assert [type(v) for v in got] == [float] * len(values)
            assert [v.hex() for v in got] == [v.hex() for v in want]


def test_asymmetry_complete_mode_symmetric():
    p = params_at_strength(8.9)
    shape = sweep(p, default_sweep_spec(p))
    assert asymmetry(shape) < 1e-6


def test_asymmetry_none_exceeds_complete():
    pc = params_at_strength(8.9, mode=Depolarization.COMPLETE)
    pn = pc.replace(depolarization=Depolarization.NONE)
    a_complete = asymmetry(sweep(pc, default_sweep_spec(pc)))
    a_none = asymmetry(sweep(pn, default_sweep_spec(pn)))
    assert a_none > a_complete
    assert a_none > 1e-4


# ---------------------------------------------------------------- contrast

def test_contrast_weak_pumping_vanishes_linearly():
    # frozen against the solver-limit oracle: contrast ~ 0.159 * s for
    # the fig-1 geometry, so it vanishes linearly with pumping strength
    c3 = physical_contrast(params_at_strength(1e-3)).physical_contrast
    c4 = physical_contrast(params_at_strength(1e-4)).physical_contrast
    assert c3 == pytest.approx(1.591e-4, rel=0.01)
    assert c4 == pytest.approx(c3 / 10.0, rel=0.01)


def test_contrast_zero_rabi():
    summary = physical_contrast(make_params(rabi=0.0))
    assert summary.physical_contrast == 0.0
    assert summary.baseline == 0.0


def test_contrast_monotone_in_pumping_strength():
    strengths = np.geomspace(0.1, 1e3, 9)
    values = [physical_contrast(params_at_strength(s)).physical_contrast
              for s in strengths]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_contrast_ratio_frozen_values():
    # frozen model values for the fig-1 geometry (verified against the
    # un-reduced 18x18 oracle): the complete/none ratio rises toward ~1.9
    ratios = []
    for s in (10.0, 100.0, 1000.0):
        cn = physical_contrast(params_at_strength(s, mode=Depolarization.NONE))
        cc = physical_contrast(params_at_strength(s, mode=Depolarization.COMPLETE))
        ratios.append(cc.physical_contrast / cn.physical_contrast)
    assert ratios[0] == pytest.approx(1.4677, abs=2e-3)
    assert ratios[1] == pytest.approx(1.8286, abs=2e-3)
    assert ratios[2] == pytest.approx(1.8943, abs=2e-3)
    assert ratios[0] < ratios[1] < ratios[2] < 2.0


def _depolarization_ratios(base, s):
    """COMPLETE over NONE of (FWHM, contrast, Q) from resonance_metrics,
    at the Rabi frequency of pumping strength s in ``base``."""
    rabi = rabi_for_pumping_strength(base, s)
    none, complete = (resonance_metrics(base.replace(rabi=rabi, depolarization=mode))
                      for mode in (Depolarization.NONE, Depolarization.COMPLETE))
    return (complete.fwhm_hz / none.fwhm_hz,
            complete.physical_contrast / none.physical_contrast,
            complete.qfactor / none.qfactor)


def test_depolarization_map_over_the_comparison_space():
    # the paper's comparison over 600 seeded draws (optical detuning in
    # +/-400 MHz, optical width 0.5-3 GHz, s log-uniform in 0.1-1e4, fig-1
    # omega_e, gamma and gamma_g): depolarizing gives the higher contrast
    # and Q from s = 0.3 up, at a FWHM within about -2%/+22%; the few
    # lower contrasts sit at weak pumping and just below 1 (measured: 3
    # of 600, down to 0.998996 at s = 0.14-0.22, FWHM ratio in
    # [0.9861, 1.2127], both ratios >= 1.005 for s >= 0.3)
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(600):
        delta_opt = rng.uniform(-400e6, 400e6)
        gamma_opt = rng.uniform(0.5e9, 3e9)
        s = 10 ** rng.uniform(-1.0, 4.0)
        base = make_params(delta_opt=delta_opt, gamma_opt=gamma_opt)
        draws.append((s, *_depolarization_ratios(base, s)))
    for s, width, contrast, q in draws:
        assert 0.98 <= width <= 1.22
        if s >= 0.3:
            assert contrast > 1.0 and q > 1.0
        if contrast < 1.0:
            assert contrast > 0.998 and s < 0.25

    # at fig 1 the contrast ratio rises with s from just above 1
    fig1 = [_depolarization_ratios(make_params(), s)[1]
            for s in (1e-3, 1e-2, 0.1, 1.0, 10.0)]
    assert 1.0 < fig1[0] < 1.0001
    assert all(a < b for a, b in zip(fig1, fig1[1:]))


def test_baseline_consistency_with_wide_sweep():
    p = params_at_strength(8.9)
    summary = physical_contrast(p)
    shape = sweep(p, default_sweep_spec(p, span_halfwidths=2000.0, n_points=4001))
    baseline_sweep = 0.5 * (shape.rho_ee[0] + shape.rho_ee[-1])
    dip = shape.rho_ee.min()
    sweep_contrast = (baseline_sweep - dip) / baseline_sweep
    assert sweep_contrast == pytest.approx(summary.physical_contrast, rel=5e-3)


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_contrast_is_linear_in_weak_pumping(mode):
    # contrast ~ s at weak pumping; with the exact baseline and the
    # amplitude taken without cancellation, contrast/s holds to ~5e-9
    c = [physical_contrast(params_at_strength(s, mode=mode)).physical_contrast / s
         for s in (1e-10, 1e-8)]
    assert c[0] == pytest.approx(c[1], rel=1e-7)


def test_baseline_is_the_exact_far_detuned_limit(rng):
    for mode in (Depolarization.NONE, Depolarization.COMPLETE):
        for _ in range(5):
            p = random_params(rng, mode=mode)
            summary = physical_contrast(p)
            assert summary.baseline == RationalLineshape(p).c0
            far = 2e7 * halfwidth_estimate(p)
            oracle = np.mean([solve_full_system(p.replace(delta_raman=d))[1].sum()
                              for d in (-far, far)])
            assert summary.baseline == pytest.approx(oracle, rel=1e-9)
            at_zero = solve_full_system(p.replace(delta_raman=0.0))[1].sum()
            assert summary.amplitude == pytest.approx(oracle - at_zero, rel=1e-9)


def test_contrast_checks_the_far_detuned_state(monkeypatch):
    # a factorization whose delta -> inf state leaves the trace, or a
    # population below zero, while every coherence vanishes (r = 0): the
    # certificate names the limit, before the contrast is formed
    def far_state(y0):
        A, b = np.eye(10), np.zeros(10)
        A[8, 9], A[9, 8] = -1.0, 1.0  # damped coherences, decoupled
        b[:8] = y0
        return A, b

    uniform = [0.125] * 8
    for y0, invariant, value in [([0.125 * (1 + 1e-9)] * 8, "trace", 1e-9),
                                 ([-1e-11, 0.25 + 1e-11, *uniform[2:]], "positivity", 1e-11)]:
        use_fake_system(monkeypatch, *far_state(y0))
        with pytest.raises(InvariantViolation) as err:
            physical_contrast(params_at_strength(8.9))
        assert (err.value.invariant, err.value.delta_raman) == (invariant, math.inf)
        assert err.value.value == pytest.approx(value, rel=1e-6)


def _count_model_work(monkeypatch):
    """Record, in order, each factorization, certificate and sampled call
    of RationalLineshape."""
    events = []
    for name, event in (("__init__", "factorization"), ("certify", "certificate"),
                        ("__call__", "call")):
        real = getattr(RationalLineshape, name)

        def counting(self, *args, real=real, event=event):
            events.append(event)
            return real(self, *args)

        monkeypatch.setattr(RationalLineshape, name, counting)
    return events


def test_contrast_and_metrics_make_one_checked_solve(monkeypatch):
    # the closed-form metrics sample nothing: one factorization, then its
    # one certificate, and no call of the model (physical_contrast takes
    # rho_ee(0) from the closed form)
    events = _count_model_work(monkeypatch)
    for mode in (Depolarization.NONE, Depolarization.COMPLETE):
        p = params_at_strength(8.9, mode=mode)
        for call in (resonance_metrics, physical_contrast, calibration_fwhm):
            events.clear()
            call(p)
            assert events == ["factorization", "certificate"], call.__name__


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_model_calls_make_one_factorization_and_one_checked_call(monkeypatch, mode):
    # a sweep makes one factorization and one call of it on the returned
    # grid, which certifies the factorization once, before it samples: 1001
    # linear samples, more where the adaptive grid refines the dip (the
    # metric calls: see test_contrast_and_metrics_make_one_checked_solve)
    events, calls = _count_model_work(monkeypatch), []
    real_call = RationalLineshape.__call__

    def recording_call(self, deltas):
        calls.append(np.asarray(deltas, dtype=float).ravel())
        return real_call(self, deltas)

    monkeypatch.setattr(RationalLineshape, "__call__", recording_call)
    p = params_at_strength(8.9, mode=mode)
    for spacing in Spacing:
        events.clear()
        calls.clear()
        shape = sweep(p, default_sweep_spec(p, spacing=spacing))
        assert events == ["factorization", "call", "certificate"]
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], shape.deltas)
        if spacing is Spacing.LINEAR:
            assert shape.deltas.size == 1001
        else:
            assert shape.deltas.size > 1001  # the dip was refined


def test_calibration_makes_three_factorizations_plus_one_per_brent_evaluation(monkeypatch):
    # the probe's factorization and its certificate; then one factorization
    # per bracket end and per Brent evaluation, none certified; then the
    # two certificates of the final bracket (resonance_metrics and
    # physical_contrast: one of each, see
    # test_model_calls_make_one_factorization_and_one_checked_call)
    events, evaluations = _count_model_work(monkeypatch), [0]
    real_brent = lineshape_mod._brent_root

    def counting_brent(f, *args):
        def counted(u):
            evaluations[0] += 1
            return f(u)
        return real_brent(counted, *args)

    monkeypatch.setattr(lineshape_mod, "_brent_root", counting_brent)
    for base in _calibration_bases():
        for multiple in CALIBRATION_MULTIPLES:
            events.clear()
            evaluations[0] = 0
            calibrate_power_broadening(base, multiple)
            assert evaluations[0] >= 1
            assert events == (["factorization", "certificate"]
                              + ["factorization"] * (2 + evaluations[0])
                              + ["certificate"] * 2)


def test_calibration_certifies_the_probe_and_the_final_bracket(monkeypatch):
    # the result rests on the probe and on the two ends b, c of Brent's
    # final bracket: a failed certificate there raises, and one at any
    # other evaluated width, which only chose a step, changes nothing
    certified, evaluated, failing = [], [], [None]
    real_certify, real_width = RationalLineshape.certify, lineshape_mod._calibration_width

    def certify(self):
        certified.append(self.params.rabi)
        if self.params.rabi == failing[0]:
            raise InvariantViolation("injected", invariant="residual", value=1.0,
                                     bound=0.0, delta_raman=0.0)
        real_certify(self)

    def recording(params):
        evaluated.append(params.rabi)
        return real_width(params)

    monkeypatch.setattr(RationalLineshape, "certify", certify)
    monkeypatch.setattr(lineshape_mod, "_calibration_width", recording)
    base = make_params(mode=Depolarization.NONE)
    clean = lineshape_mod._calibrate(base, 3.0)
    probe, v_b, v_c = certified
    assert (probe, v_b) == (rabi_for_pumping_strength(base, 1e-3), clean[0])
    visited = [v for v in evaluated if v not in certified]
    assert v_c in evaluated and len(visited) == len(evaluated) - 3 > 0
    for failing[0] in (probe, v_b, v_c):
        with pytest.raises(InvariantViolation, match="injected"):
            lineshape_mod._calibrate(base, 3.0)
    for failing[0] in visited:
        got = lineshape_mod._calibrate(base, 3.0)
        assert [x.hex() for x in got] == [x.hex() for x in clean]
    # an unreachable target: both bracket ends are certified before it is named
    for s in CALIBRATION_BRACKET:
        failing[0] = rabi_for_pumping_strength(base, s)
        with pytest.raises(InvariantViolation, match="injected"):
            lineshape_mod._calibrate(base, 1e4)


def test_model_dip_window_is_the_estimated_half_width(rng):
    # the dip window comes from the model's coherence damping rate, which
    # is halfwidth_estimate of its parameters, bit for bit
    for mode in (Depolarization.NONE, Depolarization.COMPLETE):
        for _ in range(50):
            p = random_params(rng, mode=mode)
            for q in (p, p.replace(rabi=0.0)):
                assert RationalLineshape(q).damping == float(halfwidth_estimate(q))


# ------------------------------------------------------ closed-form metrics

def test_closed_form_center_is_stationary_and_crossings_sit_at_half_level(rng):
    for mode in (Depolarization.NONE, Depolarization.COMPLETE):
        for _ in range(10):
            p = random_params(rng, mode=mode)
            model = RationalLineshape(p)
            dip = lineshape_mod._model_dip(model, 20.0)
            c = dip.center
            # derivative numerator of the rational excess, against its terms
            terms = np.array([-model.p1 * c * c, -2.0 * model.p0 * c,
                              model.p1 * model.q0, -model.p0 * model.q1])
            assert abs(terms.sum()) <= 1e-12 * np.abs(terms).sum()
            width = dip.hi - dip.lo
            near = RationalLineshape(p)(c + width * np.array([-1e-3, 0.0, 1e-3]))
            assert near[1] <= near[0] and near[1] <= near[2]
            # the half level from checked solves at the edges and the center
            edges = RationalLineshape(p)(np.array([-dip.edge, dip.edge]))
            level = 0.5 * (edges.mean() + near[1])
            depth = edges.mean() - near[1]
            at = RationalLineshape(p)(np.array([dip.lo, dip.hi]))
            np.testing.assert_allclose(at, level, rtol=0, atol=1e-9 * depth)


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_sampled_fwhm_converges_to_closed_form_at_second_order(mode):
    # linear crossings on a linear grid: relative error <= 1.5 (h/FWHM)^2
    p = params_at_strength(8.9, mode=mode)
    exact = resonance_metrics(p).fwhm_hz
    for n in (251, 501, 1001, 2001, 4001, 8001):
        shape = sweep(p, default_sweep_spec(p, n_points=n, spacing=Spacing.LINEAR))
        h = (shape.deltas[1] - shape.deltas[0]) / TWO_PI
        err = abs(fwhm(shape) - exact) / exact
        assert err <= 2.0 * (h / exact) ** 2


def test_complete_mode_closed_form_is_even(rng):
    for _ in range(20):
        p = random_params(rng, mode=Depolarization.COMPLETE)
        model = RationalLineshape(p)
        scale = math.sqrt(model.q0)
        assert abs(model.q1) <= 1e-12 * scale
        assert abs(model.p1) * scale <= 1e-12 * abs(model.p0)
        m = resonance_metrics(p)
        assert abs(m.center_hz) <= 1e-12 * m.fwhm_hz
        assert m.asymmetry <= 1e-12


def test_closed_form_metrics_of_a_dark_cell_raise_no_resonance():
    with pytest.raises(NoResonance):
        resonance_metrics(make_params(rabi=0.0))
    with pytest.raises(NoResonance):
        calibration_fwhm(make_params(rabi=0.0))


def test_closed_form_metrics_at_a_huge_rabi_frequency_are_singular():
    # q0 - q1^2/4 is -inf: the real pole is named before the closed form
    # is read, where a division by zero would end the call untyped
    p = make_params(rabi=hz_to_angular(1e140))
    for call in (resonance_metrics, calibration_fwhm):
        with pytest.raises(SingularSystem, match=r"real detuning: q0 - q1\^2/4 = -inf"):
            call(p)


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_closed_form_metrics_check_the_solves(mode):
    # fig-1 geometry at gamma_g = 0.1 Hz, s = 1e7: the checked solves
    # reject the stiff solution, so the closed form is not taken on trust
    base = make_params(gamma_g=0.1, mode=mode)
    p = base.replace(rabi=rabi_for_pumping_strength(base, 1e7))
    with pytest.raises(InvariantViolation):
        resonance_metrics(p)
    with pytest.raises(InvariantViolation):
        calibration_fwhm(p)


# Named fault 1: fig-1 geometry, (gamma_g/2pi in Hz, s, mode), where the
# absolute tolerances reject a valid stiff solution; the model's validity
# flags hold at each point.  The fifth point of the benchmark's list
# passes, and so does (1 Hz, 3e6, NONE) since A's rate tables are exact.
_FAULT1 = pytest.mark.xfail(strict=True, raises=InvariantViolation,
                            reason="fault 1: absolute tolerances reject valid stiff solutions")
FAULT1_POINTS = [pytest.param(0.1, 1e7, Depolarization.NONE, marks=_FAULT1),
                 pytest.param(0.1, 1e7, Depolarization.COMPLETE, marks=_FAULT1),
                 (1.0, 3e6, Depolarization.NONE),
                 pytest.param(1.0, 3e6, Depolarization.COMPLETE, marks=_FAULT1)]


@pytest.mark.parametrize("gamma_g, s, mode", FAULT1_POINTS)
def test_fault1_points_pass_within_the_validity_flags(gamma_g, s, mode):
    p = params_at_strength(s, mode=mode, gamma_g=gamma_g)
    assert all(p.validity_flags().values())
    resonance_metrics(p)


def test_fifth_fault1_point_passes():
    p = params_at_strength(3e6, mode=Depolarization.COMPLETE, gamma_g=0.1)
    assert all(p.validity_flags().values())
    m = resonance_metrics(p)
    assert m.fwhm_hz > 0 and 0 < m.physical_contrast < 1


RAISED_AT_RATCHET = frozenset((
    15, 43, 174, 186, 202, 229, 257, 296, 327, 352, 448, 483, 496, 512, 554,
    564, 628, 649, 680, 681, 690, 713, 738, 837, 870, 1000, 1058, 1060, 1078,
    1112, 1140, 1173, 1210, 1217, 1239, 1258, 1299, 1308, 1341, 1412, 1467,
    1470, 1502, 1518, 1524, 1532, 1636, 1644, 1734, 1762, 1772, 1774, 1790,
    1817, 1852, 1862, 1899, 1920, 1944))


def test_stiff_verdicts_over_the_fuzz_range():
    # a ratchet over ROADMAP item 6's fuzz range, stiff points kept
    # (conftest.fuzz_range_draws): resonance_metrics raises only at draws
    # of the 59 measured when the ratchet was set, and only at s >= 1e5;
    # drop a draw from the set as its stiff point is fixed
    draws = fuzz_range_draws()
    raised = []
    for i, (_, p) in enumerate(draws):
        try:
            resonance_metrics(p)
        except InvariantViolation:
            raised.append(i)
    assert set(raised) <= RAISED_AT_RATCHET, sorted(set(raised) - RAISED_AT_RATCHET)
    assert min((draws[i][0] for i in raised), default=math.inf) >= 1e5


# ------------------------------------------------------------ calibration

def test_calibration_makes_no_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("calibration swept")

    monkeypatch.setattr(lineshape_mod, "sweep", no_sweep)
    base = make_params(mode=Depolarization.NONE)
    rabi = calibrate_power_broadening(base, 3.0)
    probe = base.replace(rabi=rabi_for_pumping_strength(base, 1e-3))
    ratio = calibration_fwhm(base.replace(rabi=rabi)) / calibration_fwhm(probe)
    assert ratio == pytest.approx(4.0, rel=1e-5)


def test_calibration_round_trip_multiple_three():
    base = make_params(mode=Depolarization.COMPLETE)
    rabi = calibrate_power_broadening(base, 3.0)
    probe = base.replace(rabi=rabi_for_pumping_strength(base, 1e-3))
    w0 = fwhm(sweep(probe, default_sweep_spec(probe, 25.0, 241)))
    cal = base.replace(rabi=rabi)
    w = fwhm(sweep(cal, default_sweep_spec(cal, 25.0, 241)))
    assert (w - w0) / w0 == pytest.approx(3.0, rel=0.01)


def test_calibration_multiple_zero_returns_probe_level():
    base = make_params(mode=Depolarization.COMPLETE)
    rabi = calibrate_power_broadening(base, 0.0)
    probe = rabi_for_pumping_strength(base, 1e-3)
    cal = base.replace(rabi=rabi)
    w = fwhm(sweep(cal, default_sweep_spec(cal, 25.0, 241)))
    probe_p = base.replace(rabi=probe)
    w0 = fwhm(sweep(probe_p, default_sweep_spec(probe_p, 25.0, 241)))
    assert w == pytest.approx(w0, rel=1e-3)


def test_fwhm_monotone_in_rabi():
    base = make_params(mode=Depolarization.COMPLETE)
    widths = []
    for s in np.geomspace(1e-4, 1e4, 9):
        p = base.replace(rabi=rabi_for_pumping_strength(base, s))
        widths.append(fwhm(sweep(p, default_sweep_spec(p, 25.0, 241))))
    assert all(b > a for a, b in zip(widths, widths[1:]))


CALIBRATION_GEOMETRIES = [{}, {"delta_opt": 300e6, "gamma_opt": 3e9},
                          {"delta_opt": -150e6, "gamma_opt": 5e8, "gamma_g": 1e3}]
CALIBRATION_MULTIPLES = (0.1, 1.0, 3.0, 10.0, 100.0)


def _calibration_bases():
    return [make_params(mode=mode, **geometry) for geometry in CALIBRATION_GEOMETRIES
            for mode in (Depolarization.NONE, Depolarization.COMPLETE)]


def test_calibration_brackets_the_target_within_its_tolerance():
    # the root lies within 1e-6 of ln V: the target width sits between the
    # widths at V * exp(-1e-6) and V * exp(+1e-6)
    for base in _calibration_bases():
        w0 = calibration_fwhm(base.replace(rabi=rabi_for_pumping_strength(base, 1e-3)))
        for multiple in CALIBRATION_MULTIPLES:
            v = calibrate_power_broadening(base, multiple)
            below, above = (calibration_fwhm(base.replace(rabi=v * math.exp(k)))
                            for k in (-1e-6, 1e-6))
            assert below <= (1.0 + multiple) * w0 <= above


def test_calibration_unreachable_multiple():
    for base in _calibration_bases():
        for multiple in (1e4, 1e6):
            with pytest.raises(NotBracketed, match="outside attainable"):
                calibrate_power_broadening(base, multiple)


def test_nan_strength_and_multiple_are_named_parameter_errors():
    base = make_params()
    with pytest.raises(ParameterError, match="pumping strength"):
        rabi_for_pumping_strength(base, math.nan)
    with pytest.raises(ParameterError, match="broadening multiple must be finite, not nan"):
        calibrate_power_broadening(base, math.nan)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_strength_is_named_as_such(s):
    with pytest.raises(ParameterError, match=f"pumping strength must be finite, not {s}"):
        rabi_for_pumping_strength(make_params(), s)


@pytest.mark.parametrize("mode", list(Depolarization))
def test_vanishing_baseline_is_no_resonance(mode):
    # c0 underflows to 0.0 at a tiny but valid Rabi frequency
    with pytest.raises(NoResonance, match="baseline underflows to 0"):
        physical_contrast(make_params(rabi=1e-160, mode=mode))


def test_calibration_returns_an_evaluated_width(monkeypatch):
    seen = []
    real = lineshape_mod._calibration_width

    def recording(params):
        model, width = real(params)
        seen.append((params.rabi, width))
        return model, width

    monkeypatch.setattr(lineshape_mod, "_calibration_width", recording)
    base = make_params(mode=Depolarization.NONE)
    v, w0, w = lineshape_mod._calibrate(base, 3.0)
    assert seen[0] == (rabi_for_pumping_strength(base, 1e-3), w0)
    assert (v, w) in seen[1:]
    assert w == calibration_fwhm(base.replace(rabi=v))


def test_calibration_factorization_count(monkeypatch):
    # Brent's method on ln V: about 10 factorizations per calibration,
    # probe and bracket widths included, of which 3 are certified; a
    # bisection of the bracket to the same tolerance takes 27
    count = [0]
    real_init = RationalLineshape.__init__

    def counting_init(self, params):
        count[0] += 1
        real_init(self, params)

    monkeypatch.setattr(RationalLineshape, "__init__", counting_init)
    counts = []
    for base in _calibration_bases():
        for multiple in CALIBRATION_MULTIPLES:
            count[0] = 0
            calibrate_power_broadening(base, multiple)
            counts.append(count[0])
    assert np.mean(counts) <= 12
    assert max(counts) <= 16


@pytest.mark.parametrize("f, root", [(lambda x: (x - 0.3) ** 9, 0.3),
                                     (lambda x: -1.0 if x < 0.123 else 1.0, 0.123)],
                         ids=["ninth-power", "step"])
def test_brent_root_bisects_where_interpolation_fails(f, root):
    # no calibration takes the bisection steps: a flat ninth-power root
    # refuses the interpolated step, and a step function leaves |fa| <= |fb|.
    # They keep the count within four bisections of the bracket, 22 steps
    # each (measured: 63 and 22; with either step dropped, 168 to 3962)
    evaluated = []

    def recording(x):
        evaluated.append(x)
        return f(x)

    x, c = lineshape_mod._brent_root(recording, -1.0, 2.0, f(-1.0), f(2.0), 1e-6)
    assert x in evaluated
    assert abs(x - root) <= 1e-6
    # the final bracket: a sign change within xtol, at points whose values
    # were evaluated or given
    assert c in evaluated or c in (-1.0, 2.0)
    assert f(x) * f(c) <= 0.0
    assert abs(x - c) <= 1e-6
    assert len(evaluated) <= 4 * math.ceil(math.log2(3.0 / 1e-6))


def test_resonance_metrics_composition():
    p = params_at_strength(8.9)
    m = resonance_metrics(p)
    assert m.qfactor == pytest.approx(m.physical_contrast / m.fwhm_hz)
    assert m.amplitude == pytest.approx(m.baseline * m.physical_contrast, rel=1e-9)
    assert abs(m.center_hz) < 1.0  # dip pinned to delta = 0
    # 3x power broadening: full width close to 8 * gamma_g
    assert m.fwhm_hz == pytest.approx(8 * p.gamma_g / TWO_PI, rel=0.02)


def test_resonance_center_refinement():
    shape = synthetic_dip(half_width=2.0, span=30.0, n=301, center=0.37)
    assert resonance_center(shape) == pytest.approx(0.37, abs=5e-3)


def test_resonance_center_of_a_monotone_curve_is_its_edge_sample():
    # with the sampled minimum at an edge there is no dip to refine: the
    # center is that edge sample
    d = np.linspace(-3.0, 5.0, 9)
    assert resonance_center(Lineshape(d, 4.0 + d, make_params())) == d[0]
    assert resonance_center(Lineshape(d, 2.0 - 0.1 * d, make_params())) == d[-1]


def test_local_cubic_reproduces_a_sampled_cubic(rng):
    # on samples of a cubic, on an uneven grid, the local cubic is the
    # cubic itself: its center and level crossings are exact
    c0 = 0.37
    d = np.unique(np.concatenate([[-4.0, 4.0], rng.uniform(-4.0, 4.0, 60)]))
    ys = 3.0 + (d - c0) ** 2 + 0.05 * (d - c0) ** 3
    assert resonance_center(Lineshape(d, ys, make_params())) == pytest.approx(c0, abs=1e-12)
    level = 7.0
    roots = np.roots([0.05, 1.0, 0.0, 3.0 - level])
    exact = np.sort(roots.real[np.abs(roots.real) < 4.0]) + c0
    crossings = lineshape_mod._cubic_crossings(d, ys, int(np.argmin(ys)), level)
    assert crossings == pytest.approx(tuple(exact), rel=1e-12)


def test_center_and_window_crossings_converge_at_third_order():
    # dip 2 - (1 + a t)/(1 + t^2), half width ~1: closed-form center
    # (a t^2 + 2t - a = 0) and crossings of `level` ((2 - level) t^2 - a t
    # + 1 - level = 0).  Each error over h^3 stays bounded and does not
    # grow as h halves; an O(h^2) error over h^3 would double per halving.
    a, level = 0.5, 1.5
    center = (math.sqrt(1.0 + a * a) - 1.0) / a
    crossings = ((1.0 - math.sqrt(5.0)) / 2.0, (1.0 + math.sqrt(5.0)) / 2.0)
    for shift in (0.0, 0.013, 0.3):  # moves the dip within its sample interval
        scaled = []
        for m in range(6):
            n = 80 * 2**m
            h = 20.0 / n
            d = np.linspace(-10.0, 10.0, n + 1) + shift
            ys = 2.0 - (1.0 + a * d) / (1.0 + d * d)
            lo, hi = lineshape_mod._cubic_crossings(d, ys, int(np.argmin(ys)), level)
            err = max(abs(resonance_center(Lineshape(d, ys, make_params())) - center),
                      abs(lo - crossings[0]), abs(hi - crossings[1]))
            scaled.append(err / h**3)
        assert max(scaled) < 1.0
        assert max(scaled[3:]) <= max(scaled[:3])


def test_noisy_dips_give_finite_metrics_or_typed_errors(rng):
    # on noisy or unresolved dips the local cubic can overshoot the
    # sampled minimum; center and asymmetry stay finite or raise typed errors
    for _ in range(200):
        d = np.unique(rng.uniform(-50.0, 50.0, int(rng.integers(20, 2000))))
        w, c0 = rng.uniform(0.5, 10.0), rng.uniform(-5.0, 5.0)
        y = 2.0 - rng.uniform(0.01, 1.0) * w**2 / ((d - c0) ** 2 + w**2)
        y = np.abs(y + rng.normal(0.0, 10 ** rng.uniform(-6, -0.5), d.size))
        shape = Lineshape(d, y, make_params())
        assert d[0] <= resonance_center(shape) <= d[-1]
        try:
            assert math.isfinite(asymmetry(shape))
        except (NoResonance, Unbracketed):
            pass
