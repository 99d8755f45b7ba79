"""Sweep machinery and figure-of-merit extraction."""

import math

import numpy as np
import pytest

import cptsim.lineshape as lineshape_mod
from cptsim import (Depolarization, InvariantViolation, Lineshape,
                    NoResonance, NotBracketed, ParameterError,
                    RationalLineshape, ResonanceMetrics, Spacing, SweepSpec,
                    Unbracketed, asymmetry,
                    calibrate_power_broadening, default_sweep_spec, fwhm,
                    physical_contrast, qfactor, rabi_for_pumping_strength,
                    resonance_center, resonance_metrics, sweep)
from cptsim.lineshape import calibration_fwhm, halfwidth_estimate

from conftest import make_params, random_params
from oracles import solve_full_system

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


@pytest.mark.parametrize("spacing", list(Spacing))
def test_sweep_makes_one_factorization_and_one_checked_call(monkeypatch, spacing):
    built, batches = [], []
    real_init, real_call = RationalLineshape.__init__, RationalLineshape.__call__

    def counting_init(self, params):
        built.append(params)
        real_init(self, params)

    def counting_call(self, deltas):
        batches.append(np.asarray(deltas, dtype=float).ravel())
        return real_call(self, deltas)

    monkeypatch.setattr(RationalLineshape, "__init__", counting_init)
    monkeypatch.setattr(RationalLineshape, "__call__", counting_call)
    p = params_at_strength(8.9, mode=Depolarization.NONE)
    shape = sweep(p, default_sweep_spec(p, spacing=spacing))
    assert len(built) == 1 and len(batches) == 1
    np.testing.assert_array_equal(batches[0], shape.deltas)
    if spacing is Spacing.LINEAR:
        assert shape.deltas.size == 1001
    else:
        assert shape.deltas.size > 1001  # the dip was refined


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
    p = params_at_strength(8.9)
    model = RationalLineshape(p)
    model.check_limit()
    y0 = model.y0
    model.y0 = y0 * (1.0 + 1e-9)
    with pytest.raises(InvariantViolation) as err:
        model.check_limit()
    assert (err.value.invariant, err.value.delta_raman) == ("trace", math.inf)
    model.y0 = y0.copy()
    model.y0[4] += model.y0[0] + 1e-11
    model.y0[0] = -1e-11
    with pytest.raises(InvariantViolation) as err:
        model.check_limit()
    assert (err.value.invariant, err.value.delta_raman) == ("positivity", math.inf)
    model.y0 = y0.copy()
    model.y0[3] = np.nan  # a NaN value breaks its check
    with pytest.raises(InvariantViolation) as err:
        model.check_limit()
    assert (err.value.invariant, err.value.delta_raman) == ("trace", math.inf)
    assert math.isnan(err.value.value)

    class OffTrace(RationalLineshape):
        def __call__(self, deltas):
            values = super().__call__(deltas)
            # the delta -> inf state leaves the trace after the finite checks
            self.y0 = self.y0 * (1.0 + 1e-8)
            return values

    monkeypatch.setattr(lineshape_mod, "RationalLineshape", OffTrace)
    for call in (physical_contrast, resonance_metrics):
        with pytest.raises(InvariantViolation) as err:
            call(p)
        assert err.value.invariant == "trace"
        assert err.value.delta_raman == math.inf
        assert err.value.value == pytest.approx(1e-8, rel=1e-3)


def test_contrast_and_metrics_make_one_checked_solve(monkeypatch):
    batches = []
    real = RationalLineshape.__call__

    def counting(self, deltas):
        batches.append(np.asarray(deltas, dtype=float).ravel())
        return real(self, deltas)

    monkeypatch.setattr(RationalLineshape, "__call__", counting)
    p = params_at_strength(8.9, mode=Depolarization.NONE)
    physical_contrast(p)
    assert len(batches) == 1 and list(batches[0]) == [0.0]
    batches.clear()
    resonance_metrics(p)
    assert len(batches) == 1 and 0.0 in batches[0]


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_model_calls_make_one_factorization_and_one_checked_call(monkeypatch, mode):
    # the work of each library call: one factorization and one checked
    # call of a fixed number of detunings (metrics: 5 dip points, delta = 0
    # and 402 mirrored offsets; contrast: delta = 0; calibration width:
    # the 5 dip points)
    built, sizes = [], []
    real_init, real_call = RationalLineshape.__init__, RationalLineshape.__call__

    def counting_init(self, params):
        built.append(params)
        real_init(self, params)

    def counting_call(self, deltas):
        sizes.append(np.asarray(deltas).size)
        return real_call(self, deltas)

    monkeypatch.setattr(RationalLineshape, "__init__", counting_init)
    monkeypatch.setattr(RationalLineshape, "__call__", counting_call)
    p = params_at_strength(8.9, mode=mode)
    for call, size in [(resonance_metrics, 408), (physical_contrast, 1),
                       (calibration_fwhm, 5)]:
        built.clear()
        sizes.clear()
        call(p)
        assert (built, sizes) == ([p], [size])


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


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_closed_form_metrics_check_the_solves(mode):
    # fig-1 geometry at gamma_g = 1 Hz, s = 3e6: the checked solves reject
    # the stiff solution, so the closed form is not taken on trust
    base = make_params(gamma_g=1.0, mode=mode)
    p = base.replace(rabi=rabi_for_pumping_strength(base, 3e6))
    with pytest.raises(InvariantViolation):
        resonance_metrics(p)
    with pytest.raises(InvariantViolation):
        calibration_fwhm(p)


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
    with pytest.raises(ParameterError, match="broadening multiple"):
        calibrate_power_broadening(base, math.nan)


def test_calibration_returns_an_evaluated_width(monkeypatch):
    seen = []
    real = lineshape_mod.calibration_fwhm

    def recording(params):
        seen.append((params.rabi, real(params)))
        return seen[-1][1]

    monkeypatch.setattr(lineshape_mod, "calibration_fwhm", recording)
    base = make_params(mode=Depolarization.NONE)
    v, w0, w = lineshape_mod._calibrate(base, 3.0)
    assert seen[0] == (rabi_for_pumping_strength(base, 1e-3), w0)
    assert (v, w) in seen[1:]
    assert w == real(base.replace(rabi=v))


def test_calibration_factorization_count(monkeypatch):
    # Brent's method on ln V: about 10 checked factorizations per
    # calibration, probe and bracket widths included; a bisection of the
    # bracket to the same tolerance takes 27
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


# ---------------------------------------------------------------- qfactor

def test_qfactor_arithmetic():
    m = ResonanceMetrics(baseline=1.0, amplitude=0.05, physical_contrast=0.05,
                         fwhm_hz=1000.0, center_hz=0.0, asymmetry=0.0,
                         qfactor=0.0)
    assert qfactor(m) == pytest.approx(5e-5)
    z = ResonanceMetrics(baseline=1.0, amplitude=0.0, physical_contrast=0.0,
                         fwhm_hz=1000.0, center_hz=0.0, asymmetry=0.0,
                         qfactor=0.0)
    assert qfactor(z) == 0.0
    d = ResonanceMetrics(baseline=1.0, amplitude=0.1, physical_contrast=0.1,
                         fwhm_hz=1000.0, center_hz=0.0, asymmetry=0.0,
                         qfactor=0.0)
    assert qfactor(d) == pytest.approx(2 * qfactor(m))
    bad = ResonanceMetrics(baseline=1.0, amplitude=0.1, physical_contrast=0.1,
                           fwhm_hz=0.0, center_hz=0.0, asymmetry=0.0,
                           qfactor=0.0)
    with pytest.raises(ParameterError):
        qfactor(bad)


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
