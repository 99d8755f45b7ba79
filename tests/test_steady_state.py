"""Solver checks against trivial limits and the verbatim-equation oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cptsim.steady_state as steady_state_mod
from cptsim.steady_state import (EXCITED_NEG_TOL, POPULATION_TOL, RESIDUAL_TOL,
                                 TRACE_TOL)
from cptsim import (Depolarization, InvariantViolation, ParameterError,
                    RationalLineshape, SingularSystem,
                    assemble_linear_system, default_sweep_spec,
                    depolarize, excited_from_ground, fwhm,
                    hz_to_angular, lorentz_factors, pumping_strength,
                    rabi_for_pumping_strength, solve_steady_state, sweep)

from conftest import make_params, random_params
from oracles import (checked_call_verbatim, excited_verbatim,
                     factorization_verbatim, residual_verbatim,
                     solve_full_system)

# no shrink phase: shrinking a failure of these solver properties runs for
# tens of seconds to minutes while its memory grows; the failing draw as
# drawn reports in about a second
_NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


# ------------------------------------------------------------- parameters

def test_parameter_invariants_enforced():
    with pytest.raises(ParameterError):
        make_params(gamma_g=0.0)
    with pytest.raises(ParameterError):
        make_params(gamma_opt=-1.0)
    with pytest.raises(ParameterError):
        make_params(rabi=-5.0)
    with pytest.raises(ParameterError):
        make_params(omega_e=0.0)


def test_validity_flags_reported_not_enforced():
    good = make_params(rabi=hz_to_angular(1e6))
    assert good.validity_flags() == {"narrow_excited_state": True,
                                     "low_saturation": True}
    # a saturating field is accepted but flagged
    hot = make_params(rabi=hz_to_angular(5e8))
    assert hot.validity_flags()["low_saturation"] is False
    solve_steady_state(hot)  # still solvable


# ----------------------------------------------------------- zero pumping

def test_dark_cell_limit():
    # no light: uniform populations, no coherence, empty excited state
    sol = solve_steady_state(make_params(rabi=0.0))
    assert np.allclose(sol.ground, 0.125, atol=1e-14)
    assert sol.coherence == 0
    assert np.all(sol.excited_bare == 0)
    assert sol.rho_ee == 0


def test_zero_rabi_matrix_is_block_diagonal():
    A, b = assemble_linear_system(make_params(rabi=0.0))
    gg = make_params().gamma_g
    assert np.allclose(A[:8, :8], np.eye(8) * gg)
    assert np.all(A[:8, 8:] == 0)
    assert np.all(A[8:, :8] == 0)
    assert np.allclose(b[:8], gg / 8)


# ------------------------------------------------------ row-sum identity

@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_population_row_sum_identity(mode, rng):
    # summing the population rows must cancel every pump and feed term,
    # leaving gamma_g * sum(rho) = gamma_g
    for _ in range(25):
        p = random_params(rng, mode=mode)
        A, b = assemble_linear_system(p)
        row_sum = A[:8, :].sum(axis=0)
        expect = np.zeros(10)
        expect[:8] = p.gamma_g
        assert np.allclose(row_sum, expect, rtol=0, atol=1e-9 * p.gamma_g)
        assert b[:8].sum() == pytest.approx(p.gamma_g)


def test_complete_mode_feed_is_uniform(rng):
    # with depolarization every ground row receives the same feed terms:
    # within each ground column the off-diagonal entries are pure feed
    # and must coincide, and the diagonal adds gamma_g plus the pump-out
    pump_u = {0: 1 / 3, 1: 1 / 2, 2: 1 / 2, 3: 1 / 3, 4: 0.0,
              5: 1 / 6, 6: 1 / 2, 7: 1.0}
    pump_d = {0: 1.0, 1: 1 / 2, 2: 1 / 6, 3: 0.0, 4: 0.0,
              5: 1 / 6, 6: 1 / 6, 7: 0.0}
    for _ in range(5):
        p = random_params(rng, mode=Depolarization.COMPLETE)
        A, _ = assemble_linear_system(p)
        lu = p.gamma_opt / (p.delta_opt**2 + p.gamma_opt**2)
        ld = p.gamma_opt / ((p.delta_opt + p.omega_e) ** 2 + p.gamma_opt**2)
        for j in range(8):
            col = A[:8, j]
            off = np.delete(col, j)
            assert np.allclose(off, off[0], rtol=1e-12, atol=1e-300)
            pump_out = p.rabi**2 * (pump_u[j] * lu + pump_d[j] * ld)
            assert col[j] == pytest.approx(p.gamma_g + pump_out + off[0],
                                           rel=1e-12)


# ------------------------------------------------ excitation projections

def test_excited_from_ground_zero_is_zero():
    p = make_params(rabi=1e6)
    out = excited_from_ground(np.zeros(8), 0j, p)
    assert np.all(out == 0)


def test_excited_from_ground_dark_state_bracket_vanishes():
    p = make_params(rabi=1e6)
    ground = np.zeros(8)
    x = 0.3
    ground[2] = x   # (2, 0)
    ground[6] = x   # (1, 0)
    out = excited_from_ground(ground, complex(x, 0.0), p)
    # perfect dark state: both m=+1 sublevels stay empty
    assert out[3] == pytest.approx(0.0, abs=1e-30)
    assert out[7] == pytest.approx(0.0, abs=1e-30)


def test_excited_from_ground_matches_verbatim_formulas():
    p = make_params(rabi=hz_to_angular(0.5e6))
    ground = np.full(8, 0.125)
    got = excited_from_ground(ground, 0j, p)
    want = excited_verbatim(p, ground, 0.0)
    assert got[0] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_depolarize_is_mean_preserving(rng):
    x = rng.random(8)
    out = depolarize(x)
    assert np.all(out == out[0])
    assert out.sum() == pytest.approx(x.sum(), rel=1e-15)
    assert np.all(depolarize(np.zeros(8)) == 0)
    one_hot = np.zeros(8)
    one_hot[3] = 8 * 0.7
    assert np.allclose(depolarize(one_hot), 0.7)


# -------------------------------------------------------- solution checks

@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_solution_against_verbatim_residual_oracle(mode, rng):
    for _ in range(100):
        p = random_params(rng, mode=mode)
        sol = solve_steady_state(p)
        res = residual_verbatim(p, sol.ground, sol.coherence)
        assert np.abs(res).max() < 1e-10 * max(1.0, p.gamma_g)
        assert sol.ground.sum() == pytest.approx(1.0, abs=1e-10)
        assert sol.ground.min() > -1e-12


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_solution_matches_full_unreduced_system(mode, rng):
    # the oracle keeps the excited populations as unknowns (bare values,
    # with the depolarized mean entering only the feed terms)
    for _ in range(25):
        p = random_params(rng, mode=mode)
        sol = solve_steady_state(p)
        ground18, excited18, coh18 = solve_full_system(p)
        np.testing.assert_allclose(sol.ground, ground18, rtol=0, atol=1e-12)
        scale = max(excited18.max(), 1e-300)
        np.testing.assert_allclose(sol.excited_bare, excited18,
                                   rtol=0, atol=1e-10 * scale)
        assert sol.coherence == pytest.approx(coh18, abs=1e-13)


def test_residual_norm_is_reported_and_small(rng):
    # residual_norm is max|A(delta) x - b| of the full system at the
    # solution: the checked call's residual, and, evaluated here in
    # another order, the same to within eps * (|A|_inf |x|_inf + |b|_inf)
    # (measured <= 0.05 of it over 2000 draws); the verbatim equations
    # hold at the solution
    eps = np.finfo(float).eps
    for _ in range(20):
        p = random_params(rng)
        sol = solve_steady_state(p)
        checked = RationalLineshape(p)._solve(np.array([p.delta_raman]))[1]
        assert sol.residual_norm == checked.max()
        A, b = assemble_linear_system(p)
        x = np.array([*sol.ground, sol.coherence.real, sol.coherence.imag])
        own = np.abs(A @ x - b).max()
        unit = eps * (np.abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
        assert abs(sol.residual_norm - own) <= unit
        assert 0 <= sol.residual_norm < 1e-10 * max(1.0, p.gamma_g)
        verbatim = np.abs(residual_verbatim(p, sol.ground, sol.coherence)).max()
        assert verbatim < 1e-10 * max(1.0, p.gamma_g)


def test_depolarization_preserves_total_excited(rng):
    for _ in range(10):
        p = random_params(rng, mode=Depolarization.COMPLETE)
        sol = solve_steady_state(p)
        assert sol.excited_effective.sum() == pytest.approx(
            sol.excited_bare.sum(), rel=1e-14)
        assert sol.rho_ee == pytest.approx(sol.excited_bare.sum(), rel=1e-15)
        assert np.all(sol.excited_effective == sol.excited_effective[0])


def test_stretched_excited_sublevel_identically_zero(rng):
    for _ in range(10):
        p = random_params(rng, mode=Depolarization.NONE)
        sol = solve_steady_state(p)
        assert sol.excited_bare[0] == 0.0
        assert sol.excited_bare.min() >= -1e-15


def test_coherence_magnitude_bounded_by_working_populations(rng):
    # positivity of the 2x2 m=0 sub-block
    for _ in range(20):
        p = random_params(rng)
        sol = solve_steady_state(p)
        cap = 0.5 * (sol.ground_population(2, 0) + sol.ground_population(1, 0))
        assert abs(sol.coherence) <= cap * (1 + 1e-9)


# ------------------------------------------------------------ fig-1 facts

def test_fig1_population_redistribution():
    base = make_params()
    rabi = rabi_for_pumping_strength(base, 8.893400101282424)  # 3x broadening
    none = solve_steady_state(base.replace(rabi=rabi))
    comp = solve_steady_state(
        base.replace(rabi=rabi, depolarization=Depolarization.COMPLETE))

    # sigma+ pumping piles population into the non-absorbing (2,+2) sublevel
    assert max(none.ground_as_dict(), key=none.ground_as_dict().get) == (2, 2)
    # depolarization drains it toward the working m=0 pair
    assert comp.ground_population(2, 2) < none.ground_population(2, 2)
    assert comp.ground_population(2, 0) > none.ground_population(2, 0)
    assert comp.ground_population(1, 0) > none.ground_population(1, 0)
    # and (1,+1) ends below (1,-1): stronger pump-out, equal refill
    assert comp.ground_population(1, 1) < comp.ground_population(1, -1)


# --------------------------------------------------------------- scalings

def test_gamma_nat_only_scales_excited(rng):
    p = random_params(rng)
    sol1 = solve_steady_state(p)
    sol2 = solve_steady_state(p.replace(gamma_nat=3.7 * p.gamma_nat))
    np.testing.assert_allclose(sol2.ground, sol1.ground, rtol=1e-12)
    np.testing.assert_allclose(3.7 * sol2.excited_bare, sol1.excited_bare,
                               rtol=1e-12)


def test_rate_scaling_invariance(rng):
    # scaling gamma_g, delta, and V^2 together leaves populations alone
    for _ in range(10):
        p = random_params(rng)
        scale = 10 ** rng.uniform(-2, 2)
        q = p.replace(gamma_g=scale * p.gamma_g,
                      delta_raman=scale * p.delta_raman,
                      rabi=np.sqrt(scale) * p.rabi)
        a = solve_steady_state(p)
        b = solve_steady_state(q)
        np.testing.assert_allclose(a.ground, b.ground, rtol=1e-9)
        assert a.coherence == pytest.approx(b.coherence, rel=1e-9, abs=1e-15)


def test_dark_state_bracket_shrinks_with_relaxation():
    # complete mode, delta = 0: the m=0 pump bracket heads to zero as the
    # ground relaxation is reduced at fixed optical power
    base = make_params(mode=Depolarization.COMPLETE)
    rabi = rabi_for_pumping_strength(base, 10.0)
    brackets = []
    for decade in range(4):
        p = base.replace(rabi=rabi, gamma_g=base.gamma_g / 10**decade)
        sol = solve_steady_state(p)
        brackets.append(sol.ground_population(2, 0) + sol.ground_population(1, 0)
                        - 2 * sol.coherence.real)
    assert all(b > 0 for b in brackets)
    assert all(b2 < b1 for b1, b2 in zip(brackets, brackets[1:]))


def test_batched_rho_ee_matches_scalar_solves(rng):
    p = random_params(rng)
    deltas = np.linspace(-5 * p.gamma_g, 5 * p.gamma_g, 7)
    batched = RationalLineshape(p)(deltas)
    scalar = [solve_steady_state(p.replace(delta_raman=d)).rho_ee for d in deltas]
    np.testing.assert_allclose(batched, scalar, rtol=1e-12)


def _rho_ee_per_point(p, delta):
    """rho_ee from one dense 10x10 LU solve of the full system at delta."""
    q = p.replace(delta_raman=float(delta))
    x = np.linalg.solve(*assemble_linear_system(q))
    return excited_from_ground(x[:8], complex(x[8], x[9]), q).sum()


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
@pytest.mark.parametrize("strength", [0.01, 8.9, 1e3])
def test_batched_rho_ee_matches_per_point_lu(mode, strength):
    # the Schur-complement batch against a full LU solve per detuning:
    # the dip center, +/- FWHM, and far detunings K * W with K from 1e3
    # to 1e9, where rho_ee approaches its delta -> inf limit c0
    base = make_params(mode=mode)
    p = base.replace(rabi=rabi_for_pumping_strength(base, strength))
    width = 2 * np.pi * fwhm(sweep(p, default_sweep_spec(p)))
    w = max(p.gamma_g, p.rabi**2 * lorentz_factors(p).lu)
    far = w * 1e3 * 2.0 ** np.arange(0, 21, 4)
    deltas = np.concatenate([[0.0, -width, width], -far, far])
    batched = RationalLineshape(p)(deltas)
    single = np.array([_rho_ee_per_point(p, d) for d in deltas])
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_batched_rho_ee_matches_full_unreduced_system(mode, rng):
    for _ in range(10):
        p = random_params(rng, mode=mode)
        deltas = p.delta_raman * np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        batched = RationalLineshape(p)(deltas)
        oracle = [solve_full_system(p.replace(delta_raman=d))[1].sum() for d in deltas]
        np.testing.assert_allclose(batched, oracle, rtol=1e-10, atol=0)


@settings(deadline=None, max_examples=40, phases=_NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from([Depolarization.NONE, Depolarization.COMPLETE]))
def test_rational_lineshape_matches_batched_and_unreduced_solves(seed, mode):
    # c0 + (p1*d + p0)/(d^2 + q1*d + q0) is exact: it equals the checked
    # per-detuning solves and the un-reduced 18-unknown oracle
    p = random_params(np.random.default_rng(seed), mode=mode)
    model = RationalLineshape(p)
    hw = p.gamma_g + model.q0**0.5  # of the order of the dip's half width
    deltas = np.concatenate([p.delta_raman * np.array([-3.0, -1.0, 0.5, 2.0]),
                             hw * np.array([-20.0, -1.0, 0.0, 0.3, 1.0, 20.0])])
    closed = model.c0 + model.excess(deltas)
    np.testing.assert_allclose(closed, RationalLineshape(p)(deltas), rtol=1e-12, atol=0)
    oracle = [solve_full_system(p.replace(delta_raman=d))[1].sum() for d in deltas]
    np.testing.assert_allclose(closed, oracle, rtol=1e-10, atol=0)


def test_batched_rho_ee_non_finite_sample_is_singular():
    p = make_params(rabi=hz_to_angular(1e5))
    with pytest.raises(SingularSystem, match="nan"):
        RationalLineshape(p)(np.array([0.0, np.nan]))


def test_batched_rho_ee_singular_population_block(monkeypatch):
    monkeypatch.setattr(steady_state_mod, "assemble_linear_system",
                        lambda params: (np.zeros((10, 10)), np.ones(10)))
    with pytest.raises(SingularSystem, match="population block"):
        RationalLineshape(make_params())(np.array([0.0]))


def test_batched_rho_ee_names_the_broken_invariant():
    # fig-1 geometry at gamma_g = 1 Hz, s = 3e6: the trace check rejects
    # the stiff solution (absolute tolerance), and the error says so
    base = make_params(gamma_g=1.0)
    p = base.replace(rabi=rabi_for_pumping_strength(base, 3e6))
    deltas = np.array([1e3, 0.0, -1e3])
    with pytest.raises(InvariantViolation) as info:
        RationalLineshape(p)(deltas)
    exc = info.value
    assert exc.invariant in ("residual", "trace", "positivity")
    assert exc.value > exc.bound
    assert exc.delta_raman in deltas
    for text in (exc.invariant, f"{exc.value:.3e}", f"{exc.bound:.3e}",
                 repr(exc.delta_raman)):
        assert text in str(exc)


def _checked_reference(model, deltas, solve=None):
    """The three checks of a checked call, one detuning at a time on the
    samples ``_solve`` (or ``solve``) gives, one column per detuning: the
    first check, in order, that some sample breaks, as (invariant, value,
    bound, delta) at the first detuning that breaks it; else the rho_ee
    of every sample."""
    x, resid = (solve or model._solve)(deltas)
    checks = [("residual", lambda i: resid[:, i].max(),
               RESIDUAL_TOL * max(1.0, model.params.gamma_g)),
              ("trace", lambda i: abs(x[:8, i].sum() - 1.0), TRACE_TOL),
              ("positivity", lambda i: -x[:8, i].min(), POPULATION_TOL)]
    for name, value_at, bound in checks:
        for i, delta in enumerate(deltas):
            if not value_at(i) <= bound:
                return name, float(value_at(i)), bound, float(delta)
    return model.c0 + (model.g0 * x[8] + model.g1 * x[9])


def _solve_reference(model, delta):
    """solve_steady_state at ``delta`` check by check on the sample
    ``_solve`` gives there: the checked call's verdict, then population
    and excited, as (invariant, value, bound, delta); else the ground
    populations and the coherence."""
    deltas = np.array([delta])
    expected = _checked_reference(model, deltas)
    if isinstance(expected, tuple):
        return expected
    x = model._solve(deltas)[0][:, 0]
    ground, coherence = x[:8], complex(x[8], x[9])
    excited = excited_from_ground(ground, coherence, model.params)
    for name, value, bound in [("population", ground.max() - 1.0, (1.0 + POPULATION_TOL) - 1.0),
                               ("excited", -excited.min(), EXCITED_NEG_TOL)]:
        if not value <= bound:
            return name, float(value), bound, delta
    return ground, coherence


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


@settings(deadline=None, max_examples=150, phases=_NO_SHRINK)
@given(gamma_opt=_log_uniform(1e7, 1e10), gamma_nat=_log_uniform(1e5, 3e7),
       gamma_g=_log_uniform(0.1, 1e4), omega_e=_log_uniform(1e7, 3e9),
       delta_opt=st.floats(-2e9, 2e9), strength=_log_uniform(1e-4, 1e7),
       mode=st.sampled_from([Depolarization.NONE, Depolarization.COMPLETE]),
       offsets=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
def test_checked_call_matches_a_per_point_reference(gamma_opt, gamma_nat, gamma_g,
                                                     omega_e, delta_opt, strength,
                                                     mode, offsets):
    # over the fuzz range, stiff points included: the call accepts exactly
    # when the per-point checks do, with the same doubles, and rejects
    # with the same invariant, value, bound and detuning; so does
    # solve_steady_state at the first detuning, with its two extra checks
    base = make_params(mode=mode, gamma_opt=gamma_opt, gamma_nat=gamma_nat,
                       gamma_g=gamma_g, omega_e=omega_e, delta_opt=delta_opt)
    model = RationalLineshape(base.replace(rabi=rabi_for_pumping_strength(base, strength)))
    hw = model.params.gamma_g + model.q0**0.5  # of the order of the dip's half width
    deltas = hw * np.array([0.0, *offsets])
    expected = _checked_reference(model, deltas)
    # in one block (every draw fits in one), and in blocks of 4 across
    # block boundaries, with the same verdict, check fields and doubles
    for block_size in (steady_state_mod.BLOCK_SIZE, 4):
        with mock.patch.object(steady_state_mod, "BLOCK_SIZE", block_size):
            if isinstance(expected, tuple):
                with pytest.raises(InvariantViolation) as info:
                    model(deltas)
                exc = info.value
                assert (exc.invariant, exc.value, exc.bound, exc.delta_raman) == expected
            else:
                np.testing.assert_array_equal(model(deltas), expected)

    expected = _solve_reference(model, float(deltas[0]))
    if isinstance(expected[0], str):
        with pytest.raises(InvariantViolation) as info:
            solve_steady_state(model.params.replace(delta_raman=deltas[0]))
        exc = info.value
        assert (exc.invariant, exc.value, exc.bound, exc.delta_raman) == expected
    else:
        sol = solve_steady_state(model.params.replace(delta_raman=deltas[0]))
        np.testing.assert_array_equal(sol.ground, expected[0])
        assert sol.coherence == expected[1]


def test_checked_call_names_the_first_check_at_its_first_detuning():
    # five samples, each break less than twice its bound: positivity at
    # delta 1, trace at 2, residual and positivity at 3, residual and
    # trace at 4
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    res_tol = RESIDUAL_TOL * max(1.0, model.params.gamma_g)
    deltas = np.array([0.0, 1.0, 2.0, 3.0, 4.0])

    def batch(residual=True, trace=True, positivity=True):
        x = np.zeros((10, 5))
        x[:8] = 0.125
        resid = np.zeros((10, 5))
        if residual:
            resid[[2, 7], 3] = [1.2 * res_tol, 1.5 * res_tol]
            resid[0, 4] = 1.8 * res_tol
        if trace:
            x[:8, 2] *= 1.0 + 1.5e-10
            x[:8, 4] *= 1.0 + 1.8e-10
        # off by -1.5e-13 within bounds, else by the positivity breaks
        neg = (1.5e-12, 1.8e-12) if positivity else (1.5e-13, 1.5e-13)
        x[:2, 1] = [-neg[0], 0.25 + neg[0]]
        x[:2, 3] = [-neg[1], 0.25 + neg[1]]
        model._solve = lambda d: (x, resid)
        return resid

    def expect(invariant, value, bound, delta):
        with pytest.raises(InvariantViolation) as info:
            model(deltas)
        exc = info.value
        assert (exc.invariant, exc.bound, exc.delta_raman) == (invariant, bound, delta)
        assert exc.value == pytest.approx(value, rel=1e-3, nan_ok=True)
        np.testing.assert_equal(_checked_reference(model, deltas),
                                (invariant, exc.value, bound, delta))

    batch()
    expect("residual", 1.5 * res_tol, res_tol, 3.0)
    batch(trace=False, positivity=False)
    expect("residual", 1.5 * res_tol, res_tol, 3.0)
    batch(residual=False)
    expect("trace", 1.5e-10, TRACE_TOL, 2.0)
    batch(residual=False, positivity=False)
    expect("trace", 1.5e-10, TRACE_TOL, 2.0)
    batch(residual=False, trace=False)
    expect("positivity", 1.5e-12, POPULATION_TOL, 1.0)
    # a NaN value breaks its check: residual at the first detuning with a NaN
    resid = batch(residual=False, trace=False, positivity=False)
    resid[[5, 0], [1, 4]] = np.nan
    expect("residual", np.nan, res_tol, 1.0)
    batch(residual=False, trace=False, positivity=False)
    assert np.array_equal(model(deltas), _checked_reference(model, deltas))


def _break_samples(model, **breaks):
    """Replace ``model._solve`` by the real solve with the given samples
    broken: ``breaks`` maps "residual" and "trace" to {delta: units of
    the bound}, set on the residual's row or the populations' scale."""
    solve, res_tol = model._solve, RESIDUAL_TOL * max(1.0, model.params.gamma_g)

    def broken_solve(deltas):
        x, resid = solve(deltas)
        for delta, units in breaks.get("residual", {}).items():
            resid[4, deltas == delta] = units * res_tol
        for delta, units in breaks.get("trace", {}).items():
            x[:8, deltas == delta] *= 1.0 + units * TRACE_TOL
        return x, resid

    model._solve = broken_solve
    return res_tol


def test_blocked_call_raises_the_earliest_ordered_check(monkeypatch):
    # blocks of 3: trace breaks in block 1 (delta 2), the residual only in
    # block 3 (deltas 7 and 8); the residual wins, at its first detuning
    monkeypatch.setattr(steady_state_mod, "BLOCK_SIZE", 3)
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    res_tol = _break_samples(model, trace={2.0: 1.5, 4.0: 1.8},
                             residual={7.0: 1.5, 8.0: 1.8})
    deltas = np.arange(9.0)
    expected = ("residual", 1.5 * res_tol, res_tol, 7.0)
    with pytest.raises(InvariantViolation) as info:
        model(deltas)
    exc = info.value
    assert (exc.invariant, exc.value, exc.bound, exc.delta_raman) == expected
    assert _checked_reference(model, deltas) == expected
    with pytest.raises(InvariantViolation) as whole:
        model._checked(deltas)
    assert str(exc) == str(whole.value)


def test_blocked_call_non_finite_sample_after_a_broken_block_is_singular(monkeypatch):
    # the residual breaks in block 1; a NaN detuning in block 2 still
    # makes the call a SingularSystem, named at that detuning
    monkeypatch.setattr(steady_state_mod, "BLOCK_SIZE", 3)
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    _break_samples(model, residual={1.0: 1.5})
    deltas = np.array([0.0, 1.0, 2.0, 3.0, np.nan, 5.0, 6.0])
    with pytest.raises(SingularSystem, match=r"delta_raman=nan rad/s"):
        model(deltas)
    with pytest.raises(InvariantViolation, match="residual"):
        model(deltas[:3])


def test_blocked_call_solves_each_detuning_once_in_order(monkeypatch):
    # blocks of 4 cover the input in order; a last block of one row joins
    # the block before, and an empty call is one empty block
    monkeypatch.setattr(steady_state_mod, "BLOCK_SIZE", 4)
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    solve, blocks = model._solve, []

    def recording_solve(deltas):
        blocks.append(deltas.tolist())
        return solve(deltas)

    model._solve = recording_solve
    for n, sizes in [(0, [0]), (1, [1]), (4, [4]), (5, [5]), (8, [4, 4]),
                     (9, [4, 5]), (10, [4, 4, 2])]:
        blocks.clear()
        deltas = np.arange(float(n))
        assert model(deltas).size == n
        assert [len(block) for block in blocks] == sizes
        assert sum(blocks, []) == deltas.tolist()


def test_checked_rho_ee_does_not_depend_on_the_call_it_is_in(rng):
    # a detuning's rho_ee has the same bits alone as in a whole call
    for _ in range(20):
        p = random_params(rng)
        model = RationalLineshape(p)
        deltas = (p.gamma_g + model.q0**0.5) * np.linspace(-6.0, 6.0, 13)
        whole = model(deltas)
        for i in range(deltas.size):
            assert model(deltas[i:i + 1])[0] == whole[i]


def _row_major_solve(model, deltas):
    """``_solve``'s samples in the row-major layout it replaced, one row
    of 10 per detuning, each formed as that layout formed it."""
    (s00, s01), (s10, s11) = model.S.tolist()
    r0, r1 = model.r.tolist()
    a = s00 + deltas
    d = s11 + deltas
    xs = np.empty((deltas.size, 10))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = a * d - s01 * s10
        xs[:, 8] = (d * r0 - s01 * r1) / det
        xs[:, 9] = (a * r1 - s10 * r0) / det
        xs[:, :8] = model.y0 - xs[:, 8:] @ model.Z.T
    return xs


def _row_major_residual(model, deltas, xs):
    """|A(delta) x - b| of the row-major samples ``xs`` as that layout
    formed it, and the sum of the magnitudes of the terms of each row."""
    resid = xs @ model._A0.T
    resid -= model._b
    resid[:, 8:] += deltas[:, None] * xs[:, 8:]
    terms = np.abs(xs) @ np.abs(model._A0).T + np.abs(model._b)
    terms[:, 8:] += np.abs(deltas[:, None] * xs[:, 8:])
    return np.abs(resid), terms


def _population_terms(model, xs):
    """Sum of the magnitudes of the terms of each population y0 - Z.x[8:]."""
    return np.abs(model.y0) + np.abs(xs[:, 8:]) @ np.abs(model.Z).T


_EPS = np.finfo(float).eps


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_column_layout_solve_matches_the_row_major_layout(mode, rng):
    # from one detuning to more than a block: the coherences (elementwise),
    # each trace given its populations (numpy's pairwise sum of 8 values)
    # and each rho_ee are the row-major layout's doubles, bit for bit; the
    # populations and residual come from matrix products whose rounding is
    # the BLAS kernel's, so they are held within the rounding bound of
    # their sums, a few ulps of the summed terms
    for _ in range(25):
        p = random_params(rng, mode=mode)
        model = RationalLineshape(p)
        hw = p.gamma_g + model.q0**0.5  # of the order of the dip's half width
        for n in (1, 5, 408, steady_state_mod.BLOCK_SIZE + 1):
            deltas = hw * rng.uniform(-1e3, 1e3, n)
            x, resid = model._solve(deltas)
            xs = _row_major_solve(model, deltas)
            np.testing.assert_array_equal(_bits(x[8:].T), _bits(xs[:, 8:]))
            pops = np.ascontiguousarray(x[:8].T)
            trace = model._checks(x, resid)[1][1]
            np.testing.assert_array_equal(_bits(trace),
                                          _bits(np.abs(pops.sum(axis=1) - 1.0)))
            rho_ref = model.c0 + (model.g0 * xs[:, 8] + model.g1 * xs[:, 9])
            np.testing.assert_array_equal(_bits(model(deltas)), _bits(rho_ref))
            assert np.all(np.abs(pops - xs[:, :8]) <= 4 * _EPS * _population_terms(model, xs))
            resid_ref, terms = _row_major_residual(model, deltas, np.ascontiguousarray(x.T))
            assert np.all(np.abs(resid.T - resid_ref) <= 16 * _EPS * terms)


def test_stiff_verdict_matches_the_row_major_reference():
    # fig 1 at gamma_g/2pi = 1 Hz, s = 3e6, where the checked call rejects
    # the stiff solution at its trace: the same invariant, bound and
    # detuning as the row-major layout gives, and the same value within
    # the rounding of the populations it sums
    base = make_params(gamma_g=1.0)
    model = RationalLineshape(base.replace(rabi=rabi_for_pumping_strength(base, 3e6)))
    deltas = np.array([1e3, 0.0, -1e3])
    xs = _row_major_solve(model, deltas)
    invariant, value, bound, delta = _checked_reference(
        model, deltas, lambda d: (xs.T, _row_major_residual(model, d, xs)[0].T))
    assert invariant == "trace"
    with pytest.raises(InvariantViolation) as info:
        model(deltas)
    exc = info.value
    assert (exc.invariant, exc.bound, exc.delta_raman) == (invariant, bound, delta)
    i = deltas.tolist().index(delta)
    terms = _population_terms(model, xs)[i].sum()
    assert abs(exc.value - value) <= 4 * _EPS * terms + 8 * _EPS


UNIFORM = np.full(8, 0.125)


BROKEN_SOLUTIONS = [
    # (invariant, x, residual in units of its bound, value)
    ("residual", [*UNIFORM, 0.0, 0.0], 1.5, None),
    ("trace", [*(UNIFORM * (1.0 + 1e-9)), 0.0, 0.0], 0.0, 1e-9),
    ("positivity", [-1e-9, 0.25 + 1e-9, *UNIFORM[2:], 0.0, 0.0], 0.0, 1e-9),
    # on trace and positive: only the upper population bound is broken
    ("population", [1.0 + 5e-11, *np.zeros(7), 0.0, 0.0], 0.0, 5e-11),
    # Re(rho21) = 1 drives the dark-state brackets of the m=+1 sublevels negative
    ("excited", [*UNIFORM, 1.0, 0.0], 0.0, None),
]


@pytest.mark.parametrize("invariant, x, residual, value", BROKEN_SOLUTIONS,
                         ids=[case[0] for case in BROKEN_SOLUTIONS])
def test_solve_names_each_broken_invariant(monkeypatch, invariant, x, residual, value):
    # every sample the checked call solves is x, with the given residual
    p = make_params(rabi=hz_to_angular(1e5), delta_raman=123.0)
    res_tol = RESIDUAL_TOL * max(1.0, p.gamma_g)
    monkeypatch.setattr(RationalLineshape, "_solve", lambda self, deltas: (
        np.array([x]).T, np.full((10, 1), residual * res_tol)))
    with pytest.raises(InvariantViolation) as info:
        solve_steady_state(p)
    exc = info.value
    assert exc.invariant == invariant
    assert exc.value > exc.bound
    assert exc.delta_raman == 123.0
    if value is not None:
        assert exc.value == pytest.approx(value, rel=1e-6)
    for text in (invariant, f"{exc.value:.3e}", f"{exc.bound:.3e}", "123.0"):
        assert text in str(exc)


def test_solve_screens_a_nan_population(monkeypatch):
    # past the checked call, a NaN ground population breaks the
    # population check, the first of solve_steady_state's own two
    p = make_params(rabi=hz_to_angular(1e5), delta_raman=123.0)
    x = np.array([[np.nan, *UNIFORM[1:], 0.0, 0.0]]).T
    monkeypatch.setattr(RationalLineshape, "_checked",
                        lambda self, deltas: (x, np.zeros((10, 1))))
    with pytest.raises(InvariantViolation) as info:
        solve_steady_state(p)
    exc = info.value
    assert (exc.invariant, exc.bound, exc.delta_raman) == (
        "population", (1.0 + POPULATION_TOL) - 1.0, 123.0)
    assert np.isnan(exc.value)


def test_solve_non_finite_solution_is_singular(monkeypatch):
    # coherence rows coupled only to each other, with det(S + delta*I)
    # = delta^2 - 123^2 and r = 0: the 2x2 solve is 0/0 at delta = 123
    A = np.eye(10)
    A[8, 9] = A[9, 8] = 123.0
    monkeypatch.setattr(steady_state_mod, "assemble_linear_system",
                        lambda params: (A.copy(), np.array([*UNIFORM, 0.0, 0.0])))
    with pytest.raises(SingularSystem, match=r"delta_raman=123\.0 rad/s"):
        solve_steady_state(make_params(rabi=hz_to_angular(1e5), delta_raman=123.0))


def test_pumping_strength_round_trip(rng):
    p = random_params(rng)
    s = pumping_strength(p)
    assert rabi_for_pumping_strength(p, s) == pytest.approx(p.rabi, rel=1e-14)


# ------------------------------------------- bit-for-bit factorization

def _bytes(value):
    return np.asarray(value, dtype=float).tobytes()


def _factorization_cases():
    """200 random_params draws per mode, each also at rabi = 0 (where
    signed zeros reach y0 and Z) and at delta_raman = 0."""
    rng = np.random.default_rng(20261019)
    for mode in (Depolarization.NONE, Depolarization.COMPLETE):
        for _ in range(200):
            p = random_params(rng, mode=mode)
            yield from (p, p.replace(rabi=0.0), p.replace(delta_raman=0.0))


def test_factorization_and_checked_call_match_the_verbatim_arithmetic():
    # bytes, so the sign of every zero counts: the matrix, the factorization
    # and its scalars, and the samples, residual, trace and rho_ee of a
    # checked call equal those of oracles.factorization_verbatim and
    # oracles.checked_call_verbatim
    checked = 0
    for p in _factorization_cases():
        f = factorization_verbatim(p)
        A, b = assemble_linear_system(p)
        A_ref, b_ref = f["A0"].copy(), f["b"]
        A_ref[8, 8] = A_ref[9, 9] = p.delta_raman
        assert (_bytes(A), _bytes(b)) == (_bytes(A_ref), _bytes(b_ref))
        model = RationalLineshape(p)
        for key in ("y0", "Z", "S", "r", "c0", "g0", "g1", "p0", "p1", "q0", "q1"):
            assert _bytes(getattr(model, key)) == _bytes(f[key]), key
        for deltas in (np.array([p.delta_raman]),
                       np.array([0.0, -0.0, p.delta_raman, 1e3, -1e3, 1e9])):
            x_ref, resid_ref, trace_ref, rho_ref = checked_call_verbatim(f, deltas)
            x, resid = model._solve(deltas)
            trace = model._checks(x, resid)[1][1]
            assert (_bytes(x), _bytes(resid)) == (_bytes(x_ref), _bytes(resid_ref))
            assert _bytes(trace) == _bytes(np.abs(trace_ref - 1.0))
            try:
                rho = model(deltas)
            except InvariantViolation:
                continue
            assert _bytes(rho) == _bytes(rho_ref)
            checked += 1
    assert checked >= 0.95 * 2 * 1200
