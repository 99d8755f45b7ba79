"""Solver checks against trivial limits and the verbatim-equation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cptsim.steady_state as steady_state_mod
from cptsim import (Depolarization, InvariantViolation, ParameterError,
                    RationalLineshape, SingularSystem,
                    assemble_linear_system, default_sweep_spec,
                    depolarize, equation_residuals, excited_from_ground, fwhm,
                    hz_to_angular, lorentz_factors, pumping_strength,
                    rabi_for_pumping_strength, rho_ee_many,
                    solve_steady_state, sweep)

from conftest import make_params, random_params
from oracles import excited_verbatim, residual_verbatim, solve_full_system



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
    p = random_params(rng)
    sol = solve_steady_state(p)
    assert 0 <= sol.residual_norm < 1e-10 * max(1.0, p.gamma_g)
    own = np.abs(equation_residuals(p, sol.ground, sol.coherence)).max()
    assert own == pytest.approx(sol.residual_norm)


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
    batched = rho_ee_many(p, deltas)
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
    batched = rho_ee_many(p, deltas)
    single = np.array([_rho_ee_per_point(p, d) for d in deltas])
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_batched_rho_ee_matches_full_unreduced_system(mode, rng):
    for _ in range(10):
        p = random_params(rng, mode=mode)
        deltas = p.delta_raman * np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        batched = rho_ee_many(p, deltas)
        oracle = [solve_full_system(p.replace(delta_raman=d))[1].sum() for d in deltas]
        np.testing.assert_allclose(batched, oracle, rtol=1e-10, atol=0)


@settings(deadline=None, max_examples=40)
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
    np.testing.assert_allclose(closed, rho_ee_many(p, deltas), rtol=1e-12, atol=0)
    oracle = [solve_full_system(p.replace(delta_raman=d))[1].sum() for d in deltas]
    np.testing.assert_allclose(closed, oracle, rtol=1e-10, atol=0)


def test_batched_rho_ee_non_finite_sample_is_singular():
    p = make_params(rabi=hz_to_angular(1e5))
    with pytest.raises(SingularSystem, match="nan"):
        rho_ee_many(p, np.array([0.0, np.nan]))


def test_batched_rho_ee_singular_population_block(monkeypatch):
    monkeypatch.setattr(steady_state_mod, "assemble_linear_system",
                        lambda params: (np.zeros((10, 10)), np.ones(10)))
    with pytest.raises(SingularSystem, match="population block"):
        rho_ee_many(make_params(), np.array([0.0]))


def test_batched_rho_ee_names_the_broken_invariant():
    # fig-1 geometry at gamma_g = 1 Hz, s = 3e6: the trace check rejects
    # the stiff solution (absolute tolerance), and the error says so
    base = make_params(gamma_g=1.0)
    p = base.replace(rabi=rabi_for_pumping_strength(base, 3e6))
    deltas = np.array([1e3, 0.0, -1e3])
    with pytest.raises(InvariantViolation) as info:
        rho_ee_many(p, deltas)
    exc = info.value
    assert exc.invariant in ("residual", "trace", "positivity")
    assert exc.value > exc.bound
    assert exc.delta_raman in deltas
    for text in (exc.invariant, f"{exc.value:.3e}", f"{exc.bound:.3e}",
                 repr(exc.delta_raman)):
        assert text in str(exc)


UNIFORM = np.full(8, 0.125)


BROKEN_SOLUTIONS = [
    # value: the count of non-finite unknowns, however far the LU spreads them
    ("finite", [np.nan, *UNIFORM[1:], 0.0, 0.0], None),
    ("positivity", [-1e-9, 0.125 + 1e-9, *UNIFORM[2:], 0.0, 0.0], 1e-9),
    # also off trace: the upper population bound is checked first
    ("population", [1.0 + 1e-9, *np.zeros(7), 0.0, 0.0], 1e-9),
    ("trace", [*(UNIFORM * (1.0 + 1e-9)), 0.0, 0.0], 1e-9),
    # Re(rho21) = 1 drives the dark-state brackets of the m=+1 sublevels negative
    ("excited", [*UNIFORM, 1.0, 0.0], None),
    # a uniform ground state does not balance the pump
    ("residual", [*UNIFORM, 0.0, 0.0], None),
]


@pytest.mark.parametrize("invariant, x, value", BROKEN_SOLUTIONS,
                         ids=[case[0] for case in BROKEN_SOLUTIONS])
def test_solve_names_each_broken_invariant(monkeypatch, invariant, x, value):
    p = make_params(rabi=hz_to_angular(1e5), delta_raman=123.0)
    # the identity system makes the linear solve return x as it is
    monkeypatch.setattr(steady_state_mod, "assemble_linear_system",
                        lambda params: (np.eye(10), np.array(x)))
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


def test_pumping_strength_round_trip(rng):
    p = random_params(rng)
    s = pumping_strength(p)
    assert rabi_for_pumping_strength(p, s) == pytest.approx(p.rabi, rel=1e-14)
