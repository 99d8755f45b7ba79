"""Solver checks against trivial limits and the verbatim-equation oracles."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cptsim.lineshape as lineshape_mod
import cptsim.steady_state as steady_state_mod
from cptsim.couplings import EXCITED_INDEX, EXCITED_IS_UPPER, GROUND_LEVELS
from cptsim.steady_state import (EXCITED_NEG_TOL, POPULATION_TOL, RESIDUAL_TOL,
                                 TRACE_TOL)
from cptsim import (Depolarization, InvariantViolation, ModelParams, NoResonance,
                    ParameterError, RationalLineshape, SingularSystem,
                    Unbracketed, assemble_linear_system, default_sweep_spec,
                    depolarize, excited_from_ground, fwhm,
                    hz_to_angular, lorentz_factors, physical_contrast,
                    pumping_strength, rabi_for_pumping_strength,
                    resonance_metrics, solve_steady_state, sweep)

from conftest import fuzz_range_draws, make_params, random_params, use_fake_system
from oracles import (checked_call_verbatim, excited_verbatim,
                     factorization_verbatim, rate_tables_verbatim,
                     residual_verbatim, solve_full_system)

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


@pytest.mark.parametrize("field", ["rabi", "gamma_opt", "delta_opt", "omega_e"])
def test_an_overflowing_square_is_a_parameter_error(field):
    # the Lorentz factors square rabi, gamma_opt, delta_opt and
    # delta_opt + omega_e: a value whose square overflows is refused by
    # name, one whose square is finite is accepted
    rates = dataclasses.asdict(make_params(rabi=hz_to_angular(1e5)))
    message = rf"^{field} too large: a square in the model overflows$"
    with pytest.raises(ParameterError, match=message):
        ModelParams(**{**rates, field: 1e160})
    ModelParams(**{**rates, field: 1e154})


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
    gg = make_params().gamma_g
    for mode in Depolarization:
        A, b = assemble_linear_system(make_params(rabi=0.0, mode=mode))
        assert np.allclose(A[:8, :8], np.eye(8) * gg)
        assert np.all(A[:8, 8:] == 0)
        assert np.all(A[8:, :8] == 0)
        # population rows: +0.0, though the tables' negative feed entries
        # times a zero rate are -0.0 products
        assert not np.signbit(A[:8][A[:8] == 0]).any()
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


@pytest.mark.parametrize("mode", [Depolarization.NONE, Depolarization.COMPLETE])
def test_rate_tables_are_exact_and_conserve_population(mode):
    # the package's sparse build of the per-rate tables equals the dense
    # Fraction products of the oracle; every column sums to exactly 0
    # (population conservation); each float is the rounding of its
    # Fraction; and gamma times each branch's rho_ee weight is that
    # branch's pump-out from the pump table (detailed balance, c = 2a)
    blocks, weights = rate_tables_verbatim(mode)
    pump_out = [[sum(c for e, c in steady_state_mod.TABLES.pump[g]
                     if EXCITED_IS_UPPER[EXCITED_INDEX[e]] == upper) for g in GROUND_LEVELS]
                for upper in (True, False)]
    # the one table: [A0 | b | A0[:, 8:]] per unit of V^2*lu, V^2*ld,
    # gamma_g, D and gamma_g/8
    table = steady_state_mod._SYSTEM_TABLE[mode].reshape(5, 10, 13)
    for k in range(2):
        assert weights[k][:8] == pump_out[k]
        assert [sum(blocks[k][j::10]) for j in range(10)] == [0] * 10
        assert table[k, :, :10].ravel().tolist() == [float(x) for x in blocks[k]]
        assert steady_state_mod._PUMP_OUT[k].tolist() == [float(x) for x in weights[k]]
    assert not table[:2, :, 10].any()
    constant = np.zeros((3, 10, 11))
    constant[0, range(8), range(8)] = 1.0
    constant[1, steady_state_mod._I20, 9], constant[1, steady_state_mod._I10, 9] = -0.5, 0.5
    constant[2, :8, 10] = 1.0
    assert table[2:, :, :11].tobytes() == constant.tobytes()
    # the right-hand sides repeat A0[:8, 8:] entry for entry; the
    # coherence rows have none
    assert table[:, :8, 11:].tobytes() == table[:, :8, 8:10].tobytes()
    assert not table[:, 8:, 10:].any()
    assert steady_state_mod._exact_rate_tables(mode) == (blocks, weights)


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
    # solution: the largest residual row of the verbatim arithmetic, and,
    # evaluated here in another order, the same to within
    # eps * (|A|_inf |x|_inf + |b|_inf) (measured <= 0.81 of it over 2000
    # draws); the verbatim equations hold at the solution
    eps = np.finfo(float).eps
    for _ in range(20):
        p = random_params(rng)
        sol = solve_steady_state(p)
        x, _ = checked_call_verbatim(factorization_verbatim(p), np.array([p.delta_raman]))
        assert sol.residual_norm == np.abs(x[:10]).max()
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
    # c0 + (p1*d + p0)/(d^2 + q1*d + q0) is exact: the checked call
    # returns it bit for bit, and it equals the un-reduced 18-unknown oracle
    p = random_params(np.random.default_rng(seed), mode=mode)
    model = RationalLineshape(p)
    hw = p.gamma_g + model.q0**0.5  # of the order of the dip's half width
    deltas = np.concatenate([p.delta_raman * np.array([-3.0, -1.0, 0.5, 2.0]),
                             hw * np.array([-20.0, -1.0, 0.0, 0.3, 1.0, 20.0])])
    closed = model.c0 + model.excess(deltas)
    assert RationalLineshape(p)(deltas).tobytes() == closed.tobytes()
    oracle = [solve_full_system(p.replace(delta_raman=d))[1].sum() for d in deltas]
    np.testing.assert_allclose(closed, oracle, rtol=1e-10, atol=0)


def test_batched_rho_ee_non_finite_sample_is_singular():
    p = make_params(rabi=hz_to_angular(1e5))
    with pytest.raises(SingularSystem, match="nan"):
        RationalLineshape(p)(np.array([0.0, np.nan]))


def test_batched_rho_ee_singular_population_block(monkeypatch):
    use_fake_system(monkeypatch, np.zeros((10, 10)), np.ones(10))
    with pytest.raises(SingularSystem, match="population block"):
        RationalLineshape(make_params())(np.array([0.0]))


_SINGULAR_BLOCK = "population block is singular: Singular matrix"


def _fake_coherent_system(block):
    """A fake system with population block ``block``, b = 1 and a
    coherence block [[0, -1], [1, 0]] that rotates (no real pole)."""
    A = np.zeros((10, 10))
    A[:8, :8] = block
    A[8, 9], A[9, 8] = -1.0, 1.0
    return A, np.ones(10)


def test_a_rank_deficient_population_block_is_singular(monkeypatch):
    # nonzero, but every row a multiple of the first: LAPACK meets a zero
    # pivot, and the factorization, a call and solve_steady_state say so
    use_fake_system(monkeypatch,
                    *_fake_coherent_system(np.outer(np.arange(1.0, 9.0), np.ones(8))))
    p = make_params(rabi=hz_to_angular(1e5))
    for call in (lambda: RationalLineshape(p), lambda: solve_steady_state(p),
                 lambda: physical_contrast(p)):
        with pytest.raises(SingularSystem) as info:
            call()
        assert str(info.value) == _SINGULAR_BLOCK
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_a_nan_in_the_population_block_is_a_non_finite_factorization(monkeypatch):
    # a NaN is no zero pivot: LAPACK solves through it, as np.linalg.solve
    # does, and the NaN it spreads into y0, Z, S and r is refused after
    # the solve, by the certificate and by solve_steady_state's screen
    block = np.eye(8)
    block[2, 5] = np.nan
    use_fake_system(monkeypatch, *_fake_coherent_system(block))
    p = make_params(rabi=hz_to_angular(1e5))
    model = RationalLineshape(p)
    assert np.isnan(model.y0).any() and math.isnan(model.q0)
    with pytest.raises(SingularSystem, match=r"real detuning: q0 - q1\^2/4 = nan"):
        model(np.array([0.0]))
    with pytest.raises(SingularSystem, match=r"non-finite solution at delta_raman=0\.0"):
        solve_steady_state(p)


def test_a_callers_errstate_neither_reaches_nor_survives_the_solve(monkeypatch):
    # under all="raise", a zero pivot is still SingularSystem (not a
    # FloatingPointError), a regular block gives the same bits as under
    # numpy's default state, and the caller's state is as it was after each
    p = make_params(rabi=hz_to_angular(1e5))
    plain = RationalLineshape(p)
    outer = np.geterr(), np.geterrcall()
    with np.errstate(all="raise"):
        state = np.geterr(), np.geterrcall()
        model = RationalLineshape(p)
        assert (np.geterr(), np.geterrcall()) == state
        for key in ("y0", "Z", "S", "r", "c0", "p0", "p1", "q0", "q1"):
            assert _bytes(getattr(model, key)) == _bytes(getattr(plain, key)), key
        use_fake_system(monkeypatch, np.zeros((10, 10)), np.ones(10))
        with pytest.raises(SingularSystem) as info:
            RationalLineshape(p)
        assert str(info.value) == _SINGULAR_BLOCK
        assert (np.geterr(), np.geterrcall()) == state
    assert (np.geterr(), np.geterrcall()) == outer


def test_batched_rho_ee_names_the_broken_invariant():
    # fig-1 geometry at gamma_g = 0.1 Hz, s = 1e7: the certificate rejects
    # the stiff factorization at its trace (absolute tolerance), so the
    # call raises its error before it samples, and the error says so
    base = make_params(gamma_g=0.1)
    model = RationalLineshape(base.replace(rabi=rabi_for_pumping_strength(base, 1e7)))
    with pytest.raises(InvariantViolation) as info:
        model(np.array([1e3, 0.0, -1e3]))
    exc = info.value
    assert exc.invariant == "trace"
    assert exc.value > exc.bound
    with pytest.raises(InvariantViolation) as certified:
        model.certify()
    assert str(certified.value) == str(exc)
    for text in (exc.invariant, f"{exc.value:.3e}", f"{exc.bound:.3e}",
                 repr(exc.delta_raman)):
        assert text in str(exc)


# ------------------------------------------------------------ certificate

_EPS = np.finfo(float).eps


def _exact_state(model, deltas):
    """The state (y0 - Z x_coh, x_coh) of the factorization at each
    detuning, x_coh by Cramer's rule on S + delta*I, in np.longdouble
    (extended precision where the platform has it), one column per
    detuning: |A(delta) x - b| of each row and the sum of the magnitudes
    of its terms, |trace - 1|, and the populations and the sum of the
    magnitudes of their terms."""
    ld = np.longdouble
    (s00, s01), (s10, s11) = model.S.astype(ld)
    r0, r1 = model.r.astype(ld)
    d = np.asarray(deltas, dtype=ld)
    a, e = s00 + d, s11 + d
    det = a * e - s01 * s10
    x = np.empty((10, d.size), dtype=ld)
    x[8], x[9] = (e * r0 - s01 * r1) / det, (a * r1 - s10 * r0) / det
    y0, Z = model.y0.astype(ld)[:, None], model.Z.astype(ld)
    x[:8] = y0 - Z @ x[8:]
    A, b = model._A0.astype(ld), np.append(model._rhs[:, 0], (0.0, 0.0)).astype(ld)[:, None]
    resid = A @ x - b
    resid[8:] += d * x[8:]
    terms = np.abs(A) @ np.abs(x) + np.abs(b)
    terms[8:] += np.abs(d * x[8:])
    pop_terms = np.abs(y0) + np.abs(Z) @ np.abs(x[8:])
    return np.abs(resid), terms, np.abs(x[:8].sum(axis=0) - 1), x[:8], pop_terms


def _certified(model):
    """name -> (value, delta) of each check of ``model.certify()``: the
    worst value and its detuning, as its error names them, recorded
    without raising.  Every bound is -inf here, so that certify names
    all three checks instead of returning on its first screen."""
    worst = {}

    def record(name, values, deltas, bound):
        i = int(np.argmax(values))
        worst[name] = (float(np.ravel(values)[i]),
                       float(np.broadcast_to(deltas, np.shape(values)).flat[i]))

    with mock.patch.object(steady_state_mod, "_check", record), \
            mock.patch.object(steady_state_mod, "TRACE_TOL", -math.inf), \
            mock.patch.object(steady_state_mod, "POPULATION_TOL", -math.inf), \
            mock.patch.object(model, "_residual_bound", -math.inf):
        model.certify()
    return worst


def _assert_certificate_bounds_the_grid(model, grid):
    """The certified residual and trace maxima and population minimum are
    never less strict than the exact state's on ``grid``, within 4 ulps of
    the terms of each value, and each is the state's value at the detuning
    named with it (the limit: 1e20 damping rates, where x_coh is below
    1e-20 of its peak)."""
    worst = _certified(model)
    resid, terms, trace, pops, pop_terms = _exact_state(model, grid)
    assert np.all(resid <= worst["residual"][0] + 4 * _EPS * terms)
    assert trace.max() <= worst["trace"][0] + 4 * _EPS * pop_terms.sum(axis=0).max()
    assert np.all(pops >= -worst["positivity"][0] - 4 * _EPS * pop_terms)
    for name, (value, delta) in worst.items():
        at = 1e20 * model.damping if delta == math.inf else delta
        resid, terms, trace, pops, pop_terms = _exact_state(model, [at])
        own, scale = {"residual": (resid.max(), terms.max()),
                      "trace": (trace[0], pop_terms.sum()),
                      "positivity": (-pops.min(), pop_terms.max())}[name]
        assert abs(own - value) <= 4 * _EPS * scale, (name, own, value)


def test_certificate_is_never_less_strict_than_a_dense_grid():
    # 200 draws: the certificate against the exact state at 4,001
    # detunings over +/-50 estimated half widths (a 20,001-point grid
    # gives the same verdicts at about five times the cost); and the metrics of each
    # certified model against the 18-unknown oracle: the contrast within
    # 1e-9, and the closed form within 1e-10 at the detunings the width,
    # center and asymmetry come from (the window edges, the center and
    # the two half-depth crossings)
    rng = np.random.default_rng(20261019)
    for _ in range(200):
        p = random_params(rng)
        model = RationalLineshape(p)
        _assert_certificate_bounds_the_grid(
            model, np.linspace(-50.0, 50.0, 4001) * model.damping)
        try:
            m = resonance_metrics(p)
        except (NoResonance, Unbracketed):
            continue

        def oracle(delta):
            return solve_full_system(p.replace(delta_raman=delta))[1].sum()

        far = 2e7 * model.damping
        baseline = 0.5 * (oracle(-far) + oracle(far))
        assert m.baseline == pytest.approx(baseline, rel=1e-9)
        assert m.amplitude == pytest.approx(baseline - oracle(0.0), rel=1e-9)
        dip = lineshape_mod._model_dip(model, lineshape_mod.METRIC_SPAN_HALFWIDTHS)
        deltas = np.array([-dip.edge, dip.edge, dip.center, dip.lo, dip.hi])
        np.testing.assert_allclose(model.c0 + model.excess(deltas),
                                   [oracle(d) for d in deltas], rtol=1e-10, atol=0)


def _exact_system(y0, z=()):
    """An (A, b) whose factorization is exact: population block I with
    b = y0, so the factorization's y0 is y0 and its Z has ``z`` as the
    leading entries of its first column; coherence rows damped at 2 and
    driven through ground 2 (whose Z row is zero) so that r = (0, 1), and
    x8 = 2 / (delta^2 + 4) peaks at delta = 0."""
    A, b = np.zeros((10, 10)), np.zeros(10)
    A[:8, :8] = np.eye(8)
    b[:8] = y0
    A[:len(z), 8] = z
    A[8, 9], A[9, 8] = -2.0, 2.0
    A[9, 2] = -1.0 / y0[2]
    return A, b


_U = 0.125
# (y0, z, (attribute, index, added) or None, (invariant, value, delta))
NAMED_BREAKS = {
    "trace-at-inf": ([_U * (1 + 1e-9)] * 8, (), None, ("trace", 1e-9, math.inf)),
    "pos-at-inf": ([-1e-11, 2 * _U + 1e-11, *[_U] * 6], (), None,
                   ("positivity", 1e-11, math.inf)),
    "trace-first": ([-1e-11, 2 * _U + 1e-9, *[_U] * 6], (), None,
                    ("trace", 1e-9 - 1e-11, math.inf)),
    "trace-at-0": ([_U] * 8, (2e-9,), None, ("trace", 1e-9, 0.0)),
    # z0 - z0 = 0: the trace holds at every detuning
    "pos-at-0": ([_U] * 8, (2 * (_U + 1e-9), -2 * (_U + 1e-9)), None,
                 ("positivity", 1e-9, 0.0)),
    # a perturbed factor: residual first, although the trace breaks too
    "residual-Z": ([_U] * 8, (), ("Z", (3, 0), 1e-6), ("residual", 5e-7, 0.0)),
    "residual-y0": ([_U] * 8, (), ("y0", 5, 1e-6), ("residual", 1e-6, math.inf)),
}


@pytest.mark.parametrize("y0, z, perturb, expected", NAMED_BREAKS.values(),
                         ids=NAMED_BREAKS)
def test_certificate_names_the_first_check_at_its_worst_detuning(monkeypatch, y0, z,
                                                                 perturb, expected):
    # the first broken check of residual, trace and positivity, at the
    # detuning of its worst value over all real detunings (inf for the
    # limit), from certify, a call and physical_contrast alike
    use_fake_system(monkeypatch, *_exact_system(y0, z))
    p = make_params(rabi=hz_to_angular(1e5))
    model = RationalLineshape(p)
    calls = [model.certify, lambda: model(np.array([1.0, -3.0]))]
    if perturb is None:
        calls.append(lambda: physical_contrast(p))
    else:
        attribute, index, added = perturb
        getattr(model, attribute)[index] += added
    invariant, value, delta = expected
    bound = {"residual": RESIDUAL_TOL * max(1.0, p.gamma_g), "trace": TRACE_TOL,
             "positivity": POPULATION_TOL}[invariant]
    for call in calls:
        with pytest.raises(InvariantViolation) as info:
            call()
        exc = info.value
        assert (exc.invariant, exc.bound, exc.delta_raman) == (invariant, bound, delta)
        assert exc.value == pytest.approx(value, rel=1e-6)


def test_certificate_names_the_worst_detuning_of_a_shifted_dip(monkeypatch):
    # an exact system with tr S = -2: x8 = (2 - delta/2) / (delta^2 - 2*delta + 4)
    # peaks off delta = 0, and population 3 = 1/8 - x8/2 (population 4
    # mirrors it, so the trace holds) dips below zero there; the named
    # detuning and value are those of a fine grid
    A, b = _exact_system([_U] * 8, (0.0, 0.0, 0.0, 0.5, -0.5))
    A[8, 3] = 4.0  # S = [[-2, -2], [2, 0]], r = (-1/2, 1)
    use_fake_system(monkeypatch, A, b)
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    assert (model.q1, model.q0) == (-2.0, 4.0)
    grid = np.linspace(-10.0, 10.0, 200_001)
    pop3 = _U - 0.5 * (2.0 - 0.5 * grid) / (grid * grid - 2.0 * grid + 4.0)
    with pytest.raises(InvariantViolation) as info:
        model.certify()
    exc = info.value
    assert exc.invariant == "positivity"
    assert exc.value == pytest.approx(-pop3.min(), rel=1e-8)
    assert abs(exc.delta_raman - grid[np.argmin(pop3)]) <= 1e-4
    _assert_certificate_bounds_the_grid(model, grid)


def test_a_nan_value_breaks_its_check():
    # the error names the first NaN and its detuning, whatever the other values
    with pytest.raises(InvariantViolation) as info:
        steady_state_mod._check("trace", np.array([0.0, np.nan, 1.0, np.nan]),
                                np.array([1.0, 2.0, 3.0, 4.0]), TRACE_TOL)
    exc = info.value
    assert (exc.invariant, exc.bound, exc.delta_raman) == ("trace", TRACE_TOL, 2.0)
    assert math.isnan(exc.value)


def _expect_break(model, invariant):
    """certify raises ``invariant`` at its certified worst value and
    detuning, which bound the exact state on a grid."""
    worst = _certified(model)
    with pytest.raises(InvariantViolation) as info:
        model.certify()
    exc = info.value
    assert exc.invariant == invariant
    assert (exc.value, exc.delta_raman) == worst[invariant]
    assert exc.value > 2 * exc.bound
    _assert_certificate_bounds_the_grid(model, np.linspace(-50.0, 50.0, 2001) * model.damping)


def test_certificate_names_a_perturbed_factorization(rng):
    # on real draws: y0 off by 1e-8 of itself, or Z by 1e-3 of itself,
    # breaks the residual first; y0 moved by A0^-1 of half the residual
    # bound in every population row, with r = -(coupling @ y0) to match,
    # keeps the residual and breaks the trace by 4e-10 (the population
    # block's column sums are gamma_g)
    for _ in range(10):
        p = random_params(rng)
        for attribute, scale in (("y0", 1e-8), ("Z", 1e-3)):
            model = RationalLineshape(p)
            setattr(model, attribute, getattr(model, attribute) * (1.0 + scale))
            _expect_break(model, "residual")
        model = RationalLineshape(p)
        model.y0 = model.y0 + np.linalg.solve(model._A0[:8, :8],
                                              np.full(8, 0.5 * model._residual_bound))
        model.r = -(model._A0[8:, :8] @ model.y0)
        _expect_break(model, "trace")


_BOUND_OF = {"residual": (None, "_residual_bound"),
             "trace": (steady_state_mod, "TRACE_TOL"),
             "positivity": (steady_state_mod, "POPULATION_TOL")}


@pytest.mark.parametrize("invariant", _BOUND_OF)
def test_certificate_screen_passes_at_its_bound_and_breaks_one_ulp_below(invariant):
    # on real draws: with one check's bound set to its certified worst
    # value the certificate passes; one ulp below, it raises that check
    # at that value
    rng = np.random.default_rng(20261020)
    for _ in range(5):
        model = RationalLineshape(random_params(rng))
        value, delta = _certified(model)[invariant]
        owner, name = _BOUND_OF[invariant]
        owner = model if owner is None else owner
        with mock.patch.object(owner, name, value):
            model.certify()
        with mock.patch.object(owner, name, float(np.nextafter(value, -math.inf))), \
                pytest.raises(InvariantViolation) as info:
            model.certify()
        assert (info.value.invariant, info.value.value, info.value.delta_raman) == \
            (invariant, value, delta)


@pytest.mark.parametrize("row", range(19))
def test_certificate_screen_breaks_on_a_nan_in_any_row(monkeypatch, row):
    # a NaN extreme in any of the 19 certified rows (10 residual, the
    # trace, 8 populations) raises its check with a NaN value, on a draw
    # that passes as it is
    model = RationalLineshape(random_params(np.random.default_rng(20261021)))
    model.certify()
    real_abs = np.abs

    def abs_with_nan(values, *args, **kwargs):
        values[0, row] = np.nan  # the extremes, before the rows take |.|
        return real_abs(values, *args, **kwargs)

    monkeypatch.setattr(steady_state_mod.np, "abs", abs_with_nan)
    with pytest.raises(InvariantViolation) as info:
        model.certify()
    monkeypatch.undo()
    invariant = "residual" if row < 10 else "trace" if row == 10 else "positivity"
    assert info.value.invariant == invariant and math.isnan(info.value.value)


def _solve_reference(p):
    """solve_steady_state check by check on the verbatim arithmetic
    (oracles.checked_call_verbatim at params.delta_raman): residual,
    trace, positivity, population, then excited, as (invariant, value,
    bound, delta) of the first broken one; else the ground populations,
    the coherence and rho_ee."""
    delta = p.delta_raman
    x, rho = checked_call_verbatim(factorization_verbatim(p), np.array([delta]))
    ground, coherence = x[11:19, 0], complex(x[19, 0], x[20, 0])
    excited = excited_from_ground(ground, coherence, p)
    for name, value, bound in [("residual", np.abs(x[:10]).max(),
                                RESIDUAL_TOL * max(1.0, p.gamma_g)),
                               ("trace", abs(x[10, 0]), TRACE_TOL),
                               ("positivity", -ground.min(), POPULATION_TOL),
                               ("population", ground.max() - 1.0,
                                (1.0 + POPULATION_TOL) - 1.0),
                               ("excited", -excited.min(), EXCITED_NEG_TOL)]:
        if not value <= bound:
            return name, float(value), bound, delta
    return ground, coherence, rho[0]


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
    # over the fuzz range, stiff points included: the certificate is never
    # less strict than the exact state on a grid of +/-50 estimated half
    # widths; a call raises its verdict, else returns the verbatim rho_ee
    # bit for bit; solve_steady_state at the first detuning gives the
    # verdict, populations, coherence and rho_ee of the per-point reference
    base = make_params(mode=mode, gamma_opt=gamma_opt, gamma_nat=gamma_nat,
                       gamma_g=gamma_g, omega_e=omega_e, delta_opt=delta_opt)
    model = RationalLineshape(base.replace(rabi=rabi_for_pumping_strength(base, strength)))
    _assert_certificate_bounds_the_grid(model, np.linspace(-50.0, 50.0, 2001) * model.damping)
    hw = model.params.gamma_g + model.q0**0.5  # of the order of the dip's half width
    deltas = hw * np.array([0.0, *offsets])
    try:
        model.certify()
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as info:
            model(deltas)
        assert str(info.value) == str(exc)
    else:
        rho = checked_call_verbatim(factorization_verbatim(model.params), deltas)[1]
        np.testing.assert_array_equal(model(deltas), rho)

    p = model.params.replace(delta_raman=float(deltas[0]))
    expected = _solve_reference(p)
    if isinstance(expected[0], str):
        with pytest.raises(InvariantViolation) as info:
            solve_steady_state(p)
        exc = info.value
        assert (exc.invariant, exc.value, exc.bound, exc.delta_raman) == expected
    else:
        sol = solve_steady_state(p)
        np.testing.assert_array_equal(sol.ground, expected[0])
        assert (sol.coherence, sol.rho_ee) == expected[1:]


def test_blocked_call_raises_the_earliest_ordered_check():
    # the certificate comes before any detuning is evaluated: a
    # factorization whose residual and trace break raises the residual,
    # as certify does, with no closed form evaluated
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    model.y0 = model.y0 * (1.0 + 1e-8)
    worst = _certified(model)
    assert worst["residual"][0] > model._residual_bound and worst["trace"][0] > TRACE_TOL
    evaluated = []
    model.excess = evaluated.append
    with pytest.raises(InvariantViolation) as certified:
        model.certify()
    with pytest.raises(InvariantViolation) as called:
        model(np.arange(9.0))
    assert certified.value.invariant == "residual"
    assert str(called.value) == str(certified.value)
    assert evaluated == []


def test_call_evaluates_each_detuning_once_in_order():
    # one pass of the closed form over the whole input, in input order;
    # an empty call returns an empty array
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    excess, passes = model.excess, []

    def recording_excess(deltas):
        passes.append(deltas.tolist())
        return excess(deltas)

    model.excess = recording_excess
    for n in (0, 1, 5, 10_000):
        passes.clear()
        deltas = np.arange(float(n))[::-1]
        rho = model(deltas)
        assert rho.shape == (n,)
        assert passes == [deltas.tolist()]


def test_checked_rho_ee_does_not_depend_on_the_call_it_is_in(rng):
    # a detuning's rho_ee has the same bits alone as in a whole call
    for _ in range(20):
        p = random_params(rng)
        model = RationalLineshape(p)
        deltas = (p.gamma_g + model.q0**0.5) * np.linspace(-6.0, 6.0, 13)
        whole = model(deltas)
        for i in range(deltas.size):
            assert model(deltas[i:i + 1])[0] == whole[i]


def test_stiff_verdict_matches_a_dense_grid():
    # fig 1 at gamma_g/2pi = 0.1 Hz, s = 1e7, where the certificate rejects
    # the stiff factorization at its trace with the residual within its
    # bound: the exact state on a grid breaks the trace bound too, within
    # the certified value, and keeps the residual bound
    base = make_params(gamma_g=0.1)
    model = RationalLineshape(base.replace(rabi=rabi_for_pumping_strength(base, 1e7)))
    with pytest.raises(InvariantViolation) as info:
        model.certify()
    assert (info.value.invariant, info.value.bound) == ("trace", TRACE_TOL)
    grid = np.linspace(-50.0, 50.0, 20_001) * model.damping
    _assert_certificate_bounds_the_grid(model, grid)
    resid, _, trace, _, _ = _exact_state(model, grid)
    assert trace.max() > TRACE_TOL
    assert resid.max() <= model._residual_bound


def test_solve_reads_the_exact_state_at_its_detuning():
    # the residual rows, trace and ground populations that
    # solve_steady_state checks are those of the exact state at its
    # detuning, within 4 ulps of the terms of each value, as the
    # certificate's are; residual_norm is the largest residual row
    rng = np.random.default_rng(20261022)
    for _ in range(200):
        p = random_params(rng)
        checked = {}

        def record(name, values, deltas, bound):
            checked[name] = np.ravel(values)

        with mock.patch.object(steady_state_mod, "_check", record):
            sol = solve_steady_state(p)
        resid, terms, trace, pops, pop_terms = _exact_state(RationalLineshape(p),
                                                            [p.delta_raman])
        assert np.all(abs(checked["residual"] - resid[:, 0]) <= 4 * _EPS * terms[:, 0])
        assert sol.residual_norm == checked["residual"].max()
        assert abs(checked["trace"][0] - trace[0]) <= 4 * _EPS * pop_terms.sum()
        assert np.all(abs(sol.ground - pops[:, 0]) <= 4 * _EPS * pop_terms[:, 0])


def test_solve_raises_nothing_where_the_certificate_passes():
    # one rule over ROADMAP item 6's fuzz range, stiff points kept: at
    # delta = 0, 0.7 and -3 estimated half widths Gamma_g (1 + s) of each
    # draw whose certificate passes, solve_steady_state raises nothing and
    # its rho_ee has the bits of a call at its detuning
    certified = 0
    for s, p in fuzz_range_draws():
        model = RationalLineshape(p)
        try:
            model.certify()
        except InvariantViolation:
            continue
        certified += 1
        for delta in (np.array([0.0, 0.7, -3.0]) * (p.gamma_g * (1.0 + s))).tolist():
            sol = solve_steady_state(p.replace(delta_raman=delta))
            assert _bytes(sol.rho_ee) == _bytes(model(np.array([delta])))
    assert certified == 2000 - 59


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


def _solve_gives(monkeypatch, x, residual):
    """Make solve_steady_state's closed form give x at the detuning delta
    of its params, with the residual of row 4 ``residual`` units of its
    bound and of every other row zero: each factorization gets y0 = x[:8],
    Z = 0, S = (1 - delta) I (so S + delta*I = I), r = x[8:], and an A0
    of -delta on the two coherence diagonals, else zero, so that A(delta)
    is zero; the right-hand sides are zero but in row 4."""
    real_init = RationalLineshape.__init__

    def init(self, params):
        real_init(self, params)
        delta = params.delta_raman
        self.y0, self.Z = np.array(x[:8]), np.zeros((8, 2))
        self.S, self.r = (1.0 - delta) * np.eye(2), np.array(x[8:])
        self.q1, self.q0, self._hw2 = 2.0 * (1.0 - delta), (1.0 - delta) ** 2, 0.0
        self._A0 = np.zeros((10, 10))
        self._A0[8, 8] = self._A0[9, 9] = -delta
        self._rhs = np.zeros((8, 3))
        self._rhs[4, 0] = -residual * self._residual_bound

    monkeypatch.setattr(RationalLineshape, "__init__", init)


@pytest.mark.parametrize("invariant, x, residual, value", BROKEN_SOLUTIONS,
                         ids=[case[0] for case in BROKEN_SOLUTIONS])
def test_solve_names_each_broken_invariant(monkeypatch, invariant, x, residual, value):
    p = make_params(rabi=hz_to_angular(1e5), delta_raman=123.0)
    _solve_gives(monkeypatch, x, residual)
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
    # a NaN ground population is a non-finite solution: SingularSystem
    # names the detuning before any check
    _solve_gives(monkeypatch, [np.nan, *UNIFORM[1:], 0.0, 0.0], 0.0)
    with pytest.raises(SingularSystem, match=r"delta_raman=123\.0 rad/s"):
        solve_steady_state(make_params(rabi=hz_to_angular(1e5), delta_raman=123.0))


def test_solve_non_finite_solution_is_singular(monkeypatch):
    # coherence rows coupled only to each other, with det(S + delta*I)
    # = delta^2 - 123^2 and r = 0: the 2x2 solve is 0/0 at delta = 123
    A = np.eye(10)
    A[8, 9] = A[9, 8] = 123.0
    use_fake_system(monkeypatch, A, np.array([*UNIFORM, 0.0, 0.0]))
    with pytest.raises(SingularSystem, match=r"delta_raman=123\.0 rad/s"):
        solve_steady_state(make_params(rabi=hz_to_angular(1e5), delta_raman=123.0))


@pytest.mark.parametrize("rabi_hz", [1e100, 1e140])
def test_solve_at_a_huge_rabi_frequency_is_singular_without_a_warning(rabi_hz):
    # the rows overflow; with warnings as errors, a numpy RuntimeWarning
    # from any step would replace the typed error
    with pytest.raises(SingularSystem, match=r"non-finite solution at delta_raman=0\.0"):
        solve_steady_state(make_params(rabi=hz_to_angular(rabi_hz)))


def test_certificate_refuses_a_real_pole(monkeypatch):
    # the same coherence block has real poles at delta = +/-123: no state
    # exists there, so the certificate, and every call, is SingularSystem
    A = np.eye(10)
    A[8, 9] = A[9, 8] = 123.0
    use_fake_system(monkeypatch, A, np.array([*UNIFORM, 0.0, 0.0]))
    model = RationalLineshape(make_params(rabi=hz_to_angular(1e5)))
    with pytest.raises(SingularSystem, match="real detuning"):
        model(np.array([0.0]))


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


def test_assembled_system_is_the_factorization_s_system():
    # one builder: A(delta) is the factorization's A0 with delta on the two
    # coherence diagonals, and b is the first column of its right-hand
    # sides with +0.0 in the coherence rows, byte for byte
    for p in _factorization_cases():
        A, b = assemble_linear_system(p)
        model = RationalLineshape(p)
        A0 = model._A0.copy()
        A0[8, 8] = A0[9, 9] = p.delta_raman
        assert (_bytes(A), _bytes(b)) == (_bytes(A0), _bytes([*model._rhs[:, 0], 0.0, 0.0]))


def _count_lorentz_factors(monkeypatch):
    """The list of params of each later lorentz_factors call of steady_state."""
    calls = []

    def counting(params):
        calls.append(params)
        return lorentz_factors(params)

    monkeypatch.setattr(steady_state_mod, "lorentz_factors", counting)
    return calls


def test_a_factorization_forms_the_lorentz_factors_once(monkeypatch):
    calls = _count_lorentz_factors(monkeypatch)
    p = make_params(rabi=hz_to_angular(1e5))
    RationalLineshape(p)
    assert calls == [p]


def test_solve_steady_state_forms_the_lorentz_factors_once(monkeypatch):
    # the excited populations reuse the factorization's factors
    calls = _count_lorentz_factors(monkeypatch)
    p = make_params(rabi=hz_to_angular(1e5), delta_raman=37.0)
    solve_steady_state(p)
    assert calls == [p]


def test_factorization_and_checked_call_match_the_verbatim_arithmetic():
    # bytes, so the sign of every zero counts: the matrix, the factorization
    # and its scalars, the rho_ee of a call (the closed form of the verbatim
    # scalars), and the residual, trace, populations, coherence and rho_ee
    # of solve_steady_state at each detuning equal those of
    # oracles.factorization_verbatim and oracles.checked_call_verbatim
    checked = 0
    for p in _factorization_cases():
        f = factorization_verbatim(p)
        A, b = assemble_linear_system(p)
        A_ref, b_ref = f["A0"].copy(), f["b"]
        A_ref[8, 8] = A_ref[9, 9] = p.delta_raman
        assert (_bytes(A), _bytes(b)) == (_bytes(A_ref), _bytes(b_ref))
        model = RationalLineshape(p)
        for key in ("y0", "Z", "S", "r", "c0", "p0", "p1", "q0", "q1"):
            assert _bytes(getattr(model, key)) == _bytes(f[key]), key
        deltas = np.array([0.0, -0.0, p.delta_raman, 1e3, -1e3, 1e9])
        x_ref, rho_ref = checked_call_verbatim(f, deltas)
        try:
            assert _bytes(model(deltas)) == _bytes(rho_ref)
            checked += 1
        except InvariantViolation:
            pass

        for delta, x, rho in zip(deltas.tolist(), x_ref.T, rho_ref):
            ground = x[11:19]
            try:
                sol = solve_steady_state(p.replace(delta_raman=delta))
            except InvariantViolation as exc:
                value = {"residual": np.abs(x[:10]).max(), "trace": abs(x[10]),
                         "positivity": -ground.min(), "population": ground.max() - 1.0}
                assert exc.value == value.get(exc.invariant, exc.value)
                continue
            assert _bytes(sol.ground) == _bytes(ground)
            assert _bytes([sol.coherence.real, sol.coherence.imag]) == _bytes(x[19:])
            assert _bytes([sol.residual_norm, sol.rho_ee]) == _bytes([np.abs(x[:10]).max(), rho])
    assert checked >= 0.95 * 2 * 600
