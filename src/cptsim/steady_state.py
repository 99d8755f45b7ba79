"""Steady-state solver for the four-level sigma+ optical-pumping model.

The excited-state populations are explicit functions of the ground
state (they follow the pump adiabatically), so they are eliminated
algebraically and only ten real unknowns remain.  This avoids mixing
rate scales separated by the large factor 2*Gamma/gamma into one
matrix.

Unknown ordering (fixed; shared by :func:`assemble_linear_system` and
everything downstream):

    x[0:8] = ground populations in the order of
             ``couplings.GROUND_LEVELS``
             [(2,-2), (2,-1), (2,0), (2,+1), (2,+2), (1,-1), (1,0), (1,+1)]
    x[8]   = Re(rho21), hyperfine m=0 coherence
    x[9]   = Im(rho21)

The right-hand side carries the isotropic repopulation source
gamma_g/8 in each population row.

When ``depolarization`` is COMPLETE, every spontaneous-feed term uses
the arithmetic mean of the eight excitation expressions instead of the
individual ones; the system stays linear in the ten unknowns.

Ground populations are independent of gamma_nat (the decay rate cancels
between excitation and feed), while the excited populations returned by
:func:`excited_from_ground` scale as 1/gamma_nat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplings import (EXCITED_INDEX, EXCITED_IS_UPPER, EXCITED_LEVELS,
                        GROUND_INDEX, GROUND_LEVELS, build_coupling_tables)
from .errors import InvariantViolation, SingularSystem
from .params import Depolarization, LorentzFactors, ModelParams, lorentz_factors

TABLES = build_coupling_tables()

# Float views of the rational tables, laid out for vectorized assembly.
# _A_EXC[e, g], _W_EXC[e]: excitation prefactors of excited_from_ground.
# _C[e, g]: pump-bracket coefficient of ground g feeding excited e, so that
#           gamma*rho_e = V^2*l_e * (_C[e] @ ground + _W[e]*Re(rho21));
#           by detailed balance (c = 2a) twice the excitation view, exactly.
# _B[g, e]: branching ratio of excited e decaying into ground g.
_A_EXC = np.zeros((8, 8))
_W_EXC = np.zeros(8)
_B = np.zeros((8, 8))
for _e, _rows in TABLES.excitation.items():
    for _g, _a in _rows:
        _A_EXC[EXCITED_INDEX[_e], GROUND_INDEX[_g]] = float(_a)
for _e, _w in TABLES.coherence_weight.items():
    _W_EXC[EXCITED_INDEX[_e]] = float(_w)
for _e, _rows in TABLES.branch.items():
    for _g, _b in _rows:
        _B[GROUND_INDEX[_g], EXCITED_INDEX[_e]] = float(_b)
_C = 2.0 * _A_EXC
_W = 2.0 * _W_EXC  # pump-scale weight

_IS_UPPER = np.array(EXCITED_IS_UPPER)
_DIAG8 = np.arange(8)
_I20 = GROUND_INDEX[(2, 0)]
_I10 = GROUND_INDEX[(1, 0)]

POPULATION_TOL = 1e-12     # allowed negative excursion of ground populations
TRACE_TOL = 1e-10          # |sum(ground) - 1| bound
RESIDUAL_TOL = 1e-10       # residual bound, relative to max(1, gamma_g)
EXCITED_NEG_TOL = 1e-15    # numerical-noise floor for excited populations
_CHECKS = ("residual", "trace", "positivity")  # rows of RationalLineshape._bounds


@dataclass(frozen=True)
class SteadyStateSolution:
    """Solution of the steady-state system for one parameter set.

    ``excited_bare`` holds the excitation-equation values evaluated at
    the solution; ``excited_effective`` is the same distribution after
    the depolarization map (identical to bare in NONE mode).  Their
    sums agree exactly; ``rho_ee`` is that common total.
    """

    params: ModelParams
    ground: np.ndarray          # shape (8,), order of GROUND_LEVELS
    coherence: complex          # rho21 (m=0 hyperfine coherence)
    excited_bare: np.ndarray    # shape (8,), order of EXCITED_LEVELS
    excited_effective: np.ndarray
    rho_ee: float
    residual_norm: float

    def ground_population(self, f: int, m: int) -> float:
        return float(self.ground[GROUND_INDEX[(f, m)]])

    def excited_population(self, f: int, m: int, effective: bool = True) -> float:
        arr = self.excited_effective if effective else self.excited_bare
        return float(arr[EXCITED_INDEX[(f, m)]])

    def ground_as_dict(self) -> dict[tuple[int, int], float]:
        return {lvl: float(v) for lvl, v in zip(GROUND_LEVELS, self.ground)}

    def excited_as_dict(self, effective: bool = True) -> dict[tuple[int, int], float]:
        arr = self.excited_effective if effective else self.excited_bare
        return {lvl: float(v) for lvl, v in zip(EXCITED_LEVELS, arr)}


def _excitation_rates(params: ModelParams, lf: LorentzFactors):
    """Return (K, kw): gamma*rho_e = K @ ground + kw*Re(rho21)."""
    v2 = params.rabi**2
    l_e = np.where(_IS_UPPER, lf.lu, lf.ld)
    K = (v2 * l_e)[:, None] * _C
    kw = v2 * l_e * _W
    return K, kw


def assemble_linear_system(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Build the 10x10 real system A @ x = b for the unknown ordering above."""
    lf = lorentz_factors(params)
    gg = params.gamma_g
    K, kw = _excitation_rates(params, lf)

    P = params.rabi**2 * (lf.lu + lf.ld / 3.0)  # coherence pump rate
    D = lf.du + lf.dd / 3.0                     # dispersive cross-coupling

    A = np.zeros((10, 10))
    b = np.zeros(10)

    # Population rows: relaxation + pump-out on the diagonal.  The
    # pump-out of ground g is the column sum of K (all routes out).
    pump_out = K.sum(axis=0)
    A[_DIAG8, _DIAG8] = gg + pump_out
    b[:8] = gg / 8.0

    # Spontaneous feed, entering with a minus sign on the left.
    if params.depolarization is Depolarization.COMPLETE:
        # Every ground sublevel receives gamma*mean(excited); the
        # branching matrix is doubly stochastic so the row weight is 1.
        mean_pop = K.mean(axis=0)
        mean_coh = kw.mean()
        A[:8, :8] -= mean_pop[None, :]
        A[:8, 8] -= mean_coh
    else:
        A[:8, :8] -= _B @ K
        A[:8, 8] -= _B @ kw

    # Direct coherence coupling of the two working (m=0) populations.
    A[_I20, 8] -= P / 2.0
    A[_I20, 9] -= D / 2.0
    A[_I10, 8] -= P / 2.0
    A[_I10, 9] += D / 2.0

    # Coherence equation, real and imaginary parts.
    width = gg + P / 2.0
    A[8, 8] = params.delta_raman
    A[8, 9] = -width
    A[8, _I20] = -D / 4.0
    A[8, _I10] = +D / 4.0
    A[9, 8] = width
    A[9, 9] = params.delta_raman
    A[9, _I20] = -P / 4.0
    A[9, _I10] = -P / 4.0
    return A, b


def excited_from_ground(ground: np.ndarray, coherence: complex,
                        params: ModelParams) -> np.ndarray:
    """Excited-state populations implied by a ground-state configuration.

    Implements the excitation equations directly: each sublevel is
    (2 V^2 l_e / gamma) times its excitation bracket.  (F_e=2, m=-2)
    has no sigma+ pathway and is identically zero; the two m=+1
    sublevels carry the dark-state bracket with -2*Re(rho21).
    """
    ground = np.asarray(ground, dtype=float)
    lf = lorentz_factors(params)
    l_e = np.where(_IS_UPPER, lf.lu, lf.ld)
    prefac = 2.0 * params.rabi**2 * l_e / params.gamma_nat
    return prefac * (_A_EXC @ ground + _W_EXC * coherence.real)


def depolarize(excited: np.ndarray) -> np.ndarray:
    """Replace every sublevel population with the arithmetic mean of all 8."""
    excited = np.asarray(excited, dtype=float)
    return np.full_like(excited, excited.mean())


def equation_residuals(params: ModelParams, ground: np.ndarray,
                       coherence: complex) -> np.ndarray:
    """Evaluate the steady-state equations term by term at a candidate solution.

    Returns the 10 residuals (8 population equations in GROUND_LEVELS
    order, then Re and Im of the coherence equation), each written as
    (right-hand side) - (left-hand side) of the balance form.  Unlike
    :func:`assemble_linear_system` this path goes through the explicit
    excited-state populations and the gamma-feed terms, so it exercises
    the equations in their original shape.
    """
    ground = np.asarray(ground, dtype=float)
    lf = lorentz_factors(params)
    gg = params.gamma_g
    v2 = params.rabi**2

    excited = excited_from_ground(ground, coherence, params)
    if params.depolarization is Depolarization.COMPLETE:
        fed = depolarize(excited)
    else:
        fed = excited

    res = np.zeros(10)
    for gi, g in enumerate(GROUND_LEVELS):
        pump_out = 0.0
        for e, c in TABLES.pump[g]:
            l_e = lf.lu if e[0] == 2 else lf.ld
            pump_out += float(c) * v2 * l_e
        feed = 0.0
        for e, rows in TABLES.branch.items():
            for gt, bfrac in rows:
                if gt == g:
                    feed += float(bfrac) * fed[EXCITED_INDEX[e]]
        res[gi] = (gg / 8.0 + params.gamma_nat * feed
                   - (gg + pump_out) * ground[gi])

    # Coherence cross terms in the two working-population equations.
    r, j = coherence.real, coherence.imag
    cu = v2 * lf.lu
    cd = v2 * lf.ld
    res[_I20] += 0.5 * (lf.du * j + cu * r) + (lf.dd * j + cd * r) / 6.0
    res[_I10] += -0.5 * (lf.du * j - cu * r) - (lf.dd * j - cd * r) / 6.0

    # Coherence equation.
    P = v2 * (lf.lu + lf.ld / 3.0)
    D = lf.du + lf.dd / 3.0
    s = ground[_I20] + ground[_I10]
    d = ground[_I20] - ground[_I10]
    lhs = (params.delta_raman + 1j * (gg + P / 2.0)) * coherence
    rhs = 0.25j * P * s + 0.25 * D * d
    res[8] = (rhs - lhs).real
    res[9] = (rhs - lhs).imag
    return res


def solve_steady_state(params: ModelParams) -> SteadyStateSolution:
    """Solve the steady-state system by dense LU with partial pivoting.

    Raises SingularSystem if the matrix cannot be factorized.  Raises
    InvariantViolation, naming the invariant, its value, its bound and
    the detuning, if the solution is not finite, a ground population
    lies outside [0, 1] beyond POPULATION_TOL, the trace is off by more
    than TRACE_TOL, an excited population lies below -EXCITED_NEG_TOL,
    or the residual exceeds RESIDUAL_TOL * max(1, gamma_g).
    """
    A, b = assemble_linear_system(params)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"steady-state matrix is singular: {exc}") from exc
    delta = params.delta_raman
    _check(delta, ("finite", np.count_nonzero(~np.isfinite(x)), 0.0))
    ground = x[:8].copy()
    _check(delta, ("positivity", -ground.min(), POPULATION_TOL),
           # max - 1 and (1 + tol) - 1 are exact: the same test as max > 1 + tol
           ("population", ground.max() - 1.0, (1.0 + POPULATION_TOL) - 1.0),
           ("trace", abs(ground.sum() - 1.0), TRACE_TOL))

    coherence = complex(x[8], x[9])
    excited = excited_from_ground(ground, coherence, params)
    _check(delta, ("excited", -excited.min(), EXCITED_NEG_TOL))
    if params.depolarization is Depolarization.COMPLETE:
        effective = depolarize(excited)
    else:
        effective = excited.copy()

    residual_norm = float(np.abs(equation_residuals(params, ground, coherence)).max())
    _check(delta, ("residual", residual_norm, RESIDUAL_TOL * max(1.0, params.gamma_g)))

    return SteadyStateSolution(
        params=params,
        ground=ground,
        coherence=coherence,
        excited_bare=excited,
        excited_effective=effective,
        rho_ee=float(excited.sum()),
        residual_norm=residual_norm,
    )


class RationalLineshape:
    """rho_ee(delta) of one parameter set, from one factorization.

    The detuning enters the system only on the diagonal of the two
    coherence rows, so the 8x8 population block is delta-free.  It is
    solved once, for b and the two coherence columns, which leaves the
    2x2 Schur complement S with right-hand side r:

        (S + delta*I) @ x[8:] = r,   x[:8] = y0 - Z @ x[8:].

    rho_ee is linear in x, with weights ``w_pop`` on the ground
    populations and ``w_coh`` on Re(rho21).  Since
    (S + delta*I)^-1 = (adj(S) + delta*I) / det(S + delta*I), it is
    exactly the rational function

        rho_ee(delta) = c0 + (p1*delta + p0) / (delta^2 + q1*delta + q0)

    with q1 = tr S, q0 = det S, p1 = g.r and p0 = g.adj(S).r, where
    g = (w_coh, 0) - Z^T w_pop and c0 = w_pop.y0 is the delta -> inf
    limit.  :meth:`excess` evaluates the closed form; calling the object
    solves and checks every detuning (see :func:`rho_ee_many`), and
    :meth:`check_limit` checks the delta -> inf state.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        A0, b = assemble_linear_system(params)
        A0[8, 8] = A0[9, 9] = 0.0  # the delta-free part
        rhs = np.empty((8, 3))
        rhs[:, 0], rhs[:, 1:] = b[:8], A0[:8, 8:]
        try:
            Y = np.linalg.solve(A0[:8, :8], rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"population block is singular: {exc}") from exc
        self.y0, self.Z = Y[:, 0], Y[:, 1:]
        self.S = A0[8:, 8:] - A0[8:, :8] @ self.Z
        self.r = -(A0[8:, :8] @ self.y0)
        (s00, s01), (s10, s11) = self.S.tolist()
        r0, r1 = self.r.tolist()

        lf = lorentz_factors(params)
        l_e = np.where(_IS_UPPER, lf.lu, lf.ld)
        prefac = 2.0 * params.rabi**2 * l_e / params.gamma_nat
        self.w_pop = _A_EXC.T @ prefac
        self.w_coh = float(_W_EXC @ prefac)

        g0, g1 = (np.array([self.w_coh, 0.0]) - self.Z.T @ self.w_pop).tolist()
        self.c0 = float(self.w_pop @ self.y0)
        self.q1 = s00 + s11
        self.q0 = s00 * s11 - s01 * s10
        self.p1 = g0 * r0 + g1 * r1
        self.p0 = g0 * (s11 * r0 - s01 * r1) + g1 * (s00 * r1 - s10 * r0)

        self._A0, self._b = A0, b
        self._bounds = np.array([[RESIDUAL_TOL * max(1.0, params.gamma_g)],
                                 [TRACE_TOL], [POPULATION_TOL]])

    def excess(self, deltas):
        """Closed-form rho_ee(delta) - c0 at a detuning or an array of
        them, unchecked."""
        return (self.p1 * deltas + self.p0) / ((deltas + self.q1) * deltas + self.q0)

    def __call__(self, deltas: np.ndarray) -> np.ndarray:
        """rho_ee at each detuning, each sample solved and checked."""
        deltas = np.asarray(deltas, dtype=float).ravel()
        (s00, s01), (s10, s11) = self.S.tolist()
        r0, r1 = self.r.tolist()
        a = s00 + deltas
        d = s11 + deltas
        xs = np.empty((deltas.size, 10))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = a * d - s01 * s10
            xs[:, 8] = (d * r0 - s01 * r1) / det
            xs[:, 9] = (a * r1 - s10 * r0) / det
            xs[:, :8] = self.y0 - xs[:, 8:] @ self.Z.T
        if not np.isfinite(xs).all():
            i = int(np.argmin(np.isfinite(xs).all(axis=1)))
            raise SingularSystem(
                f"non-finite solution at delta_raman={float(deltas[i])!r} rad/s")

        # residual of the full A(delta) = A0 + delta*(e8 e8^T + e9 e9^T)
        resid = xs @ self._A0.T
        resid -= self._b
        resid[:, 8:] += deltas[:, None] * xs[:, 8:]
        np.abs(resid, out=resid)
        pops = xs[:, :8]
        values = np.empty((3, deltas.size))
        resid.max(axis=1, out=values[0])
        np.abs(pops.sum(axis=1) - 1.0, out=values[1])
        np.negative(pops.min(axis=1), out=values[2])
        bad = values > self._bounds
        if bad.any():
            c = int(np.argmax(bad.any(axis=1)))
            i = int(np.argmax(bad[c]))
            raise _broken(_CHECKS[c], values[c, i], self._bounds[c, 0], deltas[i])
        return pops @ self.w_pop + xs[:, 8] * self.w_coh

    def check_limit(self) -> None:
        """Check the delta -> inf state (ground populations y0, no
        coherence), whose rho_ee is c0: trace within TRACE_TOL and
        populations above -POPULATION_TOL."""
        _check(math.inf, ("trace", abs(self.y0.sum() - 1.0), TRACE_TOL),
               ("positivity", -self.y0.min(), POPULATION_TOL))


def _check(delta, *checks) -> None:
    """Raise the first of the (name, value, bound) checks whose value
    is not within its bound, for the sample at detuning ``delta``."""
    for name, value, bound in checks:
        if not value <= bound:
            raise _broken(name, value, bound, delta)


def _broken(name: str, value, bound, delta) -> InvariantViolation:
    value, bound, delta = float(value), float(bound), float(delta)
    return InvariantViolation(
        f"{name} invariant broken at delta_raman={delta!r} rad/s: "
        f"{value:.3e} exceeds bound {bound:.3e}",
        invariant=name, value=value, bound=bound, delta_raman=delta)


def rho_ee_many(params: ModelParams, deltas: np.ndarray) -> np.ndarray:
    """Total excited population at each Raman detuning, batched.

    One :class:`RationalLineshape` factorization; each detuning then
    costs a closed-form 2x2 solve and an 8x2 back-substitution,
    vectorized over all detunings.  Every sample is rebuilt as a full
    10-vector and checked against the full system A(delta): finite
    (else SingularSystem), residual within RESIDUAL_TOL * max(1, gamma_g),
    trace within TRACE_TOL, and ground populations above
    -POPULATION_TOL.  A broken check raises InvariantViolation naming
    the invariant, its value, its bound and the first offending detuning.
    """
    return RationalLineshape(params)(deltas)
