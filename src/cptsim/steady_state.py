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
from .params import Depolarization, ModelParams, lorentz_factors

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
_I20 = GROUND_INDEX[(2, 0)]
_I10 = GROUND_INDEX[(1, 0)]

POPULATION_TOL = 1e-12     # allowed negative excursion of ground populations
TRACE_TOL = 1e-10          # |sum(ground) - 1| bound
RESIDUAL_TOL = 1e-10       # residual bound, relative to max(1, gamma_g)
EXCITED_NEG_TOL = 1e-15    # numerical-noise floor for excited populations

# Detunings per block of a checked call: a (10, block) array of doubles
# (about 320 kB) stays in cache, and memory stays bounded by one block.
BLOCK_SIZE = 4096


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

    def ground_as_dict(self) -> dict[tuple[int, int], float]:
        return {lvl: float(v) for lvl, v in zip(GROUND_LEVELS, self.ground)}

    def excited_as_dict(self, effective: bool = True) -> dict[tuple[int, int], float]:
        arr = self.excited_effective if effective else self.excited_bare
        return {lvl: float(v) for lvl, v in zip(EXCITED_LEVELS, arr)}


def assemble_linear_system(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Build the 10x10 real system A @ x = b for the unknown ordering above.

    The population block is written once, as 0 - (spontaneous feed) with
    the relaxation and pump-out then added on its diagonal; every other
    nonzero entry is set on its own.  An entry that starts from a feed or
    coupling term is written as 0.0 minus (or plus) that term, as an
    update of a zero matrix gives it, so a zero term leaves +0.0 there.
    """
    lf = lorentz_factors(params)
    gg = params.gamma_g
    # excitation rates: gamma*rho_e = K @ ground + kw*Re(rho21)
    v2 = params.rabi**2
    vl = np.where(_IS_UPPER, v2 * lf.lu, v2 * lf.ld)  # V^2 l_e
    K, kw = vl[:, None] * _C, vl * _W

    P = v2 * (lf.lu + lf.ld / 3.0)              # coherence pump rate
    D = lf.du + lf.dd / 3.0                     # dispersive cross-coupling

    A = np.zeros((10, 10))
    b = np.zeros(10)

    # Population rows: spontaneous feed, entering with a minus sign on
    # the left, then relaxation + pump-out on the diagonal.  The pump-out
    # of ground g is the column sum of K (all routes out).
    pump_out = K.sum(axis=0)
    if params.depolarization is Depolarization.COMPLETE:
        # Every ground sublevel receives gamma*mean(excited); the
        # branching matrix is doubly stochastic so the row weight is 1.
        feed, feed_coh = pump_out / 8.0, kw.sum() / 8.0
    else:
        feed, feed_coh = _B @ K, _B @ kw
    np.subtract(0.0, feed, out=A[:8, :8])
    A.reshape(-1)[:80:11] += gg + pump_out  # the diagonal of A[:8, :8]
    np.subtract(0.0, feed_coh, out=A[:8, 8])
    b[:8] = gg / 8.0

    # Direct coherence coupling of the two working (m=0) populations.
    A[_I20, 8] -= P / 2.0
    A[_I20, 9] = 0.0 - D / 2.0
    A[_I10, 8] -= P / 2.0
    A[_I10, 9] = 0.0 + D / 2.0

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


def _excitation_prefactor(params: ModelParams) -> np.ndarray:
    """2 V^2 l_e / gamma of each excited sublevel, in EXCITED_LEVELS order."""
    lf = lorentz_factors(params)
    scale = 2.0 * params.rabi**2
    return np.where(_IS_UPPER, scale * lf.lu / params.gamma_nat,
                    scale * lf.ld / params.gamma_nat)


def excited_from_ground(ground: np.ndarray, coherence: complex,
                        params: ModelParams) -> np.ndarray:
    """Excited-state populations implied by a ground-state configuration.

    Implements the excitation equations directly: each sublevel is
    (2 V^2 l_e / gamma) times its excitation bracket.  (F_e=2, m=-2)
    has no sigma+ pathway and is identically zero; the two m=+1
    sublevels carry the dark-state bracket with -2*Re(rho21).
    """
    ground = np.asarray(ground, dtype=float)
    return _excitation_prefactor(params) * (_A_EXC @ ground + _W_EXC * coherence.real)


def depolarize(excited: np.ndarray) -> np.ndarray:
    """Replace every sublevel population with the arithmetic mean of all 8."""
    excited = np.asarray(excited, dtype=float)
    return np.full_like(excited, excited.mean())


class RationalLineshape:
    """rho_ee(delta) of one parameter set, from one factorization.

    The detuning enters the system only on the diagonal of the two
    coherence rows, so the 8x8 population block is delta-free.  It is
    solved once, for b and the two coherence columns, which leaves the
    2x2 Schur complement S with right-hand side r:

        (S + delta*I) @ x[8:] = r,   x[:8] = y0 - Z @ x[8:].

    rho_ee is linear in x, with weights w_pop on the ground populations
    and w_coh on Re(rho21), so it is c0 + g.x[8:] with c0 = w_pop.y0, the
    delta -> inf limit, and g = (w_coh, 0) - Z^T w_pop.  Since
    (S + delta*I)^-1 = (adj(S) + delta*I) / det(S + delta*I), it is
    exactly the rational function

        rho_ee(delta) = c0 + (p1*delta + p0) / (delta^2 + q1*delta + q0)

    with q1 = tr S, q0 = det S, p1 = g.r and p0 = g.adj(S).r.
    :meth:`excess` evaluates the closed form.  Calling the object solves
    and checks every detuning and returns c0 + g.x[8:] of each sample,
    elementwise in the two coherences, so the bits of a detuning's rho_ee
    do not depend on the other detunings of the call (see
    :func:`solve_steady_state`).  The samples of a call are the columns
    of a (10, n) array, one contiguous row per unknown, so every store
    and check runs along whole rows.
    :meth:`check_limit` checks the delta -> inf state.

    ``damping`` is the rate at which the coherence rows damp (the entry
    A0[9, 8]); it equals ``lineshape.halfwidth_estimate`` of the
    parameters and sizes the windows of the model metrics.  Each call
    reuses the scalars of S and r, the b column and the residual bound
    formed here.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        A0, b = assemble_linear_system(params)
        A0[8, 8] = A0[9, 9] = 0.0  # the delta-free part
        self.damping = float(A0[9, 8])
        rhs = np.empty((8, 3))
        rhs[:, 0], rhs[:, 1:] = b[:8], A0[:8, 8:]
        try:
            Y = np.linalg.solve(A0[:8, :8], rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"population block is singular: {exc}") from exc
        self.y0, self.Z = Y[:, 0], Y[:, 1:]
        coupling = A0[8:, :8]
        self.S = A0[8:, 8:] - coupling @ self.Z
        self.r = -(coupling @ self.y0)
        (s00, s01), (s10, s11) = self.S.tolist()
        r0, r1 = self.r.tolist()
        # the delta-free terms of each 2x2 solve (see _solve)
        self._coherence_terms = (s00, s11, s01 * s10, r0, r1, s01 * r1, s10 * r0)

        prefac = _excitation_prefactor(params)
        w_pop = _A_EXC.T @ prefac
        w_coh = float(_W_EXC @ prefac)
        z0, z1 = (self.Z.T @ w_pop).tolist()

        self.g0, self.g1 = g0, g1 = w_coh - z0, 0.0 - z1
        self.c0 = float(w_pop @ self.y0)
        self.q1 = s00 + s11
        self.q0 = s00 * s11 - s01 * s10
        self.p1 = g0 * r0 + g1 * r1
        self.p0 = g0 * (s11 * r0 - s01 * r1) + g1 * (s00 * r1 - s10 * r0)

        self._A0, self._b, self._b_col = A0, b, b[:, None]
        self._residual_bound = RESIDUAL_TOL * max(1.0, params.gamma_g)

    def excess(self, deltas):
        """Closed-form rho_ee(delta) - c0 at a detuning or an array of
        them, unchecked."""
        return (self.p1 * deltas + self.p0) / ((deltas + self.q1) * deltas + self.q0)

    def __call__(self, deltas: np.ndarray) -> np.ndarray:
        """rho_ee at each detuning, each sample solved and checked.

        The detunings are solved and checked in blocks of BLOCK_SIZE into
        one preallocated array, so the memory of a large call is bounded
        by one block.  The verdict is the one a single check of the whole
        input gives: SingularSystem at the first non-finite sample, else
        the first of residual, trace and positivity that any sample
        breaks, at the first detuning that breaks it.
        """
        deltas = np.asarray(deltas, dtype=float).ravel()
        n = deltas.size
        rho = np.empty(n)
        broken, n_checks = None, None
        for start in range(0, max(n - 1, 1), BLOCK_SIZE):
            # a last block of one detuning joins the one before: numpy
            # forms _solve's products of one column as matrix-vector
            # products, whose bits can differ, so the verdict's value is
            # that of one whole check
            stop = n if n - start <= BLOCK_SIZE + 1 else start + BLOCK_SIZE
            block = deltas[start:stop]
            x, resid = self._solve(block)
            # only a check ordered before the one already broken can win
            checks = self._checks(x, resid)[:n_checks]
            try:
                _screen(block, *checks)
            except InvariantViolation as exc:
                broken = exc
                n_checks = [name for name, _, _ in checks].index(exc.invariant)
            if broken is None:
                rho[start:stop] = self.c0 + (self.g0 * x[8] + self.g1 * x[9])
        if broken is not None:
            raise broken
        return rho

    def _checked(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_solve` at each detuning, after one :func:`_screen` of
        every sample against :meth:`_checks`."""
        x, resid = self._solve(deltas)
        _screen(deltas, *self._checks(x, resid))
        return x, resid

    def _checks(self, x: np.ndarray, resid: np.ndarray) -> tuple:
        """The checks of solved samples, in order: residual (every row of
        |A(delta) x - b| within RESIDUAL_TOL * max(1, gamma_g)), trace
        (within TRACE_TOL), then positivity (ground populations above
        -POPULATION_TOL).  A NaN value breaks its check.

        The trace of each column is the pairwise sum numpy gives 8
        contiguous values, ((p0+p1)+(p2+p3))+((p4+p5)+(p6+p7)), formed
        over the eight population rows as sums of row pairs, so its bits
        do not depend on the layout."""
        p = x[:8]
        pairs = p[0::2] + p[1::2]           # p0+p1, p2+p3, p4+p5, p6+p7
        halves = pairs[0::2] + pairs[1::2]  # the two sums of four
        trace = halves[0] + halves[1]
        return (("residual", resid, self._residual_bound),
                ("trace", np.abs(trace - 1.0), TRACE_TOL),
                ("positivity", -p, POPULATION_TOL))

    def _solve(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The full 10-vector at each detuning, as the columns of a
        (10, n) array with one contiguous row per unknown, and the
        absolute residual of each row of A(delta), in the same layout;
        SingularSystem if a sample is not finite.

        Each coherence pair is Cramer's rule on S + delta*I, with the
        products of two scalars of S and r formed in ``__init__``."""
        s00, s11, s01s10, r0, r1, s01r1, s10r0 = self._coherence_terms
        a = s00 + deltas
        d = s11 + deltas
        x = np.empty((10, deltas.size))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det = a * d - s01s10
            np.divide(d * r0 - s01r1, det, out=x[8])
            np.divide(a * r1 - s10r0, det, out=x[9])
            x[:8] = self.y0[:, None] - self.Z @ x[8:]
        if not np.isfinite(x).all():
            i = int(np.argmin(np.isfinite(x).all(axis=0)))
            raise SingularSystem(
                f"non-finite solution at delta_raman={float(deltas[i])!r} rad/s")

        # residual of the full A(delta) = A0 + delta*(e8 e8^T + e9 e9^T)
        resid = self._A0 @ x
        resid -= self._b_col
        resid[8:] += deltas * x[8:]
        np.abs(resid, out=resid)
        return x, resid

    def check_limit(self) -> None:
        """Check the delta -> inf state (ground populations y0, no
        coherence), whose rho_ee is c0, as a one-sample :func:`_screen`
        at delta = inf: trace within TRACE_TOL, then populations above
        -POPULATION_TOL.  A NaN value breaks its check."""
        _screen(np.array([math.inf]),
                ("trace", abs(np.add.reduce(self.y0) - 1.0), TRACE_TOL),
                ("positivity", -self.y0, POPULATION_TOL))


def _screen(deltas: np.ndarray, *checks) -> None:
    """Raise InvariantViolation for the first of the (name, values, bound)
    checks, in the order given, that some sample breaks.

    ``values`` holds one column of values per detuning in ``deltas``: its
    last axis runs over the detunings.  A value that is not <= bound
    breaks the check, NaN included.  The error names the first detuning
    that breaks it, with that column's max as the value.
    """
    for name, values, bound in checks:
        # one reduction screens (a NaN max breaks it too); the
        # per-detuning view is formed only on failure
        if np.maximum.reduce(values, axis=None, initial=-math.inf) <= bound:
            continue
        cols = values.reshape(-1, deltas.size).T
        i = int(np.argmax(~(cols <= bound).all(axis=1)))
        value, bound, delta = float(cols[i].max()), float(bound), float(deltas[i])
        raise InvariantViolation(
            f"{name} invariant broken at delta_raman={delta!r} rad/s: "
            f"{value:.3e} exceeds bound {bound:.3e}",
            invariant=name, value=value, bound=bound, delta_raman=delta)


def solve_steady_state(params: ModelParams) -> SteadyStateSolution:
    """Solve the steady-state system at ``params.delta_raman``.

    The solve is the checked call of :class:`RationalLineshape` at that
    one detuning: one factorization of the delta-free population block,
    then the 2x2 coherence solve and the back-substitution.  Its residual,
    trace and positivity checks are followed by one more :func:`_screen`:
    population (none above 1 + POPULATION_TOL), then excited (none below
    -EXCITED_NEG_TOL).  The first broken check, a NaN value included,
    raises InvariantViolation naming the invariant, its value, its bound
    and the detuning.  A singular population block raises SingularSystem,
    and so does a non-finite solution, naming the detuning.
    ``residual_norm`` is the max of |A(delta) x - b|.
    """
    deltas = np.array([params.delta_raman])
    x, resid = RationalLineshape(params)._checked(deltas)
    ground = x[:8, 0]
    coherence = complex(x[8, 0], x[9, 0])
    excited = excited_from_ground(ground, coherence, params)
    # g - 1 (exact for g in [1/2, 2]) against (1 + tol) - 1: the test g > 1 + tol
    _screen(deltas, ("population", ground - 1.0, (1.0 + POPULATION_TOL) - 1.0),
            ("excited", -excited, EXCITED_NEG_TOL))
    if params.depolarization is Depolarization.COMPLETE:
        effective = depolarize(excited)
    else:
        effective = excited.copy()

    return SteadyStateSolution(
        params=params,
        ground=ground,
        coherence=coherence,
        excited_bare=excited,
        excited_effective=effective,
        rho_ee=float(excited.sum()),
        residual_norm=float(resid.max()),
    )

