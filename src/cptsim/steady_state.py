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
from numpy.linalg import _umath_linalg

from .couplings import (EXCITED_INDEX, EXCITED_IS_UPPER, EXCITED_LEVELS,
                        GROUND_INDEX, GROUND_LEVELS, build_coupling_tables)
from .errors import InvariantViolation, SingularSystem
from .params import Depolarization, LorentzFactors, ModelParams, lorentz_factors

TABLES = build_coupling_tables()

# Float views of the rational tables.
# _A_EXC[e, g], _W_EXC[e]: excitation prefactors of excited_from_ground.
_A_EXC = np.zeros((8, 8))
_W_EXC = np.zeros(8)
for _e, _rows in TABLES.excitation.items():
    for _g, _a in _rows:
        _A_EXC[EXCITED_INDEX[_e], GROUND_INDEX[_g]] = float(_a)
for _e, _w in TABLES.coherence_weight.items():
    _W_EXC[EXCITED_INDEX[_e]] = float(_w)
_UPPER = np.array(EXCITED_IS_UPPER)
_I20 = GROUND_INDEX[(2, 0)]
_I10 = GROUND_INDEX[(1, 0)]


def _exact_rate_tables(depolarization: Depolarization) -> list:
    """Exact blocks per unit pump rate of each optical branch (0: F_e=2 at
    rate V^2*lu, 1: F_e=1 at V^2*ld), as lists of Fraction (or int 0).

    blocks[k] is the part of A linear in that rate, flattened 10x10: the
    population rows over the ground columns and Re(rho21) (column 8).  A
    route of pump coefficient c from column j into excited level e
    (c = 2a, and 2w for Re(rho21)) puts its pump-out c on row j (for
    Re(rho21), c/2 on each m=0 row) and takes the spontaneous feed off
    the rows e decays to: b*c with branching ratio b in NONE mode, c/8 on
    every row in COMPLETE mode.  So every column sums to 0.
    """
    blocks = [[0] * 100, [0] * 100]
    for e, rows in TABLES.excitation.items():
        k = 0 if EXCITED_IS_UPPER[EXCITED_INDEX[e]] else 1
        routes = [(GROUND_INDEX[g], 2 * a, [GROUND_INDEX[g]]) for g, a in rows]
        if e in TABLES.coherence_weight:
            routes.append((8, 2 * TABLES.coherence_weight[e], [_I20, _I10]))
        for j, c, out in routes:
            for g in out:
                blocks[k][10 * g + j] += c / len(out)
            if depolarization is Depolarization.COMPLETE:
                feed = zip(range(8), [c / 8] * 8)
            else:
                feed = ((GROUND_INDEX[g], b * c) for g, b in TABLES.branch[e])
            for g, f in feed:
                blocks[k][10 * g + j] -= f
    return blocks


def _system_table(blocks: list) -> np.ndarray:
    """The delta-free system [A0 | b | A0[:, 8:]] per unit of each of the
    five scalars of :func:`_delta_free_system` (V^2*lu, V^2*ld, gamma_g,
    D, gamma_g/8), as a (5, 130) float array that reshapes to (5, 10, 13).

    The two rate rows are the exact ``blocks`` of
    :func:`_exact_rate_tables`, rounded once per entry.  The constant rows
    put gamma_g on the diagonal of the population block, -D/2 and +D/2 on
    the m=0 rows of column 9 (the dispersive coupling of the two working
    populations) and gamma_g/8 in the b column.  Columns 11-12 of the
    population rows repeat columns 8-9, so the product holds the
    right-hand sides of the population solve; the coherence rows are zero.
    """
    table = np.zeros((5, 10, 13))
    table[:2, :, :10] = np.array(blocks, dtype=float).reshape(2, 10, 10)
    table[2, range(8), range(8)] = 1.0
    table[3, _I20, 9], table[3, _I10, 9] = -0.5, 0.5
    table[4, :8, 10] = 1.0
    table[:, :8, 11:] = table[:, :8, 8:10]
    return table.reshape(5, 130)


_SYSTEM_TABLE = {mode: _system_table(_exact_rate_tables(mode)) for mode in Depolarization}
# _PUMP_OUT (2, 9), the rho_ee weights per unit pump rate of each branch in
# both modes: gamma * d(rho_ee)/dx, twice the branch's column sums of
# [_A_EXC | _W_EXC], which are exact (one nonzero per column and branch).
_PUMP_OUT = 2.0 * np.array([np.column_stack([_A_EXC, _W_EXC])[rows].sum(axis=0)
                            for rows in (_UPPER, ~_UPPER)])

POPULATION_TOL = 1e-12     # allowed negative excursion of ground populations
TRACE_TOL = 1e-10          # |sum(ground) - 1| bound
RESIDUAL_TOL = 1e-10       # residual bound, relative to max(1, gamma_g)
EXCITED_NEG_TOL = 1e-15    # numerical-noise floor for excited populations

# The check of each of the 19 rows RationalLineshape.certify bounds:
# 0 residual (rows 0-9), 1 trace (row 10), 2 positivity (rows 11-18).
_CHECK_OF_ROW = np.repeat([0, 1, 2], [10, 1, 8])


@dataclass(frozen=True)
class SteadyStateSolution:
    """Solution of the steady-state system for one parameter set.

    ``excited_bare`` holds the excitation-equation values evaluated at
    the solution; ``excited_effective`` is the same distribution after
    the depolarization map (identical to bare in NONE mode).  ``rho_ee``
    is the closed form of a :class:`RationalLineshape` call at the
    detuning; it equals either sum to within rounding, not bit for bit.
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


def _delta_free_system(params: ModelParams,
                       lf: LorentzFactors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A0, b, rhs) of the delta-free system, from the Lorentz factors
    ``lf`` of ``params``: views of one (10, 13) array [A0 | b | A0[:, 8:]],
    with rhs = [b | A0[:8, 8:]] the right-hand sides of the population
    solve.  A0 is A(delta) with 0.0 on the two coherence diagonals.

    Its population rows are one np.dot of the five scalars V^2*lu, V^2*ld,
    gamma_g, D and gamma_g/8 with the mode's exact table (see
    :func:`_system_table`); its coherence rows are zero there, and six of
    their entries are then set one scalar expression each.
    """
    gg = params.gamma_g
    v2 = params.rabi**2
    P = v2 * (lf.lu + lf.ld / 3.0)              # coherence pump rate
    D = lf.du + lf.dd / 3.0                     # dispersive cross-coupling
    M = np.dot((v2 * lf.lu, v2 * lf.ld, gg, D, gg / 8.0),
               _SYSTEM_TABLE[params.depolarization]).reshape(10, 13)

    # Coherence equation, real and imaginary parts.
    width = gg + P / 2.0
    M[8, 9] = -width
    M[8, _I20] = -D / 4.0
    M[8, _I10] = +D / 4.0
    M[9, 8] = width
    M[9, _I20] = -P / 4.0
    M[9, _I10] = -P / 4.0
    return M[:, :10], M[:, 10], M[:8, 10:]


def assemble_linear_system(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Build the 10x10 real system A @ x = b for the unknown ordering above:
    the delta-free system of :class:`RationalLineshape`, with
    ``params.delta_raman`` on the two coherence diagonals.  A and b are
    views of one array.

    The population rows, over all ten columns, and b are one combination
    of the rounded exact tables (see :func:`_system_table`) whose sums
    start from +0.0, so every zero there is +0.0, at V = 0 too.  The six
    coherence-row entries keep the sign their scalar expressions give: at
    V = 0, -P/4 is -0.0 in both m=0 columns of row 9, and -D/4 and +D/4
    in row 8 are zeros of opposite sign, set by the sign of D.  The other
    coherence-row entries are +0.0, or delta_raman as given on the
    diagonals.
    """
    A, b, _ = _delta_free_system(params, lorentz_factors(params))
    A[8, 8] = A[9, 9] = params.delta_raman
    return A, b


def _excited(ground: np.ndarray, coherence: complex, params: ModelParams,
             lf: LorentzFactors) -> np.ndarray:
    """:func:`excited_from_ground` from the Lorentz factors ``lf`` of
    ``params``."""
    scale = 2.0 * params.rabi**2
    prefactor = np.where(_UPPER, scale * lf.lu / params.gamma_nat,
                         scale * lf.ld / params.gamma_nat)
    return prefactor * (_A_EXC @ ground + _W_EXC * coherence.real)


def excited_from_ground(ground: np.ndarray, coherence: complex,
                        params: ModelParams) -> np.ndarray:
    """Excited-state populations implied by a ground-state configuration.

    Implements the excitation equations directly: each sublevel is
    (2 V^2 l_e / gamma) times its excitation bracket.  (F_e=2, m=-2)
    has no sigma+ pathway and is identically zero; the two m=+1
    sublevels carry the dark-state bracket with -2*Re(rho21).
    """
    return _excited(np.asarray(ground, dtype=float), coherence, params,
                    lorentz_factors(params))


def _raise_singular(err, flag):
    """The error callback of np.linalg.solve: LAPACK found a zero pivot."""
    raise np.linalg.LinAlgError("Singular matrix")


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
    :meth:`excess` evaluates the closed form, and :meth:`certify` checks
    the state at every real detuning and as delta -> inf at once, from
    the rows that :func:`solve_steady_state` reads at one detuning.
    Calling the object certifies, then returns the closed form at each
    detuning in one elementwise pass, so the bits of a detuning's rho_ee
    do not depend on the other detunings of the call.

    ``damping`` is the rate at which the coherence rows damp (the entry
    A0[9, 8]); it equals ``lineshape.halfwidth_estimate`` of the
    parameters and sizes the windows of the model metrics.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        lf = lorentz_factors(params)
        A0, _, rhs = _delta_free_system(params, lf)
        self.damping = float(A0[9, 8])
        try:
            # np.linalg.solve's own gufunc call, without its checks and
            # wrapping: the block is always an 8x8 float64 view
            with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                             divide="ignore", under="ignore"):
                Y = _umath_linalg.solve(A0[:8, :8], rhs, signature="dd->d")
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"population block is singular: {exc}") from exc
        self.y0, self.Z = Y[:, 0], Y[:, 1:]
        coupling = A0[8:, :8]
        self.S = A0[8:, 8:] - coupling @ self.Z
        self.r = -(coupling @ self.y0)
        (s00, s01), (s10, s11) = self.S.tolist()
        r0, r1 = self.r.tolist()

        # w = [w_pop | w_coh]: each unknown's pump-out over gamma (c = 2a)
        v2g = params.rabi**2 / params.gamma_nat
        w = np.dot((v2g * lf.lu, v2g * lf.ld), _PUMP_OUT)
        self.c0, z0, z1 = (w[:8] @ Y).tolist()

        g0, g1 = float(w[8]) - z0, 0.0 - z1
        self.q1 = s00 + s11
        self.q0 = s00 * s11 - s01 * s10
        self._hw2 = self.q0 - 0.25 * self.q1 * self.q1
        self.p1 = g0 * r0 + g1 * r1
        self.p0 = g0 * (s11 * r0 - s01 * r1) + g1 * (s00 * r1 - s10 * r0)

        self._A0, self._rhs, self._lf = A0, rhs, lf
        self._residual_bound = RESIDUAL_TOL * max(1.0, params.gamma_g)

    def excess(self, deltas):
        """Closed-form rho_ee(delta) - c0 at a detuning or an array of
        them, unchecked."""
        return (self.p1 * deltas + self.p0) / ((deltas + self.q1) * deltas + self.q0)

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 19 delta-free rows of the state, as (rows, a, b): at delta,
        row i is c + (a[i]*t + b[i]) / (t^2 + hw2) with c = rows[i, 0], t =
        delta + q1/2 and hw2 = q0 - q1^2/4.  The state is (y0 - Z @ x_coh,
        x_coh), with x_coh = (delta*r + adj(S) @ r) / (delta^2 + q1*delta +
        q0) exact, so each row is c - w @ x_coh for rows[i] = [c | w] over
        Y = [y0 | Z], a = -w @ r and b = -w @ adj(S) @ r - a*q1/2.  Rows
        0-9 are the residual A0[:, :8] @ Y - [b | A0[:8, 8:]] of the
        population solve, plus [r | S - A0[8:, 8:]] in rows 8-9 (delta*x_coh
        = r - S @ x_coh); row 10 the column sums of Y less [1 | 0] (trace);
        rows 11-18 Y (the ground populations)."""
        (s00, s01), (s10, s11) = self.S.tolist()
        r0, r1 = self.r.tolist()
        rows = np.empty((19, 3))
        Y = rows[11:]
        Y[:, 0], Y[:, 1:] = self.y0, self.Z
        np.matmul(self._A0[:, :8], Y, out=rows[:10])
        rows[:8] -= self._rhs
        rows[8:10, 0] += self.r
        rows[8:10, 1:] += self.S - self._A0[8:, 8:]
        np.add.reduce(Y, axis=0, out=rows[10])
        rows[10, 0] -= 1.0
        ab = rows[:, 1:] @ np.array([[-r0, s01 * r1 - s11 * r0],
                                     [-r1, s10 * r0 - s00 * r1]])
        a = ab[:, 0]
        return rows, a, ab[:, 1] - (0.5 * self.q1) * a

    def require_no_real_pole(self) -> None:
        """Raise SingularSystem unless the coherence block is regular at
        every real detuning: 0 < hw2 = q0 - q1^2/4 < inf, so the
        denominator of the closed form has no real root; then unless c0,
        p1 and p0, the weights of the closed form, are finite."""
        if not 0.0 < self._hw2 < math.inf:
            raise SingularSystem(
                f"coherence block singular at a real detuning: q0 - q1^2/4 = {self._hw2!r}")
        if not (math.isfinite(self.c0) and math.isfinite(self.p1) and math.isfinite(self.p0)):
            raise SingularSystem("non-finite factorization")

    def certify(self) -> None:
        """Check the state of the factorization at every real detuning and
        as delta -> inf: residual (each row of |A(delta) x - b| within
        RESIDUAL_TOL * max(1, gamma_g)), trace (within TRACE_TOL), then
        positivity (ground populations above -POPULATION_TOL).

        Each row c + (a*t + b) / (t^2 + hw2) of :meth:`_rows` has its
        extremes over real t and t -> inf, with q = b + copysign(hypot(b,
        a*sqrt(hw2)), b), at c + q/(2 hw2) (t = a*hw2/q) and c - a^2/(2q)
        (t = -q/a).

        The first broken check, a NaN value included, raises
        InvariantViolation at its worst detuning (inf for the limit).  A
        real pole (:meth:`require_no_real_pole`) or a non-finite row raises
        SingularSystem.
        """
        self.require_no_real_pole()
        q1, hw2 = self.q1, self._hw2
        rows, a, b = self._rows()
        c = rows[:, 0]
        q = b + np.copysign(np.hypot(b, a * math.sqrt(hw2)), b)
        values = np.empty((2, 19))  # c plus each extreme, one row each
        np.add(c, q / (2.0 * hw2), out=values[0])
        # a/q, and 0 where q = 0, that is a = b' = 0: the row is constant
        np.subtract(c, (0.5 * a) * (a / (q + (q == 0.0))), out=values[1])
        worst = np.abs(values)
        np.negative(values[:, 11:], out=worst[:, 11:])
        bounds = (self._residual_bound, TRACE_TOL, POPULATION_TOL)
        if (worst <= np.array(bounds)[_CHECK_OF_ROW]).all():  # a NaN fails, as in _check
            return
        if not np.isfinite(rows).all():
            raise SingularSystem("non-finite factorization")
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.array([a * hw2 / q, -q / a])
        deltas = np.where(np.isfinite(t), t - 0.5 * q1, math.inf)
        for check, (name, bound) in enumerate(zip(("residual", "trace", "positivity"),
                                                  bounds)):
            cols = _CHECK_OF_ROW == check
            _check(name, worst[:, cols], deltas[:, cols], bound)

    def __call__(self, deltas: np.ndarray) -> np.ndarray:
        """rho_ee at each detuning, after :meth:`certify`: c0 plus
        :meth:`excess`.  SingularSystem names the first detuning whose
        value is not finite."""
        self.certify()
        deltas = np.asarray(deltas, dtype=float).ravel()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho = self.excess(deltas)
            rho += self.c0
        finite = np.isfinite(rho)
        if not finite.all():
            delta = float(deltas[np.argmin(finite)])
            raise SingularSystem(f"non-finite solution at delta_raman={delta!r} rad/s")
        return rho


def _check(name: str, values, deltas, bound: float) -> None:
    """Raise InvariantViolation unless every value is <= bound; a NaN
    value breaks the check.  ``deltas`` holds the detuning of each value,
    or one for all; the error names the largest value (the first NaN, if
    any) and its detuning."""
    i = int(np.argmax(values))
    value = float(np.ravel(values)[i])
    if value <= bound:
        return
    delta = float(np.broadcast_to(deltas, np.shape(values)).flat[i])
    raise InvariantViolation(
        f"{name} invariant broken at delta_raman={delta!r} rad/s: "
        f"{value:.3e} exceeds bound {bound:.3e}",
        invariant=name, value=value, bound=bound, delta_raman=delta)


def solve_steady_state(params: ModelParams) -> SteadyStateSolution:
    """The state at ``params.delta_raman``: the rows of one
    :class:`RationalLineshape` factorization's ``_rows`` at that detuning,
    the coherences as the rows [0 | -I] of the same closed form, and
    rho_ee a call's value there.  It is checked at that detuning only, in
    order: residual and trace as in ``certify``, positivity, population
    (none above 1 + POPULATION_TOL), then excited (none below
    -EXCITED_NEG_TOL).  The first broken check, a NaN value included,
    raises InvariantViolation naming the invariant, its value, its bound
    and the detuning; a singular population block or a non-finite
    population, coherence or rho_ee raises SingularSystem.
    ``residual_norm`` is the largest residual row."""
    model = RationalLineshape(params)
    delta = params.delta_raman
    (s00, s01), (s10, s11) = model.S.tolist()
    r0, r1 = model.r.tolist()
    half_q1 = 0.5 * model.q1
    t = delta + half_q1
    den = t * t + model._hw2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows, a, b = model._rows()
        x = rows[:, 0] + (a * t + b) / den
        # Re and Im rho21, the rows [0 | -I]: a = r, b = adj(S) @ r - r*q1/2
        b_coh = np.array([s11 * r0 - s01 * r1, s00 * r1 - s10 * r0]) - half_q1 * model.r
        coh = (model.r * t + b_coh) / den
        rho = model.excess(np.array([delta]))
        rho += model.c0
    ground = x[11:]
    if not (np.isfinite(ground).all() and np.isfinite(coh).all() and np.isfinite(rho[0])):
        raise SingularSystem(f"non-finite solution at delta_raman={delta!r} rad/s")
    coherence = complex(coh[0], coh[1])
    excited = _excited(ground, coherence, params, model._lf)
    residual = np.abs(x[:10])
    _check("residual", residual, delta, model._residual_bound)
    _check("trace", abs(x[10]), delta, TRACE_TOL)
    _check("positivity", -ground, delta, POPULATION_TOL)
    # g - 1 (exact for g in [1/2, 2]) against (1 + tol) - 1: the test g > 1 + tol
    _check("population", ground - 1.0, delta, (1.0 + POPULATION_TOL) - 1.0)
    _check("excited", -excited, delta, EXCITED_NEG_TOL)
    complete = params.depolarization is Depolarization.COMPLETE
    effective = depolarize(excited) if complete else excited.copy()
    return SteadyStateSolution(params=params, ground=ground, coherence=coherence,
                               excited_bare=excited, excited_effective=effective,
                               rho_ee=float(rho[0]), residual_norm=float(residual.max()))
