"""Exact rational coupling tables for the sigma+ D1 four-level model.

Level bookkeeping
-----------------
Ground sublevels, canonical order (this order fixes every vector and
matrix index in the package):

    index 0..4 : (F_g=2, m=-2), (2,-1), (2,0), (2,+1), (2,+2)
    index 5..7 : (F_g=1, m=-1), (1,0), (1,+1)

Excited sublevels use the same (F, m) layout: F_e=2 ("upper" optical
branch, detuning Delta) occupies indices 0..4 and F_e=1 ("lower"
branch, detuning Delta + omega_e) indices 5..7.  sigma+ light couples
(F_g, m) to (F_e, m+1) on both branches.

Three tables are kept, all with exact ``fractions.Fraction`` entries:

``pump``
    ground -> [(excited, c)]: the pump-out bracket coefficients, i.e.
    the depopulation rate of ground g through excited e is
    c * V^2 * l_e with l_e the branch Lorentz factor (lu or ld).

``branch``
    excited -> [(ground, b)]: spontaneous-emission branching ratios.
    Every row sums to exactly 1 (unit total decay probability).  The
    8x8 branching matrix is doubly stochastic: the coefficients feeding
    any one ground sublevel also sum to 1.

``excitation``
    excited -> [(ground, a)]: steady-state excitation prefactors, i.e.
    rho_e = (2 V^2 l_e / gamma) * [sum_g a*rho_g + w*Re(rho21)].  The
    two sublevels reached from the m=0 pair, (F_e=2, m=+1) and
    (F_e=1, m=+1), carry the dark-state coherence weight w stored in
    ``coherence_weight`` (a-scale, so the pump-scale weight is 2w).

Detailed balance ties the tables together: c = 2a for every
(ground, excited) pair, which is exactly the rate balance
gamma * rho_e = (pump-out into e).  Only the branching and excitation
tables are typed in; ``pump`` is derived from ``excitation`` by this
identity, which is validated on construction and again in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Level = tuple[int, int]

GROUND_LEVELS: tuple[Level, ...] = (
    (2, -2), (2, -1), (2, 0), (2, 1), (2, 2),
    (1, -1), (1, 0), (1, 1),
)
EXCITED_LEVELS: tuple[Level, ...] = (
    (2, -2), (2, -1), (2, 0), (2, 1), (2, 2),
    (1, -1), (1, 0), (1, 1),
)

GROUND_INDEX = {lvl: i for i, lvl in enumerate(GROUND_LEVELS)}
EXCITED_INDEX = {lvl: i for i, lvl in enumerate(EXCITED_LEVELS)}

# True where the excited sublevel belongs to F_e=2 (Lorentz factor lu).
EXCITED_IS_UPPER: tuple[bool, ...] = tuple(f == 2 for f, _ in EXCITED_LEVELS)

F = Fraction

_BRANCH: dict[Level, tuple[tuple[Level, Fraction], ...]] = {
    (2, -2): (((2, -2), F(1, 3)), ((2, -1), F(1, 6)), ((1, -1), F(1, 2))),
    (2, -1): (((2, -2), F(1, 6)), ((2, -1), F(1, 12)), ((1, -1), F(1, 4)),
              ((2, 0), F(1, 4)), ((1, 0), F(1, 4))),
    (2, 0):  (((2, -1), F(1, 4)), ((1, -1), F(1, 12)), ((1, 0), F(1, 3)),
              ((2, 1), F(1, 4)), ((1, 1), F(1, 12))),
    (2, 1):  (((2, 0), F(1, 4)), ((1, 0), F(1, 4)), ((2, 1), F(1, 12)),
              ((1, 1), F(1, 4)), ((2, 2), F(1, 6))),
    (2, 2):  (((2, 1), F(1, 6)), ((1, 1), F(1, 2)), ((2, 2), F(1, 3))),
    (1, -1): (((2, -2), F(1, 2)), ((2, -1), F(1, 4)), ((1, -1), F(1, 12)),
              ((2, 0), F(1, 12)), ((1, 0), F(1, 12))),
    (1, 0):  (((2, -1), F(1, 4)), ((1, -1), F(1, 12)), ((2, 0), F(1, 3)),
              ((2, 1), F(1, 4)), ((1, 1), F(1, 12))),
    (1, 1):  (((2, 0), F(1, 12)), ((1, 0), F(1, 12)), ((2, 1), F(1, 4)),
              ((1, 1), F(1, 12)), ((2, 2), F(1, 2))),
}

_EXCITATION: dict[Level, tuple[tuple[Level, Fraction], ...]] = {
    (2, -2): (),
    (2, -1): (((2, -2), F(1, 6)),),
    (2, 0):  (((2, -1), F(1, 4)), ((1, -1), F(1, 12))),
    (2, 1):  (((2, 0), F(1, 4)), ((1, 0), F(1, 4))),
    (2, 2):  (((2, 1), F(1, 6)), ((1, 1), F(1, 2))),
    (1, -1): (((2, -2), F(1, 2)),),
    (1, 0):  (((2, -1), F(1, 4)), ((1, -1), F(1, 12))),
    (1, 1):  (((2, 0), F(1, 12)), ((1, 0), F(1, 12))),
}

# Detailed balance, c = 2a: each pump route is an excitation route read
# from the ground side, listed in excited-level order.
_PUMP: dict[Level, tuple[tuple[Level, Fraction], ...]] = {
    g: tuple((e, 2 * a) for e, rows in _EXCITATION.items() for gr, a in rows if gr == g)
    for g in GROUND_LEVELS
}

# a-scale coefficient of Re(rho21) for the sublevels fed by the m=0 pair.
_COHERENCE_WEIGHT: dict[Level, Fraction] = {
    (2, 1): F(-1, 2),
    (1, 1): F(-1, 6),
}


@dataclass(frozen=True)
class CouplingTables:
    pump: dict[Level, tuple[tuple[Level, Fraction], ...]]
    branch: dict[Level, tuple[tuple[Level, Fraction], ...]]
    excitation: dict[Level, tuple[tuple[Level, Fraction], ...]]
    coherence_weight: dict[Level, Fraction]

    def branch_row_sums(self) -> dict[Level, Fraction]:
        return {e: sum((b for _, b in rows), F(0)) for e, rows in self.branch.items()}

    def branch_column_sums(self) -> dict[Level, Fraction]:
        sums = {g: F(0) for g in GROUND_LEVELS}
        for rows in self.branch.values():
            for g, b in rows:
                sums[g] += b
        return sums

    def detailed_balance_defects(self) -> list[tuple[Level, Level, Fraction, Fraction]]:
        """Pairs where pump coefficient != 2 * excitation coefficient."""
        exc = {(e, g): a for e, rows in self.excitation.items() for g, a in rows}
        defects = []
        for g, rows in self.pump.items():
            for e, c in rows:
                a = exc.get((e, g), F(0))
                if c != 2 * a:
                    defects.append((g, e, c, a))
        # also catch excitation entries with no pump counterpart
        pump = {(g, e): c for g, rows in self.pump.items() for e, c in rows}
        for (e, g), a in exc.items():
            if (g, e) not in pump:
                defects.append((g, e, F(0), a))
        return defects


def build_coupling_tables() -> CouplingTables:
    """Return the exact rational coefficient tables, self-checked."""
    tables = CouplingTables(pump=dict(_PUMP), branch=dict(_BRANCH),
                            excitation=dict(_EXCITATION),
                            coherence_weight=dict(_COHERENCE_WEIGHT))
    for e, total in tables.branch_row_sums().items():
        if total != 1:
            raise RuntimeError(f"branch row {e} sums to {total}, expected 1")
    defects = tables.detailed_balance_defects()
    if defects:
        raise RuntimeError(f"pump/excitation detailed balance broken: {defects}")
    return tables
