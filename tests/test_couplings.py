"""Rational-arithmetic audits of the transition coefficient tables."""

import dataclasses
from fractions import Fraction

from cptsim import EXCITED_LEVELS, GROUND_LEVELS, build_coupling_tables

F = Fraction


def test_level_orderings():
    assert GROUND_LEVELS == ((2, -2), (2, -1), (2, 0), (2, 1), (2, 2),
                             (1, -1), (1, 0), (1, 1))
    assert EXCITED_LEVELS == GROUND_LEVELS
    assert len(set(GROUND_LEVELS)) == 8


def test_branch_row_for_stretched_excited_sublevel():
    tables = build_coupling_tables()
    row = dict(tables.branch[(2, -2)])
    assert row == {(2, -2): F(1, 3), (2, -1): F(1, 6), (1, -1): F(1, 2)}
    assert sum(row.values()) == 1


def test_every_branch_row_sums_to_one_exactly():
    tables = build_coupling_tables()
    sums = tables.branch_row_sums()
    assert set(sums) == set(EXCITED_LEVELS)
    for level, total in sums.items():
        assert total == F(1), level


def test_branch_matrix_is_doubly_stochastic():
    # each ground sublevel also collects unit total weight, which is what
    # makes the complete-depolarization feed uniform
    tables = build_coupling_tables()
    for level, total in tables.branch_column_sums().items():
        assert total == F(1), level


def test_detailed_balance_pump_vs_excitation():
    # pump coefficient = 2 x excitation prefactor for every route; this
    # is the identity that fixes the corrected pump brackets
    tables = build_coupling_tables()
    assert tables.detailed_balance_defects() == []


def test_pump_brackets_match_expected_totals():
    # per-sublevel pump-out bracket coefficients (u-route, d-route)
    expected = {
        (2, -2): (F(1, 3), F(1)),
        (2, -1): (F(1, 2), F(1, 2)),
        (2, 0): (F(1, 2), F(1, 6)),
        (2, 1): (F(1, 3), F(0)),
        (2, 2): (F(0), F(0)),
        (1, -1): (F(1, 6), F(1, 6)),
        (1, 0): (F(1, 2), F(1, 6)),
        (1, 1): (F(1), F(0)),
    }
    tables = build_coupling_tables()
    for g, (want_u, want_d) in expected.items():
        got_u = sum((c for e, c in tables.pump[g] if e[0] == 2), F(0))
        got_d = sum((c for e, c in tables.pump[g] if e[0] == 1), F(0))
        assert (got_u, got_d) == (want_u, want_d), g


def test_stretched_ground_sublevel_is_non_absorbing():
    tables = build_coupling_tables()
    assert tables.pump[(2, 2)] == ()


def test_dark_state_coherence_weights():
    tables = build_coupling_tables()
    assert tables.coherence_weight == {(2, 1): F(-1, 2), (1, 1): F(-1, 6)}
    # no sigma+ route into the lowest excited sublevel
    assert tables.excitation[(2, -2)] == ()


def test_detailed_balance_defects_names_each_broken_pair():
    tables = build_coupling_tables()
    g, ((e, c), *rest) = next(iter(tables.pump.items()))
    a = dict(tables.excitation[e])[g]
    # a pump coefficient that is not twice its excitation coefficient
    wrong = dataclasses.replace(tables, pump={**tables.pump, g: ((e, c + 1), *rest)})
    assert wrong.detailed_balance_defects() == [(g, e, c + 1, a)]
    # an excitation entry with no pump entry
    missing = dataclasses.replace(tables, pump={**tables.pump, g: tuple(rest)})
    assert missing.detailed_balance_defects() == [(g, e, F(0), a)]
