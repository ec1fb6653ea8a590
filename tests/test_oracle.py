"""The integer simplex of ``oracle.exact_feasible`` against the dense
``Fraction`` simplex kept in ``lp_reference``, both on the same ``int``
systems with nonnegative right-hand sides."""

import math
import random
from fractions import Fraction

import pytest

from choicelattice import ChoiceError
from choicelattice.oracle import exact_feasible

from lp_reference import dense_feasible

F = Fraction


def _entry(rng):
    kind = rng.random()
    if kind < 0.35:
        return 0
    if kind < 0.6:
        return rng.randint(-3, 4)
    return F(rng.randint(-5, 6), rng.randint(1, 6))


def _system(rng):
    """A random system with rational entries.

    Each is built around a nonnegative point, some with a row that vanishes
    on the point's support (right-hand side 0), and half then perturb one
    right-hand side, which often makes them infeasible.  A column may be
    zeroed, and a row may be repeated with a rational factor.
    """
    m, width = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[_entry(rng) for _ in range(width)] for _ in range(m)]
    if rng.random() < 0.3:
        dead = rng.randrange(width)
        for row in rows:
            row[dead] = 0
    x = [F(rng.randint(0, 5), rng.randint(1, 4)) if rng.random() < 0.6 else 0
         for _ in range(width)]
    if rng.random() < 0.3:
        row = rows[rng.randrange(m)]
        for k in range(width):
            if x[k]:
                row[k] = 0
    if rng.random() < 0.3:
        factor = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
        rows.append([factor * v for v in rows[rng.randrange(m)]])
    rhs = [sum(v * w for v, w in zip(row, x)) for row in rows]
    if rng.random() < 0.5:
        i = rng.randrange(len(rhs))
        rhs[i] += F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 4))
    return rows, rhs


def _membership_system(rng):
    """0/1 columns of random choice functions on 2 + 3 + 4 members, with
    every (set, member) row and the unit-mass row: redundant and degenerate,
    so ties in the ratio test are common.  The right-hand side mixes some
    columns, and half the time one random function outside them as well."""
    sizes = (2, 3, 4)
    cols = [[rng.randrange(k) for k in sizes] for _ in range(rng.randint(2, 9))]
    mix = rng.sample(cols, rng.randint(1, len(cols)))
    if rng.random() < 0.5:
        mix[-1] = [rng.randrange(k) for k in sizes]
    weights = [F(rng.randint(1, 4)) for _ in mix]
    weights = [w / sum(weights) for w in weights]
    rows, rhs = [], []
    for si, k in enumerate(sizes):
        for x in range(k):
            rows.append([int(c[si] == x) for c in cols])
            rhs.append(sum(w for w, c in zip(weights, mix) if c[si] == x))
    rows.append([1] * len(cols))
    rhs.append(F(1))
    return rows, rhs


def _integral(rows, rhs):
    """The same solutions as ``int`` rows with b >= 0: each row times the
    lcm of its denominators, negated where its right-hand side is negative."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        line = [F(v) for v in (*row, b)]
        scale = math.lcm(*(v.denominator for v in line))
        line = [int(v * (-scale if b < 0 else scale)) for v in line]
        out_rows.append(line[:-1])
        out_rhs.append(line[-1])
    return out_rows, out_rhs


def _satisfies(rows, rhs, x):
    return (all(v >= 0 for v in x)
            and all(sum(F(a) * v for a, v in zip(row, x)) == b
                    for row, b in zip(rows, rhs)))


def test_matches_dense_reference():
    rng = random.Random(2212)
    seen = {"feasible": 0, "infeasible": 0, "negative rhs": 0, "zero rhs": 0,
            "zero column": 0, "membership feasible": 0,
            "membership infeasible": 0}
    for trial in range(600):
        membership = trial % 3 == 0
        rows, rhs = (_membership_system if membership else _system)(rng)
        int_rows, int_rhs = _integral(rows, rhs)
        got = exact_feasible(int_rows, int_rhs)
        assert got == dense_feasible(int_rows, int_rhs), (int_rows, int_rhs)
        if got is None:
            seen["infeasible"] += 1
            seen["membership infeasible"] += membership
        else:
            assert _satisfies(int_rows, int_rhs, got)
            assert _satisfies(rows, rhs, got)
            assert all(type(v) is Fraction for v in got)
            seen["feasible"] += 1
            seen["membership feasible"] += membership
        seen["negative rhs"] += any(b < 0 for b in rhs)
        seen["zero rhs"] += any(b == 0 for b in rhs)
        seen["zero column"] += any(all(row[k] == 0 for row in rows)
                                   for k in range(len(rows[0])))
    assert min(seen.values()) >= 30, seen


def test_tie_break_picks_the_vertex():
    # A feasible system with more than one solution, on which the smallest
    # basis index among tied rows in the ratio test leads to this vertex and
    # the largest leads to another, (3, 0, 0, 2, 1, 6, 4, 1).
    rows = [[0, 1, 0, 0, 1, 0, 0, 1], [1, 0, 1, 1, 0, 1, 1, 0],
            [0, 1, 1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0],
            [1, 0, 0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 1], [0, 0, 0, 1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 1, 0], [1, 1, 1, 1, 1, 1, 1, 1]]
    rhs = [2, 15, 1, 4, 12, 4, 7, 2, 4, 17]
    expect = [F(v) for v in (3, 0, 1, 2, 0, 5, 4, 2)]
    assert exact_feasible(rows, rhs) == dense_feasible(rows, rhs) == expect


def test_empty_systems():
    for rows, rhs, expect in (([], [], []), ([[]], [0], []),
                              ([[]], [1], None), ([[], []], [0, 1], None)):
        assert exact_feasible(rows, rhs) == expect
        assert dense_feasible(rows, rhs) == expect


def test_malformed_input():
    with pytest.raises(ChoiceError, match="must align"):
        exact_feasible([[1, 2]], [1, 2])
    with pytest.raises(ChoiceError, match="ragged"):
        exact_feasible([[1, 2], [1]], [1, 1])
    for b in (-1, F(1, 2), F(2), 1.0):
        with pytest.raises(ChoiceError, match="not a nonnegative int"):
            exact_feasible([[1, 1]], [b])
