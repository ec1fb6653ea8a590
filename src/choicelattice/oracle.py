"""Exact linear feasibility.

``exact_feasible`` is the exact simplex behind ``in_delta``: a phase-one
simplex over the ``int`` system that ``in_delta`` builds, pivoted
fraction-free (each row kept as the true row times a positive factor and
reduced by its gcd), that stores no artificial columns and no ``Fraction``
until it reads off the solution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import ChoiceError


def exact_feasible(matrix, rhs) -> list[Fraction] | None:
    """Exact rational solution of A x = b with x >= 0, or None when infeasible.

    A is ``int`` rows and b nonnegative ``int``s, so the artificial basis
    starts feasible; any other b is refused.  Phase-one simplex with Bland's
    rule: deterministic, cycle-free, no floating point anywhere.  The
    tableau is the rows with b appended, and each row is stored as the true
    row times some positive factor.  A pivot on p > 0 in row r replaces
    each row i with a nonzero entry a in the entering column by
    p * row_i - a * row_r, then divides it by the gcd of its entries; the
    factors never need to be known, since the ratio test cross-multiplies
    and the entering rule reads only signs.  The artificial columns are
    never entered and so are not stored: the basis index width + i of
    artificial i remains, for Bland's tie-break.
    """
    if len(matrix) != len(rhs):
        raise ChoiceError("matrix and rhs must align")
    width = len(matrix[0]) if matrix else 0
    tableau: list[list[int]] = []
    for row, b in zip(matrix, rhs):
        if len(row) != width:
            raise ChoiceError("ragged constraint matrix")
        if type(b) is not int or b < 0:
            raise ChoiceError(f"right-hand side {b!r} is not a nonnegative int")
        tableau.append([*row, b])

    basis = [width + i for i in range(len(tableau))]

    # Phase-one objective: drive the artificial mass to zero.  It is the
    # sum of the rows, 0 when there are none.
    obj = [sum(column) for column in zip(*tableau)] or [0]

    while True:
        entering = next((k for k in range(width) if obj[k] > 0), None)
        if entering is None:
            break
        pivot_row = None
        for i, line in enumerate(tableau):
            a = line[entering]
            if a > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                # b_i / a < b_r / a_r, with both sides times a * a_r > 0
                here = line[width] * tableau[pivot_row][entering]
                best = tableau[pivot_row][width] * a
                if here < best or (here == best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-one objective is bounded by zero")
        pivot = tableau[pivot_row]
        p = pivot[entering]
        for i, line in enumerate(tableau):
            if i != pivot_row and line[entering] != 0:
                tableau[i] = _eliminate(line, pivot, p, line[entering])
        obj = _eliminate(obj, pivot, p, obj[entering])
        basis[pivot_row] = entering

    if obj[width] != 0:
        return None

    solution = [Fraction(0)] * width
    for line, var in zip(tableau, basis):
        if var < width:
            solution[var] = Fraction(line[width], line[var])
    return solution


def _eliminate(line: list[int], pivot: list[int], p: int, a: int) -> list[int]:
    """p * line - a * pivot, divided by the gcd of its entries."""
    out = [p * v - a * w for v, w in zip(line, pivot)]
    g = math.gcd(*out)
    if g > 1:
        out = [v // g for v in out]
    return out
