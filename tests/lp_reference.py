"""Reference solver for the tests: the dense ``Fraction`` simplex.

A phase-one simplex with Bland's rule that keeps every tableau entry as a
``Fraction`` and carries one artificial column per row.  It takes the
system that ``choicelattice.oracle.exact_feasible`` takes, ``int`` rows and
nonnegative ``int`` right-hand sides, and on that same system the integer,
fraction-free solver must give the same verdict and the same solution
vector.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def dense_feasible(matrix, rhs) -> list[Fraction] | None:
    """Exact rational solution of A x = b with x >= 0, or None when infeasible."""
    assert len(matrix) == len(rhs)
    width = len(matrix[0]) if matrix else 0
    tableau: list[list[Fraction]] = []
    for row, b in zip(matrix, rhs):
        assert len(row) == width and b >= 0
        tableau.append([Fraction(v) for v in row] + [Fraction(b)])

    m = len(tableau)
    total = width + m  # artificials appended
    for i, line in enumerate(tableau):
        line[width:width] = [ONE if k == i else ZERO for k in range(m)]
    basis = [width + i for i in range(m)]

    # Phase-one objective: drive the artificial mass to zero.
    obj = [ZERO] * (total + 1)
    for line in tableau:
        for k in range(total + 1):
            obj[k] += line[k]

    while True:
        entering = next((k for k in range(width) if obj[k] > 0), None)
        if entering is None:
            break
        pivot_row, best = None, None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][total] / a
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[pivot_row])):
                    best, pivot_row = ratio, i
        if pivot_row is None:
            raise AssertionError("phase-one objective is bounded by zero")
        piv = tableau[pivot_row][entering]
        tableau[pivot_row] = [v / piv for v in tableau[pivot_row]]
        for i in range(m):
            if i != pivot_row and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [v - f * w for v, w in zip(tableau[i], tableau[pivot_row])]
        f = obj[entering]
        obj = [v - f * w for v, w in zip(obj, tableau[pivot_row])]
        basis[pivot_row] = entering

    if obj[total] != 0:
        return None

    solution = [ZERO] * width
    for i, var in enumerate(basis):
        if var < width:
            solution[var] = tableau[i][total]
    return solution
