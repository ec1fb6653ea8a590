"""Exact linear feasibility and exhaustive enumerators.

``exact_feasible`` is the exact simplex behind ``in_delta``.  The two
enumerators list every choice function of a domain and every strict order
of a symbol set; the tests use them as brute-force references.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .core import ChoiceDomain, ChoiceError, GuardError

ZERO = Fraction(0)
ONE = Fraction(1)

FUNCTION_GUARD = 1_000_000


def all_choice_functions(domain: ChoiceDomain):
    """Every choice function of the domain (cartesian product of picks)."""
    from .models import ChoiceModel

    total = 1
    for s in domain.sets:
        total *= len(s)
    if total > FUNCTION_GUARD:
        raise GuardError(f"{total} choice functions exceed the guard "
                         f"of {FUNCTION_GUARD}")
    return ChoiceModel.from_picks(domain, itertools.product(*domain.sets))


ORDERING_GUARD_N = 8


def all_orderings(symbols: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """All strict total orders, lexicographic in the given symbol sequence."""
    if len(symbols) > ORDERING_GUARD_N:
        raise GuardError(f"ordering enumeration is guarded at n <= {ORDERING_GUARD_N}")
    return tuple(itertools.permutations(tuple(str(s) for s in symbols)))


def exact_feasible(matrix, rhs) -> list[Fraction] | None:
    """Exact rational solution of A x = b with x >= 0, or None when infeasible.

    Phase-one simplex with Bland's rule: deterministic, cycle-free, no
    floating point anywhere.
    """
    if len(matrix) != len(rhs):
        raise ChoiceError("matrix and rhs must align")
    width = len(matrix[0]) if matrix else 0
    tableau: list[list[Fraction]] = []
    for row, b in zip(matrix, rhs):
        if len(row) != width:
            raise ChoiceError("ragged constraint matrix")
        line = [Fraction(v) for v in row] + [Fraction(b)]
        if line[width] < 0:
            line = [-v for v in line]
        tableau.append(line)

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
