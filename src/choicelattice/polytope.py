"""The cumulative-monotonicity inequality system and its polytope.

Materializes the five row families bounding cumulative random choice,
checks the two-nonzero opposite-sign condition that certifies total
unimodularity, and maps choice functions to and from the 0/1 points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import (ChoiceDomain, ChoiceError, ChoiceFunction, _same_domain,
                   order_ranks)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows of {-1, 0, +1} coefficients over (alternative, set) columns.

    ``columns[k] = (set_position, alternative)``; row ``tags`` name the
    inequality family (1-5) that generated each row.
    """

    domain: ChoiceDomain = field(hash=False)
    global_order: tuple[int, ...] = ()
    columns: tuple[tuple[int, int], ...] = ()
    rows: tuple[tuple[int, ...], ...] = ()
    rhs: tuple[int, ...] = ()
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        width = len(self.columns)
        if not (len(self.rows) == len(self.rhs) == len(self.tags)):
            raise ChoiceError("rows, rhs, and tags must align")
        for row in self.rows:
            if len(row) != width:
                raise ChoiceError("ragged constraint row")
            if any(v not in (-1, 0, 1) for v in row):
                raise ChoiceError("row entries must be -1, 0, or 1")
        if any(v not in (0, 1) for v in self.rhs):
            raise ChoiceError("right-hand sides must be 0 or 1")


def build_constraints(domain: ChoiceDomain,
                      global_order: Sequence[str]) -> ConstraintSystem:
    """Instantiate row families (1)-(5) over every (alternative, set) column.

    Column (y, S) holds the mass strictly above y in S.  For y and x in S:
    (1) when x is below y, removing x cannot lower the mass at or above y,
    which is the column of y's successor (the row is skipped when y is the
    worst member of S minus x, where that mass is one);
    (2) when x is above y, removing x cannot raise the mass above y;
    (3) the cumulative grows weakly down each set's ranking; (4) it is
    capped by one at the worst member; (5) it is zero at the best member.
    Right-hand sides are 1 for (4) and 0 for the rest.

    Rows of families (1) and (2) follow ``ChoiceDomain.comparisons``, the
    table the random axioms read, so they come in (S, x, y) order; the
    other families follow the sets and each set's ranking.
    """
    domain.require_full("the constraint system")
    order = domain.order_index(global_order)
    grank = order_ranks(order, domain.n)
    alts = domain.alternatives
    ranked_sets = [sorted(s, key=grank.__getitem__) for s in domain.sets]
    succ = [dict(zip(s, s[1:])) for s in ranked_sets]
    columns = tuple((si, x) for si, s in enumerate(ranked_sets) for x in s)
    col = {pair: k for k, pair in enumerate(columns)}
    width = len(columns)

    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []
    tags: list[str] = []

    def add(entries, b, tag):
        row = [0] * width
        for k, v in entries:
            row[k] = v
        rows.append(tuple(row))
        rhs.append(b)
        tags.append(tag)

    def name(si):
        return "".join(domain.set_symbols(si))

    for si, x, sub, y, _, _ in domain.comparisons:
        if grank[x] < grank[y]:
            add([(col[(sub, y)], 1), (col[(si, y)], -1)], 0,
                f"2 S={name(si)} y={alts[y]} x={alts[x]}")
        elif y in succ[sub]:
            add([(col[(si, succ[si][y])], 1),
                 (col[(sub, succ[sub][y])], -1)], 0,
                f"1 S={name(si)} y={alts[y]} x={alts[x]}")
    for si, s in enumerate(ranked_sets):
        for x, below in succ[si].items():
            add([(col[(si, x)], 1), (col[(si, below)], -1)], 0,
                f"3 S={name(si)} x={alts[x]}")
    for si, s in enumerate(ranked_sets):
        add([(col[(si, s[-1])], 1)], 1, f"4 S={name(si)}")
    for si, s in enumerate(ranked_sets):
        add([(col[(si, s[0])], 1)], 0, f"5 S={name(si)}")

    return ConstraintSystem(domain, order, columns,
                            tuple(rows), tuple(rhs), tuple(tags))


def heller_check(system: ConstraintSystem) -> bool:
    """Sufficient condition for total unimodularity on the transposed matrix.

    With one partition class holding every row and the other empty, the
    condition reduces to: at most two nonzeros per transposed column (per
    original row), and any two of them with opposite signs.
    """
    for row in system.rows:
        nz = [v for v in row if v != 0]
        if any(v not in (-1, 1) for v in nz):
            return False
        if len(nz) > 2:
            return False
        if len(nz) == 2 and nz[0] == nz[1]:
            return False
    return True


def function_vertex(system: ConstraintSystem,
                    c: ChoiceFunction) -> tuple[Fraction, ...]:
    """The 0/1 cumulative vector of a deterministic choice function,
    in the system's column order."""
    _same_domain(c, system)
    grank = order_ranks(system.global_order, system.domain.n)
    return tuple(ONE if grank[c.picks[si]] < grank[x] else ZERO
                 for si, x in system.columns)


def vertex_function(system: ConstraintSystem,
                    point: Sequence[Fraction]) -> ChoiceFunction | None:
    """Invert a 0/1 vertex to its choice function, when it is a cumulative.

    Per set, a monotone 0/1 column pattern whose best-ranked entry is 0
    encodes "pick the worst zero".  Saturated patterns (a 1 at the best
    member of some set) are not cumulatives of any function: None.
    """
    dom = system.domain
    grank = order_ranks(system.global_order, dom.n)
    per_set: dict[int, list[tuple[int, Fraction]]] = {}
    for (si, x), v in zip(system.columns, point):
        per_set.setdefault(si, []).append((x, v))
    picks = [None] * len(dom.sets)
    for si, entries in per_set.items():
        entries.sort(key=lambda e: grank[e[0]])
        values = [v for _, v in entries]
        if any(v not in (ZERO, ONE) for v in values):
            return None
        if any(a > b for a, b in zip(values, values[1:])):
            return None  # not monotone down the ranking
        if values[0] == ONE:
            return None  # saturated: no function has weight above its best
        picks[si] = max((x for x, v in entries if v == ZERO),
                        key=lambda x: grank[x])
    return ChoiceFunction(dom, tuple(picks))
