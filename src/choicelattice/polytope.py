"""The cumulative-monotonicity inequality system and its polytope.

Materializes the five row families bounding cumulative random choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import ChoiceDomain, ChoiceError, order_ranks


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
