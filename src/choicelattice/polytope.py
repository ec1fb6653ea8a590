"""The cumulative-monotonicity inequality system and its polytope.

Materializes the five row families bounding cumulative random choice,
checks the two-nonzero opposite-sign condition that certifies total
unimodularity, and enumerates polytope vertices exactly at tiny scale as
an integrality oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    GuardError,
    order_ranks,
)

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

    def column_labels(self) -> tuple[str, ...]:
        alts = self.domain.alternatives
        return tuple(f"{alts[x]}|{''.join(self.domain.set_symbols(si))}"
                     for si, x in self.columns)

    def matrix_csv(self) -> str:
        header = ",".join(self.column_labels())
        lines = [header]
        lines += [",".join(str(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def tags_csv(self) -> str:
        lines = ["tag,rhs"]
        lines += [f"{tag},{b}" for tag, b in zip(self.tags, self.rhs)]
        return "\n".join(lines) + "\n"


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

    for si, s in enumerate(ranked_sets):
        removal = domain.removal_position[si]
        for y in s:
            for x in s:
                if x == y or x not in removal:
                    continue
                sub = removal[x]
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


VERTEX_GUARD = 12


def _rank_of(rows: list[Sequence[Fraction]], width: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][c]
        mat[rank] = [v / lead for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def enumerate_vertices(system: ConstraintSystem,
                       guard: int = VERTEX_GUARD) -> tuple[tuple[Fraction, ...], ...]:
    """All vertices of {q in [0,1]^k : rows q <= rhs}, exactly.

    Incremental halfspace insertion starting from the unit-box vertex set:
    each cut keeps the nonnegative-slack points and adds the crossing
    points of edges (detected by the combinatorial adjacency test on tight
    constraint sets).  Every returned point is certified afterwards: it is
    feasible for every constraint and its tight constraints have full rank.
    """
    width = len(system.columns)
    if width > guard:
        raise GuardError(f"vertex enumeration is guarded at {guard} columns")

    # Global constraint list: box uppers, box lowers, then system rows.
    all_rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for j in range(width):
        coeffs = [ZERO] * width
        coeffs[j] = ONE
        all_rows.append((tuple(coeffs), ONE))
    for j in range(width):
        coeffs = [ZERO] * width
        coeffs[j] = -ONE
        all_rows.append((tuple(coeffs), ZERO))
    for row, b in zip(system.rows, system.rhs):
        all_rows.append((tuple(Fraction(v) for v in row), Fraction(b)))

    points: list[tuple[Fraction, ...]] = [
        tuple(Fraction(bit) for bit in bits)
        for bits in itertools.product((0, 1), repeat=width)]
    tight: list[int] = []
    for p in points:
        mask = 0
        for j, v in enumerate(p):
            mask |= 1 << (j if v == 1 else width + j)
        tight.append(mask)

    processed = 2 * width
    for k in range(processed, len(all_rows)):
        coeffs, b = all_rows[k]
        slacks = [b - sum(c * v for c, v in zip(coeffs, p) if c != 0)
                  for p in points]
        keep_idx = [i for i, s in enumerate(slacks) if s >= 0]
        pos = [i for i in keep_idx if slacks[i] > 0]
        neg = [i for i, s in enumerate(slacks) if s < 0]
        new_points: dict[tuple[Fraction, ...], int] = {}
        if neg:
            masks = tight
            for i in pos:
                ti = masks[i]
                for j in neg:
                    common = ti & masks[j]
                    if bin(common).count("1") < width - 1:
                        continue
                    # Edge test: no third vertex is tight on the common set.
                    if any(masks[w] & common == common
                           for w in range(len(points)) if w != i and w != j):
                        continue
                    lam = slacks[i] / (slacks[i] - slacks[j])
                    cut = tuple(u + lam * (v - u)
                                for u, v in zip(points[i], points[j]))
                    if cut not in new_points:
                        mask = 0
                        for r in range(k + 1):
                            rc, rb = all_rows[r]
                            if sum(c * v for c, v in zip(rc, cut) if c != 0) == rb:
                                mask |= 1 << r
                        new_points[cut] = mask
        next_points, next_tight = [], []
        for i in keep_idx:
            next_points.append(points[i])
            next_tight.append(tight[i] | ((1 << k) if slacks[i] == 0 else 0))
        for p, mask in new_points.items():
            next_points.append(p)
            next_tight.append(mask)
        points, tight = next_points, next_tight

    # Certification: feasibility against every row, full-rank tight set.
    verified = []
    for p in points:
        active = []
        for coeffs, b in all_rows:
            val = sum(c * v for c, v in zip(coeffs, p) if c != 0)
            if val > b:
                raise AssertionError("enumerated point is infeasible; "
                                     "this is an implementation bug")
            if val == b:
                active.append(coeffs)
        if _rank_of(active, width) != width:
            raise AssertionError("enumerated point is not a vertex; "
                                 "this is an implementation bug")
        verified.append(p)
    return tuple(sorted(set(verified)))


def function_vertex(system: ConstraintSystem,
                    c: ChoiceFunction) -> tuple[Fraction, ...]:
    """The 0/1 cumulative vector of a deterministic choice function,
    in the system's column order."""
    if c.domain != system.domain:
        raise ChoiceError("function lives on a different domain")
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


def sample_subdeterminants(system: ConstraintSystem, samples: int,
                           max_order: int = 8, seed: int = 0) -> list[int]:
    """Determinants of randomly sampled square submatrices (exact integers)."""
    import random as _stdrandom

    rng = _stdrandom.Random(seed)
    m, n = len(system.rows), len(system.columns)
    out = []
    for _ in range(samples):
        k = rng.randint(1, min(max_order, m, n))
        rows = rng.sample(range(m), k)
        cols = rng.sample(range(n), k)
        sub = [[system.rows[i][j] for j in cols] for i in rows]
        out.append(_int_det(sub))
    return out


def _int_det(matrix: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    n = len(matrix)
    mat = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]
