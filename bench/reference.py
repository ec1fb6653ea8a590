"""Independent reference routines that the benchmark checks outputs against.

Nothing here imports ``choicelattice``: a change to the program cannot change
what its outputs are checked against.  Everything works on plain tuples and
exact ``Fraction``s.

Conventions:

* a domain is the tuple of its choice sets, each a tuple of ascending
  alternative indices, larger sets first and lexicographic within a size
  (the canonical order, see ``full_sets``);
* a choice function is the tuple of its picks, aligned with the sets;
* an ordering is a rank table, one dict per set: ``ranks[i][x]`` is the
  position of alternative x in set i's ranking, 0 being best;
* a random choice function (RCF) is a tuple of dicts, one per set, mapping
  each member to its probability.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

ONE = Fraction(1)


def full_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every subset of size >= 2 of range(n), in canonical order."""
    subsets = [s for k in range(2, n + 1)
               for s in itertools.combinations(range(n), k)]
    return tuple(sorted(subsets, key=lambda s: (-len(s), s)))


def global_ranks(sets, order: Sequence[int]) -> tuple[dict[int, int], ...]:
    """Rank table of the restriction of a global order (best first)."""
    pos = {x: i for i, x in enumerate(order)}
    return tuple({x: pos[x] for x in s} for s in sets)


def per_set_ranks(rankings) -> tuple[dict[int, int], ...]:
    """Rank table of per-set rankings (each best first)."""
    return tuple({x: i for i, x in enumerate(r)} for r in rankings)


def join(p, q, ranks) -> tuple[int, ...]:
    """Pointwise better pick."""
    return tuple(x if r[x] <= r[y] else y for x, y, r in zip(p, q, ranks))


def meet(p, q, ranks) -> tuple[int, ...]:
    """Pointwise worse pick."""
    return tuple(x if r[x] >= r[y] else y for x, y, r in zip(p, q, ranks))


def dominates(p, q, ranks) -> bool:
    """p picks a weakly better member at every set, and p != q."""
    return p != q and all(r[x] <= r[y] for x, y, r in zip(p, q, ranks))


def closure_fixpoint(gens: Iterable[tuple[int, ...]], ranks,
                     limit: int | None = None) -> frozenset | None:
    """Smallest superset of ``gens`` closed under join and meet.

    With a ``limit``, gives up and returns None once the closure is known to
    be larger.

    Pick vectors live in a product of chains, a distributive lattice, so the
    sublattice generated by G is the join-closure of the meet-closure of G
    (Birkhoff).  Each stage is a fixpoint against the previous stage's
    elements only, which keeps the reference cheap without sharing the
    program's pairwise worklist.
    """
    gens = list(dict.fromkeys(gens))
    meets = set(gens)
    for g in gens:
        meets |= {meet(m, g, ranks) for m in meets}
        if limit is not None and len(meets) > limit:
            return None
    closed = set(meets)
    for m in meets:
        closed |= {join(c, m, ranks) for c in closed}
        if limit is not None and len(closed) > limit:
            return None
    return frozenset(closed)


def is_closed(functions, ranks) -> bool:
    """True iff the join and meet of every pair stay in the set."""
    members = set(functions)
    for p, q in itertools.combinations(members, 2):
        if join(p, q, ranks) not in members or meet(p, q, ranks) not in members:
            return False
    return True


def removals(sets) -> tuple[tuple[int, int, int], ...]:
    """(set i, removed x, position of S minus x) for every removal in the domain."""
    index = {s: i for i, s in enumerate(sets)}
    out = []
    for i, s in enumerate(sets):
        if len(s) < 3:
            continue
        for x in s:
            j = index.get(tuple(e for e in s if e != x))
            if j is not None:
                out.append((i, x, j))
    return tuple(out)


def theta_ok(picks, removal_table, grank) -> bool:
    """The two choice-overload axioms under a global rank (``grank[x]``).

    theta1: removing x ranked below the choice y may not make the choice
    worse than y.  theta2: removing x ranked above y may not make it better.
    """
    for i, x, j in removal_table:
        y = picks[i]
        if x == y:
            continue
        after = grank[picks[j]]
        if grank[x] > grank[y]:
            if after > grank[y]:
                return False
        elif after < grank[y]:
            return False
    return True


def theta_filter(sets, order: Sequence[int]) -> frozenset:
    """Every choice function of the domain that satisfies both theta axioms."""
    grank = {x: i for i, x in enumerate(order)}
    table = removals(sets)
    return frozenset(p for p in itertools.product(*sets)
                     if theta_ok(p, table, grank))


def maximizer(sets, order: Sequence[int]) -> tuple[int, ...]:
    """The rational choice function of a strict preference (best first)."""
    grank = {x: i for i, x in enumerate(order)}
    return tuple(min(s, key=grank.__getitem__) for s in sets)


def rational_model(sets, n: int) -> frozenset:
    """All maximizers of all strict orders of range(n)."""
    return frozenset(maximizer(sets, o)
                     for o in itertools.permutations(range(n)))


def theta_all(functions, sets, order: Sequence[int]) -> bool:
    """True iff every function passes both theta axioms under the order."""
    grank = {x: i for i, x in enumerate(order)}
    table = removals(sets)
    return all(theta_ok(p, table, grank) for p in functions)


def identify_brute(functions, sets, n: int) -> frozenset:
    """Every global order (best first) under which all functions pass theta."""
    functions = list(functions)
    return frozenset(order for order in itertools.permutations(range(n))
                     if theta_all(functions, sets, order))


def compose(components, sets) -> tuple[dict[int, Fraction], ...]:
    """RCF of a distribution given as (weight, picks) pairs.

    Sums integer numerators over the common denominator of the weights, then
    divides once per entry.
    """
    components = [(Fraction(w), p) for w, p in components]
    common = math.lcm(*(w.denominator for w, _ in components))
    rows = tuple({x: 0 for x in s} for s in sets)
    for w, picks in components:
        units = w.numerator * (common // w.denominator)
        for row, x in zip(rows, picks):
            row[x] += units
    return tuple({x: Fraction(v, common) for x, v in row.items()} for row in rows)


def decompose_sweep(rcf, ranks) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The progressive representation, by a sweep over cumulative masses.

    At a level t in (0, 1] each set picks the best-ranked member whose
    at-or-above cumulative mass reaches t.  Between consecutive cumulative
    values the picks are constant, and the gap is the component's weight.
    Consecutive equal components are merged.
    """
    ladders = []
    levels = {ONE}
    for row, r in zip(rcf, ranks):
        acc = Fraction(0)
        ladder = []
        for x in sorted(row, key=r.__getitem__):
            if row[x]:
                acc += row[x]
                ladder.append((acc, x))
                levels.add(acc)
        ladders.append(ladder)
    out: list[tuple[Fraction, tuple[int, ...]]] = []
    prev = Fraction(0)
    for t in sorted(levels):
        picks = tuple(next(x for top, x in ladder if top >= t)
                      for ladder in ladders)
        if out and out[-1][1] == picks:
            out[-1] = (out[-1][0] + t - prev, picks)
        else:
            out.append((t - prev, picks))
        prev = t
    return out


def block_marschak_ok(rcf, sets, n: int) -> bool:
    """Falmagne (1978): an RCF on the full domain is a mixture of rational
    choice functions iff every Block-Marschak polynomial is nonnegative.

    K(x, A) = sum over B containing A of (-1)^|B - A| rho(x, B), for every
    x in A, with rho(x, {x}) = 1.
    """
    prob = {frozenset(s): row for s, row in zip(sets, rcf)}
    universe = frozenset(range(n))
    for size in range(1, n + 1):
        for a in itertools.combinations(range(n), size):
            a = frozenset(a)
            rest = sorted(universe - a)
            for x in a:
                total = Fraction(0)
                for k in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, k):
                        b = a.union(extra)
                        p = ONE if len(b) == 1 else prob[b][x]
                        total += -p if k % 2 else p
                if total < 0:
                    return False
    return True


def cover_relation(functions, ranks) -> frozenset:
    """Pairs (upper, lower) where upper dominates lower with nothing between."""
    functions = list(functions)
    below = {p: {q for q in functions if dominates(p, q, ranks)}
             for p in functions}
    covers = set()
    for p, under in below.items():
        indirect = set()
        for q in under:
            indirect |= below[q]
        covers |= {(p, q) for q in under - indirect}
    return frozenset(covers)
