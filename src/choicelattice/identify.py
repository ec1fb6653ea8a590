"""Recovering the primitive ordering from revealed betweenness.

A model reveals "y between x and z" when some member chooses y from a set
and x once z is removed.  Axioms B1/sB1/B2/B3 on that ternary relation are
exactly what existence (and uniqueness up to inversion) of a compatible
primitive ordering requires; the search here decides the question directly
and is cross-checked against brute force over all orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ChoiceError, GuardError, order_ranks
from .models import ChoiceModel, theta_violation


@dataclass(frozen=True)
class BetweennessRelation:
    """Triples (middle; outer pair), outer pair unordered."""

    alternatives: tuple[str, ...]
    triples: frozenset[tuple[int, tuple[int, int]]] = frozenset()

    def __post_init__(self) -> None:
        n = len(self.alternatives)
        for y, (x, z) in self.triples:
            if not (0 <= y < n and 0 <= x < n and 0 <= z < n):
                raise ChoiceError("betweenness triple mentions an unknown alternative")
            if len({x, y, z}) != 3:
                raise ChoiceError("betweenness triple elements must be distinct")
            if x > z:
                raise ChoiceError("outer pair must be stored in canonical order")

    @classmethod
    def from_symbols(cls, alternatives: Sequence[str],
                     triples: Iterable[tuple[str, str, str]]) -> "BetweennessRelation":
        alts = tuple(str(a) for a in alternatives)
        index = {a: i for i, a in enumerate(alts)}
        canon = set()
        for y, x, z in triples:
            xi, zi = sorted((index[str(x)], index[str(z)]))
            canon.add((index[str(y)], (xi, zi)))
        return cls(alts, frozenset(canon))

    def has(self, y: str, x: str, z: str) -> bool:
        index = {a: i for i, a in enumerate(self.alternatives)}
        xi, zi = sorted((index[x], index[z]))
        return (index[y], (xi, zi)) in self.triples

    def triples_symbols(self) -> tuple[tuple[str, str, str], ...]:
        alts = self.alternatives
        return tuple(sorted((alts[y], alts[x], alts[z])
                            for y, (x, z) in self.triples))

    def __len__(self) -> int:
        return len(self.triples)


def betweenness(model: ChoiceModel) -> BetweennessRelation:
    """Scan every member for (chosen; chosen-after-removal, removed) triples.

    Only removals whose leftover set is in the domain contribute, and the
    three elements must be distinct.
    """
    dom = model.domain
    triples = set()
    for c in model.functions:
        for si, s in enumerate(dom.sets):
            if len(s) < 3:
                continue
            y = c.picks[si]
            for z, sub in dom.removal_position[si].items():
                x = c.picks[sub]
                if x != y and z != y and z != x:
                    lo, hi = (x, z) if x < z else (z, x)
                    triples.add((y, (lo, hi)))
    return BetweennessRelation(dom.alternatives, frozenset(triples))


@dataclass(frozen=True)
class AxiomReport:
    """Pass/fail flags for B1/sB1/B2/B3 with counterexamples where violated."""

    b1: bool
    sb1: bool
    b2: bool
    b3: bool
    b1_witness: tuple[str, ...] | None = None
    b2_witness: tuple[str, ...] | None = None
    b3_witness: tuple[str, ...] | None = None

    def all_b123(self) -> bool:
        return self.b1 and self.b2 and self.b3


def check_axioms(relation: BetweennessRelation) -> AxiomReport:
    """Literal quantifier checks of the four betweenness axioms."""
    alts = relation.alternatives
    n = len(alts)
    triples = relation.triples
    by_elements: dict[tuple[int, ...], list] = {}
    for y, (x, z) in sorted(triples):
        by_elements.setdefault(tuple(sorted((x, y, z))), []).append((y, (x, z)))

    b1, b1_witness = True, None
    for key in sorted(by_elements):
        if len(by_elements[key]) > 1:
            b1, b1_witness = False, tuple(alts[i] for i in key)
            break
    sb1 = b1 and len(by_elements) == len(list(itertools.combinations(range(n), 3)))

    def has(y, x, z):
        lo, hi = (x, z) if x < z else (z, x)
        return (y, (lo, hi)) in triples

    b2, b2_witness = True, None
    for x, y, z, w in itertools.permutations(range(n), 4):
        if has(y, x, z) and has(z, x, w) and has(w, x, y):
            b2 = False
            b2_witness = tuple(alts[i] for i in (x, y, z, w))
            break

    b3, b3_witness = True, None
    for y, (x, z) in sorted(triples):
        for w in range(n):
            if w in (x, y, z):
                continue
            if (tuple(sorted((x, y, w))) in by_elements
                    and tuple(sorted((y, z, w))) in by_elements):
                if has(y, x, w) == has(y, z, w):
                    b3 = False
                    b3_witness = tuple(alts[i] for i in (x, y, z, w))
                    break
        if not b3:
            break
    return AxiomReport(b1, sb1, b2, b3, b1_witness, b2_witness, b3_witness)


def _agrees(order_index: Sequence[int],
            relation: BetweennessRelation) -> bool:
    pos = order_ranks(order_index, len(relation.alternatives))
    for y, (x, z) in relation.triples:
        if not (pos[x] < pos[y] < pos[z] or pos[z] < pos[y] < pos[x]):
            return False
    return True


LOCAL_GUARD = 6


def local_ordering(relation: BetweennessRelation,
                   quadruple: Iterable[str]) -> tuple[str, ...] | None:
    """An order on the given elements agreeing with every triple inside them.

    Brute force over the permutations of the (at most six) elements.
    """
    index = {a: i for i, a in enumerate(relation.alternatives)}
    members = sorted(index[str(a)] for a in quadruple)
    if len(members) > LOCAL_GUARD:
        raise GuardError(f"local search is guarded at {LOCAL_GUARD} elements")
    inside = [(y, (x, z)) for y, (x, z) in relation.triples
              if {x, y, z} <= set(members)]
    local = BetweennessRelation(relation.alternatives, frozenset(inside))
    for perm in itertools.permutations(members):
        if _agrees(perm, local):
            return tuple(relation.alternatives[i] for i in perm)
    return None


def find_agreeing_ordering(relation: BetweennessRelation
                           ) -> tuple[str, ...] | None:
    """Backtracking search for a full order agreeing with the relation.

    Ranks are assigned best-first in lexicographic branch order; a partial
    assignment is pruned as soon as some triple can no longer sit with its
    middle strictly between the outer pair.  Absence is a value, not an
    error.
    """
    n = len(relation.alternatives)
    constraints = tuple(relation.triples)
    pos: dict[int, int] = {}

    def consistent() -> bool:
        for y, (x, z) in constraints:
            py, px, pz = pos.get(y), pos.get(x), pos.get(z)
            if py is not None:
                placed_ends = [p for p in (px, pz) if p is not None]
                # every unplaced element lands below all placed ones
                if len(placed_ends) == 0:
                    return False
                if len(placed_ends) == 1 and placed_ends[0] > py:
                    return False
                if len(placed_ends) == 2 and not (
                        min(placed_ends) < py < max(placed_ends)):
                    return False
            elif px is not None and pz is not None:
                return False  # middle would land below both ends
        return True

    order: list[int] = []

    def extend() -> bool:
        if len(order) == n:
            return True
        for x in range(n):
            if x in pos:
                continue
            pos[x] = len(order)
            order.append(x)
            if consistent() and extend():
                return True
            order.pop()
            del pos[x]
        return False

    if extend():
        return tuple(relation.alternatives[i] for i in order)
    return None


IDENTIFY_GUARD_N = 6


def identify_primitive(model: ChoiceModel
                       ) -> tuple[tuple[tuple[str, ...], ...], AxiomReport]:
    """All orderings whose minimal rational extension contains the model.

    Betweenness agreement narrows the candidates; each survivor is verified
    by the deterministic axioms, function by function.  The result is
    cross-checked against brute force over every order of the alternatives
    (axiom failure must coincide with an empty brute-force result).
    """
    dom = model.domain
    dom.require_full("primitive-ordering identification")
    if dom.n > IDENTIFY_GUARD_N:
        raise GuardError(f"identification is guarded at n <= {IDENTIFY_GUARD_N}")
    relation = betweenness(model)
    report = check_axioms(relation)

    picks = [c.picks for c in model.functions]

    def theta_all(order_index: tuple[int, ...]) -> bool:
        grank = order_ranks(order_index, dom.n)
        return all(theta_violation(pk, dom, grank) is None for pk in picks)

    every_order = list(itertools.permutations(range(dom.n)))
    brute = {o for o in every_order if theta_all(o)}
    if report.all_b123():
        found = {o for o in every_order
                 if _agrees(o, relation) and theta_all(o)}
    else:
        found = set()
    if found != brute:
        raise AssertionError("betweenness search and brute force disagree; "
                             "this is an implementation bug")
    alts = dom.alternatives
    orders = tuple(sorted(tuple(alts[i] for i in o) for o in found))
    return orders, report
