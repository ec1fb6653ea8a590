"""Recovering the primitive ordering from revealed betweenness.

A model reveals "y between x and z" when some member chooses y from a set
and x once z is removed.  Axioms B1/sB1/B2/B3 on that ternary relation are
exactly what existence (and uniqueness up to inversion) of a compatible
primitive ordering requires.  A model lies in the minimal rational extension
of an order exactly when the order agrees with the model's betweenness, so
identification is one pruned search for the agreeing orders.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import ChoiceError, GuardError, _as_tuple_of_symbols, _indices
from .models import ChoiceModel


def _canonical(y: int, x: int, z: int) -> tuple[int, tuple[int, int]]:
    """The triple (y between x and z) as stored: outer pair ascending."""
    return y, (x, z) if x < z else (z, x)


@dataclass(frozen=True)
class BetweennessRelation:
    """Triples (middle; outer pair), outer pair unordered."""

    alternatives: tuple[str, ...]
    triples: frozenset[tuple[int, tuple[int, int]]] = frozenset()

    def __post_init__(self) -> None:
        alts = _as_tuple_of_symbols(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        n = len(alts)
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
        """Triples (middle, one end, other end) of symbols; an unknown symbol
        raises ``DomainMismatchError``."""
        empty = cls(alternatives)
        return cls(empty.alternatives, frozenset(map(empty._triple, triples)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alternatives)}

    def _triple(self, symbols: tuple[str, str, str]) -> tuple[int, tuple[int, int]]:
        symbols = tuple(symbols)
        found = _indices(self._index, symbols)
        if len(found) != 3:
            raise ChoiceError(f"betweenness triple {symbols!r} needs "
                              f"three alternatives, not {len(found)}")
        return _canonical(*found)

    def has(self, y: str, x: str, z: str) -> bool:
        return self._triple((y, x, z)) in self.triples

    def triples_symbols(self) -> tuple[tuple[str, str, str], ...]:
        alts = self.alternatives
        return tuple(sorted((alts[y], alts[x], alts[z])
                            for y, (x, z) in self.triples))

    def __len__(self) -> int:
        return len(self.triples)


def betweenness(model: ChoiceModel) -> BetweennessRelation:
    """Every (y; x, z) that a member reveals: y at S, x at S \\ {z}.

    Only removals whose leftover set is in the domain contribute, and the
    three elements must be distinct.  Per set, each pick y gets a member
    mask, an int whose byte i is 1 iff member i picks y there, so a removal
    (S, z, S \\ {z}) reveals (y; x, z) iff the masks of y at S and of x at
    S \\ {z} share a member: one AND per pair of picks, not one step per
    member.  Every pick is laid out as an 8-byte little-endian unsigned
    int, members one after another, so a strided slice gives byte d of each
    member's pick at S, the pick's base-256 digit d, and the mask of y ANDs
    one ``bytes.translate`` per digit (one whenever n <= 256).
    """
    dom = model.domain
    digits = range(max(1, ((dom.n - 1).bit_length() + 7) // 8))
    one_at = [bytes(b) + b"\1" + bytes(255 - b) for b in range(min(dom.n, 256))]
    layout = array("Q", list(itertools.chain.from_iterable(model.picks_set())))
    if sys.byteorder == "big":
        layout.byteswap()
    flat, size = layout.tobytes(), layout.itemsize
    stride = len(dom.sets) * size
    masks = []
    for si, s in enumerate(dom.sets):
        by_digit = [flat[si * size + d::stride] for d in digits]
        here = {}
        for y in s:
            if y & 255 in by_digit[0]:  # no member picks y: one memchr
                mask = -1
                for d, col in zip(digits, by_digit):
                    mask &= int.from_bytes(
                        col.translate(one_at[y >> 8 * d & 255]), "little")
                if mask:
                    here[y] = mask
        masks.append(here)
    raw_triples = set()
    for si, z, sub in dom.removals:
        below = masks[sub]
        for y, at_s in masks[si].items():
            # the members that pick y at S and something else at S \ {z}
            stay = at_s & below.get(y, 0)
            if stay != at_s and y != z:
                moved = at_s ^ stay
                raw_triples.update((y, x, z) for x, at_sub in below.items()
                                   if moved & at_sub)
    return BetweennessRelation(dom.alternatives,
                               frozenset(itertools.starmap(_canonical, raw_triples)))


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
    sb1 = b1 and len(by_elements) == math.comb(n, 3)

    def has(y, x, z):
        return _canonical(y, x, z) in triples

    # B2 fails at (x, y, z, w) when y is between x and z, z between x and
    # w, and w between x and y; the witness is the least such quadruple.
    b2_fails = [(x, y, z, w) for y, (a, b) in triples
                for x, z in ((a, b), (b, a)) for w in range(n)
                if has(z, x, w) and has(w, x, y)]
    b2 = not b2_fails
    b2_witness = tuple(alts[i] for i in min(b2_fails)) if b2_fails else None

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


def agreeing_orderings(relation: BetweennessRelation
                       ) -> Iterator[tuple[str, ...]]:
    """Every full order agreeing with the relation, by backtracking.

    Alternatives are placed best-first in lexicographic branch order, and
    orders are yielded in that order.  Each lands below every placed one
    and above every unplaced one, so a triple is checked when one of its
    alternatives is placed: its middle needs exactly one end placed, and an
    end fails it when the other end is placed and the middle is not.
    Deciding whether any order exists is NP-complete in general (Opatrny's
    total ordering problem), so callers bound n.
    """
    alts = relation.alternatives
    n = len(alts)
    naming: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for y, (x, z) in relation.triples:
        for a in (y, x, z):
            naming[a].append((y, x, z))
    placed = [False] * n
    order: list[int] = []

    def fits(a: int) -> bool:
        for y, x, z in naming[a]:  # x + z - a is the other end
            if (placed[x] == placed[z] if a == y
                    else placed[x + z - a] and not placed[y]):
                return False
        return True

    def extend() -> Iterator[tuple[str, ...]]:
        if len(order) == n:
            yield tuple(alts[i] for i in order)
            return
        for a in range(n):
            if placed[a] or not fits(a):
                continue
            placed[a] = True
            order.append(a)
            yield from extend()
            order.pop()
            placed[a] = False

    yield from extend()


IDENTIFY_GUARD_N = 6


def identify_primitive(model: ChoiceModel
                       ) -> tuple[tuple[tuple[str, ...], ...], AxiomReport]:
    """All orderings whose minimal rational extension contains the model.

    Let y = c(S) and y' = c(S \\ {x}) with y' != y.  The theta axioms fail at
    (S, x) under an order exactly when y is not strictly between x and y',
    and (y; x, y') is the triple ``betweenness`` records.  So the model lies
    in theta of an order iff the order agrees with the model's betweenness,
    and the answer is every agreeing order, sorted.  An agreeing order
    implies B1 (a line puts one of three points between the other two), B2
    and B3 (where four points sit on a line), so the search alone decides.
    """
    dom = model.domain
    dom.require_full("primitive-ordering identification")
    if dom.n > IDENTIFY_GUARD_N:
        raise GuardError(f"identification is guarded at n <= {IDENTIFY_GUARD_N}")
    relation = betweenness(model)
    return tuple(sorted(agreeing_orderings(relation))), check_axioms(relation)
