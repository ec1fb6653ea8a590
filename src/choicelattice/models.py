"""Operations on choice models.

A choice model is a finite set of choice functions over one shared domain.
This module verifies and builds the lattice structure behind orderly
(progressive) representability, materializes the rational model and its
minimal extension, and checks mixture closure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from .core import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    order_ranks,
)

ENUMERATION_GUARD_N = 6
CLOSURE_GUARD = 20_000


@dataclass(frozen=True)
class ChoiceModel:
    """A nonempty, duplicate-free set of choice functions, canonically sorted.

    The frozenset of member picks is built once, here, for ``in`` tests; it
    is an attribute, not a field, so equality and hashing do not see it.
    """

    domain: ChoiceDomain = field(hash=False)
    functions: tuple[ChoiceFunction, ...] = ()

    def __post_init__(self) -> None:
        if not self.functions:
            raise ChoiceError("a choice model must be nonempty")
        picks = []
        for c in self.functions:
            if c.domain != self.domain:
                raise DomainMismatchError("model members live on different domains")
            picks.append(c.picks)
        members = frozenset(picks)
        if len(members) != len(picks):
            raise ChoiceError("duplicate choice functions in model")
        ordered = tuple(sorted(self.functions, key=lambda c: c.picks))
        object.__setattr__(self, "functions", ordered)
        object.__setattr__(self, "_members", members)

    @classmethod
    def from_functions(cls, functions: Iterable[ChoiceFunction]) -> "ChoiceModel":
        fns = list(functions)
        if not fns:
            raise ChoiceError("a choice model must be nonempty")
        dedup = {c.picks: c for c in fns}
        return cls(fns[0].domain, tuple(dedup.values()))

    @classmethod
    def from_strings(cls, domain: ChoiceDomain,
                     texts: Iterable[str]) -> "ChoiceModel":
        return cls.from_functions(
            ChoiceFunction.from_string(domain, t) for t in texts)

    @classmethod
    def from_picks(cls, domain: ChoiceDomain,
                   picks: Iterable[tuple[int, ...]]) -> "ChoiceModel":
        return cls(domain, tuple(ChoiceFunction(domain, p) for p in set(picks)))

    def picks_set(self) -> frozenset[tuple[int, ...]]:
        return self._members

    def strings(self) -> tuple[str, ...]:
        return tuple(c.to_string() for c in self.functions)

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __contains__(self, c: ChoiceFunction) -> bool:
        return c.domain == self.domain and c.picks in self.picks_set()


@dataclass(frozen=True)
class LatticeWitness:
    """A pair whose join or meet escapes the model."""

    left: ChoiceFunction
    right: ChoiceFunction
    kind: str  # "join" or "meet"
    escapee: ChoiceFunction


@dataclass(frozen=True)
class ThetaViolation:
    """The literal failed comparison behind a theta-axiom violation."""

    set_symbols: tuple[str, ...]
    removed: str
    chosen: str
    chosen_after: str
    axiom: str  # "theta1" or "theta2"


@dataclass(frozen=True)
class MixtureWitness:
    left: ChoiceFunction
    right: ChoiceFunction
    escapee: ChoiceFunction


def _check_shared(model: ChoiceModel, ordering: PrimitiveOrderings) -> None:
    if model.domain != ordering.domain:
        raise DomainMismatchError("model and orderings live on different domains")


def is_lattice(model: ChoiceModel, ordering: PrimitiveOrderings
               ) -> tuple[bool, LatticeWitness | None]:
    """True iff the join and meet of every pair stay inside the model.

    Pairs are scanned in ``itertools.combinations`` order of the model's
    functions, the join before the meet, so the witness is the first escape.
    """
    _check_shared(model, ordering)
    packed = ordering.packed
    values = [packed.pack(c.picks) for c in model.functions]
    members = set(values)
    join, meet = packed.join, packed.meet
    for (i, a), (j, b) in itertools.combinations(enumerate(values), 2):
        kind, escapee = "join", join(a, b)
        if escapee in members:
            kind, escapee = "meet", meet(a, b)
            if escapee in members:
                continue
        return False, LatticeWitness(
            model.functions[i], model.functions[j], kind,
            ChoiceFunction(model.domain, packed.unpack(escapee)))
    return True, None


def lattice_closure(model: ChoiceModel,
                    ordering: PrimitiveOrderings) -> ChoiceModel:
    """Smallest superset closed under pairwise join and meet.

    Pick vectors live in a product of chains, a distributive lattice, so the
    sublattice generated by G is the join-closure of the meet-closure M of G
    (Birkhoff): (a1 v ... v ai) ^ (b1 v ... v bj) is the join of the meets
    ak ^ bl, each of which lies in M.  The meet stage combines only with
    G and the join stage only with M, so a closure L costs at most
    |M| |G| + |L| |M| operations, not |L|^2.  Either stage raises a
    ``GuardError`` once it holds more than ``CLOSURE_GUARD`` members.
    """
    _check_shared(model, ordering)
    packed = ordering.packed
    gens = [packed.pack(c.picks) for c in model.functions]
    closed = _close(_close(gens, packed.meet), packed.join)
    return ChoiceModel.from_picks(model.domain, map(packed.unpack, closed))


def _close(generators: list[int], op) -> list[int]:
    """Everything ``op`` builds from the generators, in order of discovery.

    Adds one generator g at a time: what g1, ..., gi build is what
    g1, ..., g(i-1) build, plus gi, plus gi combined with each of those.
    The size guard is checked once per generator.
    """
    items: list[int] = []
    seen: set[int] = set()
    for g in generators:
        for c in [g] + [op(a, g) for a in items]:
            if c not in seen:
                seen.add(c)
                items.append(c)
        if len(items) > CLOSURE_GUARD:
            raise GuardError(f"lattice_closure: {len(items):,} members exceed "
                             f"the guard of {CLOSURE_GUARD:,}")
    return items


def is_chain(model: ChoiceModel, ordering: PrimitiveOrderings
             ) -> tuple[bool, tuple[ChoiceFunction, ChoiceFunction] | None]:
    """True iff the comparison relation is total on the model; otherwise
    the first incomparable pair."""
    _check_shared(model, ordering)
    packed = ordering.packed
    values = [packed.pack(c.picks) for c in model.functions]
    better = packed.weakly_better
    for (i, a), (j, b) in itertools.combinations(enumerate(values), 2):
        if not (better(a, b) or better(b, a)):
            return False, (model.functions[i], model.functions[j])
    return True, None


def enumerate_rational(domain: ChoiceDomain) -> ChoiceModel:
    """All maximizer functions of all strict orders, deduplicated."""
    if domain.n > ENUMERATION_GUARD_N:
        raise GuardError(f"rational enumeration is guarded at n <= {ENUMERATION_GUARD_N}")
    seen = set()
    for order in itertools.permutations(range(domain.n)):
        rank = order_ranks(order, domain.n)
        seen.add(tuple(min(s, key=rank.__getitem__) for s in domain.sets))
    return ChoiceModel.from_picks(domain, seen)


def _theta_fault(picks: Sequence[int], removals: Iterable[tuple[int, int, int]],
                 grank: Sequence[int]) -> tuple[int, int, int] | None:
    """The first removal (S, x, S \\ {x}) whose choice-overload comparison fails.

    With y the pick at S and y' the pick at S \\ {x}, the comparison holds
    when x = y, when y' = y, or when y lies strictly between x and y' under
    ``grank``: removing an x worse than y may only improve the choice
    (theta1), and removing one better than y may only worsen it (theta2).
    """
    for si, x, sub in removals:
        y, y2 = picks[si], picks[sub]
        if x != y and y2 != y:
            rx, ry, r2 = grank[x], grank[y], grank[y2]
            if not (rx < ry < r2 or r2 < ry < rx):
                return si, x, sub
    return None


def theta_violation(picks: Sequence[int], domain: ChoiceDomain,
                    grank: Sequence[int]) -> tuple[int, int, int, int] | None:
    """The first failed choice-overload comparison, or None.

    Returns (set position, removed x, chosen y, chosen after removal), all
    as indices; ``grank`` holds the global rank of each alternative.  Scans
    ``ChoiceDomain.removals``, the removals that stay inside the domain, in
    order, with the rule of ``_theta_fault``.
    """
    found = _theta_fault(picks, domain.removals, grank)
    if found is None:
        return None
    si, x, sub = found
    return si, x, picks[si], picks[sub]


def satisfies_theta(c: ChoiceFunction, global_order: Sequence[str]
                    ) -> tuple[bool, ThetaViolation | None]:
    """Check both choice-overload axioms at every (set, removed alternative)."""
    dom = c.domain
    dom.require_full("the theta axioms")
    grank = order_ranks(dom.order_index(global_order), dom.n)
    found = theta_violation(c.picks, dom, grank)
    if found is None:
        return True, None
    si, x, y, y2 = found
    alts = dom.alternatives
    axiom = "theta1" if grank[y] < grank[x] else "theta2"
    return False, ThetaViolation(dom.set_symbols(si), alts[x], alts[y],
                                 alts[y2], axiom)


@lru_cache(maxsize=8)
def _theta_picks(domain: ChoiceDomain,
                 order: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    grank = order_ranks(order, domain.n)
    sets = domain.sets
    # Sets are assigned from the last position to the first, so every
    # S \ {x} has its pick before S.  A partial assignment lists its picks
    # in that order: the pick at set position si sits at index last - si.
    last = len(sets) - 1
    # Per set and candidate pick y, the picks at each S \ {x} that
    # _theta_fault accepts: no worse than y when x is worse than y (theta1),
    # no better than y when x is better (theta2).
    allowed: list[dict[int, list]] = [{y: [] for y in s} for s in sets]
    for si, x, sub, y, _, _ in domain.comparisons:
        ry = grank[y]
        if ry < grank[x]:
            ok = frozenset(z for z in sets[sub] if grank[z] <= ry)
        else:
            ok = frozenset(z for z in sets[sub] if grank[z] >= ry)
        allowed[si][y].append((last - sub, ok))
    partials: list[tuple[int, ...]] = [()]
    for si in range(last, -1, -1):
        options = allowed[si].items()
        partials = [p + (y,) for p in partials for y, checks in options
                    if all(p[at] in ok for at, ok in checks)]
    return frozenset(p[::-1] for p in partials)


THETA_GUARD_N = 4


def theta_model(domain: ChoiceDomain,
                global_order: Sequence[str]) -> ChoiceModel:
    """The minimal extension of rational choice closed under join and meet.

    Enumerated by propagation: sets are assigned in increasing size, and a
    pick at S is kept only if it satisfies both theta axioms against the
    picks already made at every S \\ {x}, so no choice function outside the
    model is ever built.  It equals the lattice closure of the rational
    model under the order (pinned by the tests at n = 3 and 4 under every
    order).  The model grows fast (12 members at n = 3, 526 at n = 4,
    1,035,642 at n = 5), so the guard bounds the size of the output.
    """
    domain.require_full("the minimal rational extension")
    if domain.n > THETA_GUARD_N:
        raise GuardError(
            f"theta_model is guarded at n <= {THETA_GUARD_N}: the model has "
            f"over a million members at n = 5")
    order = domain.order_index(global_order)
    return ChoiceModel.from_picks(domain, _theta_picks(domain, order))


def is_mixture_closed(model: ChoiceModel) -> tuple[bool, MixtureWitness | None]:
    """True iff every pointwise recombination of any two members stays inside.

    Recombining members two at a time reaches every function of the product
    of the per-set chosen alternatives, so the model is closed iff it is that
    product.  It always lies inside the product, so it is the product iff
    the sizes match.  Only an open model scans its pairs, for the first
    escape.
    """
    members = model.picks_set()
    if math.prod(len(set(column)) for column in zip(*members)) == len(members):
        return True, None
    for c1, c2 in itertools.combinations(model.functions, 2):
        options = [(x,) if x == y else (x, y) for x, y in zip(c1.picks, c2.picks)]
        for mix in itertools.product(*options):
            if mix not in members:
                return False, MixtureWitness(c1, c2,
                                             ChoiceFunction(model.domain, mix))
    raise AssertionError("an open model has an escaping pair")
