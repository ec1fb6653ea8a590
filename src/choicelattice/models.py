"""Operations on choice models.

A choice model is a finite set of choice functions over one shared domain.
This module verifies and builds the lattice structure behind orderly
(progressive) representability, materializes the rational model and its
minimal extension, checks mixture closure, and draws seeded random models.
"""

from __future__ import annotations

import math
import random as _stdrandom
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from .core import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    _same_domain,
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
        dom = self.domain
        picks = []
        for c in self.functions:
            if c.domain is not dom and c.domain != dom:
                raise DomainMismatchError("model members live on different domains")
            picks.append(c.picks)
        members = frozenset(picks)
        if len(members) != len(picks):
            raise ChoiceError("duplicate choice functions in model")
        ordered = tuple(sorted(self.functions, key=attrgetter("picks")))
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
        return cls(domain, tuple(ChoiceFunction.many(domain, set(picks))))

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
    """A pair of members whose join or meet escapes the model.

    ``left`` and ``right`` are listed in ``model.functions`` order;
    ``escapee``, outside the model, is their join or meet, as ``kind`` says.
    """

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


def is_lattice(model: ChoiceModel, ordering: PrimitiveOrderings
               ) -> tuple[bool, LatticeWitness | None]:
    """True iff the join and meet of every pair stay inside the model;
    otherwise the first escape of generation.

    The model is regenerated from its members (Birkhoff's representation
    theorem).  Integer order of packed values is a linear extension of
    dominance, since a better vector has no larger field.  The join stage
    closes the members under join, worst first, and then the meet stage
    under meet, best first (``_close``).  A member already built is
    skipped, so on a lattice the members used are its bottom and its
    join-irreducibles, or its top and its meet-irreducibles.  A sublattice
    of the product of the sets' chains has at most l = sum(|S| - 1)
    irreducibles of each kind, so each stage takes at most (l + 1) |M|
    operations, not |M|^2 / 2.  The worst case is a chain: every member
    but the bottom is irreducible.

    A stage stops at its first escape, after at most |M| (|M| - 1) / 2
    operations: the member g it was adding and the first member a built
    before g whose join (meet) with g falls outside the model.  The
    witness lists a and g in ``model.functions`` order.
    """
    _same_domain(model, ordering)
    packed = ordering.packed
    values = [packed.pack(c.picks) for c in model.functions]
    within = set(values)
    ascending = sorted(values)
    for kind, generators, op in (("join", ascending[::-1], packed.join),
                                 ("meet", ascending, packed.meet)):
        escape = _close(generators, op, within)[1]
        if escape is not None:
            left, right = sorted(map(values.index, escape))
            return False, LatticeWitness(
                model.functions[left], model.functions[right], kind,
                ChoiceFunction(model.domain, packed.unpack(op(*escape))))
    return True, None


def lattice_closure(model: ChoiceModel,
                    ordering: PrimitiveOrderings) -> ChoiceModel:
    """Smallest superset closed under pairwise join and meet.

    Pick vectors live in a product of chains, a distributive lattice, so the
    sublattice generated by G is the join-closure of the meet-closure M of G
    (Birkhoff): (a1 v ... v ai) ^ (b1 v ... v bj) is the join of the meets
    ak ^ bl, each of which lies in M.  The meet stage combines only with
    G.  The join stage takes M worst first and skips a member already built,
    so it combines only with the bottom and the join-irreducibles of the
    closure L, each of which lies in M.  A closure costs at most
    |M| |G| + (|J(L)| + 1) |L| operations, not |L|^2.  Either stage raises a
    ``GuardError`` once it holds more than ``CLOSURE_GUARD`` members.
    """
    _same_domain(model, ordering)
    packed = ordering.packed
    gens = [packed.pack(c.picks) for c in model.functions]
    meets = _close(gens, packed.meet)[0]
    closed = _close(sorted(meets, reverse=True), packed.join)[0]
    return ChoiceModel.from_picks(model.domain, map(packed.unpack, closed))


def _close(generators: Iterable[int], op, within: set[int] | None = None
           ) -> tuple[list[int], tuple[int, int] | None]:
    """Everything ``op`` builds from the generators, in order of discovery,
    and the first escape from ``within``.

    Adds one generator g at a time: what g1, ..., gi build is what
    g1, ..., g(i-1) build, plus gi, plus gi combined with each of those.
    A generator already built adds nothing and is skipped.  Given in a
    linear extension of the order, from the end that ``op`` moves away
    from (worst first for the join, best first for the meet), a generator
    is built already iff it is ``op`` of generators before it, so the
    generators used are the first and the irreducibles of what they build.
    Each costs one operation per item built before it: a lattice L costs
    at most (|J(L)| + 1) |L| operations, J(L) its irreducibles under ``op``.

    With ``within``, which must hold the generators, what g builds is kept
    only if it all lies inside; at the first g that builds a value outside,
    the items built before g are returned with the escape (a, g), a the
    first of them with ``op(a, g)`` outside.  Without it the escape is
    None, and the size guard is checked once per generator.
    """
    items: list[int] = []
    seen: set[int] = set()
    for g in generators:
        if g in seen:
            continue
        built = [g] + [op(a, g) for a in items]
        if within is not None and not within.issuperset(built):
            return items, next((a, g) for a, c in zip(items, built[1:])
                               if c not in within)
        for c in built:
            if c not in seen:
                seen.add(c)
                items.append(c)
        if within is None and len(items) > CLOSURE_GUARD:
            raise GuardError(f"lattice_closure: {len(items):,} members exceed "
                             f"the guard of {CLOSURE_GUARD:,}")
    return items, None


def is_chain(model: ChoiceModel, ordering: PrimitiveOrderings
             ) -> tuple[bool, tuple[ChoiceFunction, ChoiceFunction] | None]:
    """True iff the comparison relation is total on the model; otherwise
    an incomparable pair, in ``model.functions`` order.

    Integer order of packed values is a linear extension of dominance, so
    the model is a chain iff, in that order, each member is weakly better
    than the next: |M| - 1 comparisons.  The first consecutive pair that
    is not is incomparable, and it is the witness.
    """
    _same_domain(model, ordering)
    packed = ordering.packed
    values = [packed.pack(c.picks) for c in model.functions]
    walk = sorted(range(len(values)), key=values.__getitem__)
    better = packed.weakly_better
    for i, j in zip(walk, walk[1:]):
        if not better(values[i], values[j]):
            left, right = sorted((i, j))
            return False, (model.functions[left], model.functions[right])
    return True, None


def _guard_rational(n: int) -> None:
    if n > ENUMERATION_GUARD_N:
        raise GuardError(f"rational enumeration is guarded at n <= {ENUMERATION_GUARD_N}")


def enumerate_rational(domain: ChoiceDomain) -> ChoiceModel:
    """All maximizer functions of all strict orders, deduplicated."""
    _guard_rational(domain.n)
    return ChoiceModel.from_picks(domain, _rational_picks(domain))


def _is_rational_model(model: ChoiceModel) -> bool:
    """True iff the model holds the maximizer of every strict order of a
    full domain, and nothing else."""
    dom = model.domain
    return (dom.is_full and len(model) == math.factorial(dom.n)
            and model.picks_set() == _rational_picks(dom))


@lru_cache(maxsize=8)
def _rational_picks(domain: ChoiceDomain) -> frozenset[tuple[int, ...]]:
    """The maximizer function of every strict order, as picks.

    A walk of the tree of order prefixes places the alternatives best first.
    Placing x gives pick x to every set that holds x and has no pick yet,
    so a prefix's picks are shared by every order that extends it, and a
    branch ends as soon as every set has its pick: on the full domain after
    n - 1 places, one leaf per order.  An x that would give no pick is
    skipped, since it never will and the branch would only repeat one
    without it.  On a partial domain several prefixes can reach one
    function; the set keeps one.
    """
    table = [[si for si, _ in slots] for slots in domain.member_slots]
    picks: list[int | None] = [None] * len(domain.sets)
    found: set[tuple[int, ...]] = set()

    def place(left: tuple[int, ...], unassigned: int) -> None:
        for x in left:
            fresh = [si for si in table[x] if picks[si] is None]
            if not fresh:
                continue
            for si in fresh:
                picks[si] = x
            if unassigned == len(fresh):
                found.add(tuple(picks))
            else:
                place(tuple(y for y in left if y != x), unassigned - len(fresh))
            for si in fresh:
                picks[si] = None

    place(tuple(range(domain.n)), len(domain.sets))
    return frozenset(found)


def gen_random_model(seed: int, domain: ChoiceDomain, size: int) -> ChoiceModel:
    """Deterministic pseudorandom model of distinct functions.

    Each pick is the draw ``rng.choice(s)`` makes on Python 3.10 to 3.13: k,
    the bit length of |s|, random bits redrawn until they index a member.
    The draw is written out, with (s, |s|, k) computed once per set, so the
    stream, and with it every model a seed gives (``tests/cli_golden.json``
    pins one byte for byte), is the stream of ``rng.choice``.
    """
    total = 1
    for s in domain.sets:
        total *= len(s)
    if size < 1 or size > total:
        raise ChoiceError(f"size must be between 1 and {total}")
    bits = _stdrandom.Random(seed).getrandbits
    draws = [(s, len(s), len(s).bit_length()) for s in domain.sets]
    seen: set[tuple[int, ...]] = set()
    while len(seen) < size:
        picks = []
        for s, m, k in draws:
            r = bits(k)
            while r >= m:
                r = bits(k)
            picks.append(s[r])
        seen.add(tuple(picks))
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


def satisfies_theta(c: ChoiceFunction, global_order: Sequence[str]
                    ) -> tuple[bool, ThetaViolation | None]:
    """Check both choice-overload axioms at every (set, removed alternative)."""
    dom = c.domain
    dom.require_full("the theta axioms")
    grank = order_ranks(dom.order_index(global_order), dom.n)
    found = _theta_fault(c.picks, dom.removals, grank)
    if found is None:
        return True, None
    si, x, sub = found
    y, y2 = c.picks[si], c.picks[sub]
    alts = dom.alternatives
    axiom = "theta1" if grank[y] < grank[x] else "theta2"
    return False, ThetaViolation(dom.set_symbols(si), alts[x], alts[y],
                                 alts[y2], axiom)


@lru_cache(maxsize=8)
def _theta_picks(domain: ChoiceDomain,
                 order: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Every pick vector on a full domain that passes both theta axioms.

    Sets are assigned from the last position to the first, so every
    S \\ {x} has its pick before S.  A partial assignment lists its picks in
    that order: the pick at set position si sits at index last - si.  The
    picks allowed at S depend only on the partial's picks at the subsets
    S \\ {x}, its key, so each distinct key is decided once per candidate
    pick, by the rule of ``_theta_fault``, and the memo of allowed picks
    extends every partial with that key.
    """
    grank = order_ranks(order, domain.n)
    sets = domain.sets
    last = len(sets) - 1
    below: list[list[tuple[int, int]]] = [[] for _ in sets]
    for si, x, sub in domain.removals:
        below[si].append((x, last - sub))
    partials: list[tuple[int, ...]] = [()]
    for si in range(last, -1, -1):
        options = [(y,) for y in sets[si]]
        if not below[si]:
            partials = [p + y for p in partials for y in options]
            continue
        # the key holds the picks at the S \ {x} (at least three on a full
        # domain, so itemgetter gives a tuple); a local vector y + key puts
        # y at 0 and the pick at the i-th S \ {x} at i
        xs, ats = zip(*below[si])
        local = tuple((0, x, i) for i, x in enumerate(xs, 1))
        memo: dict[tuple[int, ...], list[tuple[int]]] = {}

        def allowed(key: tuple[int, ...]) -> list[tuple[int]]:
            ys = memo.get(key)
            if ys is None:
                ys = memo[key] = [y for y in options if _theta_fault(
                    y + key, local, grank) is None]
            return ys

        key_of = itemgetter(*ats)
        partials = [p + y for p in partials for y in allowed(key_of(p))]
    return frozenset(p[::-1] for p in partials)


THETA_GUARD_N = 4


def _guard_theta(n: int) -> None:
    if n > THETA_GUARD_N:
        raise GuardError(
            f"theta_model is guarded at n <= {THETA_GUARD_N}: the model has "
            f"over a million members at n = 5")


def theta_model(domain: ChoiceDomain,
                global_order: Sequence[str]) -> ChoiceModel:
    """The minimal extension of rational choice closed under join and meet.

    Enumerated by propagation: sets are assigned in increasing size, and a
    pick at S is kept only if it satisfies both theta axioms against the
    picks already made at every S \\ {x}, so no choice function outside the
    model is ever built.  Those picks are the partial assignment's key at
    S, and each distinct key is checked once per candidate pick, so the
    checks grow with the keys, not with the partial assignments.  It
    equals the lattice closure of the rational model under the order
    (pinned by the tests at n = 3 and 4 under every order).  The model
    grows fast (12 members at n = 3, 526 at n = 4, 1,035,642 at n = 5), so
    the guard bounds the size of the output.
    """
    domain.require_full("the minimal rational extension")
    _guard_theta(domain.n)
    order = domain.order_index(global_order)
    return ChoiceModel.from_picks(domain, _theta_picks(domain, order))


def is_mixture_closed(model: ChoiceModel) -> tuple[bool, MixtureWitness | None]:
    """True iff every pointwise recombination of any two members stays inside.

    Recombining members two at a time reaches every function of the product
    of the per-set chosen alternatives, so the model is closed iff it is that
    product.  It always lies inside the product, so it is the product iff
    the sizes match.  An open model names the first single-set swap
    c[S := v] outside it, with members in model order, sets in domain order
    and each set's chosen alternatives ascending, and pairs c with the
    first member that picks v at S.  Such a swap exists, since swaps that
    all stayed inside would lead from any member to the whole product.
    """
    members = model.picks_set()
    chosen = [sorted(set(column)) for column in zip(*members)]
    if math.prod(map(len, chosen)) == len(members):
        return True, None
    functions = model.functions
    for c in functions:
        picks = c.picks
        for si, values in enumerate(chosen):
            for v in values:
                if v == picks[si]:
                    continue
                swap = picks[:si] + (v,) + picks[si + 1:]
                if swap not in members:
                    donor = next(d for d in functions if d.picks[si] == v)
                    left, right = sorted((c, donor), key=attrgetter("picks"))
                    return False, MixtureWitness(
                        left, right, ChoiceFunction(model.domain, swap))
    raise AssertionError("an open model has an escaping swap")
