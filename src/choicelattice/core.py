"""Domain types for finite choice spaces.

Alternatives are interned symbols; every algorithm works on canonical
integer indices, and symbols only appear at the I/O boundary.  Choice sets
are stored in a canonical order (larger sets first, lexicographic within a
size class) so that the compact per-set "function string" notation is
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import contains
from typing import Callable, Iterable, NamedTuple, Sequence


class ChoiceError(Exception):
    """Base error for invalid choice-space data."""


class DomainMismatchError(ChoiceError):
    """Raised when objects built over different domains are combined."""


class GuardError(ChoiceError):
    """Raised when an enumeration guard is exceeded."""


def _as_tuple_of_symbols(symbols: Iterable[str]) -> tuple[str, ...]:
    out = tuple(str(s) for s in symbols)
    if len(set(out)) != len(out):
        raise ChoiceError(f"duplicate symbols in {out!r}")
    return out


def _indices(index: dict[str, int], symbols: Iterable) -> tuple[int, ...]:
    """The index of each symbol, read through ``str``; an unknown symbol
    raises ``DomainMismatchError`` naming it."""
    try:
        return tuple([index[str(a)] for a in symbols])
    except KeyError as exc:
        raise DomainMismatchError(f"unknown alternative {exc.args[0]!r}") from None


@dataclass(frozen=True)
class ChoiceDomain:
    """An alternative set plus a collection of choice sets (each of size >= 2).

    ``sets`` holds tuples of canonical indices, members ascending, and the
    sequence itself is sorted by (descending size, lexicographic members).
    """

    alternatives: tuple[str, ...]
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        alts = _as_tuple_of_symbols(self.alternatives)
        object.__setattr__(self, "alternatives", alts)
        n = len(alts)
        if n == 0:
            raise ChoiceError("domain needs at least one alternative")
        canon = []
        for s in self.sets:
            s = tuple(s)
            members = tuple(sorted(set(int(x) for x in s)))
            if len(members) != len(s):
                raise ChoiceError(
                    f"choice set {self.symbols(s)!r} has repeated members")
            if len(members) < 2:
                raise ChoiceError(
                    f"choice set {self.symbols(s)!r} has fewer than two members")
            if members[0] < 0 or members[-1] >= n:
                raise ChoiceError(f"choice set {self.symbols(s)!r} mentions an "
                                  f"unknown alternative")
            canon.append(members)
        canon.sort(key=lambda m: (-len(m), m))
        for m, following in zip(canon, canon[1:]):
            if m == following:
                raise ChoiceError(f"duplicate choice set {self.symbols(m)!r}")
        if not canon:
            raise ChoiceError("domain needs at least one choice set")
        object.__setattr__(self, "sets", tuple(canon))

    @classmethod
    def from_symbols(cls, alternatives: Iterable[str],
                     sets: Iterable[Iterable[str]]) -> "ChoiceDomain":
        alts = _as_tuple_of_symbols(alternatives)
        index = {a: i for i, a in enumerate(alts)}
        return cls(alts, tuple([_indices(index, s) for s in sets]))

    @classmethod
    def full(cls, alternatives: Iterable[str]) -> "ChoiceDomain":
        """The domain containing every subset of size >= 2."""
        alts = _as_tuple_of_symbols(alternatives)
        n = len(alts)
        idx_sets = [s for k in range(2, n + 1)
                    for s in itertools.combinations(range(n), k)]
        return cls(alts, tuple(idx_sets))

    @property
    def n(self) -> int:
        return len(self.alternatives)

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.alternatives)}

    @cached_property
    def set_position(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.sets)}

    @cached_property
    def set_members(self) -> tuple[frozenset[int], ...]:
        """Each choice set as a frozenset, for membership tests in C."""
        return tuple(map(frozenset, self.sets))

    @cached_property
    def member_slots(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per alternative x, each (set position, slot of x in that set).

        A slot is the member's place in the ascending set.  One walk of an
        order of the alternatives over this table lists every set's slots
        in that order, with no per-set sort.
        """
        table: list[list[tuple[int, int]]] = [[] for _ in self.alternatives]
        for si, s in enumerate(self.sets):
            for i, x in enumerate(s):
                table[x].append((si, i))
        return tuple(map(tuple, table))

    @cached_property
    def removals(self) -> tuple[tuple[int, int, int], ...]:
        """Every removal (S, x, S \\ {x}) that stays inside the domain.

        Entries are (position of S, x, position of S \\ {x}), ordered by S
        and then x.  A choice-overload comparison at (S, x) reads only the
        picks at these two positions.
        """
        position = self.set_position
        table = []
        for si, s in enumerate(self.sets):
            for x in s:
                sub = position.get(tuple(e for e in s if e != x))
                if sub is not None:
                    table.append((si, x, sub))
        return tuple(table)

    @cached_property
    def removal_pairs(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per set position p, the removals (S, x, S \\ {x}) that read p.

        Each removal appears under both of its positions, so these are the
        comparisons that a new pick at p can change.
        """
        table: list[list[tuple[int, int, int]]] = [[] for _ in self.sets]
        for removal in self.removals:
            si, _, sub = removal
            table[si].append(removal)
            table[sub].append(removal)
        return tuple(map(tuple, table))

    @cached_property
    def comparisons(self) -> tuple[tuple[int, int, int, int, int, int], ...]:
        """Every removal (S, x, S \\ {x}) with each member y of S other than x.

        Entries are (position of S, x, position of S \\ {x}, y, slot of y in
        S, slot of y in S \\ {x}), ordered by S, then x, then y; a slot is
        the member's place in the ascending set.  These are the comparisons
        of the random choice-overload axioms and of the polytope's row
        families (1) and (2).
        """
        table = []
        for si, x, sub in self.removals:
            for here, y in enumerate(self.sets[si]):
                if y != x:  # members ascend: y > x sits one slot lower
                    table.append((si, x, sub, y, here, here - (y > x)))
        return tuple(table)

    @cached_property
    def is_full(self) -> bool:
        return len(self.sets) == 2 ** self.n - self.n - 1

    def set_symbols(self, position: int) -> tuple[str, ...]:
        return tuple(self.alternatives[i] for i in self.sets[position])

    def symbols(self, indices: Iterable[int]) -> tuple:
        """The symbols of alternative indices; an unknown index stays as is."""
        alts = self.alternatives
        return tuple(alts[x] if x in range(len(alts)) else x for x in indices)

    def position(self, members: Iterable[str]) -> int:
        """Position in ``sets`` of the choice set with the given symbols."""
        members = tuple(members)
        pos = self.set_position.get(tuple(sorted(_indices(self.index, members))))
        if pos is None:
            raise DomainMismatchError(f"{members!r} is not a domain set")
        return pos

    def order_index(self, order: Iterable[str]) -> tuple[int, ...]:
        """A strict total order of symbols as indices, best first."""
        g = _indices(self.index, order)
        if sorted(g) != list(range(self.n)):
            raise ChoiceError("global order must rank every alternative exactly once")
        return g

    def require_full(self, what: str) -> None:
        if not self.is_full:
            raise ChoiceError(f"{what} requires a full domain "
                              f"(every choice set of size >= 2)")


def order_ranks(order: Sequence[int], n: int) -> list[int]:
    """rank[x] = position of alternative x in ``order`` (0 is best).

    Alternatives that ``order`` leaves out get rank n.
    """
    rank = [n] * n
    for pos, x in enumerate(order):
        rank[x] = pos
    return rank


@dataclass(frozen=True)
class PrimitiveOrderings:
    """A strict total order on each choice set, best to worst.

    Per-set orders are first class: they need not come from a single global
    ordering.  When ``global_order`` is present each per-set ranking must be
    its restriction.
    """

    domain: ChoiceDomain = field(hash=False)
    per_set: tuple[tuple[int, ...], ...] = ()
    global_order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        dom = self.domain
        if len(self.per_set) != len(dom.sets):
            raise ChoiceError("one ranking per choice set is required")
        for si, (s, ranking) in enumerate(zip(dom.sets, self.per_set)):
            if tuple(sorted(ranking)) != s:
                raise ChoiceError(
                    f"ranking {dom.symbols(ranking)!r} is not a permutation "
                    f"of set {dom.set_symbols(si)!r}")
        if self.global_order is not None:
            if tuple(sorted(self.global_order)) != tuple(range(dom.n)):
                raise ChoiceError("global order must rank every alternative once")
            # a permutation of s is the restriction iff its global ranks ascend
            grank = order_ranks(self.global_order, dom.n)
            for si, ranking in enumerate(self.per_set):
                ranks = [grank[x] for x in ranking]
                if ranks != sorted(ranks):
                    raise ChoiceError(
                        f"per-set ranking {dom.symbols(ranking)!r} is not the "
                        f"restriction of the global order to "
                        f"{dom.set_symbols(si)!r}")

    @classmethod
    def from_global(cls, domain: ChoiceDomain,
                    order: Sequence[str]) -> "PrimitiveOrderings":
        g = domain.order_index(order)
        key = order_ranks(g, domain.n).__getitem__
        per_set = tuple(tuple(sorted(s, key=key)) for s in domain.sets)
        return cls(domain, per_set, g)

    @classmethod
    def from_per_set(cls, domain: ChoiceDomain,
                     rankings: Iterable[Sequence[str]]) -> "PrimitiveOrderings":
        index = domain.index
        return cls(domain, tuple([_indices(index, r) for r in rankings]), None)

    @cached_property
    def rank(self) -> tuple[tuple[int, ...], ...]:
        """rank[s][x] = position of x in set s's ranking (0 is best).

        Indexed by alternative for speed; slots for non-members hold n.
        """
        n = self.domain.n
        return tuple(tuple(order_ranks(ranking, n)) for ranking in self.per_set)

    @cached_property
    def packed(self) -> PackedRanks:
        """Packs pick vectors into ints for bitwise join, meet and dominance."""
        return _packed_ranks(self)

    def global_symbols(self) -> tuple[str, ...]:
        if self.global_order is None:
            raise ChoiceError("this operation needs a single global ordering")
        return tuple(self.domain.alternatives[i] for i in self.global_order)


class PackedRanks(NamedTuple):
    """Pick vectors as ints: field s holds the rank of the pick at set s.

    Each field is ``width`` bits wide with a guard bit above it (``guard``
    marks the guard bits), so that one big-integer subtraction compares
    every field at once without borrows crossing fields (SWAR; Warren,
    *Hacker's Delight*, ch. 2).  A lower rank is a better pick, so the join
    keeps the smaller field and the meet the larger; ``weakly_better(a, b)``
    is true iff a's rank is <= b's in every field.  Works for per-set
    orderings as well as global ones.
    """

    width: int
    guard: int
    pack: Callable[[Sequence[int]], int]
    unpack: Callable[[int], tuple[int, ...]]
    join: Callable[[int, int], int]
    meet: Callable[[int, int], int]
    weakly_better: Callable[[int, int], bool]


def _packed_ranks(ordering: PrimitiveOrderings) -> PackedRanks:
    k = (ordering.domain.n - 1).bit_length()
    ones = (1 << k) - 1
    shifts = tuple(range(0, (k + 1) * len(ordering.per_set), k + 1))
    guard = sum(1 << (shift + k) for shift in shifts)
    rank, per_set = ordering.rank, ordering.per_set

    def pack(picks):
        return sum(row[x] << shift for row, x, shift in zip(rank, picks, shifts))

    def unpack(packed):
        return tuple(ranking[(packed >> shift) & ones]
                     for ranking, shift in zip(per_set, shifts))

    # The guard bit of a field survives (a | guard) - b iff a's rank >= b's;
    # g - (g >> k) widens each surviving guard bit to all ones in its field,
    # and a ^ ((a ^ b) & ge) swaps a for b in those fields.  In every field
    # the meet holds the operand that the join did not take.
    def join(a, b):
        g = ((a | guard) - b) & guard
        return a ^ ((a ^ b) & (g - (g >> k)))

    def meet(a, b):
        return a ^ b ^ join(a, b)

    def weakly_better(a, b):
        return ((b | guard) - a) & guard == guard

    return PackedRanks(k, guard, pack, unpack, join, meet, weakly_better)


@dataclass(frozen=True)
class ChoiceFunction:
    """A selection of one member from every choice set of the domain.

    ``picks`` is stored as a tuple, whatever sequence it was given as.
    """

    domain: ChoiceDomain = field(hash=False)
    picks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if type(self.picks) is not tuple:
            object.__setattr__(self, "picks", tuple(self.picks))
        sets = self.domain.sets
        if len(self.picks) != len(sets):
            raise ChoiceError("a choice function must pick from every set")
        if all(map(contains, sets, self.picks)):
            return
        for s, x in zip(sets, self.picks):
            if x not in s:
                pick, = self.domain.symbols((x,))
                raise ChoiceError(
                    f"pick {pick!r} is not a member of choice set "
                    f"{self.domain.set_symbols(sets.index(s))!r}")

    @classmethod
    def many(cls, domain: ChoiceDomain,
             rows: Iterable[tuple[int, ...]]) -> list["ChoiceFunction"]:
        """``[cls(domain, p) for p in rows]``, checked a set at a time.

        When every row is a tuple with one pick per set, each set's column
        of picks is checked against the set in one ``issuperset`` call, and
        the instances are built without ``__init__``.  Otherwise, or when a
        column holds a non-member, the rows go one at a time through the
        constructor, which raises at the first faulty row with its message.
        """
        rows = list(rows)
        try:
            valid = (set(map(type, rows)) <= {tuple}
                     and set(map(len, rows)) <= {len(domain.sets)}
                     and all(map(frozenset.issuperset, domain.set_members,
                                 zip(*rows))))
        except TypeError:  # an unhashable pick
            valid = False
        if not valid:
            return [cls(domain, p) for p in rows]
        new = object.__new__
        out = []
        for p in rows:
            c = new(cls)
            fields = c.__dict__
            fields["domain"] = domain
            fields["picks"] = p
            out.append(c)
        return out

    @classmethod
    def from_symbols(cls, domain: ChoiceDomain,
                     picks: Sequence[str]) -> "ChoiceFunction":
        return cls(domain, _indices(domain.index, picks))

    @classmethod
    def from_string(cls, domain: ChoiceDomain, text: str) -> "ChoiceFunction":
        """Parse the compact one-character-per-set form, e.g. ``aaab``."""
        if any(len(a) != 1 for a in domain.alternatives):
            raise ChoiceError("string form needs single-character symbols")
        return cls.from_symbols(domain, tuple(text))

    def to_string(self) -> str:
        if any(len(a) != 1 for a in self.domain.alternatives):
            raise ChoiceError("string form needs single-character symbols")
        return "".join(self.domain.alternatives[x] for x in self.picks)

    def symbols(self) -> tuple[str, ...]:
        return tuple(self.domain.alternatives[x] for x in self.picks)

    def pick(self, members: Iterable[str]) -> str:
        """The chosen symbol at the given choice set."""
        return self.domain.alternatives[self.picks[self.domain.position(members)]]


class Comparison(Enum):
    """Outcome of comparing two choice functions under primitive orderings."""

    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _same_domain(*objs) -> ChoiceDomain:
    dom = objs[0].domain
    for o in objs[1:]:
        if o.domain != dom:
            raise DomainMismatchError("objects live on different domains")
    return dom


def compare(c1: ChoiceFunction, c2: ChoiceFunction,
            ordering: PrimitiveOrderings) -> Comparison:
    """Dominates iff c1 picks a weakly better alternative everywhere,
    strictly somewhere.

    Both pick vectors are packed (``PrimitiveOrderings.packed``) and
    compared by ``weakly_better`` in each direction.
    """
    _same_domain(c1, c2, ordering)
    packed = ordering.packed
    a, b = packed.pack(c1.picks), packed.pack(c2.picks)
    if a == b:
        return Comparison.EQUAL
    if packed.weakly_better(a, b):
        return Comparison.DOMINATES
    if packed.weakly_better(b, a):
        return Comparison.DOMINATED_BY
    return Comparison.INCOMPARABLE


def join(c1: ChoiceFunction, c2: ChoiceFunction,
         ordering: PrimitiveOrderings) -> ChoiceFunction:
    """Pointwise best of the two picks."""
    dom = _same_domain(c1, c2, ordering)
    packed = ordering.packed
    return ChoiceFunction(dom, packed.unpack(
        packed.join(packed.pack(c1.picks), packed.pack(c2.picks))))


def meet(c1: ChoiceFunction, c2: ChoiceFunction,
         ordering: PrimitiveOrderings) -> ChoiceFunction:
    """Pointwise worst of the two picks."""
    dom = _same_domain(c1, c2, ordering)
    packed = ordering.packed
    return ChoiceFunction(dom, packed.unpack(
        packed.meet(packed.pack(c1.picks), packed.pack(c2.picks))))
