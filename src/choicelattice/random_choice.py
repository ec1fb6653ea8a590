"""Random choice functions and their progressive decomposition.

Everything here is exact: probabilities are rationals throughout, so the
decomposition round trip and linear feasibility questions are decided with
no tolerance at all.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import attrgetter, sub
from typing import Iterable, Mapping, Sequence

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
from .models import ChoiceModel, _is_rational_model, _theta_fault
from .oracle import exact_feasible

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(value, what: str) -> Fraction:
    """An ``int`` or ``Fraction`` entry as a ``Fraction``; nothing else passes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ChoiceError(f"{what} {value!r} is not an int or a Fraction")


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the lcm of the values' denominators, and each value times L.

    Each value becomes an ``int`` count of units 1/L, so a sum of values is
    one exactly when their counts add up to L.
    """
    common = math.lcm(*(v.denominator for v in values))
    return common, [v.numerator * (common // v.denominator) for v in values]


@dataclass(frozen=True)
class RandomChoiceFunction:
    """Per-set probability measures with exact rational weights.

    ``probs[si]`` is aligned with the ascending members of ``domain.sets[si]``.
    Entries must be ``int`` or ``Fraction``; ints are stored as Fractions.

    The integer view is built here, once, from the rows the checks already
    scale: ``_scaled`` is (D, units), with D the lcm of every denominator
    and ``units[si]`` the row ``probs[si]`` times D, as ``int``s.  The sweep,
    the random-axiom check and ``in_delta`` read it rather than scale the
    RCF again.  Like ``ChoiceModel``'s member set, it is an attribute, not
    a field, so equality and hashing do not see it.
    """

    domain: ChoiceDomain = field(hash=False)
    probs: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self) -> None:
        dom = self.domain
        if len(self.probs) != len(dom.sets):
            raise ChoiceError("one probability row per choice set is required")
        rows, scaled = [], []
        for si, (s, row) in enumerate(zip(dom.sets, self.probs)):
            if len(row) != len(s):
                raise ChoiceError("one probability per set member is required")
            if not all(type(p) is Fraction for p in row):
                what = f"probability over {dom.set_symbols(si)!r}"
                row = tuple(_exact(p, what) for p in row)
            common, units = _over_lcm(row)
            if min(units) < 0:
                raise ChoiceError("probabilities must be nonnegative")
            if sum(units) != common:
                raise ChoiceError(
                    f"probabilities over {dom.set_symbols(si)!r} "
                    f"sum to {sum(row)}, not 1")
            rows.append(tuple(row))
            scaled.append((common, units))
        common = math.lcm(*(c for c, _ in scaled))
        object.__setattr__(self, "probs", tuple(rows))
        object.__setattr__(self, "_scaled", (common, tuple(
            tuple([u * (common // c) for u in units]) if c != common
            else tuple(units) for c, units in scaled)))

    @classmethod
    def from_table(cls, domain: ChoiceDomain,
                   table: Mapping) -> "RandomChoiceFunction":
        """Build from {(set symbols tuple/frozenset, symbol): weight}.

        Two keys that name the same set, in any spelling, and the same
        symbol are refused.  Each distinct spelling of a set is resolved
        once.
        """
        rows = [[ZERO] * len(s) for s in domain.sets]
        filled = set()
        positions: dict[tuple[str, ...], int] = {}
        for (members, symbol), p in table.items():
            members = tuple(members)
            # keyed by the strings the domain reads, so 1 and True differ
            spelling = tuple(map(str, members))
            pos = positions.get(spelling)
            if pos is None:
                pos = positions[spelling] = domain.position(members)
            i = _member_slot(domain, pos, members, symbol)
            if (pos, i) in filled:
                raise ChoiceError(f"set {domain.set_symbols(pos)!r} has a second "
                                  f"entry for x = {symbol!r}")
            filled.add((pos, i))
            rows[pos][i] = p
        return cls(domain, tuple(tuple(r) for r in rows))

    def probability(self, members: Iterable[str], symbol: str) -> Fraction:
        members = tuple(members)
        pos = self.domain.position(members)
        return self.probs[pos][_member_slot(self.domain, pos, members, symbol)]


def _member_slot(domain: ChoiceDomain, pos: int, members: tuple,
                 symbol: str) -> int:
    """Place of a symbol among the members of the set at ``pos``, which the
    caller spelt as ``members``."""
    s = domain.sets[pos]
    x = domain.index.get(str(symbol))
    if x not in s:
        raise ChoiceError(f"{symbol!r} is not a member of {members!r}")
    return s.index(x)


@dataclass(frozen=True)
class ProgressiveRepresentation:
    """Positive weights on a strictly decreasing chain of choice functions.

    Weights must be ``int`` or ``Fraction``; ints are stored as Fractions.
    Each weight is scaled to an ``int`` over L, the lcm of their
    denominators: every ``int`` must be positive and together they must add
    up to L, as in ``compose``.  The chain itself is checked where it is
    built (``decompose_progressive`` and ``decompose_theta``).
    """

    components: tuple[tuple[Fraction, ChoiceFunction], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ChoiceError("a representation needs at least one component")
        object.__setattr__(self, "components", tuple(
            (_exact(w, "component weight"), c) for w, c in self.components))
        common, units = _over_lcm(self.weights())
        if min(units) <= 0:
            raise ChoiceError("component weights must be positive")
        if sum(units) != common:
            raise ChoiceError("component weights must sum to one")

    def functions(self) -> tuple[ChoiceFunction, ...]:
        return tuple(c for _, c in self.components)

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.components)

    def compose(self) -> "RandomChoiceFunction":
        return compose(dict(zip(self.functions(), self.weights())))


def compose(dist: Mapping[ChoiceFunction, Fraction | int]
            ) -> RandomChoiceFunction:
    """The random choice function induced by a probability distribution.

    Each weight becomes an ``int`` count of units 1/L, where L is the lcm of
    the weights' denominators.  The counts add up per (set, pick) through a
    member-to-slot table per set, and each entry is divided by L once.
    """
    if not dist:
        raise ChoiceError("a distribution needs at least one choice function")
    functions = list(dist)
    dom = functions[0].domain
    weights = []
    for c in functions:
        if c.domain != dom:
            raise DomainMismatchError("distribution members live on different domains")
        w = _exact(dist[c], "weight")
        if w < 0:
            raise ChoiceError("weights must be nonnegative")
        weights.append(w)
    common, units = _over_lcm(weights)
    if sum(units) != common:
        raise ChoiceError(f"weights sum to {sum(weights)}, not 1")
    slots = [{x: i for i, x in enumerate(s)} for s in dom.sets]
    rows = [[0] * len(s) for s in dom.sets]
    for c, u in zip(functions, units):
        if u == 0:
            continue
        for row, slot, x in zip(rows, slots, c.picks):
            row[slot[x]] += u
    return RandomChoiceFunction(dom, tuple(
        tuple(Fraction(v, common) for v in row) for row in rows))


def deterministic(c: ChoiceFunction) -> RandomChoiceFunction:
    return compose({c: ONE})


def _slots_in_order(dom: ChoiceDomain, order: Sequence[int]) -> list[list[int]]:
    """Each set's member slots, best first under a global order.

    ``order`` holds alternative indices, best first.  One walk of it over
    ``ChoiceDomain.member_slots`` appends each slot to its set's list, so
    the lists come out ranked with no per-set sort.
    """
    slots: list[list[int]] = [[] for _ in dom.sets]
    table = dom.member_slots
    for x in order:
        for si, i in table[x]:
            slots[si].append(i)
    return slots


def _slots_in_rankings(dom: ChoiceDomain,
                       ordering: PrimitiveOrderings) -> list[list[int]]:
    """Each set's member slots, best first under its ranking in
    ``ordering.per_set``."""
    return [list(map(s.index, ranking))
            for s, ranking in zip(dom.sets, ordering.per_set)]


def _cumulatives(units: Sequence[Sequence[int]], slots: Sequence[Sequence[int]]
                 ) -> tuple[list[list[int]], list[list[int]]]:
    """Per (set, member): mass strictly above, and mass at or above.

    ``units`` are the probabilities scaled by D (the RCF's ``_scaled``),
    so both results are ``int`` multiples of 1/D and comparisons between
    them need no division.  ``slots`` lists each set's member slots best
    first (``_slots_in_order``), so one running sum per set reads the
    members in rank order, with no sort here.  Any domain will do, full or
    not.
    """
    strict, weak = [], []
    for order, row in zip(slots, units):
        up = [0] * len(row)
        at = [0] * len(row)
        acc = 0
        for i in order:
            up[i] = acc
            acc += row[i]
            at[i] = acc
        strict.append(up)
        weak.append(at)
    return strict, weak


def decompose_progressive(rcf: RandomChoiceFunction,
                          ordering: PrimitiveOrderings) -> ProgressiveRepresentation:
    """The unique progressive representation of an RCF.

    Per choice set, the positive-probability alternatives tile (0, 1] with
    half-open intervals laid best-first.  The merged interval endpoints cut
    (0, 1] into segments; each segment selects one alternative per set and
    its length is the component weight.  This deterministic sweep replaces
    the uniform draw of the randomized description: the component weights
    are exactly the segment lengths.

    The sweep runs on integers: the RCF's stored view holds every
    probability scaled by D, the lcm of its denominators, so the endpoints
    are ``int``s in (0, D].  Each set's members are read best first, in the
    slot order of ``_slots_in_rankings``.  The sweep emits the chain as its
    top row and one change list per breakpoint below D: the sets whose
    interval ends there, which are the sets whose pick the next component
    changes (``_sweep``).  Each segment is one component, with no merge.
    A weight becomes the ``Fraction`` w / D only when the representation is
    built.  Every pick is checked for membership as the components are
    built, one set's column at a time (``ChoiceFunction.many``), and
    ``_assert_decreasing_chain`` checks each step at its listed sets.
    """
    dom = _same_domain(rcf, ordering)
    rep, chain, changes = _sweep(dom, _slots_in_rankings(dom, ordering),
                                 *rcf._scaled)
    _assert_decreasing_chain(chain, ordering.rank, changes)
    return rep


def _sweep(dom: ChoiceDomain, slots: Sequence[Sequence[int]], common: int,
           units: Sequence[Sequence[int]]
           ) -> tuple[ProgressiveRepresentation, list[tuple[int, ...]],
                      list[list[int]]]:
    """The sweep of ``decompose_progressive`` on probabilities scaled by D.

    ``slots`` lists each set's member slots best first.  Per set, the
    positive-mass members are laid out best first, each with the upper end
    of its interval, in units of 1/D; every end below D files the set under
    that breakpoint.  The top row holds each set's best positive-mass
    member.  At each breakpoint, in ascending order, the sets filed there
    (in ascending position) advance to their next member, and the row is
    copied once, as a tuple.  Returns the representation, its rows and, per
    consecutive pair of rows, the list of set positions that changed.

    Rows are built from the lists, so two consecutive rows differ at
    exactly the listed sets, and each list is nonempty: a breakpoint is
    filed only by a set whose interval ends there.
    ``_assert_decreasing_chain`` still checks that each list is nonempty
    and that every listed pick gets strictly worse; it does not re-derive
    that the other sets kept their picks.  ``ChoiceFunction.many`` checks
    each set's column of picks for membership as it builds the components.
    """
    top: list[int] = []
    later: list[list[int]] = []  # per set, its next members, worst first
    filed: dict[int, list[int]] = {}
    for si, (s, order, row) in enumerate(zip(dom.sets, slots, units)):
        xs = []
        acc = 0
        for i in order:
            u = row[i]
            if u:
                if acc:  # the interval before this one ends at acc
                    if acc in filed:
                        filed[acc].append(si)
                    else:
                        filed[acc] = [si]
                acc += u
                xs.append(s[i])
        xs.reverse()
        top.append(xs.pop())
        later.append(xs)
    breakpoints = sorted(filed)
    changes = [filed[r] for r in breakpoints]
    rows = [tuple(top)]
    for changed in changes:
        for si in changed:
            top[si] = later[si].pop()
        rows.append(tuple(top))
    lengths = map(sub, breakpoints + [common], [0] + breakpoints)
    rep = ProgressiveRepresentation(tuple(zip(
        [Fraction(w, common) for w in lengths],
        ChoiceFunction.many(dom, rows))))
    return rep, rows, changes


def _assert_decreasing_chain(chain: Sequence[tuple[int, ...]],
                             rank: Sequence[Sequence[int]],
                             changes: Sequence[Sequence[int]]) -> None:
    """Check that each pick vector strictly dominates the next one.

    ``changes[k]`` lists the set positions where ``chain[k + 1]`` differs
    from ``chain[k]``, as ``_sweep`` emits them.  ``rank[s][x]`` orders each
    set's members as its ranking does: ``PrimitiveOrderings.rank``, or a
    global rank repeated per set.  A pair passes when its list is nonempty
    and the pick at every listed set moves strictly worse, so a listed set
    whose pick did not change is refused.  Only the listed sets are read:
    that the other sets kept their picks is not re-derived here, since the
    sweep builds each row from the one before by changing the listed sets
    only.  With the lists of every differing set, this is
    ``compare(...) is Comparison.DOMINATES`` for each pair.
    """
    if len(changes) != len(chain) - 1:
        raise AssertionError(
            f"decomposition produced {len(changes)} change lists for "
            f"{len(chain)} components; this is an implementation bug")
    for k, (changed, p1, p2) in enumerate(zip(changes, chain, chain[1:]), 1):
        if not changed or any(rank[s][p1[s]] >= rank[s][p2[s]] for s in changed):
            raise AssertionError(
                f"decomposition produced a non-decreasing chain at component "
                f"{k}; this is an implementation bug")


DELTA_GUARD = 10_000


def in_delta(rcf: RandomChoiceFunction, model: ChoiceModel
             ) -> tuple[bool, dict[ChoiceFunction, Fraction] | None]:
    """Exact feasibility of representing the RCF as a mixture over the model.

    Both routes read the RCF's stored view (``_scaled``): every probability
    in units of 1/D, D the lcm of its denominators, as an ``int``.

    Random utility.  When the domain is full and the model is the rational
    model (n! members, every rational function among them), the question
    is put to Falmagne's theorem alone: the RCF is a mixture of rational
    functions iff every Block-Marschak polynomial K(x, A) is >= 0
    (``_block_marschak``, in units of 1/D with rho(x, {x}) = D).  If some
    K < 0 the answer is no.  Otherwise it is yes, and the certificate is
    Fiorini's path decomposition of the polynomials read as a flow
    (``_fiorini``): each path is a ranking, its maximizer function is a
    member of the model, and its weight is w / D.  Every other model,
    theta(>) and the other lattices included, goes to the linear system, and
    one whose size is not n! pays only the length test.

    Linear system.  It is solved on the RCF's support.  A model function
    with weight w > 0 puts w on its pick at every set, so one that picks a
    zero-mass alternative anywhere must have weight 0: only the functions
    whose picks all have positive mass become columns, in the model's
    order.  If some positive entry (S, x) is picked by no kept function, the
    answer is no with no LP.

    Otherwise the rows are, per set, one equation for each positive-mass
    member except the first one, and the unit-mass equation, all with
    ``int`` right-hand sides in units of 1/D (D on the unit-mass row).  A
    zero-mass row is all-zero once the columns are filtered, so it is
    dropped.  The skipped row is implied: each kept function picks one
    positive-mass member of the set, so its row is the unit-mass row minus
    the set's other rows, and the masses over the set sum to D.  The first
    member is the one skipped because the model's functions are sorted by
    picks and Bland's rule enters the lowest column first, so the columns
    that enter early pick first members and, without those rows, each pivot
    touches fewer rows.  The rows are 0/1 ``int``s and the system goes to
    ``oracle.exact_feasible``; its solution is divided by D once to give the
    certificate.  With no kept function it is the unit-mass row 0 = D,
    which the simplex finds infeasible.

    ``DELTA_GUARD`` counts the model's functions, before either route.
    """
    dom = _same_domain(rcf, model)
    if len(model) > DELTA_GUARD:
        raise GuardError(f"in_delta: {len(model):,} model functions exceed "
                         f"the guard of {DELTA_GUARD:,}")
    common, units = rcf._scaled
    if _is_rational_model(model):
        flow = _block_marschak(dom, common, units)
        if min(map(flow.__getitem__, _flow_cells(dom)[1])) < 0:
            return False, None
        functions, key = model.functions, attrgetter("picks")
        certificate = {}
        for order, w in _fiorini(dom, flow, common):
            picks = tuple([s[slots[0]] for s, slots
                           in zip(dom.sets, _slots_in_order(dom, order))])
            c = functions[bisect_left(functions, picks, key=key)]
            certificate[c] = Fraction(w, common)
        return True, certificate
    mass = [[0] * dom.n for _ in dom.sets]
    for row, s, u in zip(mass, dom.sets, units):
        for x, v in zip(s, u):
            row[x] = v
    functions = [c for c in model.functions
                 if all(map(list.__getitem__, mass, c.picks))]
    rows: list[list[int]] = []
    rhs: list[int] = []
    # per set, the kept functions' picks: all of them positive-mass members,
    # so fewer distinct picks than such members leaves one uncovered
    for picked, s, u in zip(zip(*(c.picks for c in functions)), dom.sets, units):
        supported = [(x, v) for x, v in zip(s, u) if v]
        if len(set(picked)) < len(supported):
            return False, None
        for x, v in supported[1:]:
            rows.append([int(p == x) for p in picked])
            rhs.append(v)
    rows.append([1] * len(functions))
    rhs.append(common)
    solution = exact_feasible(rows, rhs)
    if solution is None:
        return False, None
    return True, {c: w / common for c, w in zip(functions, solution) if w != 0}


@lru_cache(maxsize=8)
def _flow_cells(domain: ChoiceDomain) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Where ``_block_marschak`` keeps each polynomial in its flat list.

    K(x, A), for A a bitmask of alternatives that holds x, sits at cell
    A n + x.  Returns the cell of each (set, member), sets in domain order
    and members in slot order, as the rows of ``_scaled`` list them; and
    every cell (A, x) with x in A.
    """
    n = domain.n
    members = tuple(sum(1 << y for y in s) * n + x
                    for s in domain.sets for x in s)
    cells = tuple(a * n + x for a in range(1, 1 << n) for x in range(n)
                  if a >> x & 1)
    return members, cells


def _block_marschak(domain: ChoiceDomain, common: int,
                    units: Sequence[Sequence[int]]) -> list[int]:
    """Every Block-Marschak polynomial of a full-domain RCF, in units of 1/D.

    K(x, A) = sum over every B containing A of (-1)^|B - A| rho(x, B), with
    rho(x, {x}) = 1, is the superset Moebius transform of rho(x, .).  The
    list holds rho(x, A) D at cell A n + x (``_flow_cells``) and D at each
    ({x}, x); one pass per alternative i subtracts each cell of a set with
    i from the same cell of the set without i, a slice at a time, in
    O(n^2 2^n) ``int`` additions.  Only the cells with x in A are
    polynomials: a cell (A, x) with x outside A ends as -K(x, A + {x}).
    """
    n = domain.n
    size = n << n
    flow = [0] * size
    for x in range(n):
        flow[(n << x) + x] = common
    for cell, v in zip(_flow_cells(domain)[0], chain.from_iterable(units)):
        flow[cell] = v
    for i in range(n):
        half = n << i
        for lo in range(0, size, 2 * half):
            mid = lo + half
            flow[lo:mid] = map(sub, flow[lo:mid], flow[mid:mid + half])
    return flow


def _fiorini(domain: ChoiceDomain, flow: list[int], common: int
             ) -> list[tuple[list[int], int]]:
    """Rankings with ``int`` weights that add up to D, from nonnegative
    Block-Marschak polynomials; ``flow`` is used up.

    Fiorini (2004) reads K(x, A) as the flow on the edge from A to
    A - {x} of the lattice of subsets: the flow out of the full set is D,
    and at every other nonempty A the flow in equals the flow out.  Each
    pass walks from the full set to the empty one, removing the first x,
    by index, with K(x, A) > 0; the removals in turn are a ranking, best
    first.  The path's least K is its weight, and it is taken off every
    edge of the path, which empties at least one edge and keeps the flow
    balanced, until D is used up.
    """
    n = domain.n
    paths = []
    left = common
    while left:
        a, order, w = (1 << n) - 1, [], left
        while a:
            base = a * n
            for x in range(n):
                if a >> x & 1 and flow[base + x] > 0:
                    break
            else:
                members = domain.symbols(y for y in range(n) if a >> y & 1)
                raise AssertionError(
                    f"no positive Block-Marschak edge out of A={members!r} "
                    f"with {left} of {common} units of mass left; this is an "
                    f"implementation bug")
            order.append(x)
            w = min(w, flow[base + x])
            a ^= 1 << x
        a = (1 << n) - 1
        for x in order:
            flow[a * n + x] -= w
            a ^= 1 << x
        left -= w
        paths.append((order, w))
    return paths


@dataclass(frozen=True)
class RThetaViolation:
    """A failed cumulative-monotonicity comparison."""

    set_symbols: tuple[str, ...]
    removed: str
    fixed: str
    axiom: str  # "rtheta1" or "rtheta2"


def satisfies_rtheta(rcf: RandomChoiceFunction, global_order: Sequence[str]
                     ) -> tuple[bool, RThetaViolation | None]:
    """Random counterparts of the choice-overload axioms.

    First axiom: removing an alternative worse than y may not lower the
    probability of choosing y or better.  Second axiom: removing one
    better than y may not raise the probability of choosing strictly
    better than y.  The at-or-above form in the first axiom and the
    strictly-above form in the second are each exactly what the
    deterministic axioms become under point masses; together they
    characterize mixtures over the minimal rational extension.  The
    comparisons run on the ``int`` cumulatives of ``_cumulatives``: all of
    them share the scale D, so no division is needed.
    """
    dom = rcf.domain
    dom.require_full("the random theta axioms")
    order = dom.order_index(global_order)
    witness = _rtheta_witness(dom, rcf._scaled[1], order_ranks(order, dom.n),
                              _slots_in_order(dom, order))
    return witness is None, witness


def _rtheta_witness(dom: ChoiceDomain, units: Sequence[Sequence[int]],
                    grank: Sequence[int], slots: Sequence[Sequence[int]]
                    ) -> RThetaViolation | None:
    """The first failed random-axiom comparison on scaled probabilities.

    ``slots`` lists each set's member slots best first under ``grank``.
    """
    strict, weak = _cumulatives(units, slots)
    alts = dom.alternatives
    for si, x, sub, y, here, there in dom.comparisons:
        if grank[y] < grank[x]:  # y better than removed x
            if weak[sub][there] < weak[si][here]:
                return RThetaViolation(
                    dom.set_symbols(si), alts[x], alts[y], "rtheta1")
        elif strict[si][here] < strict[sub][there]:
            return RThetaViolation(
                dom.set_symbols(si), alts[x], alts[y], "rtheta2")
    return None


def decompose_theta(rcf: RandomChoiceFunction,
                    global_order: Sequence[str]) -> ProgressiveRepresentation:
    """Progressive decomposition guaranteed to land in the minimal extension.

    Requires the cumulative axioms to hold.  The axiom check and the sweep
    both read the RCF's stored ``int`` view, and share one slot order: each
    set's members best first under the global order, from one walk of the
    order (``_slots_in_order``).  The chain is checked pair by pair at the
    sets the sweep lists as changed (``_assert_decreasing_chain``, with the
    global rank standing for every set's ranking), and every component
    against the deterministic axioms (``_assert_chain_in_theta``): the first
    in full, each later one at the removals that read a listed set.  A
    failure of either check signals an implementation bug, not bad input.
    """
    dom = rcf.domain
    dom.require_full("the random theta axioms")
    order = dom.order_index(global_order)
    grank = order_ranks(order, dom.n)
    slots = _slots_in_order(dom, order)
    common, units = rcf._scaled
    witness = _rtheta_witness(dom, units, grank, slots)
    if witness is not None:
        raise ChoiceError(
            f"the RCF violates the cumulative axioms ({witness.axiom} at "
            f"S={witness.set_symbols!r}, removing {witness.removed}, "
            f"fixed {witness.fixed})")
    rep, chain, changes = _sweep(dom, slots, common, units)
    _assert_decreasing_chain(chain, [grank] * len(dom.sets), changes)
    _assert_chain_in_theta(chain, changes, dom, grank)
    return rep


def _assert_chain_in_theta(chain: Sequence[tuple[int, ...]],
                           changes: Sequence[Sequence[int]],
                           domain: ChoiceDomain, grank: Sequence[int]) -> None:
    """Check every pick vector of a chain against the choice-overload axioms.

    ``changes[k]`` lists the set positions where ``chain[k + 1]`` differs
    from ``chain[k]``.  The first vector is scanned at every removal of
    ``ChoiceDomain.removals``.  A comparison at (S, x) reads only the picks
    at S and S \\ {x}, and the vector before passed every comparison, so
    each later vector is scanned at exactly the removals that read a
    changed set (``ChoiceDomain.removal_pairs``).  Both scans apply the one
    rule of ``models._theta_fault``, so every vector is checked in full.
    """
    pairs = domain.removal_pairs
    for k, picks in enumerate(chain):
        removals = (domain.removals if k == 0 else
                    (r for p in changes[k - 1] for r in pairs[p]))
        found = _theta_fault(picks, removals, grank)
        if found is not None:
            si, x, _ = found
            raise AssertionError(
                f"decomposition component {k} escaped the minimal extension at "
                f"S={domain.set_symbols(si)!r}, removing "
                f"{domain.alternatives[x]}; this is an implementation bug")
