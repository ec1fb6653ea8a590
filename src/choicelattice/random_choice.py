"""Random choice functions and their progressive decomposition.

Everything here is exact: probabilities are rationals throughout, so the
decomposition round trip and linear feasibility questions are decided with
no tolerance at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    Comparison,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    compare_picks,
    order_ranks,
)
from .models import ChoiceModel, theta_violation
from .oracle import exact_feasible

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ChoiceError(f"not an exact rational: {value!r}")


def _exact(value, what: str) -> Fraction:
    """An ``int`` or ``Fraction`` entry as a ``Fraction``; nothing else passes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ChoiceError(f"{what} {value!r} is not an int or a Fraction")


@dataclass(frozen=True)
class RandomChoiceFunction:
    """Per-set probability measures with exact rational weights.

    ``probs[si]`` is aligned with the ascending members of ``domain.sets[si]``.
    Entries must be ``int`` or ``Fraction``; ints are stored as Fractions.
    """

    domain: ChoiceDomain = field(hash=False)
    probs: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self) -> None:
        dom = self.domain
        if len(self.probs) != len(dom.sets):
            raise ChoiceError("one probability row per choice set is required")
        rows = []
        for si, (s, row) in enumerate(zip(dom.sets, self.probs)):
            if len(row) != len(s):
                raise ChoiceError("one probability per set member is required")
            if not all(type(p) is Fraction for p in row):
                what = f"probability over {dom.set_symbols(si)!r}"
                row = tuple(_exact(p, what) for p in row)
            if any(p.numerator < 0 for p in row):
                raise ChoiceError("probabilities must be nonnegative")
            common = math.lcm(*(p.denominator for p in row))
            if sum(p.numerator * (common // p.denominator) for p in row) != common:
                raise ChoiceError(
                    f"probabilities over {dom.set_symbols(si)!r} "
                    f"sum to {sum(row)}, not 1")
            rows.append(tuple(row))
        object.__setattr__(self, "probs", tuple(rows))

    @classmethod
    def from_table(cls, domain: ChoiceDomain,
                   table: Mapping) -> "RandomChoiceFunction":
        """Build from {(set symbols tuple/frozenset, symbol): weight}."""
        rows = [[ZERO] * len(s) for s in domain.sets]
        for (members, symbol), p in table.items():
            pos, i = _slot(domain, members, symbol)
            rows[pos][i] = as_fraction(p)
        return cls(domain, tuple(tuple(r) for r in rows))

    def probability(self, members: Iterable[str], symbol: str) -> Fraction:
        pos, i = _slot(self.domain, members, symbol)
        return self.probs[pos][i]


def _slot(domain: ChoiceDomain, members: Iterable[str],
          symbol: str) -> tuple[int, int]:
    """Set position and member position of a symbol in a choice set."""
    members = tuple(members)
    pos = domain.position(members)
    x = domain.index.get(str(symbol))
    if x not in domain.sets[pos]:
        raise ChoiceError(f"{symbol!r} is not a member of {members!r}")
    return pos, domain.sets[pos].index(x)


@dataclass(frozen=True)
class CumulativeRCF:
    """Per (alternative, set): total probability of a strictly better choice."""

    domain: ChoiceDomain = field(hash=False)
    values: tuple[tuple[Fraction, ...], ...] = ()  # aligned like probs

    def value(self, set_position: int, x: int) -> Fraction:
        return self.values[set_position][self.domain.sets[set_position].index(x)]


@dataclass(frozen=True)
class ProgressiveRepresentation:
    """Positive weights on a strictly decreasing chain of choice functions.

    Weights must be ``int`` or ``Fraction``; ints are stored as Fractions.
    """

    components: tuple[tuple[Fraction, ChoiceFunction], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ChoiceError("a representation needs at least one component")
        object.__setattr__(self, "components", tuple(
            (_exact(w, "component weight"), c) for w, c in self.components))
        if any(w <= 0 for w, _ in self.components):
            raise ChoiceError("component weights must be positive")
        if sum(w for w, _ in self.components) != ONE:
            raise ChoiceError("component weights must sum to one")

    def functions(self) -> tuple[ChoiceFunction, ...]:
        return tuple(c for _, c in self.components)

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.components)

    def compose(self) -> "RandomChoiceFunction":
        return compose(dict(zip(self.functions(), self.weights())))


def compose(dist: Mapping[ChoiceFunction, Fraction | int | str]
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
        w = as_fraction(dist[c])
        if w < 0:
            raise ChoiceError("weights must be nonnegative")
        weights.append(w)
    common = math.lcm(*(w.denominator for w in weights))
    units = [w.numerator * (common // w.denominator) for w in weights]
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


def cumulative(rcf: RandomChoiceFunction,
               global_order: Sequence[str]) -> CumulativeRCF:
    """Cumulative form: value at (y, S) sums the weight strictly above y."""
    dom = rcf.domain
    grank = order_ranks(dom.order_index(global_order), dom.n)
    common, strict, _ = _cumulatives(rcf, grank)
    return CumulativeRCF(dom, tuple(
        tuple(Fraction(v, common) for v in row) for row in strict))


def _scaled(rcf: RandomChoiceFunction) -> tuple[int, list[list[int]]]:
    """D, the lcm of the RCF's denominators, and each probability times D."""
    common = math.lcm(*(p.denominator for row in rcf.probs for p in row))
    return common, [[p.numerator * (common // p.denominator) for p in row]
                    for row in rcf.probs]


def _cumulatives(rcf: RandomChoiceFunction, grank: Sequence[int]
                 ) -> tuple[int, list[list[int]], list[list[int]]]:
    """Per (set, member): mass strictly above, and mass at or above.

    Both are ``int`` multiples of 1/D, where D is the lcm of the RCF's
    denominators; D comes first in the result.  Comparisons between them
    need no division, and ``cumulative`` divides each entry by D once.
    """
    common, units = _scaled(rcf)
    strict, weak = [], []
    for s, row in zip(rcf.domain.sets, units):
        by_rank = sorted(range(len(s)), key=lambda i: grank[s[i]])
        up = [0] * len(s)
        at = [0] * len(s)
        acc = 0
        for i in by_rank:
            up[i] = acc
            acc += row[i]
            at[i] = acc
        strict.append(up)
        weak.append(at)
    return common, strict, weak


def decompose_progressive(rcf: RandomChoiceFunction,
                          ordering: PrimitiveOrderings) -> ProgressiveRepresentation:
    """The unique progressive representation of an RCF.

    Per choice set, the positive-probability alternatives tile (0, 1] with
    half-open intervals laid best-first.  The merged interval endpoints cut
    (0, 1] into segments; each segment selects one alternative per set and
    its length is the component weight.  This deterministic sweep replaces
    the uniform draw of the randomized description: the component weights
    are exactly the segment lengths.

    The sweep runs on integers.  Every probability is scaled once by D, the
    lcm of the RCF's denominators, so the endpoints are ``int``s in (0, D].
    Each set keeps a pointer to its current interval, and the breakpoints
    ascend, so a pointer only moves forward: O(sets x (members +
    breakpoints)) integer comparisons in all.  A weight becomes the
    ``Fraction`` w / D only when the representation is built.
    """
    dom = rcf.domain
    if ordering.domain != dom:
        raise DomainMismatchError("orderings live on a different domain")
    common, units = _scaled(rcf)
    # Per set, best first: each positive-weight member and the upper end of
    # its interval, in units of 1/D.  Every set's last end is D.
    uppers: list[list[int]] = []
    members: list[list[int]] = []
    cuts: set[int] = set()
    for s, ranking, row in zip(dom.sets, ordering.per_set, units):
        weight = dict(zip(s, row))
        acc = 0
        ends, xs = [], []
        for x in ranking:
            if weight[x]:
                acc += weight[x]
                ends.append(acc)
                xs.append(x)
        cuts.update(ends)
        uppers.append(ends)
        members.append(xs)
    breakpoints = sorted(cuts)
    # Per set, its pick on each segment: a pointer walks the set's
    # intervals forward as the breakpoints ascend.
    columns = []
    for ends, xs in zip(uppers, members):
        i = 0
        column = []
        for r in breakpoints:
            while ends[i] < r:
                i += 1
            column.append(xs[i])
        columns.append(column)
    components: list[list] = []  # [units, picks]
    prev = 0
    for r, picks in zip(breakpoints, zip(*columns)):
        if components and components[-1][1] == picks:
            components[-1][0] += r - prev
        else:
            components.append([r - prev, picks])
        prev = r
    rep = ProgressiveRepresentation(tuple(
        (Fraction(w, common), ChoiceFunction(dom, p)) for w, p in components))
    _assert_decreasing_chain(rep, ordering)
    return rep


def _assert_decreasing_chain(rep: ProgressiveRepresentation,
                             ordering: PrimitiveOrderings) -> None:
    fns = rep.functions()
    for c1, c2 in zip(fns, fns[1:]):
        if compare_picks(c1.picks, c2.picks, ordering.rank) is not Comparison.DOMINATES:
            raise AssertionError(
                "decomposition produced a non-decreasing chain; "
                "this is an implementation bug")


DELTA_GUARD = 10_000


def in_delta(rcf: RandomChoiceFunction, model: ChoiceModel
             ) -> tuple[bool, dict[ChoiceFunction, Fraction] | None]:
    """Exact feasibility of representing the RCF as a mixture over the model.

    Solves, over nonnegative weights indexed by the model, one equation per
    (set, alternative) except the first member of each set, and the
    unit-mass equation.  The skipped equation is implied: each choice
    function picks one member of the set, so its row is the unit-mass row
    minus the set's other rows, and the RCF's probabilities over the set sum
    to 1, so its right-hand side is 1 minus theirs.  Any one member could be
    skipped; the first is, because the model's functions are sorted by picks
    and Bland's rule enters the lowest column first, so the columns that
    enter early pick first members and, without those rows, each pivot
    touches fewer rows.  The rows are 0/1 ``int``s and the system goes to
    ``oracle.exact_feasible``.
    """
    dom = rcf.domain
    if model.domain != dom:
        raise DomainMismatchError("model lives on a different domain")
    if len(model) > DELTA_GUARD:
        raise GuardError(f"in_delta: {len(model):,} model functions exceed "
                         f"the guard of {DELTA_GUARD:,}")
    functions = model.functions
    picks = [c.picks for c in functions]
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    for si, s in enumerate(dom.sets):
        for pos, x in enumerate(s[1:], 1):
            rows.append([int(p[si] == x) for p in picks])
            rhs.append(rcf.probs[si][pos])
    rows.append([1] * len(functions))
    rhs.append(ONE)
    solution = exact_feasible(rows, rhs)
    if solution is None:
        return False, None
    return True, {c: w for c, w in zip(functions, solution) if w != 0}


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
    grank = order_ranks(dom.order_index(global_order), dom.n)
    _, strict, weak = _cumulatives(rcf, grank)
    alts = dom.alternatives
    for si, s in enumerate(dom.sets):
        if len(s) < 3:
            continue
        for x, sub in dom.removal_position[si].items():
            s_sub = dom.sets[sub]
            for y in s:
                if y == x:
                    continue
                pos_here = s.index(y)
                pos_there = s_sub.index(y)
                if grank[y] < grank[x]:  # y better than removed x
                    if weak[sub][pos_there] < weak[si][pos_here]:
                        return False, RThetaViolation(
                            dom.set_symbols(si), alts[x], alts[y], "rtheta1")
                elif strict[si][pos_here] < strict[sub][pos_there]:
                    return False, RThetaViolation(
                        dom.set_symbols(si), alts[x], alts[y], "rtheta2")
    return True, None


def decompose_theta(rcf: RandomChoiceFunction,
                    global_order: Sequence[str]) -> ProgressiveRepresentation:
    """Progressive decomposition guaranteed to land in the minimal extension.

    Requires the cumulative axioms to hold.  Every component is re-verified
    against the deterministic axioms; a failure there signals an
    implementation bug, not bad input.
    """
    ok, witness = satisfies_rtheta(rcf, global_order)
    if not ok:
        raise ChoiceError(
            f"the RCF violates the cumulative axioms ({witness.axiom} at "
            f"S={''.join(witness.set_symbols)}, removing {witness.removed}, "
            f"fixed {witness.fixed})")
    ordering = PrimitiveOrderings.from_global(rcf.domain, global_order)
    rep = decompose_progressive(rcf, ordering)
    for c in rep.functions():
        if theta_violation(c.picks, rcf.domain, ordering.global_rank) is not None:
            raise AssertionError(
                "a decomposition component escaped the minimal extension; "
                "this is an implementation bug")
    return rep
