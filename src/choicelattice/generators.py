"""Model generators.

``gen_random_model`` draws seeded random models; ``choicelattice generate
--kind random`` prints them.  The other generators build the paper's
behavioural examples: similarity-based binary lottery choice, satisficing
with per-set threshold alternatives, and multi-rationale maximization.
Nothing in the package calls them, and no test covers them yet.
"""

from __future__ import annotations

import itertools
import random as _stdrandom
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
from .models import ChoiceModel


@dataclass(frozen=True)
class SimilarityAgent:
    """Perception thresholds: values within epsilon are similar, values more
    than delta apart are different."""

    epsilon: Fraction
    delta: Fraction

    def __post_init__(self) -> None:
        eps = Fraction(self.epsilon)
        delta = Fraction(self.delta)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)
        if eps <= 0 or delta < eps:
            raise ChoiceError("need 0 < epsilon <= delta")


@dataclass(frozen=True)
class LotteryGrid:
    """Binary-outcome lotteries (prize m with probability p) on a finite grid.

    Grids with tied expected values are rejected at construction so the
    expected-payoff ordering is strict.
    """

    prizes: tuple[Fraction, ...]
    probabilities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        prizes = tuple(Fraction(v) for v in self.prizes)
        probs = tuple(Fraction(v) for v in self.probabilities)
        object.__setattr__(self, "prizes", prizes)
        object.__setattr__(self, "probabilities", probs)
        for seq, name in ((prizes, "prizes"), (probs, "probabilities")):
            if not seq:
                raise ChoiceError(f"{name} must be nonempty")
            if any(v <= 0 or v > 1 for v in seq):
                raise ChoiceError(f"{name} must lie in (0, 1]")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ChoiceError(f"{name} must be strictly ascending")
        values = [m * p for m in prizes for p in probs]
        if len(set(values)) != len(values):
            raise ChoiceError("expected values must be pairwise distinct")

    @cached_property
    def lotteries(self) -> tuple[tuple[str, Fraction, Fraction, Fraction], ...]:
        """(symbol, prize, probability, expected value), best value first."""
        items = [(f"m{m}p{p}", m, p, m * p)
                 for m in self.prizes for p in self.probabilities]
        items.sort(key=lambda t: t[3], reverse=True)
        return tuple(items)

    @cached_property
    def domain(self) -> ChoiceDomain:
        symbols = [sym for sym, _, _, _ in self.lotteries]
        sets = list(itertools.combinations(symbols, 2))
        return ChoiceDomain.from_symbols(symbols, sets)

    def ordering(self) -> PrimitiveOrderings:
        return PrimitiveOrderings.from_global(
            self.domain, [sym for sym, _, _, _ in self.lotteries])


def _similarity_pick(agent: SimilarityAgent, a, b) -> str:
    """a and b are (symbol, prize, probability, value) tuples."""
    _, m1, p1, v1 = a
    _, m2, p2, v2 = b
    dm, dp = abs(m1 - m2), abs(p1 - p2)
    if dm < agent.epsilon and dp > agent.delta:
        return a[0] if p1 > p2 else b[0]  # probability decides
    if dp < agent.epsilon and dm > agent.delta:
        return a[0] if m1 > m2 else b[0]  # prize decides
    return a[0] if v1 > v2 else b[0]


def gen_similarity(grid: LotteryGrid, agents: Sequence[SimilarityAgent]
                   ) -> tuple[ChoiceModel, PrimitiveOrderings]:
    """One choice function per perception of similarity, plus the
    expected-payoff primitive ordering."""
    if not agents:
        raise ChoiceError("at least one agent is required")
    dom = grid.domain
    by_symbol = {entry[0]: entry for entry in grid.lotteries}
    functions = []
    for agent in agents:
        picks = []
        for si in range(len(dom.sets)):
            s1, s2 = dom.set_symbols(si)
            picks.append(_similarity_pick(agent, by_symbol[s1], by_symbol[s2]))
        functions.append(ChoiceFunction.from_symbols(dom, picks))
    return ChoiceModel.from_functions(functions), grid.ordering()


def gen_satisficing(domain: ChoiceDomain, ordering: PrimitiveOrderings,
                    preference: Sequence[str],
                    thresholds: Iterable[Sequence[str]]) -> ChoiceModel:
    """Satisficing agents: each considers the alternatives at or above its
    per-set threshold and takes the common preference's best among them."""
    if ordering.domain != domain:
        raise DomainMismatchError("orderings live on a different domain")
    idx = domain.index
    pref = [str(a) for a in preference]
    if sorted(pref) != sorted(domain.alternatives):
        raise ChoiceError("the common preference must rank every alternative")
    pref_rank = order_ranks([idx[a] for a in pref], domain.n)
    rank = ordering.rank
    functions = []
    for agent in thresholds:
        cutoffs = [str(a) for a in agent]
        if len(cutoffs) != len(domain.sets):
            raise ChoiceError("one threshold per choice set is required")
        picks = []
        for si, s in enumerate(domain.sets):
            t = idx.get(cutoffs[si])
            if t is None or t not in s:
                raise ChoiceError(
                    f"threshold {cutoffs[si]!r} is not in set {domain.set_symbols(si)!r}")
            considered = [x for x in s if rank[si][x] <= rank[si][t]]
            picks.append(min(considered, key=pref_rank.__getitem__))
        functions.append(ChoiceFunction(domain, tuple(picks)))
    return ChoiceModel.from_functions(functions)


KRS_GUARD = 1_000_000


def gen_krs(domain: ChoiceDomain,
            preferences: Sequence[Sequence[str]]) -> ChoiceModel:
    """Multi-rationale model: at each set independently, pick the maximum of
    any of the given preferences."""
    if not preferences:
        raise ChoiceError("at least one preference is required")
    idx = domain.index
    ranks = []
    for pref in preferences:
        symbols = [str(a) for a in pref]
        if sorted(symbols) != sorted(domain.alternatives):
            raise ChoiceError("every preference must rank every alternative")
        ranks.append(order_ranks([idx[a] for a in symbols], domain.n))
    options = []
    total = 1
    for s in domain.sets:
        opts = sorted({min(s, key=r.__getitem__) for r in ranks})
        options.append(opts)
        total *= len(opts)
    if total > KRS_GUARD:
        raise GuardError(f"{total} functions exceed the generator guard")
    return ChoiceModel.from_picks(domain, itertools.product(*options))


def gen_random_model(seed: int, domain: ChoiceDomain, size: int) -> ChoiceModel:
    """Deterministic pseudorandom model of distinct functions."""
    total = 1
    for s in domain.sets:
        total *= len(s)
    if size < 1 or size > total:
        raise ChoiceError(f"size must be between 1 and {total}")
    rng = _stdrandom.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < size:
        seen.add(tuple(rng.choice(s) for s in domain.sets))
    return ChoiceModel.from_picks(domain, seen)
