"""Brute-force references for the tests.

Each function here answers a question by exhaustion, independently of the
route the package takes: every choice function of a domain, every order of
a symbol set, the vertices of the cumulative polytope by halfspace
insertion, sampled subdeterminants of its rows, the Heller condition on
its rows and the maps between choice functions and its 0/1 points
(``heller_check``, ``function_vertex`` and ``vertex_function``, which no
code of the package calls), a local betweenness order
by trying every permutation, the revealed betweenness of a model by a
symbol-level scan of every removal, and the orders whose theta model
contains a model by testing the theta axioms under all n! orders.
``restrict_ordering`` filters an order down to a set, and
``is_single_crossing`` reads a sequence of preferences pair by pair.  The
progressive sweep, the cumulatives, the random theta axioms and
``compose`` are here too, on ``Fraction``s throughout, as the references
for the package's integer routes, and the full per-component scans of a
decomposition chain (``compare_picks`` on every consecutive pair,
``_theta_fault`` on every component) as the references for its
incremental certificate checks.  The tuple loops ``compare_picks``,
``join_picks`` and ``meet_picks`` are the references for the package's
packed pick-vector operations, and ``join_irreducibles`` reads a lattice's
irreducibles off its covers.  ``delta_unreduced`` decides Delta(M)
membership on the full linear system, with no reduction to the RCF's
support, and ``block_marschak`` writes out every Block-Marschak polynomial
as its literal superset sum.  ``random_model_by_choice`` draws a seeded
random model with ``random.Random.choice``, the reference stream for the
package's written-out draw.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from choicelattice import (
    BetweennessRelation,
    ChoiceDomain,
    ChoiceFunction,
    ChoiceModel,
    Comparison,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    RandomChoiceFunction,
    RThetaViolation,
)
from choicelattice.core import _same_domain, order_ranks
from choicelattice.models import _theta_fault
from choicelattice.oracle import exact_feasible
from choicelattice.polytope import ConstraintSystem

ZERO = Fraction(0)
ONE = Fraction(1)

FUNCTION_GUARD = 1_000_000


def compare_picks(p1: tuple[int, ...], p2: tuple[int, ...],
                  rank: Sequence[Sequence[int]]) -> Comparison:
    """Set-by-set comparison; ``rank`` is PrimitiveOrderings.rank."""
    ge = le = True
    for s, (x, y) in enumerate(zip(p1, p2)):
        if x == y:
            continue
        if rank[s][x] < rank[s][y]:
            le = False
        else:
            ge = False
        if not (ge or le):
            return Comparison.INCOMPARABLE
    if ge and le:
        return Comparison.EQUAL
    return Comparison.DOMINATES if ge else Comparison.DOMINATED_BY


def join_picks(p1, p2, rank) -> tuple[int, ...]:
    """The better pick at every set."""
    return tuple(x if rank[s][x] < rank[s][y] else y
                 for s, (x, y) in enumerate(zip(p1, p2)))


def meet_picks(p1, p2, rank) -> tuple[int, ...]:
    """The worse pick at every set."""
    return tuple(x if rank[s][x] > rank[s][y] else y
                 for s, (x, y) in enumerate(zip(p1, p2)))


def join_irreducibles(members: Iterable[tuple[int, ...]],
                      rank: Sequence[Sequence[int]]) -> frozenset[tuple[int, ...]]:
    """The members with exactly one lower cover: a worse member with no
    member strictly between.  In a lattice these are its join-irreducibles;
    under the ranks negated they are its meet-irreducibles."""
    members = list(members)
    below = {p: {q for q in members
                 if compare_picks(p, q, rank) is Comparison.DOMINATES}
             for p in members}
    return frozenset(
        p for p in members
        if sum(not any(q in below[r] for r in below[p]) for q in below[p]) == 1)


def all_choice_functions(domain: ChoiceDomain) -> ChoiceModel:
    """Every choice function of the domain (cartesian product of picks)."""
    total = 1
    for s in domain.sets:
        total *= len(s)
    if total > FUNCTION_GUARD:
        raise GuardError(f"{total} choice functions exceed the guard "
                         f"of {FUNCTION_GUARD}")
    return ChoiceModel.from_picks(domain, itertools.product(*domain.sets))


ORDERING_GUARD_N = 8


def all_orderings(symbols: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """All strict total orders, lexicographic in the given symbol sequence."""
    if len(symbols) > ORDERING_GUARD_N:
        raise GuardError(f"ordering enumeration is guarded at n <= {ORDERING_GUARD_N}")
    return tuple(itertools.permutations(tuple(str(s) for s in symbols)))


def restrict_ordering(global_order: Sequence[str],
                      subset: Iterable[str]) -> tuple[str, ...]:
    """Filter a strict total order down to a choice set, preserving rank."""
    members = set(subset)
    return tuple(x for x in global_order if x in members)


def is_single_crossing(prefs: Sequence[Sequence[str]],
                       global_order: Sequence[str]) -> bool:
    """Agreement with the reference order grows along the sequence.

    For every pair ranked x above y by the reference order, once some
    preference in the sequence ranks x above y, every later one must too.
    """
    order = [str(a) for a in global_order]
    index = {a: i for i, a in enumerate(order)}
    ranks = []
    for pref in prefs:
        if sorted(pref) != sorted(order):
            raise DomainMismatchError(
                "every preference must rank the same alternatives")
        ranks.append(order_ranks([index[a] for a in pref], len(order)))
    for x, y in itertools.combinations(range(len(order)), 2):  # x above y
        agreed = False
        for r in ranks:
            if r[x] < r[y]:
                agreed = True
            elif agreed:
                return False
    return True


def betweenness_scan(model: ChoiceModel) -> frozenset[tuple[str, frozenset[str]]]:
    """(c(S); c(S minus x), x) as (middle, outer pair) symbols.

    Recorded for each member c, each set S and each x in S with S minus x
    in the domain, whenever the three symbols are distinct.
    """
    dom = model.domain
    sets = [frozenset(dom.set_symbols(i)) for i in range(len(dom.sets))]
    found = set()
    for c in model:
        choice = dict(zip(sets, c.symbols()))
        for s in sets:
            for x in s:
                after = choice.get(s - {x})
                if after is not None and len({choice[s], after, x}) == 3:
                    found.add((choice[s], frozenset((after, x))))
    return frozenset(found)


def theta_orders(model: ChoiceModel) -> tuple[tuple[str, ...], ...]:
    """Every order, sorted, under which each member passes the theta axioms."""
    dom = model.domain
    found = []
    for order in itertools.permutations(range(dom.n)):
        grank = order_ranks(order, dom.n)
        if all(_theta_fault(c.picks, dom.removals, grank) is None
               for c in model):
            found.append(tuple(dom.alternatives[i] for i in order))
    return tuple(sorted(found))


def agrees(order_index: Sequence[int], relation: BetweennessRelation) -> bool:
    """Whether the order puts every triple's middle between its outer pair."""
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
        if agrees(perm, local):
            return tuple(relation.alternatives[i] for i in perm)
    return None


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


def sample_subdeterminants(system: ConstraintSystem, samples: int,
                           max_order: int = 8, seed: int = 0) -> list[int]:
    """Determinants of randomly sampled square submatrices (exact integers)."""
    rng = random.Random(seed)
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


def function_vertex(system: ConstraintSystem,
                    c: ChoiceFunction) -> tuple[Fraction, ...]:
    """The 0/1 cumulative vector of a deterministic choice function,
    in the system's column order."""
    _same_domain(c, system)
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


def fraction_sweep(rcf: RandomChoiceFunction, ordering: PrimitiveOrderings
                   ) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The progressive representation as (weight, picks), on Fractions.

    At every breakpoint each set's interval list is scanned from its start.
    """
    dom = rcf.domain
    layouts = []
    cuts = {ONE}
    for si, ranking in enumerate(ordering.per_set):
        acc = ZERO
        bounds = []  # (upper endpoint, member) in ranking order
        for x in ranking:
            p = rcf.probs[si][dom.sets[si].index(x)]
            if p > 0:
                acc += p
                bounds.append((acc, x))
                cuts.add(acc)
        layouts.append(bounds)
    components: list[tuple[Fraction, tuple[int, ...]]] = []
    prev = ZERO
    for r in sorted(cuts):
        picks = []
        for bounds in layouts:
            for upper, x in bounds:
                if r <= upper:
                    picks.append(x)
                    break
        weight = r - prev
        picks_t = tuple(picks)
        if components and components[-1][1] == picks_t:
            components[-1] = (components[-1][0] + weight, picks_t)
        else:
            components.append((weight, picks_t))
        prev = r
    return components


def fraction_cumulatives(rcf: RandomChoiceFunction, grank: Sequence[int]):
    """Per (set, member): mass strictly above, and mass at or above."""
    strict, weak = [], []
    for s, row in zip(rcf.domain.sets, rcf.probs):
        by_rank = sorted(range(len(s)), key=lambda i: grank[s[i]])
        up = [ZERO] * len(s)
        at = [ZERO] * len(s)
        acc = ZERO
        for i in by_rank:
            up[i] = acc
            acc += row[i]
            at[i] = acc
        strict.append(up)
        weak.append(at)
    return strict, weak


def fraction_rtheta(rcf: RandomChoiceFunction, global_order: Sequence[str]
                    ) -> tuple[bool, RThetaViolation | None]:
    """The random theta axioms on Fraction cumulatives, first witness first."""
    dom = rcf.domain
    grank = order_ranks(dom.order_index(global_order), dom.n)
    strict, weak = fraction_cumulatives(rcf, grank)
    alts = dom.alternatives
    for si, s in enumerate(dom.sets):
        for x in s:
            s_sub = tuple(e for e in s if e != x)
            if s_sub not in dom.set_position:
                continue
            sub = dom.set_position[s_sub]
            for y in s:
                if y == x:
                    continue
                here, there = s.index(y), s_sub.index(y)
                if grank[y] < grank[x]:
                    if weak[sub][there] < weak[si][here]:
                        return False, RThetaViolation(
                            dom.set_symbols(si), alts[x], alts[y], "rtheta1")
                elif strict[si][here] < strict[sub][there]:
                    return False, RThetaViolation(
                        dom.set_symbols(si), alts[x], alts[y], "rtheta2")
    return True, None


def fraction_compose(dist: Mapping[ChoiceFunction, Fraction]
                     ) -> tuple[tuple[Fraction, ...], ...]:
    """The probability rows of a distribution, adding Fraction weights."""
    dom = next(iter(dist)).domain
    rows = [[ZERO] * len(s) for s in dom.sets]
    for c, w in dist.items():
        for si, x in enumerate(c.picks):
            rows[si][dom.sets[si].index(x)] += w
    return tuple(tuple(r) for r in rows)


def chain_fault(chain: Sequence[tuple[int, ...]],
                rank: Sequence[Sequence[int]]) -> int | None:
    """The first k at which chain[k - 1] does not strictly dominate chain[k]."""
    for k in range(1, len(chain)):
        if compare_picks(chain[k - 1], chain[k], rank) is not Comparison.DOMINATES:
            return k
    return None


def theta_escape(chain: Sequence[tuple[int, ...]], domain: ChoiceDomain,
                 grank: Sequence[int]) -> int | None:
    """The first pick vector that fails the theta axioms, each scanned in full."""
    for k, picks in enumerate(chain):
        if _theta_fault(picks, domain.removals, grank) is not None:
            return k
    return None


def delta_unreduced(rcf: RandomChoiceFunction, model: ChoiceModel
                    ) -> tuple[bool, dict[ChoiceFunction, Fraction] | None]:
    """Delta(M) membership on the full system: every model function a
    column, one row per (set, member) except each set's first member, the
    unit-mass row, and the RCF's probabilities as right-hand sides, each
    times D, the lcm of their denominators, so in ``int`` units of 1/D."""
    functions = model.functions
    common = math.lcm(*(p.denominator for row in rcf.probs for p in row))
    rows, rhs = [], []
    for si, s in enumerate(rcf.domain.sets):
        for pos, x in enumerate(s[1:], 1):
            rows.append([int(c.picks[si] == x) for c in functions])
            rhs.append(int(rcf.probs[si][pos] * common))
    rows.append([1] * len(functions))
    rhs.append(common)
    solution = exact_feasible(rows, rhs)
    if solution is None:
        return False, None
    return True, {c: w / common for c, w in zip(functions, solution) if w != 0}


def block_marschak(rcf: RandomChoiceFunction
                   ) -> dict[tuple[str, frozenset[str]], Fraction]:
    """Every Block-Marschak polynomial of an RCF on a full domain.

    K(x, A) = sum over every B containing A of (-1)^|B - A| rho(x, B), for
    each nonempty A and x in A, with rho(x, {x}) = 1; keyed (x, A) by
    symbols.  Each polynomial is summed term by term over the supersets.
    """
    dom = rcf.domain
    dom.require_full("Block-Marschak polynomials")
    prob = {}
    for si, row in enumerate(rcf.probs):
        members = dom.set_symbols(si)
        prob[frozenset(members)] = dict(zip(members, row))
    universe = frozenset(dom.alternatives)
    found = {}
    for size in range(1, dom.n + 1):
        for a in map(frozenset, itertools.combinations(dom.alternatives, size)):
            rest = sorted(universe - a)
            for x in a:
                total = ZERO
                for k in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, k):
                        b = a.union(extra)
                        p = ONE if len(b) == 1 else prob[b][x]
                        total += -p if k % 2 else p
                found[(x, a)] = total
    return found


def random_model_by_choice(seed: int, domain: ChoiceDomain, size: int
                           ) -> frozenset[tuple[int, ...]]:
    """The picks of ``size`` distinct functions, each pick drawn by
    ``rng.choice`` set by set, in domain order, from ``random.Random(seed)``."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < size:
        seen.add(tuple(rng.choice(s) for s in domain.sets))
    return frozenset(seen)
