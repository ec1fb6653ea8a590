import dataclasses
import functools
import itertools
import math
import random
import time

import pytest

from choicelattice import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    ChoiceModel,
    Comparison,
    GuardError,
    PrimitiveOrderings,
    enumerate_rational,
    gen_random_model,
    is_chain,
    is_lattice,
    is_mixture_closed,
    join,
    lattice_closure,
    meet,
    satisfies_theta,
    theta_model,
)

from choicelattice.core import order_ranks
from choicelattice.models import _close, _theta_fault, _theta_picks

from brute import (all_choice_functions, all_orderings, compare_picks,
                   is_single_crossing, join_irreducibles, join_picks,
                   meet_picks, random_model_by_choice)
from conftest import ABC, RATIONAL3, THETA3, fn, model, random_ordering


def _maximizer(domain, order):
    rank = {a: i for i, a in enumerate(order)}
    return ChoiceFunction.from_symbols(
        domain, [min(domain.set_symbols(i), key=rank.__getitem__)
                 for i in range(len(domain.sets))])


def _pairwise_closure(m, ordering):
    """Reference: the pairwise fixpoint, each new element joined and met
    with everything already present."""
    rank = ordering.rank
    items = sorted(m.picks_set())
    seen = set(items)
    for i, p in enumerate(items):  # grows while it is walked
        for q in items[:i + 1]:
            for c in (join_picks(p, q, rank), meet_picks(p, q, rank)):
                if c not in seen:
                    seen.add(c)
                    items.append(c)
    return frozenset(seen)


def _pairwise_witness(m, ordering):
    """Reference: the first pair, join before meet, that escapes the model."""
    rank = ordering.rank
    members = m.picks_set()
    for c1, c2 in itertools.combinations(m.functions, 2):
        for kind, op in (("join", join_picks), ("meet", meet_picks)):
            escapee = op(c1.picks, c2.picks, rank)
            if escapee not in members:
                return c1.picks, c2.picks, kind, escapee
    return None


def _packed_key(ordering):
    """Sort key of pick tuples: the rank at each set, read from the last set
    to the first, which orders them as their packed values do."""
    rank = ordering.rank
    return lambda p: [rank[si][p[si]] for si in range(len(p) - 1, -1, -1)]


def _generation_witness(m, ordering):
    """Reference of ``is_lattice``'s witness rule, on pick tuples: the join
    stage adds the members worst first, then the meet stage best first;
    each adds a member g not built yet, and the first member a built before
    g whose join (meet) with g leaves the model, with that escapee, is the
    witness, a and g in the model's order."""
    rank = ordering.rank
    members = m.picks_set()
    ascending = sorted(members, key=_packed_key(ordering))
    for kind, op, generators in (("join", join_picks, ascending[::-1]),
                                 ("meet", meet_picks, ascending)):
        items, seen = [], set()
        for g in generators:
            if g in seen:
                continue
            built = [op(a, g, rank) for a in items]
            for a, c in zip(items, built):
                if c not in members:
                    return (*sorted((a, g)), kind, c)
            for c in [g] + built:
                if c not in seen:
                    seen.add(c)
                    items.append(c)
    return None


def _check_lattice_witness(m, ordering, witness):
    """The witness names two members, in the model's order, whose join or
    meet is the escapee, which lies outside the model; and it is the one
    the documented rule names."""
    left, right = witness.left, witness.right
    assert left in m and right in m and left.picks < right.picks
    op = join if witness.kind == "join" else meet
    assert op(left, right, ordering) == witness.escapee
    assert witness.escapee not in m
    assert (left.picks, right.picks, witness.kind,
            witness.escapee.picks) == _generation_witness(m, ordering)


def _chain_witness(m, ordering):
    """Reference of ``is_chain``'s witness rule: the first pair of members
    next to each other in packed order that is incomparable, in the
    model's order; None on a chain."""
    walk = sorted(m.picks_set(), key=_packed_key(ordering))
    for p, q in zip(walk, walk[1:]):
        if compare_picks(p, q, ordering.rank) is Comparison.INCOMPARABLE:
            return tuple(sorted((p, q)))
    return None


def _closure_of_size(rng, domain, ordering, low, high):
    """The lattice closure of random generators, with low to high members."""
    while True:
        gens = [tuple(rng.choice(s) for s in domain.sets)
                for _ in range(4 if domain.n > 4 else 6)]
        closed = lattice_closure(ChoiceModel.from_picks(domain, gens), ordering)
        if low <= len(closed) <= high:
            return closed


def _counting(ordering):
    """An equal ordering whose packed join, meet and weakly_better record
    the second operand of every scalar call, by operation."""
    packed = ordering.packed
    seconds = {"join": [], "meet": [], "weakly_better": []}

    def counted(kind):
        op = getattr(packed, kind)

        def call(a, b):
            seconds[kind].append(b)
            return op(a, b)
        return call

    copy = PrimitiveOrderings(ordering.domain, ordering.per_set,
                              ordering.global_order)
    copy.__dict__["packed"] = packed._replace(
        **{kind: counted(kind) for kind in seconds})
    return copy, seconds


def _length(domain):
    """l = sum(|S| - 1): the length of the product of the sets' chains."""
    return sum(len(s) - 1 for s in domain.sets)


def _maximal_chain(domain):
    """From the worst pick vector to the best under the alphabetical order,
    one step at one set at a time: l + 1 members."""
    sets = domain.sets
    c = [s[-1] for s in sets]
    chain = [tuple(c)]
    for si, s in enumerate(sets):
        while c[si] != s[0]:
            c[si] = s[s.index(c[si]) - 1]
            chain.append(tuple(c))
    return ChoiceModel.from_picks(domain, chain)


@functools.cache
def _theta_filter(n, order):
    """Reference: every choice function that passes both theta axioms."""
    domain = ChoiceDomain.full("abcd"[:n])
    grank = order_ranks(order, n)
    return frozenset(picks for picks in itertools.product(*domain.sets)
                     if _theta_fault(picks, domain.removals, grank) is None)


class TestPackedEngine:
    @pytest.mark.parametrize("per_set", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closure_equals_pairwise_fixpoint(self, n, per_set):
        rng = random.Random(100 * n + per_set)
        domain = ChoiceDomain.full("abcde"[:n])
        rational = list(enumerate_rational(domain).functions)
        universe = [tuple(rng.choice(s) for s in domain.sets)
                    for _ in range(40)]
        for trial in range(12):
            ordering = random_ordering(rng, domain, per_set)
            count = 2 + trial % 3  # at most 166 members, the free lattice
            if trial % 2:
                gens = ChoiceModel.from_functions(rng.sample(rational, count))
            else:
                gens = ChoiceModel.from_picks(domain, rng.sample(universe, count))
            closed = lattice_closure(gens, ordering)
            assert closed.picks_set() == _pairwise_closure(gens, ordering)

    @pytest.mark.parametrize("per_set", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_is_lattice_and_is_chain_match_pairwise_scans(self, n, per_set):
        rng = random.Random(200 * n + per_set)
        domain = ChoiceDomain.full("abcde"[:n])
        universe = [tuple(rng.choice(s) for s in domain.sets)
                    for _ in range(30)]
        failures = 0
        for trial in range(30):
            ordering = random_ordering(rng, domain, per_set)
            if trial % 3:
                m = ChoiceModel.from_picks(
                    domain, rng.sample(universe, rng.randint(2, 6)))
            else:
                m = lattice_closure(ChoiceModel.from_picks(
                    domain, rng.sample(universe, 3)), ordering)
            ok, witness = is_lattice(m, ordering)
            expect = _pairwise_witness(m, ordering)
            assert ok is (expect is None)
            if witness is not None:
                failures += 1
                _check_lattice_witness(m, ordering, witness)
            rank = ordering.rank
            pairs = [(c1, c2) for c1, c2 in
                     itertools.combinations(m.functions, 2)
                     if compare_picks(c1.picks, c2.picks, rank)
                     is Comparison.INCOMPARABLE]
            ok, pair = is_chain(m, ordering)
            assert ok is (not pairs) and (pair is None) is ok
            if pair is not None:
                assert pair in pairs
                assert (pair[0].picks, pair[1].picks) == _chain_witness(
                    m, ordering)
        assert failures >= 10

    @pytest.mark.parametrize("per_set", [False, True])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_large_closure_witnesses_match_pairwise_scan(self, n, per_set):
        # closures of over 100 members; a model less the member at the
        # first, a middle or the last position escapes where that member
        # was built
        rng = random.Random(300 * n + per_set)
        domain = ChoiceDomain.full("abcdef"[:n])
        ordering = random_ordering(rng, domain, per_set)
        closed = _closure_of_size(rng, domain, ordering, 100, 200)
        fns = closed.functions
        size, middle = len(fns), len(fns) // 2
        assert is_lattice(closed, ordering) == (True, None)
        models = [ChoiceModel(domain, fns[:1]),
                  ChoiceModel(domain, fns[middle:middle + 2])]
        models += [ChoiceModel(domain, fns[:i] + fns[i + 1:])
                   for i in (0, middle, size - 1)]
        cases = [(m, ordering) for m in models]
        if n == 4 and not per_set:
            # theta(abcd), 526 members, less the same three positions
            theta = theta_model(domain, "abcd").functions
            alphabetical = PrimitiveOrderings.from_global(domain, "abcd")
            assert is_lattice(ChoiceModel(domain, theta), alphabetical) == (
                True, None)
            cases += [(ChoiceModel(domain, theta[:i] + theta[i + 1:]),
                       alphabetical)
                      for i in (0, len(theta) // 2, len(theta) - 1)]
        for m, ordering in cases:
            ok, witness = is_lattice(m, ordering)
            assert ok is (_pairwise_witness(m, ordering) is None)
            if witness is not None:
                _check_lattice_witness(m, ordering, witness)

    def test_is_lattice_finds_an_escape_at_the_last_pair(self):
        # a chain strictly below j, then p and q with join j: under the
        # alphabetical order a rank is the alternative's index, so the chain
        # sorts first and (p, q) is the last pair, at n = 6
        domain = ChoiceDomain.full("abcdef")
        ordering = PrimitiveOrderings.from_global(domain, domain.alternatives)
        sets = domain.sets
        worst = [s[-1] for s in sets]
        p, q = list(worst), list(worst)
        p[0], q[1] = sets[0][-2], sets[1][-2]
        j = [min(x, y) for x, y in zip(p, q)]
        chain, c = [], [s[0] for s in sets]
        for si, s in enumerate(sets):
            while c[si] != j[si]:
                chain.append(tuple(c))
                c[si] = s[s.index(c[si]) + 1]
        m = ChoiceModel.from_picks(domain, chain + [tuple(p), tuple(q)])
        assert len(m) == 129
        ok, witness = is_lattice(m, ordering)
        assert not ok
        assert (witness.left, witness.right) == m.functions[-2:]
        assert (witness.kind, witness.escapee.picks) == ("join", tuple(j))
        assert _pairwise_witness(m, ordering) == (
            witness.left.picks, witness.right.picks, "join", tuple(j))

    @pytest.mark.parametrize("per_set", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_lattices_are_generated_from_their_irreducibles(self, n, per_set):
        # each stage of is_lattice, and the join stage of lattice_closure,
        # combines with the bottom (top) and the join- (meet-) irreducibles
        # only: the first generator makes no call, each irreducible one call
        # per member built before it
        rng = random.Random(400 * n + per_set)
        domain = ChoiceDomain.full("abcde"[:n])
        ell = _length(domain)
        rational = list(enumerate_rational(domain).functions)
        for trial in range(4 if n < 5 else 2):  # at n = 5, up to 166 members
            ordering = random_ordering(rng, domain, per_set)
            counted, seconds = _counting(ordering)
            if trial % 2:
                gens = ChoiceModel.from_functions(rng.sample(rational, 4))
            else:
                gens = ChoiceModel.from_picks(domain, [
                    tuple(rng.choice(s) for s in domain.sets)
                    for _ in range(4)])
            closed = lattice_closure(gens, counted)
            members = closed.picks_set()
            assert members == _pairwise_closure(gens, ordering)
            pack = ordering.packed.pack
            joins = {pack(p) for p in join_irreducibles(members, ordering.rank)}
            dual = [[-r for r in row] for row in ordering.rank]
            meets = {pack(p) for p in join_irreducibles(members, dual)}
            assert set(seconds["join"]) == joins
            assert len(seconds["join"]) <= (len(joins) + 1) * len(closed)
            seconds["join"].clear()
            seconds["meet"].clear()
            assert is_lattice(closed, counted) == (True, None)
            assert _pairwise_witness(closed, ordering) is None
            assert (set(seconds["join"]), set(seconds["meet"])) == (joins, meets)
            for kind in ("join", "meet"):
                assert len(seconds[kind]) <= (ell + 1) * len(closed)

    def test_join_closed_antichain_escapes_in_the_meet_stage(self):
        # the join-closure of an antichain of l + 2 members: it is closed
        # under join, and each antichain member is join-irreducible in it,
        # so the join stage adds all l + 2, one more than any lattice needs,
        # and builds nothing outside; the meet stage names the witness
        domain = ChoiceDomain.full("abcd")
        ordering = PrimitiveOrderings.from_global(domain, "abcd")
        ell = _length(domain)
        rng = random.Random(17)
        # under the alphabetical order a better pick has a smaller index, so
        # vectors of one index sum are pairwise incomparable
        level = [p for p in itertools.product(*domain.sets) if sum(p) == 18]
        antichain = rng.sample(level, ell + 2)
        closed = set(antichain)
        while True:
            new = {join_picks(p, q, ordering.rank) for p in closed
                   for q in closed} - closed
            if not new:
                break
            closed |= new
        m = ChoiceModel.from_picks(domain, closed)
        counted, seconds = _counting(ordering)
        pack = ordering.packed.pack
        values = [pack(c.picks) for c in m.functions]
        items, escape = _close(sorted(values, reverse=True),
                               counted.packed.join, set(values))
        assert escape is None and sorted(items) == sorted(values)
        # the worst antichain member comes first and makes no call
        generators = {pack(p) for p in antichain}
        assert set(seconds["join"]) == generators - {max(generators)}
        ok, witness = is_lattice(m, ordering)
        assert not ok and witness.kind == "meet"
        _check_lattice_witness(m, ordering, witness)

    @pytest.mark.parametrize("per_set", [False, True])
    @pytest.mark.parametrize("n", [5, 6])
    def test_is_lattice_witness_on_the_rational_model(self, n, per_set):
        # the rational model is what the CLI's failing check --lattice
        # names a witness for at n = 5 and 6
        rng = random.Random(500 * n + per_set)
        domain = ChoiceDomain.full("abcdef"[:n])
        rational = enumerate_rational(domain)
        ordering = random_ordering(rng, domain, per_set)
        ok, witness = is_lattice(rational, ordering)
        assert not ok
        _check_lattice_witness(rational, ordering, witness)

    @pytest.mark.parametrize("n", [5, 6])
    def test_is_lattice_accepts_a_maximal_chain(self, n):
        # the worst case of generation: every member but the bottom is
        # irreducible, so each stage uses all l + 1 members and stops short
        # of none
        domain = ChoiceDomain.full("abcdef"[:n])
        ordering = PrimitiveOrderings.from_global(domain, domain.alternatives)
        chain = _maximal_chain(domain)
        assert len(chain) == _length(domain) + 1 == {5: 50, 6: 130}[n]
        assert is_chain(chain, ordering) == (True, None)
        counted, seconds = _counting(ordering)
        assert is_lattice(chain, counted) == (True, None)
        for kind in ("join", "meet"):
            assert len(set(seconds[kind])) == len(chain) - 1
            assert len(seconds[kind]) == len(chain) * (len(chain) - 1) // 2

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_late_escapes_cost_what_generation_costs(self, position):
        # theta(abcd) less one member: a stage stops at its first escape,
        # within the (l + 1) |M| operations that generating a lattice
        # takes, where a scan of the pairs walks far for a late one
        domain = ChoiceDomain.full("abcd")
        ordering = PrimitiveOrderings.from_global(domain, "abcd")
        theta = theta_model(domain, "abcd").functions
        i = {"first": 0, "middle": len(theta) // 2,
             "last": len(theta) - 1}[position]
        m = ChoiceModel(domain, theta[:i] + theta[i + 1:])
        counted, seconds = _counting(ordering)
        ok, witness = is_lattice(m, counted)
        assert not ok and _pairwise_witness(m, ordering) is not None
        _check_lattice_witness(m, ordering, witness)
        for kind in ("join", "meet"):
            assert len(seconds[kind]) <= (_length(domain) + 1) * len(m)

    @pytest.mark.parametrize("n", [5, 6])
    def test_is_chain_compares_neighbours_in_packed_order(self, n):
        # one comparison per member after the first, not one per pair
        domain = ChoiceDomain.full("abcdef"[:n])
        ordering = PrimitiveOrderings.from_global(domain, domain.alternatives)
        chain = _maximal_chain(domain)
        counted, seconds = _counting(ordering)
        assert is_chain(chain, counted) == (True, None)
        assert len(seconds["weakly_better"]) <= len(chain) - 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_theta_model_equals_axiom_filter(self, n):
        symbols = "abcd"[:n]
        domain = ChoiceDomain.full(symbols)
        for order in itertools.permutations(range(n)):
            expect = _theta_filter(n, order)
            got = theta_model(domain, [symbols[x] for x in order])
            assert got.picks_set() == expect

    def test_theta_propagation_decides_each_key_once(self, dom4, monkeypatch):
        # the theta rule sees each (set, picks at its subsets, candidate
        # pick) at most once, where the propagation could check every
        # partial assignment entering a set against every candidate pick
        calls = []

        def counted(picks, removals, grank):
            calls.append((tuple(x for _, x, _ in removals), picks[1:], picks[0]))
            return _theta_fault(picks, removals, grank)

        monkeypatch.setattr("choicelattice.models._theta_fault", counted)
        sets = dom4.sets
        for order in ("abcd", "cadb"):
            calls.clear()
            _theta_picks.cache_clear()
            index = dom4.order_index(order)
            assert theta_model(dom4, order).picks_set() == _theta_filter(4, index)
            # every set with subsets, each (set, key) once per candidate
            keys = {(xs, key) for xs, key, _ in calls}
            assert {xs for xs, _ in keys} == {s for s in sets if len(s) > 2}
            assert len(set(calls)) == len(calls) == sum(len(xs) for xs, _ in keys)
            grank = order_ranks(index, 4)
            partial_checks = 0
            for si, s in enumerate(sets):
                if len(s) > 2:  # the pairs of a full domain have no subsets
                    inside = [r for r in dom4.removals if r[0] > si]
                    partial_checks += len(s) * sum(
                        _theta_fault((None,) * (si + 1) + tail, inside, grank)
                        is None for tail in itertools.product(*sets[si + 1:]))
            assert 10 * len(calls) < partial_checks

    def test_rational_closure_is_theta_filter_n4(self, dom4):
        """The paper's central equivalence, under all 24 orders at n = 4."""
        rational = enumerate_rational(dom4)
        for order in itertools.permutations(range(4)):
            ordering = PrimitiveOrderings.from_global(
                dom4, [dom4.alternatives[x] for x in order])
            closed = lattice_closure(rational, ordering).picks_set()
            assert len(closed) == 526
            assert closed == _theta_filter(4, order)


class TestIsLattice:
    def test_example1_is_lattice(self, example1_model, ord3):
        ok, witness = is_lattice(example1_model, ord3)
        assert ok and witness is None

    def test_rational_model_is_not(self, dom3, ord3):
        rational = enumerate_rational(dom3)
        ok, witness = is_lattice(rational, ord3)
        assert not ok
        combined = (join if witness.kind == "join" else meet)(
            witness.left, witness.right, ord3)
        assert combined == witness.escapee
        assert witness.escapee not in rational
        # the documented escape: the join of bbab and cacc is baab
        assert join(fn(dom3, "bbab"), fn(dom3, "cacc"), ord3) == fn(dom3, "baab")
        assert fn(dom3, "baab") not in rational

    def test_singleton(self, dom3, ord3):
        assert is_lattice(model(dom3, "abac"), ord3)[0]


class TestClosure:
    def test_pair_closure(self, dom3, ord3):
        closed = lattice_closure(model(dom3, "bbab", "cacc"), ord3)
        assert set(closed.strings()) == {"bbab", "cacc", "baab", "cbcc"}

    def test_rational_closure_is_theta_set(self, dom3, ord3):
        closed = lattice_closure(enumerate_rational(dom3), ord3)
        assert set(closed.strings()) == THETA3

    def test_identity_on_lattice(self, example1_model, ord3):
        assert lattice_closure(example1_model, ord3) == example1_model

    def test_monotone_and_idempotent(self, dom3, ord3):
        rng = random.Random(11)
        universe = list(all_choice_functions(dom3).functions)
        for _ in range(25):
            small = rng.sample(universe, rng.randint(1, 4))
            big = small + rng.sample(universe, rng.randint(1, 3))
            close_small = lattice_closure(ChoiceModel.from_functions(small), ord3)
            close_big = lattice_closure(ChoiceModel.from_functions(big), ord3)
            assert close_small.picks_set() <= close_big.picks_set()
            assert lattice_closure(close_small, ord3) == close_small
            assert is_lattice(close_small, ord3)[0]

    def test_guard_on_the_size_reached(self):
        # the closure is theta at n = 5, 1,035,642 members
        domain = ChoiceDomain.full("abcde")
        ordering = PrimitiveOrderings.from_global(domain, "abcde")
        start = time.perf_counter()
        with pytest.raises(GuardError, match=r"lattice_closure: \d{2},\d{3} "
                           "members exceed the guard of 20,000"):
            lattice_closure(enumerate_rational(domain), ordering)
        assert time.perf_counter() - start < 30


class TestChoiceModel:
    def test_pick_set_is_built_once(self, dom3, example1_model):
        members = example1_model.picks_set()
        assert members is example1_model.picks_set()
        assert members == {c.picks for c in example1_model.functions}
        assert fn(dom3, "abac") in example1_model
        assert fn(dom3, "bbab") not in example1_model
        again = model(dom3, "abac", "aaac", "abab", "aaab")
        assert again == example1_model and hash(again) == hash(example1_model)
        assert [f.name for f in dataclasses.fields(ChoiceModel)] == [
            "domain", "functions"]


class TestChain:
    def test_examples(self, dom3, ord3):
        assert is_chain(model(dom3, "aaab", "abab", "abac"), ord3) == (True, None)
        pair = model(dom3, "abab", "aaac")
        assert is_chain(pair, ord3) == (False, pair.functions)
        assert is_chain(model(dom3, "bacb"), ord3)[0]


class TestEnumerateRational:
    def test_full_n3(self, dom3):
        assert set(enumerate_rational(dom3).strings()) == RATIONAL3

    def test_n2(self):
        domain = ChoiceDomain.full("ab")
        assert len(enumerate_rational(domain)) == 2

    def test_partial_domain(self):
        domain = ChoiceDomain.from_symbols("abc", [["a", "b"], ["b", "c"]])
        expected = {tuple(_maximizer(domain, order).picks)
                    for order in all_orderings(ABC)}
        assert len(expected) == 4
        assert enumerate_rational(domain).picks_set() == expected

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_rational(ChoiceDomain.full("abcdefg"))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_maximizers_of_every_order(self, n):
        # the prefix walk against one maximizer per order, on the full
        # domain (n! functions) and on random partial ones
        alts = "abcdef"[:n]
        rng = random.Random(600 + n)
        domains = [ChoiceDomain.full(alts)] + [
            _partial_domain(rng, alts) for _ in range(3)]
        orders = all_orderings(alts)
        for domain in domains:
            expected = {_maximizer(domain, order).picks for order in orders}
            assert enumerate_rational(domain).picks_set() == expected
        assert len(enumerate_rational(domains[0])) == math.factorial(n)


def _partial_domain(rng, alts):
    sets = [s for k in range(2, len(alts) + 1)
            for s in itertools.combinations(alts, k)]
    return ChoiceDomain.from_symbols(alts, rng.sample(sets, rng.randint(1, len(sets))))


class TestRandomModel:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_draws_are_those_of_rng_choice(self, n):
        # gen_random_model writes out the draw of rng.choice; the models a
        # seed gives, and so the CLI's golden output, must not change
        alts = "abcdef"[:n]
        rng = random.Random(700 + n)
        for domain in [ChoiceDomain.full(alts)] + [
                _partial_domain(rng, alts) for _ in range(3)]:
            total = math.prod(map(len, domain.sets))
            for seed in (0, 1, 5, 12345):
                size = min(total, rng.randint(1, 60))
                assert (gen_random_model(seed, domain, size).picks_set()
                        == random_model_by_choice(seed, domain, size))


class TestTheta:
    def test_orange_node_passes(self, dom3):
        ok, violation = satisfies_theta(fn(dom3, "baac"), ABC)
        assert ok and violation is None

    def test_abcb_fails_with_witness(self, dom3):
        ok, violation = satisfies_theta(fn(dom3, "abcb"), ABC)
        assert not ok
        assert violation.axiom == "theta1"
        assert violation.set_symbols == ("a", "b", "c")
        assert violation.removed == "b"
        assert violation.chosen == "a"
        assert violation.chosen_after == "c"

    def test_every_rational_function_passes(self, dom3, dom4):
        for domain, symbols in ((dom3, ABC), (dom4, tuple("abcd"))):
            for order in all_orderings(symbols):
                c = _maximizer(domain, order)
                assert satisfies_theta(c, symbols)[0]

    def test_needs_full_domain(self):
        domain = ChoiceDomain.from_symbols("abc", [["a", "b"], ["b", "c"]])
        c = ChoiceFunction.from_symbols(domain, ["a", "b"])
        with pytest.raises(ChoiceError):
            satisfies_theta(c, ABC)

    def test_theta_model_n3(self, dom3):
        assert set(theta_model(dom3, ABC).strings()) == THETA3
        assert RATIONAL3 <= set(theta_model(dom3, ABC).strings())

    def test_theta_model_n2_vacuous(self):
        domain = ChoiceDomain.full("ab")
        assert len(theta_model(domain, "ab")) == 2

    def test_theta_model_guard(self):
        with pytest.raises(GuardError):
            theta_model(ChoiceDomain.full("abcde"), "abcde")


def _mixtures(c1, c2):
    options = [(x,) if x == y else (x, y) for x, y in zip(c1.picks, c2.picks)]
    return set(itertools.product(*options))


def _swap_witness(m):
    """The documented rule: members in model order, sets in domain order and
    each set's chosen alternatives ascending, up to the first single-set
    swap outside m; with the first member that picks the swapped-in
    alternative there, the two in model order."""
    fns = list(m.functions)
    chosen = [sorted({d.picks[si] for d in fns})
              for si in range(len(m.domain.sets))]
    for c in fns:
        for si, values in enumerate(chosen):
            for v in values:
                picks = list(c.picks)
                picks[si] = v
                if tuple(picks) not in m.picks_set():
                    donor = next(d for d in fns if d.picks[si] == v)
                    left, right = sorted((c, donor), key=fns.index)
                    return left, right, tuple(picks)
    return None


def _check_mixture_witness(m, witness):
    fns = list(m.functions)
    assert fns.index(witness.left) < fns.index(witness.right)
    assert witness.escapee not in m
    assert all(e in (x, y) for e, x, y in zip(
        witness.escapee.picks, witness.left.picks, witness.right.picks))
    assert (witness.left, witness.right,
            witness.escapee.picks) == _swap_witness(m)


class _Probed(frozenset):
    """A frozenset that counts its ``in`` tests."""

    def __contains__(self, item):
        self.probes += 1
        return super().__contains__(item)


class TestMixtureClosure:
    def test_example1_closed_by_exhaustion(self, example1_model):
        members = example1_model.picks_set()
        for c1, c2 in itertools.combinations(example1_model.functions, 2):
            assert _mixtures(c1, c2) <= members
        assert is_mixture_closed(example1_model)[0]

    def test_everything_is_closed(self, dom3):
        assert is_mixture_closed(all_choice_functions(dom3))[0]

    def test_rational_escapes(self, dom3):
        rational = enumerate_rational(dom3)
        ok, witness = is_mixture_closed(rational)
        assert not ok
        _check_mixture_witness(rational, witness)
        assert witness.escapee.to_string() == "baab"
        # baab escapes the bbab/cacc pair specifically
        assert fn(dom3, "baab").picks in _mixtures(
            fn(dom3, "bbab"), fn(dom3, "cacc"))

    def test_large_product_is_closed_by_its_count(self, dom4):
        # two functions that differ at all 11 sets, and every recombination
        product = ChoiceModel.from_picks(
            dom4, itertools.product(*(s[:2] for s in dom4.sets)))
        assert len(product) == 2 ** 11
        start = time.perf_counter()
        assert is_mixture_closed(product) == (True, None)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("removed", [2 ** 11 - 1, 2 ** 10 - 1],
                             ids=["far corner", "1024th"])
    def test_late_escape_from_a_product(self, dom4, removed):
        # the product of the first two members of each of the 11 sets, less
        # one member: every escaping swap starts at a neighbour of it, the
        # first one at member 1,023 (far corner) or 511 (the 1,024th); each
        # of the |M| members has 11 swaps
        full = sorted(itertools.product(*(s[:2] for s in dom4.sets)))
        m = ChoiceModel.from_picks(dom4, full[:removed] + full[removed + 1:])
        probed = _Probed(m.picks_set())
        probed.probes = 0
        object.__setattr__(m, "_members", probed)
        ok, witness = is_mixture_closed(m)
        assert not ok and witness.escapee.picks == full[removed]
        assert probed.probes <= len(m) * 11
        _check_mixture_witness(m, witness)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_witness_follows_the_swap_rule(self, n):
        rng = random.Random(451 + n)
        dom = ChoiceDomain.full("abcde"[:n])
        # a product over the first three sets, and that product less one
        # member, a corner or one inside
        product = sorted(itertools.product(
            *(s[:2] for s in dom.sets[:3]), *((s[0],) for s in dom.sets[3:])))
        models = [enumerate_rational(dom)] + [
            ChoiceModel.from_picks(dom, product[:k] + product[k + 1:])
            for k in (len(product), 0, 3)] + [
            gen_random_model(rng.randrange(10 ** 6), dom, rng.randint(2, 12))
            for _ in range(20)]
        closed = 0
        for m in models:
            ok, witness = is_mixture_closed(m)
            if n == 3:  # the pairwise definition
                assert ok is all(
                    _mixtures(c1, c2) <= m.picks_set()
                    for c1, c2 in itertools.combinations(m.functions, 2))
            if ok:  # and the reference's scan of every swap
                assert witness is None and _swap_witness(m) is None
                closed += 1
            else:
                _check_mixture_witness(m, witness)
        assert 1 <= closed <= len(models) - 10


def _argmax_set(m):
    """The choice functions that maximise the summed set-contingent utility
    u(x, S) = 1 if some member of m picks x at S, else 0: every function
    that picks at each set an alternative chosen there, a literal product."""
    chosen = [{c.picks[si] for c in m} for si in range(len(m.domain.sets))]
    return set(itertools.product(*chosen))


class TestSetContingent:
    """A model is mixture closed iff it is the argmax set of a
    set-contingent utility, the 0/1 indicator of the chosen alternatives."""

    def test_example1_verifies(self, example1_model):
        assert _argmax_set(example1_model) == example1_model.picks_set()
        assert is_mixture_closed(example1_model)[0]

    def test_rational_does_not(self, dom3):
        rational = enumerate_rational(dom3)
        assert len(_argmax_set(rational)) > len(rational)
        assert not is_mixture_closed(rational)[0]

    def test_matches_mixture_closure_on_samples(self, dom3):
        rng = random.Random(5)
        universe = list(all_choice_functions(dom3).functions)
        for _ in range(40):
            m = ChoiceModel.from_functions(
                rng.sample(universe, rng.randint(1, 5)))
            assert (_argmax_set(m) == m.picks_set()) == is_mixture_closed(m)[0]


class TestProp3Triangle:
    def test_triangle_with_ordering_sampling(self, dom3):
        rng = random.Random(23)
        universe = list(all_choice_functions(dom3).functions)
        for _ in range(12):
            m = ChoiceModel.from_functions(
                rng.sample(universe, rng.randint(1, 4)))
            closed, witness = is_mixture_closed(m)
            assert (_argmax_set(m) == m.picks_set()) == closed
            if closed:
                for _ in range(100):
                    rankings = [rng.sample(list(s), len(s)) for s in dom3.sets]
                    ords = PrimitiveOrderings(
                        dom3, tuple(tuple(r) for r in rankings))
                    assert is_lattice(m, ords)[0]
            else:
                # rank the escaping mixture's pick first in every set: the
                # mixture becomes the pair's join, so the pair refutes the
                # lattice property under that ordering
                rankings = []
                for si, s in enumerate(dom3.sets):
                    top = witness.escapee.picks[si]
                    rankings.append((top,) + tuple(x for x in s if x != top))
                ords = PrimitiveOrderings(dom3, tuple(rankings))
                assert not is_lattice(m, ords)[0]


class TestSingleCrossing:
    def test_examples(self):
        assert is_single_crossing(
            [("c", "b", "a"), ("b", "a", "c"), ("a", "b", "c")], ABC)
        assert is_single_crossing([("b", "a", "c")], ABC)
        assert not is_single_crossing(
            [("a", "b", "c"), ("b", "a", "c"), ("a", "b", "c")], ABC)

    def test_chain_correspondence(self, dom3, dom4):
        rng = random.Random(9)
        for domain, symbols in ((dom3, ABC), (dom4, tuple("abcd"))):
            ordering = PrimitiveOrderings.from_global(domain, symbols)
            orders = list(all_orderings(symbols))
            for _ in range(30):
                prefs = rng.sample(orders, rng.randint(2, 4))
                fns = {tuple(_maximizer(domain, p).picks): p for p in prefs}
                m = ChoiceModel.from_picks(domain, fns)
                chain = is_chain(m, ordering)[0]
                # dominance-ascending sort: later functions pick better
                rank = ordering.rank
                def score(c):
                    return tuple(-rank[s][x] for s, x in enumerate(c.picks))
                seq = [fns[c.picks] for c in
                       sorted(m.functions, key=score)]
                if chain:
                    assert is_single_crossing(seq, symbols)
                else:
                    assert not any(
                        is_single_crossing(perm, symbols)
                        for perm in itertools.permutations(seq))
