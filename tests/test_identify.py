import itertools
import random
import re

import pytest

from choicelattice import (
    BetweennessRelation,
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    ChoiceModel,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    agreeing_orderings,
    betweenness,
    check_axioms,
    enumerate_rational,
    gen_random_model,
    identify_primitive,
    lattice_closure,
    satisfies_theta,
    theta_model,
)

from brute import (agrees, all_orderings, betweenness_scan, local_ordering,
                   theta_orders)
from conftest import ABC, fn, model


def rel(alternatives, *triples):
    return BetweennessRelation.from_symbols(alternatives, triples)


def random_b123_relation(rng, symbols, density):
    """One random middle per sampled element-triple, filtered by the axioms."""
    triples = []
    for combo in itertools.combinations(symbols, 3):
        if rng.random() < density:
            mid = rng.choice(combo)
            outer = [x for x in combo if x != mid]
            triples.append((mid, outer[0], outer[1]))
    relation = rel(symbols, *triples)
    report = check_axioms(relation)
    return relation if report.b1 and report.b2 and report.b3 else None


def order_induced_relation(rng, symbols, density):
    order = rng.sample(list(symbols), len(symbols))
    pos = {a: i for i, a in enumerate(order)}
    triples = []
    for combo in itertools.combinations(symbols, 3):
        if rng.random() < density:
            mid = sorted(combo, key=pos.__getitem__)[1]
            outer = [x for x in combo if x != mid]
            triples.append((mid, outer[0], outer[1]))
    return rel(symbols, *triples)


class TestBetweenness:
    def test_single_function(self, dom3):
        relation = betweenness(model(dom3, "baab"))
        assert relation.triples_symbols() == (("b", "a", "c"),)
        assert relation.has("b", "a", "c") and relation.has("b", "c", "a")

    def test_rational_function_reveals_nothing(self, dom3):
        assert len(betweenness(model(dom3, "aaab"))) == 0

    def test_theta_model_n3(self, dom3):
        relation = betweenness(theta_model(dom3, ABC))
        assert relation.triples_symbols() == (("b", "a", "c"),)

    def test_outer_pair_is_unordered(self):
        r1 = rel(ABC, ("b", "a", "c"))
        r2 = rel(ABC, ("b", "c", "a"))
        assert r1 == r2

    @pytest.mark.parametrize("triple", [("z", "a", "c"), ("b", "z", "c"),
                                        ("b", "a", "z")])
    def test_unknown_symbols_are_named(self, triple):
        with pytest.raises(DomainMismatchError, match="^unknown alternative 'z'$"):
            rel(ABC, triple)
        with pytest.raises(DomainMismatchError, match="^unknown alternative 'z'$"):
            rel(ABC, ("b", "a", "c")).has(*triple)

    @pytest.mark.parametrize("triple", [("a", "b"), ("b", "a", "c", "d"), ()])
    def test_malformed_triples_are_named(self, triple):
        with pytest.raises(ChoiceError, match=(
                rf"^betweenness triple {re.escape(repr(triple))} needs three "
                rf"alternatives, not {len(triple)}$")):
            rel("abcd", triple)

    @pytest.mark.parametrize("alternatives", ["aab", ("a", "b", "a"), ("1", 1)])
    def test_repeated_symbols_are_refused(self, alternatives):
        # as ChoiceDomain.from_symbols refuses them; symbols compare as strings
        with pytest.raises(ChoiceError, match="^duplicate symbols in "):
            rel(alternatives)
        with pytest.raises(ChoiceError, match="^duplicate symbols in "):
            BetweennessRelation(alternatives)
        with pytest.raises(ChoiceError, match="^duplicate symbols in "):
            ChoiceDomain.from_symbols(alternatives, [])

    def test_has_reads_one_index(self):
        relation = rel("abcd", ("b", "a", "c"), ("c", "b", "d"))
        expect = {("b", "a", "c"), ("b", "c", "a"), ("c", "b", "d"), ("c", "d", "b")}
        for triple in itertools.permutations("abcd", 3):
            assert relation.has(*triple) is (triple in expect)
        index = relation._index
        relation.has("a", "b", "c")
        assert relation._index is index

    def test_masks_equal_the_scan_where_the_encoding_can_break(self, dom4):
        # picks past one byte, a set of over 256 members whose picks share
        # their low byte in pairs, one member, and 720 and 1,148 members
        wide = ChoiceDomain(tuple(f"x{i:03d}" for i in range(300)), tuple(
            s for base in (254, 258, 290)
            for k in (2, 3, 4) for s in itertools.combinations(
                range(base, base + 4), k)))
        big = ChoiceDomain(tuple(f"y{i:03d}" for i in range(262)),
                           (range(262), range(1, 262), (0, *range(2, 262))))
        rng = random.Random(29)
        twins = ChoiceModel.from_picks(big, {
            tuple(rng.choice((2, 3, 258, 259)) for _ in big.sets)
            for _ in range(12)})
        dom5 = ChoiceDomain.full("abcde")
        rational5 = enumerate_rational(dom5).functions
        closed = lattice_closure(
            ChoiceModel.from_picks(dom5, [c.picks for c in random.Random(3)
                                          .sample(rational5, 8)]),
            PrimitiveOrderings.from_global(dom5, "abcde"))
        spread = gen_random_model(7, wide, 40)
        assert min(map(min, spread.picks_set())) >= 254
        assert len(closed) >= 1000
        models = [spread, twins, model(dom4, "bbaabaaabbc"),
                  enumerate_rational(ChoiceDomain.full("abcdef")), closed]
        for m in models:
            found = {(y, frozenset((x, z)))
                     for y, x, z in betweenness(m).triples_symbols()}
            assert found == betweenness_scan(m)


class TestAxioms:
    def test_theta3_relation_passes_all(self, dom3):
        report = check_axioms(betweenness(theta_model(dom3, ABC)))
        assert (report.b1, report.sb1, report.b2, report.b3) == (True,) * 4

    def test_double_comparison_violates_b1(self):
        report = check_axioms(rel(ABC, ("b", "a", "c"), ("a", "b", "c")))
        assert not report.b1
        assert not report.sb1
        assert report.b1_witness == ("a", "b", "c")

    def test_sb1_needs_every_triple(self):
        symbols = tuple("abcd")
        report = check_axioms(rel(symbols, ("b", "a", "c")))
        assert report.b1 and not report.sb1

    def test_theta_model_n4_passes_all(self, dom4):
        report = check_axioms(betweenness(theta_model(dom4, tuple("abcd"))))
        assert (report.b1, report.sb1, report.b2, report.b3) == (True,) * 4

    def test_b2_violation(self):
        symbols = tuple("wxyz")
        report = check_axioms(rel(
            symbols, ("y", "x", "z"), ("z", "x", "w"), ("w", "x", "y")))
        assert not report.b2

    def test_b3_violation(self):
        symbols = tuple("wxyz")
        # y between x and z; both side triples present; neither places y
        # between x and w nor between z and w
        report = check_axioms(rel(
            symbols, ("y", "x", "z"), ("w", "x", "y"), ("w", "y", "z")))
        assert not report.b3

    def test_sb1_implies_b1_on_random_relations(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randint(3, 5)
            symbols = tuple("abcdef"[:n])
            relation = order_induced_relation(rng, symbols, rng.random())
            report = check_axioms(relation)
            if report.sb1:
                assert report.b1


class TestLocalOrdering:
    def test_single_constraint(self):
        order = local_ordering(rel(tuple("wxyz"), ("y", "x", "z")), "wxyz")
        pos = {a: i for i, a in enumerate(order)}
        assert pos["x"] < pos["y"] < pos["z"] or pos["z"] < pos["y"] < pos["x"]

    def test_contradiction(self):
        relation = rel(ABC, ("b", "a", "c"), ("a", "b", "c"))
        assert local_ordering(relation, ABC) is None

    def test_b123_relations_always_admit_one(self):
        rng = random.Random(8)
        found = 0
        while found < 200:
            n = rng.randint(4, 6)
            symbols = tuple("abcdef"[:n])
            relation = random_b123_relation(rng, symbols, 0.35)
            if relation is None:
                continue
            found += 1
            for quad in itertools.combinations(symbols, 4):
                assert local_ordering(relation, quad) is not None


class TestAgreeingOrdering:
    def test_theta3_relation(self, dom3):
        relation = betweenness(theta_model(dom3, ABC))
        assert next(agreeing_orderings(relation), None) == ("a", "b", "c")

    def test_empty_relation_gives_lexicographic(self):
        assert next(agreeing_orderings(rel(tuple("dcba"))),
                    None) == ("d", "c", "b", "a")

    def test_contradiction_gives_none(self):
        assert next(agreeing_orderings(
            rel(ABC, ("b", "a", "c"), ("a", "b", "c"))), None) is None

    def test_agreement_is_checked(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(3, 6)
            symbols = tuple("abcdef"[:n])
            relation = order_induced_relation(rng, symbols, 0.5)
            order = next(agreeing_orderings(relation), None)
            assert order is not None  # induced from a real order
            pos = {a: i for i, a in enumerate(order)}
            for y, (x, z) in relation.triples:
                sy = relation.alternatives[y]
                sx = relation.alternatives[x]
                sz = relation.alternatives[z]
                assert (pos[sx] < pos[sy] < pos[sz]
                        or pos[sz] < pos[sy] < pos[sx])

    def test_sequence_is_the_brute_scan(self):
        # seeded relations, many failing B1-B3: the search yields exactly
        # the agreeing permutations, in index-lexicographic order, and a
        # relation failing B1-B3 has none
        rng = random.Random(47)
        failing = ordered = 0
        for _ in range(200):
            n = rng.randint(3, 7)
            symbols = tuple("abcdefg"[:n])
            relation = rel(symbols, *(rng.sample(symbols, 3)
                                      for _ in range(rng.randint(0, 12))))
            brute = tuple(tuple(symbols[i] for i in o)
                          for o in itertools.permutations(range(n))
                          if agrees(o, relation))
            assert tuple(agreeing_orderings(relation)) == brute
            report = check_axioms(relation)
            if not (report.b1 and report.b2 and report.b3):
                assert brute == ()
                failing += 1
            ordered += bool(brute)
        assert failing >= 100 and ordered >= 50


class TestIdentifyPrimitive:
    def test_theta_model_n3_all_orders(self, dom3):
        for order in all_orderings(ABC):
            orders, report = identify_primitive(theta_model(dom3, order))
            assert set(orders) == {order, order[::-1]}
            assert report.sb1 and report.b3

    def test_empty_betweenness_many_orders(self, dom3):
        orders, _ = identify_primitive(model(dom3, "aaab"))
        brute = {o for o in all_orderings(ABC)
                 if satisfies_theta(fn(dom3, "aaab"), o)[0]}
        assert set(orders) == brute
        assert len(orders) > 2

    def test_theta_model_n4_spec_order(self, dom4):
        target = ("b", "a", "d", "c")
        orders, _ = identify_primitive(theta_model(dom4, target))
        assert set(orders) == {target, target[::-1]}

    def test_axiom_violation_returns_empty(self, dom3):
        orders, report = identify_primitive(model(dom3, "baab", "abab"))
        assert orders == ()
        assert not report.b1

    def test_guard(self):
        domain = ChoiceDomain.full("abcdefg")
        c = ChoiceFunction(domain, tuple(s[0] for s in domain.sets))
        with pytest.raises(GuardError):
            identify_primitive(ChoiceModel.from_functions([c]))


class TestTheoremThree:
    def test_part_i_exhaustive_small_submodels(self, dom3):
        # axioms B1-B3 pass iff some ordering's extension contains the model
        tm = list(theta_model(dom3, ABC).functions)
        checked = 0
        for size in (1, 2):
            for combo in itertools.combinations(tm, size):
                m = ChoiceModel.from_functions(combo)
                orders, report = identify_primitive(m)
                assert bool(orders) == (report.b1 and report.b2 and report.b3)
                checked += 1
        assert checked == len(tm) + len(tm) * (len(tm) - 1) // 2

    def test_part_i_randomized_n4(self, dom4):
        rng = random.Random(19)
        tm = list(theta_model(dom4, tuple("abcd")).functions)
        for _ in range(30):
            m = ChoiceModel.from_functions(rng.sample(tm, rng.randint(1, 4)))
            orders, report = identify_primitive(m)
            assert bool(orders) == (report.b1 and report.b2 and report.b3)

    def test_part_ii_constructed_rich_families(self):
        # one member per ranked triple x>y>z: the join of the y-top and
        # z-top rational functions chooses y from {x,y,z} and x from {x,y},
        # revealing (y; x, z), and sits in the extension by the lattice
        # property; together the members cover every triple
        rng = random.Random(29)
        for n in (4, 5):
            symbols = tuple("abcde"[:n])
            domain = ChoiceDomain.full(symbols)
            from choicelattice import PrimitiveOrderings, join

            def maximizer(pref):
                rank = {a: i for i, a in enumerate(pref)}
                return ChoiceFunction.from_symbols(
                    domain, [min(domain.set_symbols(i), key=rank.__getitem__)
                             for i in range(len(domain.sets))])

            for _ in range(3):
                order = tuple(rng.sample(list(symbols), n))
                ordering = PrimitiveOrderings.from_global(domain, order)
                pos = {a: i for i, a in enumerate(order)}
                rest = lambda top: (top,) + tuple(
                    a for a in order if a != top)
                members = []
                for combo in itertools.combinations(symbols, 3):
                    x, y, z = sorted(combo, key=pos.__getitem__)
                    c = join(maximizer(rest(y)), maximizer(rest(z)), ordering)
                    assert c.pick({x, y, z}) == y and c.pick({x, y}) == x
                    members.append(c)
                m = ChoiceModel.from_functions(members)
                for c in m.functions:
                    assert satisfies_theta(c, order)[0]
                relation = betweenness(m)
                report = check_axioms(relation)
                assert report.sb1 and report.b3
                orders, _ = identify_primitive(m)
                assert set(orders) == {order, order[::-1]}

    def test_soundness_anchor(self, dom3):
        rng = random.Random(37)
        for order in all_orderings(ABC):
            tm = list(theta_model(dom3, order).functions)
            pos = {a: i for i, a in enumerate(order)}
            for _ in range(10):
                m = ChoiceModel.from_functions(rng.sample(tm, rng.randint(1, 5)))
                for y, x, z in betweenness(m).triples_symbols():
                    assert (pos[x] < pos[y] < pos[z]
                            or pos[z] < pos[y] < pos[x])


def lemma_models(domain, rng, rounds):
    """The rational model, whose betweenness is empty, and seeded models of
    four kinds: rational submodels, theta submodels, random functions and
    lattice closures of rational functions."""
    rational_model = enumerate_rational(domain)
    rational = list(rational_model.functions)
    models = [rational_model]
    for _ in range(rounds):
        order = rng.sample(domain.alternatives, domain.n)
        ordering = PrimitiveOrderings.from_global(domain, order)
        closure = lattice_closure(
            ChoiceModel.from_functions(rng.sample(rational, 2)), ordering)
        if domain.n <= 4:
            theta = list(theta_model(domain, order).functions)
        else:  # a closure of rational functions lies inside theta
            theta = list(lattice_closure(ChoiceModel.from_functions(
                rng.sample(rational, 4)), ordering).functions)
        random_picks = {tuple(rng.choice(s) for s in domain.sets)
                        for _ in range(rng.randint(1, 3))}
        models += [
            ChoiceModel.from_functions(rng.sample(rational, rng.randint(1, 4))),
            ChoiceModel.from_functions(
                rng.sample(theta, rng.randint(1, min(5, len(theta))))),
            ChoiceModel.from_picks(domain, random_picks),
            closure,
        ]
    return models


@pytest.fixture(scope="module")
def lemma_cases(dom3, dom4):
    """(model, orders found by the all-orders theta scan) at n = 3, 4, 5."""
    rng = random.Random(41)
    models = (lemma_models(dom3, rng, 15) + lemma_models(dom4, rng, 12)
              + lemma_models(ChoiceDomain.full("abcde"), rng, 10))
    return [(m, theta_orders(m)) for m in models]


class TestSingleRoute:
    """The model lies in theta of an order iff the order agrees with the
    model's betweenness, so one search over agreeing orders identifies."""

    def test_theta_scan_is_betweenness_agreement(self, lemma_cases):
        sizes = set()
        for m, scan in lemma_cases:
            relation = betweenness(m)
            alts = m.domain.alternatives
            agreeing = tuple(sorted(
                tuple(alts[i] for i in o)
                for o in itertools.permutations(range(m.domain.n))
                if agrees(o, relation)))
            assert agreeing == scan
            assert tuple(sorted(agreeing_orderings(relation))) == agreeing
            sizes.add((m.domain.n, min(len(scan), 3)))
        # at each n, models with no order, exactly two, and more than two
        assert sizes == {(n, k) for n in (3, 4, 5) for k in (0, 2, 3)}

    def test_betweenness_is_the_literal_scan(self, dom4, lemma_cases):
        models = [theta_model(dom4, "abcd")] + [m for m, _ in lemma_cases]
        revealing = set()
        for m in models:
            found = {(y, frozenset((x, z)))
                     for y, x, z in betweenness(m).triples_symbols()}
            assert found == betweenness_scan(m)
            if found:
                revealing.add(m.domain.n)
        assert revealing == {3, 4, 5}

    def test_identify_is_the_theta_scan(self, lemma_cases):
        # with no order found, still () and the report of the betweenness
        axioms_fail = 0
        for m, scan in lemma_cases:
            orders, report = identify_primitive(m)
            assert orders == scan
            assert report == check_axioms(betweenness(m))
            axioms_fail += not (report.b1 and report.b2 and report.b3)
        assert axioms_fail >= 5

    def test_full_relation_gives_order_and_reverse(self):
        # sB1 with B2 and B3: the order is unique up to inversion
        rng = random.Random(43)
        for n in range(4, 8):
            symbols = tuple("abcdefg"[:n])
            for _ in range(5):
                order = tuple(rng.sample(symbols, n))
                pos = {a: i for i, a in enumerate(order)}
                triples = []
                for combo in itertools.combinations(symbols, 3):
                    x, y, z = sorted(combo, key=pos.__getitem__)
                    triples.append((y, x, z))
                relation = rel(symbols, *triples)
                report = check_axioms(relation)
                assert report.sb1 and report.b1 and report.b2 and report.b3
                assert (sorted(agreeing_orderings(relation))
                        == sorted([order, order[::-1]]))
