import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from choicelattice import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    ChoiceModel,
    Comparison,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    ProgressiveRepresentation,
    RandomChoiceFunction,
    compare,
    compose,
    decompose_progressive,
    decompose_theta,
    deterministic,
    enumerate_rational,
    gen_random_model,
    in_delta,
    join,
    lattice_closure,
    meet,
    satisfies_rtheta,
    theta_model,
)
from choicelattice import random_choice
from choicelattice.core import order_ranks
from choicelattice.models import _theta_fault
from choicelattice.random_choice import (
    _assert_chain_in_theta,
    _assert_decreasing_chain,
    _block_marschak,
    _cumulatives,
    _fiorini,
    _flow_cells,
    _slots_in_order,
    _slots_in_rankings,
    _sweep,
)

from brute import (
    all_choice_functions,
    block_marschak,
    chain_fault,
    delta_unreduced,
    fraction_compose,
    fraction_cumulatives,
    fraction_rtheta,
    fraction_sweep,
    theta_escape,
)
from conftest import ABC, RATIONAL3, fn, random_ordering

F = Fraction


def _cumulative(rho, order):
    """Mass strictly above each (set, member) under a global order: the
    package's ``int`` cumulatives divided by D."""
    dom = rho.domain
    common, units = rho._scaled
    slots = _slots_in_order(dom, dom.order_index(order))
    strict, _ = _cumulatives(units, slots)
    return [[F(v, common) for v in row] for row in strict]


def random_rcf(domain, rng, max_den=6):
    rows = []
    for s in domain.sets:
        raw = [rng.randint(1, max_den) for _ in s]
        total = sum(raw)
        rows.append(tuple(F(w, total) for w in raw))
    return RandomChoiceFunction(domain, tuple(rows))


class TestCompose:
    def test_example1_table(self, dom3, example1_rcf):
        rho = example1_rcf
        expect = {
            (("a", "b", "c"), "a"): F(1), (("a", "b", "c"), "b"): F(0),
            (("a", "b"), "a"): F(2, 3), (("a", "b"), "b"): F(1, 3),
            (("a", "c"), "a"): F(1), (("a", "c"), "c"): F(0),
            (("b", "c"), "b"): F(2, 3), (("b", "c"), "c"): F(1, 3),
        }
        for (members, x), p in expect.items():
            assert rho.probability(members, x) == p

    def test_alternative_representation_same_table(self, dom3, example1_rcf):
        rho2 = compose({fn(dom3, "aaab"): F(2, 3), fn(dom3, "abac"): F(1, 3)})
        assert rho2 == example1_rcf

    def test_deterministic(self, dom3):
        rho = deterministic(fn(dom3, "bacb"))
        assert rho.probability(("a", "b", "c"), "b") == 1
        assert rho.probability(("a", "b", "c"), "a") == 0

    def test_zero_weight_adds_nothing(self, dom3):
        c = fn(dom3, "bacb")
        assert compose({fn(dom3, "aaab"): F(0), c: F(1)}) == deterministic(c)

    def test_invalid_weights(self, dom3):
        c = fn(dom3, "aaab")
        with pytest.raises(ChoiceError):
            compose({c: F(1, 2)})
        with pytest.raises(ChoiceError):
            compose({c: F(3, 2), fn(dom3, "abab"): F(-1, 2)})

    def test_sum_invariant_enforced(self, dom3):
        rows = [tuple(F(0) for _ in s) for s in dom3.sets]
        with pytest.raises(ChoiceError):
            RandomChoiceFunction(dom3, tuple(rows))


class TestSignChecks:
    def test_component_weights_must_be_positive(self, dom3):
        functions = (fn(dom3, "aaab"), fn(dom3, "bbcc"))
        for weights in ((0, 1), (F(0), F(1)), (-1, 2), (F(3, 2), F(-1, 2))):
            with pytest.raises(ChoiceError,
                               match="^component weights must be positive$"):
                ProgressiveRepresentation(tuple(zip(weights, functions)))

    def test_compose_weights_must_be_nonnegative(self, dom3):
        for weights in ((F(3, 2), F(-1, 2)), (2, -1)):
            with pytest.raises(ChoiceError,
                               match="^weights must be nonnegative$"):
                compose(dict(zip((fn(dom3, "aaab"), fn(dom3, "abab")), weights)))

    def test_probabilities_must_be_nonnegative(self, dom3):
        rows = [tuple(F(1, len(s)) for _ in s) for s in dom3.sets]
        for bad in ((F(3, 2), F(-1, 2)), (-1, 2)):
            rows[2] = bad
            with pytest.raises(ChoiceError,
                               match="^probabilities must be nonnegative$"):
                RandomChoiceFunction(dom3, tuple(rows))
        # an earlier row that does not sum to one is reported first
        rows[1] = (F(1, 2), F(1, 3))
        with pytest.raises(ChoiceError, match=r"^probabilities over "
                           r"\('a', 'b'\) sum to 5/6, not 1$"):
            RandomChoiceFunction(dom3, tuple(rows))


class TestExactEntries:
    def test_ints_become_fractions(self, dom3):
        rows = tuple((1,) + (0,) * (len(s) - 1) for s in dom3.sets)
        rho = RandomChoiceFunction(dom3, rows)
        assert all(type(p) is F for row in rho.probs for p in row)
        assert rho == deterministic(ChoiceFunction(dom3, (0, 0, 0, 1)))
        rep = ProgressiveRepresentation(((1, fn(dom3, "aaab")),))
        assert type(rep.weights()[0]) is F

    @pytest.mark.parametrize("bad", [0.5, "1/2", "1", True])
    def test_other_entries_are_refused(self, dom3, bad):
        rows = [tuple(F(1, len(s)) for _ in s) for s in dom3.sets]
        rows[1] = (bad, F(1, 2))
        probability = (r"^probability over \('a', 'b'\) " + re.escape(repr(bad))
                       + " is not an int or a Fraction$")
        with pytest.raises(ChoiceError, match=probability):
            RandomChoiceFunction(dom3, tuple(rows))
        table = {(dom3.set_symbols(si), dom3.alternatives[x]): p
                 for si, (s, row) in enumerate(zip(dom3.sets, rows))
                 for x, p in zip(s, row)}
        with pytest.raises(ChoiceError, match=probability):
            RandomChoiceFunction.from_table(dom3, table)
        with pytest.raises(ChoiceError, match="^weight " + re.escape(repr(bad))
                           + " is not an int or a Fraction$"):
            compose({fn(dom3, "aaab"): bad, fn(dom3, "bbcc"): F(1, 2)})
        with pytest.raises(ChoiceError, match="^component weight "
                           + re.escape(repr(bad)) + " is not an int or a Fraction$"):
            ProgressiveRepresentation(((bad, fn(dom3, "aaab")),
                                       (F(1, 2), fn(dom3, "bbcc"))))


class TestCumulative:
    def test_example1_values(self, example1_rcf):
        cum = _cumulative(example1_rcf, ABC)
        dom = example1_rcf.domain
        pos = {dom.sets[i]: i for i in range(4)}
        assert cum[pos[(0, 1)]][1] == F(2, 3)      # above b in {a,b}
        assert cum[pos[(0, 1, 2)]][2] == F(1)      # above c in X
        for si, s in enumerate(dom.sets):
            if 0 in s:
                assert cum[si][s.index(0)] == 0    # nothing above a

    def test_invariants_on_random_rcfs(self, dom3):
        rng = random.Random(2)
        grank = {a: i for i, a in enumerate(ABC)}
        for _ in range(60):
            rho = random_rcf(dom3, rng)
            cum = _cumulative(rho, ABC)
            for si, s in enumerate(dom3.sets):
                ranked = sorted(s, key=lambda x: grank[ABC[x]])
                values = [cum[si][s.index(x)] for x in ranked]
                assert values[0] == 0
                assert all(u <= v for u, v in zip(values, values[1:]))
                assert values[-1] <= 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_partial_domains_equal_fraction_cumulatives(self, n):
        # the cumulatives need no full domain: the slot table of a domain with
        # some sets left out still ranks each set's members
        rng = random.Random(2212 + n)
        alternatives = "abcde"[:n]
        every = [s for k in range(2, n + 1)
                 for s in itertools.combinations(alternatives, k)]
        for _ in range(12):
            kept = rng.sample(every, rng.randint(1, len(every) - 1))
            domain = ChoiceDomain.from_symbols(alternatives, kept)
            assert not domain.is_full
            for rho in (random_rcf(domain, rng), _rcf_with_zeros(domain, rng)):
                order = rng.sample(alternatives, n)
                grank = [order.index(a) for a in domain.alternatives]
                strict, _ = fraction_cumulatives(rho, grank)
                assert _cumulative(rho, order) == strict


class TestDecompose:
    def test_example1(self, dom3, ord3, example1_rcf):
        rep = decompose_progressive(example1_rcf, ord3)
        assert [(w, c.to_string()) for w, c in rep.components] == [
            (F(2, 3), "aaab"), (F(1, 3), "abac")]

    def test_deterministic(self, dom3, ord3):
        c = fn(dom3, "cbcc")
        rep = decompose_progressive(deterministic(c), ord3)
        assert rep.components == ((F(1), c),)

    def test_even_pair_gives_join_and_meet(self, dom3, ord3):
        rho = compose({fn(dom3, "bbab"): F(1, 2), fn(dom3, "cacc"): F(1, 2)})
        rep = decompose_progressive(rho, ord3)
        assert [(w, c.to_string()) for w, c in rep.components] == [
            (F(1, 2), "baab"), (F(1, 2), "cbcc")]

    def test_round_trip_and_chain(self, dom3, dom4):
        rng = random.Random(17)
        for domain in (dom3, dom4):
            symbols = domain.alternatives
            ordering = PrimitiveOrderings.from_global(domain, symbols)
            for _ in range(80):
                rho = random_rcf(domain, rng)
                rep = decompose_progressive(rho, ordering)
                assert rep.compose() == rho
                fns = rep.functions()
                for c1, c2 in zip(fns, fns[1:]):
                    assert compare(c1, c2, ordering) is Comparison.DOMINATES

    def test_round_trip_set_dependent_orderings(self, dom3):
        rng = random.Random(31)
        for _ in range(40):
            rankings = [tuple(rng.sample(list(s), len(s))) for s in dom3.sets]
            ordering = PrimitiveOrderings(dom3, tuple(rankings))
            rho = random_rcf(dom3, rng)
            rep = decompose_progressive(rho, ordering)
            assert rep.compose() == rho

    def test_uniqueness_against_hand_built_chains(self, dom3, ord3):
        rng = random.Random(41)
        universe = list(all_choice_functions(dom3).functions)
        built = 0
        while built < 60:
            top = rng.choice(universe)
            chain = [top]
            while rng.random() < 0.7 and len(chain) < 4:
                nxt = meet(chain[-1], rng.choice(universe), ord3)
                if compare(chain[-1], nxt, ord3) is Comparison.DOMINATES:
                    chain.append(nxt)
            raw = [rng.randint(1, 5) for _ in chain]
            weights = [F(w, sum(raw)) for w in raw]
            rho = compose(dict(zip(chain, weights)))
            rep = decompose_progressive(rho, ord3)
            assert list(rep.components) == list(zip(weights, chain))
            built += 1


class TestInDelta:
    def test_example1_cases(self, dom3, example1_model, example1_rcf):
        ok, weights = in_delta(example1_rcf, example1_model)
        assert ok
        assert compose(weights) == example1_rcf
        assert not in_delta(example1_rcf,
                            ChoiceModel.from_strings(dom3, ["aaab"]))[0]

    def test_figure1_weights_are_feasible(self, dom3, example1_model, example1_rcf):
        equal = {fn(dom3, s): F(1, 3) for s in ("aaab", "abab", "aaac")}
        skewed = {fn(dom3, "aaab"): F(2, 3), fn(dom3, "abac"): F(1, 3)}
        for dist in (equal, skewed):
            assert set(dist) <= set(example1_model.functions)
            assert compose(dist) == example1_rcf

    def test_rational_model_cannot_express_example1(self, dom3, example1_rcf):
        # all mass at X sits on a, which rational functions follow with a at
        # {a,b} as well, contradicting the 1/3 weight on b there
        assert not in_delta(example1_rcf, enumerate_rational(dom3))[0]

    def test_weights_compose_back(self, dom3, ord3):
        rng = random.Random(3)
        tm = theta_model(dom3, ABC)
        for _ in range(20):
            k = rng.randint(1, 4)
            chosen = rng.sample(list(tm.functions), k)
            raw = [rng.randint(1, 5) for _ in range(k)]
            rho = compose({c: F(w, sum(raw)) for c, w in zip(chosen, raw)})
            ok, weights = in_delta(rho, tm)
            assert ok
            assert compose(weights) == rho

    def test_lattice_answer_is_the_progressive_decomposition(self, dom4):
        # A lattice is self-progressive, so rho lies in Delta(M) exactly
        # when every component of its progressive decomposition lies in M.
        rng = random.Random(2212)
        universe = list(all_choice_functions(dom4).functions)
        answers = []
        for trial in range(24):
            order = rng.sample(dom4.alternatives, 4)
            ordering = PrimitiveOrderings.from_global(dom4, order)
            gens = ChoiceModel.from_functions(rng.sample(universe, 3))
            lattice = lattice_closure(gens, ordering)
            chosen = rng.sample(lattice.functions, min(4, len(lattice)))
            if trial % 2:
                chosen[-1] = rng.choice(universe)
            raw = [rng.randint(1, 5) for _ in chosen]
            rho = compose({c: F(w, sum(raw)) for c, w in zip(chosen, raw)})
            ok, weights = in_delta(rho, lattice)
            components = decompose_progressive(rho, ordering).functions()
            assert ok is all(c in lattice for c in components)
            answers.append(ok)
            if ok:
                _assert_certificate(weights, lattice, rho)
            else:
                assert weights is None
        assert answers.count(True) >= 8 and answers.count(False) >= 8

    def test_theta_model_n4(self, dom4):
        # 526 columns; the random theta axioms give the answer independently
        order = tuple("abcd")
        tm = theta_model(dom4, order)
        rng = random.Random(4)
        chosen = rng.sample(tm.functions, 5)
        member = compose({c: F(1, 5) for c in chosen})
        ok, weights = in_delta(member, tm)
        assert ok and satisfies_rtheta(member, order)[0]
        _assert_certificate(weights, tm, member)
        # d from the full set, the best member everywhere else: removing a
        # from abcd then improves the choice to b, which breaks theta2
        best = [s[0] for s in dom4.sets]
        outside = ChoiceFunction(dom4, (3, *best[1:]))
        assert outside not in tm
        other = compose({chosen[0]: F(1, 2), outside: F(1, 2)})
        assert in_delta(other, tm) == (False, None)
        assert not satisfies_rtheta(other, order)[0]

    def test_guard_names_size_and_limit(self, dom4):
        rho = deterministic(ChoiceFunction(dom4, tuple(s[0] for s in dom4.sets)))
        with pytest.raises(GuardError, match="in_delta: 20,736 model functions "
                           "exceed the guard of 10,000"):
            in_delta(rho, all_choice_functions(dom4))


def _assert_certificate(weights, model, rho):
    assert all(c in model and w > 0 for c, w in weights.items())
    assert sum(weights.values()) == 1
    assert compose(weights) == rho


def _random_function(rng, domain):
    return ChoiceFunction(domain, tuple(rng.choice(s) for s in domain.sets))


def _mixture(rng, functions):
    raw = [rng.randint(1, 5) for _ in functions]
    return compose({c: F(w, sum(raw)) for c, w in zip(functions, raw)})


@pytest.fixture
def lp_calls(monkeypatch):
    """Every system that ``in_delta`` hands to the simplex, as (rows, rhs)."""
    calls = []
    solve = random_choice.exact_feasible

    def recording(rows, rhs):
        calls.append((rows, rhs))
        return solve(rows, rhs)

    monkeypatch.setattr(random_choice, "exact_feasible", recording)
    return calls


def _delta_models(rng, n):
    """The rational model, theta at n <= 4, lattice closures of three random
    functions under global and per-set orders, and random functions."""
    dom = ChoiceDomain.full("abcde"[:n])
    models = [enumerate_rational(dom)]
    if n <= 4:
        models.append(theta_model(dom, dom.alternatives))
    for per_set in (False, True, False, True):
        gens = {_random_function(rng, dom).picks for _ in range(3)}
        models.append(lattice_closure(ChoiceModel.from_picks(dom, gens),
                                      random_ordering(rng, dom, per_set)))
    models.append(gen_random_model(n, dom, 4 ** (n - 1)))
    return dom, models


class TestReducedDelta:
    """``in_delta`` solves on the RCF's support; ``delta_unreduced`` solves
    the full system and must give the same verdict."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_verdict_equals_the_unreduced_system(self, n, lp_calls):
        rng = random.Random(1449 + n)
        dom, models = _delta_models(rng, n)
        seen = {"yes": 0, "yes, a first member unsupported": 0,
                "no by coverage": 0, "no by the simplex": 0}
        for model in models:
            queries = 3 if len(model) > 200 else 6
            for q in range(queries):
                chosen = rng.sample(model.functions, min(rng.randint(2, 5), len(model)))
                if q % 3 == 1:
                    other = _random_function(rng, dom)
                elif q % 3 == 2:
                    # picks of two members crossed set by set: every entry
                    # of the RCF is covered, so the simplex decides
                    other = ChoiceFunction(dom, tuple(
                        map(rng.choice, zip(chosen[0].picks, chosen[1].picks))))
                if q % 3 and other not in chosen:
                    chosen[-1] = other
                rho = _mixture(rng, chosen)
                del lp_calls[:]
                ok, weights = in_delta(rho, model)
                assert ok is delta_unreduced(rho, model)[0]
                if ok:
                    _assert_certificate(weights, model, rho)
                    seen["yes"] += 1
                    if any(row[0] == 0 for row in rho.probs):
                        seen["yes, a first member unsupported"] += 1
                else:
                    assert weights is None
                    seen["no by the simplex" if lp_calls else "no by coverage"] += 1
        assert min(seen.values()) >= 3, seen

    def test_point_mass_keeps_one_column(self, dom4, lp_calls):
        tm = theta_model(dom4, tuple("abcd"))
        for c in tm.functions[::50]:
            del lp_calls[:]
            assert in_delta(deterministic(c), tm) == (True, {c: 1})
            [(rows, rhs)] = lp_calls
            assert rows == [[1]] and rhs == [1]

    def test_uncovered_entry_answers_no_without_the_simplex(self, dom3, lp_calls):
        # aaac puts mass on c at {b, c}; abab, the only other member, picks
        # b at {a, b}, which has no mass, so no kept column picks c there
        model = ChoiceModel.from_strings(dom3, ["aaab", "abab"])
        rho = compose({fn(dom3, "aaab"): F(1, 2), fn(dom3, "aaac"): F(1, 2)})
        assert in_delta(rho, model) == (False, None)
        assert lp_calls == []
        assert delta_unreduced(rho, model) == (False, None)

    def test_rows_skip_the_first_supported_member(self, dom3, lp_calls):
        # no mass on a anywhere: one row at {a, b, c} (for c) and one at
        # {b, c} (for c), the sets with a single supported member give none;
        # the rational model less aaab, which rho does not use, so that the
        # question goes to the system
        rational = ChoiceModel.from_strings(dom3, RATIONAL3 - {"aaab"})
        rho = compose({fn(dom3, "bbcb"): F(1, 3), fn(dom3, "cbcc"): F(2, 3)})
        ok, weights = in_delta(rho, rational)
        assert ok
        _assert_certificate(weights, rational, rho)
        [(rows, rhs)] = lp_calls
        assert rhs == [2, 2, 3] and all(type(b) is int for b in rhs)
        assert len(rows[0]) == 2

    def test_mixture_over_2000_random_functions(self, dom4):
        # checked by its certificate only: the unreduced system takes
        # seconds; other mixtures over this model take up to 10 s (the
        # simplex on the columns left), this one about 0.2 s
        model = gen_random_model(0, dom4, 2000)
        rng = random.Random(5)
        rho = _mixture(rng, rng.sample(model.functions, 5))
        ok, weights = in_delta(rho, model)
        assert ok
        _assert_certificate(weights, model, rho)


class TestRandomUtility:
    """Falmagne (1978): on a full domain, an RCF is a mixture of rational
    functions exactly when every Block-Marschak polynomial is nonnegative."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rational_mixtures_are_the_nonnegative_polynomials(self, n):
        # both sides by brute force: the full simplex over the rational
        # model, not in_delta, which decides this model by the polynomials
        dom = ChoiceDomain.full("abcde"[:n])
        rational = enumerate_rational(dom)
        rng = random.Random(1978 + n)
        answers = []
        for trial in range(12):
            chosen = rng.sample(rational.functions, rng.randint(2, 4))
            if trial % 2:
                chosen[-1] = self._theta_member(rng, dom, rational)
            rho = _mixture(rng, chosen)
            ok = delta_unreduced(rho, rational)[0]
            assert ok is all(k >= 0 for k in block_marschak(rho).values())
            answers.append(ok)
        assert answers.count(True) >= 3 and answers.count(False) >= 3

    @staticmethod
    def _theta_member(rng, dom, rational):
        """A member of theta(>) outside the rational model: the join or meet
        of two rational functions, under a random global order >."""
        while True:
            order = rng.sample(dom.alternatives, dom.n)
            ordering = PrimitiveOrderings.from_global(dom, order)
            c1, c2 = rng.sample(rational.functions, 2)
            c = rng.choice((join, meet))(c1, c2, ordering)
            if c not in rational:
                grank = order_ranks(ordering.global_order, dom.n)
                assert _theta_fault(c.picks, dom.removals, grank) is None
                return c


class TestBlockMarschakRoute:
    """``in_delta`` against the rational model: Block-Marschak polynomials
    in ``int`` units and Fiorini's flow certificate, with no simplex."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_polynomials_equal_the_superset_sums(self, n):
        dom = ChoiceDomain.full("abcdefg"[:n])
        rng = random.Random(2004 + n)
        # a random RCF, and a point mass on the maximizer of a > b > ...
        for rho in (random_rcf(dom, rng),
                    deterministic(ChoiceFunction(dom, tuple(s[0] for s in dom.sets)))):
            common, units = rho._scaled
            flow = _block_marschak(dom, common, units)
            found = {}
            for cell in _flow_cells(dom)[1]:  # cell A n + x holds K(x, A)
                a, x = divmod(cell, n)
                members = dom.symbols(y for y in range(n) if a >> y & 1)
                found[(dom.alternatives[x], frozenset(members))] = F(
                    flow[cell], common)
            assert found == block_marschak(rho)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_verdict_equals_the_unreduced_system(self, n, lp_calls):
        dom = ChoiceDomain.full("abcde"[:n])
        rational = enumerate_rational(dom)
        rng = random.Random(1449 + n)
        answers = []
        for trial in range(8):
            chosen = rng.sample(rational.functions, rng.randint(2, 5))
            if trial % 2:
                chosen[-1] = TestRandomUtility._theta_member(rng, dom, rational)
            rho = _mixture(rng, chosen)
            del lp_calls[:]
            ok, weights = in_delta(rho, rational)
            assert lp_calls == []
            assert ok is delta_unreduced(rho, rational)[0]
            if ok:
                _assert_certificate(weights, rational, rho)
            else:
                assert weights is None
            answers.append(ok)
        assert answers.count(True) >= 3 and answers.count(False) >= 3

    def test_certificates_at_n6(self, lp_calls):
        # checked by the certificate alone: 720 rational functions
        dom = ChoiceDomain.full("abcdef")
        rational = enumerate_rational(dom)
        rng = random.Random(6)
        for size in (1, 2, 4, 6, 9):
            rho = _mixture(rng, rng.sample(rational.functions, size))
            ok, weights = in_delta(rho, rational)
            assert ok
            _assert_certificate(weights, rational, rho)
        # and a join or meet of two rational functions, outside them
        other = TestRandomUtility._theta_member(rng, dom, rational)
        assert in_delta(deterministic(other), rational) == (False, None)
        assert lp_calls == []

    def test_non_rational_theta_members_fail(self, dom4, lp_calls):
        # the choice-overload behaviours: point masses on the members of
        # theta(abcd) that no order rationalizes pass the random theta
        # axioms, yet some Block-Marschak polynomial is negative
        order = tuple("abcd")
        tm = theta_model(dom4, order)
        rational = enumerate_rational(dom4)
        outside = [c for c in tm if c not in rational]
        assert len(outside) == 502
        for c in outside:
            rho = deterministic(c)
            assert satisfies_rtheta(rho, order)[0]
            assert in_delta(rho, rational) == (False, None)
            assert min(block_marschak(rho).values()) < 0
        for c in rational:
            assert in_delta(deterministic(c), rational) == (True, {c: 1})
        assert lp_calls == []

    def test_larger_model_goes_to_the_system(self, dom4, lp_calls):
        # theta(abcd) holds every rational function and more; rho lies in
        # Delta(theta) but is no random utility, and the system says yes
        tm = theta_model(dom4, tuple("abcd"))
        rational = enumerate_rational(dom4)
        rng = random.Random(18)
        chosen = rng.sample(rational.functions, 2) + [
            c for c in tm if c not in rational][::100]
        rho = _mixture(rng, chosen)
        assert min(block_marschak(rho).values()) < 0
        ok, weights = in_delta(rho, tm)
        assert ok and len(lp_calls) == 1
        _assert_certificate(weights, tm, rho)

    def test_other_models_of_n_factorial_members_go_to_the_system(
            self, dom3, lp_calls):
        # six members, yet not the rational model of a full domain: the
        # rational model of the pairs, whose six orders give six functions
        # but whose polynomials would need {a, b, c}; and the full domain's
        # rational model with aaab swapped for baab, a member of theta
        pairs = ChoiceDomain.from_symbols("abc", [["a", "b"], ["a", "c"],
                                                  ["b", "c"]])
        swapped = ChoiceModel.from_strings(dom3, RATIONAL3 - {"aaab"} | {"baab"})
        for m in (enumerate_rational(pairs), swapped):
            assert len(m) == math.factorial(3)
            rho = _mixture(random.Random(3), m.functions)
            del lp_calls[:]
            ok, weights = in_delta(rho, m)
            assert ok and len(lp_calls) == 1
            _assert_certificate(weights, m, rho)

    def test_a_dead_end_names_the_set(self, dom3):
        # flow D = 1 out of {a, b, c} along a, and none out of {b, c}
        flow = [0] * (3 << 3)
        flow[7 * 3] = 1
        with pytest.raises(AssertionError,
                           match=r"A=\('b', 'c'\) with 1 of 1 units of mass"):
            _fiorini(dom3, flow, 1)


class TestRTheta:
    def test_example1_fails_with_witness(self, example1_rcf):
        ok, witness = satisfies_rtheta(example1_rcf, ABC)
        assert not ok
        assert witness.axiom == "rtheta1"
        assert witness.set_symbols == ("a", "b", "c")
        assert witness.removed == "c"
        assert witness.fixed == "a"

    def test_mixture_of_extension_members(self, dom3):
        rho = compose({fn(dom3, "aaab"): F(1, 2), fn(dom3, "baac"): F(1, 2)})
        assert satisfies_rtheta(rho, ABC)[0]

    def test_deterministic_rational_passes(self, dom3):
        for c in enumerate_rational(dom3).functions:
            assert satisfies_rtheta(deterministic(c), ABC)[0]

    def test_deterministic_equivalence_exhaustive(self, dom3, dom4):
        for domain, symbols in ((dom3, ABC), (dom4, tuple("abcd"))):
            members = theta_model(domain, symbols).picks_set()
            for c in all_choice_functions(domain).functions:
                passed = satisfies_rtheta(deterministic(c), symbols)[0]
                assert passed == (c.picks in members)

    def test_requires_full_domain(self):
        domain = ChoiceDomain.from_symbols("abc", [["a", "b"], ["b", "c"]])
        rho = deterministic(ChoiceFunction.from_symbols(domain, ["a", "b"]))
        with pytest.raises(ChoiceError):
            satisfies_rtheta(rho, ABC)


class TestDecomposeTheta:
    def test_chain_input(self, dom3):
        rho = compose({fn(dom3, "aaab"): F(1, 2), fn(dom3, "baac"): F(1, 2)})
        rep = decompose_theta(rho, ABC)
        assert [(w, c.to_string()) for w, c in rep.components] == [
            (F(1, 2), "aaab"), (F(1, 2), "baac")]

    def test_rational_pair(self, dom3):
        rho = compose({fn(dom3, "bbab"): F(1, 2), fn(dom3, "cacc"): F(1, 2)})
        rep = decompose_theta(rho, ABC)
        assert [c.to_string() for _, c in rep.components] == ["baab", "cbcc"]

    def test_deterministic_extension_member(self, dom3):
        rep = decompose_theta(deterministic(fn(dom3, "baac")), ABC)
        assert [(w, c.to_string()) for w, c in rep.components] == [(F(1), "baac")]

    def test_rejects_violating_input(self, example1_rcf):
        with pytest.raises(ChoiceError):
            decompose_theta(example1_rcf, ABC)

    def test_messages_name_a_set_by_its_symbol_tuple(self):
        # joined, ('x1', 'x2', 'x12') would read x1x2x12, which other sets
        # of other domains could spell too
        dom = ChoiceDomain.full(["x1", "x2", "x12"])
        c = ChoiceFunction.from_symbols(dom, ["x1", "x1", "x12", "x2"])
        with pytest.raises(ChoiceError, match=re.escape(
                "(rtheta1 at S=('x1', 'x2', 'x12'), removing x2, fixed x1)")):
            decompose_theta(deterministic(c), dom.alternatives)
        grank = order_ranks(dom.order_index(dom.alternatives), dom.n)
        with pytest.raises(AssertionError, match=re.escape(
                "component 0 escaped the minimal extension at "
                "S=('x1', 'x2', 'x12'), removing x2;")):
            _assert_chain_in_theta([c.picks], [], dom, grank)


@functools.cache
def _primes_from(low, count):
    """The first ``count`` primes at or above ``low``."""
    found = []
    k = low
    while len(found) < count:
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            found.append(k)
        k += 1
    return tuple(found)


def _rcf_with_zeros(domain, rng):
    """Random rows in which about a third of the members get probability 0."""
    rows = []
    for s in domain.sets:
        raw = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in s]
        raw[rng.randrange(len(s))] += 1
        rows.append(tuple(F(w, sum(raw)) for w in raw))
    return RandomChoiceFunction(domain, tuple(rows))


def _rcf_over_primes(domain, rng):
    """Row i over the i-th prime from 65,537, so that D is their product."""
    rows = []
    for s, p in zip(domain.sets, _primes_from(65_537, len(domain.sets))):
        cut = sorted(rng.randrange(p + 1) for _ in s[1:])
        parts = [b - a for a, b in zip([0, *cut], [*cut, p])]
        rows.append(tuple(F(w, p) for w in parts))
    return RandomChoiceFunction(domain, tuple(rows))


def _rational_mixture(domain, rng, k):
    """Mixture of k maximizers of random orders (it passes the random axioms).

    The raw weights have prime denominators, so their lcm grows with k.
    """
    dist = {}
    while len(dist) < k:
        rank = rng.sample(range(domain.n), domain.n)
        c = ChoiceFunction(domain, tuple(min(s, key=rank.__getitem__)
                                         for s in domain.sets))
        dist[c] = F(rng.randint(1, 9), rng.choice(_primes_from(101, 9)))
    total = sum(dist.values())
    return {c: w / total for c, w in dist.items()}


class TestIntegerRoute:
    """The integer sweep, cumulatives and compose against Fraction references."""

    @pytest.fixture(scope="class")
    def cases(self, dom3, dom4):
        # (rcf, mixture or None) at n = 3 to 7: random, zero-heavy and
        # prime-denominator rows, and rational mixtures with prime weights
        rng = random.Random(13449)
        out = []
        domains = [dom3, dom4] + [ChoiceDomain.full("abcdefg"[:n])
                                  for n in (5, 6, 7)]
        for domain in domains:
            count = 4 if domain.n <= 5 else 1
            for _ in range(count):
                out.append((random_rcf(domain, rng), None))
                out.append((_rcf_with_zeros(domain, rng), None))
                out.append((_rcf_over_primes(domain, rng), None))
                dist = _rational_mixture(domain, rng, rng.randint(2, 6))
                out.append((compose(dist), dist))
        return out

    def test_some_denominator_exceeds_64_bits(self, cases):
        commons = [math.lcm(*(p.denominator for row in rho.probs for p in row))
                   for rho, _ in cases]
        assert sum(d > 2 ** 64 for d in commons) >= 5
        assert any(p == 0 for rho, _ in cases for row in rho.probs for p in row)

    def test_stored_view_is_the_rcf_times_d(self, cases):
        for rho, _ in cases:
            common, units = rho._scaled
            assert common == math.lcm(*(p.denominator
                                        for row in rho.probs for p in row))
            assert units == tuple(tuple(p * common for p in row)
                                  for row in rho.probs)
            assert all(type(u) is int for row in units for u in row)

    def test_sweep_equals_fraction_sweep(self, cases):
        rng = random.Random(7)
        for rho, _ in cases:
            for per_set in (False, True):
                ordering = random_ordering(rng, rho.domain, per_set)
                rep = decompose_progressive(rho, ordering)
                assert ([(w, c.picks) for w, c in rep.components]
                        == fraction_sweep(rho, ordering))

    @pytest.fixture(scope="class")
    def mixtures7(self):
        rng = random.Random(1344907)
        domain = ChoiceDomain.full("abcdefg")
        return [compose(_rational_mixture(domain, rng, rng.randint(8, 20)))
                for _ in range(4)]

    def test_change_lists_are_the_sets_that_differ(self, cases, mixtures7):
        rng = random.Random(5)
        rcfs = [rho for rho, _ in cases] + mixtures7
        for rho in rcfs:
            dom = rho.domain
            for per_set in (False, True):
                ordering = random_ordering(rng, dom, per_set)
                slots = _slots_in_rankings(dom, ordering)
                if not per_set:
                    assert _slots_in_order(dom, ordering.global_order) == slots
                rep, rows, changes = _sweep(dom, slots, *rho._scaled)
                assert rows == [c.picks for c in rep.functions()]
                assert changes == _changes(rows)

    def test_chains_pass_the_brute_chain_check(self, cases, mixtures7):
        rng = random.Random(9)
        rcfs = [(rho, dist is not None) for rho, dist in cases]
        rcfs += [(rho, True) for rho in mixtures7]
        for rho, mixture in rcfs:
            for per_set in (False, True):
                ordering = random_ordering(rng, rho.domain, per_set)
                rep = decompose_progressive(rho, ordering)
                assert chain_fault([c.picks for c in rep.functions()],
                                   ordering.rank) is None
            if mixture:  # passes the random axioms under every order
                order = rng.sample(rho.domain.alternatives, rho.domain.n)
                rank = PrimitiveOrderings.from_global(rho.domain, order).rank
                rep = decompose_theta(rho, order)
                assert chain_fault([c.picks for c in rep.functions()],
                                   rank) is None

    def test_cumulatives_and_axioms_equal_fraction_references(self, cases):
        rng = random.Random(11)
        verdicts = set()
        for rho, dist in cases:
            order = rng.sample(rho.domain.alternatives, rho.domain.n)
            grank = [order.index(a) for a in rho.domain.alternatives]
            strict, _ = fraction_cumulatives(rho, grank)
            assert _cumulative(rho, order) == strict
            answer = satisfies_rtheta(rho, order)
            assert answer == fraction_rtheta(rho, order)
            assert answer[0] or dist is None
            verdicts.add(answer[0])
        assert verdicts == {True, False}

    def test_compose_equals_fraction_compose(self, cases):
        for rho, dist in cases:
            if dist is not None:
                assert rho.probs == fraction_compose(dist)


def _changes(chain):
    """Per consecutive pair, the set positions where the picks differ."""
    return [[s for s, (x, y) in enumerate(zip(p1, p2)) if x != y]
            for p1, p2 in zip(chain, chain[1:])]


def _escaping_worsening(rng, picks, ordering):
    """picks made worse at one set so that it fails the theta axioms, or None."""
    dom = ordering.domain
    grank = order_ranks(ordering.global_order, dom.n)
    for s in rng.sample(range(len(dom.sets)), len(dom.sets)):
        worse = [y for y in dom.sets[s] if grank[y] > grank[picks[s]]]
        for y in rng.sample(worse, len(worse)):
            new = picks[:s] + (y,) + picks[s + 1:]
            if theta_escape([new], dom, grank) is not None:
                return new
    return None


class TestChainChecks:
    """The incremental chain and theta checks against full per-component scans."""

    @pytest.fixture(scope="class")
    def chains(self, dom3, dom4):
        # (kind, ordering, chain) at n = 3 to 6
        rng = random.Random(2212)
        out = []
        domains = [dom3, dom4] + [ChoiceDomain.full("abcdef"[:n]) for n in (5, 6)]
        for domain in domains:
            count = {3: 12, 4: 10, 5: 5, 6: 3}[domain.n]
            for _ in range(count):
                order = rng.sample(domain.alternatives, domain.n)
                ordering = PrimitiveOrderings.from_global(domain, order)
                dist = _rational_mixture(domain, rng, rng.randint(2, 6))
                rep = decompose_theta(compose(dist), order)
                chain = [c.picks for _, c in rep.components]
                out.append(("mixture", ordering, chain))
                for _ in range(6):
                    k = rng.randrange(len(chain))
                    s = rng.randrange(len(domain.sets))
                    y = rng.choice([x for x in domain.sets[s] if x != chain[k][s]])
                    changed = chain[k][:s] + (y,) + chain[k][s + 1:]
                    out.append(("one_set", ordering,
                                chain[:k] + [changed] + chain[k + 1:]))
                k = rng.randrange(len(chain))
                out.append(("repeated", ordering, chain[:k + 1] + chain[k:]))
                last = _escaping_worsening(rng, chain[-1], ordering)
                if last is not None:
                    out.append(("last_escapes", ordering, chain + [last]))
                # a random decreasing chain from the top function down
                top = ChoiceFunction(domain, tuple(
                    r[0] for r in ordering.per_set)).picks
                walk = [top]
                while len(walk) < 12:
                    picks = list(walk[-1])
                    for s in rng.sample(range(len(picks)), rng.randint(1, 3)):
                        ranking = ordering.per_set[s]
                        picks[s] = ranking[min(ranking.index(picks[s]) + 1,
                                               len(ranking) - 1)]
                    if tuple(picks) == walk[-1]:
                        break
                    walk.append(tuple(picks))
                out.append(("decreasing", ordering, walk))
        return out

    def test_chain_check_flags_what_compare_picks_flags(self, chains):
        verdicts = set()
        for kind, ordering, chain in chains:
            expected = chain_fault(chain, ordering.rank)
            verdicts.add((kind, expected is None))
            if expected is None:
                _assert_decreasing_chain(chain, ordering.rank, _changes(chain))
            else:
                with pytest.raises(AssertionError,
                                   match=f"chain at component {expected};"):
                    _assert_decreasing_chain(chain, ordering.rank, _changes(chain))
        assert verdicts >= {("mixture", True), ("one_set", True),
                            ("one_set", False), ("repeated", False),
                            ("last_escapes", True), ("decreasing", True)}

    def test_chain_check_refuses_a_listed_set_that_kept_its_pick(self, chains):
        refused = 0
        for kind, ordering, chain in chains:
            if kind != "mixture" or len(chain) < 2:
                continue
            changes = _changes(chain)
            _assert_decreasing_chain(chain, ordering.rank, changes)
            k = len(changes) // 2
            kept = next(s for s in range(len(chain[0])) if s not in changes[k])
            listed = sorted(changes[k] + [kept])
            with pytest.raises(AssertionError,
                               match=f"chain at component {k + 1};"):
                _assert_decreasing_chain(
                    chain, ordering.rank,
                    changes[:k] + [listed] + changes[k + 1:])
            refused += 1
        assert refused >= 10

    def test_chain_check_refuses_an_empty_or_missing_list(self, dom3, ord3):
        chain = [fn(dom3, "aaab").picks, fn(dom3, "baab").picks]
        _assert_decreasing_chain(chain, ord3.rank, [[0]])
        with pytest.raises(AssertionError, match="chain at component 1;"):
            _assert_decreasing_chain(chain, ord3.rank, [[]])
        with pytest.raises(AssertionError, match="0 change lists for 2"):
            _assert_decreasing_chain(chain, ord3.rank, [])

    def test_theta_check_flags_what_the_full_scan_flags(self, chains):
        verdicts = set()
        for kind, ordering, chain in chains:
            dom = ordering.domain
            grank = order_ranks(ordering.global_order, dom.n)
            expected = theta_escape(chain, dom, grank)
            verdicts.add((kind, expected is None))
            if expected is None:
                _assert_chain_in_theta(chain, _changes(chain), dom, grank)
            else:
                with pytest.raises(AssertionError,
                                   match=f"component {expected} escaped"):
                    _assert_chain_in_theta(chain, _changes(chain), dom, grank)
            if kind == "mixture":
                assert expected is None
            if kind == "last_escapes":
                assert expected == len(chain) - 1
        assert verdicts >= {("mixture", True), ("one_set", True),
                            ("one_set", False), ("repeated", True),
                            ("last_escapes", False), ("decreasing", True),
                            ("decreasing", False)}

    def test_changes_at_either_end_of_a_removal_are_rechecked(self, dom4):
        # One component differs from a theta member at one set; the change
        # breaks a comparison where that set is S, or where it is S \ {x}.
        order = tuple("abcd")
        grank = order_ranks(dom4.order_index(order), dom4.n)
        members = sorted(theta_model(dom4, order).picks_set())
        roles = set()
        for picks in members[::5]:
            for p, s in enumerate(dom4.sets):
                for y in s:
                    if y == picks[p]:
                        continue
                    changed = picks[:p] + (y,) + picks[p + 1:]
                    found = _theta_fault(changed, dom4.removals, grank)
                    chain = [picks, changed]
                    if found is None:
                        _assert_chain_in_theta(chain, [[p]], dom4, grank)
                        continue
                    roles.add("S" if found[0] == p else "S minus x")
                    with pytest.raises(AssertionError, match="component 1 escaped"):
                        _assert_chain_in_theta(chain, [[p]], dom4, grank)
        assert roles == {"S", "S minus x"}

    def test_weight_sum_beyond_64_bits(self, dom3):
        p, q = _primes_from(2 ** 33, 2)
        c1, c2, c3 = fn(dom3, "aaab"), fn(dom3, "baab"), fn(dom3, "bbcc")
        w1, w2 = F(1, p), F(1, q)
        assert p * q > 2 ** 64
        ok = ProgressiveRepresentation(((w1, c1), (w2, c2), (1 - w1 - w2, c3)))
        assert sum(ok.weights()) == 1
        for off in (F(1, p * q), -F(1, p * q), F(1, p)):
            with pytest.raises(ChoiceError, match="sum to one"):
                ProgressiveRepresentation(
                    ((w1, c1), (w2, c2), (1 - w1 - w2 + off, c3)))


class TestFromTable:
    def test_refuses_a_second_entry_in_any_spelling(self, dom3):
        half, quarter = F(1, 2), F(1, 4)
        rows = {(("a", "b", "c"), "a"): 1, (("a", "c"), "a"): 1,
                (("b", "c"), "b"): 1}
        table = {**rows, (("a", "b"), "a"): half, (("b", "a"), "a"): quarter,
                 (("a", "b"), "b"): 1 - quarter}
        with pytest.raises(ChoiceError,
                           match=re.escape("set ('a', 'b') has a second entry "
                                           "for x = 'a'")):
            RandomChoiceFunction.from_table(dom3, table)
        table = {**rows, (frozenset("ab"), "a"): half, (("a", "b"), "b"): half}
        rho = RandomChoiceFunction.from_table(dom3, table)
        assert rho.probability("ba", "a") == half

    def test_resolves_each_spelling_once(self, dom3, monkeypatch):
        calls = []
        position = ChoiceDomain.position

        def counted(self, members):
            calls.append(tuple(members))
            return position(self, members)

        monkeypatch.setattr(ChoiceDomain, "position", counted)
        third = F(1, 3)
        table = {(("a", "b", "c"), x): third for x in "abc"}
        table |= {(("a", "b"), "a"): F(1, 2), (("b", "a"), "b"): F(1, 2),
                  (("a", "c"), "a"): 1, (("c", "b"), "b"): 1}
        rho = RandomChoiceFunction.from_table(dom3, table)
        assert calls == [("a", "b", "c"), ("a", "b"), ("b", "a"), ("a", "c"),
                         ("c", "b")]
        assert rho.probs == ((third,) * 3, (F(1, 2),) * 2, (1, 0), (1, 0))

    @pytest.mark.parametrize("key, error, message", [
        ((("a", "b"), "z"), ChoiceError, "'z' is not a member of ('a', 'b')"),
        ((("b", "a"), "c"), ChoiceError, "'c' is not a member of ('b', 'a')"),
        ((("a", "z"), "a"), DomainMismatchError, "unknown alternative 'z'"),
        ((("b", "a"), "a"), ChoiceError,
         "set ('a', 'b') has a second entry for x = 'a'"),
    ])
    def test_errors_after_a_resolved_spelling(self, dom3, key, error, message):
        # each fault follows an entry whose set spelling is already resolved
        table = {(("a", "b"), "a"): F(1, 2), (("b", "a"), "b"): F(1, 2),
                 key: 0}
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            RandomChoiceFunction.from_table(dom3, table)

    def test_spellings_are_read_as_strings(self):
        # (1, "b") == (True, "b"), but they spell different sets
        domain = ChoiceDomain.from_symbols(["1", "True", "b"],
                                           [["1", "b"], ["True", "b"]])
        rho = RandomChoiceFunction.from_table(
            domain, {((1, "b"), "1"): 1, ((True, "b"), "True"): 1})
        assert rho.probability(("1", "b"), "1") == 1
        assert rho.probability(("True", "b"), "True") == 1
