import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from choicelattice import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    ChoiceModel,
    Comparison,
    DomainMismatchError,
    PrimitiveOrderings,
    cli,
    compare,
    decompose_progressive,
    deterministic,
    in_delta,
    is_chain,
    is_lattice,
    join,
    lattice_closure,
    meet,
)
from brute import compare_picks, join_picks, meet_picks, restrict_ordering

from conftest import fn, random_ordering


def test_domain_canonical_set_order(dom3):
    assert [dom3.set_symbols(i) for i in range(4)] == [
        ("a", "b", "c"), ("a", "b"), ("a", "c"), ("b", "c")]
    assert dom3.is_full


def test_domain_validation():
    # errors name the symbols of the set, not its indices
    with pytest.raises(ChoiceError, match=r"^choice set \('a',\) has fewer "
                       r"than two members$"):
        ChoiceDomain.from_symbols(["a", "b"], [["a"]])
    with pytest.raises(ChoiceError, match=r"^choice set \('a', 'a', 'b'\) "
                       r"has repeated members$"):
        ChoiceDomain.from_symbols(["a", "b"], [["a", "a", "b"]])
    with pytest.raises(ChoiceError, match=r"^choice set \('a', 5\) mentions "
                       r"an unknown alternative$"):
        ChoiceDomain(("a", "b"), ((0, 5),))
    with pytest.raises(ChoiceError):
        ChoiceDomain.from_symbols(["a", "a"], [["a", "a"]])  # dup symbol
    with pytest.raises(DomainMismatchError):
        ChoiceDomain.from_symbols(["a", "b"], [["a", "z"]])
    with pytest.raises(ChoiceError, match=r"^duplicate choice set "
                       r"\('a', 'b'\)$"):
        ChoiceDomain.from_symbols(["a", "b", "c"], [["a", "b"], ["b", "a"]])


def test_per_set_orders_are_restrictions(dom3, ord3):
    assert ord3.per_set == ((0, 1, 2), (0, 1), (0, 2), (1, 2))
    # a ranking that is not the restriction of the declared global order
    with pytest.raises(ChoiceError):
        PrimitiveOrderings(dom3, ((0, 1, 2), (1, 0), (0, 2), (1, 2)),
                           (0, 1, 2))


def test_ordering_errors_name_symbols(dom3):
    with pytest.raises(ChoiceError, match=r"^ranking \('a',\) is not a "
                       r"permutation of set \('a', 'b'\)$"):
        PrimitiveOrderings(dom3, ((0, 1, 2), (0,), (0, 2), (1, 2)))
    with pytest.raises(ChoiceError, match=r"^per-set ranking \('c', 'b'\) is "
                       r"not the restriction of the global order to "
                       r"\('b', 'c'\)$"):
        PrimitiveOrderings(dom3, ((0, 1, 2), (0, 1), (0, 2), (2, 1)),
                           (0, 1, 2))


def test_set_dependent_orderings_supported(dom3):
    ords = PrimitiveOrderings.from_per_set(
        dom3, [("a", "b", "c"), ("b", "a"), ("c", "a"), ("b", "c")])
    assert ords.global_order is None
    left, right = fn(dom3, "abab"), fn(dom3, "aaac")
    # incomparable under the global a>b>c, comparable under these per-set orders
    assert join(left, right, ords) == left
    assert meet(left, right, ords) == right
    assert compare(left, right, ords) is Comparison.DOMINATES
    with pytest.raises(ChoiceError):
        ords.global_symbols()


def test_from_global_is_the_restriction():
    domain = ChoiceDomain.full("abcdefg")
    order = ("d", "g", "a", "f", "c", "e", "b")
    ordering = PrimitiveOrderings.from_global(domain, order)
    for i, ranking in enumerate(ordering.per_set):
        expect = restrict_ordering(order, domain.set_symbols(i))
        assert tuple(domain.alternatives[x] for x in ranking) == expect
    with pytest.raises(ChoiceError):
        PrimitiveOrderings.from_global(domain, order[:-1])
    with pytest.raises(DomainMismatchError):
        PrimitiveOrderings.from_global(domain, order[:-1] + ("z",))


def test_choice_function_validation(dom3):
    with pytest.raises(ChoiceError):
        ChoiceFunction(dom3, (0, 0, 0))  # one pick missing
    with pytest.raises(ChoiceError):
        ChoiceFunction(dom3, (0, 2, 0, 1))  # c is not in {a,b}
    c = fn(dom3, "aaab")
    assert c.symbols() == ("a", "a", "a", "b")
    assert c.pick(["b", "c"]) == "b"


def test_picks_are_stored_as_a_tuple(dom3):
    c = ChoiceFunction(dom3, [0, 0, 0, 1])
    assert type(c.picks) is tuple
    assert c == fn(dom3, "aaab") and hash(c) == hash(fn(dom3, "aaab"))
    assert ChoiceModel.from_functions([c]).strings() == ("aaab",)


def _message(build) -> str:
    with pytest.raises(ChoiceError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bulk_construction_equals_one_at_a_time(n):
    domain = ChoiceDomain.full("abcde"[:n])
    rng = random.Random(n)
    smaller = [si for si, s in enumerate(domain.sets) if len(s) < n]
    for _ in range(20):
        rows = [tuple(rng.choice(s) for s in domain.sets)
                for _ in range(rng.randint(1, 8))]
        one = [ChoiceFunction(domain, p) for p in rows]
        many = ChoiceFunction.many(domain, rows)
        assert many == one
        assert [hash(c) for c in many] == [hash(c) for c in one]
        assert [c.picks for c in many] == rows
        assert ChoiceFunction.many(domain, map(list, rows)) == one
        assert (ChoiceModel.from_picks(domain, rows)
                == ChoiceModel.from_functions(one))
        # a short row, a long row, a non-member pick, an unknown alternative
        row = rows[0]
        si = rng.choice(smaller)
        outside = next(x for x in range(n) if x not in domain.sets[si])
        faults = [row[:-1], row + row[:1], row[:si] + (outside,) + row[si + 1:],
                  row[:si] + (n,) + row[si + 1:]]
        for bad in faults:
            expected = _message(lambda: ChoiceFunction(domain, bad))
            assert _message(
                lambda: ChoiceModel.from_picks(domain, rows + [bad])) == expected
        # several faults among valid rows, one of them an unhashable pick:
        # the first one is reported
        faults.append(row[:si] + ([row[si]],) + row[si + 1:])
        mixed = rows + rng.sample(faults, 3)
        rng.shuffle(mixed)
        assert (_message(lambda: ChoiceFunction.many(domain, mixed))
                == _message(lambda: [ChoiceFunction(domain, p) for p in mixed]))


def test_compare_examples(dom3, ord3):
    assert compare(fn(dom3, "aaab"), fn(dom3, "abab"), ord3) is Comparison.DOMINATES
    assert compare(fn(dom3, "abab"), fn(dom3, "aaac"), ord3) is Comparison.INCOMPARABLE
    assert compare(fn(dom3, "aaab"), fn(dom3, "aaab"), ord3) is Comparison.EQUAL


def test_compare_antisymmetric(dom3, ord3):
    functions = [ChoiceFunction(dom3, p)
                 for p in itertools.product(*dom3.sets)]
    flipped = {Comparison.DOMINATES: Comparison.DOMINATED_BY,
               Comparison.DOMINATED_BY: Comparison.DOMINATES,
               Comparison.EQUAL: Comparison.EQUAL,
               Comparison.INCOMPARABLE: Comparison.INCOMPARABLE}
    for c1, c2 in itertools.combinations(functions, 2):
        assert compare(c2, c1, ord3) is flipped[compare(c1, c2, ord3)]


def test_join_meet_examples(dom3, ord3):
    assert join(fn(dom3, "bbab"), fn(dom3, "cacc"), ord3).to_string() == "baab"
    assert meet(fn(dom3, "bbab"), fn(dom3, "cacc"), ord3).to_string() == "cbcc"
    c = fn(dom3, "abac")
    assert join(c, c, ord3) == c


def test_join_meet_bound_inputs(dom3, ord3):
    functions = [ChoiceFunction(dom3, p)
                 for p in itertools.product(*dom3.sets)]
    for c1, c2 in itertools.combinations(functions, 2):
        up = join(c1, c2, ord3)
        dn = meet(c1, c2, ord3)
        for c in (c1, c2):
            assert compare(up, c, ord3) in (Comparison.DOMINATES, Comparison.EQUAL)
            assert compare(dn, c, ord3) in (Comparison.DOMINATED_BY, Comparison.EQUAL)


def test_lattice_laws_exhaustive_n3(dom3, ord3):
    rank = ord3.rank
    picks = list(itertools.product(*dom3.sets))
    for p, q in itertools.combinations(picks, 2):
        assert join_picks(p, q, rank) == join_picks(q, p, rank)
        assert meet_picks(p, q, rank) == meet_picks(q, p, rank)
        # absorption
        assert join_picks(p, meet_picks(p, q, rank), rank) == p
        assert meet_picks(p, join_picks(p, q, rank), rank) == p
    rng = random.Random(3)
    for _ in range(4000):
        p, q, r = (rng.choice(picks) for _ in range(3))
        assert (join_picks(join_picks(p, q, rank), r, rank)
                == join_picks(p, join_picks(q, r, rank), rank))
        assert (meet_picks(meet_picks(p, q, rank), r, rank)
                == meet_picks(p, meet_picks(q, r, rank), rank))


@st.composite
def _domain_and_functions(draw):
    n = draw(st.integers(min_value=4, max_value=5))
    symbols = [chr(ord("a") + i) for i in range(n)]
    domain = ChoiceDomain.full(symbols)
    order = draw(st.permutations(symbols))
    ordering = PrimitiveOrderings.from_global(domain, order)
    picks = st.tuples(*[st.sampled_from(s) for s in domain.sets])
    return ordering, draw(picks), draw(picks), draw(picks)


@settings(max_examples=120, deadline=None)
@given(_domain_and_functions())
def test_lattice_laws_randomized_n4_n5(data):
    ordering, p, q, r = data
    rank = ordering.rank
    assert join_picks(p, q, rank) == join_picks(q, p, rank)
    assert join_picks(p, p, rank) == p
    assert meet_picks(p, meet_picks(p, q, rank), rank) == meet_picks(p, q, rank)
    assert join_picks(p, meet_picks(p, q, rank), rank) == p
    assert (join_picks(join_picks(p, q, rank), r, rank)
            == join_picks(p, join_picks(q, r, rank), rank))
    assert (meet_picks(meet_picks(p, q, rank), r, rank)
            == meet_picks(p, meet_picks(q, r, rank), rank))


@pytest.mark.parametrize("per_set", [False, True])
@pytest.mark.parametrize("n", range(3, 8))
def test_packed_ops_match_tuple_ops(n, per_set):
    rng = random.Random(10 * n + per_set)
    domain = ChoiceDomain.full("abcdefg"[:n])
    for _ in range(4):
        ordering = random_ordering(rng, domain, per_set)
        packed, rank = ordering.packed, ordering.rank
        assert packed.width == (n - 1).bit_length()
        assert packed.pack(tuple(r[0] for r in ordering.per_set)) == 0
        worst = packed.pack(tuple(r[-1] for r in ordering.per_set))
        assert worst & packed.guard == 0
        for _ in range(30):
            p, q = (tuple(rng.choice(s) for s in domain.sets) for _ in range(2))
            j, m = join_picks(p, q, rank), meet_picks(p, q, rank)
            a, b = packed.pack(p), packed.pack(q)
            assert packed.unpack(a) == p
            assert packed.unpack(packed.join(a, b)) == j
            assert packed.unpack(packed.meet(a, b)) == m
            # random pairs are mostly incomparable; bounds and equal pairs
            # are not
            for x, y in ((p, q), (j, p), (q, j), (m, q), (p, m), (p, p)):
                expect = compare_picks(x, y, rank)
                px, py = packed.pack(x), packed.pack(y)
                assert packed.weakly_better(px, py) is (
                    expect in (Comparison.DOMINATES, Comparison.EQUAL))
                assert packed.weakly_better(py, px) is (
                    expect in (Comparison.DOMINATED_BY, Comparison.EQUAL))


def test_strict_comparison_transitive_n3(dom3, ord3):
    rank = ord3.rank
    picks = list(itertools.product(*dom3.sets))
    better = {p: {q for q in picks
                  if compare_picks(p, q, rank) is Comparison.DOMINATES}
              for p in picks}
    for p in picks:
        for q in better[p]:
            assert better[q] <= better[p]


def test_domain_mismatch_raises(dom3, dom4, ord3):
    with pytest.raises(DomainMismatchError):
        compare(fn(dom3, "aaab"),
                ChoiceFunction(dom4, tuple(s[0] for s in dom4.sets)), ord3)


# Each entry point called with a function c on the full domain over a, b, c
# and a function f on a domain over the same alphabet without the set {a, c}.
FOREIGN_CALLS = {
    "decompose_progressive": lambda c, f, o: decompose_progressive(
        deterministic(f), o),
    "in_delta": lambda c, f, o: in_delta(deterministic(c),
                                         ChoiceModel.from_functions([f])),
    "is_lattice": lambda c, f, o: is_lattice(ChoiceModel.from_functions([f]), o),
    "lattice_closure": lambda c, f, o: lattice_closure(
        ChoiceModel.from_functions([f]), o),
    "is_chain": lambda c, f, o: is_chain(ChoiceModel.from_functions([f]), o),
    "compare": compare,
    "join": join,
    "meet": meet,
}


@pytest.mark.parametrize("name", list(FOREIGN_CALLS))
def test_foreign_domain_raises_domain_mismatch(name, dom3, ord3):
    foreign = ChoiceDomain.from_symbols("abc", ["abc", "ab", "bc"])
    assert foreign.alternatives == dom3.alternatives and foreign != dom3
    f = ChoiceFunction(foreign, tuple(s[0] for s in foreign.sets))
    with pytest.raises(DomainMismatchError):
        FOREIGN_CALLS[name](fn(dom3, "aaab"), f, ord3)


def _scanned_removals(domain):
    """(S, x, S \\ {x}) for every pair of domain sets one member apart."""
    sets = [set(s) for s in domain.sets]
    return sorted((si, min(s - t), ti)
                  for si, s in enumerate(sets) for ti, t in enumerate(sets)
                  if len(t) == len(s) - 1 and t < s)


# The last domain lacks {a, c}, {b, d} and {a, b, c}, so some S \ {x} is absent.
TABLE_DOMAINS = [ChoiceDomain.full("abcdef"[:n]) for n in range(3, 7)] + [
    ChoiceDomain.from_symbols("abcd", ["abcd", "abd", "acd", "bcd",
                                       "ab", "ad", "bc", "cd"])]


@pytest.mark.parametrize("domain", TABLE_DOMAINS, ids=lambda d: str(len(d.sets)))
def test_removal_tables_equal_a_scan_of_the_sets(domain):
    removals = _scanned_removals(domain)
    assert domain.removals == tuple(removals)
    for p in range(len(domain.sets)):
        assert domain.removal_pairs[p] == tuple(
            r for r in removals if p in (r[0], r[2]))
    assert domain.comparisons == tuple(
        (si, x, sub, y, domain.sets[si].index(y), domain.sets[sub].index(y))
        for si, x, sub in removals for y in domain.sets[si] if y != x)
    possible = sum(len(s) for s in domain.sets if len(s) > 2)
    assert (len(removals) == possible) is domain.is_full


class TestPackedWrappers:
    """The public pick-vector operations against the tuple-loop references."""

    @pytest.fixture(scope="class")
    def closures(self):
        cases = []
        for n in (3, 4):
            domain = ChoiceDomain.full("abcd"[:n])
            for per_set in (False, True):
                rng = random.Random(10 * n + per_set)
                for _ in range(3):
                    ordering = random_ordering(rng, domain, per_set)
                    gens = ChoiceModel.from_picks(domain, [
                        tuple(rng.choice(s) for s in domain.sets)
                        for _ in range(3)])
                    cases.append((lattice_closure(gens, ordering), ordering))
        return cases

    def test_compare_join_meet_equal_the_references(self, closures):
        seen = set()
        for m, ordering in closures:
            rank = ordering.rank
            for c1, c2 in itertools.product(m.functions, repeat=2):
                expect = compare_picks(c1.picks, c2.picks, rank)
                seen.add(expect)
                assert compare(c1, c2, ordering) is expect
                assert join(c1, c2, ordering).picks == join_picks(
                    c1.picks, c2.picks, rank)
                assert meet(c1, c2, ordering).picks == meet_picks(
                    c1.picks, c2.picks, rank)
        assert seen == set(Comparison)

    def test_hasse_edges_are_the_covers(self, closures, tmp_path, capsys):
        for k, (m, ordering) in enumerate(closures):
            model_path, order_path = tmp_path / f"m{k}.json", tmp_path / f"o{k}.json"
            model_path.write_text(json.dumps(cli.model_json(m)))
            if ordering.global_order is None:
                orders = {"per_set": [{"set": list(m.domain.set_symbols(si)),
                                       "rank": list(m.domain.symbols(r))}
                                      for si, r in enumerate(ordering.per_set)]}
            else:
                orders = {"global": list(ordering.global_symbols())}
            order_path.write_text(json.dumps(orders))
            assert cli.main(["hasse", str(model_path), str(order_path)]) == 0
            edges = {tuple(json.loads(end) for end in line.strip(" ;").split(" -> "))
                     for line in capsys.readouterr().out.splitlines()
                     if " -> " in line}
            rank = ordering.rank
            below = {c.picks: {d.picks for d in m.functions
                               if compare_picks(c.picks, d.picks, rank)
                               is Comparison.DOMINATES}
                     for c in m.functions}
            covers = {(cli.func_repr(c), cli.func_repr(d))
                      for c in m.functions for d in m.functions
                      if d.picks in below[c.picks] and not any(
                          d.picks in below[mid] for mid in below[c.picks])}
            assert edges == covers
