"""Tests of the benchmark's reference routines against the paper, and of the
benchmark's metric list against BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import reference as ref
import run
from common import ROOT

ABC = "abc"
# Fig. 4: the minimal self-progressive extension at n = 3 under a > b > c.
THETA3 = {"aaab", "baab", "aaac", "bacb", "baac", "bbab",
          "bbcb", "bacc", "bbac", "cacc", "bbcc", "cbcc"}
SETS3 = ref.full_sets(3)
RANKS3 = ref.global_ranks(SETS3, (0, 1, 2))


def picks(text: str) -> tuple[int, ...]:
    return tuple(ABC.index(ch) for ch in text)


def text(p) -> str:
    return "".join(ABC[x] for x in p)


def pairwise_fixpoint(gens, ranks) -> set:
    """The literal definition: add joins and meets until nothing changes."""
    closed = set(gens)
    while True:
        new = {f(p, q, ranks) for p, q in itertools.combinations(closed, 2)
               for f in (ref.join, ref.meet)} - closed
        if not new:
            return closed
        closed |= new


def test_canonical_sets():
    assert SETS3 == ((0, 1, 2), (0, 1), (0, 2), (1, 2))
    assert len(ref.full_sets(4)) == 11 and len(ref.full_sets(7)) == 120


def test_fig4_theta_filter():
    assert {text(p) for p in ref.theta_filter(SETS3, (0, 1, 2))} == THETA3


def test_rational_closure_is_theta_n3():
    rational = ref.rational_model(SETS3, 3)
    assert {text(p) for p in ref.closure_fixpoint(rational, RANKS3)} == THETA3


def test_rational_closure_is_theta_n4():
    sets = ref.full_sets(4)
    for order in [(0, 1, 2, 3), (2, 0, 3, 1)]:
        theta = ref.theta_filter(sets, order)
        assert len(theta) == 526
        closed = ref.closure_fixpoint(ref.rational_model(sets, 4),
                                      ref.global_ranks(sets, order))
        assert closed == theta


def test_example1():
    third = Fraction(1, 3)
    rho = ref.compose([(third, picks("aaab")), (third, picks("abab")),
                       (third, picks("aaac"))], SETS3)
    assert rho[1] == {0: Fraction(2, 3), 1: third}
    assert ref.decompose_sweep(rho, RANKS3) == [
        (Fraction(2, 3), picks("aaab")), (third, picks("abac"))]
    model = {picks(t) for t in ("aaab", "abab", "aaac", "abac")}
    assert ref.is_closed(model, RANKS3)
    assert ref.closure_fixpoint(model, RANKS3) == model


def test_closure_matches_pairwise_fixpoint():
    r = random.Random(7)
    for n in (3, 4):
        sets = ref.full_sets(n)
        for _ in range(20):
            order = r.sample(range(n), n)
            ranks = ref.global_ranks(sets, order)
            gens = [tuple(r.choice(s) for s in sets) for _ in range(r.randint(1, 4))]
            closed = ref.closure_fixpoint(gens, ranks)
            assert closed == pairwise_fixpoint(gens, ranks)
            assert ref.is_closed(closed, ranks)
            assert ref.closure_fixpoint(gens, ranks, len(closed) - 1) is None


def test_sweep_is_a_decreasing_chain_that_composes_back():
    r = random.Random(3)
    for n in (3, 4, 5):
        sets = ref.full_sets(n)
        for _ in range(10):
            ranks = ref.per_set_ranks([r.sample(s, len(s)) for s in sets])
            mixture = [(Fraction(r.randint(1, 9)), tuple(r.choice(s) for s in sets))
                       for _ in range(5)]
            total = sum(w for w, _ in mixture)
            rho = ref.compose([(w / total, p) for w, p in mixture], sets)
            comps = ref.decompose_sweep(rho, ranks)
            assert ref.compose(comps, sets) == rho
            assert all(ref.dominates(p, q, ranks)
                       for (_, p), (_, q) in zip(comps, comps[1:]))


def test_block_marschak_on_deterministic_functions():
    # A point mass is a mixture of rational functions iff it is rational.
    for n in (3, 4):
        sets = ref.full_sets(n)
        rational = ref.rational_model(sets, n)
        for p in itertools.product(*sets):
            rho = ref.compose([(Fraction(1), p)], sets)
            assert ref.block_marschak_ok(rho, sets, n) == (p in rational)


def test_block_marschak_on_mixtures():
    r = random.Random(5)
    sets = ref.full_sets(4)
    for _ in range(20):
        members = [ref.maximizer(sets, r.sample(range(4), 4)) for _ in range(4)]
        rho = ref.compose([(Fraction(1, 4), p) for p in members], sets)
        assert ref.block_marschak_ok(rho, sets, 4)


def test_identify_brute_on_theta():
    for n in (3, 4):
        sets = ref.full_sets(n)
        for order in [tuple(range(n)), tuple(reversed(range(n)))[1:] + (n - 1,)]:
            found = ref.identify_brute(ref.theta_filter(sets, order), sets, n)
            assert found == {order, order[::-1]}


def test_cover_relation():
    chain = [picks(t) for t in ("aaab", "abab", "abac")]
    assert ref.cover_relation(chain, RANKS3) == {
        (picks("aaab"), picks("abab")), (picks("abab"), picks("abac"))}
    square = [picks(t) for t in ("aaab", "abab", "aaac", "abac")]
    covers = ref.cover_relation(square, RANKS3)
    assert (picks("aaab"), picks("abac")) not in covers
    assert len(covers) == 4


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
