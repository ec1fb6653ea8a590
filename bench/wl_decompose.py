"""Workload ``decompose``: the unique orderly representation of RCFs.

Each RCF is a mixture of 8 to 20 rational (random-utility) choice functions
with random integer weights, on the full domain at n = 6 (57 sets) or n = 7
(120 sets).  Seven in ten operations are ``satisfies_rtheta`` plus
``decompose_theta`` under a global order; three in ten are
``decompose_progressive`` under per-set orderings drawn independently per set,
which come from no global order.  No LP and no model enumeration runs here.
"""

from __future__ import annotations

import functools

import reference as ref
from common import WARM_SEED, Op, full_domain, integer_weights, rng, shuffled, warm_up

ROUND = 150           # RCFs per round; every round decomposes the same ones
SIZES = (6, 6, 6, 7)  # n by slot, cycled: three in four at n = 6
PROGRESSIVE_EVERY = (3, 6, 9)  # slots j with j % 10 here use per-set orders


def _mixture_size(n: int, j: int) -> int:
    low = 12 if n == 6 else 8
    return low + (j * 7) % (21 - low)


def _inputs(seed: int | str, count: int) -> list[dict]:
    """Plain inputs: domain size, kind, mixture and ordering for each slot."""
    specs = []
    for j in range(count):
        r = rng(seed, "decompose", j)
        n = SIZES[j % len(SIZES)]
        sets = ref.full_sets(n)
        k = _mixture_size(n, j)
        picks: dict[tuple, None] = {}
        while len(picks) < k:
            picks[ref.maximizer(sets, shuffled(r, range(n)))] = None
        mixture = list(zip(integer_weights(r, k), picks))
        if j % 10 in PROGRESSIVE_EVERY:
            kind = "progressive"
            rankings = [tuple(shuffled(r, s)) for s in sets]
        else:
            kind = "theta"
            order = tuple(shuffled(r, range(n)))
            rankings = [tuple(x for x in order if x in s) for s in sets]
        specs.append({"n": n, "kind": kind, "mixture": mixture,
                      "rankings": rankings,
                      "order": order if kind == "theta" else None})
    return specs


def _build(lib, spec: dict, tracer, domains: dict) -> dict:
    """Program objects for one slot: the RCF and the orderings it is read under."""
    n = spec["n"]
    if n not in domains:
        domains[n] = full_domain(lib, n)
    dom = domains[n]
    alts = dom.alternatives
    dist = {lib.core.ChoiceFunction(dom, p): w for w, p in spec["mixture"]}
    rcf = tracer.call("random_choice.compose", lib.random_choice.compose, dist)
    built = dict(spec, domain=dom, rcf=rcf, functions=list(dist))
    if spec["kind"] == "theta":
        built["symbols"] = [alts[x] for x in spec["order"]]
        built["ordering"] = lib.core.PrimitiveOrderings.from_global(
            dom, built["symbols"])
    else:
        built["ordering"] = lib.core.PrimitiveOrderings.from_per_set(
            dom, [[alts[x] for x in r] for r in spec["rankings"]])
    return built


def _op(lib, slot: int, item: dict, tracer) -> Op:
    rc = lib.random_choice
    sets = ref.full_sets(item["n"])
    ranks = ref.per_set_ranks(item["rankings"])
    expected_rcf = functools.cache(lambda: ref.compose(item["mixture"], sets))

    def components(rep):
        return tuple((w, c.picks) for w, c in rep.components)

    def check_chain(comps) -> str | None:
        if not comps or any(w <= 0 for w, _ in comps) or sum(w for w, _ in comps) != 1:
            return "component weights are not positive or do not sum to 1"
        if ref.compose(comps, sets) != expected_rcf():
            return "the components do not compose back to the RCF"
        for (_, upper), (_, lower) in zip(comps, comps[1:]):
            if not ref.dominates(upper, lower, ranks):
                return "consecutive components do not strictly dominate"
        return None

    if item["kind"] == "theta":
        symbols = item["symbols"]

        def run():
            ok, _ = tracer.call("random_choice.satisfies_rtheta",
                                rc.satisfies_rtheta, item["rcf"], symbols)
            rep = tracer.call("random_choice.decompose_theta",
                              rc.decompose_theta, item["rcf"], symbols)
            tracer.count("random_choice.components", len(rep.components))
            return ok, rep

        def canon(out):
            return out[0], components(out[1])

        def check(value) -> str | None:
            ok, comps = value
            if ok is not True:
                # Theorem: every mixture of rational functions satisfies the
                # random theta axioms, whatever the global order.
                return "satisfies_rtheta rejects a mixture of rational functions"
            if not ref.theta_all((p for _, p in comps), sets, item["order"]):
                return "a decompose_theta component fails the theta axioms"
            return check_chain(comps)
    else:
        def run():
            rep = tracer.call("random_choice.decompose_progressive",
                              rc.decompose_progressive, item["rcf"],
                              item["ordering"])
            tracer.count("random_choice.components", len(rep.components))
            return rep

        canon, check = components, check_chain
    return Op(item["kind"], slot, run, canon, check)


def setup(lib, seed: int, tracer, workdir) -> dict:
    domains: dict = {}
    items = [_build(lib, spec, tracer, domains) for spec in _inputs(seed, ROUND)]
    ops = [_op(lib, j, item, tracer) for j, item in enumerate(items)]
    # Warm-up: one operation of each kind on inputs of the warm-up seed.
    warm = [_build(lib, spec, tracer, domains) for spec in _inputs(WARM_SEED, 10)]
    for kind in ("theta", "progressive"):
        item = next(i for i in warm if i["kind"] == kind)
        warm_up(_op(lib, None, item, tracer))
    return {"ops": ops, "items": items}


def ops_for_round(state: dict, index: int) -> list[Op]:
    return state["ops"]


def core_triples(state: dict) -> list:
    return [(item["functions"][0], item["functions"][1], item["ordering"])
            for item in state["items"]]
