"""Workload ``membership``: is an RCF a mixture over a model, ``in_delta``.

On the full domain at n = 4, M is either the rational model (24 members, not
a lattice) or one of twelve lattice closures of random generator sets, with
sizes drawn into fixed bands of a few dozen members.  Models and RCFs are new
in every round, so that a run sees many of them.  A "yes" RCF mixes
members of M; a "no" RCF also gives weight to functions outside M, and is
redrawn until the benchmark's own route says it lies outside Delta(M).  One
query in three is on the rational model and one in three answers "no".

The benchmark knows every answer in advance: for the rational model from the
Block-Marschak polynomials, for a lattice from the progressive decomposition,
which stays inside M exactly when the RCF is a mixture over M.
"""

from __future__ import annotations

import itertools

import reference as ref
from common import WARM_SEED, Op, full_domain, integer_weights, rng, shuffled, warm_up

N = 4
# Closure sizes of the lattice models of a round, two models per band.
BANDS = ((28, 32), (40, 44), (52, 56)) * 4
ROUND = 54  # queries per round, on models and RCFs new in every round
WARM = 7  # warm-up queries


def _lattice_model(seed: int | str, rnd: int, index: int, band) -> dict:
    """Closure of random generators, redrawn until its size is in the band."""
    sets = ref.full_sets(N)
    for attempt in itertools.count():
        r = rng(seed, "membership-model", rnd, index, attempt)
        order = tuple(shuffled(r, range(N)))
        ranks = ref.global_ranks(sets, order)
        gens = [tuple(r.choice(s) for s in sets) for _ in range(4)]
        members = ref.closure_fixpoint(gens, ranks, band[1])
        if members is not None and band[0] <= len(members):
            return {"kind": "lattice", "members": members, "ranks": ranks,
                    "order": order}


RATIONAL = {"kind": "rational", "members": ref.rational_model(ref.full_sets(N), N)}


def _models(seed: int | str, rnd: int) -> list[dict]:
    return [RATIONAL] + [_lattice_model(seed, rnd, i, band)
                         for i, band in enumerate(BANDS)]


def _in_delta(rcf, model: dict) -> bool:
    """The answer by the benchmark's own route."""
    sets = ref.full_sets(N)
    if model["kind"] == "rational":
        return ref.block_marschak_ok(rcf, sets, N)
    comps = ref.decompose_sweep(rcf, model["ranks"])
    return all(p in model["members"] for _, p in comps)


def _schedule(count: int) -> list[tuple[int, bool, int]]:
    """(model index, expected answer, mixture size) of each slot of a round.

    One slot in three asks the rational model; the others go round the
    lattice models.  Each model answers "no" to one query in three.
    """
    out, rational, lattice = [], 0, 0
    for j in range(count):
        k = 2 + (j * 5) % 7
        if j % 3 == 0:
            out.append((0, rational % 3 != 2, k))
            rational += 1
        else:
            index = lattice % len(BANDS)
            out.append((1 + index, (lattice + lattice // len(BANDS)) % 3 != 2, k))
            lattice += 1
    return out


def _queries(seed: int | str, rnd: int, models: list[dict], count: int) -> list[dict]:
    """Slots follow a fixed schedule; only the members, the functions
    outside the model and the weights are random."""
    sets = ref.full_sets(N)
    everything = list(itertools.product(*sets))
    queries = []
    for j, (index, want, k) in enumerate(_schedule(count)):
        r = rng(seed, "membership-query", rnd, j)
        model = models[index]
        members = sorted(model["members"])
        while True:
            chosen = r.sample(members, min(k, len(members)))
            if not want:
                outside = [p for p in (r.choice(everything) for _ in range(50))
                           if p not in model["members"]]
                chosen = chosen[:-1] + outside[:1 + j % 2]
            mixture = list(zip(integer_weights(r, len(chosen)), chosen))
            rcf = ref.compose(mixture, sets)
            if _in_delta(rcf, model) == want:
                break
        queries.append({"model": model, "rcf": rcf, "expect": want})
    return queries


def _op(lib, slot, query: dict, built: dict, tracer) -> Op:
    sets = ref.full_sets(N)
    model = query["model"]
    program_model, _ = built[id(model)]
    rcf = lib.random_choice.RandomChoiceFunction(
        program_model.domain,
        tuple(tuple(row[x] for x in s) for s, row in zip(sets, query["rcf"])))
    name = f"random_choice.in_delta_{model['kind']}"

    def run():
        tracer.count("oracle.lp_columns", len(program_model))
        tracer.count("oracle.lp_rows", sum(len(s) for s in sets) + 1)
        return tracer.call(name, lib.random_choice.in_delta, rcf, program_model)

    def canon(out):
        ok, certificate = out
        if certificate is None:
            return ok, None
        return ok, tuple(sorted((c.picks, w) for c, w in certificate.items()))

    def check(value) -> str | None:
        ok, certificate = value
        if ok is not query["expect"]:
            return f"in_delta answered {ok}, the reference route {query['expect']}"
        if not ok:
            return None
        if certificate is None:
            return "a yes without a certificate"
        if any(w < 0 for _, w in certificate) or sum(w for _, w in certificate) != 1:
            return "certificate weights are negative or do not sum to 1"
        if any(p not in model["members"] for p, _ in certificate):
            return "certificate support leaves the model"
        if ref.compose([(w, p) for p, w in certificate], sets) != query["rcf"]:
            return "certificate does not compose to the RCF"
        return None

    return Op(model["kind"], slot, run, canon, check)


def _build_models(lib, models: list[dict]) -> dict:
    dom = full_domain(lib, N)
    built = {}
    for model in models:
        ordering = None
        if model["kind"] == "rational":
            program_model = lib.models.enumerate_rational(dom)
            if program_model.picks_set() != model["members"]:
                raise RuntimeError("enumerate_rational differs from the reference")
        else:
            program_model = lib.models.ChoiceModel.from_picks(dom, model["members"])
            ordering = lib.core.PrimitiveOrderings.from_global(
                dom, [dom.alternatives[x] for x in model["order"]])
        built[id(model)] = (program_model, ordering)
    return built


def _round(lib, seed: int | str, rnd, tracer,
           count: int = ROUND) -> tuple[list[Op], dict]:
    """A round's models and its first ``count`` queries, new in every round."""
    models = _models(seed, rnd)
    built = _build_models(lib, models)
    queries = _queries(seed, rnd, models, count)
    return [_op(lib, (rnd, j), q, built, tracer)
            for j, q in enumerate(queries)], built


def setup(lib, seed: int, tracer, workdir) -> dict:
    first, built = _round(lib, seed, 0, tracer)
    # Warm-up: the first queries of a round of the warm-up seed, three on the
    # rational model and four on lattice models.
    warm, _ = _round(lib, WARM_SEED, 0, tracer, WARM)
    for op in warm:
        warm_up(op)
    return {"lib": lib, "seed": seed, "tracer": tracer, "first": first,
            "built": list(built.values())}


def ops_for_round(state: dict, index: int) -> list[Op]:
    if index == 0:
        return state["first"]
    return _round(state["lib"], state["seed"], index, state["tracer"])[0]


def core_triples(state: dict) -> list:
    """Pairs of members of each lattice model, under its own ordering."""
    triples = []
    for program_model, ordering in state["built"]:
        if ordering is not None:
            fns = program_model.functions
            triples += [(a, b, ordering) for a, b in zip(fns, fns[1:])]
    return triples
