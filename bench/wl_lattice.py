"""Workload ``lattice``: closure, lattice check, theta and identification.

A model job closes a random generator set under a global order with
``lattice_closure``, checks the result with ``is_lattice`` and runs
``identify_primitive`` on it.  Closure sizes are drawn into a fixed schedule
of bands, from 30 to 200 functions, at n = 4 and n = 5.
A theta job runs ``theta_model`` at n = 4 and then ``identify_primitive`` on
its output.  Its domain has alternative symbols never used before in the
process, so the program's theta cache never turns it into a lookup.

Each round is 17 model jobs and 4 theta jobs, all on inputs new in every
round.  Theta jobs are the slowest, so p90 falls among them and p50
among the model jobs.  The cost of ``theta_model`` depends on which
alternative the order ranks first (at n = 4, about 0.8 s for the first
alternative and 0.6 s for the last), so each round's theta jobs rank each
alternative first once; only the rest of each order is drawn from the
seed.  No Fraction arithmetic and no LP runs here.
"""

from __future__ import annotations

import functools
import itertools

import reference as ref
from common import WARM_SEED, Op, full_domain, letters, rng, shuffled, warm_up

# (n, smallest and largest closure size, number of generators, generator
# kind).  Nine of the seventeen jobs sit in two central bands of similar cost,
# so that p50 falls among them and not between two bands.
JOBS = (
    (4, 30, 45, 4, "random"), (5, 30, 45, 5, "rational"),
    (4, 45, 60, 4, "random"), (5, 45, 60, 5, "rational"),
    *[(4, 80, 95, 5, "random")] * 5,
    *[(5, 60, 75, 6, "rational")] * 4,
    (4, 130, 160, 6, "random"), (5, 110, 130, 6, "rational"),
    (4, 160, 200, 6, "random"), (5, 130, 160, 7, "rational"),
)
THETA_N = 4
THETA_SLOTS = (3, 8, 13, 18)  # positions of the theta jobs in a round of 21


def _model_job(seed: int | str, rnd, index: int, spec) -> dict:
    """Generators whose closure size falls in the job's band."""
    n, low, high, count, kind = spec
    sets = ref.full_sets(n)
    for attempt in itertools.count():
        r = rng(seed, "lattice-model", rnd, index, attempt)
        order = tuple(shuffled(r, range(n)))
        ranks = ref.global_ranks(sets, order)
        if kind == "random":
            gens = {tuple(r.choice(s) for s in sets) for _ in range(count)}
        else:
            gens = {ref.maximizer(sets, shuffled(r, range(n))) for _ in range(count)}
        closed = ref.closure_fixpoint(gens, ranks, high)
        if closed is not None and low <= len(closed):
            return {"n": n, "order": order, "ranks": ranks, "gens": gens,
                    "closure": closed}


def _orders(dom, orders) -> frozenset:
    """Orders given as symbol tuples, as index tuples."""
    return frozenset(tuple(dom.index[a] for a in o) for o in orders)


def _model_op(lib, slot, job: dict, tracer) -> Op:
    n = job["n"]
    dom = full_domain(lib, n)
    ordering = lib.core.PrimitiveOrderings.from_global(
        dom, [dom.alternatives[x] for x in job["order"]])
    gens = lib.models.ChoiceModel.from_picks(dom, job["gens"])
    job["program"] = (gens, ordering)

    def run():
        closed = tracer.call("models.lattice_closure", lib.models.lattice_closure,
                             gens, ordering)
        tracer.count("models.closure_size", len(closed))
        ok, witness = tracer.call("models.is_lattice", lib.models.is_lattice,
                                  closed, ordering)
        orders, _ = tracer.call("identify.identify_primitive",
                                lib.identify.identify_primitive, closed)
        tracer.count("identify.orders_found", len(orders))
        return closed, ok, witness, orders

    def canon(out):
        closed, ok, witness, orders = out
        return closed.picks_set(), ok, witness is None, _orders(dom, orders)

    def check(value) -> str | None:
        closed, ok, no_witness, orders = value
        if not job["gens"] <= closed:
            return "the closure misses a generator"
        if closed != job["closure"]:
            return "the closure differs from the reference fixpoint"
        if not ref.is_closed(closed, job["ranks"]):
            return "the closure is not closed under join and meet"
        if ok is not True or not no_witness:
            return "is_lattice rejects a closed model"
        if orders != ref.identify_brute(closed, ref.full_sets(n), n):
            return "identify_primitive differs from the scan of all orders"
        return None

    return Op(f"model-n{n}", slot, run, canon, check)


@functools.cache
def _reference_theta(n: int, order: tuple[int, ...]) -> frozenset:
    return ref.theta_filter(ref.full_sets(n), order)


def _theta_op(lib, seed: int | str, rnd, j: int, n: int, tracer) -> Op:
    """Theta job j of a round: its order ranks alternative j % n first."""
    r = rng(seed, "lattice-theta", rnd, j)
    symbols = tuple(f"{a}{rnd}.{j}" for a in letters(n))
    best = j % n
    order = (best, *shuffled(r, [x for x in range(n) if x != best]))
    dom = full_domain(lib, n, symbols)
    order_symbols = [symbols[x] for x in order]

    def run():
        model = tracer.call("models.theta_model", lib.models.theta_model,
                            dom, order_symbols)
        tracer.count("models.theta_size", len(model))
        orders, _ = tracer.call("identify.identify_primitive",
                                lib.identify.identify_primitive, model)
        tracer.count("identify.orders_found", len(orders))
        return model, orders

    def canon(out):
        model, orders = out
        return model.picks_set(), _orders(dom, orders)

    def check(value) -> str | None:
        picks, orders = value
        if picks != _reference_theta(n, order):
            return "theta_model differs from the reference theta filter"
        if orders != {order, order[::-1]}:
            return "identify_primitive(theta_model(order)) is not {order, reverse}"
        return None

    return Op("theta", ("theta", rnd, j), run, canon, check)


def _round(lib, seed: int, rnd, tracer) -> tuple[list[Op], list[dict]]:
    """Model jobs and theta jobs, all new in every round."""
    jobs = [_model_job(seed, rnd, i, spec) for i, spec in enumerate(JOBS)]
    ops = [_model_op(lib, (rnd, i), job, tracer) for i, job in enumerate(jobs)]
    for j, pos in enumerate(THETA_SLOTS):
        ops.insert(pos, _theta_op(lib, seed, rnd, j, THETA_N, tracer))
    return ops, jobs


def setup(lib, seed: int, tracer, workdir) -> dict:
    first, jobs = _round(lib, seed, 0, tracer)
    # Warm-up on inputs of the warm-up seed: one small model job and one
    # theta job, on symbols that the timed rounds never use.
    warm = _model_job(WARM_SEED, 0, 0, JOBS[0])
    warm_up(_model_op(lib, None, warm, tracer))
    warm_up(_theta_op(lib, WARM_SEED, "warm", 0, THETA_N, tracer))
    return {"lib": lib, "seed": seed, "tracer": tracer, "first": first,
            "jobs": jobs}


def ops_for_round(state: dict, index: int) -> list[Op]:
    if index == 0:
        return state["first"]
    return _round(state["lib"], state["seed"], index, state["tracer"])[0]


def core_triples(state: dict) -> list:
    triples = []
    for job in state["jobs"]:
        gens, ordering = job["program"]
        fns = gens.functions
        triples += [(a, b, ordering) for a, b in zip(fns, fns[1:])]
    return triples
