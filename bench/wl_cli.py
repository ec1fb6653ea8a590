"""Workload ``cli``: every subcommand through ``cli.main``, in process.

Set-up writes JSON files through the program (``model_json``, ``rcf_json``,
``theta_model``, ``lattice_closure``).  Each round then runs, with stdout and
stderr captured: ``decompose`` under a global and a per-set ordering;
``check`` with ``--lattice``, ``--theta``, ``--chain``, ``--mixture`` and
``--rtheta`` on passing and failing inputs; ``closure`` (with and without
``--oracle``); ``identify``; ``hasse``; ``generate`` of all three kinds; and
malformed inputs for both error exit codes.  This is the only workload that
parses and validates JSON and serialises large models.

Inputs are sized so that an invocation takes ten milliseconds or more:
models at n = 4 and 5, RCFs at n = 6 and 7, and malformed files that fail
only after a model of 120 functions, or an RCF on 120 sets, has been loaded.
The one exception is ``closure --oracle`` on the rational model at n = 3 (a
few milliseconds), since at n = 4 it takes over a second.

Exit codes (``cli`` module docstring): 0 pass, 1 semantic fail, 2 parse or
schema error, 3 invariant violation in the input data.  One operation fails
today: ``check <rcf> --rtheta`` with no orderings file raises ``TypeError``
out of ``cli.main``; the documented exit code is 2.  Its input does not
depend on the seed, so it fails once in every round.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import shutil
from fractions import Fraction
from pathlib import Path

import reference as ref
from common import Op, full_domain, integer_weights, letters, rng, shuffled, warm_up

PASS, FAIL, SCHEMA, INVARIANT = 0, 1, 2, 3
RANDOM_SIZE = 1000


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _strings(picks, n: int) -> str:
    return "".join(letters(n)[x] for x in picks)


def _parse_picks(text: str, n: int) -> tuple[int, ...]:
    return tuple(letters(n).index(ch) for ch in text)


def _parse_model(data: dict, n: int) -> frozenset:
    """Picks of a model file, whatever set order the file uses."""
    sets = ref.full_sets(n)
    index = {a: i for i, a in enumerate(letters(n))}
    position = {s: i for i, s in enumerate(sets)}
    out = set()
    for f in data["functions"]:
        picks = [None] * len(sets)
        for entry in f["picks"]:
            key = tuple(sorted(index[a] for a in entry["set"]))
            picks[position[key]] = index[entry["x"]]
        out.add(tuple(picks))
    return frozenset(out)


def _band_closure(r, n: int, ranks, low: int, high: int, count: int):
    """Random generators whose reference closure size lies in [low, high]."""
    sets = ref.full_sets(n)
    while True:
        gens = {tuple(r.choice(s) for s in sets) for _ in range(count)}
        closed = ref.closure_fixpoint(gens, ranks, high)
        if closed is not None and low <= len(closed):
            return gens, closed


def _setup_inputs(seed: int) -> dict:
    """What stays the same in every round: the order at n = 4."""
    r = rng(seed, "cli")
    order4 = tuple(shuffled(r, range(4)))
    return {"order4": order4, "ranks4": ref.global_ranks(ref.full_sets(4), order4)}


def _round_inputs(seed: int, rnd, fixed: dict) -> dict:
    """What the files of one round hold, as plain values."""
    r = rng(seed, "cli", rnd)
    ins = dict(fixed)
    sets5, sets6, sets7 = (ref.full_sets(n) for n in (5, 6, 7))
    ins["order5"] = tuple(shuffled(r, range(5)))
    ins["ranks5"] = ref.global_ranks(sets5, ins["order5"])
    ins["order6"] = tuple(shuffled(r, range(6)))
    ins["order7"] = tuple(shuffled(r, range(7)))
    ins["gens4"], ins["closure4"] = _band_closure(r, 4, ins["ranks4"], 60, 90, 5)
    ins["gens5"], ins["closure5"] = _band_closure(r, 5, ins["ranks5"], 60, 100, 4)
    # A mixture of rational functions satisfies the random theta axioms.
    rational = [ref.maximizer(sets6, shuffled(r, range(6))) for _ in range(12)]
    ins["rcf6"] = ref.compose(zip(integer_weights(r, 12), rational), sets6)
    ins["rankings6"] = [tuple(shuffled(r, s)) for s in sets6]
    rational = [ref.maximizer(sets7, shuffled(r, range(7))) for _ in range(12)]
    ins["rcf7"] = ref.compose(zip(integer_weights(r, 12), rational), sets7)
    # A mixture that puts weight on arbitrary functions; whether it satisfies
    # the axioms is read off its progressive decomposition (theta is a lattice).
    arbitrary = [tuple(r.choice(s) for s in sets7) for _ in range(4)]
    rational7 = [ref.maximizer(sets7, shuffled(r, range(7))) for _ in range(4)]
    ins["rcf7_mixed"] = ref.compose(
        zip(integer_weights(r, 8), rational7 + arbitrary), sets7)
    # A chain: the components of a progressive decomposition.
    some = [tuple(r.choice(s) for s in sets5) for _ in range(12)]
    chain_rcf = ref.compose(zip(integer_weights(r, 12), some), sets5)
    ins["chain5"] = [p for _, p in ref.decompose_sweep(chain_rcf, ins["ranks5"])]
    # A mixture-closed model: every pointwise recombination of two functions
    # that differ at exactly six sets.
    p = tuple(r.choice(s) for s in sets5)
    differ = set(r.sample(range(len(sets5)), 6))
    options = [(x, r.choice([y for y in s if y != x])) if i in differ else (x,)
               for i, (x, s) in enumerate(zip(p, sets5))]
    ins["product5"] = list(itertools.product(*options))
    ins["random_seeds"] = [r.randrange(1 << 30) for _ in range(2)]
    return ins


def _domains(lib) -> dict:
    return {n: full_domain(lib, n) for n in (3, 4, 5, 6, 7)}


def _setup_files(lib, fixed: dict, workdir: Path, tracer) -> dict:
    """Files that every round reads, written through the program."""
    workdir.mkdir(parents=True, exist_ok=True)
    doms, models = _domains(lib), lib.models
    order4 = [letters(4)[x] for x in fixed["order4"]]
    theta = tracer.call("models.theta_model", models.theta_model, doms[4], order4)
    f = {"ord4": _write(workdir / "ord4.json", {"global": order4})}
    for name, model in (("theta4", theta),
                        ("rational3", models.enumerate_rational(doms[3])),
                        ("rational4", models.enumerate_rational(doms[4])),
                        ("rational5", models.enumerate_rational(doms[5])),
                        ("rational6", models.enumerate_rational(doms[6]))):
        f[name] = _write(workdir / f"{name}.json",
                         tracer.call("cli.model_json", lib.cli.model_json, model))
    return f


def _round_files(lib, ins: dict, workdir: Path, tracer) -> dict:
    """The files of one round, written through the program."""
    workdir.mkdir(parents=True, exist_ok=True)
    core, models, rc, cli = lib.core, lib.models, lib.random_choice, lib.cli
    doms = _domains(lib)
    f = {}

    def model_file(name, model):
        f[name] = _write(workdir / f"{name}.json",
                         tracer.call("cli.model_json", cli.model_json, model))

    def rcf_file(name, n, rows):
        sets = ref.full_sets(n)
        rcf = rc.RandomChoiceFunction(
            doms[n], tuple(tuple(row[x] for x in s) for s, row in zip(sets, rows)))
        f[name] = _write(workdir / f"{name}.json", cli.rcf_json(rcf))

    order5 = [letters(5)[x] for x in ins["order5"]]
    f["ord5"] = _write(workdir / "ord5.json", {"global": order5})
    for n in (6, 7):
        f[f"ord{n}"] = _write(workdir / f"ord{n}.json", {
            "global": [letters(n)[x] for x in ins[f"order{n}"]]})
    f["ord6_per_set"] = _write(workdir / "ord6_per_set.json", {"per_set": [
        {"set": [letters(6)[x] for x in s], "rank": [letters(6)[x] for x in rk]}
        for s, rk in zip(ref.full_sets(6), ins["rankings6"])]})
    ordering4 = core.PrimitiveOrderings.from_global(
        doms[4], [letters(4)[x] for x in ins["order4"]])
    ordering5 = core.PrimitiveOrderings.from_global(doms[5], order5)
    # Generators in the compact string form, with the sets pinned.
    f["gens4"] = _write(workdir / "gens4.json", {
        "alternatives": list(letters(4)),
        "sets": [[letters(4)[x] for x in s] for s in ref.full_sets(4)],
        "functions": [_strings(p, 4) for p in sorted(ins["gens4"])]})
    gens5 = models.ChoiceModel.from_picks(doms[5], ins["gens5"])
    model_file("gens5", gens5)
    gens4 = models.ChoiceModel.from_picks(doms[4], ins["gens4"])
    model_file("closure4", tracer.call("models.lattice_closure",
                                       models.lattice_closure, gens4, ordering4))
    model_file("closure5", tracer.call("models.lattice_closure",
                                       models.lattice_closure, gens5, ordering5))
    model_file("chain5", models.ChoiceModel.from_picks(doms[5], ins["chain5"]))
    model_file("product5", models.ChoiceModel.from_picks(doms[5], ins["product5"]))
    rcf_file("rcf6", 6, ins["rcf6"])
    rcf_file("rcf7", 7, ins["rcf7"])
    rcf_file("rcf7_mixed", 7, ins["rcf7_mixed"])
    return f


def _fixed_files(workdir: Path, rational5: dict) -> dict:
    """Inputs that do not depend on the seed: Example 1, the small files of
    the warm-up, and malformed files.  Most malformed files are the rational
    model at n = 5 (120 functions) with one fault, or an orderings file that
    fails after that model has been loaded, so that an error case costs
    about as much as a passing one."""
    abc = ("a", "b", "c")
    five = list(letters(5))
    third = "1/3"
    example1 = {"alternatives": list(abc), "probs": [
        {"set": ["a", "b", "c"], "x": "a", "p": "1"},
        {"set": ["a", "b"], "x": "a", "p": "2/3"},
        {"set": ["a", "b"], "x": "b", "p": third},
        {"set": ["a", "c"], "x": "a", "p": "1"},
        {"set": ["b", "c"], "x": "b", "p": "2/3"},
        {"set": ["b", "c"], "x": "c", "p": third}]}
    # The uniform RCF at n = 7, with the last entry's mass off by a half.
    uniform7 = {"alternatives": list(letters(7)), "probs": [
        {"set": [letters(7)[x] for x in s], "x": letters(7)[x],
         "p": f"1/{len(s)}"} for s in ref.full_sets(7) for x in s]}
    uniform7["probs"][-1]["p"] = "1"
    bad_entry = json.loads(json.dumps(rational5))
    bad_entry["functions"].append(42)
    bad_pick = json.loads(json.dumps(rational5))
    last = json.loads(json.dumps(bad_pick["functions"][-1]))
    pair = last["picks"][-1]  # a pick outside its set
    pair["x"] = next(a for a in five if a not in pair["set"])
    bad_pick["functions"].append(last)
    per_set_gap = {"per_set": [
        {"set": [five[x] for x in s], "rank": [five[x] for x in s]}
        for s in ref.full_sets(5)[:-1]]}
    f = {"example1": _write(workdir / "example1.json", example1),
         "bad_mass7": _write(workdir / "bad_mass7.json", uniform7),
         "ord6_fixed": _write(workdir / "ord6_fixed.json",
                              {"global": list(letters(6))}),
         "ord7_fixed": _write(workdir / "ord7_fixed.json",
                              {"global": list(letters(7))}),
         "ord3": _write(workdir / "ord3.json", {"global": list(abc)}),
         "ord5_unknown": _write(workdir / "ord5_unknown.json",
                                {"global": five[:4] + ["z"]}),
         "ord5_partial": _write(workdir / "ord5_partial.json",
                                {"global": five[:4]}),
         "ord5_nokey": _write(workdir / "ord5_nokey.json", {"order": five}),
         "ord5_gap": _write(workdir / "ord5_gap.json", per_set_gap),
         "bad_entry5": _write(workdir / "bad_entry5.json", bad_entry),
         "bad_pick5": _write(workdir / "bad_pick5.json", bad_pick),
         "model3": _write(workdir / "model3.json", {
             "sets": [["a", "b", "c"], ["a", "b"], ["a", "c"], ["b", "c"]],
             "functions": ["aaab", "abab", "aaac", "abac"]})}
    not_json = workdir / "not_json.json"
    not_json.write_text("{\"global\": [", encoding="utf-8")
    f["not_json"] = str(not_json)
    return f


def _run_cli(lib, tracer, argv):
    """Exit code, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call(f"cli.main_{argv[0]}", lib.cli.main, argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Expected outputs that do not change between rounds, computed once.
@functools.cache
def _theta(n: int, order: tuple[int, ...]) -> frozenset:
    return ref.theta_filter(ref.full_sets(n), order)


@functools.cache
def _rational(n: int) -> frozenset:
    return ref.rational_model(ref.full_sets(n), n)


@functools.cache
def _rational_orders(n: int) -> frozenset:
    return ref.identify_brute(_rational(n), ref.full_sets(n), n)


def _cases(ins: dict, f: dict) -> list[tuple]:
    """(kind, argv, expected exit code, parser of stdout, check of parsed)."""
    r4 = ins["ranks4"]
    r6 = ref.global_ranks(ref.full_sets(6), ins["order6"])
    r7 = ref.global_ranks(ref.full_sets(7), ins["order7"])
    closure4, closure5 = ins["closure4"], ins["closure5"]
    o4 = ">".join(letters(4)[x] for x in ins["order4"])

    def decompose_check(n, rows, ranks):
        def check(comps):
            if sum(w for w, _ in comps) != 1 or any(w <= 0 for w, _ in comps):
                return "weights are not positive or do not sum to 1"
            if ref.compose(comps, ref.full_sets(n)) != rows:
                return "components do not compose back to the RCF"
            if not all(ref.dominates(p, q, ranks) for (_, p), (_, q)
                       in zip(comps, comps[1:])):
                return "components are not a strictly decreasing chain"
            return None
        return check

    def decompose_parse(n):
        return lambda out: [(Fraction(c["w"]), _parse_picks(c["c"], n))
                            for c in json.loads(out)]

    def check_parse(out):
        return json.loads(out)["pass"]

    def model_parse(n):
        return lambda out: _parse_model(json.loads(out), n)

    def equals(expected_fn, what):
        return lambda got: None if got == expected_fn() else f"{what} is wrong"

    def identify_parse(n):
        return lambda out: frozenset(
            tuple(letters(n).index(a) for a in o.split(">"))
            for o in json.loads(out)["orderings"])

    def hasse_parse(out):
        edges = set()
        for line in out.splitlines():
            if "->" in line:
                upper, lower = (part.strip(' ;"') for part in line.split("->"))
                edges.add((_parse_picks(upper, 4), _parse_picks(lower, 4)))
        return frozenset(edges)

    def random_check(got):
        sets6 = ref.full_sets(6)
        if len(got) != RANDOM_SIZE or any(len(p) != len(sets6) or any(
                x not in s for x, s in zip(p, sets6)) for p in got):
            return "generate --kind random did not give distinct functions of the domain"
        return None

    def answer(want):
        return lambda got: None if got is want else f"answered {got}, expected {want}"

    # Expected values the reference computes once, when a check needs them.
    lazy = functools.cache
    theta_closure5 = lazy(lambda: ref.theta_all(closure5, ref.full_sets(5),
                                                ins["order5"]))
    # The RCF is a mixture over theta (theta is a lattice, so its
    # progressive decomposition stays inside) iff the random axioms hold.
    mixed_ok = lazy(lambda: ref.theta_all(
        (p for _, p in ref.decompose_sweep(ins["rcf7_mixed"], r7)),
        ref.full_sets(7), ins["order7"]))
    found5 = lazy(lambda: ref.identify_brute(closure5, ref.full_sets(5), 5))
    theta4 = lazy(lambda: _theta(4, ins["order4"]))

    def verdict(ok):
        return lambda: PASS if ok() else FAIL

    def answer_of(ok):
        return lambda got: answer(ok())(got)

    return [
        ("decompose", ["decompose", f["rcf6"], f["ord6"]], PASS,
         decompose_parse(6), decompose_check(6, ins["rcf6"], r6)),
        ("decompose", ["decompose", f["rcf6"], f["ord6_per_set"]], PASS,
         decompose_parse(6),
         decompose_check(6, ins["rcf6"], ref.per_set_ranks(ins["rankings6"]))),
        ("check", ["check", f["closure4"], f["ord4"], "--lattice"], PASS,
         check_parse, answer(True)),
        ("check", ["check", f["rational5"], f["ord5"], "--lattice"], FAIL,
         check_parse, answer(False)),
        ("check", ["check", f["theta4"], f["ord4"], "--theta"], PASS,
         check_parse, answer(True)),
        # Rational choice satisfies the theta axioms under every order, and
        # the rational model is not a lattice.  The order is the same for
        # every seed, so that the cost of finding the failing pair is too.
        ("check", ["check", f["rational6"], f["ord6_fixed"], "--theta"], PASS,
         check_parse, answer(True)),
        ("check", ["check", f["rational6"], f["ord6_fixed"], "--lattice"], FAIL,
         check_parse, answer(False)),
        ("check", ["check", f["closure5"], f["ord5"], "--theta"],
         verdict(theta_closure5), check_parse, answer_of(theta_closure5)),
        ("check", ["check", f["chain5"], f["ord5"], "--chain"], PASS,
         check_parse, answer(True)),
        ("check", ["check", f["closure5"], f["ord5"], "--chain"], FAIL,
         check_parse, answer(False)),
        ("check", ["check", f["product5"], "--mixture"], PASS,
         check_parse, answer(True)),
        ("check", ["check", f["rational5"], "--mixture"], FAIL,
         check_parse, answer(False)),
        ("check", ["check", f["rcf7"], f["ord7"], "--rtheta"], PASS,
         check_parse, answer(True)),
        ("check", ["check", f["rcf7_mixed"], f["ord7"], "--rtheta"],
         verdict(mixed_ok), check_parse, answer_of(mixed_ok)),
        ("closure", ["closure", f["gens4"], f["ord4"]], PASS, model_parse(4),
         equals(lambda: closure4, "the closure")),
        ("closure", ["closure", f["gens5"], f["ord5"]], PASS, model_parse(5),
         equals(lambda: closure5, "the closure")),
        # The closure of the rational model is the theta model (Fig. 4).
        # At n = 3 this takes a few milliseconds; at n = 4 over a second.
        ("closure", ["closure", f["rational3"], f["ord3"], "--oracle"], PASS,
         model_parse(3), equals(lambda: _theta(3, (0, 1, 2)),
                                "the closure of the rational model")),
        ("identify", ["identify", f["theta4"]], PASS, identify_parse(4),
         equals(lambda: frozenset({ins["order4"], ins["order4"][::-1]}),
                "identify of theta")),
        ("identify", ["identify", f["rational5"]], PASS, identify_parse(5),
         equals(lambda: _rational_orders(5), "identify of the rational model")),
        ("identify", ["identify", f["closure5"]], verdict(found5),
         identify_parse(5), equals(found5, "identify of the closure")),
        ("hasse", ["hasse", f["closure4"], f["ord4"]], PASS, hasse_parse,
         equals(lambda: ref.cover_relation(closure4, r4), "the cover relation")),
        ("generate", ["generate", "--kind", "theta", "--alternatives", "a,b,c,d",
                      "--order", o4], PASS, model_parse(4),
         equals(theta4, "the generated theta model")),
        ("generate", ["generate", "--kind", "rational", "--alternatives",
                      "a,b,c,d,e,f"], PASS, model_parse(6),
         equals(lambda: _rational(6), "the generated rational model")),
    ] + [
        ("generate", ["generate", "--kind", "random", "--alternatives",
                      "a,b,c,d,e,f", "--seed", str(seed), "--size", str(RANDOM_SIZE)],
         PASS, model_parse(6), random_check)
        for seed in ins["random_seeds"]]


def _error_cases(fixed: dict) -> list[tuple]:
    """Malformed inputs and the exit code the CLI documents for each."""
    f = fixed
    return [
        ("schema", ["check", f["rational5"], f["not_json"], "--lattice"], SCHEMA),
        ("schema", ["check", f["bad_entry5"], f["ord5_unknown"], "--lattice"],
         SCHEMA),
        ("schema", ["check", f["rational5"], f["ord5_unknown"], "--lattice"], SCHEMA),
        ("schema", ["check", f["rational5"], f["ord5_nokey"], "--lattice"], SCHEMA),
        ("schema", ["check", f["rational5"], "--lattice"], SCHEMA),
        ("schema", ["hasse", f["rational5"], f["ord5_gap"]], SCHEMA),
        ("invariant", ["decompose", f["bad_mass7"], f["ord7_fixed"]], INVARIANT),
        ("invariant", ["check", f["bad_pick5"], f["ord5_partial"], "--chain"],
         INVARIANT),
        ("invariant", ["check", f["rational5"], f["ord5_partial"], "--lattice"],
         INVARIANT),
        # The known fault: raises TypeError today instead of exiting 2.
        ("schema", ["check", f["example1"], "--rtheta"], SCHEMA),
    ]


def _op(lib, tracer, slot, kind, argv, expected, parse=None, check=None) -> Op:
    """``expected`` is the exit code, or a function that computes it."""
    def canon(out):
        code, stdout, _ = out
        return code, (parse(stdout) if parse and code in (PASS, FAIL) else None)

    def verify(value) -> str | None:
        code, parsed = value
        want = expected() if callable(expected) else expected
        if code != want:
            return f"{argv[0]} exited {code}, expected {want}"
        return check(parsed) if check else None

    return Op(kind, slot, lambda: _run_cli(lib, tracer, argv), canon, verify)


def _round(state: dict, rnd) -> list[Op]:
    """One round's operations, on files new in every round."""
    lib, tracer = state["lib"], state["tracer"]
    ins = _round_inputs(state["seed"], rnd, state["fixed"])
    workdir = state["workdir"] / f"round{rnd}"
    files = dict(state["files"], **_round_files(lib, ins, workdir, tracer))
    cases = _cases(ins, files) + state["error_cases"]
    state["ins"] = ins
    return [_op(lib, tracer, (rnd, i), *case) for i, case in enumerate(cases)]


def setup(lib, seed: int, tracer, workdir: Path) -> dict:
    fixed = _setup_inputs(seed)
    files = _setup_files(lib, fixed, workdir, tracer)
    rational5 = json.loads(Path(files["rational5"]).read_text(encoding="utf-8"))
    files.update(_fixed_files(workdir, rational5))
    state = {"lib": lib, "tracer": tracer, "seed": seed, "fixed": fixed,
             "files": files, "workdir": workdir,
             "error_cases": _error_cases(files)}
    state["first"] = _round(state, 0)
    # Warm-up: each subcommand once on the small seed-free files.
    for argv in (["decompose", files["example1"], files["ord3"]],
                 ["check", files["model3"], files["ord3"], "--lattice"],
                 ["closure", files["model3"], files["ord3"]],
                 ["identify", files["model3"]],
                 ["hasse", files["model3"], files["ord3"]],
                 ["generate", "--kind", "theta", "--alternatives", "a,b,c"]):
        warm_up(_op(lib, tracer, None, argv[0], argv, PASS))
    return state


def ops_for_round(state: dict, index: int) -> list[Op]:
    if index == 0:
        return state["first"]
    shutil.rmtree(state["workdir"] / f"round{index - 1}", ignore_errors=True)
    return _round(state, index)


def core_triples(state: dict) -> list:
    lib, ins = state["lib"], state["ins"]
    dom = lib.core.ChoiceDomain.full(letters(4))
    ordering = lib.core.PrimitiveOrderings.from_global(
        dom, [letters(4)[x] for x in ins["order4"]])
    fns = [lib.core.ChoiceFunction(dom, p) for p in sorted(ins["closure4"])]
    return [(a, b, ordering) for a, b in zip(fns, fns[1:])]
