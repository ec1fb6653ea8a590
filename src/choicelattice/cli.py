"""Command-line front end and JSON file formats.

Schemas (all JSON, UTF-8):
  orderings  {"global": [best, ..., worst]}
             or {"per_set": [{"set": [...], "rank": [...]}, ...]}
  model      {"functions": [{"picks": [{"set": [...], "x": "..."}, ...]}, ...]}
             functions may also be compact strings ("aaab") or symbol lists,
             both keyed to the canonical set order (a top-level "sets" key
             pins that order when no function spells its sets out)
  rcf        {"probs": [{"set": [...], "x": "...", "p": "p/q"}, ...]}
             model and rcf files may pin the symbols with "alternatives"

Every value shown as [...] must be a JSON list.  A model's "sets", a
function, a per-set orderings file, and an rcf file (for each x) may list
a set only once, whatever the order its members are written in.

Model files skip per-entry work where they can.  On load, a function
whose "picks" spell their sets exactly as the last function checked entry
by entry did is found by one list comparison and reuses that function's
set positions; only spellings whose members are all JSON strings are
remembered (see ``load_model``).  ``closure`` and ``generate`` encode each
(set, pick) entry once and join every function from the text of its
entries.

Exit codes: 0 pass, 1 semantic fail, 2 usage, parse or schema error
(a wrong JSON type or a set listed twice included), 3 invariant violation
in the input data.  All output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .core import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    DomainMismatchError,
    PrimitiveOrderings,
)
from .models import (
    ChoiceModel,
    _guard_rational,
    _guard_theta,
    _is_rational_model,
    enumerate_rational,
    gen_random_model,
    is_chain,
    is_lattice,
    is_mixture_closed,
    lattice_closure,
    satisfies_theta,
    theta_model,
)
from .random_choice import RandomChoiceFunction, decompose_progressive, satisfies_rtheta
from .identify import identify_primitive

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3


class SchemaError(Exception):
    """Malformed input file (shape, keys, or unparsable values)."""


def _read_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{path} nests its JSON too deeply to read") from None
    except ValueError:  # an integer past the digit limit of int()
        raise SchemaError(f"{path} holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


def _need(obj: Any, key: str, path) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{path}: missing key {key!r}")
    return obj[key]


def _list(value: Any, key: str, path) -> list:
    """A value that the schema spells as a JSON list, found under ``key``."""
    if not isinstance(value, list):
        raise SchemaError(f"{path}: {key!r} must be a list, "
                          f"not {type(value).__name__}")
    return value


def _symbols(value: Any, key: str, path) -> tuple[str, ...]:
    """A list of symbols, each as a string."""
    return tuple(map(str, _list(value, key, path)))


def _second_entry(path, members: Sequence[str], where: str) -> SchemaError:
    return SchemaError(f"{path}: {where} has a second entry for set {members!r}")


def _parse_fraction(text: Any, path) -> Fraction:
    spelt = str(text)
    try:
        if "e" in spelt.lower():  # Fraction would build 10 ** exponent
            exponent = int(spelt.lower().rpartition("e")[2])
            limit = sys.get_int_max_str_digits()
            if 0 < limit < abs(exponent):
                raise ValueError(f"exponent {exponent} is past the limit of {limit}")
        return Fraction(spelt)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{path}: bad rational {text!r} ({exc})") from None


def _infer_domain(sets: list[tuple[str, ...]], data: dict, path) -> ChoiceDomain:
    alternatives = data.get("alternatives")
    if alternatives is None:
        alternatives = sorted({a for s in sets for a in s})
    else:
        alternatives = _symbols(alternatives, "alternatives", path)
    return ChoiceDomain.from_symbols(alternatives, sets)


def _position(domain: ChoiceDomain, members: Sequence[str], path) -> int:
    try:
        return domain.position(members)
    except DomainMismatchError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _entry_order(entries: list, domain: ChoiceDomain,
                 positions: dict[tuple[str, ...], int], path) -> list[int]:
    """Per set position, the index of the function entry that names it.

    Entries are checked one by one; ``positions`` memoises each distinct
    spelling of a set once per file.
    """
    at = {}
    for i, entry in enumerate(entries):
        members = _symbols(_need(entry, "set", path), "set", path)
        pos = positions.get(members)
        if pos is None:
            pos = positions[members] = _position(domain, members, path)
        if pos in at:
            raise _second_entry(path, members, "a function")
        _need(entry, "x", path)
        at[pos] = i
    try:
        return [at[si] for si in range(len(domain.sets))]
    except KeyError:
        raise SchemaError(f"{path}: a function misses some choice set") from None


def load_model(path: str | Path) -> ChoiceModel:
    """Read a model file.

    A function given as a dict is resolved entry by entry, unless its
    ``"picks"`` spell their sets exactly as the last function so resolved
    did: the same JSON lists in the same order, found by one list
    comparison.  Such a function reuses that function's set positions, and
    only its picks are checked.  A spelling is remembered only when every
    member of every set is a JSON string, since ``==`` takes ``1``, ``1.0``
    and ``true`` for one another where ``str`` does not.
    """
    data = _read_json(path)
    raw = _need(data, "functions", path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}: 'functions' must be a nonempty list")
    first = next((i for i, f in enumerate(raw) if isinstance(f, dict)), None)
    if "sets" in data:
        where = "'sets'"
        sets = [_symbols(s, f"sets[{i}]", path)
                for i, s in enumerate(_list(data["sets"], "sets", path))]
        if not sets:
            raise SchemaError(f"{path}: 'sets' must be a nonempty list")
    elif first is not None:
        where = "a function"
        sets = [_symbols(_need(entry, "set", path), "set", path)
                for entry in _list(_need(raw[first], "picks", path), "picks", path)]
        if not sets:
            raise SchemaError(f"{path}: function {first} has no picks")
    else:
        raise SchemaError(f"{path}: compact functions need a top-level 'sets' key")
    seen = set()
    for members in sets:
        if frozenset(members) in seen:
            raise _second_entry(path, members, where)
        seen.add(frozenset(members))
    domain = _infer_domain(sets, data, path)
    positions: dict[tuple[str, ...], int] = {}
    # the set spellings of the last function resolved entry by entry, and
    # its entry index per set position
    spelling, order = None, None
    functions = []
    for f in raw:
        if isinstance(f, str):
            functions.append(ChoiceFunction.from_string(domain, f))
        elif isinstance(f, list):
            functions.append(ChoiceFunction.from_symbols(domain, [str(x) for x in f]))
        elif isinstance(f, dict):
            entries = _list(_need(f, "picks", path), "picks", path)
            try:
                spelt = [e["set"] for e in entries]
                xs = [e["x"] for e in entries]
            except (TypeError, KeyError):
                spelt = None
            if spelt is None or spelt != spelling:
                # raises unless every entry is a dict with "set" and "x"
                order = _entry_order(entries, domain, positions, path)
                spelling = spelt if all(
                    type(m) is str for s in spelt for m in s) else None
            functions.append(ChoiceFunction.from_symbols(
                domain, [xs[i] for i in order]))
        else:
            raise SchemaError(f"{path}: unrecognized function entry {f!r}")
    return ChoiceModel.from_functions(functions)


def load_rcf(path: str | Path) -> RandomChoiceFunction:
    data = _read_json(path)
    raw = _need(data, "probs", path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}: 'probs' must be a nonempty list")
    table = {}
    seen = set()
    for entry in raw:
        members = _symbols(_need(entry, "set", path), "set", path)
        symbol = str(_need(entry, "x", path))
        key = (frozenset(members), symbol)
        if key in seen:
            raise SchemaError(f"{path}: set {members!r} has a second entry "
                              f"for x = {symbol!r}")
        seen.add(key)
        table[members, symbol] = _parse_fraction(_need(entry, "p", path), path)
    sets = sorted({tuple(sorted(m)) for m, _ in table})
    domain = _infer_domain(sets, data, path)
    return RandomChoiceFunction.from_table(domain, table)


def load_orderings(path: str | Path, domain: ChoiceDomain) -> PrimitiveOrderings:
    data = _read_json(path)
    if isinstance(data, dict) and "global" in data:
        return PrimitiveOrderings.from_global(
            domain, _symbols(data["global"], "global", path))
    if isinstance(data, dict) and "per_set" in data:
        by_set = {}
        for entry in _list(data["per_set"], "per_set", path):
            members = _symbols(_need(entry, "set", path), "set", path)
            pos = _position(domain, members, path)
            if pos in by_set:
                raise _second_entry(path, members, "per_set")
            by_set[pos] = _symbols(_need(entry, "rank", path), "rank", path)
        try:
            rankings = [by_set[si] for si in range(len(domain.sets))]
        except KeyError:
            raise SchemaError(f"{path}: per-set orderings miss some choice set") from None
        return PrimitiveOrderings.from_per_set(domain, rankings)
    raise SchemaError(f"{path}: orderings need a 'global' or 'per_set' key")


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _dumps(obj: Any) -> str:
    return _encode(obj) + "\n"


def func_repr(c: ChoiceFunction) -> Any:
    if all(len(a) == 1 for a in c.domain.alternatives):
        return c.to_string()
    return list(c.symbols())


def _model_table(model: ChoiceModel) -> tuple[dict, list[dict[int, dict]]]:
    """The model file of a model with no functions yet, and its entries.

    ``entries[si][x]`` is the (set, pick) entry of a function that picks x
    at set position si.  Each set's symbol list is built once and every
    entry of that set shares it.
    """
    dom = model.domain
    sets = [list(dom.set_symbols(i)) for i in range(len(dom.sets))]
    entries = [{x: {"set": symbols, "x": dom.alternatives[x]} for x in s}
               for s, symbols in zip(dom.sets, sets)]
    return {"alternatives": list(dom.alternatives), "sets": sets,
            "functions": []}, entries


def model_json(model: ChoiceModel) -> dict:
    """The model file of a model.

    Every function that makes a pick at a set shares that pick's entry.
    """
    data, entries = _model_table(model)
    data["functions"] = [{"picks": [row[x] for row, x in zip(entries, c.picks)]}
                         for c in model.functions]
    return data


def _model_text(model: ChoiceModel) -> str:
    """``_dumps(model_json(model))``, with each (set, pick) entry encoded
    once and each function joined from the text of its entries."""
    data, entries = _model_table(model)
    texts = [{x: _encode(entry) for x, entry in row.items()} for row in entries]
    head = _encode(data)[:-2]  # open the empty "functions" list, the last key
    functions = ",".join(
        '{"picks":[' + ",".join(map(dict.__getitem__, texts, c.picks)) + "]}"
        for c in model.functions)
    return head + functions + "]}\n"


def rcf_json(rcf: RandomChoiceFunction) -> dict:
    dom = rcf.domain
    probs = []
    for si, s in enumerate(dom.sets):
        symbols = list(dom.set_symbols(si))
        for pos, x in enumerate(s):
            p = rcf.probs[si][pos]
            if p != 0:
                probs.append({"set": symbols,
                              "x": dom.alternatives[x], "p": str(p)})
    return {"alternatives": list(dom.alternatives), "probs": probs}


def cmd_decompose(args) -> int:
    rcf = load_rcf(args.rcf)
    ordering = load_orderings(args.orderings, rcf.domain)
    rep = decompose_progressive(rcf, ordering)
    out = [{"w": str(w), "c": func_repr(c)} for w, c in rep.components]
    sys.stdout.write(_dumps(out))
    return EXIT_PASS


def cmd_check(args) -> int:
    load = load_rcf if args.check == "rtheta" else load_model
    data = load(args.model)
    if args.check != "mixture":
        if args.orderings is None:
            raise SchemaError("this check needs an orderings file")
        ordering = load_orderings(args.orderings, data.domain)
        if args.check in ("theta", "rtheta") and ordering.global_order is None:
            raise SchemaError(f"--{args.check} needs a global ordering, "
                              "not per-set orderings")
    if args.check == "lattice":
        ok, w = is_lattice(data, ordering)
        witness = None if ok else {"left": func_repr(w.left),
                                   "right": func_repr(w.right),
                                   "kind": w.kind,
                                   "escapee": func_repr(w.escapee)}
    elif args.check == "chain":
        ok, w = is_chain(data, ordering)
        witness = None if ok else {"left": func_repr(w[0]),
                                   "right": func_repr(w[1])}
    elif args.check == "mixture":
        ok, w = is_mixture_closed(data)
        witness = None if ok else {"left": func_repr(w.left),
                                   "right": func_repr(w.right),
                                   "escapee": func_repr(w.escapee)}
    elif args.check == "rtheta":
        ok, w = satisfies_rtheta(data, ordering.global_symbols())
        witness = None if ok else {"set": list(w.set_symbols),
                                   "removed": w.removed,
                                   "fixed": w.fixed,
                                   "axiom": w.axiom}
    else:
        ok, witness = True, None
        order = ordering.global_symbols()
        for c in data.functions:
            ok, w = satisfies_theta(c, order)
            if not ok:
                witness = {"function": func_repr(c),
                           "set": list(w.set_symbols),
                           "removed": w.removed,
                           "chosen": w.chosen,
                           "after": w.chosen_after,
                           "axiom": w.axiom}
                break
    sys.stdout.write(_dumps({"check": args.check, "pass": ok, "witness": witness}))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_closure(args) -> int:
    model = load_model(args.model)
    ordering = load_orderings(args.orderings, model.domain)
    closed = lattice_closure(model, ordering)
    if args.oracle:
        if ordering.global_order is not None and _is_rational_model(model):
            expected = theta_model(model.domain, ordering.global_symbols())
            if closed.picks_set() != expected.picks_set():
                sys.stderr.write("oracle mismatch: closure of the rational "
                                 "model differs from the axiom filter\n")
                return EXIT_FAIL
        else:
            sys.stderr.write("oracle check skipped: input is not the rational "
                             "model of a full domain with a global order\n")
    sys.stdout.write(_model_text(closed))
    return EXIT_PASS


def cmd_identify(args) -> int:
    model = load_model(args.model)
    orders, report = identify_primitive(model)
    out = {
        "orderings": [">".join(o) for o in orders],
        "axioms": {"B1": report.b1, "sB1": report.sb1,
                   "B2": report.b2, "B3": report.b3},
    }
    sys.stdout.write(_dumps(out))
    return EXIT_PASS if orders else EXIT_FAIL


def cmd_hasse(args) -> int:
    model = load_model(args.model)
    ordering = load_orderings(args.orderings, model.domain)
    fns = model.functions
    packed = ordering.packed
    values = [packed.pack(c.picks) for c in fns]
    better = packed.weakly_better
    # members are distinct, so weakly better is strictly dominating here
    below = [{j for j, b in enumerate(values) if j != i and better(a, b)}
             for i, a in enumerate(values)]
    lines = ["digraph choicemodel {"]
    names = [json.dumps(str(func_repr(c))) for c in fns]
    for name in names:
        lines.append(f"  {name};")
    for i, dominated in enumerate(below):
        # a cover is dominated by no other member that i dominates
        indirect = set().union(*(below[j] for j in dominated))
        for j in sorted(dominated - indirect):
            lines.append(f"  {names[i]} -> {names[j]};")
    sys.stdout.write("\n".join(lines) + "\n}\n")
    return EXIT_PASS


def cmd_generate(args) -> int:
    alternatives = [a for a in args.alternatives.split(",") if a]
    # the guards read n alone: refuse it before building 2^n sets
    if args.kind == "rational":
        _guard_rational(len(alternatives))
    elif args.kind == "theta":
        _guard_theta(len(alternatives))
    # past the guards, a ChoiceError names a bad --alternatives, --size or
    # --order: a usage error
    try:
        domain = ChoiceDomain.full(alternatives)
        if args.kind == "random":
            model = gen_random_model(args.seed, domain, args.size)
        elif args.kind == "rational":
            model = enumerate_rational(domain)
        else:  # theta
            order = (args.order.split(">") if args.order else list(alternatives))
            model = theta_model(domain, order)
    except ChoiceError as exc:
        raise SchemaError(str(exc)) from None
    sys.stdout.write(_model_text(model))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choicelattice",
        description="Progressive decomposition and lattice analysis of "
                    "random choice models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="progressive representation of an RCF")
    p.add_argument("rcf")
    p.add_argument("orderings")
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("check", help="verify a model or RCF property")
    p.add_argument("model", help="model file (RCF file for --rtheta)")
    p.add_argument("orderings", nargs="?", default=None)
    group = p.add_mutually_exclusive_group(required=True)
    for name in ("lattice", "theta", "rtheta", "mixture", "chain"):
        group.add_argument(f"--{name}", dest="check", action="store_const",
                           const=name)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("closure", help="smallest join/meet-closed superset")
    p.add_argument("model")
    p.add_argument("orderings")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the axiom filter when the input "
                        "is the rational model")
    p.set_defaults(run=cmd_closure)

    p = sub.add_parser("identify", help="recover compatible primitive orderings")
    p.add_argument("model")
    p.set_defaults(run=cmd_identify)

    p = sub.add_parser("hasse", help="DOT diagram of the comparison relation")
    p.add_argument("model")
    p.add_argument("orderings")
    p.set_defaults(run=cmd_hasse)

    p = sub.add_parser("generate", help="emit a generated model as JSON")
    p.add_argument("--kind", choices=("random", "rational", "theta"),
                   default="random")
    p.add_argument("--alternatives", default="a,b,c")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--order", default=None,
                   help="global order for --kind theta, e.g. 'a>b>c'")
    p.set_defaults(run=cmd_generate)
    return parser


_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (SchemaError, DomainMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SCHEMA
    except ChoiceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
