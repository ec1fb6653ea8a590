"""Golden tests of the command line: every subcommand and every exit code.

Each case runs twice in process.  Both runs must give the same exit code,
stderr and stdout bytes, and stdout must equal the output recorded for the
case in ``cli_golden.json``.  Inputs are written to a fresh directory, and
the commands name them by relative path, so error messages do not depend on
where the tests run.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from choicelattice import (
    ChoiceDomain,
    RandomChoiceFunction,
    cli,
    enumerate_rational,
    gen_random_model,
    theta_model,
)

from conftest import RATIONAL3, THETA3

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json")
                    .read_text(encoding="utf-8"))

SETS3 = (("a", "b", "c"), ("a", "b"), ("a", "c"), ("b", "c"))
PAIRS3 = SETS3[1:]


def _explicit(text, sets=SETS3):
    return {"picks": [{"set": list(s), "x": x} for s, x in zip(sets, text)]}


def _after_two(text, index, entry):
    """Two well-formed functions, then the function ``text`` with its entry
    at ``index`` replaced, so the fault meets a remembered set spelling."""
    picks = _explicit(text)["picks"]
    picks[index] = entry
    return {"functions": [_explicit("aaab"), _explicit("abab"), {"picks": picks}]}


def _respelt(texts):
    """Explicit functions in turn canonical, with their entries reversed, and
    with the members of each set reversed."""
    functions = [_explicit(t) for t in texts]
    for f in functions[1::3]:
        f["picks"].reverse()
    for f in functions[2::3]:
        f["picks"] = [{"set": e["set"][::-1], "x": e["x"]} for e in f["picks"]]
    return {"functions": functions}


def _rcf(table):
    return {"alternatives": ["a", "b", "c"],
            "probs": [{"set": list(s), "x": x, "p": p} for s, x, p in table]}


def _per_set(rankings):
    return {"per_set": [{"set": sorted(r), "rank": list(r)} for r in rankings]}


THIRD = "1/3"
INPUTS = {
    "ord.json": {"global": ["a", "b", "c"]},
    "per_set.json": _per_set(["bac", "ab", "ca", "bc"]),
    "ord_unknown.json": {"global": ["a", "b", "z"]},
    "ord_partial.json": {"global": ["a", "b"]},
    "ord_nokey.json": {"order": ["a", "b", "c"]},
    "ord_extra_set.json": _per_set(["ab", "ac", "bc", "abc"]),
    "not_json.json": '{"global": [',
    "theta.json": {"sets": [list(s) for s in SETS3],
                   "functions": sorted(THETA3)},
    "rational.json": {"sets": [list(s) for s in SETS3],
                      "functions": [list(t) for t in sorted(RATIONAL3)]},
    "example1.json": {"functions": [_explicit(t) for t in
                                    ("aaab", "abab", "aaac", "abac")]},
    "chain.json": {"sets": [list(s) for s in SETS3],
                   "functions": ["aaab", "abab", "abac"]},
    "betweenness_fail.json": {"sets": [list(s) for s in SETS3],
                              "functions": ["baab", "abab"]},
    "bad_pick.json": {"sets": [list(s) for s in SETS3],
                      "functions": ["aaab", "aaaa"]},
    "no_functions.json": {"sets": [list(s) for s in SETS3]},
    "pairs.json": {"functions": [_explicit(t, PAIRS3) for t in ("aab", "bac")]},
    "pairs_extra_set.json": {"functions": [
        _explicit("aab", PAIRS3),
        {"picks": _explicit("bac", PAIRS3)["picks"]
         + [{"set": ["a", "b", "c"], "x": "a"}]}]},
    # Example 1 of the paper: it breaks the random axioms under a > b > c.
    "rcf.json": _rcf([("abc", "a", "1"), ("ab", "a", "2/3"), ("ab", "b", THIRD),
                      ("ac", "a", "1"), ("bc", "b", "2/3"), ("bc", "c", THIRD)]),
    # The even mixture of aaab and bbcc, both in the theta model.
    "rcf_theta.json": _rcf([("abc", "a", "1/2"), ("abc", "b", "1/2"),
                            ("ab", "a", "1/2"), ("ab", "b", "1/2"),
                            ("ac", "a", "1/2"), ("ac", "c", "1/2"),
                            ("bc", "b", "1")]),
    "bad_mass.json": _rcf([("abc", "a", "1"), ("ab", "a", "1/2"),
                           ("ac", "a", "1"), ("bc", "b", "1")]),
    "bad_symbol.json": _rcf([("abc", "a", "1"), ("ab", "a", "1"),
                             ("ac", "z", "1"), ("bc", "b", "1")]),
    # The same (set, x) twice, the set spelt in both orders.
    "rcf_duplicate.json": _rcf([("ab", "a", "1/2"), ("ba", "a", "1/4"),
                                ("ab", "b", "3/4")]),
    "rcf_duplicate_reversed.json": _rcf([("ba", "a", "1/4"), ("ab", "a", "1/2"),
                                         ("ab", "b", "3/4")]),
    "per_set_short.json": {"per_set": [
        {"set": ["a", "b", "c"], "rank": ["b", "a", "c"]},
        {"set": ["a", "b"], "rank": ["a"]},
        {"set": ["a", "c"], "rank": ["c", "a"]},
        {"set": ["b", "c"], "rank": ["b", "c"]}]},
    # Wrong JSON types: a number where the schema has a list.
    "model_set_type.json": {"functions": [
        _explicit("aaab"), {"picks": [{"set": 3, "x": "a"}]}]},
    "model_first_set_type.json": {"functions": [
        {"picks": [{"set": 3, "x": "a"}]}]},
    "model_empty_function.json": {"functions": ["aaab", {"picks": []}]},
    "model_picks_type.json": {"functions": [_explicit("aaab"), {"picks": 3}]},
    "model_sets_type.json": {"sets": 3, "functions": ["aaab"]},
    "model_sets_empty.json": {"sets": [], "functions": ["a"]},
    "model_sets_member_type.json": {"sets": [["a", "b", "c"], 3],
                                    "functions": ["aa"]},
    "model_alternatives_type.json": {"alternatives": 3,
                                     "functions": [_explicit("aaab")]},
    "rcf_set_type.json": {"probs": [{"set": 3, "x": "a", "p": "1"}]},
    "ord_global_type.json": {"global": 3},
    "ord_per_set_type.json": {"per_set": 3},
    "ord_rank_type.json": {"per_set": [{"set": ["a", "b"], "rank": 3}]},
    # A set listed twice, the second time spelt in another order.
    "model_duplicate.json": {"functions": [
        _explicit("aaab"),
        {"picks": _explicit("abab")["picks"] + [{"set": ["b", "a"], "x": "a"}]}]},
    "model_first_duplicate.json": {"functions": [
        {"picks": _explicit("aaab")["picks"] + [{"set": ["c", "a"], "x": "c"}]}]},
    "model_sets_duplicate.json": {"sets": [list(s) for s in SETS3] + [["c", "b"]],
                                  "functions": ["aaabb"]},
    # A fault in a function after well-formed ones.
    "memo_set_string.json": _after_two("aaac", 1, {"set": "ab", "x": "a"}),
    "memo_missing_x.json": _after_two("aaac", 2, {"set": ["a", "c"]}),
    "memo_entry_type.json": _after_two("aaac", 3, ["b", "c"]),
    "memo_repeated_set.json": _after_two("aaac", 2, {"set": ["b", "a"], "x": "b"}),
    "memo_pick_outside.json": _after_two("aaac", 1, {"set": ["a", "b"], "x": "c"}),
    "memo_pick_unknown.json": _after_two("aaac", 3, {"set": ["b", "c"], "x": "z"}),
    # 1 == True in JSON-decoded lists, but the symbols "1" and "True" differ.
    "memo_true_spelling.json": {"functions": [
        {"picks": [{"set": [1, "b"], "x": "1"}]},
        {"picks": [{"set": [True, "b"], "x": "b"}]}]},
    "rational_explicit.json": {"functions": [_explicit(t)
                                             for t in sorted(RATIONAL3)]},
    "rational_respelt.json": _respelt(sorted(RATIONAL3)),
    # Sets with a repeated member or a single member.
    "model_repeated_member.json": {"functions": [
        {"picks": [{"set": ["a", "a", "b"], "x": "a"}]}]},
    "model_short_set.json": {"functions": [
        {"picks": [{"set": ["a", "b"], "x": "a"}, {"set": ["c"], "x": "c"}]}]},
    "rcf_repeated_member.json": _rcf([("aab", "a", "1")]),
    "rcf_short_set.json": _rcf([("ab", "a", "1"), ("c", "c", "1")]),
    "per_set_duplicate.json": {"per_set": _per_set(["bac", "ab", "ca", "bc"])[
        "per_set"] + [{"set": ["c", "a"], "rank": ["a", "c"]}]},
}

# name: (argv, exit code, stderr)
CASES = {
    "decompose": (["decompose", "rcf.json", "ord.json"], 0, ""),
    "decompose_per_set": (["decompose", "rcf.json", "per_set.json"], 0, ""),
    "check_lattice_pass": (["check", "example1.json", "ord.json", "--lattice"], 0, ""),
    "check_lattice_fail": (["check", "rational.json", "ord.json", "--lattice"], 1, ""),
    "check_theta_pass": (["check", "theta.json", "ord.json", "--theta"], 0, ""),
    "check_theta_fail": (["check", "example1.json", "ord.json", "--theta"], 1, ""),
    "check_rtheta_pass": (["check", "rcf_theta.json", "ord.json", "--rtheta"], 0, ""),
    "check_rtheta_fail": (["check", "rcf.json", "ord.json", "--rtheta"], 1, ""),
    "check_mixture_pass": (["check", "example1.json", "--mixture"], 0, ""),
    "check_mixture_fail": (["check", "rational.json", "--mixture"], 1, ""),
    "check_chain_pass": (["check", "chain.json", "ord.json", "--chain"], 0, ""),
    "check_chain_fail": (["check", "example1.json", "per_set.json", "--chain"], 1, ""),
    "check_pairs": (["check", "pairs.json", "--mixture"], 1, ""),
    "closure": (["closure", "example1.json", "per_set.json"], 0, ""),
    "closure_oracle": (["closure", "rational.json", "ord.json", "--oracle"], 0, ""),
    "closure_oracle_skipped": (
        ["closure", "example1.json", "ord.json", "--oracle"], 0,
        "oracle check skipped: input is not the rational model of a full "
        "domain with a global order\n"),
    "identify": (["identify", "theta.json"], 0, ""),
    "identify_none": (["identify", "betweenness_fail.json"], 1, ""),
    "hasse": (["hasse", "theta.json", "ord.json"], 0, ""),
    "generate_default": (["generate"], 0, ""),
    "generate_random": (["generate", "--kind", "random", "--alternatives",
                         "a,b,c,d", "--seed", "3", "--size", "5"], 0, ""),
    "generate_rational": (["generate", "--kind", "rational"], 0, ""),
    "generate_theta": (["generate", "--kind", "theta", "--order", "c>a>b"], 0, ""),
    "error_not_json": (
        ["check", "rational.json", "not_json.json", "--lattice"], 2,
        "error: not_json.json is not valid JSON: Expecting value: "
        "line 1 column 13 (char 12)\n"),
    "error_missing_file": (
        ["hasse", "missing.json", "ord.json"], 2,
        "error: cannot read missing.json: [Errno 2] No such file or "
        "directory: 'missing.json'\n"),
    "error_missing_key": (["identify", "no_functions.json"], 2,
                          "error: no_functions.json: missing key 'functions'\n"),
    "error_orderings_key": (
        ["check", "rational.json", "ord_nokey.json", "--lattice"], 2,
        "error: ord_nokey.json: orderings need a 'global' or 'per_set' key\n"),
    "error_unknown_alternative": (
        ["check", "rational.json", "ord_unknown.json", "--lattice"], 2,
        "error: unknown alternative 'z'\n"),
    "error_no_orderings": (["check", "rational.json", "--lattice"], 2,
                           "error: this check needs an orderings file\n"),
    "invariant_partial_order": (
        ["check", "rational.json", "ord_partial.json", "--lattice"], 3,
        "error: global order must rank every alternative exactly once\n"),
    "invariant_mass": (
        ["decompose", "bad_mass.json", "ord.json"], 3,
        "error: probabilities over ('a', 'b') sum to 1/2, not 1\n"),
    "invariant_pick": (
        ["check", "bad_pick.json", "ord.json", "--chain"], 3,
        "error: pick 'a' is not a member of choice set ('b', 'c')\n"),
    "invariant_rcf_symbol": (["decompose", "bad_symbol.json", "ord.json"], 3,
                             "error: 'z' is not a member of ('a', 'c')\n"),
    "invariant_model_repeated_member": (
        ["check", "model_repeated_member.json", "--mixture"], 3,
        "error: choice set ('a', 'a', 'b') has repeated members\n"),
    "invariant_model_short_set": (
        ["check", "model_short_set.json", "--mixture"], 3,
        "error: choice set ('c',) has fewer than two members\n"),
    "invariant_rcf_repeated_member": (
        ["decompose", "rcf_repeated_member.json", "ord.json"], 3,
        "error: choice set ('a', 'a', 'b') has repeated members\n"),
    "invariant_rcf_short_set": (
        ["decompose", "rcf_short_set.json", "ord.json"], 3,
        "error: choice set ('c',) has fewer than two members\n"),
    "invariant_short_ranking": (
        ["decompose", "rcf.json", "per_set_short.json"], 3,
        "error: ranking ('a',) is not a permutation of set ('a', 'b')\n"),
    "schema_rcf_duplicate": (
        ["decompose", "rcf_duplicate.json", "ord.json"], 2,
        "error: rcf_duplicate.json: set ('b', 'a') has a second entry "
        "for x = 'a'\n"),
    "schema_rcf_duplicate_reversed": (
        ["decompose", "rcf_duplicate_reversed.json", "ord.json"], 2,
        "error: rcf_duplicate_reversed.json: set ('a', 'b') has a second "
        "entry for x = 'a'\n"),
    "usage_rtheta_no_orderings": (["check", "rcf.json", "--rtheta"], 2,
                                  "error: this check needs an orderings file\n"),
    "usage_theta_per_set": (
        ["check", "theta.json", "per_set.json", "--theta"], 2,
        "error: --theta needs a global ordering, not per-set orderings\n"),
    "usage_rtheta_per_set": (
        ["check", "rcf_theta.json", "per_set.json", "--rtheta"], 2,
        "error: --rtheta needs a global ordering, not per-set orderings\n"),
    "schema_model_set_outside_domain": (
        ["check", "pairs_extra_set.json", "--mixture"], 2,
        "error: pairs_extra_set.json: ('a', 'b', 'c') is not a domain set\n"),
    "schema_orderings_set_outside_domain": (
        ["check", "pairs.json", "ord_extra_set.json", "--lattice"], 2,
        "error: ord_extra_set.json: ('a', 'b', 'c') is not a domain set\n"),
    "schema_model_set_type": (
        ["check", "model_set_type.json", "--mixture"], 2,
        "error: model_set_type.json: 'set' must be a list, not int\n"),
    "schema_model_first_set_type": (
        ["check", "model_first_set_type.json", "--mixture"], 2,
        "error: model_first_set_type.json: 'set' must be a list, not int\n"),
    "schema_model_empty_function": (
        ["check", "model_empty_function.json", "--mixture"], 2,
        "error: model_empty_function.json: function 1 has no picks\n"),
    "schema_model_picks_type": (
        ["check", "model_picks_type.json", "--mixture"], 2,
        "error: model_picks_type.json: 'picks' must be a list, not int\n"),
    "schema_model_sets_type": (
        ["identify", "model_sets_type.json"], 2,
        "error: model_sets_type.json: 'sets' must be a list, not int\n"),
    "schema_model_sets_empty": (
        ["check", "model_sets_empty.json", "--mixture"], 2,
        "error: model_sets_empty.json: 'sets' must be a nonempty list\n"),
    "schema_model_sets_member_type": (
        ["identify", "model_sets_member_type.json"], 2,
        "error: model_sets_member_type.json: 'sets[1]' must be a list, "
        "not int\n"),
    "schema_model_alternatives_type": (
        ["identify", "model_alternatives_type.json"], 2,
        "error: model_alternatives_type.json: 'alternatives' must be a list, "
        "not int\n"),
    "schema_rcf_set_type": (
        ["decompose", "rcf_set_type.json", "ord.json"], 2,
        "error: rcf_set_type.json: 'set' must be a list, not int\n"),
    "schema_orderings_global_type": (
        ["check", "rational.json", "ord_global_type.json", "--lattice"], 2,
        "error: ord_global_type.json: 'global' must be a list, not int\n"),
    "schema_orderings_per_set_type": (
        ["check", "rational.json", "ord_per_set_type.json", "--lattice"], 2,
        "error: ord_per_set_type.json: 'per_set' must be a list, not int\n"),
    "schema_orderings_rank_type": (
        ["check", "rational.json", "ord_rank_type.json", "--lattice"], 2,
        "error: ord_rank_type.json: 'rank' must be a list, not int\n"),
    "schema_model_duplicate": (
        ["check", "model_duplicate.json", "--mixture"], 2,
        "error: model_duplicate.json: a function has a second entry for set "
        "('b', 'a')\n"),
    "schema_model_first_duplicate": (
        ["check", "model_first_duplicate.json", "--mixture"], 2,
        "error: model_first_duplicate.json: a function has a second entry "
        "for set ('c', 'a')\n"),
    "schema_model_sets_duplicate": (
        ["check", "model_sets_duplicate.json", "--mixture"], 2,
        "error: model_sets_duplicate.json: 'sets' has a second entry for set "
        "('c', 'b')\n"),
    "schema_memo_set_string": (
        ["check", "memo_set_string.json", "--mixture"], 2,
        "error: memo_set_string.json: 'set' must be a list, not str\n"),
    "schema_memo_missing_x": (
        ["check", "memo_missing_x.json", "--mixture"], 2,
        "error: memo_missing_x.json: missing key 'x'\n"),
    "schema_memo_entry_type": (
        ["check", "memo_entry_type.json", "--mixture"], 2,
        "error: memo_entry_type.json: missing key 'set'\n"),
    "schema_memo_repeated_set": (
        ["check", "memo_repeated_set.json", "--mixture"], 2,
        "error: memo_repeated_set.json: a function has a second entry for set "
        "('b', 'a')\n"),
    "invariant_memo_pick_outside": (
        ["check", "memo_pick_outside.json", "--mixture"], 3,
        "error: pick 'c' is not a member of choice set ('a', 'b')\n"),
    "schema_memo_pick_unknown": (
        ["check", "memo_pick_unknown.json", "--mixture"], 2,
        "error: unknown alternative 'z'\n"),
    "schema_memo_true_spelling": (
        ["check", "memo_true_spelling.json", "--mixture"], 2,
        "error: memo_true_spelling.json: unknown alternative 'True'\n"),
    "check_mixture_respelt": (
        ["check", "rational_respelt.json", "--mixture"], 1, ""),
    "closure_respelt": (["closure", "rational_respelt.json", "ord.json"], 0, ""),
    "schema_per_set_duplicate": (
        ["check", "example1.json", "per_set_duplicate.json", "--lattice"], 2,
        "error: per_set_duplicate.json: per_set has a second entry for set "
        "('c', 'a')\n"),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, content in INPUTS.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(workdir, capsys, name):
    argv, code, stderr = CASES[name]
    first = _run(capsys, argv)
    assert first == (code, GOLDEN[name], stderr)
    assert _run(capsys, argv) == first


def test_usage_error_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "theta.json", "ord.json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "choicelattice check: error: one of the arguments --lattice --theta "
        "--rtheta --mixture --chain is required")


def test_closure_guard_exits_3(workdir, capsys):
    # the closure of the rational model at n = 5 is theta, 1,035,642 members
    code, out, _ = _run(capsys, ["generate", "--kind", "rational",
                                 "--alternatives", "a,b,c,d,e"])
    assert code == 0
    (workdir / "rational5.json").write_text(out, encoding="utf-8")
    (workdir / "ord5.json").write_text(json.dumps({"global": list("abcde")}),
                                       encoding="utf-8")
    code, out, err = _run(capsys, ["closure", "rational5.json", "ord5.json"])
    assert (code, out) == (3, "")
    assert err.startswith("error: lattice_closure: ")
    assert err.endswith(" members exceed the guard of 20,000\n")


UNREADABLE = {
    "not_utf8": (b"\xff\xfe{}", "is not UTF-8 text: 'utf-8' codec can't decode "
                 "byte 0xff in position 0: invalid start byte"),
    "deep": (b"[" * 200_000 + b"]" * 200_000,
             "nests its JSON too deeply to read"),
    "long_int": (b'{"functions": [' + b"1" * 5_000 + b"]}",
                 f"holds an integer of more than "
                 f"{sys.get_int_max_str_digits()} digits"),
}


@pytest.mark.parametrize("argv", [
    ["check", "bad.json", "ord.json", "--lattice"],
    ["check", "theta.json", "bad.json", "--lattice"],
    ["decompose", "bad.json", "ord.json"],
], ids=["model", "orderings", "rcf"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_json_exits_2(workdir, capsys, kind, argv):
    content, message = UNREADABLE[kind]
    (workdir / "bad.json").write_bytes(content)
    assert _run(capsys, argv) == (2, "", f"error: bad.json {message}\n")


def _rcf_ab(p):
    """Example 1 of the paper with its mass on a from {a, b} spelt ``p``."""
    rest = str(1 - Fraction(str(p)))
    return _rcf([("abc", "a", "1"), ("ab", "a", p), ("ab", "b", rest),
                 ("ac", "a", "1"), ("bc", "b", "2/3"), ("bc", "c", THIRD)])


@pytest.mark.parametrize("p", ["3/4", "0.5", "1e-3", 1e-07])
def test_rcf_rational_spellings_are_read(workdir, p):
    (workdir / "p.json").write_text(json.dumps(_rcf_ab(p)), encoding="utf-8")
    (workdir / "q.json").write_text(json.dumps(_rcf_ab(str(Fraction(str(p))))),
                                    encoding="utf-8")
    assert cli.load_rcf("p.json") == cli.load_rcf("q.json")


@pytest.mark.parametrize("p", ["1e-999999999", "1E+999999999"])
def test_huge_exponent_is_refused_before_fraction(workdir, capsys, p):
    # Fraction would build 10 ** 999999999 first, for far longer than a test
    (workdir / "p.json").write_text(json.dumps(_rcf([("ab", "a", p)])),
                                    encoding="utf-8")
    exponent = int(p.lower().partition("e")[2])
    assert _run(capsys, ["decompose", "p.json", "ord.json"]) == (
        2, "", f"error: p.json: bad rational {p!r} (exponent {exponent} is "
               f"past the limit of {sys.get_int_max_str_digits()})\n")


@pytest.mark.parametrize("kind, message", [
    ("rational", "rational enumeration is guarded at n <= 6"),
    ("theta", "theta_model is guarded at n <= 4: the model has over a million "
              "members at n = 5"),
], ids=["rational", "theta"])
def test_generate_refuses_n_before_building_the_domain(capsys, monkeypatch,
                                                       kind, message):
    full = ChoiceDomain.full.__func__

    def small_only(cls, alternatives):
        alternatives = list(alternatives)
        assert len(alternatives) < 20, "the 2^n-set domain was built"
        return full(cls, alternatives)

    monkeypatch.setattr(ChoiceDomain, "full", classmethod(small_only))
    argv = ["generate", "--kind", kind,
            "--alternatives", ",".join("abcdefghijklmnopqrst")]
    assert _run(capsys, argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--size", "0"], "size must be between 1 and 24"),
    (["--alternatives", "a,a"], "duplicate symbols in ('a', 'a')"),
    (["--alternatives", ""], "domain needs at least one alternative"),
    (["--kind", "theta", "--alternatives", "a,b,c", "--order", "a>b"],
     "global order must rank every alternative exactly once"),
], ids=["size", "repeated", "empty", "order"])
def test_generate_argument_errors_exit_2(capsys, argv, message):
    # a usage error, like the --size x that argparse refuses; the message
    # line is all of stderr, so no traceback is printed
    assert _run(capsys, ["generate", *argv]) == (2, "", f"error: {message}\n")


LOADER_FAULTS = {
    "function_misses_set": (
        {"functions": [_explicit("aaab"),
                       {"picks": _explicit("abab")["picks"][:3]}]},
        ["check", "bad.json", "--mixture"], "a function misses some choice set"),
    "functions_empty": (
        {"sets": [list(s) for s in SETS3], "functions": []},
        ["check", "bad.json", "--mixture"], "'functions' must be a nonempty list"),
    "compact_without_sets": (
        {"functions": ["aaab"]}, ["check", "bad.json", "--mixture"],
        "compact functions need a top-level 'sets' key"),
    "function_entry_number": (
        {"sets": [list(s) for s in SETS3], "functions": [5]},
        ["check", "bad.json", "--mixture"], "unrecognized function entry 5"),
    "probs_empty": (
        {"probs": []}, ["decompose", "bad.json", "ord.json"],
        "'probs' must be a nonempty list"),
    "per_set_misses_set": (
        _per_set(["bac", "ab", "ca"]),
        ["check", "theta.json", "bad.json", "--lattice"],
        "per-set orderings miss some choice set"),
}


@pytest.mark.parametrize("kind", sorted(LOADER_FAULTS))
def test_loader_faults_exit_2(workdir, capsys, kind):
    # the message line names the file and is all of stderr: no traceback
    content, argv, message = LOADER_FAULTS[kind]
    (workdir / "bad.json").write_text(json.dumps(content), encoding="utf-8")
    assert _run(capsys, argv) == (2, "", f"error: bad.json: {message}\n")


def test_alternatives_missing_a_set_member_exit_2(workdir, capsys):
    (workdir / "bad.json").write_text(json.dumps(
        {"alternatives": ["a", "b"], "sets": [["a", "b", "c"]],
         "functions": ["a"]}), encoding="utf-8")
    assert _run(capsys, ["check", "bad.json", "--mixture"]) == (
        2, "", "error: unknown alternative 'c'\n")


def test_respelt_functions_load_to_the_canonical_model(workdir):
    canonical = cli.load_model("rational_explicit.json")
    assert cli.load_model("rational_respelt.json") == canonical
    assert GOLDEN["check_mixture_respelt"] == GOLDEN["check_mixture_fail"]


def _random_rcf(rng, domain):
    """Random rows over each set, every other row with a zero entry."""
    rows = []
    for si, s in enumerate(domain.sets):
        weights = [rng.randrange(4) for _ in s]
        first = rng.randrange(len(s))
        weights[first] += 1
        if si % 2:
            weights[first - 1] = 0
        rows.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return RandomChoiceFunction(domain, tuple(rows))


def _written_models():
    for n in (3, 4, 5, 6):
        domain = ChoiceDomain.full("abcdef"[:n])
        yield gen_random_model(n, domain, 20)
        yield enumerate_rational(domain)
        if n <= 4:
            yield theta_model(domain, domain.alternatives[::-1])
    domain = ChoiceDomain.full(["ab", "c", "d1", 'q"', "é"])
    yield gen_random_model(5, domain, 40)
    yield enumerate_rational(domain)


def test_model_text_round_trip(tmp_path, monkeypatch):
    resolved = []
    entry_order = cli._entry_order

    def counted(entries, *rest):
        resolved.append(entries)
        return entry_order(entries, *rest)

    monkeypatch.setattr(cli, "_entry_order", counted)
    for model in _written_models():
        text = cli._model_text(model)
        assert text == cli._dumps(cli.model_json(model))
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        resolved.clear()
        assert cli.load_model(path) == model
        # every function spells its sets as the first one does
        assert len(resolved) == 1


def test_rcf_json_round_trip(tmp_path):
    rng = random.Random(10)
    for n in range(3, 8):
        domain = ChoiceDomain.full("abcdefg"[:n])
        for _ in range(3):
            rcf = _random_rcf(rng, domain)
            path = tmp_path / "rcf.json"
            path.write_text(cli._dumps(cli.rcf_json(rcf)), encoding="utf-8")
            assert cli.load_rcf(path) == rcf
