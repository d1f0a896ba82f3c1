"""End-to-end tests of the `ehres` command line interface."""

import functools
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ehresmann import cli
from ehresmann import coherence as co
from ehresmann import scheiblich as sch
from ehresmann import xtree


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- term parsing -------------------------------------------------------------

def test_parse_postfix_and_parens():
    node = cli.parse_term("a b^+ (a b)^*")
    assert node == (
        "mul",
        ("atom", "a"),
        ("plus", ("atom", "b")),
        ("star", ("mul", ("atom", "a"), ("atom", "b"))),
    )
    assert cli.parse_term("1") == ("one",)


def test_parse_rejects_garbage():
    for bad in ("(a", "a)", "", "^-1", "a +"):
        with pytest.raises(ValueError):
            cli.parse_term(bad)


def test_eval_in_tree_model():
    _, t = cli.eval_term("a^+ a", "fad")
    assert t == xtree.letter_tree("a")
    _, t = cli.eval_term("a a^+", "fad")
    assert len(t.edges) == 2


def test_flad_model_has_no_star_or_inverse():
    with pytest.raises(ValueError):
        cli.eval_term("a^*", "flad")
    with pytest.raises(ValueError):
        cli.eval_term("a^-1", "fad")


def test_eval_in_munn_models():
    _, p = cli.eval_term("x y^-1 x", "fi")
    assert p == sch.munn_from_word((("x", 1), ("y", -1), ("x", 1)))
    with pytest.raises(ValueError):
        cli.eval_term("x^-1", "fa")  # point is not positive
    _, q = cli.eval_term("x x^-1 y", "fa")
    assert q.point == (("y", 1),)
    with pytest.raises(ValueError):
        cli.eval_term("x^-1 x", "fla")  # the set keeps the negative vertex


def test_eval_sdp_and_qn():
    _, p = cli.eval_term("g h e", "sdp:Z")
    assert p.elems == frozenset({0}) and p.point == 0
    _, q = cli.eval_term("g g g", "qn:3")
    assert q.point == 3
    with pytest.raises(ValueError):
        cli.eval_term("x", "sdp:Z")


@pytest.mark.parametrize("model", ["qn:abc", "qn:-1", "qn:0", "qn:3_0", "qn: 3", "qn:3 ", "qn:"])
def test_qn_takes_only_a_decimal_n_of_at_least_1(capsys, model):
    for argv in (("eval", "g", "--model", model), ("check", "ghe", "--model", model),
                 ("check", "bgr", "--model", model)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: model qn:<n> needs a decimal n >= 1, got {model!r}\n"


def test_qn_reads_n_in_decimal():
    assert cli.eval_term("g", "qn:03")[0].name == "qn:3"
    assert cli.eval_term("g", "qn:12")[0].name == "qn:12"


@pytest.mark.parametrize("text", ["", "   ", "\t\n"])
def test_an_empty_term_is_named(capsys, text):
    assert run(capsys, "eval", text) == (1, "", "error: empty term\n")


def test_blanks_around_a_term_are_ignored():
    assert cli.parse_term("  a b^+\n") == cli.parse_term("a b^+")


def test_eval_command_output(capsys):
    code, out, _ = run(capsys, "eval", "x y^-1", "--model", "fi", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["point"] == "x y^-1"
    assert "1" in data["set"]


def test_dot_output(capsys):
    code, out, _ = run(capsys, "eval", "a b^+", "--model", "fad", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_eval_error_exit(capsys):
    code, _, err = run(capsys, "eval", "a^-1", "--model", "fad")
    assert code == 1
    assert "error" in err


# -- checks -------------------------------------------------------------------

def test_check_forbidden_config_pass(capsys):
    code, out, _ = run(capsys, "check", "forbidden-config", "--example", "freemonoid",
                       "--depth", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_check_forbidden_config_fail(capsys):
    code, out, _ = run(capsys, "check", "forbidden-config", "--a", "1", "--b", "1",
                       "--model", "fad", "--depth", "2")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert all({"condition", "witness"} == set(f) for f in data["failures"])


def test_check_bgr(capsys):
    assert run(capsys, "check", "bgr", "--depth", "3")[0] == 0
    assert run(capsys, "check", "bgr", "--model", "qn:3", "--depth", "3")[0] == 0


def test_check_ghe(capsys):
    assert run(capsys, "check", "ghe", "--model", "qn:3", "--depth", "3")[0] == 0
    assert run(capsys, "check", "ghe", "--model", "qn:1", "--depth", "2")[0] == 1


def test_check_triangle_and_lemma(capsys):
    assert run(capsys, "check", "triangle", "--depth", "2")[0] == 0
    assert run(capsys, "check", "lemma-m-n", "--depth", "2")[0] == 0


def test_check_annihilator(capsys):
    code, out, _ = run(capsys, "check", "annihilator", "--term", "a b^+")
    assert code == 0
    assert "1 pair" in out


def test_check_left_intersect_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "left-intersect", "--s", "a b", "--t", "b")
    assert code == 0
    assert "principal" in out
    code, out, _ = run(capsys, "check", "left-intersect", "--s", "a", "--t", "b")
    assert code == 0
    assert "empty" in out


def test_check_right_intersect(capsys, monkeypatch):
    searches = []
    search = co.right_ideal_intersection_FLAd
    monkeypatch.setattr(co, "right_ideal_intersection_FLAd",
                        lambda *a, **k: searches.append(a) or search(*a, **k))
    code, out, _ = run(capsys, "check", "right-intersect", "--s", "a", "--t", "a^+ a")
    assert code == 2  # the trunks a and a are comparable: the caps decide nothing
    assert "|Z|" in out and len(searches) == 1
    # a b and b a are prefix-incomparable: TM n SM is empty, with no search
    # (which, at the default cap of 8 edges, would exceed the enumeration budget)
    code, out, _ = run(capsys, "check", "right-intersect", "--s", "a b", "--t", "b a")
    assert code == 0 and len(searches) == 1
    assert json.loads(out)["notes"] == ["|Z| = 0 at edge cap 8"]


def test_check_mm_fi_iso(capsys):
    assert run(capsys, "check", "mm-fi-iso", "--bound", "2")[0] == 0


def test_check_theta_morphism(capsys):
    assert run(capsys, "check", "theta-morphism", "--bound", "1")[0] == 0
    assert run(capsys, "check", "theta-morphism",
               "--gamma", "a b^+", "--delta", "b a^+ a")[0] == 0


def test_theta_grid_computes_theta_once_per_c_word(capsys, monkeypatch):
    """--bound 2 has 18 distinct C-words: one theta for each, and one for
    each of the 18^2 products."""
    calls = []
    theta = cli.et.theta
    monkeypatch.setattr(cli.et, "theta", lambda c: calls.append(c) or theta(c))
    assert run(capsys, "check", "theta-morphism", "--bound", "2")[0] == 0
    assert len(calls) == 18 + 18 ** 2


@pytest.mark.parametrize("bound, translations", [(2, 7 * 18), (3, 930)])
def test_theta_grid_translates_once_per_trunk_and_d(capsys, monkeypatch, bound, translations):
    """d theta is translated once for each distinct trunk of a c: --bound 2
    has 18 C-words with 7 trunks; a translation per pair would be 18^2."""
    calls = []
    translate = cli.et.zx_translate
    monkeypatch.setattr(cli.et, "zx_translate", lambda g, a: calls.append(g) or translate(g, a))
    assert run(capsys, "check", "theta-morphism", "--bound", str(bound))[0] == 0
    assert len(calls) == translations


# -- depth and bound ----------------------------------------------------------

def test_zero_depth_and_bound_are_kept(capsys):
    code, out, _ = run(capsys, "check", "triangle", "--depth", "0")
    assert code == 0 and json.loads(out)["depth"] == 0
    code, out, _ = run(capsys, "check", "mm-fi-iso", "--bound", "0")
    assert code == 0 and json.loads(out)["depth"] == 0
    code, out, _ = run(capsys, "check", "right-intersect", "--s", "a", "--t", "a",
                       "--bound", "0")
    assert code == 2
    assert json.loads(out)["notes"][0] == "|Z| = 0 at edge cap 0"


@pytest.mark.parametrize("argv", [
    ("forbidden-config", "--depth", "-3"),
    ("bgr", "--depth", "-1"),
    ("triangle", "--depth", "-1"),
    ("lemma-m-n", "--depth", "-2"),
    ("right-intersect", "--bound", "-1"),
    ("mm-fi-iso", "--bound", "-1"),
    ("theta-morphism", "--bound", "-1"),
])
def test_negative_depth_or_bound_is_an_error(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "negative" in err


def test_registry_is_shared_with_the_parser(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    usage = capsys.readouterr().out
    assert all(name in usage for name in cli.CHECKS)
    report = cli.CHECKS["bgr"](model="qn:3", depth=2)
    assert report.verdict == "pass" and report.depth == 2


# -- options read off each check's signature -----------------------------------

def usage_exit(capsys, *argv):
    """(exit code, stdout, stderr) of a command line that argparse ends."""
    with pytest.raises(SystemExit) as ended:
        cli.main(list(argv))
    out = capsys.readouterr()
    return ended.value.code, out.out, out.err


def params(name):
    return list(inspect.signature(cli.CHECKS[name]).parameters)


ALL_OPTIONS = sorted({p for name in cli.CHECKS for p in params(name)})


@pytest.mark.parametrize("name", cli.CHECKS)
def test_check_help_lists_exactly_its_parameters(capsys, name):
    code, out, _ = usage_exit(capsys, "check", name, "--help")
    assert code == 0
    assert set(re.findall(r"--([a-z_]+)", out)) - {"help"} == set(params(name))
    # the check's docstring is its description; argparse re-wraps it
    doc = inspect.getdoc(cli.CHECKS[name])
    assert doc
    assert " ".join(doc.split()) in " ".join(out.split())


@pytest.mark.parametrize("name", cli.CHECKS)
def test_every_option_reaches_the_check(capsys, monkeypatch, name):
    seen = {}

    @functools.wraps(cli.CHECKS[name])  # so the parser reads the same signature
    def record(**kwargs):
        seen.update(kwargs)
        return co.ConfigReport("pass", 0, [], [])

    monkeypatch.setitem(cli.CHECKS, name, record)
    argv = [x for p in params(name) for x in ("--" + p, "7")]
    assert run(capsys, "check", name, *argv)[0] == 0
    want = {p: 7 if p in ("depth", "bound") else "7" for p in params(name)}
    assert seen == want


@pytest.mark.parametrize("name", cli.CHECKS)
def test_check_rejects_unknown_options_and_those_of_other_checks(capsys, name):
    # among them mm-fi-iso --depth, triangle --bound and right-intersect --depth
    for p in [p for p in ALL_OPTIONS if p not in params(name)] + ["foo"]:
        code, out, err = usage_exit(capsys, "check", name, "--" + p, "1")
        assert code == 1 and out == "", p
        assert err.startswith(f"usage: ehres check {name} "), p
        assert f"ehres check {name}: error: unrecognized arguments: --{p} 1" in err


@pytest.mark.parametrize("argv", [
    ("check", "nosuch"),
    ("check",),
    ("eval", "a", "--format", "nosuch"),
])
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = usage_exit(capsys, *argv)
    assert code == 1 and out == ""
    assert "error: " in err


@pytest.mark.parametrize("argv", [
    ("forbidden-config", "--example", "fi", "--a", "a"),
    ("forbidden-config", "--example", "mm", "--b", "b"),
    ("forbidden-config", "--model", "fad"),
    ("forbidden-config", "--example", "mm", "--model", "fi"),
    ("theta-morphism", "--bound", "1", "--gamma", "a"),
    ("theta-morphism", "--bound", "2", "--delta", "a^+"),
])
def test_options_a_check_would_ignore_are_an_error(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--" in err


# -- deep inputs ----------------------------------------------------------------

def test_deep_input_exits_with_an_error(capsys):
    # a product of 600 letters is one n-ary node, folded without recursion
    code, out, err = run(capsys, "eval", " ".join(["a"] * 600), "--model", "fad")
    assert code == 0 and err == ""
    assert json.loads(out) == xtree.word_tree(("a",) * 600).to_json()


def test_deeply_nested_input_evaluates(capsys):
    # parsing and evaluation keep explicit stacks
    a = xtree.letter_tree("a")
    for term, want in (
        ("(" * 600 + "a" + ")" * 600, a),
        ("a" + "^+" * 600, xtree.tree_plus(a)),
        ("a (" * 600 + "a" + ")" * 600, xtree.word_tree(("a",) * 601)),
    ):
        code, out, err = run(capsys, "eval", term, "--model", "fad")
        assert code == 0 and err == "", term[:20]
        assert json.loads(out) == want.to_json()
    nested = "a (" * 600 + "a^+" + ")" * 600
    assert cli.cx_from_term(nested) == cli.cx_from_term("a " * 600 + "a^+")


def test_stack_and_memory_exhaustion_exit_1(capsys, monkeypatch):
    for exc in (RecursionError, MemoryError):
        def fail(*args, exc=exc):
            raise exc("too deep")

        monkeypatch.setattr(cli, "eval_term", fail)
        code, out, err = run(capsys, "eval", "a", "--model", "fad")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "too deep" in err


def test_sz_text_output_does_not_depend_on_the_hash_seed():
    # a set of words prints sorted, so string hashing cannot reorder it
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run(
            [sys.executable, "-m", "ehresmann.cli", "eval", "x y^-1 x", "--model", "sz",
             "--format", "text"],
            env=env, capture_output=True, text=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("({")
