"""The one adapter over every model: idempotent test, powers and term
evaluation against the left-fold oracle."""

import random
import re

import pytest

import eval_oracle
from ehresmann import cli, xtree
from ehresmann.structures import get_structure

MODELS = ("fad", "flad", "fi", "fa", "fla", "sdp:Z", "sdp:F", "mm", "sz", "qn:3")
LETTERS = {"fad": "ab", "flad": "ab", "sdp:Z": "ghe", "qn:3": "ghe"}


def elements(s, letters):
    """A few products of generators and their +/* images, where defined."""
    gens = [s.atom(x) for x in letters]
    out = [s.one, *gens, s.mul(gens[0], gens[1]), s.power(gens[0], 3)]
    for op in (s.plus, s.star):
        try:
            out += [op(x) for x in list(out)]
        except ValueError:
            pass
    return out


@pytest.mark.parametrize("name", MODELS)
def test_fast_idempotent_test_agrees_with_the_definition(name):
    s = get_structure(name)
    letters = {"fad": "ab", "flad": "ab", "sdp:Z": "ge", "qn:3": "ge"}.get(name, "xy")
    for a in elements(s, letters):
        try:
            slow = a == s.plus(a)  # the projections are the fixed points of +
        except ValueError:  # sz has no +; there the idempotents are a a = a
            slow = s.mul(a, a) == a
        assert s.is_E_idempotent(a) == slow, (name, a)


@pytest.mark.parametrize("name", MODELS)
def test_power_is_repeated_product(name):
    s = get_structure(name)
    letter = {"fad": "a", "flad": "a", "sdp:Z": "g", "qn:3": "g"}.get(name, "x")
    a = s.atom(letter)
    assert s.power(a, 0) == s.one
    assert s.power(a, 3) == s.mul(s.mul(a, a), a)


def test_negative_powers_use_the_inverse():
    s = get_structure("sdp:Z")
    g, h = s.atom("g"), s.atom("h")
    assert s.power(g, -2) == s.power(h, 2)
    fi = get_structure("fi")
    x = fi.atom("x")
    assert fi.power(x, -1) == cli.eval_term("x^-1", "fi")[1]
    with pytest.raises(ValueError, match=r"\^-1 is not defined in model fad"):
        get_structure("fad").power(get_structure("fad").atom("a"), -1)


def test_unknown_models_are_refused():
    for name in ("sdp:free", "sdp"):
        with pytest.raises(ValueError, match="unknown model"):
            get_structure(name)


def random_node(rng, letters, unary, depth=3):
    """A random parsed term: products of 2-6 factors, unary nodes, atoms, 1."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return ("one",) if rng.random() < 0.05 else ("atom", rng.choice(letters))
    if roll < 0.5 and unary:
        return (rng.choice(unary), random_node(rng, letters, unary, depth - 1))
    n = rng.randint(2, 6)
    return ("mul", *(random_node(rng, letters, unary, depth - 1) for _ in range(n)))


@pytest.mark.parametrize("name", MODELS)
def test_eval_matches_the_left_fold(name):
    s = get_structure(name)
    letters = LETTERS.get(name, "xy")
    unary = ["inv" if op == "inverse" else op for op in s.unary]  # node names
    rng = random.Random(f"eval-{name}")
    # the tree models build a term raw and prune once: deeper terms nest
    # ^+ and ^* groups inside products and each other
    count, depth = (300, 5) if name in ("fad", "flad") else (40, 3)
    for _ in range(count):
        node = random_node(rng, letters, unary, depth)
        assert s.eval(node) == eval_oracle.fold_eval(s, node), (name, node)


def _value_or_error(evaluate, node):
    try:
        return evaluate(node)
    except ValueError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("name", ("fad", "flad"))
def test_eval_and_the_fold_agree_on_terms_with_every_operation(name):
    # the tree walk builds a ^* group and a backward product right to left,
    # yet must refuse the operation the fold meets first (operands before
    # their operation, factors left to right)
    s = get_structure(name)
    rng = random.Random(f"every-op-{name}")
    nodes = [cli.parse_term(t) for t in ("(a^* b^-1)^*", "(b^-1 a^*)^+", "(a b)^* a^-1")]
    nodes += [random_node(rng, "ab", ["plus", "star", "inv"], 4) for _ in range(300)]
    errors = 0
    for node in nodes:
        want = _value_or_error(lambda n: eval_oracle.fold_eval(s, n), node)
        assert _value_or_error(s.eval, node) == want, (name, node)
        errors += isinstance(want, str)
    assert 0 < errors < len(nodes)


def test_the_first_missing_operation_is_refused():
    flad, fad = get_structure("flad"), get_structure("fad")
    for s, term, symbol in ((flad, "(a^* b^-1)^*", "^*"), (flad, "(b^-1 a^*)^+", "^-1"),
                            (fad, "(a b)^* a^-1", "^-1"), (flad, "(a (b^*)^-1)^+ b^-1", "^*")):
        with pytest.raises(ValueError, match=re.escape(f"{symbol} is not defined in model {s.name}")):
            s.eval(cli.parse_term(term))


@pytest.mark.parametrize("name", ("fad", "flad"))
def test_eval_of_the_walks_special_cases_matches_the_fold(name):
    s = get_structure(name)
    rng = random.Random(4)
    word = " ".join(rng.choice("ab") for _ in range(3000))
    for term in ("1", "1 1", "(1)^*", "((a b^*)^+ a)^*", "(a^+)^*", "a (b^+ a)^* 1",
                 "b a^+ 1", "(a 1 b)^+ 1 (1 a)^*", word):
        node = cli.parse_term(term)
        want = _value_or_error(lambda n: eval_oracle.fold_eval(s, n), node)
        assert _value_or_error(s.eval, node) == want, (name, term[:40])
    assert s.eval(cli.parse_term(word)) == xtree.word_tree(tuple(word.split()))


def test_eval_and_the_fold_refuse_star_in_flad():
    s = get_structure("flad")
    node = cli.parse_term("a (b a)^* b")
    for evaluate in (s.eval, lambda n: eval_oracle.fold_eval(s, n)):
        with pytest.raises(ValueError, match=r"\^\* is not defined in model flad"):
            evaluate(node)


def counted_prunes(monkeypatch):
    """The trees `xtree.prune` is called on from now on."""
    calls = []
    prune = xtree.prune
    monkeypatch.setattr(xtree, "prune", lambda t: calls.append(t) or prune(t))
    return calls


def test_a_word_of_128_letters_is_pruned_once(monkeypatch):
    word = tuple("ab"[i % 3 == 0] for i in range(128))
    calls = counted_prunes(monkeypatch)
    _, t = cli.eval_term(" ".join(word), "fad")
    assert len(calls) == 1
    assert t == xtree.word_tree(word)
    fad = get_structure("fad")
    assert fad.power(fad.atom("a"), 128) == xtree.word_tree(("a",) * 128)
    assert len(calls) == 2
    # nested ^+ and ^* groups are re-pointed raw trees, pruned with the term
    term = "(a (b a^*)^+)^* b^+ a"
    _, t = cli.eval_term(term, "fad")
    assert len(calls) == 3
    assert t == eval_oracle.fold_eval(fad, cli.parse_term(term))


def test_a_c_word_prunes_once_per_plus_group(monkeypatch):
    calls = counted_prunes(monkeypatch)
    # letters between the groups, so that no two idempotents are merged
    c = cli.cx_from_term("a (b a^+ b)^+ b (a b)^+ a (a^+)^+")
    assert len(calls) == 3
    flad = get_structure("flad")
    groups = ["b a^+ b", "a b", "a^+"]
    want = [eval_oracle.fold_eval(flad, cli.parse_term(f"({g})^+")) for g in groups]
    assert [x for x in c.parts if not isinstance(x, tuple)] == want
