"""The marked-letter semilattice and the theta embedding data."""

import itertools
import random

import pytest

import embed_theta_oracle
from embed_theta_oracle import ZX_ONE, cx_multiply, zx_multiply
from ehresmann import embed_theta as et
from ehresmann import words, xtree
from ehresmann.normalform import is_word_letter
from ehresmann.xtree import letter_tree, tree_multiply, tree_plus

AP = tree_plus(letter_tree("a"))
BP = tree_plus(letter_tree("b"))
LETTERS = [("a",), ("b",), AP, BP]


def random_cx(rng, max_parts=4):
    return et.CXWord.make([rng.choice(LETTERS) for _ in range(rng.randint(0, max_parts))])


def test_make_normalizes():
    c = et.CXWord.make([("a",), (), ("b",), AP, AP])
    assert len(c.parts) == 2
    assert c.trunk() == ("a", "b")
    assert c.parts == (("a", "b"), AP)
    assert et.CXWord.make([]).parts == ()


def test_multiply_merges_at_the_seam():
    c = et.CXWord.make([("a",), AP])
    d = et.CXWord.make([BP, ("b",)])
    prod = cx_multiply(c, d)
    assert prod.trunk() == ("a", "b")
    assert len(prod.parts) == 3  # word, merged idempotent, word
    assert prod.parts[1] == tree_multiply(AP, BP)


def test_splitting_positions():
    c = et.CXWord.make([("a",), AP, ("b", "b"), BP])
    pos = et.splitting_positions(c)
    assert pos == [(("a",), AP), (("a", "b", "b"), BP)]


def test_tau_marks_successive_prefixes():
    z = et.tau(("a", "b"))
    assert z.ys == frozenset({("a", ()), ("b", (("a", 1),))})
    shifted = et.tau(("a", "b"), (("c", 1),))
    assert ("a", (("c", 1),)) in shifted.ys


def test_zx_semilattice_laws():
    rng = random.Random(2)
    for _ in range(200):
        a = et.theta(random_cx(rng)).zx
        b = et.theta(random_cx(rng)).zx
        assert zx_multiply(a, b) == zx_multiply(b, a)
        assert zx_multiply(a, a) == a
        assert zx_multiply(a, ZX_ONE) == a


def test_translate_is_an_action():
    rng = random.Random(4)
    g = (("a", 1),)
    h = (("b", 1), ("a", -1))
    for _ in range(100):
        z = et.theta(random_cx(rng)).zx
        assert et.zx_translate(g, et.zx_translate(h, z)) == et.zx_translate(
            words.gmul(g, h), z
        )
        assert et.zx_translate((), z) == z


def test_y_and_e_generators_differ():
    ya = et.theta(et.CXWord.make([("a",)]))
    ea = et.theta(et.CXWord.make([AP]))
    assert ya.zx != ea.zx


def short_cxs():
    """The distinct C-words of at most two letters of LETTERS."""
    return list(dict.fromkeys(
        et.CXWord.make(list(seq))
        for k in range(3)
        for seq in itertools.product(LETTERS, repeat=k)
    ))


def law_holds(c, d):
    """The morphism law for one pair, every theta computed afresh."""
    lhs = et.theta(cx_multiply(c, d))
    tc, td = et.theta(c), et.theta(d)
    g = words.word_to_group(tc.trunk)
    rhs = zx_multiply(tc.zx, et.zx_translate(g, td.zx))
    return lhs.zx == rhs and lhs.trunk == tc.trunk + td.trunk


def test_theta_morphism_law_random():
    rng = random.Random(6)
    for _ in range(500):
        c, d = random_cx(rng), random_cx(rng)
        assert et.theta_morphism_check([c], [d]) == [], (c, d)


def test_theta_morphism_law_exhaustive_short():
    cxs = short_cxs()
    assert et.theta_morphism_check(cxs, cxs) == []


@pytest.mark.parametrize("translate", ["action", "ignored"])
def test_theta_grid_fails_the_pairs_that_break_the_law(translate, monkeypatch):
    """The grid's failing pairs, in order, are the pairs for which the law
    fails when every theta is recomputed; with the action replaced by the
    identity the law breaks, so the lists are not both empty."""
    if translate == "ignored":
        monkeypatch.setattr(et, "zx_translate", lambda g, z: z)
    cxs = short_cxs()
    want = [(c, d) for c in cxs for d in cxs if not law_holds(c, d)]
    assert et.theta_morphism_check(cxs, cxs) == want
    assert bool(want) == (translate == "ignored")


def test_theta_separates_normalized_words():
    seen = {}
    for k in range(3):
        for seq in itertools.product(LETTERS, repeat=k):
            c = et.CXWord.make(list(seq))
            img = et.theta(c)
            prev = seen.setdefault((img.zx, img.trunk), c)
            assert prev == c, (prev, c)


def cxs_up_to(k_max):
    return list(dict.fromkeys(
        et.CXWord.make(list(seq))
        for k in range(k_max + 1)
        for seq in itertools.product(LETTERS, repeat=k)
    ))


def test_multiply_and_theta_match_the_old_bodies():
    cxs = cxs_up_to(3)
    assert len(cxs) == 62
    for c in cxs:
        assert et.theta(c) == embed_theta_oracle.theta(c), c
        for d in cxs:
            assert cx_multiply(c, d) == embed_theta_oracle.merged_cx_multiply(c, d), (c, d)


@pytest.mark.parametrize("translate", ["action", "ignored"])
def test_the_law_check_returns_the_old_failures(translate, monkeypatch):
    if translate == "ignored":
        monkeypatch.setattr(et, "zx_translate", lambda g, z: z)
    cxs = short_cxs()
    want = embed_theta_oracle.theta_morphism_check(cxs, cxs)
    assert et.theta_morphism_check(cxs, cxs) == want
    assert bool(want) == (translate == "ignored")


def test_each_seam_product_is_made_once_per_call(monkeypatch):
    cxs = short_cxs()  # the C-words of `ehres check theta-morphism --bound 2`
    calls = []
    multiply = et.tree_multiply
    monkeypatch.setattr(et, "tree_multiply", lambda e, f: calls.append((e, f)) or multiply(e, f))
    assert et.theta_morphism_check(cxs, cxs) == []
    seams = {(c.parts[-1], d.parts[0]) for c in cxs for d in cxs
             if c.parts and d.parts and not (is_word_letter(c.parts[-1]) or is_word_letter(d.parts[0]))}
    assert len(calls) == len(set(calls)) == len(seams) > 0
    assert set(calls) == seams
    calls.clear()
    et.theta_morphism_check(cxs, cxs)  # nothing is kept from the earlier call
    assert len(calls) == len(seams)
