"""Free inverse monoid elements as (prefix-closed set, point) pairs."""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from ehresmann import scheiblich as sch
from ehresmann import words
from ehresmann.structures import get_structure
from words_oracle import reduce_group_word

signed = st.tuples(st.sampled_from("xy"), st.sampled_from((1, -1)))
group_words = st.lists(signed, max_size=6).map(
    lambda ls: reduce_group_word(tuple(ls))
)
elements = group_words.map(sch.munn_from_word)


def test_generator_shape():
    x = sch.munn_from_word((("x", 1),))
    assert x.aset == frozenset({(), (("x", 1),)})
    assert x.point == (("x", 1),)


def test_xx_inverse_is_not_identity():
    x = sch.munn_from_word((("x", 1),))
    e = sch.munn_multiply(x, sch.munn_inverse(x))
    assert e != sch.MUNN_ONE
    assert get_structure("fi").is_E_idempotent(e)
    assert e == sch.munn_plus(x)


def test_prefix_closure_enforced():
    with pytest.raises(ValueError):
        sch.MunnElement(frozenset({(("x", 1), ("y", 1))}), (("x", 1), ("y", 1)))
    with pytest.raises(ValueError):
        sch.MunnElement(frozenset({()}), (("x", 1),))


@given(elements, elements, elements)
def test_associativity(p, q, r):
    lhs = sch.munn_multiply(sch.munn_multiply(p, q), r)
    assert lhs == sch.munn_multiply(p, sch.munn_multiply(q, r))


@given(elements)
def test_inverse_laws(p):
    pi = sch.munn_inverse(p)
    assert sch.munn_multiply(sch.munn_multiply(p, pi), p) == p
    assert sch.munn_inverse(pi) == p
    assert sch.munn_star(p) == sch.munn_plus(pi)


@given(elements, elements)
def test_idempotents_commute(p, q):
    e, f = sch.munn_plus(p), sch.munn_plus(q)
    assert sch.munn_multiply(e, f) == sch.munn_multiply(f, e)


@given(group_words)
def test_positive_words_are_in_FLA(g):
    p = sch.munn_from_word(g)
    if words.is_positive(g):
        assert sch.in_FA(p) and sch.in_FLA(p)


def test_FA_FLA_membership():
    x = (("x", 1),)
    xx1 = sch.munn_multiply(sch.munn_from_word(x), sch.munn_from_word(words.ginv(x)))
    assert sch.in_FLA(xx1)  # positive set, point 1
    assert sch.in_FA(xx1)
    xinv = sch.munn_from_word(words.ginv(x))
    assert not sch.in_FLA(xinv)
    assert not sch.in_FA(xinv)


@given(elements, elements)
def test_multiply_is_the_definition(p, q):
    aset = p.aset | {words.gmul(p.point, b) for b in q.aset}
    assert sch.munn_multiply(p, q) == sch.MunnElement(aset, words.gmul(p.point, q.point))


@given(st.lists(elements, max_size=5))
def test_product_matches_the_fold_of_multiply(ps):
    assert sch.munn_product(ps) == reduce(sch.munn_multiply, ps, sch.MUNN_ONE)


def test_an_atom_is_built_and_validated_once(monkeypatch):
    calls = []
    closed = words.is_prefix_closed
    monkeypatch.setattr(words, "is_prefix_closed", lambda aset: calls.append(aset) or closed(aset))
    x = sch.munn_from_word((("x", 1),))
    assert len(calls) == 1
    assert sch.munn_product([x]) is x and len(calls) == 1


@given(group_words)
def test_from_word_folds_the_generators(g):
    gens = [sch.MunnElement(frozenset({(), (x,)}), (x,)) for x in g]
    assert sch.munn_from_word(g) == reduce(sch.munn_multiply, gens, sch.MUNN_ONE)


def in_right_ideal(p, r):
    """r in pS  iff  p p^-1 r = r."""
    return sch.munn_multiply(sch.munn_plus(p), r) == r


def principal_intersection(p, q):
    """A generator of pS n qS: inverse monoids are right coherent, with
    pS n qS = (p p^-1 q q^-1) S."""
    return sch.munn_multiply(sch.munn_plus(p), sch.munn_plus(q))


@given(elements, elements)
def test_right_ideal_membership_criterion(p, q):
    pq = sch.munn_multiply(p, q)
    assert in_right_ideal(p, pq)
    if in_right_ideal(p, q):
        # q really is a multiple of p, with cofactor p^-1 q
        s = sch.munn_multiply(sch.munn_inverse(p), q)
        assert sch.munn_multiply(p, s) == q


@given(elements, elements)
def test_principal_intersection_generator(p, q):
    gen = principal_intersection(p, q)
    assert in_right_ideal(p, gen)
    assert in_right_ideal(q, gen)


def parse_group_word(text):
    """The inverse of words.format_group_word on reduced words."""
    return tuple((x[:-3], -1) if x.endswith("^-1") else (x, 1)
                 for x in text.split() if x != "1")


@given(elements)
def test_json_roundtrip(p):
    data = p.to_json()
    aset = frozenset(parse_group_word(g) for g in data["set"])
    assert sch.MunnElement(aset, parse_group_word(data["point"])) == p
