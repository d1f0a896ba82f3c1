"""Cayley-subgraph, Szendrei, and size-truncated expansions."""

import random

import pytest
from hypothesis import given, strategies as st

import expansions_oracle
from words_oracle import prefixes, reduce_group_word
from ehresmann import expansions as ex
from ehresmann import scheiblich as sch
from ehresmann import words
from ehresmann.psdp import FreeGroup, IntegersAdd, PSetElement, sdp_inverse, sdp_multiply
from ehresmann.structures import get_structure

F = FreeGroup()
SZ = get_structure("sz")
Z = IntegersAdd()

signed = st.tuples(st.sampled_from("xy"), st.sampled_from((1, -1)))
group_words = st.lists(signed, max_size=6).map(tuple)


def sz_from_word(g):
    gens = [SZ.atom(name) if sign == 1 else SZ.inv(SZ.atom(name)) for name, sign in g]
    return SZ.product([SZ.one, *gens])


def test_generator_graph():
    g = ex.mm_generator(F, "x")
    assert g.point == (("x", 1),)
    assert g.graph.edges == frozenset({((), "x")})
    expansions_oracle.validate(g.graph)


def test_subgraph_validation():
    one = ()
    x = (("x", 1),)
    with pytest.raises(ValueError):
        expansions_oracle.validate(ex.CayleySubgraph(F, frozenset({x}), frozenset()))
    with pytest.raises(ValueError):
        expansions_oracle.validate(ex.CayleySubgraph(F, frozenset({one, x}), frozenset()))


@given(group_words, group_words)
def test_mm_munn_isomorphism(u, v):
    pu, pv = expansions_oracle.mm_from_word(F, u), expansions_oracle.mm_from_word(F, v)
    mu, mv = sch.munn_from_word(u), sch.munn_from_word(v)
    assert ex.mm_to_munn(pu) == mu
    assert ex.munn_to_mm(F, mu) == pu
    puv = ex.mm_multiply(pu, pv)
    expansions_oracle.validate(puv.graph)
    assert ex.mm_to_munn(puv) == sch.munn_multiply(mu, mv)
    assert ex.mm_to_munn(ex.mm_inverse(pu)) == sch.munn_inverse(mu)


@given(st.lists(group_words, max_size=5), st.integers(0, 100))
def test_munn_to_mm_matches_the_oracle(ws, k):
    """Prefix-closed sets of words over x and y, and a point among them, in
    the free group."""
    base = FreeGroup()
    aset = sorted({p for w in ws for p in prefixes(reduce_group_word(w))} | {()})
    p = sch.MunnElement(frozenset(aset), aset[k % len(aset)])
    got = ex.munn_to_mm(base, p)
    assert got == expansions_oracle.munn_to_mm(base, p)
    expansions_oracle.validate(got.graph)
    assert len(got.graph.edges) == len(aset) - 1  # a tree
    assert ex.mm_to_munn(got) == p


@given(group_words)
def test_mm_unary_ops(u):
    p = expansions_oracle.mm_from_word(F, u)
    assert ex.mm_plus(p) == ex.mm_multiply(p, ex.mm_inverse(p))
    assert ex.mm_star(p) == ex.mm_multiply(ex.mm_inverse(p), p)


@given(group_words, group_words, group_words)
def test_sz_is_a_monoid_with_involution(u, v, w):
    pu, pv, pw = (sz_from_word(g) for g in (u, v, w))
    assert SZ.mul(SZ.mul(pu, pv), pw) == SZ.mul(pu, SZ.mul(pv, pw))
    assert SZ.inv(SZ.inv(pu)) == pu
    assert SZ.mul(SZ.one, pu) == pu == SZ.mul(pu, SZ.one)


@given(group_words, group_words)
def test_sz_products_and_inverses_stay_in_sz(u, v):
    """S(F)'s product and inverse keep the class of an Sz(F) element."""
    pu, pv = sz_from_word(u), sz_from_word(v)
    assert type(sdp_multiply(pu, pv)) is ex.SzElement
    assert type(sdp_inverse(pu)) is ex.SzElement


def test_sz_element_needs_one_and_its_point():
    x = (("x", 1),)
    with pytest.raises(ValueError, match="must contain 1 and the point"):
        ex.SzElement(F, frozenset({x}), x)  # no 1
    with pytest.raises(ValueError, match="must contain 1 and the point"):
        ex.SzElement(F, frozenset({()}), x)  # no point
    assert ex.SzElement(F, frozenset({(), x}), x) == SZ.atom("x")


def test_sz_remembers_detours_but_not_backtracking():
    # x y y^-1 keeps the visited vertex xy; x x^-1 x collapses to x
    u = (("x", 1), ("y", 1), ("y", -1))
    v = (("x", 1),)
    assert sz_from_word(u) != sz_from_word(v)
    uu = (("x", 1), ("x", -1), ("x", 1))
    assert sz_from_word(uu) == sz_from_word(v)


def test_top_is_a_singleton_and_absorbs():
    assert ex._Top() is ex.TOP
    big = ex.QnElement(Z, 2, frozenset({0, 1}), 0)
    assert big.elems is ex.TOP
    small = ex.QnElement(Z, 2, frozenset({0}), 0)
    assert small.elems == frozenset({0})
    prod = ex.qn_multiply(big, small)
    assert prod.elems is ex.TOP and prod.point == 0


def test_qn_is_a_quotient_of_sdp():
    rng = random.Random(1)
    n = 3
    for _ in range(200):
        p = PSetElement(Z, frozenset(rng.sample(range(-3, 4), rng.randint(0, 4))),
                        rng.randint(-2, 2))
        q = PSetElement(Z, frozenset(rng.sample(range(-3, 4), rng.randint(0, 4))),
                        rng.randint(-2, 2))
        from ehresmann.psdp import sdp_multiply, sdp_plus, sdp_star

        assert ex.qn_from_sdp(sdp_multiply(p, q), n) == ex.qn_multiply(
            ex.qn_from_sdp(p, n), ex.qn_from_sdp(q, n)
        )
        assert ex.qn_from_sdp(sdp_plus(p), n) == ex.qn_plus(ex.qn_from_sdp(p, n))
        assert ex.qn_from_sdp(sdp_star(p), n) == ex.qn_star(ex.qn_from_sdp(p, n))


def test_qn_mixed_parameters_rejected():
    with pytest.raises(ValueError):
        ex.qn_multiply(ex.qn_identity(Z, 2), ex.qn_identity(Z, 3))
