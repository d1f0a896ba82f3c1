"""Free inverse monoid elements as (prefix-closed set, point) pairs."""

import random
from functools import reduce

import pytest
from hypothesis import given, strategies as st

import eval_oracle
from ehresmann import psdp
from ehresmann import scheiblich as sch
from ehresmann import words
from ehresmann.structures import get_structure
from ehresmann.xtree import RawTree
from random_trees import random_raw_tree
from words_oracle import reduce_group_word

signed = st.tuples(st.sampled_from("xy"), st.sampled_from((1, -1)))
group_words = st.lists(signed, max_size=6).map(
    lambda ls: reduce_group_word(tuple(ls))
)
elements = group_words.map(sch.munn_from_word)


def test_generator_shape():
    x = sch.munn_from_word((("x", 1),))
    assert x.elems == frozenset({(), (("x", 1),)})
    assert x.point == (("x", 1),)
    assert x.base == sch.F and x.aset is x.elems


def test_xx_inverse_is_not_identity():
    x = sch.munn_from_word((("x", 1),))
    e = sch.munn_multiply(x, sch.munn_inverse(x))
    assert e != sch.MUNN_ONE
    assert get_structure("fi").is_E_idempotent(e)
    assert e == sch.munn_plus(x)


def test_prefix_closure_enforced():
    with pytest.raises(ValueError):
        sch.MunnElement(sch.F, frozenset({(("x", 1), ("y", 1))}), (("x", 1), ("y", 1)))
    with pytest.raises(ValueError):
        sch.MunnElement(sch.F, frozenset({()}), (("x", 1),))


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
    elems = p.elems | {words.gmul(p.point, b) for b in q.elems}
    assert sch.munn_multiply(p, q) == sch.MunnElement(sch.F, elems, words.gmul(p.point, q.point))


@given(st.lists(elements, max_size=5))
def test_product_matches_the_fold_of_multiply(ps):
    assert sch.munn_product(ps) == reduce(sch.munn_multiply, ps, sch.MUNN_ONE)


def full_product(factors):
    """munn_product as it was: the whole union, validated as a new element."""
    first, *rest = tuple(factors) or (sch.MUNN_ONE,)
    elems, point = set(first.elems), first.point
    for q in rest:
        elems.update(words.gmul(point, b) for b in q.elems)
        point = words.gmul(point, q.point)
    return sch.MunnElement(sch.F, frozenset(elems), point)


def test_product_checks_what_it_adds_and_matches_the_full_union():
    rng = random.Random(7)
    letters = [(x, s) for x in "xy" for s in (1, -1)]
    for _ in range(300):
        factors = [sch.munn_from_word(reduce_group_word(tuple(
            rng.choice(letters) for _ in range(rng.randint(0, 5)))))
            for _ in range(rng.randint(0, 6))]
        factors += [sch.munn_plus(f) for f in factors[:2]] + [sch.munn_star(f) for f in factors[2:3]]
        rng.shuffle(factors)
        got = sch.munn_product(factors)
        assert got == full_product(factors), factors
        assert isinstance(got.elems, frozenset) and words.is_prefix_closed(got.elems)


def tree_term(t):
    """A parsed term for the raw tree t, made of its letters, ^-1, ^+ and
    products: the start-to-end path, with each branch off it as the ^+ of
    its edge times the branches below."""
    adj = [[] for _ in range(t.nv)]
    for a, x, b in t.edges:
        adj[a].append((b, ("atom", x)))
        adj[b].append((a, ("inv", ("atom", x))))

    def hang(v, avoid):
        factors = [("plus", ("mul", step, hang(w, {v}))) for w, step in adj[v] if w not in avoid]
        return ("mul", *factors) if factors else ("one",)

    order, parent = [t.start], {t.start: None}
    for v in order:
        for w, _ in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    path = [t.end]  # the vertices from end back to start, then reversed
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    factors = []
    for i, v in enumerate(path):
        factors.append(hang(v, set(path[max(i - 1, 0):i + 2]) - {v}))
        if i + 1 < len(path):
            factors += [step for w, step in adj[v] if w == path[i + 1]]
    return ("mul", *factors)


def test_munn_of_tree_matches_the_generic_evaluation():
    fi = get_structure("fi")
    rng = random.Random(11)
    for n_edges in [0, 1, 2, 3] + [rng.randint(4, 30) for _ in range(120)]:
        t = random_raw_tree(rng, "xy", n_edges)
        node = tree_term(t)
        want = eval_oracle.fold_eval(fi, node)
        assert sch.munn_of_tree(t) == want, t
        assert fi.eval(node) == want, t


def test_munn_of_tree_refuses_a_graph_that_is_not_a_tree():
    for t in (RawTree(2, ((0, "x", 1), (1, "y", 0)), 0, 1),
              RawTree(3, ((0, "x", 1),), 0, 1),
              RawTree(3, ((0, "x", 1), (1, "y", 0)), 0, 1)):
        with pytest.raises(ValueError, match="not a tree"):
            sch.munn_of_tree(t)


def test_an_atom_is_built_and_validated_once(monkeypatch):
    calls = []
    closed = words.is_prefix_closed
    monkeypatch.setattr(words, "is_prefix_closed", lambda aset: calls.append(aset) or closed(aset))
    x = sch.munn_from_word((("x", 1),))
    assert len(calls) == 1
    assert sch.munn_product([x]) is x and len(calls) == 1


@given(group_words)
def test_from_word_folds_the_generators(g):
    gens = [sch.MunnElement(sch.F, frozenset({(), (x,)}), (x,)) for x in g]
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
    elems = frozenset(parse_group_word(g) for g in data["set"])
    assert sch.MunnElement(sch.F, elems, parse_group_word(data["point"])) == p


def include(m):
    """The inclusion FI -> S(F)."""
    return psdp.PSetElement(sch.F, m.elems, m.point)


@pytest.mark.parametrize("op, arity", [("multiply", 2), ("inverse", 1), ("plus", 1), ("star", 1)])
def test_the_inclusion_into_S_F_is_a_morphism(op, arity):
    """FI's product, inverse, + and * are S(F)'s on FI's elements: the
    inclusion commutes with each, on elements folded from random trees."""
    fi_op, sdp_op = getattr(sch, "munn_" + op), getattr(psdp, "sdp_" + op)
    rng = random.Random(19)
    for _ in range(200):
        ms = [sch.munn_of_tree(random_raw_tree(rng, "xy", rng.randint(0, 8))) for _ in range(arity)]
        got = fi_op(*ms)
        assert type(got) is sch.MunnElement
        assert include(got) == sdp_op(*map(include, ms)), ms
