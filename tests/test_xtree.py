"""Pruned bi-pointed labeled trees: operations, pruning, enumeration."""

import random

import pytest
from hypothesis import given, settings

import normalform_oracle
import prune_oracle
from random_trees import random_raw_tree, raw_trees
from ehresmann import xtree
from ehresmann.xtree import (
    IDENTITY_TREE,
    RawTree,
    XTree,
    canonical_encode,
    depth_directed,
    enumerate_trees,
    is_idempotent,
    is_left_ehresmann,
    leq_nat,
    letter_tree,
    prune,
    tree_multiply,
    tree_plus,
    tree_star,
    trunk_factorization,
    trunk_word,
    word_tree,
)
from ehresmann.structures import get_structure

A = letter_tree("a")
B = letter_tree("b")


def sample(rng, n_edges=6):
    return prune(random_raw_tree(rng, "ab", rng.randint(0, n_edges)))


def test_letter_and_word_trees():
    assert A.nv == 2 and A.edges == ((0, "a", 1),)
    w = word_tree(("a", "b"))
    assert trunk_word(w) == ("a", "b")
    assert prune(w) == w


def test_plus_then_letter_collapses():
    # a+ a = a: the spur retracts along the trunk edge
    assert tree_multiply(tree_plus(A), A) == A


def test_letter_then_plus_keeps_the_spur():
    # a a+ keeps both edges: the second a hangs beyond the end point
    t = tree_multiply(A, tree_plus(A))
    assert len(t.edges) == 2
    assert trunk_word(t) == ("a",)
    assert t != A


def test_star_and_plus_are_idempotents():
    for t in (A, tree_multiply(A, B), tree_multiply(B, tree_plus(A))):
        assert is_idempotent(tree_plus(t))
        assert is_idempotent(tree_star(t))
        assert tree_plus(tree_plus(t)) == tree_plus(t)


def test_trunk_requires_directed_path():
    backward = RawTree(2, ((1, "a", 0),), 0, 1)
    with pytest.raises(ValueError):
        xtree.trunk_word(backward)


def test_variety_identities_random():
    rng = random.Random(7)
    for _ in range(150):
        s, t = sample(rng), sample(rng)
        assert tree_plus(tree_multiply(s, t)) == tree_plus(
            tree_multiply(s, tree_plus(t))
        )
        assert leq_nat(tree_plus(tree_multiply(s, t)), tree_plus(s))
        e, f = tree_plus(s), tree_plus(t)
        assert tree_multiply(e, f) == tree_multiply(f, e)
        assert tree_multiply(s, IDENTITY_TREE) == s
        assert tree_multiply(IDENTITY_TREE, s) == s


def test_associativity_random():
    rng = random.Random(11)
    for _ in range(100):
        s, t, u = sample(rng, 4), sample(rng, 4), sample(rng, 4)
        assert tree_multiply(tree_multiply(s, t), u) == tree_multiply(
            s, tree_multiply(t, u)
        )


def test_pruning_is_order_independent():
    rng = random.Random(3)
    for _ in range(60):
        raw = random_raw_tree(rng, "ab", rng.randint(0, 8))
        ref = prune(raw)
        for k in range(4):
            assert prune_oracle.prune(raw, random.Random(k)) == ref


def test_canonical_encoding_separates_start_and_end():
    aplus = tree_plus(A)
    astar = tree_star(A)
    assert aplus != astar
    # both end where they start, so their codes differ by edge orientation alone
    assert aplus.end == aplus.start and astar.end == astar.start
    assert canonical_encode(aplus) != canonical_encode(astar)


def test_left_ehresmann_closure_under_product_and_plus():
    rng = random.Random(19)
    pool = [t for t in enumerate_trees("ab", 2, left_ehresmann_only=True)]
    for _ in range(100):
        s, t = rng.choice(pool), rng.choice(pool)
        assert is_left_ehresmann(tree_multiply(s, t))
        assert is_left_ehresmann(tree_plus(s))


def test_star_leaves_left_ehresmann():
    assert not is_left_ehresmann(tree_star(A))


def test_enumeration_counts():
    assert len(enumerate_trees("a", 1)) == 4  # 1, a, a+, a*
    assert len(enumerate_trees("ab", 2, left_ehresmann_only=True)) == 20
    assert len(enumerate_trees("ab", 3, left_ehresmann_only=True)) == 80
    assert len(enumerate_trees("ab", 3)) == 259


def test_enumerated_trees_are_pruned_and_distinct():
    ts = enumerate_trees("ab", 2)
    assert len(set(ts)) == len(ts)
    for t in ts:
        assert isinstance(t, XTree)
        assert prune(t) == t


def test_enumeration_budget_guard():
    with pytest.raises(xtree.ResourceGuardError):
        enumerate_trees("ab", 6, budget=50)


def test_leq_Ltilde_examples():
    ab = tree_multiply(A, B)

    def leq_Ltilde(x, y):  # x <=_L~ y iff x y* = x
        return tree_multiply(x, tree_star(y)) == x

    assert leq_Ltilde(ab, B)
    assert not leq_Ltilde(ab, A)


def test_depths():
    t = tree_multiply(A, tree_plus(tree_multiply(B, A)))
    assert depth_directed(t) == 3
    assert depth_directed(tree_star(A)) == 0


def test_the_directed_walk_ends_on_a_directed_cycle():
    cycle = RawTree(2, ((0, "a", 1), (1, "b", 0)), 0, 0)
    assert depth_directed(cycle) == 1
    assert xtree.directed_reachable(cycle) == {0, 1}
    assert xtree.is_left_ehresmann(cycle)


def test_trunk_factorization_recomposes():
    rng = random.Random(23)
    for _ in range(80):
        t = sample(rng)
        idems, word = trunk_factorization(t)
        assert len(idems) == len(word) + 1
        acc = idems[0]
        for x, e in zip(word, idems[1:]):
            acc = tree_multiply(tree_multiply(acc, letter_tree(x)), e)
        assert acc == t


def _assert_factorization_matches_the_oracle(t):
    idems, word = trunk_factorization(t)
    assert (idems, word) == normalform_oracle.trunk_factorization(t), t
    for e in idems:
        assert type(e) is XTree
        assert prune(e) == e


def test_trunk_factorization_matches_the_oracle_on_small_trees():
    trees = enumerate_trees("ab", 4)
    assert len(trees) == 1722
    for t in trees:
        _assert_factorization_matches_the_oracle(t)


@settings(max_examples=150, deadline=None)
@given(raw_trees())
def test_trunk_factorization_matches_the_oracle_on_random_trees(raw):
    _assert_factorization_matches_the_oracle(prune(raw))


def test_trunk_factorization_prunes_nothing(monkeypatch):
    # a pruned tree's bundles are pruned and canonically numbered already
    BP = tree_plus(B)
    t = xtree.tree_product([BP, A, BP, A, BP])
    calls = []
    real_prune = xtree.prune
    monkeypatch.setattr(xtree, "prune", lambda t: calls.append(t) or real_prune(t))
    idems, word = trunk_factorization(t)
    assert word == ("a", "a") and idems == (BP, BP, BP)
    assert calls == []


def test_json_roundtrip_and_dot():
    t = tree_multiply(A, tree_plus(B))
    data = t.to_json()
    assert data["vertices"] == list(range(t.nv))
    assert tuple((e["from"], e["label"], e["to"]) for e in data["edges"]) == t.edges
    assert (data["start"], data["end"]) == (t.start, t.end)
    dot = t.to_dot()
    assert "digraph" in dot and '"a"' in dot or "a" in dot


def test_power():
    fad = get_structure("fad")
    assert fad.power(A, 3) == word_tree(("a", "a", "a"))
    assert fad.power(A, 0) == IDENTITY_TREE
