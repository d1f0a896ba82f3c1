"""One-pass pruning against the restart-loop oracle, and deep inputs."""

import random
from functools import reduce

from hypothesis import given, settings, strategies as st

import prune_oracle
from random_trees import raw_trees
from ehresmann.xtree import (
    IDENTITY_TREE,
    RawTree,
    XTree,
    canonicalize,
    depth_directed,
    enumerate_trees,
    prune,
    raw_plus,
    raw_product,
    raw_star,
    tree_multiply,
    tree_product,
    trunk_word,
    word_tree,
)


def test_prune_matches_the_oracle_on_enumerated_products():
    # the oracle also runs with a seeded RNG, deleting the branches in a
    # shuffled order, so every order of deletion must reach the one-pass result
    rng = random.Random(2)
    small = enumerate_trees("ab", 2)
    larger = enumerate_trees("ab", 3)
    for s in small:
        for t in larger:
            raw = raw_product(s, t)
            for r in (raw, raw_plus(raw), raw_star(raw)):
                want = prune(r)
                assert want == prune_oracle.prune(r), r
                assert want == prune_oracle.prune(r, rng), r


@settings(max_examples=150, deadline=None)
@given(raw_trees(), st.integers(0, 2**32))
def test_prune_and_canonicalize_match_the_oracle_on_random_trees(raw, seed):
    want = prune_oracle.prune(raw)
    got = prune(raw)
    assert got == want
    assert prune_oracle.prune(raw, random.Random(seed)) == want
    assert type(got) is XTree
    assert canonicalize(raw) == prune_oracle.canonicalize(raw)


@settings(max_examples=100, deadline=None)
@given(st.lists(raw_trees(max_edges=10), max_size=5))
def test_tree_product_matches_the_fold_of_tree_multiply(factors):
    # one prune of all factors glued = one prune per factor, left to right;
    # no factors give the identity, and one factor its pruning
    assert tree_product(factors) == reduce(tree_multiply, factors, IDENTITY_TREE)


def test_ten_thousand_edge_word_product():
    rng = random.Random(0)
    w = tuple(rng.choice("ab") for _ in range(10_000))
    p = tree_multiply(word_tree(w[:4_321]), word_tree(w[4_321:]))
    assert p == word_tree(w)
    assert trunk_word(p) == w
    assert depth_directed(p) == 10_000
    # the same chain under a scrambled numbering canonicalizes back
    perm = list(range(p.nv))
    rng.shuffle(perm)
    scrambled = RawTree(
        p.nv, tuple((perm[s], lab, perm[d]) for s, lab, d in p.edges), perm[p.start], perm[p.end]
    )
    assert canonicalize(scrambled) == RawTree(p.nv, p.edges, p.start, p.end)


def _chain(edges, at, labels, first):
    """Append a directed chain with the given labels hanging at vertex `at`."""
    v = at
    for k, lab in enumerate(labels):
        edges.append((v, lab, first + k))
        v = first + k
    return first + len(labels)


def test_prune_of_a_deep_branch():
    # trunk 0 -a-> 1 -b-> 2; at vertex 1 hang two c-chains of 3000 and 3001
    # edges: the shorter one folds onto the longer one, which stays
    edges = [(0, "a", 1), (1, "b", 2)]
    nxt = _chain(edges, 1, "c" * 3000, 3)
    nxt = _chain(edges, 1, "c" * 3001, nxt)
    got = prune(RawTree(nxt, tuple(edges), 0, 2))
    kept = [(0, "a", 1), (1, "b", 2)]
    _chain(kept, 1, "c" * 3001, 3)
    assert type(got) is XTree
    assert got == canonicalize(XTree(3004, tuple(kept), 0, 2))
    assert trunk_word(got) == ("a", "b")
