"""One-pass pruning against the restart-loop oracle, and deep inputs."""

import random
from functools import reduce

from hypothesis import given, settings, strategies as st

import pytest

import normalform_oracle
import prune_oracle
from random_trees import raw_trees
from ehresmann import xtree
from ehresmann.xtree import (
    IDENTITY_TREE,
    RawTree,
    XTree,
    canonical_encode,
    canonicalize,
    depth_directed,
    directed_reachable,
    enumerate_trees,
    letter_tree,
    prune,
    raw_plus,
    raw_product,
    raw_star,
    tree_multiply,
    tree_plus,
    tree_product,
    tree_star,
    trunk_factorization,
    trunk_path,
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


def _scrambled(t, rng):
    """t with its vertices renumbered at random."""
    perm = list(range(t.nv))
    rng.shuffle(perm)
    edges = tuple((perm[s], lab, perm[d]) for s, lab, d in t.edges)
    return RawTree(t.nv, edges, perm[t.start], perm[t.end])


def _assert_prune_matches_the_oracle(raw):
    got = prune(raw)
    assert got == prune_oracle.prune(raw), raw
    # the numbering the codes give, also where prune skipped them
    assert canonicalize(got) == got, raw
    return got


def test_word_products_with_one_short_branch():
    # one branch at the start, at the glue vertex or at the far end of u v:
    # a copy of the trunk edge beside it folds away and leaves a path, so
    # prune numbers it without codes; a c-edge stays, and the result branches
    rng = random.Random(5)
    c_plus, c_star = tree_plus(letter_tree("c")), tree_star(letter_tree("c"))
    for _ in range(40):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        U, V = word_tree(u), word_tree(v)
        for factors, folds in (
            ((tree_plus(letter_tree(u[0])), U, V), True),  # x+ x = x at the start
            ((U, tree_plus(letter_tree(v[0])), V), True),  # at the glue vertex
            ((U, tree_star(letter_tree(u[-1])), V), True),  # x x* = x there too
            ((U, V, tree_star(letter_tree(v[-1]))), True),  # at the far end
            ((c_plus, U, V), False),
            ((U, c_plus, V), False),
            ((U, V, c_star), False),
        ):
            raw = raw_product(*factors)
            got = _assert_prune_matches_the_oracle(raw)
            assert (got == word_tree(u + v)) is folds, factors
            assert len(got.edges) == len(u) + len(v) + (not folds)


def test_paths_rooted_at_a_leaf_or_inside_and_scrambled():
    # a path pruned from either leaf (each vertex keeps at most one child)
    # or from an interior vertex (the start keeps two), under the input
    # numbering and under a scrambled one, where BFS order is not vertex order
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        edges = tuple(
            (i, lab, i + 1) if rng.random() < 0.5 else (i + 1, lab, i)
            for i, lab in enumerate(rng.choice("ab") for _ in range(n))
        )
        for start in (0, n, rng.randint(1, n)):
            pointed = RawTree(n + 1, edges, start, start)
            for end in sorted(directed_reachable(pointed)):
                raw = RawTree(n + 1, edges, start, end)
                got = _assert_prune_matches_the_oracle(raw)
                assert _assert_prune_matches_the_oracle(_scrambled(raw, rng)) == got


def _prune_and_whether_rooted(raw, monkeypatch):
    """prune(raw), and whether it built the adjacency to root the tree."""
    calls = []
    adjacency = xtree._adjacency
    monkeypatch.setattr(xtree, "_adjacency", lambda t: calls.append(t) or adjacency(t))
    got = prune(raw)
    monkeypatch.setattr(xtree, "_adjacency", adjacency)
    assert got == prune_oracle.prune(raw), raw
    return got, bool(calls)


def test_a_directed_path_is_its_word_tree_without_rooting(monkeypatch):
    rng = random.Random(12)
    assert _prune_and_whether_rooted(RawTree(1, (), 0, 0), monkeypatch) == (IDENTITY_TREE, False)
    for _ in range(40):
        w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        n = len(w)
        path = _scrambled(word_tree(w), rng)
        assert _prune_and_whether_rooted(path, monkeypatch) == (word_tree(w), False)
        edges = word_tree(w).edges
        # a start or an end inside the path, or one edge reversed: rooted
        inside = rng.randint(1, n)
        for raw in (RawTree(n + 1, edges, inside, n), RawTree(n + 1, edges, 0, inside - 1)):
            got, rooted = _prune_and_whether_rooted(_scrambled(raw, rng), monkeypatch)
            assert rooted and got.nv == n + 1, raw
        i = rng.randrange(n)
        flipped = edges[:i] + ((i + 1, w[i], i),) + edges[i + 1:]
        for start, end in ((0, 0), (i + 1, n), (n, n)):
            got, rooted = _prune_and_whether_rooted(RawTree(n + 1, flipped, start, end), monkeypatch)
            assert rooted, flipped


# a directed path 0-a->1-b->2 beside the directed cycle 3-a->4-b->5-a->3: five
# edges on six vertices, each vertex with one edge in and one out at most
PATH_AND_CYCLE = ((0, "a", 1), (1, "b", 2), (3, "a", 4), (4, "b", 5), (5, "a", 3))
# the start lies on the cycle 0-a->1-b->0, beside 2-a->3: a walk of nv - 1 = 3
# steps from the start goes round the cycle and stops at the end, 1
CYCLE_AT_THE_START = ((0, "a", 1), (1, "b", 0), (2, "a", 3))
NOT_TREES = (
    RawTree(2, ((0, "a", 1), (0, "b", 1)), 0, 1),
    RawTree(3, ((0, "a", 1), (1, "b", 2), (2, "c", 0)), 0, 1),
    RawTree(6, PATH_AND_CYCLE, 0, 2),
    RawTree(6, PATH_AND_CYCLE, 3, 3),
    RawTree(4, CYCLE_AT_THE_START, 0, 1),
)


@pytest.mark.parametrize("raw", NOT_TREES, ids=repr)
def test_a_graph_that_is_not_a_tree_is_refused(raw):
    for fn in (prune, trunk_path, trunk_factorization, canonical_encode, canonicalize):
        with pytest.raises(ValueError, match="not a tree"):
            fn(raw)


def test_trunk_path_and_factorization_match_their_oracles():
    rng = random.Random(3)
    trees = enumerate_trees("ab", 3)
    assert len(trees) == 259
    for t in trees:
        for raw in (t, _scrambled(t, rng)):
            assert trunk_path(raw) == prune_oracle.trunk_path(raw), raw
        assert trunk_factorization(t) == normalform_oracle.trunk_factorization(t), t
    backward = RawTree(2, ((1, "a", 0),), 0, 1)
    apart = RawTree(3, ((0, "a", 1),), 0, 2)
    for raw, message in ((backward, "trunk missing"), (apart, "not connected")):
        for fn in (trunk_path, prune_oracle.trunk_path):
            with pytest.raises(ValueError, match=message):
                fn(raw)
