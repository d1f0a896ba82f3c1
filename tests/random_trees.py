"""Random raw trees for the tests: seeded, and as a hypothesis strategy.

``random_raw_tree`` draws from its ``random.Random`` in a fixed order, so a
seed always gives the same trees.  ``raw_trees`` draws trees of up to
``max_edges`` edges, with a random start and an end reachable from it.
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import strategies as st

from ehresmann.xtree import Edge, RawTree, directed_reachable


def random_raw_tree(rng: random.Random, labels, n_edges: int) -> RawTree:
    """A random bi-pointed labeled tree (end picked among reachable vertices)."""
    labels = list(labels)
    edges: List[Edge] = []
    for v in range(1, n_edges + 1):
        anchor = rng.randrange(v)
        lab = rng.choice(labels)
        if rng.random() < 0.5:
            edges.append((anchor, lab, v))
        else:
            edges.append((v, lab, anchor))
    start = rng.randrange(n_edges + 1)
    t = RawTree(n_edges + 1, tuple(edges), start, start)
    end = rng.choice(sorted(directed_reachable(t)))
    return RawTree(t.nv, t.edges, start, end)


@st.composite
def raw_trees(draw, labels="abc", max_edges=40):
    n = draw(st.integers(0, max_edges))
    edges = []
    for v in range(1, n + 1):
        anchor = draw(st.integers(0, v - 1))
        lab = draw(st.sampled_from(labels))
        edges.append((anchor, lab, v) if draw(st.booleans()) else (v, lab, anchor))
    t = RawTree(n + 1, tuple(edges), draw(st.integers(0, n)), 0)
    end = draw(st.sampled_from(sorted(directed_reachable(t))))
    return RawTree(t.nv, t.edges, t.start, end)
