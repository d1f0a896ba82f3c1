"""The restart-loop pruning algorithm, kept as a differential oracle.

``prune`` deletes one removable branch at a time and starts a fresh scan
after each deletion; every candidate builds its own branch sets, filtered
adjacency and simulation memo.  It is slow and recursive, but each step is
the definition: a branch goes when it admits a label- and direction-
preserving simulation into the rest of the tree fixing its attachment
vertex.  ``canonicalize`` is the recursive AHU renumbering it was paired
with.  ``ehresmann.xtree.prune`` must agree with it on every input.

The oracle roots trees with its own helpers: ``_rooted_children`` is a
plain BFS from the start, and ``trunk_path`` finds each trunk edge by
scanning the parent's children.  ``ehresmann.xtree.trunk_word`` must agree
with its word.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

from ehresmann.words import Word
from ehresmann.xtree import RawTree, XTree


def _adjacency(t: RawTree) -> List[List[Tuple[str, int, int, int]]]:
    """adj[v] = list of (label, orient, other, edge_index); orient=+1 out of v."""
    adj: List[List[Tuple[str, int, int, int]]] = [[] for _ in range(t.nv)]
    for i, (s, lab, d) in enumerate(t.edges):
        adj[s].append((lab, 1, d, i))
        adj[d].append((lab, -1, s, i))
    return adj


def _rooted_children(t: RawTree, adj=None):
    """Root at start: (parent array, children[v] lists like adjacency, BFS order)."""
    if adj is None:
        adj = _adjacency(t)
    parent: List[Optional[int]] = [None] * t.nv
    children: List[List[Tuple[str, int, int, int]]] = [[] for _ in range(t.nv)]
    order = [t.start]
    seen = [False] * t.nv
    seen[t.start] = True
    for v in order:
        for lab, o, w, i in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                children[v].append((lab, o, w, i))
                order.append(w)
    return parent, children, order


def trunk_path(t: RawTree) -> Tuple[Word, Tuple[int, ...], Tuple[int, ...]]:
    """The directed start->end path: (word, edge indices, vertex sequence)."""
    parent, children, _ = _rooted_children(t)
    word: List[str] = []
    eidx: List[int] = []
    path = [t.end]
    v = t.end
    while v != t.start:
        p = parent[v]
        if p is None:
            raise ValueError("end not connected to start")
        for lab, o, w, i in children[p]:
            if w == v:
                break
        if o != 1:
            raise ValueError("no directed start->end path (trunk missing)")
        word.append(lab)
        eidx.append(i)
        path.append(p)
        v = p
    return tuple(reversed(word)), tuple(reversed(eidx)), tuple(reversed(path))


def canonicalize(t: RawTree) -> RawTree:
    """Renumber vertices deterministically (preorder by sorted child codes)."""
    adj = _adjacency(t)
    codes: Dict[Tuple[int, int], tuple] = {}

    def code(v: int, parent_edge: int):
        if (v, parent_edge) in codes:
            return codes[(v, parent_edge)]
        items = sorted(
            (lab, o, code(w, i)) for lab, o, w, i in adj[v] if i != parent_edge
        )
        c = (1 if v == t.end else 0, tuple(items))
        codes[(v, parent_edge)] = c
        return c

    code(t.start, -1)
    newid: Dict[int, int] = {}
    edges: List[Tuple[int, str, int]] = []

    def visit(v: int, parent_edge: int):
        newid[v] = len(newid)
        kids = sorted(
            ((lab, o, codes[(w, i)], w, i) for lab, o, w, i in adj[v] if i != parent_edge),
        )
        for lab, o, _, w, i in kids:
            visit(w, i)
            if o == 1:
                edges.append((newid[v], lab, newid[w]))
            else:
                edges.append((newid[w], lab, newid[v]))

    visit(t.start, -1)
    return RawTree(t.nv, tuple(sorted(edges)), newid[t.start], newid[t.end])


def _branch_vertices(t: RawTree, edge_index: int) -> Tuple[int, FrozenSet[int], FrozenSet[int]]:
    """(attach vertex, branch vertex set, branch edge set) of a non-trunk edge."""
    parent, children, _ = _rooted_children(t)
    s, _, d = t.edges[edge_index]
    root = d if parent[d] == s else s
    attach = parent[root]
    verts = {root}
    stack = [root]
    edges = {edge_index}
    while stack:
        v = stack.pop()
        for _, _, w, i in children[v]:
            verts.add(w)
            edges.add(i)
            stack.append(w)
    return attach, frozenset(verts), frozenset(edges)


def _branch_removable(t: RawTree, edge_index: int, adj, children) -> bool:
    """Can the branch behind edge_index retract into the rest of the tree?"""
    attach, bverts, bedges = _branch_vertices(t, edge_index)
    s, lab, d = t.edges[edge_index]
    root, orient = (d, 1) if d in bverts else (s, -1)

    rest_adj = [
        [(l, o, w, i) for l, o, w, i in adj[v] if i not in bedges]
        for v in range(t.nv)
    ]

    memo: Dict[Tuple[int, int], bool] = {}

    def sim(bv: int, tv: int) -> bool:
        key = (bv, tv)
        if key in memo:
            return memo[key]
        ok = all(
            any(l2 == l and o2 == o and sim(bw, tw) for l2, o2, tw, _ in rest_adj[tv])
            for l, o, bw, _ in children[bv]
        )
        memo[key] = ok
        return ok

    return any(
        l2 == lab and o2 == orient and sim(root, tw)
        for l2, o2, tw, i in rest_adj[attach]
        if i != edge_index
    )


def _delete_branch(t: RawTree, edge_index: int) -> RawTree:
    _, bverts, bedges = _branch_vertices(t, edge_index)
    keep = [v for v in range(t.nv) if v not in bverts]
    newid = {v: k for k, v in enumerate(keep)}
    edges = tuple(
        (newid[s], lab, newid[d]) for i, (s, lab, d) in enumerate(t.edges) if i not in bedges
    )
    return RawTree(len(keep), edges, newid[t.start], newid[t.end])


def prune(t: RawTree, rng: Optional[random.Random] = None) -> XTree:
    """Delete removable branches until none remain, then canonicalize.

    The scan order is canonical unless an RNG is supplied, in which case
    candidate branches are tried in shuffled order.
    """
    cur: RawTree = RawTree(t.nv, t.edges, t.start, t.end)
    while True:
        if rng is None:
            cur = canonicalize(cur)
        _, trunk_edges, _ = trunk_path(cur)
        trunk_set = set(trunk_edges)
        adj = _adjacency(cur)
        _, children, _ = _rooted_children(cur, adj)
        candidates = [i for i in range(len(cur.edges)) if i not in trunk_set]
        if rng is not None:
            rng.shuffle(candidates)
        for i in candidates:
            if _branch_removable(cur, i, adj, children):
                cur = _delete_branch(cur, i)
                break
        else:
            c = canonicalize(cur)
            return XTree(c.nv, c.edges, c.start, c.end)
