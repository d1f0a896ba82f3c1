"""Bi-pointed edge-labeled trees and the pruned-tree monoid.

A raw tree has vertices 0..n-1, labeled directed edges, a start and an end
vertex, and must carry a directed start->end path (the *trunk*).  A *branch*
is everything on the non-trunkward side of a non-trunk edge.  A branch may
be deleted when the whole tree retracts onto its complement, i.e. when the
branch admits a label- and direction-preserving simulation into the rest of
the tree fixing the attachment vertex.  A tree is *pruned* when no branch
can be deleted.

Pruned trees form a monoid: ``S T`` glues end(S) to start(T) and prunes;
``T+`` re-points end := start; ``T*`` re-points start := end.  Pruned trees
in which every vertex is reachable from the start by a directed path are
the left-Ehresmann trees, closed under product and ``+``.

Equality of pruned trees is isomorphism of bi-pointed labeled trees; both
tree classes canonicalize vertex numbering from an AHU-style encoding
rooted at the start vertex, so ``==`` on canonical trees is isomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .words import Word

Edge = Tuple[int, str, int]


class ResourceGuardError(RuntimeError):
    """Raised when an enumeration exceeds its configured budget."""


@dataclass(frozen=True)
class RawTree:
    nv: int
    edges: Tuple[Edge, ...]
    start: int
    end: int

    def __post_init__(self):
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))

    def validate(self) -> None:
        n = self.nv
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        if len(self.edges) != n - 1:
            raise ValueError("a tree on n vertices has n-1 edges")
        for s, _, d in self.edges:
            if not (0 <= s < n and 0 <= d < n) or s == d:
                raise ValueError("bad edge endpoints")
        if not (0 <= self.start < n and 0 <= self.end < n):
            raise ValueError("start/end out of range")
        adj = _adjacency(self)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for _, _, w, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise ValueError("tree is not connected")
        trunk_path(self)  # raises if there is no directed start->end path

    def to_json(self) -> dict:
        return {
            "vertices": list(range(self.nv)),
            "edges": [{"from": s, "label": lab, "to": d} for s, lab, d in self.edges],
            "start": self.start,
            "end": self.end,
        }

    def to_dot(self) -> str:
        lines = ["digraph T {"]
        for v in range(self.nv):
            attrs = []
            if v == self.start:
                attrs.append('color="blue"')
            if v == self.end:
                attrs.append('shape="doublecircle"')
            lines.append(f"  {v} [{', '.join(attrs)}];" if attrs else f"  {v};")
        for s, lab, d in self.edges:
            lines.append(f'  {s} -> {d} [label="{lab}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        es = " ".join(f"{s}-{lab}->{d}" for s, lab, d in self.edges) or "."
        return f"<{type(self).__name__} {self.start}~>{self.end} {es}>"


@dataclass(frozen=True, repr=False)
class XTree(RawTree):
    """A pruned tree in canonical numbering; construct via prune()."""


def tree_from_json(data: dict, pruned: bool = False):
    t = RawTree(
        len(data["vertices"]),
        tuple((e["from"], e["label"], e["to"]) for e in data["edges"]),
        data["start"],
        data["end"],
    )
    t.validate()
    if pruned:
        p = prune(t)
        if len(p.edges) != len(t.edges):
            raise ValueError("tree is not pruned")
        return p
    return t


def _adjacency(t: RawTree) -> List[List[Tuple[str, int, int, int]]]:
    """adj[v] = list of (label, orient, other, edge_index); orient=+1 out of v."""
    adj: List[List[Tuple[str, int, int, int]]] = [[] for _ in range(t.nv)]
    for i, (s, lab, d) in enumerate(t.edges):
        adj[s].append((lab, 1, d, i))
        adj[d].append((lab, -1, s, i))
    return adj


def _rooted_children(t: RawTree, adj=None) -> Tuple[List[Optional[int]], List[List[Tuple[str, int, int, int]]]]:
    """Root at start; return (parent array, children[v] lists like adjacency)."""
    if adj is None:
        adj = _adjacency(t)
    parent: List[Optional[int]] = [None] * t.nv
    children: List[List[Tuple[str, int, int, int]]] = [[] for _ in range(t.nv)]
    order = [t.start]
    seen = {t.start}
    for v in order:
        for lab, o, w, i in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                children[v].append((lab, o, w, i))
                order.append(w)
    return parent, children


def trunk_path(t: RawTree) -> Tuple[Word, Tuple[int, ...], Tuple[int, ...]]:
    """The directed start->end path: (word, edge indices, vertex sequence)."""
    parent, _ = _rooted_children(t, None)
    path = [t.end]
    while path[-1] != t.start:
        p = parent[path[-1]]
        if p is None:
            raise ValueError("end not connected to start")
        path.append(p)
    path.reverse()
    pos = {(s, d): (lab, i) for i, (s, lab, d) in enumerate(t.edges)}
    word: List[str] = []
    eidx: List[int] = []
    for u, v in zip(path, path[1:]):
        if (u, v) not in pos:
            raise ValueError("no directed start->end path (trunk missing)")
        lab, i = pos[(u, v)]
        word.append(lab)
        eidx.append(i)
    return tuple(word), tuple(eidx), tuple(path)


def canonical_encode(t: RawTree, with_end: bool = True):
    """AHU-style code rooted at start; equal codes <=> isomorphic trees."""
    adj = _adjacency(t)

    def code(v: int, parent_edge: int):
        items = sorted(
            (lab, o, code(w, i)) for lab, o, w, i in adj[v] if i != parent_edge
        )
        flag = 1 if (with_end and v == t.end) else 0
        return (flag, tuple(items))

    return code(t.start, -1)


def canonicalize(t: RawTree):
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
    edges: List[Edge] = []

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
    cls = type(t)
    return cls(t.nv, tuple(sorted(edges)), newid[t.start], newid[t.end])


def _branch_vertices(t: RawTree, edge_index: int) -> Tuple[int, FrozenSet[int], FrozenSet[int]]:
    """(attach vertex, branch vertex set, branch edge set) of a non-trunk edge."""
    parent, children = _rooted_children(t)
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
    candidate branches are tried in shuffled order; the result is asserted
    order-independent by the test suite (a genuine counterexample would be
    a hard failure, not something to paper over).
    """
    cur: RawTree = RawTree(t.nv, t.edges, t.start, t.end)
    while True:
        if rng is None:
            cur = canonicalize(cur)
        _, trunk_edges, _ = trunk_path(cur)
        trunk_set = set(trunk_edges)
        adj = _adjacency(cur)
        _, children = _rooted_children(cur, adj)
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


def is_pruned(t: RawTree) -> bool:
    return len(prune(t).edges) == len(t.edges)


IDENTITY_TREE = XTree(1, (), 0, 0)


def letter_tree(x: str) -> XTree:
    return XTree(2, ((0, x, 1),), 0, 1)


def word_tree(w: Word) -> XTree:
    edges = tuple((i, x, i + 1) for i, x in enumerate(w))
    return XTree(len(w) + 1, edges, 0, len(w))


def raw_product(s: RawTree, t: RawTree) -> RawTree:
    """Glue end(s) = start(t); no pruning."""
    def tmap(v: int) -> int:
        if v == t.start:
            return s.end
        return s.nv + v - (1 if v > t.start else 0)

    edges = s.edges + tuple((tmap(a), lab, tmap(b)) for a, lab, b in t.edges)
    return RawTree(s.nv + t.nv - 1, edges, s.start, tmap(t.end))


def raw_plus(t: RawTree) -> RawTree:
    return RawTree(t.nv, t.edges, t.start, t.start)


def raw_star(t: RawTree) -> RawTree:
    return RawTree(t.nv, t.edges, t.end, t.end)


def tree_multiply(s: RawTree, t: RawTree) -> XTree:
    return prune(raw_product(s, t))


def tree_plus(t: RawTree) -> XTree:
    return prune(raw_plus(t))


def tree_star(t: RawTree) -> XTree:
    return prune(raw_star(t))


def is_idempotent(t: XTree) -> bool:
    return t.start == t.end


def directed_reachable(t: RawTree, source: Optional[int] = None) -> FrozenSet[int]:
    out: List[List[int]] = [[] for _ in range(t.nv)]
    for s, _, d in t.edges:
        out[s].append(d)
    seen = {t.start if source is None else source}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def is_left_ehresmann(t: RawTree) -> bool:
    """Every vertex reachable from the start by a directed path."""
    return len(directed_reachable(t)) == t.nv


def leq_nat(e: XTree, f: XTree) -> bool:
    """Natural order on idempotent trees: e <= f iff ef = e."""
    return tree_multiply(e, f) == e


def leq_Ltilde(s: XTree, t: XTree) -> bool:
    return tree_multiply(s, tree_star(t)) == s


def depth_undirected(t: RawTree) -> int:
    """Longest (necessarily simple) path in the tree starting at start."""
    adj = _adjacency(t)
    dist = {t.start: 0}
    order = [t.start]
    best = 0
    for v in order:
        for _, _, w, _ in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                best = max(best, dist[w])
                order.append(w)
    return best


def depth_directed(t: RawTree) -> int:
    """Longest directed path starting at start."""
    out: List[List[int]] = [[] for _ in range(t.nv)]
    for s, _, d in t.edges:
        out[s].append(d)
    memo: Dict[int, int] = {}

    def depth(v: int) -> int:
        if v not in memo:
            memo[v] = max((1 + depth(w) for w in out[v]), default=0)
        return memo[v]

    return depth(t.start)


def label_set(t: RawTree) -> FrozenSet[str]:
    return frozenset(lab for _, lab, _ in t.edges)


def trunk_word(t: RawTree) -> Word:
    return trunk_path(t)[0]


def trunk_factorization(t: XTree) -> Tuple[Tuple[XTree, ...], Word]:
    """Factor T = e_0 x_1 e_1 ... x_l e_l along the trunk.

    Returns (idempotents e_0..e_l, trunk word x_1..x_l); e_i is the
    idempotent tree of all branches hanging at the i-th trunk vertex.
    """
    word, trunk_edges, trunk_verts = trunk_path(t)
    trunk_set = set(trunk_edges)
    parent, children = _rooted_children(t)
    idems: List[XTree] = []
    for v in trunk_verts:
        verts = [v]
        edges: List[int] = []
        stack = [(v, True)]
        while stack:
            u, at_root = stack.pop()
            for _, _, w, i in children[u]:
                if at_root and i in trunk_set:
                    continue
                verts.append(w)
                edges.append(i)
                stack.append((w, False))
        newid = {u: k for k, u in enumerate(verts)}
        sub = RawTree(
            len(verts),
            tuple(
                (newid[t.edges[i][0]], t.edges[i][1], newid[t.edges[i][2]])
                for i in edges
            ),
            0,
            0,
        )
        idems.append(prune(sub))
    return tuple(idems), word


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
    t = RawTree(n_edges + 1, tuple(edges), 0, 0)
    start = rng.randrange(t.nv)
    reach = sorted(directed_reachable(t, start))
    end = rng.choice(reach)
    return RawTree(t.nv, t.edges, start, end)


def enumerate_trees(
    labels,
    max_edges: int,
    *,
    left_ehresmann_only: bool = False,
    max_directed_depth: Optional[int] = None,
    budget: int = 500_000,
) -> Tuple[XTree, ...]:
    """All pruned trees over `labels` with at most max_edges edges.

    Grows (tree, start) shapes one leaf edge at a time with canonical
    deduplication, then assigns every directed-reachable end vertex and
    keeps the trees that are their own pruning.  Monotone filters: only
    outgoing leaf edges when left_ehresmann_only, and a directed-depth cap.
    Raises ResourceGuardError when the intermediate state count exceeds
    `budget`.
    """
    labels = sorted(labels)
    seed = RawTree(1, (), 0, 0)
    levels: List[Dict[tuple, RawTree]] = [{canonical_encode(seed, with_end=False): seed}]
    total = 1
    for _ in range(max_edges):
        nxt: Dict[tuple, RawTree] = {}
        for t in levels[-1].values():
            for v in range(t.nv):
                for lab in labels:
                    orients = (1,) if left_ehresmann_only else (1, -1)
                    for o in orients:
                        e = (v, lab, t.nv) if o == 1 else (t.nv, lab, v)
                        cand = RawTree(t.nv + 1, t.edges + (e,), t.start, t.start)
                        if (
                            max_directed_depth is not None
                            and depth_directed(cand) > max_directed_depth
                        ):
                            continue
                        key = canonical_encode(cand, with_end=False)
                        if key not in nxt:
                            nxt[key] = cand
                            total += 1
                            if total > budget:
                                raise ResourceGuardError(
                                    f"tree enumeration exceeded budget {budget}"
                                )
        levels.append(nxt)

    out: Dict[tuple, XTree] = {}
    for level in levels:
        for t in level.values():
            for end in directed_reachable(t):
                cand = RawTree(t.nv, t.edges, t.start, end)
                total += 1
                if total > budget:
                    raise ResourceGuardError(f"tree enumeration exceeded budget {budget}")
                p = prune(cand)
                if len(p.edges) == len(cand.edges):
                    out.setdefault(canonical_encode(p), p)
    return tuple(sorted(out.values(), key=lambda x: (len(x.edges), canonical_encode(x))))
