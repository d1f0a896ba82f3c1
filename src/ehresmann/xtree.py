"""Bi-pointed edge-labeled trees and the pruned-tree monoid.

A raw tree has vertices 0..n-1, labeled directed edges, a start and an end
vertex, and must carry a directed start->end path (the *trunk*).  A *branch*
is everything on the non-trunkward side of a non-trunk edge.  A branch may
be deleted when the whole tree retracts onto its complement, i.e. when the
branch admits a label- and direction-preserving simulation into the rest of
the tree fixing the attachment vertex.  A tree is *pruned* when no branch
can be deleted.  ``prune`` finds all deletable branches in one top-down pass
over the tree rooted at the start, with one memoized simulation relation on
the input tree shared by every candidate (its docstring says why one pass
suffices); the restart-loop definition is kept in the tests as an oracle
(``tests/prune_oracle.py``).  Every function here that needs the tree
rooted at its start roots it in one BFS (``_rooted``), which records each
vertex's parent edge, so the trunk is read up the parent pointers from the
end; ``scheiblich.munn_of_tree`` folds a tree over the same rooting.  An
adjacency or rooted entry is (label, orient, vertex), orient +1 for an
edge out of the vertex it is listed at.  ``prune`` builds codes only when
its result branches: a pruned path is numbered in BFS order, which is then
its preorder, and an input that is one directed start->end path is not
rooted at all.  An input that is not a tree raises ValueError.
``trunk_factorization`` cuts a pruned tree into the idempotent bundles of
branches at its trunk vertices without pruning again; the factorization
that prunes every bundle is kept in ``tests/normalform_oracle.py``.

Pruned trees form a monoid: ``S T`` glues end(S) to start(T) and prunes;
``T+`` re-points end := start; ``T*`` re-points start := end.  A product
of n factors glues all of them and prunes once (``tree_product``): the
pruned retract of a tree is unique, so this equals any bracketing of
two-factor products.  The same holds for a whole term: it is glued and
re-pointed raw and pruned once.  ``structures.Structure.eval`` builds that
raw tree as one edge list and argues that it is the one ``raw_product``,
``raw_plus`` and ``raw_star`` would glue.  Pruned trees in which every
vertex is reachable from the start by a directed path are the
left-Ehresmann trees, closed under product and ``+``.

Equality of pruned trees is isomorphism of bi-pointed labeled trees; both
tree classes canonicalize vertex numbering from an AHU-style encoding
rooted at the start vertex, so ``==`` on canonical trees is isomorphism.
Encoding, canonical numbering, pruning and depth keep their own stacks, so
deep trees (a 10,000-edge word tree) do not hit the recursion limit; only
sorting two deep sibling codes with a long common prefix still recurses,
inside the interpreter's tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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

    def to_json(self) -> dict:
        return {
            "edges": [{"from": s, "label": lab, "to": d} for s, lab, d in self.edges],
            "end": self.end,
            "start": self.start,
            "vertices": list(range(self.nv)),
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


def _adjacency(t: RawTree) -> List[List[Tuple[str, int, int]]]:
    """adj[v] = list of (label, orient, vertex), one per edge at v: vertex is
    the edge's other end, and orient is +1 when the edge leaves v.

    Raises ValueError unless there are nv - 1 edges (``_rooted`` checks
    that they connect every vertex, so that the input is a tree).
    """
    e = len(t.edges)
    if e != t.nv - 1:
        problem = "not connected" if e < t.nv - 1 else "has a cycle"
        raise ValueError(f"not a tree ({problem}): {e} edges on {t.nv} vertices")
    adj: List[List[Tuple[str, int, int]]] = [[] for _ in range(t.nv)]
    for s, lab, d in t.edges:
        adj[s].append((lab, 1, d))
        adj[d].append((lab, -1, s))
    return adj


def _rooted(adj, start: int):
    """Root the tree at `start` in one BFS: (parent, up, children, order).

    children[v] lists v's entries (label, orient, vertex) of adj that lead
    away from the start, and up[v] is v's own entry in the list of its
    parent parent[v]; at the start up[v] is None and parent[v] is -1.
    order is the BFS order, parents first.  Raises ValueError when some
    vertex is not reached.
    """
    n = len(adj)
    parent = [-1] * n
    up: List[Optional[Tuple[str, int, int]]] = [None] * n
    children: List[List[Tuple[str, int, int]]] = [[] for _ in range(n)]
    order = [start]
    seen = bytearray(n)
    seen[start] = 1
    for v in order:
        kids = children[v]
        for k in adj[v]:
            w = k[2]
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                up[w] = k
                kids.append(k)
                order.append(w)
    if len(order) != n:
        raise ValueError(f"not a tree (not connected): {n - len(order)} vertices not reached")
    return parent, up, children, order


def _trunk(t: RawTree, parent, up) -> List[Tuple[str, int, int]]:
    """The trunk's edges as rooted entries (label, orient, vertex), read up
    the parent pointers from the end back to the start."""
    path = []
    v = t.end
    while v != t.start:
        k = up[v]
        if k[1] != 1:
            raise ValueError("no directed start->end path (trunk missing)")
        path.append(k)
        v = parent[v]
    path.reverse()
    return path


_LEAF = (0, ())
_END_LEAF = (1, ())


def _codes(order, children, end: int) -> list:
    """AHU codes, bottom-up over `order` (parents before children).

    code[v] = (1 if v is the end else 0, sorted (label, orient, child code));
    equal codes <=> isomorphic subtrees.  Each children[v] is sorted in place
    into that order, which is the order of the canonical numbering.  A leaf
    or a vertex with one child needs no sort.
    """
    code: list = [None] * len(children)
    for v in reversed(order):
        kids = children[v]
        if not kids:
            code[v] = _END_LEAF if v == end else _LEAF
        elif len(kids) == 1:
            lab, o, w = kids[0]
            code[v] = (1 if v == end else 0, ((lab, o, code[w]),))
        else:
            kids.sort(key=lambda k: (k[0], k[1], code[k[2]]))
            code[v] = (1 if v == end else 0, tuple([(lab, o, code[w]) for lab, o, w in kids]))
    return code


def _preorder(start: int, children) -> List[int]:
    """The vertices below `start` in preorder over the (sorted) children."""
    pre: List[int] = []
    stack = [start]
    while stack:
        v = stack.pop()
        while True:  # down the first children, leaving the later ones on the stack
            pre.append(v)
            kids = children[v]
            if not kids:
                break
            if len(kids) > 1:
                stack.extend([k[2] for k in kids[:0:-1]])
            v = kids[0][2]
    return pre


def _numbered(cls, pre: List[int], end: int, children, newid: List[int]):
    """The tree on the preorder `pre` (its root first), renumbered in that order.

    `newid` is scratch space indexed by old vertex; only the entries of
    `pre` are written and read.
    """
    for k, v in enumerate(pre):
        newid[v] = k
    edges = [
        (newid[v], lab, newid[w]) if o == 1 else (newid[w], lab, newid[v])
        for v in pre
        for lab, o, w in children[v]
    ]
    edges.sort()
    return cls(len(pre), tuple(edges), 0, newid[end])


def canonical_encode(t: RawTree):
    """AHU-style code rooted at start; equal codes <=> isomorphic trees."""
    _, _, children, order = _rooted(_adjacency(t), t.start)
    return _codes(order, children, t.end)[t.start]


def canonicalize(t: RawTree):
    """Renumber vertices deterministically (preorder by sorted child codes)."""
    _, _, children, order = _rooted(_adjacency(t), t.start)
    _codes(order, children, t.end)
    return _numbered(type(t), _preorder(t.start, children), t.end, children, [0] * t.nv)


def _simulation(adj, children):
    """sim(v, w): the subtree below v maps into the tree with v -> w.

    The map keeps labels and orientations; children[v] is the subtree's
    rooted structure and adj the whole tree.  Results are memoized, and the
    table of w's neighbours by (label, orient) is built the first time w is
    a target.  The search keeps its own stack, so depth is bounded by
    memory, not by the interpreter's recursion limit.
    """
    n = len(adj)
    # step[w][(label, orient)]: the neighbours of w along such an edge
    step: List[Optional[Dict[Tuple[str, int], List[int]]]] = [None] * n
    memo: Dict[int, bool] = {}

    def sim(v0: int, w0: int) -> bool:
        got = memo.get(v0 * n + w0)
        if got is not None:
            return got
        # frame: [v, w, index of the child being matched, its candidates, candidate index]
        stack = [[v0, w0, 0, None, 0]]
        ans = None  # verdict of the frame just popped, for the frame below it
        while stack:
            f = stack[-1]
            v, w, k, cands, j = f
            kids = children[v]
            if ans is not None:
                if ans:
                    k, cands = k + 1, None
                else:
                    j += 1
                ans = None
            call = None
            while k < len(kids):
                lab, o, c = kids[k]
                if cands is None:
                    table = step[w]
                    if table is None:
                        table = step[w] = {}
                        for l2, o2, x in adj[w]:
                            if (l2, o2) in table:
                                table[l2, o2].append(x)
                            else:
                                table[l2, o2] = [x]
                    cands, j = table.get((lab, o), ()), 0
                while j < len(cands):
                    got = True if not children[c] else memo.get(c * n + cands[j])
                    if got is None:
                        call = cands[j]
                        break
                    if got:
                        break
                    j += 1
                if call is not None or j == len(cands):
                    break
                k, cands = k + 1, None
            if call is not None:
                f[2], f[3], f[4] = k, cands, j
                stack.append([c, call, 0, None, 0])
                continue
            ans = k == len(kids)
            memo[v * n + w] = ans
            stack.pop()
        return ans

    return sim


def _path_word(t: RawTree) -> Optional[Word]:
    """The word along `t` when `t` is one directed start->end path, else None.

    Each vertex must have at most one out-edge and one in-edge, the start
    none, and the walk from the start must reach the end in nv - 1 steps.
    A vertex is entered only along its in-edge, so the walk meets nv
    distinct vertices and uses every edge; a cycle or a second component
    fails it.  A path from the start to itself has no edge.
    """
    nv = t.nv
    if len(t.edges) != nv - 1 or (t.start == t.end and nv > 1):
        return None
    out: List[Optional[Edge]] = [None] * nv
    entered = bytearray(nv)
    for e in t.edges:
        if out[e[0]] is not None or entered[e[2]]:
            return None
        out[e[0]] = e
        entered[e[2]] = 1
    if entered[t.start]:
        return None
    word = []
    v = t.start
    for _ in range(nv - 1):
        e = out[v]
        if e is None:
            return None
        word.append(e[1])
        v = e[2]
    return tuple(word) if v == t.end else None


def prune(t: RawTree) -> XTree:
    """Delete every removable branch in one top-down pass, then canonicalize.

    A directed start->end path (``_path_word``) is returned as its word
    tree, its canonical numbering, since it has no branch to delete.

    Rooted at the start, the branch behind a non-trunk edge (attach a, root
    r) is deleted iff another live edge at a with the same label and
    orientation leads to a vertex w with sim(r, w): the subtree below r maps
    into the *input* tree, keeping labels and orientations, with r -> w.
    One memo of sim serves all candidates, and one pass is enough:

    * The walk is top-down, so when r is tested nothing below r has been
      deleted, and its subtree is the input's.  The current tree is a
      retract of the input (each deletion is a retraction), so a map into
      the input, composed with that retraction, is a map into the current
      tree that still sends r to the live w.  A map into the current tree
      with r -> w, w a neighbour of a outside the branch, extends by the
      identity to an endomorphism; each application brings a branch
      vertex that stays in the branch two steps closer to a, so a power of
      it maps the branch into the rest of the tree.  Hence sim on the
      input decides removability in the current tree, for every r tested.
    * Removability only turns from true to false as other branches go:
      if the branch is removable after a deletion, the map that removes
      it, composed with the retraction that made the deletion, maps the
      branch into the rest of the larger tree, fixing a.  An edge kept
      when it is reached is never removable later, so no rescan is needed
      and the result is the unique pruned retract.

    The tree is rooted once, in one BFS from the start that also records
    each vertex's parent edge, so the trunk is read up the parent pointers
    from the end.  When no live vertex keeps two children the result is a
    path: its BFS order is its preorder, and no codes are built.

    The test suite checks the result against the restart-loop algorithm,
    which deletes one removable branch at a time, in a fixed and in a
    shuffled order.  An input that is not a tree raises ValueError.
    """
    word = _path_word(t)
    if word is not None:
        return word_tree(word)
    adj = _adjacency(t)
    parent, up, children, order = _rooted(adj, t.start)
    on_trunk = bytearray(t.nv)
    for k in _trunk(t, parent, up):
        on_trunk[k[2]] = 1
    sim = None  # built at the first candidate that has a witness edge
    dead = bytearray(t.nv)
    live: List[int] = []
    branched = False  # some live vertex keeps two children
    for v in order:
        kids = children[v]
        if dead[v]:
            for k in kids:
                dead[k[2]] = 1
            continue
        live.append(v)
        if not kids:
            continue
        # the edge from v to its parent, seen from v, is (u[0], -u[1])
        u = up[v]
        removed = False
        for lab, o, r in kids:
            if on_trunk[r]:
                continue
            witnesses = [w for l2, o2, w in kids if l2 == lab and o2 == o and w != r and not dead[w]]
            if u is not None and u[0] == lab and u[1] == -o:
                witnesses.append(parent[v])
            if not witnesses:
                continue
            if sim is None:
                sim = _simulation(adj, children)
            for w in witnesses:
                if sim(r, w):
                    dead[r] = 1
                    removed = True
                    break
        if removed:
            kids = children[v] = [k for k in kids if not dead[k[2]]]
        if len(kids) > 1:
            branched = True
    if branched:
        _codes(live, children, t.end)
        live = _preorder(t.start, children)
    return _numbered(XTree, live, t.end, children, [0] * t.nv)


IDENTITY_TREE = XTree(1, (), 0, 0)


def letter_tree(x: str) -> XTree:
    return XTree(2, ((0, x, 1),), 0, 1)


def word_tree(w: Word) -> XTree:
    edges = tuple((i, x, i + 1) for i, x in enumerate(w))
    return XTree(len(w) + 1, edges, 0, len(w))


def raw_product(*factors: RawTree) -> RawTree:
    """Glue the end of each factor to the start of the next; no pruning.

    The first factor keeps its numbering; each later one is appended with
    its start identified with the running end.  No factors give the
    one-vertex tree.
    """
    if not factors:
        return RawTree(1, (), 0, 0)
    first = factors[0]
    edges = list(first.edges)
    nv, end = first.nv, first.end
    for t in factors[1:]:
        new = [nv + v - (v > t.start) for v in range(t.nv)]
        new[t.start] = end
        edges += [(new[a], lab, new[b]) for a, lab, b in t.edges]
        nv, end = nv + t.nv - 1, new[t.end]
    return RawTree(nv, tuple(edges), first.start, end)


def raw_plus(t: RawTree) -> RawTree:
    """T re-pointed end := start; no pruning (``prune`` of it is ``T+``)."""
    return RawTree(t.nv, t.edges, t.start, t.start)


def raw_star(t: RawTree) -> RawTree:
    """T re-pointed start := end; no pruning (``prune`` of it is ``T*``)."""
    return RawTree(t.nv, t.edges, t.end, t.end)


def tree_multiply(s: RawTree, t: RawTree) -> XTree:
    return prune(raw_product(s, t))


def tree_product(factors: Iterable[RawTree]) -> XTree:
    """f1 f2 ... fn with one prune of the glued tree.

    Equal to folding ``tree_multiply`` over the factors: a prune deletes
    branches off the trunk, so it is a retraction fixing the end, and it
    extends by the identity to the factors glued after it.  Every partial
    product is thus glued from a retract of the full raw tree, and a tree
    and its retracts have one pruned retract, unique up to isomorphism.
    No factors give the identity.
    """
    return prune(raw_product(*factors))


def tree_plus(t: RawTree) -> XTree:
    return prune(raw_plus(t))


def tree_star(t: RawTree) -> XTree:
    return prune(raw_star(t))


def is_idempotent(t: XTree) -> bool:
    return t.start == t.end


def _directed_depths(t: RawTree) -> Dict[int, int]:
    """Directed distance from the start to each vertex it reaches: one BFS
    over out-edges that enters each vertex once, so a directed cycle ends it."""
    out: List[List[int]] = [[] for _ in range(t.nv)]
    for s, _, d in t.edges:
        out[s].append(d)
    depth = {t.start: 0}
    order = [t.start]
    for v in order:
        dw = depth[v] + 1
        for w in out[v]:
            if w not in depth:
                depth[w] = dw
                order.append(w)
    return depth


def directed_reachable(t: RawTree) -> FrozenSet[int]:
    return frozenset(_directed_depths(t))


def is_left_ehresmann(t: RawTree) -> bool:
    """Every vertex reachable from the start by a directed path."""
    return len(_directed_depths(t)) == t.nv


def leq_nat(e: XTree, f: XTree) -> bool:
    """Natural order on idempotent trees: e <= f iff ef = e."""
    return tree_multiply(e, f) == e


def depth_directed(t: RawTree) -> int:
    """Longest directed path starting at start."""
    return max(_directed_depths(t).values())


def label_set(t: RawTree) -> FrozenSet[str]:
    return frozenset(lab for _, lab, _ in t.edges)


def trunk_word(t: RawTree) -> Word:
    parent, up, _, _ = _rooted(_adjacency(t), t.start)
    return tuple([k[0] for k in _trunk(t, parent, up)])


def trunk_factorization(t: XTree) -> Tuple[Tuple[XTree, ...], Word]:
    """Factor T = e_0 x_1 e_1 ... x_l e_l along the trunk.

    Returns (idempotents e_0..e_l, trunk word x_1..x_l); e_i is the
    idempotent tree of all branches hanging at the i-th trunk vertex v_i.
    T is rooted and coded once, and each e_i is numbered straight from T's
    sorted children, without v_i's trunk child; no bundle is pruned:

    * A branch of e_i is a branch of T, and a map of it into the rest of
      e_i is a map into the rest of T.  So a removable branch of e_i would
      be removable in T, and every bundle of a pruned T is already pruned.
    * The codes below v_i are T's own codes (T's end is on the trunk, not
      in a branch), and dropping the trunk child from v_i's sorted children
      leaves them sorted.  So T's children give e_i the canonical
      numbering that ``prune`` would.
    """
    parent, up, children, order = _rooted(_adjacency(t), t.start)
    path = _trunk(t, parent, up)
    word = tuple([k[0] for k in path])
    trunk_verts = (t.start,) + tuple([k[2] for k in path])
    _codes(order, children, t.end)
    newid = [0] * t.nv
    idems: List[XTree] = []
    for v, nxt in zip(trunk_verts, trunk_verts[1:] + (None,)):
        children[v] = [k for k in children[v] if k[2] != nxt]
        idems.append(_numbered(XTree, _preorder(v, children), v, children, newid))
    return tuple(idems), word


def enumeration_order(t: RawTree):
    """The order of enumerate_trees: edge count, then canonical code."""
    return (len(t.edges), canonical_encode(t))


def enumerate_trees(
    labels,
    max_edges: int,
    *,
    left_ehresmann_only: bool = False,
    budget: int = 500_000,
) -> Tuple[XTree, ...]:
    """All pruned trees over `labels` with at most max_edges edges.

    Grows (tree, start) shapes one leaf edge at a time with canonical
    deduplication, then assigns every directed-reachable end vertex and
    keeps the trees that are their own pruning.  With left_ehresmann_only,
    only outgoing leaf edges are grown.  The result is in
    enumeration_order.  Raises ResourceGuardError when the intermediate
    state count exceeds `budget`.
    """
    labels = sorted(labels)
    seed = RawTree(1, (), 0, 0)
    levels: List[Dict[tuple, RawTree]] = [{canonical_encode(seed): seed}]
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
                        key = canonical_encode(cand)
                        if key not in nxt:
                            nxt[key] = cand
                            total += 1
                            if total > budget:
                                raise ResourceGuardError(
                                    f"tree enumeration exceeded budget {budget}"
                                )
        levels.append(nxt)

    # an XTree in canonical numbering is its own isomorphism key
    out: Set[XTree] = set()
    for level in levels:
        for t in level.values():
            for end in directed_reachable(t):
                cand = RawTree(t.nv, t.edges, t.start, end)
                total += 1
                if total > budget:
                    raise ResourceGuardError(f"tree enumeration exceeded budget {budget}")
                p = prune(cand)
                if len(p.edges) == len(cand.edges):
                    out.add(p)
    return tuple(sorted(out, key=enumeration_order))
