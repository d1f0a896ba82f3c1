"""Reference computations that do not use the package under test.

Trees are read through four attributes only (``nv``, ``edges``, ``start``,
``end``; an edge is ``(source, label, target)``), so the checks keep working
when the package changes how it numbers or stores vertices.

* ``fold`` maps a bi-pointed tree to the free inverse monoid: every vertex
  gets the reduced group word of its path from the start.  Pruning and
  tree products commute with folding, so a folded result can be compared
  with the fold of the raw input or with the product of the folded inputs.
* ``trunk`` reads the directed start->end path, which pruning must keep.
* ``digest`` is an isomorphism-invariant AHU code of a tree, hashed, for
  comparison with recorded outputs.
"""

from __future__ import annotations

import hashlib
from typing import FrozenSet, Iterable, List, Optional, Tuple

GroupWord = Tuple[Tuple[str, int], ...]
Folded = Tuple[FrozenSet[GroupWord], GroupWord]


def gmul(g: GroupWord, h: GroupWord) -> GroupWord:
    """Product of two reduced group words."""
    k = 0
    while k < len(g) and k < len(h) and g[-1 - k][0] == h[k][0] and g[-1 - k][1] == -h[k][1]:
        k += 1
    return g[: len(g) - k] + h[k:]


def _neighbours(tree) -> List[List[Tuple[str, int, int]]]:
    adj: List[List[Tuple[str, int, int]]] = [[] for _ in range(tree.nv)]
    for s, lab, d in tree.edges:
        adj[s].append((lab, 1, d))
        adj[d].append((lab, -1, s))
    return adj


def fold(tree) -> Folded:
    """(set of vertex words, word of the end vertex) in the free inverse monoid."""
    adj = _neighbours(tree)
    word: List[Optional[GroupWord]] = [None] * tree.nv
    word[tree.start] = ()
    queue = [tree.start]
    for v in queue:
        for lab, o, w in adj[v]:
            if word[w] is None:
                word[w] = gmul(word[v], ((lab, o),))
                queue.append(w)
    if any(wd is None for wd in word):
        raise ValueError("tree is not connected")
    return frozenset(word), word[tree.end]


def fold_multiply(p: Folded, q: Folded) -> Folded:
    aset, a = p
    bset, b = q
    return aset | frozenset(gmul(a, x) for x in bset), gmul(a, b)


def trunk(tree) -> Tuple[str, ...]:
    """Labels of the start->end path; raises if an edge on it points backwards."""
    adj = _neighbours(tree)
    back: List[Optional[Tuple[int, str, int]]] = [None] * tree.nv
    seen = [False] * tree.nv
    seen[tree.start] = True
    queue = [tree.start]
    for v in queue:
        for lab, o, w in adj[v]:
            if not seen[w]:
                seen[w] = True
                back[w] = (v, lab, o)
                queue.append(w)
    labels: List[str] = []
    v = tree.end
    while v != tree.start:
        u, lab, o = back[v]
        if o != 1:
            raise ValueError("trunk edge points towards the start")
        labels.append(lab)
        v = u
    return tuple(reversed(labels))


def is_left_ehresmann(tree) -> bool:
    """Every vertex is reachable from the start along directed edges."""
    out: List[List[int]] = [[] for _ in range(tree.nv)]
    for s, _, d in tree.edges:
        out[s].append(d)
    seen = {tree.start}
    stack = [tree.start]
    while stack:
        for w in out[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == tree.nv


def ahu_code(tree) -> str:
    """Canonical string of a bi-pointed labeled tree, rooted at the start."""
    adj = _neighbours(tree)
    parent = [-1] * tree.nv
    order = [tree.start]
    seen = [False] * tree.nv
    seen[tree.start] = True
    for v in order:
        for _, _, w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    code: List[str] = [""] * tree.nv
    for v in reversed(order):
        kids = sorted(
            f"{lab}{'+' if o == 1 else '-'}{code[w]}"
            for lab, o, w in adj[v]
            if w != parent[v]
        )
        code[v] = ("E" if v == tree.end else "") + "(" + "".join(kids) + ")"
    return code[tree.start]


def digest_text(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def digest(tree) -> str:
    return digest_text(ahu_code(tree))


def digest_trees(trees: Iterable) -> str:
    return digest_text(" ".join(sorted(digest(t) for t in trees)))
