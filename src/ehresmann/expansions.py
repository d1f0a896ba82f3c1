"""Graph and set expansions of a group.

* Margolis-Meakin pairs M(F, X): (P, g) with P a finite connected subgraph
  of the Cayley graph of the free group F (w.r.t. generators X) containing
  the vertex 1, and g a vertex of P.  This is isomorphic to the free inverse
  monoid, witnessed by mm_to_munn / munn_to_mm.
* Szendrei pairs Sz(G): (A, g) with A a finite subset of G containing 1
  and g, an inverse sub-monoid of S(G) that uses S(G)'s product.
* Size-truncated quotients Q_n(Z) of the power-set semidirect product S(Z):
  a set component of size >= n collapses to a distinguished Top symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

from . import words
from .psdp import PSetElement
from .scheiblich import F, MunnElement
from .words import GroupWord

CayleyEdge = Tuple[GroupWord, str]  # (source vertex h, generator x): edge h --x--> hx


@dataclass(frozen=True)
class CayleySubgraph:
    """A finite connected subgraph of Cay(F, X) containing the vertex 1."""

    vertices: FrozenSet[GroupWord]
    edges: FrozenSet[CayleyEdge]


@dataclass(frozen=True)
class MMElement:
    graph: CayleySubgraph
    point: GroupWord

    def __post_init__(self):
        if self.point not in self.graph.vertices:
            raise ValueError("point must be a vertex")

    def __repr__(self) -> str:
        es = sorted(
            f"{words.format_group_word(h)}--{x}" for h, x in self.graph.edges
        )
        return f"MM({es}, {words.format_group_word(self.point)})"


def mm_identity() -> MMElement:
    return MMElement(CayleySubgraph(frozenset({words.GEMPTY}), frozenset()), words.GEMPTY)


def mm_generator(x: str) -> MMElement:
    one, gen = words.GEMPTY, ((x, 1),)
    return MMElement(CayleySubgraph(frozenset({one, gen}), frozenset({(one, x)})), gen)


def mm_multiply(p: MMElement, q: MMElement) -> MMElement:
    g = p.point
    verts = p.graph.vertices | frozenset(words.gmul(g, v) for v in q.graph.vertices)
    edges = p.graph.edges | frozenset((words.gmul(g, h), x) for h, x in q.graph.edges)
    return MMElement(CayleySubgraph(verts, edges), words.gmul(g, q.point))


def mm_inverse(p: MMElement) -> MMElement:
    gi = words.ginv(p.point)
    verts = frozenset(words.gmul(gi, v) for v in p.graph.vertices)
    edges = frozenset((words.gmul(gi, h), x) for h, x in p.graph.edges)
    return MMElement(CayleySubgraph(verts, edges), gi)


def mm_plus(p: MMElement) -> MMElement:
    return MMElement(p.graph, words.GEMPTY)


def mm_star(p: MMElement) -> MMElement:
    return mm_plus(mm_inverse(p))


def mm_to_munn(p: MMElement) -> MunnElement:
    """Over the free group the vertex set is prefix-closed: forget edges."""
    return MunnElement(F, p.graph.vertices, p.point)


def munn_to_mm(p: MunnElement) -> MMElement:
    """Rebuild the (unique) connected Cayley subgraph on a prefix-closed set.

    The Cayley graph of a free group is a tree: each non-empty reduced word
    g is joined to its parent g[:-1] by one edge, that of its last letter
    (x, s), which is (g[:-1], x) if s = +1 and (g, x) if s = -1 (then
    g x = g[:-1]).  The set is prefix-closed, so it holds every parent, and
    these are all the edges between its words; no product is computed."""
    edges = frozenset(
        (g[:-1], g[-1][0]) if g[-1][1] == 1 else (g, g[-1][0]) for g in p.elems if g
    )
    return MMElement(CayleySubgraph(p.elems, edges), p.point)


@dataclass(frozen=True, repr=False)
class SzElement(PSetElement):
    """(A, g) with 1, g in A; multiplies and inverts in S(G) (``psdp``)."""

    def __post_init__(self):
        super().__post_init__()
        if self.base.identity() not in self.elems or self.point not in self.elems:
            raise ValueError("set must contain 1 and the point")

    def to_json(self) -> dict:
        return {"point": repr(self.point), "set": sorted(repr(e) for e in self.elems)}


class _Top:
    """Distinguished absorbing set symbol of Q_n."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Top"


TOP = _Top()


@dataclass(frozen=True)
class QnElement:
    """Image of (X, x) in Q_n(Z): X literal if |X| < n, else Top."""

    n: int
    elems: Union[FrozenSet[int], _Top]
    point: int

    def __post_init__(self):
        if self.elems is not TOP and len(self.elems) >= self.n:
            object.__setattr__(self, "elems", TOP)

    def __repr__(self) -> str:
        return f"Qn({self.elems!r}, {self.point!r})"

    def to_json(self) -> dict:
        return {"set": "Top" if self.elems is TOP else sorted(self.elems), "point": self.point}


def qn_identity(n: int) -> QnElement:
    return QnElement(n, frozenset(), 0)


def qn_from_sdp(p: PSetElement, n: int) -> QnElement:
    return QnElement(n, p.elems, p.point)


def qn_multiply(p: QnElement, q: QnElement) -> QnElement:
    if p.n != q.n:
        raise ValueError("mixed Q_n quotients")
    g = p.point
    if p.elems is TOP or q.elems is TOP:
        elems: Union[FrozenSet[int], _Top] = TOP
    else:
        elems = p.elems | frozenset(g + e for e in q.elems)
    return QnElement(p.n, elems, g + q.point)


def qn_inverse(p: QnElement) -> QnElement:
    gi = -p.point
    if p.elems is TOP:
        return QnElement(p.n, TOP, gi)
    return QnElement(p.n, frozenset(gi + e for e in p.elems), gi)


def qn_star(p: QnElement) -> QnElement:
    return qn_plus(qn_inverse(p))


def qn_plus(p: QnElement) -> QnElement:
    return QnElement(p.n, p.elems, 0)
