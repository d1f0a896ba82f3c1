"""Graph and set expansions of a group.

* Margolis-Meakin style pairs M(G, X): (P, g) with P a finite connected
  subgraph of the Cayley graph of G (w.r.t. generators X) containing the
  vertex 1, and g a vertex of P.  Over the free group this is isomorphic
  to the free inverse monoid, witnessed by mm_to_munn / munn_to_mm.
* Szendrei pairs Sz(G): (A, g) with A a finite subset of G containing 1
  and g, an inverse sub-monoid of S(G) that uses S(G)'s product.
* Size-truncated quotients Q_n(G) of the power-set semidirect product:
  a set component of size >= n collapses to a distinguished Top symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Tuple, Union

from . import words
from .psdp import BaseMonoid, PSetElement
from .scheiblich import MunnElement
from .words import GroupWord

CayleyEdge = Tuple[Any, str]  # (source vertex h, generator x): edge h --x--> hx


@dataclass(frozen=True)
class CayleySubgraph:
    """A finite connected subgraph of Cay(G, X) containing the vertex 1."""

    base: BaseMonoid
    vertices: FrozenSet[Any]
    edges: FrozenSet[CayleyEdge]


def _step(base: BaseMonoid, h: Any, x: str) -> Any:
    """The head h.x of the Cayley edge (h, x)."""
    gen: GroupWord = ((x, 1),)
    return base.multiply(h, gen)


@dataclass(frozen=True)
class MMElement:
    graph: CayleySubgraph
    point: Any

    def __post_init__(self):
        if self.point not in self.graph.vertices:
            raise ValueError("point must be a vertex")

    def __repr__(self) -> str:
        es = sorted(
            f"{words.format_group_word(h)}--{x}" for h, x in self.graph.edges
        )
        return f"MM({es}, {words.format_group_word(self.point)})"


def mm_identity(base: BaseMonoid) -> MMElement:
    one = base.identity()
    return MMElement(CayleySubgraph(base, frozenset({one}), frozenset()), one)


def mm_generator(base: BaseMonoid, x: str) -> MMElement:
    one = base.identity()
    gen = _step(base, one, x)
    g = CayleySubgraph(base, frozenset({one, gen}), frozenset({(one, x)}))
    return MMElement(g, gen)


def mm_multiply(p: MMElement, q: MMElement) -> MMElement:
    base = p.graph.base
    g = p.point
    verts = p.graph.vertices | frozenset(base.multiply(g, v) for v in q.graph.vertices)
    edges = p.graph.edges | frozenset((base.multiply(g, h), x) for h, x in q.graph.edges)
    return MMElement(CayleySubgraph(base, verts, edges), base.multiply(g, q.point))


def mm_inverse(p: MMElement) -> MMElement:
    base = p.graph.base
    gi = base.invert(p.point)
    verts = frozenset(base.multiply(gi, v) for v in p.graph.vertices)
    edges = frozenset((base.multiply(gi, h), x) for h, x in p.graph.edges)
    return MMElement(CayleySubgraph(base, verts, edges), gi)


def mm_plus(p: MMElement) -> MMElement:
    return MMElement(p.graph, p.graph.base.identity())


def mm_star(p: MMElement) -> MMElement:
    return mm_plus(mm_inverse(p))


def mm_to_munn(p: MMElement) -> MunnElement:
    """Over the free group the vertex set is prefix-closed: forget edges."""
    return MunnElement(p.graph.vertices, p.point)


def munn_to_mm(base: BaseMonoid, p: MunnElement) -> MMElement:
    """Rebuild the (unique) connected Cayley subgraph on a prefix-closed set.

    The Cayley graph of a free group is a tree: each non-empty reduced word
    g is joined to its parent g[:-1] by one edge, that of its last letter
    (x, s), which is (g[:-1], x) if s = +1 and (g, x) if s = -1 (then
    g x = g[:-1]).  The set is prefix-closed, so it holds every parent, and
    these are all the edges between its words; no product is computed."""
    edges = frozenset(
        (g[:-1], g[-1][0]) if g[-1][1] == 1 else (g, g[-1][0]) for g in p.aset if g
    )
    return MMElement(CayleySubgraph(base, p.aset, edges), p.point)


@dataclass(frozen=True, repr=False)
class SzElement(PSetElement):
    """(A, g) with 1, g in A; multiplies and inverts in S(G) (``psdp``)."""

    def __post_init__(self):
        super().__post_init__()
        if self.base.identity() not in self.elems or self.point not in self.elems:
            raise ValueError("set must contain 1 and the point")

    def to_json(self) -> dict:
        return {"set": sorted(repr(e) for e in self.elems), "point": repr(self.point)}


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
    """Image of (X, x) in Q_n(G): X literal if |X| < n, else Top."""

    base: BaseMonoid
    n: int
    elems: Union[FrozenSet[Any], _Top]
    point: Any

    def __post_init__(self):
        if self.elems is not TOP and len(self.elems) >= self.n:
            object.__setattr__(self, "elems", TOP)

    def __repr__(self) -> str:
        return f"Qn({self.elems!r}, {self.point!r})"

    def to_json(self) -> dict:
        return {"set": "Top" if self.elems is TOP else sorted(self.elems), "point": self.point}


def qn_identity(base: BaseMonoid, n: int) -> QnElement:
    return QnElement(base, n, frozenset(), base.identity())


def qn_from_sdp(p: PSetElement, n: int) -> QnElement:
    return QnElement(p.base, n, p.elems, p.point)


def qn_multiply(p: QnElement, q: QnElement) -> QnElement:
    if p.base != q.base or p.n != q.n:
        raise ValueError("mixed Q_n quotients")
    base = p.base
    if p.elems is TOP or q.elems is TOP:
        elems: Union[FrozenSet[Any], _Top] = TOP
    else:
        elems = p.elems | frozenset(base.multiply(p.point, e) for e in q.elems)
    return QnElement(base, p.n, elems, base.multiply(p.point, q.point))


def qn_inverse(p: QnElement) -> QnElement:
    base = p.base
    gi = base.invert(p.point)
    if p.elems is TOP:
        return QnElement(base, p.n, TOP, gi)
    return QnElement(base, p.n, frozenset(base.multiply(gi, e) for e in p.elems), gi)


def qn_star(p: QnElement) -> QnElement:
    q = qn_inverse(p)
    return QnElement(p.base, p.n, q.elems, p.base.identity())


def qn_plus(p: QnElement) -> QnElement:
    return QnElement(p.base, p.n, p.elems, p.base.identity())
