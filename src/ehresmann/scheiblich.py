"""The free inverse monoid FI(X) as pairs of a prefix-closed set and a point.

An element is ``(A, a)`` where A is a finite, non-empty, prefix-closed set
of reduced group words and ``a in A``.  The generator x embeds as
``({1, x}, x)``; multiplication is ``(A, a)(B, b) = (A u aB, ab)`` and
inversion is ``(A, a)^-1 = (a^-1 A, a^-1)``.

FI is a sub-monoid of S(F) = P(F) x| F: a ``MunnElement`` is a
``psdp.PSetElement`` over the free group that checks its invariant, and
psdp's inverse, ``+`` and ``*`` are bound here under the ``munn_`` names that
``structures`` looks up.  Only the n-ary product, which checks just the words
it adds, is FI's own.

Two submonoids are singled out by membership tests: the free ample monoid
FA(X) (point a positive word) and the free left ample monoid FLA(X)
(every element of A a positive word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from . import words
from .psdp import FreeGroup, PSetElement
from .psdp import sdp_inverse as munn_inverse, sdp_plus as munn_plus, sdp_star as munn_star
from .words import GroupWord

F = FreeGroup()


@dataclass(frozen=True, repr=False)
class MunnElement(PSetElement):
    """(A, a) in FI, the element (A, a) of S(F) with A prefix-closed and a in A."""

    def __post_init__(self):
        super().__post_init__()
        if self.point not in self.elems:
            raise ValueError("point must lie in the set")
        if not words.is_prefix_closed(self.elems):
            raise ValueError("set must be prefix-closed")

    @property
    def aset(self) -> FrozenSet[GroupWord]:
        """The set A under its earlier name, kept for perfbench's fad-products
        check (``perfbench/workloads.py``), its only reader."""
        return self.elems

    def __repr__(self) -> str:
        inner = ", ".join(sorted(words.format_group_word(g) for g in self.elems))
        return f"({{{inner}}}, {words.format_group_word(self.point)})"

    def to_json(self) -> dict:
        return {
            "set": sorted(words.format_group_word(g) for g in self.elems),
            "point": words.format_group_word(self.point),
        }


MUNN_ONE = MunnElement(F, frozenset({words.GEMPTY}), words.GEMPTY)


def munn_from_word(g: GroupWord) -> MunnElement:
    """Image of a group word under the generator embedding x |-> ({1,x}, x)."""
    return munn_product([MunnElement(F, frozenset({words.GEMPTY, (letter,)}), (letter,))
                         for letter in g])


def munn_product(factors: Iterable[MunnElement]) -> MunnElement:
    """(A1, a1) ... (An, an) = (A1 u a1 A2 u ... u a1...a(n-1) An, a1...an).

    One set is built; no factors give the identity and a lone factor is
    returned as it is.  The factors are valid, so only what the product
    adds is checked, in O(added words): the point lies in the set, and each
    added word has its parent in it.
    """
    first, *rest = tuple(factors) or (MUNN_ONE,)
    if not rest:
        return first
    added, point = set(), first.point
    for q in rest:
        added.update(words.gmul(point, b) for b in q.elems)
        point = words.gmul(point, q.point)
    added -= first.elems
    elems = first.elems | added
    if point not in elems:
        raise ValueError("point must lie in the set")
    if not all(g[:-1] in elems for g in added if g):
        raise ValueError("set must be prefix-closed")
    p = object.__new__(MunnElement)  # checked above, not again in __post_init__
    object.__setattr__(p, "base", F)
    object.__setattr__(p, "elems", elems)
    object.__setattr__(p, "point", point)
    return p


def munn_of_tree(t) -> MunnElement:
    """The element an ``xtree.RawTree`` spells: each vertex's reduced word
    from the start, pointed at the end's.  One BFS from the start gives a
    vertex gmul(its parent's word, the edge's signed letter).  An input that
    is not a tree raises ValueError."""
    adj = [[] for _ in range(t.nv)]
    for s, x, d in t.edges:
        adj[s].append((d, ((x, 1),)))
        adj[d].append((s, ((x, -1),)))
    word, order = {t.start: words.GEMPTY}, [t.start]
    for v in order:
        for w, step in adj[v]:
            if w not in word:
                word[w] = words.gmul(word[v], step)
                order.append(w)
    if len(order) != t.nv or len(t.edges) != t.nv - 1:
        raise ValueError(f"not a tree: {len(t.edges)} edges, {len(order)} of {t.nv} vertices reached")
    return MunnElement(F, frozenset(word.values()), word[t.end])


def munn_multiply(p: MunnElement, q: MunnElement) -> MunnElement:
    return munn_product((p, q))


def in_FA(p: MunnElement) -> bool:
    """Free ample monoid membership: the point is a positive word."""
    return words.is_positive(p.point)


def in_FLA(p: MunnElement) -> bool:
    """Free left ample monoid membership: the whole set is positive."""
    return all(words.is_positive(g) for g in p.elems)
