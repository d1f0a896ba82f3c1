"""The free inverse monoid FI(X) as pairs of a prefix-closed set and a point.

An element is ``(A, a)`` where A is a finite, non-empty, prefix-closed set
of reduced group words and ``a in A``.  The generator x embeds as
``({1, x}, x)``; multiplication is ``(A, a)(B, b) = (A u aB, ab)`` and
inversion is ``(A, a)^-1 = (a^-1 A, a^-1)``.

Two submonoids are singled out by membership tests: the free ample monoid
FA(X) (point a positive word) and the free left ample monoid FLA(X)
(every element of A a positive word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from . import words
from .words import GroupWord


@dataclass(frozen=True)
class MunnElement:
    aset: FrozenSet[GroupWord]
    point: GroupWord

    def __post_init__(self):
        if not isinstance(self.aset, frozenset):
            object.__setattr__(self, "aset", frozenset(self.aset))
        if self.point not in self.aset:
            raise ValueError("point must lie in the set")
        if not words.is_prefix_closed(self.aset):
            raise ValueError("set must be prefix-closed")

    def __repr__(self) -> str:
        inner = ", ".join(sorted(words.format_group_word(g) for g in self.aset))
        return f"({{{inner}}}, {words.format_group_word(self.point)})"

    def to_json(self) -> dict:
        return {
            "set": sorted(words.format_group_word(g) for g in self.aset),
            "point": words.format_group_word(self.point),
        }


MUNN_ONE = MunnElement(frozenset({words.GEMPTY}), words.GEMPTY)


def munn_from_word(g: GroupWord) -> MunnElement:
    """Image of a group word under the generator embedding x |-> ({1,x}, x)."""
    return munn_product([MunnElement(frozenset({words.GEMPTY, (letter,)}), (letter,))
                         for letter in g])


def munn_product(factors: Iterable[MunnElement]) -> MunnElement:
    """(A1, a1) ... (An, an) = (A1 u a1 A2 u ... u a1...a(n-1) An, a1...an).

    One set is built and checked for prefix closure once; no factors give
    the identity and a lone factor is returned as it is.
    """
    first, *rest = tuple(factors) or (MUNN_ONE,)
    if not rest:
        return first
    aset, point = set(first.aset), first.point
    for q in rest:
        aset.update(words.gmul(point, b) for b in q.aset)
        point = words.gmul(point, q.point)
    return MunnElement(frozenset(aset), point)


def munn_multiply(p: MunnElement, q: MunnElement) -> MunnElement:
    return munn_product((p, q))


def munn_inverse(p: MunnElement) -> MunnElement:
    ai = words.ginv(p.point)
    return MunnElement(frozenset(words.gmul(ai, g) for g in p.aset), ai)


def munn_star(p: MunnElement) -> MunnElement:
    """p^-1 p = (a^-1 A, 1)."""
    ai = words.ginv(p.point)
    return MunnElement(frozenset(words.gmul(ai, g) for g in p.aset), words.GEMPTY)


def munn_plus(p: MunnElement) -> MunnElement:
    """p p^-1 = (A, 1)."""
    return MunnElement(p.aset, words.GEMPTY)


def in_FA(p: MunnElement) -> bool:
    """Free ample monoid membership: the point is a positive word."""
    return words.is_positive(p.point)


def in_FLA(p: MunnElement) -> bool:
    """Free left ample monoid membership: the whole set is positive."""
    return all(words.is_positive(g) for g in p.aset)
