"""Special power-set semidirect products S(M) = P(M) x| M.

Elements are pairs ``(X, x)`` with X a finite subset of the base monoid M
and x in M; the product is ``(X, x)(Y, y) = (X u xY, xy)`` and the identity
is ``(emptyset, 1)``.  When M is a group this is an Ehresmann (in fact
restriction) monoid with

    (Y, g)^-1 = (g^-1 Y, g^-1)
    (Y, g)* = (g^-1 Y, 1)        (Y, g)+ = (Y, 1)

and idempotents exactly the pairs ``(Y, 1)``.

A base is a stateless value, equal to every base of its type.  The product,
inverse, ``+`` and ``*`` keep the class of their first operand, so a
sub-monoid subclasses ``PSetElement`` for its invariant and shares them:
Sz(G) (``expansions.SzElement``) and FI inside S(F) (``scheiblich.MunnElement``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet

from . import words
from .words import GroupWord, Word


class BaseMonoid:
    """Base monoid interface: canonical hashable elements, total multiply."""

    name = "base"

    def identity(self) -> Any:
        raise NotImplementedError

    def multiply(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def invert(self, x: Any) -> Any:
        raise NotImplementedError(f"{self.name} is not a group")

    def element_to_json(self, x: Any) -> Any:
        return x

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))

    def __repr__(self) -> str:
        return self.name


class IntegersAdd(BaseMonoid):
    """The group of integers under addition."""

    name = "Z"

    def identity(self) -> int:
        return 0

    def multiply(self, x: int, y: int) -> int:
        return x + y

    def invert(self, x: int) -> int:
        return -x


class FreeMonoid(BaseMonoid):
    """The free monoid; elements are positive words."""

    name = "free-monoid"

    def identity(self) -> Word:
        return words.EMPTY

    def multiply(self, x: Word, y: Word) -> Word:
        return x + y

    def element_to_json(self, x: Word) -> str:
        return words.format_word(x)


class FreeGroup(BaseMonoid):
    """The free group; elements are reduced group words."""

    name = "free-group"

    def identity(self) -> GroupWord:
        return words.GEMPTY

    def multiply(self, x: GroupWord, y: GroupWord) -> GroupWord:
        return words.gmul(x, y)

    def invert(self, x: GroupWord) -> GroupWord:
        return words.ginv(x)

    def element_to_json(self, x: GroupWord) -> str:
        return words.format_group_word(x)


@dataclass(frozen=True)
class PSetElement:
    """A pair (X, x) in S(M)."""

    base: BaseMonoid
    elems: FrozenSet[Any]
    point: Any

    def __post_init__(self):
        if not isinstance(self.elems, frozenset):
            object.__setattr__(self, "elems", frozenset(self.elems))

    def __repr__(self) -> str:
        inner = ", ".join(sorted(repr(e) for e in self.elems))
        return f"({{{inner}}}, {self.point!r})"

    def to_json(self) -> dict:
        enc = self.base.element_to_json
        return {
            "point": enc(self.point),
            "set": sorted((enc(e) for e in self.elems), key=repr),
        }


def sdp_identity(base: BaseMonoid) -> PSetElement:
    return PSetElement(base, frozenset(), base.identity())


def sdp_multiply(p: PSetElement, q: PSetElement) -> PSetElement:
    if p.base != q.base:
        raise ValueError(f"mixed bases {p.base!r} and {q.base!r}")
    base = p.base
    shifted = frozenset(base.multiply(p.point, e) for e in q.elems)
    return type(p)(base, p.elems | shifted, base.multiply(p.point, q.point))


def sdp_inverse(p: PSetElement) -> PSetElement:
    base = p.base
    gi = base.invert(p.point)
    return type(p)(base, frozenset(base.multiply(gi, e) for e in p.elems), gi)


def sdp_star(p: PSetElement) -> PSetElement:
    """(Y, g)* = (g^-1 Y, 1) = ((Y, g)^-1)+; needs a group base."""
    return sdp_plus(sdp_inverse(p))


def sdp_plus(p: PSetElement) -> PSetElement:
    """(Y, g)+ = (Y, 1)."""
    return type(p)(p.base, p.elems, p.base.identity())
