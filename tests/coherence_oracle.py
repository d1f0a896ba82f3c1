"""Oracles for ``ehresmann.coherence``: a bounded divisor search and the
closed forms of the worked instances' star sets.

``divides(T, U, side, bound)`` looks for A with T A = U (right) or A T = U
(left) among the left-Ehresmann trees of at most ``bound`` edges over the
labels of T and U (by default |T| + |U| edges).  A False result only means
"not found within the bound", unless ``coherence.left_divide`` finds a
left divisor first.

``STAR_SETS[example](i)`` is the set component of ``(b a^i)*`` in
``coherence.instance_<example>()``, for the examples fi and freemonoid.
"""

from __future__ import annotations

from typing import Optional

from ehresmann import coherence as co
from ehresmann import xtree
from ehresmann.xtree import XTree, tree_multiply


def divides(T: XTree, U: XTree, side: str, bound: Optional[int] = None) -> bool:
    if bound is None:
        bound = len(T.edges) + len(U.edges)
    labels = sorted(xtree.label_set(T) | xtree.label_set(U)) or ["a"]
    if side == "left":
        found = co.left_divide(T, U)
        if found is not None:
            return True
        return any(tree_multiply(A, T) == U for A in co._enum(labels, bound))
    if side == "right":
        return any(tree_multiply(T, A) == U for A in co._enum(labels, bound))
    raise ValueError("side must be left or right")


def _star_set_fi(i: int) -> frozenset:
    """S(F_{g,h}) with a = ({1,g},g), b = ({1,h},h)."""
    out = {(("g", -1),) * i + (("h", -1),)}
    for k in range(0, i + 1):
        out.add((("g", -1),) * k)
    return frozenset(out)


def _xp(k: int) -> tuple:
    return (("x", 1 if k > 0 else -1),) * abs(k)


def _star_set_freemonoid(i: int) -> frozenset:
    """S(F_x) with a = ({1,x^2},x^2), b = ({x},1)."""
    if i == 0:
        return frozenset({_xp(1)})
    return frozenset({_xp(-2 * i + 1)}) | frozenset(_xp(2 * (k - i)) for k in range(i + 1))


STAR_SETS = {"fi": _star_set_fi, "freemonoid": _star_set_freemonoid}
