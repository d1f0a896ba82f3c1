"""Oracles for ``ehresmann.coherence``: a bounded divisor search, the
closed forms of the worked examples' star sets, and their hand-written
idempotent streams.

``divides(T, U, side, bound)`` looks for A with T A = U (right) or A T = U
(left) among the left-Ehresmann trees of at most ``bound`` edges over the
labels of T and U (by default |T| + |U| edges).  A False result only means
"not found within the bound", unless ``coherence.left_divide`` finds a
left divisor first.

``STAR_SETS[example](i)`` is the set component of ``(b a^i)*`` in
``coherence.example(example)``, for the examples fi and freemonoid.

``E_STREAMS[example](ctx, i)`` is an idempotent e_i, written out by hand,
with e_i b a^i = b a^i and e_i b a^{i-1} != b a^{i-1} in the model ctx of
``coherence.example(example)``.  For fi, mm and fad it is (b a^i)^+, the
e_i that ``check_forbidden_config`` takes; for freemonoid it is ({x^{2i}}, 1),
smaller than (b a^i)^+ = ({1, x, ..., x^{2i}}, 1).
"""

from __future__ import annotations

from typing import Optional

from ehresmann import coherence as co
from ehresmann import expansions, xtree
from ehresmann.psdp import PSetElement
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


def _e_fi(ctx, i: int) -> PSetElement:
    """({1, h, hg, ..., hg^i}, 1)."""
    h = (("h", 1),)
    return PSetElement(ctx.base, frozenset({()} | {h + (("g", 1),) * k for k in range(i + 1)}), ())


def _e_freemonoid(ctx, i: int) -> PSetElement:
    """({x^{2i}}, 1)."""
    return PSetElement(ctx.base, frozenset({_xp(2 * i)}), _xp(0))


def _e_mm(ctx, i: int):
    """(P_{y x^i}, 1)."""
    return ctx.plus(expansions.mm_from_word(ctx.base, (("y", 1),) + (("x", 1),) * i))


def _e_fad(ctx, i: int) -> XTree:
    """(b a^i)+, with a^i made as one power."""
    a, b = ctx.atom("a"), ctx.atom("b")
    return ctx.plus(ctx.mul(b, ctx.power(a, i)))


E_STREAMS = {"fi": _e_fi, "freemonoid": _e_freemonoid, "mm": _e_mm, "fad": _e_fad}
