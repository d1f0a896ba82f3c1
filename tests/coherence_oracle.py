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

``left_divide`` is ``coherence.left_divide`` without its trunk test: it
always aligns the two normal forms.  The two must return the same divisor.

``check_forbidden_config``, ``check_bgr_config`` and
``check_ghe_quotient_conditions`` are the certificates as they were before
their elements were hoisted out of the comparison loops: each (b a^j)*,
each triple product and each one-point element of Q_n is recomputed where
it is compared.  Their reports must equal ``coherence``'s.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ehresmann import coherence as co
import expansions_oracle
from ehresmann import normalform, xtree
from ehresmann.expansions import QnElement
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


def left_divide(S: XTree, T: XTree) -> Optional[XTree]:
    return co._left_divide(S, T, normalform.normal_form_of_tree(S), normalform.normal_form_of_tree(T))


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
    return PSetElement(ctx.one.base, frozenset({()} | {h + (("g", 1),) * k for k in range(i + 1)}), ())


def _e_freemonoid(ctx, i: int) -> PSetElement:
    """({x^{2i}}, 1)."""
    return PSetElement(ctx.one.base, frozenset({_xp(2 * i)}), _xp(0))


def _e_mm(ctx, i: int):
    """(P_{y x^i}, 1)."""
    return ctx.plus(expansions_oracle.mm_from_word((("y", 1),) + (("x", 1),) * i))


def _e_fad(ctx, i: int) -> XTree:
    """(b a^i)+, with a^i made as one power."""
    a, b = ctx.atom("a"), ctx.atom("b")
    return ctx.plus(ctx.mul(b, ctx.power(a, i)))


E_STREAMS = {"fi": _e_fi, "freemonoid": _e_freemonoid, "mm": _e_mm, "fad": _e_fad}


def check_forbidden_config(a, b, N: int, ctx) -> co.ConfigReport:
    failures: List[Tuple[str, Any]] = []
    ba = [b]
    for _ in range(N):
        ba.append(ctx.mul(ba[-1], a))
    for i in range(N + 1):
        for j in range(N + 1):
            # ba[i] <=_L~ ba[j]
            if i != j and ctx.mul(ba[i], ctx.star(ba[j])) == ba[i]:
                failures.append(("incomparable", {"i": i, "j": j}))
    for i in range(1, N + 1):
        e = ctx.plus(ba[i])
        if not ctx.is_E_idempotent(e):
            failures.append(("idempotent", {"i": i}))
        if ctx.mul(e, ba[i]) != ba[i]:
            failures.append(("fixes", {"i": i}))
        if ctx.mul(e, ba[i - 1]) == ba[i - 1]:
            failures.append(("moves", {"i": i}))
    return co._finish(N, failures)


def check_bgr_config(g, h, e, N: int, ctx) -> co.ConfigReport:
    failures: List[Tuple[str, Any]] = []
    mul, prod = ctx.mul, ctx.product

    gp = [ctx.power(g, i) for i in range(N + 1)]
    hp = [ctx.power(h, i) for i in range(N + 1)]

    if prod((e, e)) != e:
        failures.append(("0-e2", {}))
    if prod((g, h)) != prod((h, g)):
        failures.append(("0-gh", {}))
    if prod((g, h, g)) != g or prod((h, g, h)) != h:
        failures.append(("0-ghg", {}))
    if prod((h, g, e)) != e or prod((e, h, g)) != e:
        failures.append(("1-hge", {}))
    for n in range(1, N + 1):
        if prod((e, gp[n], e, hp[n])) != prod((gp[n], e, hp[n], e)):
            failures.append(("2-g", {"n": n}))
        if prod((e, hp[n], e, gp[n])) != prod((hp[n], e, gp[n], e)):
            failures.append(("2-h", {"n": n}))
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            lhs = prod((gp[m], e, hp[m]))
            rhs = prod((hp[n], e, gp[n]))
            mid = mul(lhs, rhs)
            if lhs == mid or rhs == mid:
                failures.append(("3i", {"m": m, "n": n}))
    for m in range(0, N + 1):
        for n in range(0, N + 1):
            if m == n:
                continue
            x1 = prod((gp[m], e, hp[m]))
            if x1 == mul(x1, prod((gp[n], e, hp[n]))):
                failures.append(("3ii-g", {"m": m, "n": n}))
            x2 = prod((hp[m], e, gp[m]))
            if x2 == mul(x2, prod((hp[n], e, gp[n]))):
                failures.append(("3ii-h", {"m": m, "n": n}))
    for n in range(1, N + 1):
        base_el = prod((e, gp[n], e, hp[n]))
        for k in range(1, n):
            if base_el == mul(base_el, prod((gp[k], e, hp[k]))):
                failures.append(("4i", {"n": n, "k": k}))
        for k in range(1, n + 1):
            if base_el == mul(base_el, prod((hp[k], e, gp[k]))):
                failures.append(("4ii", {"n": n, "k": k}))
    return co._finish(N, failures)


def check_ghe_quotient_conditions(N: int, ctx) -> co.ConfigReport:
    failures: List[Tuple[str, Any]] = []

    def el(exps) -> QnElement:
        return QnElement(ctx.one.n, frozenset(exps), 0)

    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            if m != n and el([m]) == el([n]):
                failures.append(("1", {"m": m, "n": n}))
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            pair = el([m, -n])
            if pair == el([m]) or pair == el([-n]):
                failures.append(("2", {"m": m, "n": n}))
    for m in range(0, N + 1):
        for n in range(0, N + 1):
            if m == n:
                continue
            if el([m, n]) == el([m]):
                failures.append(("3+", {"m": m, "n": n}))
            if el([-m, -n]) == el([-m]):
                failures.append(("3-", {"m": m, "n": n}))
    for n in range(1, N + 1):
        zero_n = el([0, n])
        for k in range(1, n):
            if zero_n == el([k]) or zero_n == el([0, k, n]):
                failures.append(("4", {"k": k, "n": n}))
        for k in range(1, n + 1):
            if zero_n == el([-k]) or zero_n == el([-k, 0, n]):
                failures.append(("5", {"k": k, "n": n}))
    return co._finish(N, failures)
