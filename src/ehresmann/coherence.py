"""Checkers for coherence obstructions and weak-coherence algorithms.

The checkers verify finite certificates: the forbidden configuration of
b a^i with e_i = (b a^i)^+ (on the worked examples of ``example``), the
(g, h, e) configuration, the quotient conditions on the subgroup <1> of Z,
the triangular-number witnesses, and the normal-form algorithms for
left/right ideal intersections and right annihilators in the pruned-tree
monoid of left-Ehresmann trees.  Nothing here decides coherence in
general; bounded negative searches are reported as inconclusive, never as
refutations.

The trunks decide the ideal intersections first.  prune fixes the trunk,
so the trunk of a product U S is trunk(U) trunk(S).  On the left, U S = V T
makes one of trunk(S), trunk(T) a suffix of the other; when neither is,
MS n MT is empty, and left_ideal_intersection_FLAd returns that before
either normal form, as left_divide returns None.  On the right, T A = S A'
makes one a prefix of the other; when neither is, TM n SM is empty.  That
is the only case in which `ehres check right-intersect` says pass, and it
then makes no bounded search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import normalform, psdp, xtree
from .expansions import QnElement
from .psdp import PSetElement
from .structures import Structure, get_structure, semidirect
from .words import is_suffix
from .xtree import XTree, tree_multiply


# ---------------------------------------------------------------------------
# reports

@dataclass
class ConfigReport:
    verdict: str  # pass | fail | inconclusive
    depth: int
    failures: List[Tuple[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "depth": self.depth,
            "failures": [
                {"condition": cond, "witness": wit} for cond, wit in self.failures
            ],
            "notes": list(self.notes),
        }


def _finish(depth: int, failures, notes=()) -> ConfigReport:
    failures = sorted(failures, key=lambda f: f[0])
    return ConfigReport("fail" if failures else "pass", depth, failures, list(notes))


@dataclass(frozen=True)
class CongGenSet:
    pairs: frozenset
    side: str  # left | right

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("side must be left or right")


# ---------------------------------------------------------------------------
# forbidden configurations

def check_lemma_m_n(
    a, b, witnesses: Sequence[Tuple[Any, Any]], N: int, sample_universe: Sequence, ctx
) -> ConfigReport:
    """Lemma-style certificate: (1) relation at (n, m) implies relation at
    (n, n) — sampled; (2) witnesses u_i, v_i related at i but not i-1 — exact."""
    failures: List[Tuple[str, Any]] = []
    apow = [ctx.one]
    for _ in range(N):
        apow.append(ctx.mul(apow[-1], a))

    def uba(u, ks):
        """[u b a^k for k in ks]"""
        ub = ctx.mul(u, b)
        return [ctx.mul(ub, apow[k]) for k in ks]

    rows = [(u, uba(u, range(N + 1))) for u in sample_universe]
    for (u, ru), (v, rv) in itertools.product(rows, repeat=2):
        for n in range(N + 1):
            for m in range(N + 1):
                if ru[n] == rv[m] and ru[n] != rv[n]:
                    failures.append(
                        ("1", {"u": ctx.describe(u), "v": ctx.describe(v), "m": m, "n": n})
                    )
    for i, (u, v) in enumerate(witnesses[:N], start=1):
        (u0, u1), (v0, v1) = uba(u, (i - 1, i)), uba(v, (i - 1, i))
        if u1 != v1:
            failures.append(("2-eq", {"i": i}))
        if u0 == v0:
            failures.append(("2-neq", {"i": i}))
    notes = [
        f"condition (1) checked only over a sample of {len(sample_universe)} elements"
    ]
    return _finish(N, failures, notes)


def check_forbidden_config(a, b, N: int, ctx: Structure) -> ConfigReport:
    """b a^i pairwise L~-incomparable; e_i idempotent with
    e_i b a^i = b a^i and e_i b a^{i-1} != b a^{i-1}, for e_i = (b a^i)^+.

    No other e_i can pass where (b a^i)^+ fails.  In a left E-Ehresmann
    monoid x^+ is the least idempotent of E that fixes x on the left.  So if
    some e in E fixes b a^i, then e (b a^i)^+ = (b a^i)^+, and were b a^{i-1}
    fixed by (b a^i)^+, then e b a^{i-1} = e (b a^i)^+ b a^{i-1} = b a^{i-1}:
    e would fix it too.  `idempotent` and `fixes` thus test the model's +.

    x <=_L~ y iff x y* = x.  Each (b a^j)* is computed once, before the
    (i, j) loop compares b a^i with it: N + 1 stars, not (N + 1) N."""
    failures: List[Tuple[str, Any]] = []
    ba = [b]
    for _ in range(N):
        ba.append(ctx.mul(ba[-1], a))
    stars = [ctx.star(x) for x in ba]
    for i in range(N + 1):
        for j in range(N + 1):
            if i != j and ctx.mul(ba[i], stars[j]) == ba[i]:
                failures.append(("incomparable", {"i": i, "j": j}))
    for i in range(1, N + 1):
        e = ctx.plus(ba[i])
        if not ctx.is_E_idempotent(e):
            failures.append(("idempotent", {"i": i}))
        if ctx.mul(e, ba[i]) != ba[i]:
            failures.append(("fixes", {"i": i}))
        if ctx.mul(e, ba[i - 1]) == ba[i - 1]:
            failures.append(("moves", {"i": i}))
    return _finish(N, failures)


def check_bgr_config(g, h, e, N: int, ctx: Structure) -> ConfigReport:
    """The (g, h, e) conditions (0)-(4ii) with exponents bounded by N.

    The triple products g^k e h^k and h^k e g^k, and e g^k e h^k (e times
    the first, by associativity), are computed once for each exponent k,
    before the loops that compare them."""
    failures: List[Tuple[str, Any]] = []
    mul, prod = ctx.mul, ctx.product

    gp = [ctx.power(g, i) for i in range(N + 1)]
    hp = [ctx.power(h, i) for i in range(N + 1)]
    geh = [prod((gp[k], e, hp[k])) for k in range(N + 1)]
    heg = [prod((hp[k], e, gp[k])) for k in range(N + 1)]
    egeh = [mul(e, x) for x in geh]

    if prod((e, e)) != e:
        failures.append(("0-e2", {}))
    if prod((g, h)) != prod((h, g)):
        failures.append(("0-gh", {}))
    if prod((g, h, g)) != g or prod((h, g, h)) != h:
        failures.append(("0-ghg", {}))
    if prod((h, g, e)) != e or prod((e, h, g)) != e:
        failures.append(("1-hge", {}))
    for n in range(1, N + 1):
        if egeh[n] != mul(geh[n], e):
            failures.append(("2-g", {"n": n}))
        if mul(e, heg[n]) != mul(heg[n], e):
            failures.append(("2-h", {"n": n}))
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            mid = mul(geh[m], heg[n])
            if geh[m] == mid or heg[n] == mid:
                failures.append(("3i", {"m": m, "n": n}))
    for m in range(0, N + 1):
        for n in range(0, N + 1):
            if m == n:
                continue
            if geh[m] == mul(geh[m], geh[n]):
                failures.append(("3ii-g", {"m": m, "n": n}))
            if heg[m] == mul(heg[m], heg[n]):
                failures.append(("3ii-h", {"m": m, "n": n}))
    for n in range(1, N + 1):
        for k in range(1, n):
            if egeh[n] == mul(egeh[n], geh[k]):
                failures.append(("4i", {"n": n, "k": k}))
        for k in range(1, n + 1):
            if egeh[n] == mul(egeh[n], heg[k]):
                failures.append(("4ii", {"n": n, "k": k}))
    return _finish(N, failures)


def check_ghe_quotient_conditions(N: int, ctx: Structure) -> ConfigReport:
    """The five non-relation families for the subgroup <1> of Z in a
    quotient of S(Z); equality is equality in the quotient (implemented for
    Q_n, the structure qn:<n>).  Each one-point element is made once."""
    failures: List[Tuple[str, Any]] = []

    def el(exps) -> QnElement:
        return QnElement(ctx.one.n, frozenset(exps), 0)

    one = {m: el([m]) for m in range(-N, N + 1)}
    for m in range(-N, N + 1):
        for n in range(-N, N + 1):
            if m != n and one[m] == one[n]:
                failures.append(("1", {"m": m, "n": n}))
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            pair = el([m, -n])
            if pair == one[m] or pair == one[-n]:
                failures.append(("2", {"m": m, "n": n}))
    for m in range(0, N + 1):
        for n in range(0, N + 1):
            if m == n:
                continue
            if el([m, n]) == one[m]:
                failures.append(("3+", {"m": m, "n": n}))
            if el([-m, -n]) == one[-m]:
                failures.append(("3-", {"m": m, "n": n}))
    for n in range(1, N + 1):
        zero_n = el([0, n])
        for k in range(1, n):
            if zero_n == one[k] or zero_n == el([0, k, n]):
                failures.append(("4", {"k": k, "n": n}))
        for k in range(1, n + 1):
            if zero_n == one[-k] or zero_n == el([-k, 0, n]):
                failures.append(("5", {"k": k, "n": n}))
    return _finish(N, failures)


# ---------------------------------------------------------------------------
# triangular-number witnesses

def odd_triangulars(count: int) -> List[int]:
    """The first `count` odd triangular numbers: 1, 3, 15, 21, 45, ..."""
    out: List[int] = []
    k = 1
    while len(out) < count:
        t = k * (k + 1) // 2
        if t % 2 == 1:
            out.append(t)
        k += 1
    return out


def triangle_config(N: int):
    """(S(X*), a, b, odd triangulars, window) for a = (T, x^2), b = ({1}, x),
    with the infinite set T of odd-triangular powers materialized up to a
    window bound large enough for all products compared at depth N."""
    ctx = semidirect(psdp.FreeMonoid())
    tri = odd_triangulars(2 * N + 2)
    window = 2 * N + 1 + tri[-1]
    tset = frozenset(("x",) * t for t in odd_triangulars(window) if t <= window)
    a = PSetElement(ctx.one.base, tset, ("x",) * 2)
    b = PSetElement(ctx.one.base, frozenset({()}), ("x",))
    return ctx, a, b, tri, window


def check_triangle(N: int) -> ConfigReport:
    """Witnesses u_i, v_i with a^i b u_i = a^i b v_i and
    a^{i-1} b u_i != a^{i-1} b v_i, for a and b of triangle_config."""
    ctx, a, b, tri, window = triangle_config(N)
    failures: List[Tuple[str, Any]] = []
    apow = [ctx.one]
    for _ in range(N):
        apow.append(ctx.mul(apow[-1], a))
    for i in range(1, N + 1):
        t_exp = tri[2 * i] - 2 * i - 1  # t_{2i+1} with 1-based indexing
        u = PSetElement(ctx.one.base, frozenset({("x",) * t_exp}), ())
        v = PSetElement(ctx.one.base, frozenset(), ())
        aib = ctx.mul(apow[i], b)
        if ctx.mul(aib, u) != ctx.mul(aib, v):
            failures.append(("eq", {"i": i}))
        ai1b = ctx.mul(apow[i - 1], b)
        if ctx.mul(ai1b, u) == ctx.mul(ai1b, v):
            failures.append(("neq", {"i": i}))
    notes = [f"window bound {window} on powers of x"]
    return _finish(N, failures, notes)


# ---------------------------------------------------------------------------
# weak-coherence algorithms on left-Ehresmann trees

@dataclass
class IdealIntersection:
    kind: str  # empty | principal
    generator: Optional[XTree] = None
    left_factor_of_T: Optional[XTree] = None
    left_factor_of_S: Optional[XTree] = None
    conclusive: bool = True
    note: str = ""


def _nf_head(nfm: normalform.NormalForm, r: int) -> List[Any]:
    """Letters t0 e1 t1 ... e_r, i.e. everything strictly before word t_r."""
    if r == 0:
        return []
    pre: List[Any] = [nfm.words[0]]
    for i in range(r):
        pre.append(nfm.idems[i])
        if i + 1 <= r - 1:
            pre.append(nfm.words[i + 1])
    return pre


def left_divisor_candidates(nS: normalform.NormalForm, nT: normalform.NormalForm) -> List[XTree]:
    """Candidate A with A S = T, read off the normal forms nS of S and nT
    of T (verified later)."""
    m, n = nT.m, nS.m
    cands: List[XTree] = []
    if n > m:
        return cands
    if n == 0:
        s0 = nS.words[0]
        tm = nT.words[m]
        if is_suffix(s0, tm):
            pre = _nf_head(nT, m)
            pre.append(tm[: len(tm) - len(s0)])
            cands.append(normalform.eval_to_tree(pre))
        return cands
    r = m - n
    # tails must agree: t_{r+i} = s_i (1<=i<=n), f_{r+i} = e_i (2<=i<=n)
    if any(nT.words[r + i] != nS.words[i] for i in range(1, n + 1)):
        return cands
    if any(nT.idems[r + i - 1] != nS.idems[i - 1] for i in range(2, n + 1)):
        return cands
    f_junction = nT.idems[r]
    e1 = nS.idems[0]
    s0 = nS.words[0]
    tr = nT.words[r]
    if f_junction == e1 and is_suffix(s0, tr):
        pre = _nf_head(nT, r)
        pre.append(tr[: len(tr) - len(s0)])
        cands.append(normalform.eval_to_tree(pre))
    if s0 == () and xtree.leq_nat(f_junction, e1):
        pre = _nf_head(nT, r)
        pre.append(tr)
        pre.append(f_junction)
        cands.append(normalform.eval_to_tree(pre))
    return cands


def _left_divide(S: XTree, T: XTree, nS: normalform.NormalForm,
                 nT: normalform.NormalForm) -> Optional[XTree]:
    for cand in left_divisor_candidates(nS, nT):
        if tree_multiply(cand, S) == T:
            return cand
    return None


def left_divide(S: XTree, T: XTree) -> Optional[XTree]:
    """An A with A S = T, or None; exact via normal-form alignment plus
    verification by multiplication.

    Before either normal form, None when trunk(S) is not a suffix of
    trunk(T): the trunk of A S is trunk(A) trunk(S), and prune fixes the
    trunk, so A S = T forces trunk(T) = trunk(A) trunk(S)."""
    for t in (S, T):
        if not xtree.is_left_ehresmann(t):
            raise ValueError("inputs must be left-Ehresmann trees")
    if not is_suffix(xtree.trunk_word(S), xtree.trunk_word(T)):
        return None
    return _left_divide(S, T, normalform.normal_form_of_tree(S), normalform.normal_form_of_tree(T))


def left_ideal_intersection_FLAd(S: XTree, T: XTree) -> IdealIntersection:
    """MS n MT in the left-Ehresmann tree monoid: empty or principal.

    The trunks decide first.  prune fixes the trunk, so the trunk of U S is
    trunk(U) trunk(S), and U S = V T forces one of trunk(S), trunk(T) to be
    a suffix of the other.  When neither is, MS n MT is empty, and that is
    returned (conclusive) before either normal form.  Otherwise:

    * S = a T is tried only when trunk(T) is a suffix of trunk(S), and
      T = b S only when trunk(S) is a suffix of trunk(T), for the same
      reason (see left_divide);
    * the generator e T = e S with e = e1 f1 is tried only for equal trunks:
      its guard, t0 = s0 = 1 and equal words t1..tm = s1..sm, makes the
      trunks t0 t1..tm and s0 s1..sm equal.

    An empty result with comparable trunks is inconclusive."""
    for t in (S, T):
        if not xtree.is_left_ehresmann(t):
            raise ValueError("inputs must be left-Ehresmann trees")
    s_trunk = xtree.trunk_word(S)
    t_trunk = xtree.trunk_word(T)
    s_in_mt = is_suffix(t_trunk, s_trunk)  # S = a T is possible
    t_in_ms = is_suffix(s_trunk, t_trunk)  # T = b S is possible
    if not (s_in_mt or t_in_ms):
        return IdealIntersection("empty", None, None, None, True, "")
    nS = normalform.normal_form_of_tree(S)
    nT = normalform.normal_form_of_tree(T)
    if s_in_mt:
        a = _left_divide(T, S, nT, nS)  # S = a T  =>  MS <= MT
        if a is not None:
            return IdealIntersection("principal", S, a, xtree.IDENTITY_TREE)
    if t_in_ms:
        b = _left_divide(S, T, nS, nT)  # T = b S
        if b is not None:
            return IdealIntersection("principal", T, xtree.IDENTITY_TREE, b)
    if (
        s_trunk == t_trunk
        and nT.words[0] == ()
        and nS.words[0] == ()
        and nT.m >= 1
        and nS.m >= 1
        and nT.m == nS.m
        and nT.words[1:] == nS.words[1:]
        and nT.idems[1:] == nS.idems[1:]
    ):
        e = tree_multiply(nS.idems[0], nT.idems[0])
        gen = tree_multiply(e, T)
        if tree_multiply(e, S) == gen:
            return IdealIntersection("principal", gen, e, e)
    return IdealIntersection("empty", None, None, None, False,
                             "no case matched; emptiness not proven by trunk criterion")


def right_annihilator_FLAd(T: XTree) -> CongGenSet:
    """Generators of r(T) = {(U, V): TU = TV}: empty (equality) unless the
    normal form ends with an idempotent, in which case {(1, f_m)}."""
    if not xtree.is_left_ehresmann(T):
        raise ValueError("input must be a left-Ehresmann tree")
    nf = normalform.normal_form_of_tree(T)
    if nf.m == 0 or nf.words[-1] != ():
        return CongGenSet(frozenset(), "right")
    return CongGenSet(frozenset({(xtree.IDENTITY_TREE, nf.idems[-1])}), "right")


_ENUM_CACHE: Dict[tuple, Tuple[XTree, ...]] = {}


def _enum(labels, max_edges) -> Tuple[XTree, ...]:
    key = (tuple(sorted(labels)), max_edges)
    if key not in _ENUM_CACHE:
        _ENUM_CACHE[key] = xtree.enumerate_trees(labels, max_edges, left_ehresmann_only=True)
    return _ENUM_CACHE[key]


def right_ideal_intersection_FLAd(
    S: XTree,
    T: XTree,
    *,
    max_edges: int,
    factor_edges: int,
) -> Tuple[XTree, ...]:
    """The depth-bounded generating set Z_L of TM n SM.

    Z_L = {V : depth_directed(V) <= L, V in TM and V in SM}, where L is the
    larger directed depth of S and T, searched under two caps: cofactors of
    at most factor_edges edges and V of at most max_edges edges.  Z_L is the
    set of common multiples {T A} n {S A} over those cofactors, filtered by
    max_edges and L, in xtree.enumeration_order.  A product of
    left-Ehresmann trees is a pruned left-Ehresmann tree over the same
    labels, so no candidate V needs to be enumerated.
    """
    L = max(xtree.depth_directed(T), xtree.depth_directed(S))
    labels = sorted(xtree.label_set(T) | xtree.label_set(S)) or ["a"]
    factors = _enum(labels, factor_edges)
    common = {tree_multiply(T, A) for A in factors} & {tree_multiply(S, A) for A in factors}
    Z = [V for V in common if len(V.edges) <= max_edges and xtree.depth_directed(V) <= L]
    return tuple(sorted(Z, key=xtree.enumeration_order))


# ---------------------------------------------------------------------------
# worked examples of the forbidden configuration (used by the CLI and the
# acceptance suite)

# name -> (model, a, b): the two generators a and b of a registered model
_EXAMPLES = {"fi": ("sdp:F", "g", "h"), "mm": ("mm", "x", "y"), "fad": ("fad", "a", "b")}


def example(name: str):
    """(ctx, a, b) of a worked example:

    fi          S(F_{g,h}), a = ({1,g},g), b = ({1,h},h);
    mm          M(F_{x,y}), a = (P_x, x), b = (P_y, y);
    fad         pruned trees, a and b the generators;
    freemonoid  S(F_x), a = ({1,x^2},x^2), b = ({x},1).

    b of freemonoid omits 1 from its set, so no term over the generators
    of a model reaches it, and it is built by hand."""
    if name == "freemonoid":
        base = psdp.FreeGroup()
        x2 = (("x", 1),) * 2
        a = PSetElement(base, frozenset({(), x2}), x2)
        b = PSetElement(base, frozenset({(("x", 1),)}), ())
        return semidirect(base), a, b
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}")
    model, a, b = _EXAMPLES[name]
    ctx = get_structure(model)
    return ctx, ctx.atom(a), ctx.atom(b)
