"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and timings.
"""

import itertools
import random
import time

import normalform_oracle
import prune_oracle
from coherence_oracle import STAR_SETS, divides
from embed_theta_oracle import ZX_ONE, cx_multiply, zx_multiply
from random_trees import random_raw_tree
from ehresmann import coherence as co
from ehresmann import embed_theta as et
from ehresmann import expansions as ex
from ehresmann import normalform as nf
from ehresmann import psdp
from ehresmann import scheiblich as sch
from ehresmann import words, xtree
from ehresmann.cli import CHECKS
from ehresmann.xtree import (
    IDENTITY_TREE,
    letter_tree,
    prune,
    tree_multiply,
    tree_plus,
    tree_star,
)
from ehresmann.structures import get_structure

A = letter_tree("a")
B = letter_tree("b")


def report(name: str, ok: bool, started: float, limit: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {name}  ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, name
    assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.1f}s)"


def rand_tree(rng, max_edges):
    return prune(random_raw_tree(rng, "ab", rng.randint(0, max_edges)))


def test_criterion_01_variety_identities():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(500):
        t = rand_tree(rng, 8)
        s = rand_tree(rng, 8)
        g = rand_tree(rng, 4)
        tp = tree_plus(t)
        ok &= tree_multiply(tp, tp) == tp
        ok &= tree_multiply(tp, t) == t
        ok &= tree_multiply(t, tree_star(t)) == t
        ok &= tree_plus(tree_multiply(s, t)) == tree_plus(tree_multiply(s, tp))
        ok &= xtree.leq_nat(tree_plus(tree_multiply(s, t)), tree_plus(s))
        e, f = tree_plus(g), tree_plus(t)
        ok &= tree_multiply(e, f) == tree_multiply(f, e)
        # monotonicity: e <= f implies (s e t)+ <= (s f t)+
        e_below = tree_multiply(f, e)  # e_below <= f by construction
        lhs = tree_plus(tree_multiply(tree_multiply(s, e_below), t))
        rhs = tree_plus(tree_multiply(tree_multiply(s, f), t))
        ok &= xtree.leq_nat(lhs, rhs)
        if not ok:
            break
    report("criterion-01 variety identities (500 random trees)", ok, t0, 60)


def test_criterion_02_pruning_confluence():
    t0 = time.monotonic()
    rng = random.Random(202)
    ok = True
    for _ in range(200):
        raw = random_raw_tree(rng, "ab", rng.randint(0, 10))
        ref = prune(raw)
        for k in range(5):
            # the restart-loop oracle deletes branches in a shuffled order
            if prune_oracle.prune(raw, random.Random(rng.randint(0, 10**9))) != ref:
                ok = False
        if not ok:
            break
    report("criterion-02 pruning confluence (200 trees x 5 orders)", ok, t0, 60)


def test_criterion_03_normal_form_uniqueness():
    t0 = time.monotonic()
    word_letters = [
        w for k in (1, 2) for w in itertools.product("ab", repeat=k)
    ]
    idem_letters = [
        t
        for t in xtree.enumerate_trees("ab", 2, left_ehresmann_only=True)
        if xtree.is_idempotent(t) and t.edges
    ]
    letters = word_letters + idem_letters
    by_tree = {}
    ok = True
    for k in range(4):
        for seq in itertools.product(letters, repeat=k):
            t = nf.eval_to_tree(seq)
            form = nf.normalize(seq)
            ok &= normalform_oracle.form_tree(form) == t
            ok &= by_tree.setdefault(t, form) == form
            if not ok:
                break
    report(
        f"criterion-03 normal-form uniqueness ({len(by_tree)} distinct trees)",
        ok, t0, 300,
    )


def test_criterion_04_star_plus_witnesses():
    t0 = time.monotonic()
    ba = [tree_multiply(B, get_structure("fad").power(A, i)) for i in range(7)]
    ok = True
    for i in range(6):
        ok &= tree_multiply(ba[i], tree_star(ba[i])) == ba[i]
        for j in range(6):
            if i != j:
                ok &= tree_multiply(ba[i], tree_star(ba[j])) != ba[i]
        plus_next = tree_plus(ba[i + 1])
        ok &= tree_multiply(plus_next, ba[i + 1]) == ba[i + 1]
        ok &= tree_multiply(plus_next, ba[i]) != ba[i]
    report("criterion-04 b a^i star/plus witnesses (i, j <= 5)", ok, t0, 30)


def test_criterion_05_forbidden_configurations():
    t0 = time.monotonic()
    ok = True
    for example, depth in (("freemonoid", 5), ("fi", 5)):
        ok &= CHECKS["forbidden-config"](example=example, depth=depth).verdict == "pass"
        ctx, a, b = co.example(example)
        ba = b
        for i in range(depth + 1):
            ok &= ctx.star(ba).elems == STAR_SETS[example](i)
            ba = ctx.mul(ba, a)
    ok &= CHECKS["forbidden-config"](example="mm", depth=4).verdict == "pass"
    report("criterion-05 forbidden configurations + exact star sets", ok, t0, 60)


def test_criterion_06_bgr_and_truncation():
    t0 = time.monotonic()
    ok = CHECKS["bgr"](model="sdp:Z", depth=5).verdict == "pass"
    ok &= CHECKS["ghe"](model="qn:3", depth=4).verdict == "pass"
    report("criterion-06 (g,h,e) certificate in S(Z) and Q3(Z)", ok, t0, 30)


def test_criterion_07_triangular_witnesses():
    t0 = time.monotonic()
    # independent arithmetic oracle for the witness exponents
    ok = co.odd_triangulars(5) == [1, 3, 15, 21, 45]
    ok &= CHECKS["triangle"](depth=3).verdict == "pass"
    report("criterion-07 odd-triangular witnesses i = 1..3", ok, t0, 30)


def test_criterion_08_ideal_algorithms_vs_brute_force():
    t0 = time.monotonic()
    pool = list(xtree.enumerate_trees("ab", 3, left_ehresmann_only=True))
    factors = pool  # cofactors with <= 3 edges; products then have <= 6 edges
    left_multiples = {T: {tree_multiply(C, T) for C in factors} for T in pool}
    ok = True
    # (a) left intersection against brute force
    for S, T in itertools.product(pool, repeat=2):
        res = co.left_ideal_intersection_FLAd(S, T)
        common = left_multiples[S] & left_multiples[T]
        if res.kind == "principal":
            G = res.generator
            ok &= co.left_divide(S, G) is not None
            ok &= co.left_divide(T, G) is not None
            for V in common:
                c = co.left_divide(G, V)
                ok &= c is not None and tree_multiply(c, G) == V
        elif res.conclusive:
            ok &= not common
        if not ok:
            break
    # (b) right annihilator characterizes product equality
    for T in pool:
        gens = co.right_annihilator_FLAd(T)
        table = {U: tree_multiply(T, U) for U in factors}
        if not gens.pairs:
            fm_table = {U: U for U in factors}
        else:
            ((_, fm),) = gens.pairs
            fm_table = {U: tree_multiply(fm, U) for U in factors}
        for U, V in itertools.combinations(factors, 2):
            ok &= (table[U] == table[V]) == (fm_table[U] == fm_table[V])
        if not ok:
            break
    report("criterion-08 left-intersection and annihilator vs oracle", ok, t0, 600)


def test_criterion_09_right_intersection_generates():
    t0 = time.monotonic()
    pool = list(xtree.enumerate_trees("ab", 2, left_ehresmann_only=True))
    factors = list(xtree.enumerate_trees("ab", 3, left_ehresmann_only=True))
    rng = random.Random(909)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(20)]
    ok = True
    for S, T in pairs:
        Z = co.right_ideal_intersection_FLAd(S, T, max_edges=5, factor_edges=3)
        sample = {
            V
            for V in ({tree_multiply(S, C) for C in factors}
                      & {tree_multiply(T, C) for C in factors})
            if len(V.edges) <= 5
        }
        for V in sample:
            ok &= any(divides(U, V, "right", bound=5) for U in Z)
            if not ok:
                break
        if not ok:
            break
    report("criterion-09 right-intersection generators cover samples", ok, t0, 600)


def test_criterion_10_theta_laws():
    t0 = time.monotonic()
    idems = [
        t
        for t in xtree.enumerate_trees("ab", 2, left_ehresmann_only=True)
        if xtree.is_idempotent(t) and t.edges
    ]
    letters = [("a",), ("b",)] + idems
    cxs = list(
        dict.fromkeys(
            et.CXWord.make(list(seq))
            for k in range(4)
            for seq in itertools.product(letters, repeat=k)
        )
    )
    images = {c: et.theta(c) for c in cxs}
    ok = True
    for c in cxs:
        g = words.word_to_group(images[c].trunk)
        for d in cxs:
            lhs = et.theta(cx_multiply(c, d))
            rhs = zx_multiply(images[c].zx, et.zx_translate(g, images[d].zx))
            ok &= lhs.zx == rhs and lhs.trunk == images[c].trunk + images[d].trunk
            if not ok:
                break
        if not ok:
            break
    # closed formula == direct left-to-right evaluation
    word_letters = [w for k in (1, 2) for w in itertools.product("ab", repeat=k)]
    for seq in itertools.product(word_letters + idems, repeat=2):
        c = et.CXWord.make(list(seq))
        direct_zx, trunk = ZX_ONE, ()
        for part in c.parts:
            img = et.theta(et.CXWord.make([part]))
            direct_zx = zx_multiply(
                direct_zx, et.zx_translate(words.word_to_group(trunk), img.zx)
            )
            trunk = trunk + img.trunk
        closed = et.theta(c)
        ok &= closed.zx == direct_zx and closed.trunk == trunk
    # the closing inequality at the generator level
    ok &= et.theta(et.CXWord.make([("a",)])).zx != et.theta(
        et.CXWord.make([tree_plus(A)])
    ).zx
    report(f"criterion-10 theta morphism law on the free product of C-words "
           f"({len(cxs)} C-words, exhaustive pairs; no map on FLAd or FAd trees is checked)",
           ok, t0, 300)


def test_criterion_11_fi_mm_isomorphism():
    t0 = time.monotonic()
    steps = []
    for name in "xy":
        gen = ex.mm_generator(name)
        steps.append(((name, 1), gen, sch.munn_from_word(((name, 1),))))
        steps.append(((name, -1), ex.mm_inverse(gen),
                      sch.munn_from_word(((name, -1),))))
    ok = True
    frontier = [(ex.mm_identity(), sch.MUNN_ONE)]
    for _ in range(6):
        nxt = []
        for mm, mun in frontier:
            for _, mstep, sstep in steps:
                mm2 = ex.mm_multiply(mm, mstep)
                mun2 = sch.munn_multiply(mun, sstep)
                ok &= ex.mm_to_munn(mm2) == mun2
                ok &= ex.munn_to_mm(mun2) == mm2
                nxt.append((mm2, mun2))
        # dedup to keep the frontier at distinct elements
        seen = {}
        for mm, mun in nxt:
            seen.setdefault(mun, (mm, mun))
        frontier = list(seen.values())
        if not ok:
            break
    report("criterion-11 FI = M(F_X, X) on products of <= 6 generators", ok, t0, 120)
