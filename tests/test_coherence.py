"""Configuration checkers and ideal algorithms on left-Ehresmann trees."""

import itertools
import random
from pathlib import Path

import pytest

import coherence_oracle
from coherence_oracle import E_STREAMS, STAR_SETS, divides
from ehresmann import cli
from ehresmann import coherence as co
from ehresmann import normalform as nf
from ehresmann import psdp, xtree
from ehresmann.psdp import PSetElement
from ehresmann.structures import get_structure
from ehresmann.xtree import (
    IDENTITY_TREE,
    letter_tree,
    tree_multiply,
    tree_plus,
    word_tree,
)

A = letter_tree("a")
B = letter_tree("b")


# -- configuration certificates ---------------------------------------------

def test_forbidden_config_examples_pass():
    for name, depth in (("fi", 4), ("freemonoid", 4), ("fad", 4), ("mm", 3)):
        ctx, a, b = co.example(name)
        report = co.check_forbidden_config(a, b, depth, ctx)
        assert report.verdict == "pass", (name, report.to_json())


def test_forbidden_config_fails_on_degenerate_data():
    ctx = get_structure("fad")
    one = IDENTITY_TREE
    report = co.check_forbidden_config(one, one, 2, ctx)
    assert report.verdict == "fail"
    conditions = {c for c, _ in report.failures}
    assert "incomparable" in conditions and "moves" in conditions


@pytest.mark.parametrize("name", ["fi", "freemonoid", "mm", "fad"])
def test_forbidden_config_matches_the_recomputing_oracle(name):
    ctx, a, b = co.example(name)
    for N in range(9):
        want = coherence_oracle.check_forbidden_config(a, b, N, ctx).to_json()
        assert co.check_forbidden_config(a, b, N, ctx).to_json() == want, N


def test_failing_forbidden_config_matches_the_recomputing_oracle():
    # the report of `forbidden-config --a 1 --b 1`
    ctx = get_structure("fad")
    one = IDENTITY_TREE
    for N in range(9):
        want = coherence_oracle.check_forbidden_config(one, one, N, ctx).to_json()
        assert want["verdict"] == ("fail" if N else "pass")
        assert co.check_forbidden_config(one, one, N, ctx).to_json() == want, N


@pytest.mark.parametrize("name", ["fi", "freemonoid", "mm", "fad"])
def test_forbidden_config_computes_each_star_once(name):
    for N in (0, 1, 4):
        ctx, a, b = co.example(name)
        calls = []
        star = ctx.star
        ctx.star = lambda x: calls.append(x) or star(x)
        co.check_forbidden_config(a, b, N, ctx)
        assert len(calls) == N + 1, (name, N)


def test_hand_written_streams_against_plus():
    for name, stream in E_STREAMS.items():
        ctx, a, b = co.example(name)
        ba = [b]
        for i in range(1, 6):
            ba.append(ctx.mul(ba[-1], a))
            e = stream(ctx, i)
            if name != "freemonoid":
                assert e == ctx.plus(ba[i]), (name, i)
            assert ctx.is_E_idempotent(e), (name, i)
            assert ctx.mul(e, ba[i]) == ba[i], (name, i)
            assert ctx.mul(e, ba[i - 1]) != ba[i - 1], (name, i)


def test_plus_is_the_least_idempotent_that_can_move():
    """In FAd: whenever an idempotent e fixes b a^i and moves b a^{i-1},
    (b a^i)^+ moves b a^{i-1} too (a, b of at most 1 edge, e of at most 3)."""
    small = xtree.enumerate_trees("ab", 1)
    idempotents = [e for e in xtree.enumerate_trees("ab", 3) if xtree.is_idempotent(e)]
    found = 0
    for a, b in itertools.product(small, repeat=2):
        ba = [b, tree_multiply(b, a)]
        ba.append(tree_multiply(ba[1], a))
        for i in (1, 2):
            movers = [e for e in idempotents
                      if tree_multiply(e, ba[i]) == ba[i]
                      and tree_multiply(e, ba[i - 1]) != ba[i - 1]]
            found += len(movers)
            if movers:
                assert tree_multiply(tree_plus(ba[i]), ba[i - 1]) != ba[i - 1], (a, b, i)
    assert found


def test_example_star_sets_match_closed_forms():
    for example, star_set in STAR_SETS.items():
        ctx, a, b = co.example(example)
        ba = b
        for i in range(5):
            assert ctx.star(ba).elems == star_set(i), (example, i)
            ba = ctx.mul(ba, a)


def test_bgr_config_integers():
    ctx = get_structure("sdp:Z")
    g = PSetElement(ctx.one.base, frozenset(), 1)
    h = PSetElement(ctx.one.base, frozenset(), -1)
    e = PSetElement(ctx.one.base, frozenset({0}), 0)
    assert co.check_bgr_config(g, h, e, 4, ctx).verdict == "pass"
    # swapping e for the identity breaks the configuration
    bad = co.check_bgr_config(g, h, ctx.one, 3, ctx)
    assert bad.verdict == "fail"


def test_bgr_config_survives_truncation():
    ctx = get_structure("qn:3")
    g = ctx.one.__class__(3, frozenset(), 1)
    h = ctx.one.__class__(3, frozenset(), -1)
    e = ctx.one.__class__(3, frozenset({0}), 0)
    assert co.check_bgr_config(g, h, e, 4, ctx).verdict == "pass"


@pytest.mark.parametrize("model", ["sdp:Z", "qn:3", "qn:1"])
def test_bgr_config_matches_the_recomputing_oracle(model):
    ctx = get_structure(model)
    g, h, e = (ctx.atom(x) for x in "ghe")
    for N in range(9):
        want = coherence_oracle.check_bgr_config(g, h, e, N, ctx).to_json()
        assert co.check_bgr_config(g, h, e, N, ctx).to_json() == want, N
    assert want["verdict"] == ("fail" if model == "qn:1" else "pass")


def test_ghe_conditions_hold_in_q3_but_not_q1():
    assert co.check_ghe_quotient_conditions(3, get_structure("qn:3")).verdict == "pass"
    report = co.check_ghe_quotient_conditions(2, get_structure("qn:1"))
    assert report.verdict == "fail"


@pytest.mark.parametrize("model", ["qn:1", "qn:2", "qn:3", "qn:4"])
def test_ghe_matches_the_recomputing_oracle(model):
    ctx = get_structure(model)
    for N in range(17):
        want = coherence_oracle.check_ghe_quotient_conditions(N, ctx).to_json()
        assert co.check_ghe_quotient_conditions(N, ctx).to_json() == want, N
    # Q_1 and Q_2 make every two-point set Top, and families 4 and 5 compare such sets
    assert want["verdict"] == ("fail" if model in ("qn:1", "qn:2") else "pass")


def test_odd_triangulars():
    assert co.odd_triangulars(6) == [1, 3, 15, 21, 45, 55]


def test_triangle_certificate():
    report = co.check_triangle(2)
    assert report.verdict == "pass", report.to_json()


def lemma_m_n_failures(a, b, witnesses, N, universe, ctx):
    """The failures of check_lemma_m_n, each u b a^k recomputed where it is
    compared."""
    apow = [ctx.one]
    for _ in range(N):
        apow.append(ctx.mul(apow[-1], a))

    def uban(u, k):
        return ctx.mul(ctx.mul(u, b), apow[k])

    failures = []
    for u, v in itertools.product(universe, repeat=2):
        for n in range(N + 1):
            for m in range(N + 1):
                if uban(u, n) == uban(v, m) and uban(u, n) != uban(v, n):
                    failures.append(
                        ("1", {"u": ctx.describe(u), "v": ctx.describe(v), "m": m, "n": n})
                    )
    for i, (u, v) in enumerate(witnesses[:N], start=1):
        if uban(u, i) != uban(v, i):
            failures.append(("2-eq", {"i": i}))
        if uban(u, i - 1) == uban(v, i - 1):
            failures.append(("2-neq", {"i": i}))
    return sorted(failures, key=lambda f: f[0])


def test_lemma_m_n_failures_match_the_recomputing_loop():
    # in S(Z) with a = g, u a^1 = v a^0 for u = 1, v = g, so condition (1)
    # fails; the witnesses fail both halves of condition (2)
    ctx = get_structure("sdp:Z")
    g, h, e = (ctx.atom(x) for x in "ghe")
    universe = [ctx.one, g, h, e, ctx.mul(e, g)]
    witnesses = [(g, h), (e, e), (ctx.one, g)]
    N = 3
    report = co.check_lemma_m_n(g, ctx.one, witnesses, N, universe, ctx)
    want = lemma_m_n_failures(g, ctx.one, witnesses, N, universe, ctx)
    assert report.failures == want
    assert {c for c, _ in want} == {"1", "2-eq", "2-neq"}


def test_report_json_schema():
    report = co.ConfigReport("fail", 2, [("c", {"i": 1})], ["note"])
    data = report.to_json()
    assert data["verdict"] == "fail"
    assert data["failures"] == [{"condition": "c", "witness": {"i": 1}}]


# -- ideal algorithms on left-Ehresmann trees --------------------------------

def le_trees(max_edges):
    return co._enum("ab", max_edges)


def test_left_divide_basics():
    ab = tree_multiply(A, B)
    assert co.left_divide(B, ab) == A
    assert co.left_divide(A, A) == IDENTITY_TREE
    assert co.left_divide(A, IDENTITY_TREE) is None
    assert co.left_divide(B, A) is None


def test_left_divide_agrees_with_search():
    pool = le_trees(2)
    for T in pool:
        for U in pool:
            got = co.left_divide(T, U)
            if got is not None:
                assert tree_multiply(got, T) == U
            else:
                assert all(tree_multiply(C, T) != U for C in le_trees(3))


@pytest.fixture(scope="module")
def flad_ideals_pool():
    """The trees flad-ideals draws its operands from: the left-Ehresmann
    trees of at most 3 edges over {a, b} and the 24 terms of its catalog."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from workloads import flad_catalog
    terms = [cli.eval_term(t, "flad")[1] for t in flad_catalog()]
    return list(co._enum("ab", 3)) + terms


def test_left_divide_matches_the_normal_form_oracle(flad_ideals_pool):
    pool = flad_ideals_pool
    assert len(pool) == 80 + 24
    found = 0
    for S, T in itertools.product(pool, repeat=2):
        got = co.left_divide(S, T)
        assert got == coherence_oracle.left_divide(S, T), (S, T)
        found += got is not None
    assert found  # the pool reaches the suffix-compatible path


def test_left_divide_rejects_incompatible_trunks_before_any_normal_form(monkeypatch):
    seen = []
    real = nf.normal_form_of_tree
    monkeypatch.setattr(nf, "normal_form_of_tree", lambda t: seen.append(t) or real(t))
    assert co.left_divide(B, A) is None
    assert seen == []
    assert co.left_divide(B, tree_multiply(A, B)) == A
    assert len(seen) == 2


def test_left_divide_takes_only_left_ehresmann_trees():
    a_star = xtree.tree_star(A)
    assert not xtree.is_left_ehresmann(a_star)
    with pytest.raises(ValueError, match="left-Ehresmann"):
        co.left_divide(a_star, B)  # trunks compatible: 1 is a suffix of b
    with pytest.raises(ValueError, match="left-Ehresmann"):
        co.left_divide(A, a_star)  # trunks incompatible: a is no suffix of 1


def test_left_intersection_cases():
    ab = tree_multiply(A, B)
    res = co.left_ideal_intersection_FLAd(ab, B)  # M(ab) <= M(b)
    assert res.kind == "principal" and res.generator == ab
    res = co.left_ideal_intersection_FLAd(A, B)
    assert res.kind == "empty" and res.conclusive


def test_left_intersection_case_iii():
    # same tail, distinct leading idempotents: generator e1 f1 . T
    e1 = tree_plus(A)
    f1 = tree_plus(B)
    S = tree_multiply(e1, A)
    T = tree_multiply(f1, A)
    res = co.left_ideal_intersection_FLAd(S, T)
    assert res.kind == "principal"
    assert res.generator == tree_multiply(tree_multiply(e1, f1), A)


def test_left_intersection_computes_one_normal_form_per_operand(monkeypatch):
    seen = []
    real = nf.normal_form_of_tree

    def counted(t):
        seen.append(t)
        return real(t)

    monkeypatch.setattr(nf, "normal_form_of_tree", counted)
    ab = tree_multiply(A, B)
    # one pair per exit: S = aT, T = bS, the e-branch, and empty
    for S, T, exit_reached in (
        (ab, B, lambda r: r.generator == ab and r.left_factor_of_S == IDENTITY_TREE),
        (B, ab, lambda r: r.generator == ab and r.left_factor_of_T == IDENTITY_TREE),
        (tree_plus(A), tree_plus(B), lambda r: r.kind == "principal"
            and r.left_factor_of_T == r.left_factor_of_S != IDENTITY_TREE),
        (A, B, lambda r: r.kind == "empty"),
    ):
        seen.clear()
        res = co.left_ideal_intersection_FLAd(S, T)
        assert exit_reached(res), (S, T, res)
        assert len(seen) == 2 and set(seen) == {S, T}, (S, T, seen)


def test_left_intersection_cofactors_reach_the_generator():
    """generator = f_T T = f_S S for every principal result over the
    left-Ehresmann trees of <= 3 edges."""
    pool = le_trees(3)
    assert len(pool) == 80
    principal = 0
    for S, T in itertools.product(pool, repeat=2):
        res = co.left_ideal_intersection_FLAd(S, T)
        if res.kind != "principal":
            continue
        principal += 1
        G = res.generator
        assert tree_multiply(res.left_factor_of_T, T) == G, (S, T, res)
        assert tree_multiply(res.left_factor_of_S, S) == G, (S, T, res)
    assert principal > 0


def test_left_intersection_against_brute_force():
    pool = le_trees(2)
    factors = le_trees(3)
    for S, T in itertools.product(pool, repeat=2):
        res = co.left_ideal_intersection_FLAd(S, T)
        common = {
            tree_multiply(c, S)
            for c in factors
        } & {tree_multiply(c, T) for c in factors}
        if res.kind == "principal":
            assert res.generator in common
        elif res.conclusive:
            assert not common, (S, T)


def test_right_annihilator():
    assert co.right_annihilator_FLAd(A).pairs == frozenset()
    T = tree_multiply(A, tree_plus(B))
    gens = co.right_annihilator_FLAd(T)
    assert gens.side == "right"
    assert gens.pairs == frozenset({(IDENTITY_TREE, tree_plus(B))})
    # the generating pair really is an annihilating pair
    for u, v in gens.pairs:
        assert tree_multiply(T, u) == tree_multiply(T, v)


def test_divides():
    ab = tree_multiply(A, B)
    assert divides(B, ab, "left")
    assert not divides(A, ab, "left")
    assert divides(A, ab, "right")
    assert not divides(B, ab, "right")


def test_right_intersection_small():
    abp = tree_multiply(A, tree_plus(B))  # a b+ is a right multiple of a
    cap = len(A.edges) + len(abp.edges) + 4  # the cap `ehres check right-intersect` uses
    Z = co.right_ideal_intersection_FLAd(A, abp, max_edges=cap, factor_edges=cap)
    assert abp in Z
    for V in Z:
        assert divides(A, V, "right")
        assert divides(abp, V, "right")


class RightIntersectionOracle:
    """Z_L by its two-enumeration definition: every left-Ehresmann tree of at
    most max_edges edges and directed depth at most L that is both a T- and
    an S-multiple by a cofactor of at most factor_edges edges.  Enumerations
    and each tree's set of multiples are kept between calls."""

    def __init__(self):
        self.trees = {}
        self.multiples = {}

    def enum(self, labels, max_edges):
        key = (labels, max_edges)
        if key not in self.trees:
            self.trees[key] = xtree.enumerate_trees(labels, max_edges, left_ehresmann_only=True)
        return self.trees[key]

    def right_multiples(self, T, labels, factor_edges):
        key = (T, labels, factor_edges)
        if key not in self.multiples:
            self.multiples[key] = {tree_multiply(T, A) for A in self.enum(labels, factor_edges)}
        return self.multiples[key]

    def __call__(self, S, T, max_edges, factor_edges):
        L = max(xtree.depth_directed(S), xtree.depth_directed(T))
        labels = "".join(sorted(xtree.label_set(S) | xtree.label_set(T))) or "a"
        t_mult = self.right_multiples(T, labels, factor_edges)
        s_mult = self.right_multiples(S, labels, factor_edges)
        return tuple(
            V
            for V in self.enum(labels, max_edges)
            if xtree.depth_directed(V) <= L and V in t_mult and V in s_mult
        )


def test_right_intersection_matches_the_two_enumeration_oracle():
    oracle = RightIntersectionOracle()
    pool = le_trees(2)
    for S, T in itertools.product(pool, repeat=2):
        got = co.right_ideal_intersection_FLAd(S, T, max_edges=5, factor_edges=3)
        assert got == oracle(S, T, 5, 3), (S, T)
        if len(S.edges) + len(T.edges) <= 2:
            cap = len(S.edges) + len(T.edges) + 4  # the cap `ehres check right-intersect` uses
            got = co.right_ideal_intersection_FLAd(S, T, max_edges=cap, factor_edges=cap)
            assert got == oracle(S, T, cap, cap), (S, T)


def test_cong_gen_set_side_validation():
    with pytest.raises(ValueError):
        co.CongGenSet(frozenset(), "up")

