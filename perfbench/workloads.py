"""The three workloads: inputs made from one seeded ``random.Random`` each,
the ops run on them, and the reference check of every op's output.

An op is a call into the package's public functions.  Every op calls
through module attributes (``m.xtree.tree_multiply``, not a copy bound at
set-up), so the wrappers of the traced run see it.  Ops come in rounds
with a fixed composition: every round of certificate-sweep and
fad-products runs the same ops up to their content and order, and every
round of flad-ideals runs the same count of each kind.  The seed picks the
concrete inputs and their order, so runs with different seeds, and runs
that stop after a different number of rounds, measure the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

import reference as ref

LETTERS = "ab"
EXPECTED = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 1  # fad-products outputs for this seed are recorded in expected/


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    data: Any  # what the reference check needs


def size_grid(lo: float, hi: float, k: int, log: bool = False) -> List[int]:
    """k sizes spaced evenly from lo to hi, on a log scale if asked.

    Sizes are fixed so that every seed runs the same size mix; the seed
    picks the content of each input.
    """
    if log:
        return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]
    return [round(lo + (hi - lo) * i / (k - 1)) for i in range(k)]


def random_term(rng: random.Random, n_atoms: int, postfixes: Tuple[str, ...]) -> Tuple[str, Tuple[str, ...]]:
    """A term of n_atoms letters, some grouped under ^+ / ^*, and its trunk word."""
    parts: List[str] = []
    trunk: List[str] = []
    left = n_atoms
    while left > 0:
        if left >= 2 and rng.random() < 0.35:
            k = rng.randint(1, min(4, left))
            inner = " ".join(rng.choice(LETTERS) for _ in range(k))
            parts.append(f"({inner}){rng.choice(postfixes)}")
            left -= k
        else:
            x = rng.choice(LETTERS)
            parts.append(x)
            trunk.append(x)
            left -= 1
    return " ".join(parts), tuple(trunk)


def random_raw_tree(m, rng: random.Random, n_edges: int):
    """A raw bi-pointed tree with a random end among the directed-reachable vertices."""
    edges = []
    for v in range(1, n_edges + 1):
        anchor = rng.randrange(v)
        lab = rng.choice(LETTERS)
        edges.append((anchor, lab, v) if rng.random() < 0.5 else (v, lab, anchor))
    start = rng.randrange(n_edges + 1)
    out: List[List[int]] = [[] for _ in range(n_edges + 1)]
    for s, _, d in edges:
        out[s].append(d)
    reach = [start]
    for v in reach:
        reach.extend(out[v])
    return m.xtree.RawTree(n_edges + 1, tuple(edges), start, rng.choice(sorted(reach)))


def _load_expected(name: str) -> Optional[dict]:
    path = EXPECTED / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


class Workload:
    name = ""

    def __init__(self, m, seed: int):
        self.m = m
        self.rng = random.Random(seed)

    def next_round(self) -> List[Op]:
        ops = self.make_round()
        self.rng.shuffle(ops)
        return ops

    def make_round(self) -> List[Op]:
        raise NotImplementedError

    def check(self, index: int, op: Op, result: Any) -> Optional[str]:
        """None when the output agrees with the reference, else the reason."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certificate-sweep

CERTIFICATES = (
    # (check, flag, range of the flag, fixed arguments); every verdict is pass
    ("forbidden-config", "--depth", range(5, 13), ["--example", "fi"]),
    ("forbidden-config", "--depth", range(5, 13), ["--example", "freemonoid"]),
    ("forbidden-config", "--depth", range(5, 13), ["--example", "mm"]),
    ("forbidden-config", "--depth", range(5, 13), ["--example", "fad"]),
    ("bgr", "--depth", range(5, 13), ["--model", "sdp:Z"]),
    ("bgr", "--depth", range(5, 13), ["--model", "qn:3"]),
    ("ghe", "--depth", range(4, 17), []),
    ("triangle", "--depth", range(3, 11), []),
    ("lemma-m-n", "--depth", range(3, 6), []),
    ("mm-fi-iso", "--bound", range(4, 6), []),
    ("theta-morphism", "--bound", range(2, 3), []),
)


class CertificateSweep(Workload):
    """`ehres check` as its users run it: every certificate through cli.main.

    A round runs each certificate SLOTS times, at depths spread evenly over
    its range (the same depths in every round), plus theta-morphism SLOTS
    times on seeded --gamma/--delta terms.
    """

    name = "certificate-sweep"
    SLOTS = 13  # the size of the largest range, so each of its depths runs once

    def make_round(self) -> List[Op]:
        argvs = []
        for name, flag, values, fixed in CERTIFICATES:
            for k in range(self.SLOTS):
                depth = values[k * len(values) // self.SLOTS]
                argvs.append(["check", name, *fixed, flag, str(depth)])
        for _ in range(self.SLOTS):
            gamma, _ = random_term(self.rng, self.rng.randint(2, 6), ("^+",))
            delta, _ = random_term(self.rng, self.rng.randint(2, 6), ("^+",))
            argvs.append(["check", "theta-morphism", "--gamma", gamma, "--delta", delta])
        return [Op(argv[1], self._runner(argv), argv) for argv in argvs]

    def _runner(self, argv: List[str]) -> Callable[[], Tuple[int, str]]:
        m = self.m

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = m.cli.main(argv)
            return code, out.getvalue()

        return run

    def check(self, index, op, result):
        code, text = result
        try:
            verdict = json.loads(text)["verdict"]
        except (ValueError, KeyError, TypeError):
            verdict = None
        if code != 0 or verdict != "pass":
            return f"{' '.join(op.data)}: exit {code}, verdict {verdict}, expected 0/pass"
        return None


# ---------------------------------------------------------------------------
# fad-products

class FadProducts(Workload):
    """Large, unique pruned-tree products: term evaluation, products, prunes."""

    name = "fad-products"
    # per round: the same count of the three main kinds (term evaluation,
    # split evenly between fad and flad; products; raw prunes), and a few
    # percent deep word-tree products
    EVAL_TERMS, PRODUCTS_PER_CLASS, PRUNES = 16, 8, 32
    SIZE_CLASSES = ((7, 15), (15, 30), (30, 55), (55, 85))
    OPERANDS_PER_CLASS = 4
    # |u|+|v| of the deep products in every round; lengths near the recursion
    # limit (about 490 letters) are left out so the traced run, whose wrappers
    # add stack frames, fails on the same ops as the timed run
    DEEP_SIZES = (320, 950, 1550)

    def __init__(self, m, seed):
        super().__init__(m, seed)
        self.expected = _load_expected(self.name)
        if self.expected is not None and self.expected["seed"] != seed:
            self.expected = None

    def _operand_pairs(self) -> List[Tuple[Any, Any]]:
        """Fresh operands for one round, so no operand pair ever repeats.

        Operands are products of small pruned random trees, grown to an
        exact size; single letters fill the last gaps.
        """
        m, rng = self.m, self.rng
        base = [m.xtree.prune(random_raw_tree(m, rng, n)) for n in size_grid(8, 24, 12)]
        base += [m.xtree.letter_tree(x) for x in LETTERS]
        pairs = []
        for lo, hi in self.SIZE_CLASSES:
            operands = []
            for target in size_grid(lo, hi, self.OPERANDS_PER_CLASS):
                acc = m.xtree.IDENTITY_TREE
                while len(acc.edges) < target:
                    fits = [b for b in base if len(b.edges) <= target - len(acc.edges)]
                    acc = m.xtree.tree_multiply(acc, rng.choice(fits))
                operands.append(acc)
            cell = [(s, t) for s in operands for t in operands if s is not t]
            pairs += rng.sample(cell, self.PRODUCTS_PER_CLASS)
        return pairs

    def make_round(self) -> List[Op]:
        m, rng = self.m, self.rng
        ops: List[Op] = []
        for model, postfixes in (("fad", ("^+", "^*")), ("flad", ("^+",))):
            for n in size_grid(8, 128, self.EVAL_TERMS, log=True):
                term, trunk = random_term(rng, n, postfixes)
                ops.append(Op("eval_" + model,
                              lambda term=term, model=model: m.cli.eval_term(term, model)[1],
                              (term, model, trunk)))
        for s, t in self._operand_pairs():
            ops.append(Op("multiply", lambda s=s, t=t: m.xtree.tree_multiply(s, t), (s, t)))
        for n in size_grid(8, 64, self.PRUNES, log=True):
            raw = random_raw_tree(m, rng, n)
            ops.append(Op("prune", lambda raw=raw: m.xtree.prune(raw), raw))
        for size in self.DEEP_SIZES:
            w = tuple(rng.choice(LETTERS) for _ in range(size))
            k = rng.randrange(1, size)
            u, v = w[:k], w[k:]
            ops.append(Op("deep_multiply",
                          lambda u=u, v=v: m.xtree.tree_multiply(m.xtree.word_tree(u), m.xtree.word_tree(v)),
                          w))
        return ops

    def check(self, index, op, result):
        reason = self._check_semantics(op, result)
        if reason is None and self.expected is not None and index < len(self.expected["digests"]):
            want = self.expected["digests"][index]
            if want is not None and ref.digest(result) != want:
                reason = f"op {index} ({op.kind}): digest differs from the recorded output"
        return reason

    def _check_semantics(self, op, result):
        if op.kind.startswith("eval_"):
            term, model, trunk = op.data
            munn = self.m.cli.eval_term(term, "fi")[1]
            if ref.fold(result) != (munn.aset, munn.point):
                return f"eval {model} {term!r}: fold differs from the free inverse monoid value"
            if model == "flad" and not ref.is_left_ehresmann(result):
                return f"eval flad {term!r}: result is not left-Ehresmann"
            expect_trunk = trunk
        elif op.kind == "multiply":
            s, t = op.data
            if ref.fold(result) != ref.fold_multiply(ref.fold(s), ref.fold(t)):
                return "multiply: fold of the product differs from the product of the folds"
            expect_trunk = ref.trunk(s) + ref.trunk(t)
        elif op.kind == "prune":
            if ref.fold(result) != ref.fold(op.data):
                return "prune: fold differs from the fold of the raw tree"
            expect_trunk = ref.trunk(op.data)
        else:
            expect_trunk = op.data
            if result.nv != len(op.data) + 1:
                return "deep_multiply: a product of word trees must be a word tree"
        if ref.trunk(result) != expect_trunk:
            return f"{op.kind}: trunk word not kept"
        return None


# ---------------------------------------------------------------------------
# flad-ideals

CATALOG_SEED = 20250611
CATALOG_SIZE = 24


def flad_catalog() -> List[str]:
    """Fixed flad terms of at most 8 atoms; fixed so every op has a recorded answer."""
    rng = random.Random(CATALOG_SEED)
    return [random_term(rng, rng.randint(2, 8), ("^+",))[0] for _ in range(CATALOG_SIZE)]


def clear_enumeration_caches(m) -> None:
    """Forget enumerations kept between calls, as a fresh process would."""
    for module in (m.coherence, m.xtree):
        for name, value in vars(module).items():
            if "enum" not in name.lower():
                continue
            if isinstance(value, dict):
                value.clear()
            inner = getattr(value, "__wrapped__", value)
            if hasattr(inner, "cache_clear"):
                inner.cache_clear()


class EnumerationCounter:
    """Counts calls of xtree.enumerate_trees, wherever the package holds it.

    A right intersection that makes no call reused an enumeration from an
    earlier op, whatever held it; its check then fails, so a cold op is
    never measured warm without notice.
    """

    def __init__(self, m):
        self.calls = 0
        fn = m.xtree.enumerate_trees

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        for module in vars(m).values():
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, counted)


class FladIdeals(Workload):
    """The ideal algorithms on left-Ehresmann trees (criteria 08/09 traffic).

    A round makes each call as often as acceptance criteria 08 and 09 make
    it from their own bodies, scaled down by 20 (one right intersection
    per round).  ``python3 perfbench/record.py criteria-calls`` recounts
    CRITERIA_CALLS.  left_ideal_intersection_FLAd, left_divide and
    right_annihilator_FLAd run on seeded pairs or trees of the pool; right
    intersections run on pairs of trees of at most two edges drawn as
    criterion 09 draws them, each with no enumeration carried over.
    normal_form_of_tree has no op of its own, since the criteria call it
    only from inside the functions above.
    """

    name = "flad-ideals"
    CRITERIA_CALLS = {"left_intersection": 6400, "left_divide": 9811,
                      "right_annihilator": 80, "right_intersection": 20}
    PER_ROUND = {kind: round(n / 20) for kind, n in CRITERIA_CALLS.items()}

    def __init__(self, m, seed):
        super().__init__(m, seed)
        small = m.xtree.enumerate_trees("ab", 3, left_ehresmann_only=True)
        terms = [m.cli.eval_term(t, "flad")[1] for t in flad_catalog()]
        self.pool = list(small) + terms
        self.two = [t for t in small if len(t.edges) <= 2]
        self.enumerations = EnumerationCounter(m)
        self.expected = _load_expected(self.name)
        self.index = {d: i for i, d in enumerate(self.expected["trees"])} if self.expected else {}

    def make_round(self) -> List[Op]:
        m, rng, pool, n = self.m, self.rng, self.pool, self.PER_ROUND
        co = m.coherence
        ops: List[Op] = []
        for _ in range(n["left_intersection"]):
            s, t = rng.choice(pool), rng.choice(pool)
            ops.append(Op("left_intersection", lambda s=s, t=t: co.left_ideal_intersection_FLAd(s, t), (s, t)))
        for _ in range(n["left_divide"]):
            s, t = rng.choice(pool), rng.choice(pool)
            ops.append(Op("left_divide", lambda s=s, t=t: co.left_divide(s, t), (s, t)))
        for _ in range(n["right_annihilator"]):
            t = rng.choice(pool)
            ops.append(Op("right_annihilator", lambda t=t: co.right_annihilator_FLAd(t), t))
        for _ in range(n["right_intersection"]):
            s, t = rng.choice(self.two), rng.choice(self.two)
            ops.append(Op("right_intersection", self._right(s, t), (s, t)))
        return ops

    def _right(self, s, t):
        m, counter = self.m, self.enumerations

        def run():
            clear_enumeration_caches(m)
            before = counter.calls
            z = m.coherence.right_ideal_intersection_FLAd(s, t, max_edges=5, factor_edges=3)
            return z, counter.calls - before

        return run

    # -- reference ---------------------------------------------------------

    def check(self, index, op, result):
        if self.expected is None:
            return "no recorded outputs for flad-ideals"
        inputs = op.data if isinstance(op.data, tuple) else (op.data,)
        at = [self.index.get(ref.digest(t)[:8]) for t in inputs]
        if None in at:
            return f"{op.kind}: input tree is not among the recorded inputs"
        e = self.expected
        if op.kind == "left_intersection":
            want = e["left_intersection"][at[0]].split()[at[1]]
            return self._check_left_intersection(want, result)
        if op.kind == "left_divide":
            s, t = op.data
            found = e["left_divide"][at[0]][at[1]] == "1"
            if (result is not None) != found:
                return f"left_divide: expected {'a' if found else 'no'} divisor"
            if result is not None and self.m.xtree.tree_multiply(result, s) != t:
                return "left_divide: A S != T"
            return None
        if op.kind == "right_annihilator":
            got = ref.digest_text(" ".join(sorted(ref.digest(u) + ":" + ref.digest(v) for u, v in result.pairs)))
            return None if got[:8] == e["right_annihilator"][at[0]] else "right_annihilator differs"
        z, enumerated = result
        if not enumerated:
            return "right intersection made no enumeration; it reused one from an earlier op"
        want = e["right_intersection"][f"{at[0]},{at[1]}"]
        return None if ref.digest_trees(z)[:8] == want else "right intersection differs"

    def _check_left_intersection(self, want, res):
        # an inconclusive verdict is never wrong; a conclusive one must agree
        # with the brute-force oracle the recorded outputs were checked against
        if not res.conclusive:
            return None
        if res.kind == "principal":
            if want.startswith("P") and ref.digest(res.generator)[:8] == want[1:]:
                return None
            return f"left intersection: principal, expected {want}"
        return None if want in ("E", "?") else f"left intersection: empty, expected {want}"


WORKLOADS = {w.name: w for w in (CertificateSweep, FadProducts, FladIdeals)}
