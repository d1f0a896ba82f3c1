"""Record the expected outputs the benchmark compares against.

    python3 perfbench/record.py fad-products    # digests of the default seed's ops
    python3 perfbench/record.py flad-ideals     # every op input the workload can draw
    python3 perfbench/record.py criteria-calls  # prints the calls flad-ideals mirrors

Run from the root of a checkout at the commit whose outputs are the
reference.  flad-ideals outputs are checked here, once, against the
brute-force oracles of acceptance criteria 08 and 09 (cofactors of at most
three edges); the recorder stops without writing if any output disagrees.
criteria-calls runs those two acceptance tests and counts the calls their
own bodies make to the functions flad-ideals runs as ops (calls made from
inside another counted call are not counted).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import Counter

import run
import reference as ref
from workloads import DEFAULT_SEED, EXPECTED, FadProducts, FladIdeals, clear_enumeration_caches

FAD_ROUNDS = 16  # more than a timed run completes at the recording commit


def record_fad(m) -> dict:
    wl = FadProducts(m, DEFAULT_SEED)
    wl.expected = None
    digests = []
    for _ in range(FAD_ROUNDS):
        ops = wl.next_round()
        for op, (result, error, _) in zip(ops, run.run_ops(ops)):
            if error is None:
                reason = wl.check(len(digests), op, result)
                if reason is not None:
                    sys.exit(f"reference check failed: {reason}")
            digests.append(None if error is not None else ref.digest(result))
    return {"seed": DEFAULT_SEED, "digests": digests}


def record_flad(m) -> dict:
    xt, co = m.xtree, m.coherence
    wl = FladIdeals(m, DEFAULT_SEED)
    by_digest = {ref.digest(t)[:8]: t for t in wl.pool}
    keys = sorted(by_digest)
    trees = [by_digest[k] for k in keys]
    factors = list(xt.enumerate_trees("ab", 3, left_ehresmann_only=True))
    left_multiples = [{xt.tree_multiply(c, t) for c in factors} for t in trees]
    problems = []

    li_rows, ld_rows = [], []
    for i, s in enumerate(trees):
        li, ld = [], []
        for j, t in enumerate(trees):
            res = co.left_ideal_intersection_FLAd(s, t)
            common = left_multiples[i] & left_multiples[j]
            if res.kind == "principal":
                g = res.generator
                ok = co.left_divide(s, g) is not None and co.left_divide(t, g) is not None
                for v in common:
                    c = co.left_divide(g, v)
                    ok = ok and c is not None and xt.tree_multiply(c, g) == v
                li.append("P" + ref.digest(g)[:8])
            else:
                ok = not common
                li.append("E" if res.conclusive else "?")
            if not ok:
                problems.append(f"left intersection {keys[i]} {keys[j]}")
            a = co.left_divide(s, t)
            if a is None and t in left_multiples[i] or a is not None and xt.tree_multiply(a, s) != t:
                problems.append(f"left divide {keys[i]} {keys[j]}")
            ld.append("0" if a is None else "1")
        li_rows.append(" ".join(li))
        ld_rows.append("".join(ld))
        print(f"left ideals {i + 1}/{len(trees)}", file=sys.stderr)

    annihilator = []
    for t in trees:
        gens = co.right_annihilator_FLAd(t)
        table = {u: xt.tree_multiply(t, u) for u in factors}
        fm_table = {u: u for u in factors}
        if gens.pairs:
            ((_, fm),) = gens.pairs
            fm_table = {u: xt.tree_multiply(fm, u) for u in factors}
        if any((table[u] == table[v]) != (fm_table[u] == fm_table[v])
               for u, v in itertools.combinations(factors, 2)):
            problems.append(f"right annihilator {ref.digest(t)[:8]}")
        annihilator.append(ref.digest_text(" ".join(
            sorted(ref.digest(u) + ":" + ref.digest(v) for u, v in gens.pairs)))[:8])

    index = {k: i for i, k in enumerate(keys)}
    right = {}
    # criterion 09's divides(u, v, "right", bound=5), with each u's right
    # multiples by cofactors of at most five edges computed once
    cofactors = xt.enumerate_trees("ab", 5, left_ehresmann_only=True)
    right_multiples = {}

    def divides(u, v):
        if u not in right_multiples:
            right_multiples[u] = {xt.tree_multiply(u, a) for a in cofactors}
        return v in right_multiples[u]

    for n, (s, t) in enumerate(itertools.product(wl.two, repeat=2)):
        clear_enumeration_caches(m)
        z = co.right_ideal_intersection_FLAd(s, t, max_edges=5, factor_edges=3)
        sample = {v for v in ({xt.tree_multiply(s, c) for c in factors}
                              & {xt.tree_multiply(t, c) for c in factors})
                  if len(v.edges) <= 5}
        if not all(any(divides(u, v) for u in z) for v in sample):
            problems.append(f"right intersection {ref.digest(s)[:8]} {ref.digest(t)[:8]}")
        right[f"{index[ref.digest(s)[:8]]},{index[ref.digest(t)[:8]]}"] = ref.digest_trees(z)[:8]
        print(f"right intersections {n + 1}", file=sys.stderr)

    if problems:
        sys.exit("outputs disagree with the oracle:\n" + "\n".join(problems))
    return {
        "trees": keys, "left_intersection": li_rows, "left_divide": ld_rows,
        "right_annihilator": annihilator, "right_intersection": right,
    }


def criteria_calls(m) -> Counter:
    """Top-level calls of the flad-ideals op functions in criteria 08 and 09."""
    counts: Counter = Counter()
    depth = [0]

    def counted(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    counts[name] += 1
        return call

    for name in ("left_ideal_intersection_FLAd", "left_divide", "right_annihilator_FLAd",
                 "right_ideal_intersection_FLAd"):
        setattr(m.coherence, name, counted(name, getattr(m.coherence, name)))
    m.normalform.normal_form_of_tree = counted(
        "normal_form_of_tree", m.normalform.normal_form_of_tree)
    sys.path.insert(0, str(run.ROOT / "tests"))
    tests = importlib.import_module("test_acceptance")
    tests.test_criterion_08_ideal_algorithms_vs_brute_force()
    tests.test_criterion_09_right_intersection_generates()
    return counts


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else ""
    recorders = {"fad-products": record_fad, "flad-ideals": record_flad}
    if name not in recorders and name != "criteria-calls":
        sys.exit(f"usage: record.py {{{','.join(recorders)},criteria-calls}}")
    sys.path.insert(0, str(run.ROOT / "src"))
    if name == "criteria-calls":
        print(json.dumps(criteria_calls(run.fresh_import()), sort_keys=True))
        return 0
    data = recorders[name](run.fresh_import())
    data["source_sha1"] = run.source_digest()
    data["commit"] = run.commit()
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{name}.json").write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
