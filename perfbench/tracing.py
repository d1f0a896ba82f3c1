"""In-memory span tracing of the package's public functions.

``install`` wraps each function named in ``TRACED`` and rebinds the wrapper
on its own module and on every ``from ... import`` copy held by another
module of the package, so calls made inside the package are traced too.  A
span records its name, start, end, parent span and op id; spans live in
flat arrays and are written out once, at the end of the run.  A layer's
self time is its span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List

MODULES = (
    "cli", "words", "psdp", "scheiblich", "expansions",
    "xtree", "normalform", "coherence", "embed_theta",
)

TRACED = (
    "cli.main", "cli.run_check", "cli.eval_term", "cli.parse_term",
    "words.gmul",
    "psdp.sdp_multiply",
    "scheiblich.munn_multiply",
    "expansions.mm_multiply", "expansions.qn_multiply", "expansions.munn_to_mm",
    "xtree.prune", "xtree.canonicalize", "xtree.canonical_encode",
    "xtree.tree_multiply", "xtree.enumerate_trees", "xtree.trunk_factorization",
    "normalform.normal_form_of_tree", "normalform.normalize", "normalform.eval_to_tree",
    "coherence.left_divide", "coherence.left_ideal_intersection_FLAd",
    "coherence.right_ideal_intersection_FLAd", "coherence.right_annihilator_FLAd",
    "coherence.check_forbidden_config", "coherence.check_bgr_config",
    "coherence.check_ghe_quotient_conditions", "coherence.check_triangle",
    "coherence.check_lemma_m_n",
    "embed_theta.theta", "embed_theta.theta_morphism_check",
)


class Tracer:
    """Spans in flat arrays, plus the counters the wrappers record."""

    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.seen_pairs: set = set()
        self.missing: List[str] = []
        self.op_names: Dict[str, int] = {}

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable = None) -> Callable:
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def open_op(self, op_id: int, kind: str) -> int:
        """Open the root span of one op; spans opened until it closes are its children."""
        self.op_id = op_id
        key = "op." + kind
        if key not in self.op_names:
            self.op_names[key] = self.intern(key)
        return self.open(self.op_names[key])

    # -- results -----------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: [name, start, end, parent, op]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name_of[i]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.op[i]}]\n"
                )


# -- counters recorded at the layer boundary ---------------------------------

def _count_prune(t: Tracer, args, result) -> None:
    t.counts["xtree.prune.edges_in"] += len(args[0].edges)
    t.counts["xtree.prune.edges_removed"] += len(args[0].edges) - len(result.edges)


def _count_multiply(t: Tracer, args, result) -> None:
    key = (args[0], args[1])
    if key in t.seen_pairs:
        t.counts["xtree.tree_multiply.repeats"] += 1
    else:
        t.seen_pairs.add(key)


def _count_enumerate(t: Tracer, args, result) -> None:
    t.counts["xtree.enumerate_trees.trees_out"] += len(result)


def _count_left_divide(t: Tracer, args, result) -> None:
    t.counts["coherence.left_divide.found"] += result is not None


def _count_left_intersection(t: Tracer, args, result) -> None:
    t.counts["coherence.left_ideal_intersection_FLAd.inconclusive"] += not result.conclusive


COUNTERS = {
    "xtree.prune": _count_prune,
    "xtree.tree_multiply": _count_multiply,
    "xtree.enumerate_trees": _count_enumerate,
    "coherence.left_divide": _count_left_divide,
    "coherence.left_ideal_intersection_FLAd": _count_left_intersection,
}


def install(tracer: Tracer, modules: Dict[str, object]) -> None:
    """Wrap every name in TRACED that exists; record the rest as missing."""
    for qual in TRACED:
        mod_name, attr = qual.split(".", 1)
        fn = getattr(modules.get(mod_name), attr, None)
        if not callable(fn):
            tracer.missing.append(qual)
            continue
        wrapped = tracer.wrap(qual, fn, COUNTERS.get(qual))
        for other in modules.values():
            for key, value in list(vars(other).items()):
                if value is fn:
                    setattr(other, key, wrapped)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the spans."""
    agg = tracer.aggregate()
    c = tracer.counts

    def get(name: str, field: str) -> float:
        return agg[name][field] if name in agg else 0

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {}
    for name in ("xtree.prune", "xtree.canonicalize", "xtree.canonical_encode",
                 "xtree.enumerate_trees", "normalform.normal_form_of_tree",
                 "coherence.left_ideal_intersection_FLAd",
                 "coherence.right_ideal_intersection_FLAd", "words.gmul",
                 "psdp.sdp_multiply", "scheiblich.munn_multiply",
                 "expansions.mm_multiply", "expansions.qn_multiply",
                 "embed_theta.theta"):
        m[name + ".calls"] = get(name, "calls")
        m[name + ".self_s"] = get(name, "self_s")
    m["xtree.prune.edges_in"] = c["xtree.prune.edges_in"]
    m["xtree.prune.edges_removed"] = c["xtree.prune.edges_removed"]
    m["xtree.tree_multiply.calls"] = get("xtree.tree_multiply", "calls")
    m["xtree.tree_multiply.total_s"] = get("xtree.tree_multiply", "total_s")
    m["xtree.tree_multiply.repeat_share"] = share(
        c["xtree.tree_multiply.repeats"], get("xtree.tree_multiply", "calls"))
    m["xtree.enumerate_trees.trees_out"] = c["xtree.enumerate_trees.trees_out"]
    m["xtree.trunk_factorization.self_s"] = get("xtree.trunk_factorization", "self_s")
    m["normalform.normalize.self_s"] = get("normalform.normalize", "self_s")
    m["normalform.eval_to_tree.calls"] = get("normalform.eval_to_tree", "calls")
    m["coherence.left_divide.calls"] = get("coherence.left_divide", "calls")
    m["coherence.left_divide.found_share"] = share(
        c["coherence.left_divide.found"], get("coherence.left_divide", "calls"))
    m["coherence.left_ideal_intersection_FLAd.inconclusive"] = c[
        "coherence.left_ideal_intersection_FLAd.inconclusive"]
    m["expansions.munn_to_mm.self_s"] = get("expansions.munn_to_mm", "self_s")
    for name in ("coherence.check_forbidden_config", "coherence.check_bgr_config",
                 "coherence.check_ghe_quotient_conditions", "coherence.check_triangle",
                 "coherence.check_lemma_m_n", "embed_theta.theta_morphism_check"):
        m[name + ".total_s"] = get(name, "total_s")
    m["cli.parse_term.self_s"] = get("cli.parse_term", "self_s")
    m["cli.run_check.self_s"] = get("cli.run_check", "self_s")
    for mod in MODULES:
        m[mod + ".self_s"] = sum(
            row["self_s"] for name, row in agg.items() if name.split(".", 1)[0] == mod)
    m["trace.spans"] = len(tracer.start)
    m["trace.missing"] = len(tracer.missing)
    return m
