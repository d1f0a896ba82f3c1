"""Benchmark of the ehresmann toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload fad-products --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
One process and one thread drive a closed loop with one caller: each op
starts when the previous one returns.  Ops come in whole rounds (see
``workloads.py``).  A round's inputs are made before it starts and its
outputs are checked against references after it ends, both outside the op
timers; rounds run until the ops have taken ``--seconds`` in total.

``--trace 0`` prints the end-to-end metrics:
  setup_s         median of eleven set-ups: import plus input generation
  ops_per_s       ops that completed correctly per second of op time
  latency_p50_ms  per-op latency, median; a failed op ranks above every
  latency_p90_ms  latency and, when picked, reads as the run's op time
  completed_share ops that completed correctly / ops attempted
  peak_rss_mb     peak resident memory of the process
``failed_share`` (1 - completed_share) and the latency sample count are
printed on the lines above the result; the JSON carries them as
``failed`` and ``attempted``, since its metrics must never read 0.

``--trace 1`` runs a fixed number of rounds three times: untraced, with
every public function named in ``tracing.TRACED`` wrapped, and untraced
again.  It prints the per-layer metrics plus the tracing overhead.  Spans
are written to ``.bench_out/``.  The counts repeat exactly for a fixed seed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false
when any output disagreed with its reference; an op that raises counts as
failed, not as incorrect."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every set-up compiles the package afresh: bytecode is neither written nor
# read from any __pycache__ a test run may have left in the checkout, since
# Python looks for it only under this prefix, which is never created
sys.dont_write_bytecode = True
sys.pycache_prefix = str(ROOT / ".bench_out" / "no-bytecode")
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
TRACE_ROUNDS = {"certificate-sweep": 1, "fad-products": 2, "flad-ideals": 8}
OUT = ROOT / ".bench_out"


def fresh_import() -> SimpleNamespace:
    """Import the package from scratch, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "ehresmann" or n.startswith("ehresmann.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{
        name: importlib.import_module("ehresmann." + name) for name in tracing.MODULES
    })


def set_up(workload: str, seed: int):
    start = time.perf_counter()
    m = fresh_import()
    wl = WORKLOADS[workload](m, seed)
    first = wl.next_round()
    return time.perf_counter() - start, m, wl, first


def run_ops(ops, tracer=None):
    """Run ops in a closed loop; returns [(result, error, seconds)]."""
    out = []
    clock = time.perf_counter
    for k, op in enumerate(ops):
        span = tracer.open_op(k, op.kind) if tracer else None
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        elapsed = clock() - t0
        if tracer:
            tracer.close(span)
        out.append((result, error, elapsed))
    return out


def verify(wl, ops, outcomes, first: int = 0):
    """(failed flags, reference mismatches, error kinds) for ops first, first+1, ..."""
    failed, mismatches, errors = [], [], Counter()
    for k, (op, (result, error, _)) in enumerate(zip(ops, outcomes)):
        if error is not None:
            errors[f"{error.split(':')[0]} in {op.kind}"] += 1
            failed.append(True)
            continue
        try:
            reason = wl.check(first + k, op, result)
        except Exception as exc:  # an output the reference cannot read is wrong
            reason = f"{op.kind}: checking the output raised {type(exc).__name__}: {exc}"
        if reason is not None:
            mismatches.append(reason)
        failed.append(reason is not None)
    return failed, mismatches, errors


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def source_digest() -> str:
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def commit() -> str:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": commit(),
        "source_sha1": source_digest(), "machine": platform.machine(),
    }


def timed_run(args) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, _, wl, ops = set_up(args.workload, args.seed)
        setups.append(seconds)
    latencies, kinds, mismatches, errors = [], {}, [], Counter()
    busy = 0.0
    while True:
        outcomes = run_ops(ops)
        # each round is checked, and its outputs dropped, before the next one
        failed, bad, errs = verify(wl, ops, outcomes, len(latencies))
        mismatches += bad
        errors += errs
        for op, (_, _, seconds), f in zip(ops, outcomes, failed):
            latencies.append(math.inf if f else seconds)
            kinds.setdefault(op.kind, []).append(seconds)
            busy += seconds
        if busy >= args.seconds:
            break
        ops = wl.next_round()
    attempted = len(latencies)
    completed = sum(not math.isinf(x) for x in latencies)
    latencies.sort()

    def quantile_ms(q: float) -> float:
        value = nearest_rank(latencies, q)
        return (busy if math.isinf(value) else value) * 1e3

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (completed / busy, "1/s"),
        "latency_p50_ms": (quantile_ms(0.5), "ms"),
        "latency_p90_ms": (quantile_ms(0.9), "ms"),
        "completed_share": (completed / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "failed_share": 1 - completed / attempted,
        "latency_samples": attempted,
        "op_seconds": busy,
        "setup_runs_s": setups,
        "errors": dict(errors),
        "mismatches": mismatches[:20],
        "per_kind_ms": {k: {"ops": len(v), "p50": nearest_rank(sorted(v), 0.5) * 1e3}
                        for k, v in sorted(kinds.items())},
    }
    return {"correct": not mismatches, "attempted": attempted, "failed": attempted - completed,
            "metrics": metrics, "info": info}


def traced_run(args) -> dict:
    _, m, wl, ops = set_up(args.workload, args.seed)
    for _ in range(TRACE_ROUNDS[args.workload] - 1):
        ops = ops + wl.next_round()
    # untraced, traced, untraced again: the mean of the untraced passes
    # cancels a steady drift in machine speed
    plain = run_ops(ops)
    failed, mismatches, errors = verify(wl, ops, plain)
    tracer = tracing.Tracer()
    unwrapped = {name: dict(vars(module)) for name, module in vars(m).items()}
    tracing.install(tracer, vars(m))
    traced = run_ops(ops, tracer)
    for name, module in vars(m).items():
        vars(module).update(unwrapped[name])
    again = run_ops(ops)
    for op, a, b in zip(ops, plain, traced):
        if a[1] != b[1] or (a[1] is None and a[0] != b[0]):
            mismatches.append(f"{op.kind}: traced output differs from untraced output")
    untraced_s = (sum(o[2] for o in plain) + sum(o[2] for o in again)) / 2
    traced_s = sum(o[2] for o in traced)
    layer = tracing.layer_metrics(tracer)
    layer["trace.overhead_s"] = traced_s - untraced_s
    layer["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    units = {"calls": "count", "self_s": "s", "total_s": "s", "edges_in": "count",
             "edges_removed": "count", "repeat_share": "share", "trees_out": "count",
             "found_share": "share", "inconclusive": "count", "spans": "count",
             "missing": "count", "overhead_s": "s", "overhead_share": "share"}
    metrics = {k: (v, units[k.rsplit(".", 1)[1]]) for k, v in layer.items()}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    info = {
        "untraced_s": untraced_s, "traced_s": traced_s, "ops": len(ops),
        "missing": tracer.missing, "errors": dict(errors), "mismatches": mismatches[:20],
    }
    return {"correct": not mismatches, "attempted": len(ops), "failed": sum(failed),
            "metrics": metrics, "info": info}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ehresmann" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'ehresmann'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    meta = metadata(args)
    res = traced_run(args) if args.trace else timed_run(args)
    print("meta " + json.dumps(meta, sort_keys=True))
    for key, value in res["info"].items():
        print(f"{key} {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:55s} {value:.6g} {unit}")
    result = {
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "info": res["info"], **result}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
