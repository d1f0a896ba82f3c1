#!/usr/bin/env python3
"""Run every finite certificate in one sweep and print a summary table.

Usage: python scripts/run_certificates.py [--depth N] [--json]
"""

import argparse
import json
import sys

from ehresmann.cli import CHECKS, EXIT_CODES
from ehresmann.xtree import ResourceGuardError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--json", action="store_true", help="emit full reports as JSON")
    args = ap.parse_args()
    N = args.depth

    sweep = [
        (f"forbidden-config/{example}", "forbidden-config",
         {"example": example, "depth": min(N, 4) if example == "mm" else N})
        for example in ("fi", "freemonoid", "mm", "fad")
    ] + [
        ("bgr/S(Z)", "bgr", {"model": "sdp:Z", "depth": N}),
        ("bgr/Q3(Z)", "bgr", {"model": "qn:3", "depth": N}),
        ("ghe/Q3(Z)", "ghe", {"model": "qn:3", "depth": N}),
        ("triangle/S(x*)", "triangle", {"depth": min(N, 3)}),
    ]
    try:
        reports = {name: CHECKS[check](**params) for name, check, params in sweep}
    except (ValueError, ResourceGuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    worst = 0
    for name, rep in sorted(reports.items()):
        mark = {"pass": "ok  ", "fail": "FAIL", "inconclusive": "????"}[rep.verdict]
        print(f"  {mark}  {name:30s} depth={rep.depth}  failures={len(rep.failures)}")
        worst = max(worst, EXIT_CODES[rep.verdict])
    if args.json:
        print(json.dumps({k: r.to_json() for k, r in reports.items()}, indent=2))
    return worst


if __name__ == "__main__":
    sys.exit(main())
