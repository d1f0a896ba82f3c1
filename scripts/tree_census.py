#!/usr/bin/env python3
"""Count pruned trees by edge bound: all elements, the left-Ehresmann part,
and the idempotents of each.

Usage: python scripts/tree_census.py [--labels ab] [--max-edges 4]
"""

import argparse
import sys

from ehresmann import xtree
from ehresmann.xtree import ResourceGuardError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--labels", default="ab")
    ap.add_argument("--max-edges", type=int, default=4)
    ap.add_argument("--budget", type=int, default=2_000_000)
    args = ap.parse_args()

    print(f"labels={args.labels!r}")
    print(f"{'edges<=':>8} {'all':>8} {'idem':>8} {'LE':>8} {'LE idem':>8}")
    for k in range(args.max_edges + 1):
        try:
            full = xtree.enumerate_trees(args.labels, k, budget=args.budget)
            le = xtree.enumerate_trees(
                args.labels, k, left_ehresmann_only=True, budget=args.budget
            )
        except (ValueError, ResourceGuardError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(
            f"{k:>8} {len(full):>8} "
            f"{sum(xtree.is_idempotent(t) for t in full):>8} "
            f"{len(le):>8} {sum(xtree.is_idempotent(t) for t in le):>8}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
