#!/usr/bin/env python3
"""Print the du Val singularity table with recomputed multipliers.

For every catalog row the class group, its order, and the optimal
uniform multiplier D_min are shown.  A rows carry a toric cross-check:
the class group is recomputed from the quotient cone on (1, 0) and
(1, n+1) and compared against the catalog entry.

Usage: python3 scripts/duval_table.py [max_n]
where max_n bounds the A and D family indices (default 8).
"""

from __future__ import annotations

import sys

from symtoric.class_group import group_order
from symtoric.duval import OutOfCatalogError, cross_check_an, lookup


def fmt_group(record) -> str:
    parts = [f"Z/{d}" for d in record.group.invariant_factors]
    return " x ".join(parts) if parts else "trivial"


def main() -> int:
    try:
        max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
        if max_n < 1:
            raise ValueError
    except ValueError:
        print(f"error: max_n must be an integer >= 1, got {sys.argv[1]!r}", file=sys.stderr)
        return 1
    rows = []
    for n in range(1, max_n + 1):
        rows.append(("A", n))
    for n in range(4, max_n + 1):
        rows.append(("D", n))
    for n in (6, 7, 8):
        rows.append(("E", n))

    header = f"{'type':<6} {'group':<12} {'order':>5} {'D_min':>5}  {'equation':<20} check"
    print(header)
    print("-" * len(header))
    for family, n in rows:
        try:
            record = lookup(family, n)
        except OutOfCatalogError:
            continue
        check = ""
        if family == "A":
            check = "ok" if cross_check_an(n) else "MISMATCH"
        print(
            f"{family + '_' + str(n):<6} {fmt_group(record):<12} "
            f"{group_order(record.group):>5} {record.d_min:>5}  "
            f"{record.local_equation:<20} {check}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
