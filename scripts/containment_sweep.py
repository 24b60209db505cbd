#!/usr/bin/env python3
"""Containment sweep over a panel of simplicial full cones.

For each cone and each ray prime P the sweep reports the class group,
the determinant multiplier D, the group exponent D_min, and whether
P^(D*a) lands in P^a for a up to a chosen level.  It then probes the
candidates below D_min for a failing level, showing where each one
breaks and thereby how tight the exponent is.

Usage: python3 scripts/containment_sweep.py [a_max]
"""

from __future__ import annotations

import sys

from symtoric.class_group import class_group_of, det_multiplier, group_exponent
from symtoric.cones import WorkLimitExceeded, make_cone
from symtoric.ideals import (
    PureHeightOneIdeal,
    find_sharpness_witness,
    verify_containment,
)

PANEL = [
    ("quadrant", 2, [(1, 0), (0, 1)]),
    ("half quotient", 2, [(1, 0), (1, 2)]),
    ("third quotient", 2, [(1, 0), (1, 3)]),
    ("quarter quotient", 2, [(1, 0), (1, 4)]),
    ("skew five", 2, [(2, 1), (1, 3)]),
    ("octant", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("even quadric", 3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    ("double half", 3, [(1, 0, 0), (1, 2, 0), (1, 0, 2)]),
    ("parity cube", 3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
]


def sweep(a_max: int) -> tuple[int, list[str]]:
    """The exit status and the report's lines, built whole before any is printed."""
    bad, lines = 0, []
    for label, dim, rays in PANEL:
        cone = make_cone(rays, dim)
        group = class_group_of(cone)
        d = det_multiplier(cone)
        d_min = group_exponent(group)
        factors = list(group.invariant_factors)
        lines.append(f"{label}: rays {rays}")
        lines.append(f"  class group factors {factors}, D = {d}, D_min = {d_min}")
        for i in range(len(cone.rays)):
            q = PureHeightOneIdeal(cone, ((i, 1),))
            report = verify_containment(q, d, a_max)
            verdict = "pass" if report.passed else "FAIL"
            line = f"  P{i}: D = {d} {verdict}"
            if not report.passed:
                bad += 1
            probes = []
            for candidate in range(1, d_min):
                hit = find_sharpness_witness(q, candidate, a_max)
                if hit is None:
                    probes.append(f"D = {candidate} holds to a = {a_max}")
                else:
                    probes.append(f"D = {candidate} breaks at a = {hit[0]}")
            if probes:
                line += "; " + "; ".join(probes)
            lines.append(line)
        lines.append("")
    if bad:
        return 1, lines + [f"{bad} containment sweeps failed"]
    return 0, lines + ["all containments verified"]


def main() -> int:
    try:
        a_max = int(sys.argv[1]) if len(sys.argv) > 1 else 3
        if a_max < 1:
            raise ValueError
    except ValueError:
        print(f"error: a_max must be an integer >= 1, got {sys.argv[1]!r}", file=sys.stderr)
        return 1
    try:
        status, lines = sweep(a_max)
    except WorkLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(*lines, sep="\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
