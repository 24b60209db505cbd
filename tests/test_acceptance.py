"""Acceptance gate: one test per headline requirement.

Each test prints a single summary line (visible with pytest -s) and then
asserts, so a red run still shows which requirement broke.  Budgeted
tests also assert a wall-clock ceiling.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from cone_zoo import (
    EXPECTED_DET,
    all_cones,
    all_semigroups,
    an_cone,
    lattice_box,
    splits_of,
)
from symtoric.class_group import (
    class_group_of,
    group_order,
    order_of_class,
)
from symtoric.cones import hilbert_basis, in_semigroup, semigroup_member
from symtoric.duval import lookup
from symtoric.exact_linalg import IntegerMatrix, determinant, smith_normal_form
from symtoric.ideals import (
    PureHeightOneIdeal,
    divisor_class,
    find_sharpness_witness,
    intersect_valuation_ideals,
    is_principal,
    ordinary_power,
    symbolic_power,
    verify_containment,
)


def report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number}: {label} ... {'PASS' if ok else 'FAIL'}")


def test_criterion_1_cyclic_quotient_family():
    start = time.monotonic()
    failures = []
    for n in range(1, 11):
        group = class_group_of(an_cone(n))
        if group.invariant_factors != (n + 1,) or group.free_rank != 0:
            failures.append((n, group))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    report(1, "A_n class groups cyclic of order n+1 for n = 1..10", ok)
    assert not failures, failures
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_duval_catalog():
    expected = [
        ("A", 1, (2,), 2), ("A", 2, (3,), 3), ("A", 3, (4,), 4),
        ("A", 4, (5,), 5), ("A", 5, (6,), 6),
        ("D", 4, (2, 2), 2), ("D", 5, (4,), 4),
        ("D", 6, (2, 2), 2), ("D", 7, (4,), 4),
        ("E", 6, (3,), 3), ("E", 7, (2,), 2), ("E", 8, (), 1),
    ]
    failures = []
    for family, n, factors, d_min in expected:
        record = lookup(family, n)
        if record.group.invariant_factors != factors or record.d_min != d_min:
            failures.append((family, n, record))
    report(2, "du Val catalog groups and optimal multipliers", not failures)
    assert not failures, failures


def test_criterion_3_order_equals_determinant():
    start = time.monotonic()
    cones = all_cones()
    assert len(cones) >= 10
    assert {cone.ambient_dim for _, cone in cones} == {2, 3}
    failures = []
    for name, cone in cones:
        det = abs(determinant(cone.ray_matrix()))
        assert det <= 12, name
        order = group_order(class_group_of(cone))
        if order != det or det != EXPECTED_DET[name]:
            failures.append((name, order, det))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report(3, "class group order equals |det| on the cone fixtures", ok)
    assert not failures, failures
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_headline_containment():
    start = time.monotonic()
    failures = []
    for name, data in all_semigroups():
        det = abs(determinant(data.ray_matrix()))
        for i in range(len(data.rays)):
            q = PureHeightOneIdeal(data, ((i, 1),))
            if not verify_containment(q, det, 3).passed:
                failures.append((name, i))
    for cone_name, cone in (("a1", an_cone(1)), ("a2", an_cone(2))):
        data = hilbert_basis(cone)
        det = abs(determinant(cone.ray_matrix()))
        for mults in ((1, 2), (2, 1)):
            q = PureHeightOneIdeal(data, tuple(enumerate(mults)))
            if not verify_containment(q, det, 3).passed:
                failures.append((cone_name, mults))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(4, "symbolic power D*a lands in ordinary power a with D = |det|", ok)
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_sharpness_schedule():
    failures = []
    for n in (1, 2, 3):
        data = hilbert_basis(an_cone(n))
        q = PureHeightOneIdeal(data, ((0, 1),))
        if n == 1:
            hit = find_sharpness_witness(q, n, n + 1)
            if hit != (2, (2, -1)):
                failures.append((n, "wrong witness", hit))
        else:
            hit = find_sharpness_witness(q, n, n + 1)
            if hit is None or hit[0] > n + 1:
                failures.append((n, "no witness at level <= n+1", hit))
        cleared = find_sharpness_witness(q, n + 1, 4)
        if cleared is not None:
            failures.append((n, "optimal multiplier failed", cleared))
    report(5, "multiplier n fails on A_n while n+1 clears every level", not failures)
    assert not failures, failures


def test_criterion_6_symbolic_power_structure():
    failures = []
    for name, data in all_semigroups():
        group = class_group_of(data)
        nrays = len(data.rays)
        # (a) valuation ideal of the joint bounds equals the intersection
        # of the single-ray valuation ideals P0^(E) and P1^(2E), taken over
        # their divisors E e_0 and 2E e_1, for E = 1..3
        q_mixed = PureHeightOneIdeal(data, ((0, 1), (1, 2)))
        for power in (1, 2, 3):
            joint = symbolic_power(q_mixed, power)
            pieces = [
                PureHeightOneIdeal(data, ((0, power),)),
                PureHeightOneIdeal(data, ((1, 2 * power),)),
            ]
            meet = intersect_valuation_ideals(pieces)
            if joint.generators != meet.generators:
                failures.append((name, "intersection", power))
        # (b) at D = order of the class, the D-th symbolic power is
        # principal and generates all its multiples
        for i in range(nrays):
            q = PureHeightOneIdeal(data, ((i, 1),))
            order = order_of_class(divisor_class(q), group)
            if order is None:
                failures.append((name, i, "infinite order"))
                continue
            collapsed = symbolic_power(q, order)
            if not is_principal(collapsed):
                failures.append((name, i, "not principal"))
            for a in (1, 2, 3):
                if (
                    ordinary_power(collapsed, a).generators
                    != symbolic_power(q, order * a).generators
                ):
                    failures.append((name, i, "power mismatch", a))
    report(6, "symbolic powers intersect and collapse at the class order", not failures)
    assert not failures, failures


def test_criterion_7_smith_form_random_sweep():
    start = time.monotonic()
    rng = random.Random(75221)
    failures = 0
    for trial in range(1000):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = IntegerMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        dec = smith_normal_form(mat)
        good = (dec.U @ mat) @ dec.V == dec.S
        good = good and abs(determinant(dec.U)) == 1
        good = good and abs(determinant(dec.V)) == 1
        factors = [f for f in dec.invariant_factors if f]
        good = good and all(
            factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)
        )
        if rows == cols:
            det = abs(determinant(mat))
            if det:
                prod = 1
                for f in dec.invariant_factors:
                    prod *= f
                good = good and prod == det
        if not good:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    report(7, "smith form invariants on 1000 random matrices", ok)
    assert failures == 0, f"{failures} matrices violated an invariant"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_hilbert_basis_completeness():
    failures = []
    for name, data in all_semigroups():
        if data.ambient_dim != 2:
            continue
        u0, u1 = data.dual_rays
        vertices = [
            tuple(Fraction(2 * a * x + 2 * b * y) for x, y in zip(u0, u1))
            for a in (0, 1)
            for b in (0, 1)
        ]
        for point in lattice_box(vertices):
            if not in_semigroup(point, data):
                continue
            counts = semigroup_member(point, data)
            if counts is None:
                failures.append((name, point, "no decomposition"))
                continue
            rebuilt = tuple(
                sum(c * h[k] for c, h in zip(counts, data.hilbert_basis))
                for k in range(2)
            )
            if rebuilt != point:
                failures.append((name, point, "bad decomposition"))
        for h in data.hilbert_basis:
            if splits_of(h, data):
                failures.append((name, h, "basis element splits"))
    report(8, "hilbert bases generate and are irreducible on 2-D fixtures", not failures)
    assert not failures, failures
