from __future__ import annotations

from math import gcd

import pytest

from reference import hirzebruch_jung
from symtoric.class_group import (
    AbelianGroupPresentation,
    class_group_of,
    group_exponent,
    group_order,
)
from symtoric.cones import make_cone
from symtoric.duval import DuValRecord, OutOfCatalogError, cross_check_an, lookup
from symtoric.exact_linalg import IntegerMatrix, smith_normal_form


class TestLookup:
    def test_a_family_rows(self):
        for n in range(1, 6):
            record = lookup("A", n)
            assert isinstance(record, DuValRecord)
            assert record.family == "A" and record.index == n
            assert record.group.invariant_factors == (n + 1,)
            assert record.group.free_rank == 0
            assert record.d_min == n + 1
        assert lookup("A", 1).local_equation == "xz - y^2"
        assert lookup("A", 4).local_equation == "xz - y^5"

    def test_d_family_parity_split(self):
        assert lookup("D", 4).group.invariant_factors == (2, 2)
        assert lookup("D", 5).group.invariant_factors == (4,)
        assert lookup("D", 6).group.invariant_factors == (2, 2)
        assert lookup("D", 7).group.invariant_factors == (4,)
        assert lookup("D", 4).d_min == 2
        assert lookup("D", 5).d_min == 4
        assert lookup("D", 6).local_equation == "x^2 + yz^2 - z^5"

    def test_e_family_rows(self):
        e6, e7, e8 = lookup("E", 6), lookup("E", 7), lookup("E", 8)
        assert e6.group.invariant_factors == (3,) and e6.d_min == 3
        assert e7.group.invariant_factors == (2,) and e7.d_min == 2
        assert e8.group.invariant_factors == () and e8.d_min == 1
        assert e6.local_equation == "x^4 + y^3 + z^2"
        assert e7.local_equation == "x^3y + y^3 + z^2"
        assert e8.local_equation == "x^5 + y^3 + z^2"

    def test_every_group_order_is_finite(self):
        rows = [lookup("A", n) for n in range(1, 9)]
        rows += [lookup("D", n) for n in range(4, 9)]
        rows += [lookup("E", n) for n in (6, 7, 8)]
        for record in rows:
            order = group_order(record.group)
            exponent = group_exponent(record.group)
            assert order is not None and exponent is not None
            assert order % exponent == 0

    def test_d_min_equals_order_only_for_cyclic(self):
        for n in range(4, 10):
            record = lookup("D", n)
            order = group_order(record.group)
            if n % 2 == 0:
                assert record.d_min == 2 and order == 4
                assert not record.group.is_cyclic
            else:
                assert record.d_min == 4 and order == 4
                assert record.group.is_cyclic

    def test_d_min_needs_finite_group(self):
        record = DuValRecord("A", 1, "xz - y^2", AbelianGroupPresentation((), 1))
        with pytest.raises(RuntimeError, match="infinite"):
            record.d_min

    def test_out_of_catalog(self):
        for family, n in (("A", 0), ("A", -3), ("D", 3), ("E", 5), ("E", 9), ("B", 2)):
            with pytest.raises(OutOfCatalogError):
                lookup(family, n)

    def test_out_of_catalog_is_value_error(self):
        with pytest.raises(ValueError):
            lookup("D", 2)


class TestCrossCheck:
    def test_a_family_recomputes(self):
        for n in range(1, 11):
            assert cross_check_an(n), n

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            cross_check_an(0)


def cokernel(rows: list[list[int]]) -> AbelianGroupPresentation:
    """Z^n modulo the row span of a square integer matrix."""
    factors = smith_normal_form(IntegerMatrix.from_rows(rows)).invariant_factors
    return AbelianGroupPresentation(
        tuple(f for f in factors if f >= 2), sum(1 for f in factors if f == 0)
    )


def intersection_matrix(
    self_intersections: list[int], edges: list[tuple[int, int]]
) -> list[list[int]]:
    """Intersection matrix of a resolution graph of rational curves that
    meet transversally once along each edge."""
    n = len(self_intersections)
    rows = [[0] * n for _ in range(n)]
    for i, e in enumerate(self_intersections):
        rows[i][i] = e
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def dynkin_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram: a path of n nodes for A_n; for D_n and
    E_n a path of n - 1 nodes with one more node on node n - 3 or node 2."""
    if family == "A":
        return [(i, i + 1) for i in range(n - 1)]
    branch = n - 3 if family == "D" else 2
    return [(i, i + 1) for i in range(n - 2)] + [(branch, n - 1)]


class TestLipmanCokernel:
    """Lipman (Publ. IHES 36, 1969, section 24): the class group of a 2D
    rational singularity is the cokernel of the intersection matrix of its
    minimal resolution.  This is a second route to every group the
    library derives toric-side or transcribes in the du Val catalog."""

    def test_cyclic_quotients_match_hirzebruch_jung_chain(self):
        # the minimal resolution of the cone (0, 1), (d, -k) is a chain of
        # curves with self-intersections -b_i (Cox, Little and Schenck,
        # Toric Varieties, sections 10.1-10.2)
        pairs = [(d, k) for d in range(2, 60) for k in range(1, d) if gcd(d, k) == 1]
        assert len(pairs) == 1085
        for d, k in pairs:
            chain = hirzebruch_jung(d, k)
            matrix = intersection_matrix(
                [-b for b in chain], [(i, i + 1) for i in range(len(chain) - 1)]
            )
            assert class_group_of(make_cone([(0, 1), (d, -k)], 2)) == cokernel(matrix), (d, k)

    def test_hirzebruch_jung_examples(self):
        assert hirzebruch_jung(5, 1) == [5]
        assert hirzebruch_jung(5, 4) == [2, 2, 2, 2]
        assert hirzebruch_jung(7, 3) == [3, 2, 2]

    def test_catalog_rows_match_negated_cartan_matrices(self):
        rows = [("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
        rows += [("E", n) for n in (6, 7, 8)]
        for family, n in rows:
            matrix = intersection_matrix([-2] * n, dynkin_edges(family, n))
            assert lookup(family, n).group == cokernel(matrix), (family, n)
