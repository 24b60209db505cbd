from __future__ import annotations

import pytest

from symtoric.class_group import AbelianGroupPresentation, group_exponent, group_order
from symtoric.duval import DuValRecord, OutOfCatalogError, cross_check_an, lookup


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
