from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_zoo import EXPECTED_DET, an_cone, build_cone
from symtoric import class_group
from symtoric.class_group import (
    AbelianGroupPresentation,
    class_group_of,
    class_of,
    det_multiplier,
    group_exponent,
    group_order,
    order_of_class,
    presentation_matrix,
)
from symtoric.cones import UnsupportedConeError, make_cone
from symtoric.exact_linalg import DimensionError, IntegerMatrix, determinant


def in_image_bruteforce(cone, divisor, radius=8) -> bool:
    """Independent oracle: search small lattice preimages of the pairing map."""
    mat = presentation_matrix(cone)
    n = cone.ambient_dim
    for x in itertools.product(range(-radius, radius + 1), repeat=n):
        if mat.apply(x) == tuple(divisor):
            return True
    return False


class TestPresentation:
    def test_rows_are_rays(self):
        cone = make_cone([(1, 0), (1, 2)], 2)
        assert presentation_matrix(cone) == IntegerMatrix.from_rows([(1, 0), (1, 2)])

    def test_needs_full_cone(self):
        with pytest.raises(UnsupportedConeError):
            presentation_matrix(make_cone([(1, 2)], 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupPresentation((1, 2), 0)
        with pytest.raises(ValueError):
            AbelianGroupPresentation((2, 3), 0)
        with pytest.raises(ValueError):
            AbelianGroupPresentation((), -1)


class TestClassGroupOf:
    def test_a1_frozen(self):
        group = class_group_of(make_cone([(1, 0), (1, 2)], 2))
        assert group.invariant_factors == (2,)
        assert group.free_rank == 0

    def test_an_sweep(self):
        for n in range(1, 11):
            group = class_group_of(an_cone(n))
            assert group.invariant_factors == (n + 1,)
            assert group.free_rank == 0

    def test_smooth_cones_trivial(self):
        for name in ("orthant2", "orthant3"):
            group = class_group_of(build_cone(name))
            assert group.invariant_factors == ()
            assert group.free_rank == 0

    def test_klein_and_cyclic_fixtures(self):
        assert class_group_of(build_cone("klein4")).invariant_factors == (2, 2)
        assert class_group_of(build_cone("cyclic4")).invariant_factors == (4,)

    def test_square_base_cone_has_free_part(self):
        cone = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
        group = class_group_of(cone)
        assert group.invariant_factors == ()
        assert group.free_rank == 1
        assert group_order(group) is None
        assert group_exponent(group) is None

    def test_order_and_exponent_examples(self):
        trivial = AbelianGroupPresentation((), 0)
        assert group_order(trivial) == 1
        assert group_exponent(trivial) == 1
        klein = AbelianGroupPresentation((2, 2), 0)
        assert group_order(klein) == 4
        assert group_exponent(klein) == 2

    def test_zoo_order_equals_det(self, zoo_cones):
        for name, cone in zoo_cones:
            group = class_group_of(cone)
            assert group_order(group) == EXPECTED_DET[name], name
            assert det_multiplier(cone) == EXPECTED_DET[name], name

    def test_exponent_divides_order(self, zoo_cones):
        for name, cone in zoo_cones:
            group = class_group_of(cone)
            assert group_order(group) % group_exponent(group) == 0, name


class TestDetMultiplier:
    def test_needs_simplicial_full(self):
        with pytest.raises(UnsupportedConeError):
            det_multiplier(make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3))
        with pytest.raises(UnsupportedConeError):
            det_multiplier(make_cone([(1, 0)], 2))

    def test_unimodular_cone(self):
        assert det_multiplier(make_cone([(1, 0), (0, 1)], 2)) == 1

    def test_order_mismatch_raises(self, monkeypatch):
        # the check must survive python -O, so it cannot be an assert
        monkeypatch.setattr(class_group, "group_order", lambda group: 3)
        with pytest.raises(RuntimeError, match="class group order"):
            det_multiplier(make_cone([(1, 0), (1, 2)], 2))


class TestClassOf:
    def test_identity_is_zero_tuple(self):
        group = class_group_of(make_cone([(1, 0), (1, 2)], 2))
        assert class_of((0, 0), group) == (0,)
        assert class_of((2, 0), group) == (0,)
        assert class_of((1, 0), group) != (0,)

    def test_matches_bruteforce_image_membership(self, zoo_cones):
        for name, cone in zoo_cones:
            group = class_group_of(cone)
            r = len(cone.rays)
            # entries and search radius kept small; for square full-rank
            # pairing maps the preimage, when it exists, is unique and tiny
            span, radius = (3, 8) if r == 2 else (2, 5)
            for divisor in itertools.product(range(-span + 1, span), repeat=r):
                identity = not any(class_of(divisor, group))
                found = in_image_bruteforce(cone, divisor, radius)
                assert identity == found, (name, divisor)

    def test_needs_projection_data(self):
        group = AbelianGroupPresentation((2,), 0)
        with pytest.raises(ValueError, match="carries no Smith form"):
            class_of((1, 0), group)

    def test_dimension_check(self):
        group = class_group_of(make_cone([(1, 0), (1, 2)], 2))
        with pytest.raises(DimensionError):
            class_of((1, 0, 0), group)

    @given(
        st.sampled_from(["a1", "a2", "skew5", "klein4", "cyclic4", "parity2"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_homomorphism_property(self, name, data):
        cone = build_cone(name)
        group = class_group_of(cone)
        r = len(cone.rays)
        coords = st.integers(-20, 20)
        d1 = tuple(data.draw(coords) for _ in range(r))
        d2 = tuple(data.draw(coords) for _ in range(r))
        total = tuple(a + b for a, b in zip(d1, d2))
        c1, c2 = class_of(d1, group), class_of(d2, group)
        k = len(group.invariant_factors)
        expected = tuple(
            (a + b) % f for a, b, f in zip(c1, c2, group.invariant_factors)
        ) + tuple(a + b for a, b in zip(c1[k:], c2[k:]))
        assert class_of(total, group) == expected


class TestOrderOfClass:
    def test_a1_examples(self):
        group = class_group_of(make_cone([(1, 0), (1, 2)], 2))
        assert order_of_class((0, 0), group) == 1
        assert order_of_class((1, 0), group) == 2
        assert order_of_class((1, 1), group) == 1  # (1,1) = image of (1,0)

    def test_infinite_order_on_square_base(self):
        cone = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
        group = class_group_of(cone)
        assert order_of_class((1, 0, 0, 0), group) is None
        assert order_of_class((0, 0, 0, 0), group) == 1

    def test_order_divides_exponent(self, zoo_cones):
        for name, cone in zoo_cones:
            group = class_group_of(cone)
            exponent = group_exponent(group)
            r = len(cone.rays)
            for i in range(r):
                divisor = tuple(1 if j == i else 0 for j in range(r))
                order = order_of_class(divisor, group)
                assert order is not None and exponent % order == 0, (name, i)

    def test_an_ray_class_generates(self):
        # each ray prime class generates the cyclic group
        for n in range(1, 8):
            group = class_group_of(an_cone(n))
            assert order_of_class((1, 0), group) == n + 1
            assert order_of_class((0, 1), group) == n + 1
