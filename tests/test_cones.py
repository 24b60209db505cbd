from __future__ import annotations

import itertools
import re
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_zoo import CONE_FIXTURES, CUBE_RAYS, all_cones, an_cone, splits_of
from symtoric import cones
from symtoric.class_group import class_group_of
from symtoric.cones import (
    NotStronglyConvexError,
    UnsupportedConeError,
    WorkLimitExceeded,
    dot,
    dual_cone,
    hilbert_basis,
    in_semigroup,
    make_cone,
    primitive,
    semigroup_member,
)
from symtoric.exact_linalg import DimensionError
from symtoric.ideals import (PureHeightOneIdeal, find_sharpness_witness, ordinary_power, ray_prime,
                             verify_containment)


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4)) == (1, 2)
        assert primitive((0, -3)) == (0, -1)
        assert primitive((5,)) == (1,)
        assert primitive((-2, -4, -6)) == (-1, -2, -3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_idempotent_and_sign_preserving(self):
        for vec in [(3, -6), (7, 7), (-4, 2), (0, 9)]:
            p = primitive(vec)
            assert primitive(p) == p
            # p is a positive rational multiple of vec
            assert all(a * b >= 0 for a, b in zip(p, vec))


class TestMakeCone:
    def test_canonicalization(self):
        cone = make_cone([(2, 4), (1, 0)], 2)
        assert cone.rays == ((1, 0), (1, 2))
        assert cone.is_simplicial and cone.is_full

    def test_duplicate_directions_collapse(self):
        cone = make_cone([(1, 2), (2, 4), (3, 6)], 2)
        assert cone.rays == ((1, 2),)
        assert cone.is_simplicial and not cone.is_full

    def test_line_rejected(self):
        with pytest.raises(NotStronglyConvexError, match=re.escape("through (-1, 0)")):
            make_cone([(1, 0), (-1, 0)], 2)
        with pytest.raises(NotStronglyConvexError, match=re.escape("through (-1, -1)")):
            make_cone([(1, 0), (0, 1), (-1, -1)], 2)
        with pytest.raises(NotStronglyConvexError, match=re.escape("through (-1, -1)")):
            make_cone([(1, 1), (-2, -2)], 2)

    def test_cone_over_the_cube(self):
        # the line test reads C(8, 5) = 56 Smith forms of five rays each
        cone = make_cone(CUBE_RAYS, 4)
        assert len(cone.rays) == 8
        assert cone.is_full and not cone.is_simplicial
        group = class_group_of(cone)
        assert group.invariant_factors == (2, 2, 2)
        assert group.free_rank == 4

    @pytest.mark.parametrize(
        "rays",
        [
            [
                (5, 2, 7), (1, 5, -2), (1, -4, -6), (6, 6, -2), (7, 8, -6), (4, -9, -3),
                (7, -1, -4), (7, -4, -7), (3, 5, -5), (3, -9, -9), (4, -3, -4), (3, 0, 1),
            ],
            [
                (2, 9, -7), (3, -6, 6), (7, 5, 6), (6, 3, -3), (1, 6, -9), (7, 3, 4),
                (5, -9, 5), (3, -2, 9), (1, 1, -9), (1, -9, 8), (1, 3, -3), (4, -9, 7),
            ],
        ],
    )
    def test_twelve_pointed_rays_in_3d(self, rays):
        cone = make_cone(rays, 3)
        assert len(cone.rays) == 12
        assert cone.is_full and not cone.is_simplicial

    def test_line_through_the_cube_names_the_least_ray(self):
        message = "cone contains the line through (-1, -1, -1, 1)"
        with pytest.raises(NotStronglyConvexError, match=f"^{re.escape(message)}$"):
            make_cone([*CUBE_RAYS, (0, 0, 0, -1)], 4)

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError, match="^ambient dimension must be at least 1$"):
            make_cone([(1, 0), (0, 1)], 0)

    def test_zero_ray_rejected(self):
        with pytest.raises(ValueError, match="ray 1"):
            make_cone([(1, 0), (0, 0)], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="ray 0"):
            make_cone([(1, 0, 0)], 2)

    @pytest.mark.parametrize(
        "rays, index",
        [([(True, 0), (0, 1)], 0), ([(1, 0), (0, 1.5)], 1), ([(1, 0), (0.0, 0.0)], 1)],
        ids=["bool", "float", "zero-float"],
    )
    def test_non_integer_ray_coordinate_rejected(self, rays, index):
        # a bool would pass as 1 once made primitive, and a float reach math.gcd
        with pytest.raises(TypeError, match=f"^ray {index} has a non-integer coordinate$"):
            make_cone(rays, 2)

    def test_int_enum_ray_coordinates_accepted(self):
        class Step(IntEnum):
            ONE = 1
            TWO = 2

        assert make_cone([(Step.ONE, 0), (Step.ONE, Step.TWO)], 2) == make_cone([(1, 0), (1, 2)], 2)

    @pytest.mark.parametrize("rays, dim", [([(1, 0), (0, 1)], 2.0), ([(1,)], True)])
    def test_non_integer_ambient_dimension_rejected(self, rays, dim):
        message = f"ambient dimension must be an integer, got {dim!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            make_cone(rays, dim)

    def test_square_base_cone_flags(self):
        cone = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
        assert len(cone.rays) == 4
        assert cone.is_full
        assert not cone.is_simplicial

    def test_empty_cone(self):
        cone = make_cone([], 2)
        assert cone.rays == ()
        assert cone.is_simplicial and not cone.is_full

    @given(st.permutations(range(4)))
    def test_order_independence(self, perm):
        rays = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        shuffled = [rays[i] for i in perm]
        assert make_cone(shuffled, 3) == make_cone(rays, 3)

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_scaling_rays_changes_nothing(self, s1, s2):
        base = make_cone([(1, 0), (1, 2)], 2)
        scaled = make_cone([(s1, 0), (s2, 2 * s2)], 2)
        assert scaled == base


class TestDualCone:
    def test_a1_example(self):
        dual = dual_cone(make_cone([(1, 0), (1, 2)], 2))
        assert dual.rays == ((0, 1), (2, -1))

    def test_orthant_self_dual(self):
        cone = make_cone([(1, 0), (0, 1)], 2)
        assert dual_cone(cone) == cone

    def test_unsupported_inputs(self):
        with pytest.raises(UnsupportedConeError):
            dual_cone(make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3))
        with pytest.raises(UnsupportedConeError):
            dual_cone(make_cone([(1, 2)], 2))

    def test_involution_on_zoo(self, zoo_cones):
        for name, cone in zoo_cones:
            assert dual_cone(dual_cone(cone)) == cone, name

    def test_pairing_signs_on_zoo(self, zoo_cones):
        # dual ray j pairs nonnegatively with every ray, zero off-diagonal
        for name, cone in zoo_cones:
            dual = dual_cone(cone)
            for w in dual.rays:
                pairings = [dot(w, v) for v in cone.rays]
                assert all(p >= 0 for p in pairings), name
                assert pairings.count(0) == len(cone.rays) - 1, name


class TestHilbertBasis:
    def test_a1_frozen(self):
        data = hilbert_basis(make_cone([(1, 0), (1, 2)], 2))
        assert data.hilbert_basis == ((0, 1), (1, 0), (2, -1))
        assert data.dual_rays == ((0, 1), (2, -1))
        assert data.pairing_table == ((0, 2), (1, 1), (2, 0))

    def test_a2_frozen(self):
        # computed by the box enumeration oracle below before freezing
        data = hilbert_basis(make_cone([(1, 0), (1, 3)], 2))
        assert data.hilbert_basis == ((0, 1), (1, 0), (3, -1))

    def test_orthant_frozen(self):
        data = hilbert_basis(make_cone([(1, 0), (0, 1)], 2))
        assert data.hilbert_basis == ((0, 1), (1, 0))

    def test_an_basis_has_three_elements(self):
        for n in range(1, 8):
            data = hilbert_basis(an_cone(n))
            assert data.hilbert_basis == ((0, 1), (1, 0), (n + 1, -1))

    def test_unsupported_cone(self):
        with pytest.raises(UnsupportedConeError):
            hilbert_basis(make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3))

    def test_pairings_nonnegative_and_sorted(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            assert list(data.hilbert_basis) == sorted(data.hilbert_basis), name
            for row in data.pairing_table:
                assert all(p >= 0 for p in row), name
                assert any(p > 0 for p in row), name

    def test_dual_rays_belong_to_basis(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            assert set(data.dual_rays) <= set(data.hilbert_basis), name

    def test_no_element_splits(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            for h in data.hilbert_basis:
                assert splits_of(h, data) == [], (name, h)

    def test_box_completeness_2d(self, zoo_semigroups):
        # every lattice point of a box around twice the fundamental
        # parallelotope that passes the facet test must decompose
        for name, data in zoo_semigroups:
            if data.ambient_dim != 2:
                continue
            w = data.dual_rays
            corners = [
                (2 * (a * w[0][0] + b * w[1][0]), 2 * (a * w[0][1] + b * w[1][1]))
                for a, b in itertools.product((0, 1), repeat=2)
            ]
            xs = [c[0] for c in corners]
            ys = [c[1] for c in corners]
            for pt in itertools.product(
                range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)
            ):
                if not in_semigroup(pt, data):
                    assert semigroup_member(pt, data) is None
                    continue
                counts = semigroup_member(pt, data)
                assert counts is not None, (name, pt)
                rebuilt = tuple(
                    sum(c * h[i] for c, h in zip(counts, data.hilbert_basis))
                    for i in range(2)
                )
                assert rebuilt == pt, (name, pt)


class TestWorkLimit:
    # the benchmark's 4D det-11 cone: 11^3 = 1331 dual parallelotope points
    RAYS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)]

    def test_parallelotope_at_the_limit_is_enumerated(self, monkeypatch):
        packed = make_cone(self.RAYS, 4)._packed
        monkeypatch.setattr(cones, "_MAX_PARALLELOTOPE", 1331)
        assert make_cone(self.RAYS, 4)._packed == packed and len(packed[1]) == 1331

    def test_over_the_limit_raises_before_enumerating(self, monkeypatch):
        def unexpected(*args):
            pytest.fail("the parallelotope was enumerated")

        cone = make_cone(self.RAYS, 4)
        monkeypatch.setattr(cones, "_MAX_PARALLELOTOPE", 1330)
        monkeypatch.setattr(cones.itertools, "product", unexpected)
        message = r"parallelotope has at least 2\^10 points, over the limit of 1330"
        with pytest.raises(WorkLimitExceeded, match=message):
            cone.hilbert_basis
        assert issubclass(WorkLimitExceeded, ValueError)

    def test_hilbert_basis_over_its_limit_raises_before_enumerating(self, monkeypatch):
        def unexpected(*args):
            pytest.fail("the parallelotope was enumerated")

        basis = make_cone(self.RAYS, 4).hilbert_basis
        monkeypatch.setattr(cones, "_MAX_HILBERT", 1331)
        assert make_cone(self.RAYS, 4).hilbert_basis == basis
        monkeypatch.setattr(cones, "_MAX_HILBERT", 1330)
        monkeypatch.setattr(cones, "_parallelotope", unexpected)
        with pytest.raises(WorkLimitExceeded, match="Hilbert basis reads at most 1330 parallelotope"):
            make_cone(self.RAYS, 4).hilbert_basis

    def test_ordinary_power_at_the_sums_limit_is_formed(self, monkeypatch):
        # ray 2's prime has 16 generators, so its cube forms C(18, 3) = 816 sums
        prime = ray_prime(make_cone(self.RAYS, 4), 2)
        cube = ordinary_power(prime, 3)
        monkeypatch.setattr(cones, "_MAX_SUMS", 816)
        assert len(prime._keys) == 16
        at_limit = ordinary_power(prime, 3)
        assert (at_limit._width, at_limit._keys) == (cube._width, cube._keys)

    def test_sums_over_the_limit_raise_before_forming_any(self, monkeypatch):
        def unexpected(*args):
            pytest.fail("the sums were formed")

        prime = ray_prime(make_cone(self.RAYS, 4), 2)
        monkeypatch.setattr(cones, "_MAX_SUMS", 815)
        monkeypatch.setattr(cones.itertools, "combinations_with_replacement", unexpected)
        message = r"the 3-fold sums of 16 generators number at least 2\^9, over the limit of 815"
        with pytest.raises(WorkLimitExceeded, match=message):
            ordinary_power(prime, 3)

    def test_sharpness_stops_at_its_first_failing_level(self, monkeypatch):
        # D = 2 on ray 2 fails at a = 2, with 136 sums, and at a = 3, with 816
        q = PureHeightOneIdeal(make_cone(self.RAYS, 4), ((2, 1),))
        found = find_sharpness_witness(q, 2, 3)
        monkeypatch.setattr(cones, "_MAX_SUMS", 136)
        assert find_sharpness_witness(q, 2, 3) == found and found[0] == 2
        with pytest.raises(WorkLimitExceeded, match="3-fold sums"):
            verify_containment(q, 2, 3)


class TestSemigroupMember:
    def test_examples(self):
        data = hilbert_basis(make_cone([(1, 0), (1, 2)], 2))
        counts = semigroup_member((2, 0), data)
        assert counts is not None
        rebuilt = tuple(
            sum(c * h[i] for c, h in zip(counts, data.hilbert_basis)) for i in range(2)
        )
        assert rebuilt == (2, 0)
        assert semigroup_member((-1, 0), data) is None
        assert semigroup_member((0, 0), data) == (0, 0, 0)

    def test_membership_matches_facet_test(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            n = data.ambient_dim
            for pt in itertools.product(range(-2, 5), repeat=n):
                member = in_semigroup(pt, data)
                decomposition = semigroup_member(pt, data)
                assert (decomposition is not None) == member, (name, pt)

    def test_dimension_check(self):
        data = hilbert_basis(make_cone([(1, 0), (1, 2)], 2))
        with pytest.raises(DimensionError):
            semigroup_member((1, 2, 3), data)

    def test_non_integer_point_rejected(self):
        # as for rays: a float or a bool is no lattice coordinate, even one
        # that pairs nonnegatively or equals an integer
        data = hilbert_basis(make_cone([(1, 0), (1, 2)], 2))
        for point in ((0.5, 0), (2.0, 0), (True, False), (1, -0.5)):
            bad = re.escape(repr(point))
            for test in (in_semigroup, semigroup_member):
                with pytest.raises(TypeError, match=f"^point {bad} has a non-integer coordinate$"):
                    test(point, data)

    def test_long_basis_needs_no_recursion(self):
        # the basis is (1, 0), (1, 1), ..., (1, 300) and 2 * (1, 300) is
        # reached only at the last element, so a search that took one stack
        # frame per basis element would need more than the limit set here
        data = hilbert_basis(make_cone([(0, 1), (300, -1)], 2))
        assert data.hilbert_basis == tuple((1, k) for k in range(301))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            counts = semigroup_member((2, 600), data)
        finally:
            sys.setrecursionlimit(limit)
        assert counts == (0,) * 300 + (2,)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([name for name, _ in CONE_FIXTURES]),
    st.data(),
)
def test_random_basis_sums_decompose(name, data_strategy):
    """Random nonnegative combinations of the basis always decompose back."""
    cones = dict(all_cones())
    data = hilbert_basis(cones[name])
    coeffs = data_strategy.draw(
        st.lists(
            st.integers(0, 3),
            min_size=len(data.hilbert_basis),
            max_size=len(data.hilbert_basis),
        )
    )
    point = tuple(
        sum(c * h[i] for c, h in zip(coeffs, data.hilbert_basis))
        for i in range(data.ambient_dim)
    )
    counts = semigroup_member(point, data)
    assert counts is not None
    rebuilt = tuple(
        sum(c * h[i] for c, h in zip(counts, data.hilbert_basis))
        for i in range(data.ambient_dim)
    )
    assert rebuilt == point
