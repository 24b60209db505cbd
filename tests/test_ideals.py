from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_zoo import all_semigroups, an_cone, build_cone
from symtoric.class_group import class_group_of, order_of_class
from symtoric.cones import dot, hilbert_basis, in_semigroup, make_cone, semigroup_data
from symtoric.exact_linalg import DimensionError
from symtoric.ideals import (
    ContainmentReport,
    MonomialIdeal,
    PureHeightOneIdeal,
    divisor_class,
    find_sharpness_witness,
    ideal_member,
    intersect_valuation_ideals,
    is_principal,
    ordinary_power,
    ray_prime,
    symbolic_power,
    verify_containment,
)


_ZOO_SEMIGROUPS = all_semigroups()


@pytest.fixture(scope="module")
def a1_data():
    return hilbert_basis(make_cone([(1, 0), (1, 2)], 2))


@pytest.fixture(scope="module")
def a2_data():
    return hilbert_basis(make_cone([(1, 0), (1, 3)], 2))


def single_prime(data, ray_index):
    return PureHeightOneIdeal(data, ((ray_index, 1),))


def satisfies_bounds(point, ideal):
    return all(
        dot(point, ideal.context.cone.rays[ray]) >= bound
        for ray, bound in ideal.valuation_bounds
    )


class TestPureHeightOneIdeal:
    def test_components_sorted(self, a1_data):
        q = PureHeightOneIdeal(a1_data, ((1, 3), (0, 2)))
        assert q.components == ((0, 2), (1, 3))

    def test_validation(self, a1_data):
        with pytest.raises(ValueError):
            PureHeightOneIdeal(a1_data, ())
        with pytest.raises(ValueError):
            PureHeightOneIdeal(a1_data, ((0, 0),))
        with pytest.raises(ValueError):
            PureHeightOneIdeal(a1_data, ((0, 1), (0, 2)))
        with pytest.raises(IndexError):
            PureHeightOneIdeal(a1_data, ((2, 1),))

    def test_divisor_class_vector(self, a1_data):
        q = PureHeightOneIdeal(a1_data, ((0, 2), (1, 1)))
        assert divisor_class(q) == (2, 1)
        assert divisor_class(single_prime(a1_data, 1)) == (0, 1)


class TestRayPrime:
    def test_a1_frozen(self, a1_data):
        assert ray_prime(a1_data, 0).generators == ((1, 0), (2, -1))
        assert ray_prime(a1_data, 1).generators == ((0, 1), (1, 0))

    def test_orthant_primes_are_principal(self):
        # rays are kept lex sorted, so ray 0 is (0, 1)
        data = hilbert_basis(make_cone([(1, 0), (0, 1)], 2))
        assert ray_prime(data, 0).generators == ((0, 1),)
        assert ray_prime(data, 1).generators == ((1, 0),)

    def test_ray_index_checked(self, a1_data):
        with pytest.raises(IndexError):
            ray_prime(a1_data, 2)
        with pytest.raises(IndexError):
            ray_prime(a1_data, -1)

    def test_matches_first_symbolic_power(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            for i in range(len(data.cone.rays)):
                prime = ray_prime(data, i)
                sym = symbolic_power(single_prime(data, i), 1)
                assert prime.generators == sym.generators, (name, i)

    def test_records_valuation_bounds(self, a1_data):
        assert ray_prime(a1_data, 0).valuation_bounds == ((0, 1),)


class TestSymbolicPower:
    def test_a1_squared_is_principal(self, a1_data):
        q = single_prime(a1_data, 0)
        sym = symbolic_power(q, 2)
        assert sym.generators == ((2, -1),)
        assert is_principal(sym)
        assert sym.valuation_bounds == ((0, 2),)

    def test_a1_cube(self, a1_data):
        q = single_prime(a1_data, 0)
        assert symbolic_power(q, 3).generators == ((3, -1), (4, -2))

    def test_a1_mixed_components(self, a1_data):
        q = PureHeightOneIdeal(a1_data, ((0, 1), (1, 1)))
        assert symbolic_power(q, 1).generators == ((1, 0),)

    def test_a1_weighted_components(self, a1_data):
        q = PureHeightOneIdeal(a1_data, ((0, 1), (1, 2)))
        assert symbolic_power(q, 1).generators == ((1, 1), (2, 0))

    def test_rejects_bad_power(self, a1_data):
        with pytest.raises(ValueError):
            symbolic_power(single_prime(a1_data, 0), 0)

    def test_generators_satisfy_bounds(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            for i in range(len(data.cone.rays)):
                for power in (1, 2, 3):
                    sym = symbolic_power(single_prime(data, i), power)
                    assert sym.generators, (name, i, power)
                    for g in sym.generators:
                        assert in_semigroup(g, data), (name, i, power, g)
                        assert satisfies_bounds(g, sym), (name, i, power, g)

    def test_agrees_with_componentwise_intersection(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            nrays = len(data.cone.rays)
            if nrays < 2:
                continue
            q = PureHeightOneIdeal(data, ((0, 1), (1, 2)))
            for power in (1, 2):
                joint = symbolic_power(q, power)
                pieces = [
                    symbolic_power(single_prime(data, 0), power),
                    symbolic_power(single_prime(data, 1), 2 * power),
                ]
                meet = intersect_valuation_ideals(pieces)
                assert joint.generators == meet.generators, (name, power)


def box_points(dim, radius):
    return itertools.product(range(-radius, radius + 1), repeat=dim)


class TestGeneratorCompleteness:
    """Valuation ideals tested against raw bound predicates on a box.

    A point of the semigroup must be reachable from a generator exactly
    when it clears every recorded bound; this checks both directions of
    the minimal generating set (nothing missing, nothing spurious).
    """

    def test_two_dim_zoo(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            if data.cone.ambient_dim != 2:
                continue
            for i in range(len(data.cone.rays)):
                for power in (1, 2, 3):
                    sym = symbolic_power(single_prime(data, i), power)
                    for m in box_points(2, 8):
                        if not in_semigroup(m, data):
                            continue
                        expected = satisfies_bounds(m, sym)
                        assert ideal_member(m, sym) == expected, (name, i, power, m)

    def test_three_dim_zoo(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            if data.cone.ambient_dim != 3:
                continue
            for i in range(len(data.cone.rays)):
                for power in (1, 2):
                    sym = symbolic_power(single_prime(data, i), power)
                    for m in box_points(3, 4):
                        if not in_semigroup(m, data):
                            continue
                        expected = satisfies_bounds(m, sym)
                        assert ideal_member(m, sym) == expected, (name, i, power, m)

    def test_mixed_bounds_box(self, a1_data, a2_data):
        for data in (a1_data, a2_data):
            q = PureHeightOneIdeal(data, ((0, 2), (1, 1)))
            sym = symbolic_power(q, 2)
            for m in box_points(2, 9):
                if not in_semigroup(m, data):
                    continue
                assert ideal_member(m, sym) == satisfies_bounds(m, sym), m


class TestOrdinaryPower:
    def test_a1_square_frozen(self, a1_data):
        p0 = ray_prime(a1_data, 0)
        assert ordinary_power(p0, 2).generators == ((2, 0), (3, -1), (4, -2))

    def test_first_power_is_identity(self, a1_data):
        p0 = ray_prime(a1_data, 0)
        assert ordinary_power(p0, 1).generators == p0.generators

    def test_rejects_bad_power(self, a1_data):
        with pytest.raises(ValueError):
            ordinary_power(ray_prime(a1_data, 0), 0)

    def test_rejects_generator_outside_semigroup(self, a1_data):
        # (0, -1) pairs to -2 with the ray (1, 2)
        for gens in (((0, -1),), ((1, 0), (0, -1))):
            with pytest.raises(ValueError, match="dual semigroup"):
                ordinary_power(MonomialIdeal(a1_data, gens), 2)

    def test_no_valuation_bounds_recorded(self, a1_data):
        assert ordinary_power(ray_prime(a1_data, 0), 2).valuation_bounds is None

    def test_contained_in_symbolic(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            for i in range(len(data.cone.rays)):
                q = single_prime(data, i)
                base = ray_prime(data, i)
                for a in (1, 2, 3):
                    sym = symbolic_power(q, a)
                    for g in ordinary_power(base, a).generators:
                        assert satisfies_bounds(g, sym), (name, i, a, g)


class TestIdealMember:
    def test_a1_examples(self, a1_data):
        p0 = ray_prime(a1_data, 0)
        p0_sq = ordinary_power(p0, 2)
        assert ideal_member((2, -1), symbolic_power(single_prime(a1_data, 0), 2))
        assert not ideal_member((2, -1), p0_sq)
        assert ideal_member((5, -1), p0_sq)
        assert not ideal_member((0, 0), p0)
        assert ideal_member((3, 5), p0)

    def test_dimension_checked(self, a1_data):
        with pytest.raises(DimensionError):
            ideal_member((1, 0, 0), ray_prime(a1_data, 0))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_translates_stay_inside(self, data):
        name, sg = data.draw(st.sampled_from(_ZOO_SEMIGROUPS))
        ray = data.draw(st.integers(0, len(sg.cone.rays) - 1))
        power = data.draw(st.integers(1, 3))
        ideal = symbolic_power(single_prime(sg, ray), power)
        gen = data.draw(st.sampled_from(ideal.generators))
        coeffs = [data.draw(st.integers(0, 2)) for _ in sg.hilbert_basis]
        shift = gen
        for c, h in zip(coeffs, sg.hilbert_basis):
            shift = tuple(a + c * b for a, b in zip(shift, h))
        assert ideal_member(shift, ideal)


class TestIntersect:
    def test_a1_frozen(self, a1_data):
        meet = intersect_valuation_ideals(
            [
                symbolic_power(single_prime(a1_data, 0), 2),
                ray_prime(a1_data, 1),
            ]
        )
        assert meet.generators == ((2, 0), (3, -1))
        assert meet.valuation_bounds == ((0, 2), (1, 1))

    def test_requires_bounds(self, a1_data):
        p0 = ray_prime(a1_data, 0)
        with pytest.raises(ValueError):
            intersect_valuation_ideals([p0, ordinary_power(p0, 2)])

    def test_requires_same_context(self, a1_data, a2_data):
        with pytest.raises(ValueError):
            intersect_valuation_ideals([ray_prime(a1_data, 0), ray_prime(a2_data, 0)])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            intersect_valuation_ideals([])

    def test_members_lie_in_every_factor(self, a1_data, a2_data):
        for data in (a1_data, a2_data):
            factors = [
                symbolic_power(single_prime(data, 0), 2),
                symbolic_power(single_prime(data, 1), 3),
            ]
            meet = intersect_valuation_ideals(factors)
            for g in meet.generators:
                for factor in factors:
                    assert ideal_member(g, factor), (g, factor.valuation_bounds)


class TestVerifyContainment:
    def test_a1_multiplier_one_fails_at_two(self, a1_data):
        report = verify_containment(single_prime(a1_data, 0), 1, 3)
        assert isinstance(report, ContainmentReport)
        assert report.multiplier == 1
        assert not report.passed
        first, second = report.levels[0], report.levels[1]
        assert first.level == 1 and first.passed and first.witness is None
        assert second.level == 2 and not second.passed
        assert second.witness == (2, -1)

    def test_a1_multiplier_two_passes(self, a1_data):
        report = verify_containment(single_prime(a1_data, 0), 2, 3)
        assert report.passed
        assert [check.level for check in report.levels] == [1, 2, 3]

    def test_validation(self, a1_data):
        q = single_prime(a1_data, 0)
        with pytest.raises(ValueError):
            verify_containment(q, 0, 3)
        with pytest.raises(ValueError):
            verify_containment(q, 1, 0)

    def test_group_order_multiplier_passes_everywhere(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            group = class_group_of(data.cone)
            for i in range(len(data.cone.rays)):
                q = single_prime(data, i)
                order = order_of_class(divisor_class(q), group)
                assert order is not None, name
                report = verify_containment(q, order, 2)
                assert report.passed, (name, i, order)


class TestSharpness:
    def test_a1_schedule(self, a1_data):
        q = single_prime(a1_data, 0)
        assert find_sharpness_witness(q, 1, 4) == (2, (2, -1))
        assert find_sharpness_witness(q, 2, 4) is None

    def test_a2_schedule(self, a2_data):
        q = single_prime(a2_data, 0)
        assert find_sharpness_witness(q, 2, 4) == (3, (6, -2))
        assert find_sharpness_witness(q, 3, 4) is None

    def test_a3_schedule(self):
        data = hilbert_basis(an_cone(3))
        q = single_prime(data, 0)
        assert find_sharpness_witness(q, 3, 5) == (4, (12, -3))
        assert find_sharpness_witness(q, 4, 4) is None

    def test_validation(self, a1_data):
        q = single_prime(a1_data, 0)
        with pytest.raises(ValueError):
            find_sharpness_witness(q, 0, 3)
        with pytest.raises(ValueError):
            find_sharpness_witness(q, 1, 0)


class TestPrincipalAtGroupOrder:
    """At D equal to the order of the divisor class, the D-th symbolic
    power collapses to one generator and its ordinary powers recover all
    higher symbolic powers exactly."""

    def test_an_family(self):
        for n in range(1, 6):
            data = hilbert_basis(an_cone(n))
            q = single_prime(data, 0)
            group = class_group_of(data.cone)
            order = order_of_class(divisor_class(q), group)
            assert order == n + 1
            collapsed = symbolic_power(q, order)
            assert is_principal(collapsed)
            for a in (1, 2, 3):
                expanded = ordinary_power(collapsed, a)
                direct = symbolic_power(q, order * a)
                assert expanded.generators == direct.generators, (n, a)

    def test_zoo_primes(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            group = class_group_of(data.cone)
            for i in range(len(data.cone.rays)):
                q = single_prime(data, i)
                order = order_of_class(divisor_class(q), group)
                collapsed = symbolic_power(q, order)
                assert is_principal(collapsed), (name, i)
                expanded = ordinary_power(collapsed, 2)
                direct = symbolic_power(q, order * 2)
                assert expanded.generators == direct.generators, (name, i)


class TestMonomialIdealEquality:
    def test_bounds_ignored_in_comparison(self, a1_data):
        gens = ((1, 0), (2, -1))
        a = MonomialIdeal(a1_data, gens, ((0, 1),))
        b = MonomialIdeal(a1_data, gens, None)
        assert a == b

    def test_pairings_computed_from_generators(self, a1_data):
        # a caller cannot pass pairings in, and a replaced ideal recomputes them
        a = MonomialIdeal(a1_data, ((1, 0), (2, -1)), ((0, 1),))
        assert a.pairings == ((1, 1), (2, 0))
        assert "pairings" not in repr(a)
        with pytest.raises(TypeError):
            MonomialIdeal(a1_data, a.generators, None, ((0, 0), (0, 0)))
        b = dataclasses.replace(a, generators=((1, 1),))
        assert b.pairings == ((1, 3),)
        assert b.valuation_bounds == a.valuation_bounds

    def test_contexts_of_one_cone_mix(self):
        # semigroup_data and hilbert_basis contexts compare by cone, so
        # ideals over either are equal and intersect
        cone = make_cone([(1, 0), (1, 2)], 2)
        lattice, basis = semigroup_data(cone), hilbert_basis(cone)
        assert lattice == basis and basis == lattice and hash(lattice) == hash(basis)
        assert lattice.dual_rays == basis.dual_rays
        assert lattice.parallelotope == basis.parallelotope
        assert lattice != semigroup_data(make_cone([(1, 0), (1, 3)], 2))
        assert ray_prime(lattice, 0) == ray_prime(basis, 0)
        meet = intersect_valuation_ideals([ray_prime(lattice, 0), ray_prime(basis, 1)])
        assert meet.generators == ((1, 0),)
        assert meet == intersect_valuation_ideals([ray_prime(basis, 0), ray_prime(lattice, 1)])
