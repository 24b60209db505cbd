from __future__ import annotations

import dataclasses
import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_zoo import all_semigroups, an_cone, build_cone
from symtoric import cones, ideals
from symtoric.class_group import class_group_of, order_of_class
from symtoric.cones import (
    SemigroupData,
    UnsupportedConeError,
    dot,
    hilbert_basis,
    in_semigroup,
    make_cone,
)
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

    def test_non_principal_powers_keep_the_reduced_pairs(self, a2_data, monkeypatch):
        # the class has order 3: the powers below and past it are each one
        # reduction at their own bounds, whose kept vectors the ideal holds
        built = []
        reduce = ideals._minimal_sums

        def recorded(columns, power):
            built.append(reduce(columns, power))
            return built[-1]

        monkeypatch.setattr(ideals, "_minimal_sums", recorded)
        for power in (2, 4):
            built.clear()
            sym = symbolic_power(single_prime(a2_data, 0), power)
            (rows,) = built
            assert sym._vectors is rows, power
            assert len(rows) == len(sym.generators) > 1, power
            assert sorted(rows) == sorted(sym.pairings), power
        # an ideal built from generators holds their pairings from the start
        made = MonomialIdeal(a2_data, sym.generators, sym.valuation_bounds)
        assert "_vectors" in vars(made) and made._vectors == made.pairings == sym.pairings
        replaced = dataclasses.replace(made, generators=sym.generators[:1])
        assert "_vectors" in vars(replaced) and replaced._vectors == (sym.pairings[0],)

    def test_pairings_stored_at_and_past_the_period(self, zoo_semigroups):
        """Powers at and past the period store pairing vectors, the one
        vector E b at a multiple of the period and the reduced ones past it,
        and no generators until they are read."""
        for name, data in zoo_semigroups:
            rays = data.cone.rays
            group = class_group_of(data.cone)
            for i in range(len(rays)):
                q = single_prime(data, i)
                m = order_of_class(divisor_class(q), group)
                for power in (m, m + 1, 2 * m, 2 * m + 1):
                    sym = symbolic_power(q, power)
                    assert "generators" not in vars(sym), (name, i, power)
                    assert "_vectors" in vars(sym), (name, i, power)
                    expected = [tuple(dot(g, ray) for ray in rays) for g in sym.generators]
                    assert sorted(sym._vectors) == sorted(expected), (name, i, power)


class TestPeriodOncePerIdeal:
    """A sweep solves q's period once, however many levels it visits."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = ideals._divisor_period

        def counted(cone, divisor):
            calls.append(tuple(divisor))
            return solve(cone, divisor)

        monkeypatch.setattr(ideals, "_divisor_period", counted)
        return calls

    def test_verify_solves_the_period_once(self, a2_data, solves):
        report = verify_containment(single_prime(a2_data, 0), 3, 3)
        assert report.passed
        assert solves == [(1, 0)]

    def test_sharpness_solves_the_period_once(self, solves):
        q = single_prime(hilbert_basis(an_cone(12)), 0)
        assert find_sharpness_witness(q, 12, 13)[0] == 13
        assert solves == [(1, 0)]

    def test_cached_period_is_not_a_field(self, a2_data):
        q, fresh = single_prime(a2_data, 0), single_prime(a2_data, 0)
        symbolic_power(q, 2)
        assert "_period" in q.__dict__ and "_period" not in fresh.__dict__
        assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
        assert "_period" not in {f.name for f in dataclasses.fields(q)}


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


class TestOrdinaryPowerSolvesOnRead:
    """Every library ideal keeps its generators' pairing vectors alone: an
    ordinary power, a symbolic power below or past the period, a ray prime
    and an intersection.  Membership, principality, further powers and a
    passing sweep read them, a failing sweep solves its failing vectors
    alone, and reading ``generators`` solves each vector once."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = ideals._lattice_point

        def counted(cone, pairs):
            calls.append(tuple(pairs))
            return solve(cone, pairs)

        monkeypatch.setattr(ideals, "_lattice_point", counted)
        return calls

    @pytest.fixture(scope="class")
    def base(self):
        # class order 4, ten generators in the first symbolic power
        data = SemigroupData(make_cone([(1, 1, 2), (1, 2, 1), (2, 1, 1)], 3))
        base = symbolic_power(single_prime(data, 0), 1)
        base.generators  # solved here, before any test counts solves
        return base

    @staticmethod
    def valuation_ideals(data):
        """Ray primes, an intersection, and symbolic powers below, past and
        at the class order 4 of the first ray prime: only the last is principal."""
        q = single_prime(data, 0)
        below = symbolic_power(q, 2)
        meet = intersect_valuation_ideals([below, ray_prime(data, 1)])
        return [ray_prime(data, 0), ray_prime(data, 2), meet, below, symbolic_power(q, 5),
                symbolic_power(q, 4)]

    def test_readers_solve_no_point(self, base, solves):
        square = ordinary_power(base, 2)
        assert not ideal_member((0, 0, 0), square)
        assert ideal_member(tuple(2 * c for c in base.generators[0]), square)
        assert not is_principal(square)
        cube_of_square = ordinary_power(square, 3)
        assert not is_principal(cube_of_square)
        assert solves == []
        assert "generators" not in vars(square) and "pairings" not in vars(square)

    def test_generators_solve_each_vector_once(self, base, solves):
        square = ordinary_power(base, 2)
        gens = square.generators
        assert square.generators is gens and list(gens) == sorted(gens)
        assert sorted(solves) == sorted(square._vectors)
        assert len(set(solves)) == len(solves) == len(gens)
        # the pairings follow the solved generators and solve nothing more
        rays = base.context.cone.rays
        assert square.pairings == tuple(tuple(dot(g, ray) for ray in rays) for g in gens)
        assert len(solves) == len(gens)

    def test_solved_power_equals_a_caller_built_ideal(self, base):
        built = MonomialIdeal(base.context, ordinary_power(base, 2).generators)
        fresh = ordinary_power(base, 2)
        assert fresh == built and hash(fresh) == hash(built) and repr(fresh) == repr(built)
        assert dataclasses.replace(ordinary_power(base, 2)) == built

    def test_passing_sweep_on_a_smooth_cone_solves_nothing(self, solves):
        # every class is trivial: each symbolic power is a translate of R
        data = SemigroupData(make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
        assert verify_containment(single_prime(data, 0), 1, 3).passed
        assert solves == []

    def test_sweeps_solve_only_their_symbolic_powers(self, a2_data, solves):
        # the ray prime's class has order 3: D = 3 passes and solves no
        # point, and D = 2 fails at level 3, where q^(6) is the translate
        # of R by the period character (6, -2), the one vector it solves
        assert verify_containment(single_prime(a2_data, 0), 3, 3).passed
        assert solves == []
        assert find_sharpness_witness(single_prime(a2_data, 0), 2, 4) == (3, (6, -2))
        assert solves == [(6, 0)]

    def test_valuation_ideals_read_without_solving(self, base, solves):
        data = base.context
        deep = tuple(10 * sum(column) for column in zip(*data.dual_rays))
        built = self.valuation_ideals(data)
        for ideal in built:
            assert not ideal_member((0, 0, 0), ideal)
            assert ideal_member(deep, ideal)
            single = ideal is built[-1]
            assert is_principal(ideal) == is_principal(ordinary_power(ideal, 2)) == single
        assert verify_containment(single_prime(data, 0), 4, 2).passed
        assert solves == []
        assert all("generators" not in vars(ideal) for ideal in built)

    def test_valuation_generators_solve_each_vector_once(self, base, solves):
        for ideal in self.valuation_ideals(base.context):
            solves.clear()
            gens = ideal.generators
            assert ideal.generators is gens and list(gens) == sorted(gens)
            assert sorted(solves) == sorted(ideal._vectors) == sorted(ideal.pairings)
            assert len(set(solves)) == len(solves) == len(gens)

    def test_failing_sweep_solves_only_its_failing_vectors(self, solves):
        # on the A_1 cone D = 1 fails at levels 2 and 3; the witness is the
        # lex-least point of the failing ones, whatever order they are in
        data = SemigroupData(make_cone([(1, 0), (1, 2)], 2))
        q = single_prime(data, 0)
        failing = []
        for a in (1, 2, 3):
            ordinary = ordinary_power(ray_prime(data, 0), a)
            points = [g for g in symbolic_power(q, a).generators if not ideal_member(g, ordinary)]
            failing += [tuple(dot(g, ray) for ray in data.cone.rays) for g in points]
        assert len(failing) == 3
        solves.clear()
        report = verify_containment(q, 1, 3)
        assert [c.witness for c in report.levels] == [None, (2, -1), (3, -1)]
        assert sorted(solves) == sorted(failing)


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

    def test_generator_dimension_checked(self):
        # pairings zip a generator with each ray, which would cut a wrong length silently
        data = SemigroupData(make_cone([(1, 0), (1, 2)], 2))
        with pytest.raises(DimensionError):
            MonomialIdeal(data, ((1, 0, 5),))
        with pytest.raises(DimensionError):
            MonomialIdeal(data, ((1, 0), (1,)))
        with pytest.raises(DimensionError):
            dataclasses.replace(ray_prime(data, 0), generators=((1, 0, 5),))

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

    def test_recorded_ray_indices_checked(self):
        # unchecked, a negative index would read the last ray's pairing
        # column, and a large one would fail inside the reduction
        data = SemigroupData(make_cone([(1, 0), (1, 2)], 2))
        for bounds in (((-1, 2),), ((5, 1),)):
            with pytest.raises(IndexError, match="out of range for 2 rays"):
                intersect_valuation_ideals([MonomialIdeal(data, ((1, 0),), bounds)])
        with pytest.raises(IndexError, match="ray index 2 out of range for 2 rays"):
            dataclasses.replace(ray_prime(data, 0), valuation_bounds=((0, 1), (2, 1)))

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


class TestEmptyCandidates:
    """Empty bounds and empty generator sets through the packed reduction,
    on the det-61 cone e1, e2, (3, 5, 61)."""

    @pytest.fixture(scope="class")
    def det61_data(self):
        return SemigroupData(make_cone([(1, 0, 0), (0, 1, 0), (3, 5, 61)], 3))

    def test_intersect_of_no_bounds_is_the_unit_ideal(self, det61_data):
        ideal = MonomialIdeal(det61_data, ((1, 0, 0),), ())
        meet = intersect_valuation_ideals([ideal])
        assert meet.generators == ((0, 0, 0),)
        assert meet.pairings == ((0, 0, 0),)
        assert meet.valuation_bounds == ()

    def test_power_of_the_zero_ideal_has_no_generators(self, det61_data):
        square = ordinary_power(MonomialIdeal(det61_data, ()), 2)
        assert square.generators == ()
        assert square.pairings == ()

    def test_power_of_the_unit_ideal_is_the_unit_ideal(self, det61_data):
        unit = MonomialIdeal(det61_data, ((0, 0, 0),))
        cube = ordinary_power(unit, 3)
        assert cube == unit
        assert cube.pairings == ((0, 0, 0),)


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

    def test_ray_primes_below_their_period_fail_within_the_bound(self, zoo_cones):
        """A ray prime whose class has order m fails every D < m by level
        m / gcd(D, m).  Its period character is the dual ray w, and the points
        pairing 0 with every other ray are the multiples of w, so chi^(k w) is
        a product of at most k elements of the prime.  At that level a the
        one generator of the symbolic power has k = D a / m < a."""
        pairs = [(d, k) for d in range(2, 11) for k in range(1, d) if gcd(d, k) == 1]
        cones = [make_cone([(0, 1), (d, -k)], 2) for d, k in pairs]
        checked = 0
        for cone in cones + [cone for _, cone in zoo_cones]:
            data, group = SemigroupData(cone), class_group_of(cone)
            for i in range(len(cone.rays)):
                q = single_prime(data, i)
                m = order_of_class(divisor_class(q), group)
                for multiplier in range(1, m):
                    checked += 1
                    bound = m // gcd(multiplier, m)
                    assert find_sharpness_witness(q, multiplier, bound) is not None, (cone, i)
        assert checked == 458
        # on A_n both ray primes have m = n + 1, and D = n first fails there
        for n in range(1, 11):
            data = SemigroupData(an_cone(n))
            for i in (0, 1):
                assert find_sharpness_witness(single_prime(data, i), n, n + 1)[0] == n + 1, (n, i)

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
        # a context's one field is its cone, so contexts built with or
        # without a Hilbert basis are equal and their ideals intersect
        cone = make_cone([(1, 0), (1, 2)], 2)
        lattice, basis = SemigroupData(cone), hilbert_basis(cone)
        assert lattice == basis and basis == lattice and hash(lattice) == hash(basis)
        assert [f.name for f in dataclasses.fields(SemigroupData)] == ["cone"]
        assert dataclasses.replace(lattice) == lattice
        assert repr(lattice) == f"SemigroupData(cone={cone!r})"
        assert lattice.dual_rays == basis.dual_rays
        assert lattice.parallelotope == basis.parallelotope
        assert lattice.hilbert_basis == basis.hilbert_basis == ((0, 1), (1, 0), (2, -1))
        assert lattice != SemigroupData(make_cone([(1, 0), (1, 3)], 2))
        assert ray_prime(lattice, 0) == ray_prime(basis, 0)
        meet = intersect_valuation_ideals([ray_prime(lattice, 0), ray_prime(basis, 1)])
        assert meet.generators == ((1, 0),)
        assert meet == intersect_valuation_ideals([ray_prime(basis, 0), ray_prime(lattice, 1)])
        # the dual cone is built with the context, so an unsupported cone
        # raises there, before any attribute is read
        square = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
        flat = make_cone([(1, 0, 0), (0, 1, 0)], 3)
        for cone in (square, flat):
            with pytest.raises(UnsupportedConeError, match="^dualization needs a simplicial "
                               "full-dimensional cone$"):
                SemigroupData(cone)


class TestParallelotopeOnRead:
    def test_principal_power_enumerates_no_point(self, monkeypatch):
        # e1, e2, (3, 5, 61): a context, a principal symbolic power of a ray
        # prime, and its readers never enumerate the 3721-point parallelotope
        def unexpected(*args):
            pytest.fail("the parallelotope was enumerated")

        monkeypatch.setattr(cones, "_parallelotope", unexpected)
        data = SemigroupData(make_cone([(1, 0, 0), (0, 1, 0), (3, 5, 61)], 3))
        q = single_prime(data, 2)
        m = q._period[0]
        power = symbolic_power(q, m)
        assert is_principal(power)
        assert ideal_member(power.generators[0], power)
        assert not ideal_member((0, 0, 0), power)
        assert "parallelotope" not in vars(data)
