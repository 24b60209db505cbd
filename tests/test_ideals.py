from __future__ import annotations

import copy
import dataclasses
import importlib
import itertools
import pickle
import re
from enum import IntEnum
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_zoo import all_semigroups, an_cone, build_cone
from reference import unpack_keys
from symtoric import cones, ideals
from symtoric.class_group import class_group_of, order_of_class
from symtoric.cones import (
    UnsupportedConeError,
    _pairings,
    dot,
    hilbert_basis,
    in_semigroup,
    make_cone,
    semigroup_member,
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
# what every ideal stores: its cone, and its reduction's field width and kept keys
PACKED = {"context", "_width", "_keys"}


@pytest.fixture(scope="module")
def a1_data():
    return hilbert_basis(make_cone([(1, 0), (1, 2)], 2))


@pytest.fixture(scope="module")
def a2_data():
    return hilbert_basis(make_cone([(1, 0), (1, 3)], 2))


def single_prime(data, ray_index):
    return PureHeightOneIdeal(data, ((ray_index, 1),))


def satisfies_bounds(point, q, power):
    """Whether the point lies in q^(power): its pairing with each component
    ray reaches power times the multiplicity."""
    return all(dot(point, q.context.rays[ray]) >= power * mult for ray, mult in q.components)


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

    def test_non_integer_components_rejected(self, a1_data):
        # a float or a bool is no ray index and no multiplicity
        for comps in (((0, 1.5),), ((0.0, 1),), ((True, 1),), ((1, 1), (0, False))):
            bad = repr(comps[-1]).replace("(", r"\(").replace(")", r"\)")
            with pytest.raises(TypeError, match=f"^component {bad} has a non-integer entry$"):
                PureHeightOneIdeal(a1_data, comps)

    def test_component_that_is_no_pair_rejected(self, a1_data):
        # each is named before it is unpacked: too short, not a sequence, too long
        for comps in (((0,),), (0, 1), ((0, 1, 2),)):
            message = f"component {comps[0]!r} is not a (ray index, multiplicity) pair"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                PureHeightOneIdeal(a1_data, comps)

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
            for i in range(len(data.rays)):
                prime = ray_prime(data, i)
                sym = symbolic_power(single_prime(data, i), 1)
                assert prime.generators == sym.generators, (name, i)

    def test_stores_its_cone_and_keys_alone(self, a1_data):
        assert [f.name for f in dataclasses.fields(MonomialIdeal)] == ["context", "generators"]
        assert vars(ray_prime(a1_data, 0)).keys() == PACKED


class TestSymbolicPower:
    def test_a1_squared_is_principal(self, a1_data):
        q = single_prime(a1_data, 0)
        sym = symbolic_power(q, 2)
        assert sym.generators == ((2, -1),)
        assert is_principal(sym)

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
        for power in (1.0, True):
            with pytest.raises(TypeError, match="^symbolic power must be an integer"):
                symbolic_power(single_prime(a1_data, 0), power)

    def test_generators_satisfy_bounds(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            for i in range(len(data.rays)):
                for power in (1, 2, 3):
                    q = single_prime(data, i)
                    sym = symbolic_power(q, power)
                    assert sym.generators, (name, i, power)
                    for g in sym.generators:
                        assert in_semigroup(g, data), (name, i, power, g)
                        assert satisfies_bounds(g, q, power), (name, i, power, g)

    def test_agrees_with_componentwise_intersection(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            nrays = len(data.rays)
            if nrays < 2:
                continue
            q = PureHeightOneIdeal(data, ((0, 1), (1, 2)))
            for power in (1, 2):
                joint = symbolic_power(q, power)
                # P0^(E) and P1^(2E), as the divisors E e_0 and 2E e_1
                pieces = [
                    PureHeightOneIdeal(data, ((0, power),)),
                    PureHeightOneIdeal(data, ((1, 2 * power),)),
                ]
                meet = intersect_valuation_ideals(pieces)
                assert joint.generators == meet.generators, (name, power)

    def test_non_principal_powers_keep_the_reduced_pairs(self, a2_data, monkeypatch):
        # the class has order 3, and the dual ray of ray 0 pairs with it to
        # c_0 = 3: each power below and past it is one reduction of the
        # cone's parallelotope keys (0, 0), (1, 1), (2, 2), at the cone's
        # width, with field 0 raised by c_0 where it is below the power mod
        # c_0.  Below c_0 the ideal holds the kept keys as reduced; past it,
        # their vectors translated by c_0 along ray 0, packed at their width
        built = []
        reduce = cones._reduce

        def recorded(width, keys, nfields):
            built.append((width, reduce(width, keys, nfields)))
            return built[-1][1]

        monkeypatch.setattr(cones, "_reduce", recorded)
        cases = {2: (((3, 0), (2, 2)), ((3, 0), (2, 2))),
                 4: (((3, 0), (1, 1)), ((6, 0), (4, 1)))}
        for power, (reduced, translated) in cases.items():
            built.clear()
            sym = symbolic_power(single_prime(a2_data, 0), power)
            ((width, keys),) = built
            assert width == a2_data._packed[0] == (2 * 3).bit_length() + 1, power
            assert unpack_keys(width, keys, 2) == reduced, power
            assert vars(sym).keys() == PACKED, power
            if power < 3:
                assert sym._keys is keys and sym._width == width
            else:
                assert sym._width == max(map(max, translated)).bit_length() + 1
            # unpacked in key order, they are the solved generators' pairings
            rows = sym._vectors
            assert rows == unpack_keys(sym._width, sym._keys, 2) == translated, power
            assert list(sym._keys) == sorted(sym._keys), power
            solved = tuple(_pairings(g, a2_data) for g in sym.generators)
            assert sorted(rows) == sorted(solved), power
        # an ideal built from the generators, in any order, or replaced,
        # holds the packed keys alone, and unpacks the same vectors
        made = MonomialIdeal(a2_data, sym.generators[::-1])
        assert vars(made).keys() == PACKED
        assert made._vectors == rows and made == sym
        replaced = dataclasses.replace(made, generators=sym.generators[:1])
        assert vars(replaced).keys() == PACKED
        assert replaced._vectors == (_pairings(sym.generators[0], a2_data),)

    def test_pairings_stored_at_and_past_the_period(self, zoo_semigroups):
        """Powers at and past the period store a field width and packed
        keys alone, the one key of E b at a multiple of the period and the
        reduced ones past it: no vectors until they are read, and no
        generators until those are."""
        for name, data in zoo_semigroups:
            rays = data.rays
            group = class_group_of(data)
            for i in range(len(rays)):
                q = single_prime(data, i)
                m = order_of_class(divisor_class(q), group)
                for power in (m, m + 1, 2 * m, 2 * m + 1):
                    sym = symbolic_power(q, power)
                    assert vars(sym).keys() == PACKED, (name, i, power)
                    rows = unpack_keys(sym._width, sym._keys, len(rays))
                    if power % m == 0:
                        assert rows == (tuple(power * c for c in divisor_class(q)),)
                    assert sym._vectors == rows, (name, i, power)
                    assert "generators" not in vars(sym), (name, i, power)
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
            if data.ambient_dim != 2:
                continue
            for i in range(len(data.rays)):
                for power in (1, 2, 3):
                    q = single_prime(data, i)
                    sym = symbolic_power(q, power)
                    for m in box_points(2, 8):
                        if not in_semigroup(m, data):
                            continue
                        expected = satisfies_bounds(m, q, power)
                        assert ideal_member(m, sym) == expected, (name, i, power, m)

    def test_three_dim_zoo(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            if data.ambient_dim != 3:
                continue
            for i in range(len(data.rays)):
                for power in (1, 2):
                    q = single_prime(data, i)
                    sym = symbolic_power(q, power)
                    for m in box_points(3, 4):
                        if not in_semigroup(m, data):
                            continue
                        expected = satisfies_bounds(m, q, power)
                        assert ideal_member(m, sym) == expected, (name, i, power, m)

    def test_mixed_bounds_box(self, a1_data, a2_data):
        for data in (a1_data, a2_data):
            q = PureHeightOneIdeal(data, ((0, 2), (1, 1)))
            sym = symbolic_power(q, 2)
            for m in box_points(2, 9):
                if not in_semigroup(m, data):
                    continue
                assert ideal_member(m, sym) == satisfies_bounds(m, q, 2), m


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
        for power in (2.0, True):
            with pytest.raises(TypeError, match="^ordinary power must be an integer"):
                ordinary_power(ray_prime(a1_data, 0), power)

    def test_rejects_generator_outside_semigroup(self, a1_data):
        # (0, -1) pairs to -2 with the ray (1, 2): no ideal of it is built
        for gens in (((0, -1),), ((1, 0), (0, -1))):
            with pytest.raises(ValueError, match="dual semigroup"):
                ordinary_power(MonomialIdeal(a1_data, gens), 2)

    def test_no_valuation_bounds_recorded(self, a1_data):
        # an ordinary power is in general no valuation ideal, and like every
        # ideal it holds its cone and keys, and no description of itself
        square = ordinary_power(ray_prime(a1_data, 0), 2)
        assert vars(square).keys() == PACKED
        assert square != symbolic_power(single_prime(a1_data, 0), 2)

    def test_contained_in_symbolic(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            for i in range(len(data.rays)):
                q = single_prime(data, i)
                base = ray_prime(data, i)
                for a in (1, 2, 3):
                    sym = symbolic_power(q, a)
                    for g in ordinary_power(base, a).generators:
                        assert satisfies_bounds(g, q, a), (name, i, a, g)
                        assert ideal_member(g, sym), (name, i, a, g)


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
        data = make_cone([(1, 1, 2), (1, 2, 1), (2, 1, 1)], 3)
        base = symbolic_power(single_prime(data, 0), 1)
        base.generators  # solved here, before any test counts solves
        return base

    @staticmethod
    def valuation_ideals(data):
        """Ray primes, an intersection, and symbolic powers below, past and
        at the class order 4 of the first ray prime: only the last is principal."""
        q = single_prime(data, 0)
        below = symbolic_power(q, 2)
        twice = PureHeightOneIdeal(data, ((0, 2),))
        meet = intersect_valuation_ideals([twice, single_prime(data, 1)])
        return [ray_prime(data, 0), ray_prime(data, 2), meet, below, symbolic_power(q, 5),
                symbolic_power(q, 4)]

    def test_readers_solve_no_point(self, base, solves):
        square = ordinary_power(base, 2)
        assert not ideal_member((0, 0, 0), square)
        assert ideal_member(tuple(2 * c for c in base.generators[0]), square)
        # membership and counting read the stored keys alone: nothing is unpacked
        assert vars(square).keys() == PACKED
        assert not is_principal(square)
        assert vars(square).keys() == PACKED
        cube_of_square = ordinary_power(square, 3)
        assert not is_principal(cube_of_square)
        assert solves == []
        # powering unpacks the vectors, and solves no generator
        assert vars(square).keys() == PACKED | {"_vectors"}

    def test_generators_solve_each_vector_once(self, base, solves):
        square = ordinary_power(base, 2)
        gens = square.generators
        assert square.generators is gens and list(gens) == sorted(gens)
        assert sorted(solves) == sorted(square._vectors)
        assert len(set(solves)) == len(solves) == len(gens)
        # the stored vectors are the solved generators' pairings
        rays = base.context.rays
        assert sorted(square._vectors) == sorted(tuple(dot(g, ray) for ray in rays) for g in gens)
        assert len(solves) == len(gens)

    def test_solved_power_equals_a_caller_built_ideal(self, base):
        built = MonomialIdeal(base.context, ordinary_power(base, 2).generators)
        fresh = ordinary_power(base, 2)
        assert fresh == built and hash(fresh) == hash(built) and repr(fresh) == repr(built)
        assert dataclasses.replace(ordinary_power(base, 2)) == built

    def test_passing_sweep_on_a_smooth_cone_solves_nothing(self, solves):
        # every class is trivial: each symbolic power is a translate of R
        data = make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
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
            paired = (_pairings(g, base.context) for g in gens)
            assert sorted(solves) == sorted(ideal._vectors) == sorted(paired)
            assert len(set(solves)) == len(solves) == len(gens)

    def test_failing_sweep_solves_only_its_failing_vectors(self, solves):
        # on the A_1 cone D = 1 fails at levels 2 and 3; the witness is the
        # lex-least point of the failing ones, whatever order they are in
        data = make_cone([(1, 0), (1, 2)], 2)
        q = single_prime(data, 0)
        failing = []
        for a in (1, 2, 3):
            ordinary = ordinary_power(ray_prime(data, 0), a)
            points = [g for g in symbolic_power(q, a).generators if not ideal_member(g, ordinary)]
            failing += [tuple(dot(g, ray) for ray in data.rays) for g in points]
        assert len(failing) == 3
        solves.clear()
        report = verify_containment(q, 1, 3)
        assert [c.witness for c in report.levels] == [None, (2, -1), (3, -1)]
        assert sorted(solves) == sorted(failing)


class TestLibraryIdealCopies:
    """Pickling and deep-copying an ideal, from the library or the
    constructor, keep what it has derived so far, and let the copy derive
    the rest, in each of its three states: keys only, vectors unpacked,
    and generators solved."""

    READS = {"keys": (), "vectors": ("_vectors",), "generators": ("_vectors", "generators")}

    @pytest.mark.parametrize("state", READS)
    def test_pickle_and_deepcopy_round_trip(self, state):
        # pickle finds a class by name in sys.modules, and another suite may
        # have re-imported symtoric since this file did: build from that one
        lib = importlib.import_module("symtoric")
        data = lib.make_cone([(1, 1, 2), (1, 2, 1), (2, 1, 1)], 3)
        q = lib.PureHeightOneIdeal(data, ((0, 1),))
        square = lib.ordinary_power(lib.ray_prime(data, 0), 2)
        listed = square.generators[::-1] + square.generators[:1]
        # below the class order 4, an ordinary power, at the order, and
        # an ordinary power's generators, reversed and repeated, built anew
        for build in (lambda: lib.symbolic_power(q, 2), lambda: lib.symbolic_power(q, 4),
                      lambda: lib.ordinary_power(lib.ray_prime(data, 0), 2),
                      lambda: lib.MonomialIdeal(data, listed),
                      lambda: dataclasses.replace(square, generators=listed)):
            ideal, fresh = build(), build()
            for name in self.READS[state]:
                getattr(ideal, name)
            stored = vars(ideal).keys()
            assert stored == PACKED | set(self.READS[state])
            copies = [pickle.loads(pickle.dumps(ideal, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies.append(copy.deepcopy(ideal))
            assert all(vars(twin).keys() == stored for twin in copies)
            for twin in copies:
                assert (twin._width, twin._keys) == (fresh._width, fresh._keys)
                assert not lib.ideal_member((0, 0, 0), twin)
                assert all(lib.ideal_member(point, twin) for point in fresh.generators)
                assert twin._vectors == fresh._vectors and twin.generators == fresh.generators
                assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)


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

    def test_non_integer_point_rejected(self, a1_data):
        # as for generators: a float or a bool is no lattice coordinate
        for point in ((1.0, 0), (True, False), (3, 0.5)):
            bad = repr(point).replace("(", r"\(").replace(")", r"\)")
            with pytest.raises(TypeError, match=f"^point {bad} has a non-integer coordinate$"):
                ideal_member(point, ray_prime(a1_data, 0))

    def test_caller_ideal_with_a_negative_pairing(self, a1_data):
        # (0, -1) pairs to (0, -2) with the rays (1, 0), (1, 2): outside the
        # dual semigroup, so the constructor and replace name it and build nothing
        prime = ray_prime(a1_data, 0)
        for gens in (((0, -1),), ((1, 0), (0, -1), (-1, 0))):
            with pytest.raises(ValueError, match=r"^generator \(0, -1\) lies outside the dual"):
                MonomialIdeal(a1_data, gens)
            with pytest.raises(ValueError, match=r"^generator \(0, -1\) lies outside the dual"):
                dataclasses.replace(prime, generators=gens)

    def test_non_integer_coordinates_rejected(self, a1_data):
        # as for rays: a float or a bool is no lattice coordinate
        prime = ray_prime(a1_data, 0)
        for gens in (((1.0, 0),), ((1, 0), (True, 0)), ((2, -1), (1, 0.5))):
            bad = repr(gens[-1]).replace("(", r"\(").replace(")", r"\)")
            with pytest.raises(TypeError, match=f"^generator {bad} has a non-integer"):
                MonomialIdeal(a1_data, gens)
            with pytest.raises(TypeError, match=f"^generator {bad} has a non-integer"):
                dataclasses.replace(prime, generators=gens)
        # an int subclass is an integer in a generator, as it is in a ray
        one = IntEnum("One", "ONE").ONE
        assert MonomialIdeal(a1_data, ((one, 0),)) == MonomialIdeal(a1_data, ((1, 0),))
        assert make_cone([(one, 0), (1, 2)], 2).rays == a1_data.rays

    def test_generator_dimension_checked(self):
        # pairings zip a generator with each ray, which would cut a wrong length silently
        data = make_cone([(1, 0), (1, 2)], 2)
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
        ray = data.draw(st.integers(0, len(sg.rays) - 1))
        power = data.draw(st.integers(1, 3))
        ideal = symbolic_power(single_prime(sg, ray), power)
        gen = data.draw(st.sampled_from(ideal.generators))
        coeffs = [data.draw(st.integers(0, 2)) for _ in sg.hilbert_basis]
        shift = gen
        for c, h in zip(coeffs, sg.hilbert_basis):
            shift = tuple(a + c * b for a, b in zip(shift, h))
        assert ideal_member(shift, ideal)


class TestIntersect:
    """The intersection of first symbolic powers of divisors is the first
    symbolic power of their componentwise maximum."""

    def test_a1_frozen(self, a1_data):
        meet = intersect_valuation_ideals(
            [
                PureHeightOneIdeal(a1_data, ((0, 2),)),
                single_prime(a1_data, 1),
            ]
        )
        assert meet.generators == ((2, 0), (3, -1))
        assert meet == symbolic_power(PureHeightOneIdeal(a1_data, ((0, 2), (1, 1))), 1)

    def test_recorded_ray_indices_checked(self):
        # a divisor's ray indices are checked when it is built, so none out
        # of range reaches the intersection; an ideal records no bounds
        data = make_cone([(1, 0), (1, 2)], 2)
        for comps in (((-1, 2),), ((5, 1),)):
            with pytest.raises(IndexError, match="out of range for 2 rays"):
                intersect_valuation_ideals([PureHeightOneIdeal(data, comps)])
        with pytest.raises(TypeError):
            dataclasses.replace(ray_prime(data, 0), valuation_bounds=((0, 1), (2, 1)))

    def test_requires_bounds(self, a1_data):
        # every factor is a divisor with at least one bounded ray
        with pytest.raises(ValueError, match="at least one ray component"):
            intersect_valuation_ideals([single_prime(a1_data, 0), PureHeightOneIdeal(a1_data, ())])
        meet = intersect_valuation_ideals([single_prime(a1_data, 0)])
        assert meet == ray_prime(a1_data, 0)

    def test_requires_same_context(self, a1_data, a2_data):
        with pytest.raises(ValueError, match="different semigroups"):
            intersect_valuation_ideals([single_prime(a1_data, 0), single_prime(a2_data, 0)])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError, match="nothing to intersect"):
            intersect_valuation_ideals([])

    def test_members_lie_in_every_factor(self, a1_data, a2_data):
        for data in (a1_data, a2_data):
            factors = [
                PureHeightOneIdeal(data, ((0, 2),)),
                PureHeightOneIdeal(data, ((1, 3),)),
            ]
            meet = intersect_valuation_ideals(factors)
            for g in meet.generators:
                for factor in factors:
                    assert ideal_member(g, symbolic_power(factor, 1)), (g, factor)

    def test_equal_ideals_intersect_equally(self, a1_data):
        """An ideal is its cone and generators: no second description of it
        can be passed in or replaced, and equal divisors, however listed,
        intersect to the same ideal, which holds every member common to the
        factors: here (1, 0), on the divisor e_0 + e_1."""
        with pytest.raises(TypeError):
            MonomialIdeal(a1_data, ((1, 0),), ((0, 7), (1, 7)))
        with pytest.raises(TypeError):
            dataclasses.replace(ray_prime(a1_data, 0), valuation_bounds=((1, 5),))
        both = PureHeightOneIdeal(a1_data, ((0, 1), (1, 1)))
        listed = PureHeightOneIdeal(a1_data, ((1, 1), (0, 1)))
        assert both == listed
        meet = intersect_valuation_ideals([both])
        assert meet == intersect_valuation_ideals([listed]) == MonomialIdeal(a1_data, ((1, 0),))
        primes = intersect_valuation_ideals([single_prime(a1_data, 1), single_prime(a1_data, 0)])
        assert primes == meet and ideal_member((1, 0), primes)
        for point in box_points(2, 6):
            common = all(ideal_member(point, ray_prime(a1_data, i)) for i in (0, 1))
            assert ideal_member(point, primes) == common, point


class TestEmptyCandidates:
    """Empty bounds and empty generator sets through the packed reduction,
    on the det-61 cone e1, e2, (3, 5, 61)."""

    @pytest.fixture(scope="class")
    def det61_data(self):
        return make_cone([(1, 0, 0), (0, 1, 0), (3, 5, 61)], 3)

    def test_valuation_ideal_of_no_bounds_is_the_unit_ideal(self, det61_data):
        unit = ideals._library_ideal(det61_data, cones._valuation_keys(det61_data, (0, 0, 0)))
        assert unit.generators == ((0, 0, 0),)
        assert unit._vectors == ((0, 0, 0),)
        assert vars(unit).keys() == PACKED | {"_vectors", "generators"}

    def test_power_of_the_zero_ideal_has_no_generators(self, det61_data):
        square = ordinary_power(MonomialIdeal(det61_data, ()), 2)
        assert square.generators == ()
        assert square._vectors == ()

    def test_power_of_the_unit_ideal_is_the_unit_ideal(self, det61_data):
        unit = MonomialIdeal(det61_data, ((0, 0, 0),))
        cube = ordinary_power(unit, 3)
        assert cube == unit
        assert cube._vectors == ((0, 0, 0),)


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
        with pytest.raises(TypeError, match="^multiplier must be an integer, got 2.0$"):
            verify_containment(q, 2.0, 2)
        with pytest.raises(TypeError, match="^max level must be an integer, got True$"):
            verify_containment(q, 2, True)

    def test_group_order_multiplier_passes_everywhere(self, zoo_semigroups):
        for name, data in zoo_semigroups:
            group = class_group_of(data)
            for i in range(len(data.rays)):
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
            group = class_group_of(cone)
            for i in range(len(cone.rays)):
                q = single_prime(cone, i)
                m = order_of_class(divisor_class(q), group)
                for multiplier in range(1, m):
                    checked += 1
                    bound = m // gcd(multiplier, m)
                    assert find_sharpness_witness(q, multiplier, bound) is not None, (cone, i)
        assert checked == 458
        # on A_n both ray primes have m = n + 1, and D = n first fails there
        for n in range(1, 11):
            data = an_cone(n)
            for i in (0, 1):
                assert find_sharpness_witness(single_prime(data, i), n, n + 1)[0] == n + 1, (n, i)

    def test_validation(self, a1_data):
        q = single_prime(a1_data, 0)
        with pytest.raises(ValueError):
            find_sharpness_witness(q, 0, 3)
        with pytest.raises(ValueError):
            find_sharpness_witness(q, 1, 0)
        with pytest.raises(TypeError, match="^multiplier must be an integer, got 1.5$"):
            find_sharpness_witness(q, 1.5, 3)
        with pytest.raises(TypeError, match="^max level must be an integer, got 3.0$"):
            find_sharpness_witness(q, 1, 3.0)


class TestPrincipalAtGroupOrder:
    """At D equal to the order of the divisor class, the D-th symbolic
    power collapses to one generator and its ordinary powers recover all
    higher symbolic powers exactly."""

    def test_an_family(self):
        for n in range(1, 6):
            data = hilbert_basis(an_cone(n))
            q = single_prime(data, 0)
            group = class_group_of(data)
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
            group = class_group_of(data)
            for i in range(len(data.rays)):
                q = single_prime(data, i)
                order = order_of_class(divisor_class(q), group)
                collapsed = symbolic_power(q, order)
                assert is_principal(collapsed), (name, i)
                expanded = ordinary_power(collapsed, 2)
                direct = symbolic_power(q, order * 2)
                assert expanded.generators == direct.generators, (name, i)


class TestMonomialIdealEquality:
    def test_bounds_ignored_in_comparison(self, a1_data):
        # the divisor an ideal was built from is not kept: the valuation
        # ideal of e_0 + e_1 is the caller's ideal on (1, 0) and a translate
        built = symbolic_power(PureHeightOneIdeal(a1_data, ((0, 1), (1, 1))), 1)
        made = MonomialIdeal(a1_data, ((3, 1), (1, 0)))
        assert built == made and hash(built) == hash(made) and repr(built) == repr(made)

    def test_pairings_computed_from_generators(self, a1_data):
        # a caller cannot pass pairings in; a built or replaced ideal holds
        # the packed keys alone, and unpacks its vectors in key order
        a = MonomialIdeal(a1_data, ((1, 0), (2, -1)))
        assert vars(a).keys() == PACKED
        assert a._vectors == ((2, 0), (1, 1))
        assert "_vectors" not in repr(a) and "_keys" not in repr(a)
        with pytest.raises(TypeError):
            MonomialIdeal(a1_data, a.generators, ((0, 0), (0, 0)))
        b = dataclasses.replace(a, generators=((2, 2), (1, 1)))
        assert vars(b).keys() == PACKED
        assert b._vectors == ((1, 3),) and b.generators == ((1, 1),)

    def test_generators_reduced_whatever_their_order(self, a1_data):
        # (2, 0) = (1, 0) + (1, 0) and (3, -1) = (1, 0) + (2, -1): the
        # constructor keeps the minimal generators, lex sorted
        assert is_principal(MonomialIdeal(a1_data, ((1, 0), (2, 0))))
        prime = ray_prime(a1_data, 0)
        for gens in (((1, 0), (2, -1)), ((2, -1), (1, 0)), ((3, -1), (2, -1), (1, 0), (1, 0))):
            ideal = MonomialIdeal(a1_data, gens)
            assert ideal.generators == ((1, 0), (2, -1)), gens
            assert ideal == prime and hash(ideal) == hash(prime), gens
            assert ordinary_power(ideal, 1) == ideal, gens

    def test_equal_cones_mix(self):
        # an ideal's context is its cone: hilbert_basis returns the cone it
        # was given, and the ideals of equal cones, one with its basis read
        # and one without, compare equal and intersect
        cone, twin = make_cone([(1, 0), (1, 2)], 2), make_cone([(1, 2), (1, 0)], 2)
        assert hilbert_basis(cone) is cone
        assert "hilbert_basis" in vars(cone) and "hilbert_basis" not in vars(twin)
        assert cone == twin and hash(cone) == hash(twin) and repr(cone) == repr(twin)
        assert ray_prime(cone, 0) == ray_prime(twin, 0)
        meet = intersect_valuation_ideals([single_prime(cone, 0), single_prime(twin, 1)])
        assert meet.generators == ((1, 0),)
        assert meet == intersect_valuation_ideals([single_prime(twin, 0), single_prime(cone, 1)])


class TestUnsupportedCone:
    def test_every_semigroup_reader_raises(self):
        # the square cone is not simplicial and the flat one not full: each
        # builds, and every reader of its dual semigroup raises the dual
        # cone's error and keeps nothing
        square = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
        flat = make_cone([(1, 0, 0), (0, 1, 0)], 3)
        for cone in (square, flat):
            readers = [
                lambda: MonomialIdeal(cone, ((0, 0, 1),)),
                lambda: PureHeightOneIdeal(cone, ((0, 1),)),
                lambda: ray_prime(cone, 0),
                lambda: in_semigroup((0, 0, 1), cone),
                lambda: semigroup_member((0, 0, 1), cone),
            ] + [lambda name=name: getattr(cone, name)
                 for name in ("dual_rays", "_packed", "hilbert_basis", "pairing_table")]
            for read in readers:
                with pytest.raises(UnsupportedConeError, match="^dualization needs a simplicial "
                                   "full-dimensional cone$"):
                    read()
            assert vars(cone).keys() == {f.name for f in dataclasses.fields(cone)}

    def test_components_checked_before_the_cone(self):
        # a bad component is named even on a cone with no dual semigroup
        square = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
        with pytest.raises(ValueError, match="^ray index 0 appears twice$") as raised:
            PureHeightOneIdeal(square, ((0, 1), (0, 1)))
        assert raised.type is ValueError
        with pytest.raises(IndexError, match="^ray index 4 out of range for 4 rays$"):
            PureHeightOneIdeal(square, ((4, 1),))
        assert vars(square).keys() == {f.name for f in dataclasses.fields(square)}


class TestParallelotopeOnRead:
    @pytest.fixture(autouse=True)
    def no_parallelotope(self, monkeypatch):
        def unexpected(*args):
            pytest.fail("the parallelotope was enumerated")

        monkeypatch.setattr(cones, "_parallelotope", unexpected)

    def test_principal_power_enumerates_no_point(self):
        # e1, e2, (3, 5, 61): a context, a principal symbolic power of a ray
        # prime, and its readers never enumerate the 3721-point parallelotope
        data = make_cone([(1, 0, 0), (0, 1, 0), (3, 5, 61)], 3)
        q = single_prime(data, 2)
        m = q._period[0]
        power = symbolic_power(q, m)
        assert is_principal(power)
        assert ideal_member(power.generators[0], power)
        assert not ideal_member((0, 0, 0), power)
        assert "_packed" not in vars(data)

    @pytest.mark.parametrize(
        "rays, factors, generator",
        [
            ([(0, 1), (200003, -7)], [((0, 200003),), ((0, 5),)], (7, 200003)),
            ([(1, 0, 0), (0, 1, 0), (3, 5, 61)], [((2, 61),), ((2, 1),)], (0, 0, 1)),
        ],
        ids=["det200003", "det61"],
    )
    def test_principal_intersection_enumerates_no_point(self, rays, factors, generator):
        # a merged divisor whose class is trivial is the period's one vector:
        # the intersection enumerates neither the 200003 nor the 3721 points
        data = make_cone(rays, len(rays))
        meet = intersect_valuation_ideals([PureHeightOneIdeal(data, comps) for comps in factors])
        assert meet.generators == (generator,)
        assert "_packed" not in vars(data)
