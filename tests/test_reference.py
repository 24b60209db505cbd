"""Differential tests: the library against the searches it replaced and
against independent descriptions of its answers."""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cone_zoo import all_cones, all_semigroups, build_cone
from reference import (
    adjugate_dual_rays,
    basis_ray_prime,
    box_scan_hilbert_basis,
    box_scan_size,
    closure_minimal_generators,
    combination_ordinary_power,
    hull_hilbert_basis,
    quadratic_minimalize,
    search_order_of_class,
)
from symtoric.class_group import class_group_of, class_of, order_of_class
from symtoric.cones import _solve, dot, dual_cone, hilbert_basis, make_cone
from symtoric.exact_linalg import IntegerMatrix, determinant
from symtoric.ideals import (
    MonomialIdeal,
    PureHeightOneIdeal,
    _minimal_generators,
    _minimalize,
    _pairings,
    _period,
    divisor_class,
    ordinary_power,
    ray_prime,
    symbolic_power,
)

# entry range per dimension, wide enough to reach |det| = 30 yet small
# enough that most draws are simplicial with a small parallelotope
ENTRY_SPAN = {2: (-6, 6), 3: (-2, 3), 4: (-1, 2)}


@st.composite
def small_cones(draw):
    """Simplicial full 2D-4D cones with |det| <= 30 for the ray matrix and
    for the dual-ray matrix, whose box scan stays cheap."""
    n = draw(st.integers(2, 4))
    entries = st.integers(*ENTRY_SPAN[n])
    rays = draw(st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n))
    assume(determinant(IntegerMatrix.from_rows(rays)) != 0)
    cone = make_cone(rays, n)
    assume(abs(determinant(cone.ray_matrix())) <= 30)
    assume(abs(determinant(IntegerMatrix.from_rows(dual_cone(cone).rays))) <= 30)
    assume(box_scan_size(cone) <= 20000)
    return hilbert_basis(cone)


@settings(deadline=None)
@given(small_cones())
def test_dual_cone_matches_adjugate(data):
    assert dual_cone(data.cone).rays == adjugate_dual_rays(data.cone)


@pytest.mark.parametrize("name, cone", all_cones())
def test_dual_cone_matches_adjugate_on_zoo(name, cone):
    assert dual_cone(cone).rays == adjugate_dual_rays(cone)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_solve_inverts_the_pairings(data, draw):
    cone = data.cone
    x = draw.draw(st.tuples(*[st.integers(-20, 20)] * cone.ambient_dim))
    assert _solve(cone, [dot(x, ray) for ray in cone.rays]) == x


@settings(deadline=None)
@given(small_cones(), st.data())
def test_solve_fails_exactly_off_the_trivial_class(data, draw):
    """A x = rhs has an integer solution exactly when rhs lies in the
    image of the pairing map, the trivial class of the cokernel."""
    cone = data.cone
    group = class_group_of(cone)
    rhs = draw.draw(st.tuples(*[st.integers(-20, 20)] * len(cone.rays)))
    assert (_solve(cone, rhs) is None) == any(class_of(rhs, group))
    m = order_of_class(rhs, group)
    assert _solve(cone, [m * c for c in rhs]) is not None


def check_ray_primes_match_basis_filter(data):
    for i in range(len(data.cone.rays)):
        assert ray_prime(data, i).generators == basis_ray_prime(data, i), i


@settings(deadline=None)
@given(small_cones())
def test_ray_prime_matches_basis_filter(data):
    check_ray_primes_match_basis_filter(data)


@pytest.mark.parametrize("name, data", all_semigroups())
def test_ray_prime_matches_basis_filter_on_zoo(name, data):
    check_ray_primes_match_basis_filter(data)


@settings(deadline=None)
@given(small_cones())
def test_hilbert_basis_matches_box_scan(data):
    cone = data.cone
    assert data.hilbert_basis == box_scan_hilbert_basis(cone)
    dual = IntegerMatrix.from_rows(data.dual_rays)
    points = [p for _, p in data.parallelotope]
    assert len(set(points)) == len(points) == abs(determinant(dual))
    for pairs, point in data.parallelotope:
        assert pairs == tuple(dot(point, ray) for ray in cone.rays)
        # half-open: below the dual ray's own pairing on every ray
        caps = [max(dot(w, ray) for w in data.dual_rays) for ray in cone.rays]
        assert all(0 <= y < c for y, c in zip(pairs, caps))


@settings(deadline=None)
@given(small_cones(), st.data())
def test_minimal_generators_match_closure(data, draw):
    nrays = len(data.cone.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    bounds = {ray: draw.draw(st.integers(1, 12)) for ray in rays}
    assert _minimal_generators(data, bounds) == closure_minimal_generators(data, bounds)


def check_symbolic_powers_match_closure(q):
    """q^(E) against the closure search for E = 1..2m+1, m the class order:
    two whole periods and the first level of the third."""
    m = order_of_class(divisor_class(q), class_group_of(q.context.cone))
    for power in range(1, 2 * m + 2):
        bounds = {ray: power * mult for ray, mult in q.components}
        sym = symbolic_power(q, power)
        assert sym.generators == closure_minimal_generators(q.context, bounds), power
        assert sym.valuation_bounds == tuple(sorted(bounds.items()))


@settings(deadline=None)
@given(small_cones(), st.data())
def test_symbolic_power_matches_closure(data, draw):
    nrays = len(data.cone.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    check_symbolic_powers_match_closure(
        PureHeightOneIdeal(data, tuple((ray, draw.draw(st.integers(1, 3))) for ray in rays))
    )


DOUBLE_HALF = hilbert_basis(build_cone("klein4"))
DET11_4D = hilbert_basis(
    make_cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)], 4)
)


@pytest.mark.parametrize(
    "data, components",
    [
        (DOUBLE_HALF, ((0, 1),)),
        (DOUBLE_HALF, ((1, 1),)),
        (DOUBLE_HALF, ((2, 1),)),
        (DOUBLE_HALF, ((0, 1), (2, 2))),
        (DOUBLE_HALF, ((1, 3), (2, 1))),
        (DET11_4D, ((0, 1),)),
        (DET11_4D, ((3, 1),)),
    ],
    ids=["dh-P0", "dh-P1", "dh-P2", "dh-P0-P2^2", "dh-P1^3-P2", "det11-P0", "det11-P3"],
)
def test_symbolic_power_matches_closure_on_fixed_cones(data, components):
    check_symbolic_powers_match_closure(PureHeightOneIdeal(data, components))


def zoo_ideals():
    """Every ray prime of every zoo cone, and one two-ray ideal each."""
    for name, data in all_semigroups():
        nrays = len(data.cone.rays)
        for components in [((i, 1),) for i in range(nrays)] + [((0, 1), (nrays - 1, 2))]:
            yield pytest.param(data, components, id=f"{name}-{components}")


@pytest.mark.parametrize("data, components", zoo_ideals())
def test_period_pairs_to_class_order(data, components):
    q = PureHeightOneIdeal(data, components)
    m, u = _period(q)
    b = divisor_class(q)
    assert m == search_order_of_class(b, class_group_of(data.cone))
    # m * b_i on q's rays, 0 on the others
    assert _pairings(u, data) == tuple(m * c for c in b)
    assert symbolic_power(q, m).generators == (u,)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_minimalize_matches_quadratic(data, draw):
    basis = data.hilbert_basis
    combos = st.lists(st.integers(0, 3), min_size=len(basis), max_size=len(basis))
    points = [
        tuple(sum(c * h[i] for c, h in zip(coeffs, basis)) for i in range(len(basis[0])))
        for coeffs in draw.draw(st.lists(combos, min_size=1, max_size=12))
    ]
    candidates = [(_pairings(p, data), p) for p in points]
    assert _minimalize(candidates) == quadratic_minimalize(points, data)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_ordinary_power_matches_combinations(data, draw):
    nrays = len(data.cone.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    q = PureHeightOneIdeal(data, tuple((ray, draw.draw(st.integers(1, 3))) for ray in rays))
    ideal = symbolic_power(q, draw.draw(st.integers(1, 2)))
    power = draw.draw(st.integers(1, 4))
    assume(comb(len(ideal.generators) + power - 1, power) <= 5000)
    assert ordinary_power(ideal, power) == combination_ordinary_power(ideal, power)


@pytest.mark.parametrize("value, power", [(1, 1), (7, 1), (5, 3), (21, 3)])
def test_ordinary_power_guard_bits(value, power):
    """Sum fields of 0 and of 2^(w-1) - 1, the largest value the field
    holds below its guard bit, in the same ray field of different sums."""
    top = power * value
    assert top == 2 ** top.bit_length() - 1
    # on the positive orthant the ray pairings are the coordinates
    data = hilbert_basis(make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    gens = tuple(p for p in itertools.product((0, value), repeat=3) if any(p))
    ideal = MonomialIdeal(data, gens)
    expected = tuple(
        tuple(value * c for c in exps)
        for exps in itertools.product(range(power + 1), repeat=3)
        if sum(exps) == power
    )
    assert ordinary_power(ideal, power).generators == expected
    assert ordinary_power(ideal, power) == combination_ordinary_power(ideal, power)


@st.composite
def simplicial_cones(draw, min_dim, max_dim, span):
    n = draw(st.integers(min_dim, max_dim))
    entries = st.integers(-span, span)
    rays = draw(st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n))
    assume(determinant(IntegerMatrix.from_rows(rays)) != 0)
    return make_cone(rays, n)


@settings(deadline=None)
@given(simplicial_cones(2, 5, 3), st.data())
def test_order_of_class_matches_search(cone, draw):
    group = class_group_of(cone)
    n = cone.ambient_dim
    divisor = draw.draw(st.tuples(*[st.integers(-5, 5)] * n))
    assert order_of_class(divisor, group) == search_order_of_class(divisor, group)


def test_order_of_class_on_non_cyclic_group():
    cone = make_cone([(1, 0, 0), (1, 2, 0), (1, 0, 2)], 3)
    group = class_group_of(cone)
    assert group.invariant_factors == (2, 2)
    for divisor in itertools.product(range(3), repeat=3):
        order = order_of_class(divisor, group)
        assert order == search_order_of_class(divisor, group)
        # (1, 1, 1) is the divisor of the first coordinate character
        assert order == (1 if len({x % 2 for x in divisor}) == 1 else 2)


def test_order_of_class_on_non_simplicial_cone():
    cone = make_cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3)
    group = class_group_of(cone)
    assert group.free_rank == 1
    orders = set()
    for divisor in itertools.product(range(-1, 2), repeat=4):
        order = order_of_class(divisor, group)
        assert order == search_order_of_class(divisor, group)
        orders.add(order)
    assert orders == {None, 1}


@settings(deadline=None)
@given(simplicial_cones(2, 2, 8))
def test_hilbert_basis_matches_hull_2d(cone):
    assert hilbert_basis(cone).hilbert_basis == hull_hilbert_basis(cone)
