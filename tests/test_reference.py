"""Differential tests: the library against the searches it replaced and
against independent descriptions of its answers."""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cone_zoo import CUBE_RAYS, all_cones, all_semigroups, build_cone
from reference import (
    adjugate_dual_rays,
    basis_ray_prime,
    box_scan_hilbert_basis,
    box_scan_size,
    chain_hilbert_basis,
    closure_minimal_generators,
    combination_ordinary_power,
    difference_member,
    fourier_motzkin_contains,
    hull_hilbert_basis,
    quadratic_minimalize,
    reference_sweep,
    search_order_of_class,
)
from symtoric.class_group import class_group_of, class_of, order_of_class
from symtoric.cones import (
    NotStronglyConvexError,
    _divisor_period,
    _lattice_point,
    _lineality_rays,
    _minimal_sums,
    dot,
    dual_cone,
    hilbert_basis,
    make_cone,
    primitive,
)
from symtoric.exact_linalg import IntegerMatrix, determinant, smith_normal_form
from symtoric.ideals import (
    MonomialIdeal,
    PureHeightOneIdeal,
    _pairings,
    _valuation_ideal,
    divisor_class,
    find_sharpness_witness,
    ideal_member,
    intersect_valuation_ideals,
    ordinary_power,
    ray_prime,
    symbolic_power,
    verify_containment,
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
def test_divisor_period_inverts_the_pairings(data, draw):
    cone = data.cone
    x = draw.draw(st.tuples(*[st.integers(-20, 20)] * cone.ambient_dim))
    assert _divisor_period(cone, [dot(x, ray) for ray in cone.rays]) == (1, x)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_divisor_period_is_the_class_order_and_its_character(data, draw):
    """m is the order of the divisor's class in the cokernel of the pairing
    map, 1 exactly on the trivial class, and u pairs to m times the
    divisor; for the divisor e_j of ray j, u is the dual ray of ray j."""
    cone = data.cone
    group = class_group_of(cone)
    n = len(cone.rays)
    j = draw.draw(st.integers(0, n - 1))
    unit = tuple(int(i == j) for i in range(n))
    for b in (draw.draw(st.tuples(*[st.integers(-20, 20)] * n)), unit):
        m, u = _divisor_period(cone, b)
        assert m == order_of_class(b, group)
        assert (m == 1) == (not any(class_of(b, group)))
        assert [dot(u, ray) for ray in cone.rays] == [m * c for c in b]
    assert u == next(w for w in adjugate_dual_rays(cone) if dot(w, cone.rays[j]) > 0)


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
    """Bounds on any set of rays, up to every ray, each up to three times
    the pairing c_i of its ray with its dual ray, so candidates are raised
    by up to three periods."""
    rays = data.cone.rays
    chosen = draw.draw(
        st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=len(rays), unique=True)
    )
    periods = [max(dot(w, ray) for w in data.dual_rays) for ray in rays]
    bounds = {ray: draw.draw(st.integers(1, 3 * periods[ray])) for ray in chosen}
    rows = _valuation_ideal(data, bounds)._vectors
    expected = closure_minimal_generators(data, bounds)
    assert sorted(rows) == sorted(_pairings(g, data) for g in expected)
    assert tuple(sorted(_lattice_point(data.cone, row) for row in rows)) == expected


def test_lattice_point_rejects_a_vector_outside_the_pairing_image():
    """(1, 0) on the A_1 cone would be the point (1, -1/2)."""
    cone = make_cone([(1, 0), (1, 2)], 2)
    assert _lattice_point(cone, (1, 1)) == (1, 0)
    with pytest.raises(RuntimeError):
        _lattice_point(cone, (1, 0))


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
    m, u = q._period
    b = divisor_class(q)
    assert m == search_order_of_class(b, class_group_of(data.cone))
    # m * b_i on q's rays, 0 on the others
    assert _pairings(u, data) == tuple(m * c for c in b)
    assert symbolic_power(q, m).generators == (u,)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_minimalize_matches_quadratic(data, draw):
    """The shared reduction on packed pairing keys keeps the pairing
    vectors of the candidates, or their power-fold sums, that the
    all-pairs test keeps, and each solves to its own point."""
    basis = data.hilbert_basis
    combos = st.lists(st.integers(0, 3), min_size=len(basis), max_size=len(basis))
    points = [
        tuple(sum(c * h[i] for c, h in zip(coeffs, basis)) for i in range(len(basis[0])))
        for coeffs in draw.draw(st.lists(combos, min_size=1, max_size=12))
    ]
    power = draw.draw(st.integers(1, 2))
    sums = [
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(points, power)
    ]
    rows = [_pairings(p, data) for p in points]
    minimal = _minimal_sums(list(zip(*rows)), power)
    solved = sorted((_lattice_point(data.cone, row), row) for row in minimal)
    assert tuple(g for g, _ in solved) == quadratic_minimalize(sums, data)
    assert [row for _, row in solved] == [_pairings(g, data) for g, _ in solved]


@settings(deadline=None)
@given(small_cones(), st.data())
def test_stored_pairings_match_generators(data, draw):
    """Every ideal's stored pairing vectors are its generators' own, and
    membership read from them agrees with the difference-vector test."""
    nrays = len(data.cone.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    q = PureHeightOneIdeal(data, tuple((ray, draw.draw(st.integers(1, 3))) for ray in rays))
    m = q._period[0]
    prime = ray_prime(data, rays[0])
    # below, at and above the period, and in the third period
    powers = [symbolic_power(q, e) for e in sorted({1, max(1, m - 1), m, m + 1, 2 * m + 1})]
    ideals = [prime, *powers, MonomialIdeal(data, powers[-1].generators)]
    for base in (prime, powers[0]):
        for a in range(1, 4):
            if comb(len(base.generators) + a - 1, a) <= 2000:
                ideals.append(ordinary_power(base, a))
    ideals.append(intersect_valuation_ideals([prime, symbolic_power(q, 2)]))
    ideals.append(intersect_valuation_ideals([ray_prime(data, ray) for ray in range(nrays)]))
    for ideal in ideals:
        assert ideal.pairings == tuple(_pairings(g, data) for g in ideal.generators)
    # each generator, and its steps up and down along every dual ray
    zero = (0,) * data.cone.ambient_dim
    offsets = [zero, *data.dual_rays, *(tuple(-c for c in w) for w in data.dual_rays)]
    points = {
        tuple(a + b for a, b in zip(g, w))
        for ideal in ideals
        for g in ideal.generators
        for w in offsets
    }
    for ideal in ideals:
        for point in points:
            assert ideal_member(point, ideal) == difference_member(point, ideal)


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


@settings(deadline=None)
@given(small_cones(), st.data())
def test_sweep_matches_reference(data, draw):
    """verify_containment and find_sharpness_witness against the
    brute-force sweep, at every multiplier from 1 to |det|, so that
    levels fail and witnesses are compared."""
    nrays = len(data.cone.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    components = tuple((ray, draw.draw(st.integers(1, 2))) for ray in rays)
    q = PureHeightOneIdeal(data, components)
    max_level = draw.draw(st.integers(1, 3))
    base = len(symbolic_power(q, 1).generators)
    assume(comb(base + max_level - 1, max_level) <= 2000)
    for multiplier in range(1, abs(determinant(data.cone.ray_matrix())) + 1):
        expected = reference_sweep(data, q.components, multiplier, max_level)
        report = verify_containment(q, multiplier, max_level)
        assert [(c.level, c.passed, c.witness) for c in report.levels] == expected
        failed = [(level, witness) for level, passed, witness in expected if not passed]
        assert find_sharpness_witness(q, multiplier, max_level) == (failed[0] if failed else None)


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
    result = ordinary_power(ideal, power)
    assert result.generators == expected
    assert result == combination_ordinary_power(ideal, power)
    # the rays are lex sorted, so pairings list the coordinates last first
    assert result.pairings == tuple(g[::-1] for g in expected)


@pytest.mark.parametrize(
    "rays, bounds, pairings",
    [
        ([(1, 0), (1, 2)], {0: 6, 1: 1}, ((6, 2), (7, 1))),
        ([(1, 0), (1, 3)], {0: 13}, ((13, 1), (15, 0))),
    ],
)
def test_valuation_ideal_guard_bits(rays, bounds, pairings):
    """A kept generator raised along a dual ray to a pairing of 2^(w-1) - 1,
    the largest value its field holds below the guard bit, as no candidate
    pairs higher: the parallelotope points pairing to (0, 0) and (1, 1)
    are raised to (6, 2) and (7, 1); on the second cone those and (2, 2)
    are raised to (15, 0), (13, 1) and (14, 2)."""
    data = hilbert_basis(make_cone(rays, 2))
    expected = closure_minimal_generators(data, bounds)
    assert sorted(_valuation_ideal(data, bounds)._vectors) == sorted(pairings)
    assert sorted(_pairings(g, data) for g in expected) == sorted(pairings)


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
    basis = hilbert_basis(cone).hilbert_basis
    assert basis == hull_hilbert_basis(cone)
    assert basis == chain_hilbert_basis(cone)


def rank_of(rows):
    return sum(1 for f in smith_normal_form(IntegerMatrix.from_rows(rows)).invariant_factors if f)


def check_lineality_matches_fourier_motzkin(rays, n):
    """The rays whose negation Fourier-Motzkin puts in the cone are the
    lineality rays, and make_cone names the least of them or succeeds."""
    unique = sorted({primitive(ray) for ray in rays})
    lines = _lineality_rays(unique, rank_of(unique))
    assert lines == {v for v in unique if fourier_motzkin_contains(unique, tuple(-x for x in v))}
    if lines:
        message = f"cone contains the line through {min(lines)}"
        with pytest.raises(NotStronglyConvexError) as caught:
            make_cone(rays, n)
        assert str(caught.value) == message
    else:
        assert not make_cone(rays, n).is_simplicial


@st.composite
def dependent_rays(draw):
    """2D-3D ray lists of d + 1 to d + 3 nonzero rays, entries -2..2;
    Fourier-Motzkin stays within milliseconds on these."""
    n = draw(st.integers(2, 3))
    ray = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    return draw(st.lists(ray, min_size=n + 1, max_size=n + 3)), n


@settings(deadline=None, max_examples=300)
@given(dependent_rays())
def test_lineality_rays_match_fourier_motzkin(drawn):
    rays, n = drawn
    unique = {primitive(ray) for ray in rays}
    assume(rank_of(unique) < len(unique))
    check_lineality_matches_fourier_motzkin(rays, n)


# 4D draws can keep Fourier-Motzkin busy for seconds, so 4D uses fixed rows
@pytest.mark.parametrize(
    "rays",
    [
        CUBE_RAYS[:5],
        CUBE_RAYS[:5] + [(0, 0, 0, -1)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, 0, 0), (0, 0, 0, 1)],
        [(1, 0, 0, 1), (0, 1, 0, 1), (-1, -1, 0, 1), (0, 0, 1, 0), (0, 0, -1, 0)],
        [(1, 2, 0, 0), (-1, -2, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)],
    ],
)
def test_lineality_rays_match_fourier_motzkin_4d(rays):
    assert rank_of(rays) < len(rays)
    check_lineality_matches_fourier_motzkin(rays, 4)
