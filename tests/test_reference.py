"""Differential tests: the library against the searches it replaced and
against independent descriptions of its answers."""

from __future__ import annotations

import itertools
from math import comb
from operator import add, ge

import pytest
from hypothesis import assume, example, given, settings
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
    depth_first_member,
    difference_member,
    fourier_motzkin_contains,
    generator_dot,
    guard_bit_minimal_sums,
    hull_hilbert_basis,
    lcm_divisor_period,
    mirrored_smith_normal_form,
    per_term_matmul,
    per_term_transpose,
    point_parallelotope,
    quadratic_minimalize,
    reference_sweep,
    search_order_of_class,
    tuple_in_ideal,
    unpack_keys,
)
from symtoric.class_group import class_group_of, class_of, order_of_class
from symtoric.cones import (
    NotStronglyConvexError,
    WorkLimitExceeded,
    _divisor_period,
    _lattice_point,
    _lineality_rays,
    _minimal_sums,
    _outside,
    _pairings,
    _unpacked,
    _valuation_keys,
    dot,
    dual_cone,
    hilbert_basis,
    in_semigroup,
    make_cone,
    primitive,
    semigroup_member,
)
from symtoric.exact_linalg import IntegerMatrix, adjugate, determinant, smith_normal_form
from symtoric.ideals import (
    MonomialIdeal,
    PureHeightOneIdeal,
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
    return cone


@settings(deadline=None)
@given(small_cones())
def test_dual_cone_matches_adjugate(data):
    assert dual_cone(data).rays == adjugate_dual_rays(data)


@pytest.mark.parametrize("name, cone", all_cones())
def test_dual_cone_matches_adjugate_on_zoo(name, cone):
    assert dual_cone(cone).rays == adjugate_dual_rays(cone)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_divisor_period_inverts_the_pairings(cone, draw):
    x = draw.draw(st.tuples(*[st.integers(-20, 20)] * cone.ambient_dim))
    assert _divisor_period(cone, [dot(x, ray) for ray in cone.rays]) == (1, x)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_divisor_period_is_the_class_order_and_its_character(cone, draw):
    """m is the order of the divisor's class in the cokernel of the pairing
    map, 1 exactly on the trivial class, and u pairs to m times the
    divisor; for the divisor e_j of ray j, u is the dual ray of ray j."""
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
    for i in range(len(data.rays)):
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
def test_hilbert_basis_matches_box_scan(cone):
    assert hilbert_basis(cone).hilbert_basis == box_scan_hilbert_basis(cone)
    dual = IntegerMatrix.from_rows(cone.dual_rays)
    parallelotope = point_parallelotope(cone)
    points = [p for _, p in parallelotope]
    assert len(set(points)) == len(points) == abs(determinant(dual))
    for pairs, point in parallelotope:
        assert pairs == tuple(dot(point, ray) for ray in cone.rays)
        # half-open: below the dual ray's own pairing on every ray
        caps = [max(dot(w, ray) for w in cone.dual_rays) for ray in cone.rays]
        assert all(0 <= y < c for y, c in zip(pairs, caps))


@settings(deadline=None)
@given(small_cones())
# dual Smith factors 1, 2, 4: a box walked unscaled would pair wrongly
@example(make_cone([(1, 0, 0), (0, 1, 0), (1, 2, 4)], 3))
@example(make_cone([(0, 1), (1009, -7)], 2))
def test_pairing_columns_match_the_point_parallelotope(cone):
    """The cone's packed keys unpack to the pairing vectors of the formed
    points, |det W| of them in the oracle's order, each field i below c_i
    at a width holding 2 max c_i and a guard bit; the solve matrix solves
    each row to its point."""
    expected = point_parallelotope(cone)
    width, keys = cone._packed
    periods = [c for _, c in cone._own_duals]
    assert width == (2 * max(periods)).bit_length() + 1
    rows = tuple(_unpacked(width, keys, len(cone.rays)))
    assert all(0 <= p < c for row in rows for p, c in zip(row, periods))
    assert len(rows) == abs(determinant(IntegerMatrix.from_rows(cone.dual_rays)))
    assert rows == tuple(pairs for pairs, _ in expected)
    assert tuple((pairs, _lattice_point(cone, pairs)) for pairs in rows) == expected


@settings(deadline=None)
@given(small_cones(), st.data())
def test_divisor_period_matches_the_lcm(cone, draw):
    """One solve matrix gives the period the lcm over the Smith factors gives."""
    for _ in range(5):
        b = draw.draw(st.tuples(*[st.integers(-20, 20)] * len(cone.rays)))
        assert _divisor_period(cone, b) == lcm_divisor_period(cone, b)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_minimal_generators_match_closure(data, draw):
    """Bounds on any set of rays, up to every ray, each from 0 to three times
    the pairing c_i of its ray with its dual ray, exact multiples of c_i
    among them, so candidates are raised by up to three periods; the kept
    keys come in key order."""
    rays = data.rays
    chosen = draw.draw(
        st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=len(rays), unique=True)
    )
    periods = [max(dot(w, ray) for w in data.dual_rays) for ray in rays]
    bounds = {
        ray: draw.draw(st.one_of(st.integers(0, 3 * periods[ray]),
                                 st.sampled_from([k * periods[ray] for k in range(4)])))
        for ray in chosen
    }
    width, keys = _valuation_keys(data, [bounds.get(ray, 0) for ray in range(len(rays))])
    assert list(keys) == sorted(keys)
    rows = unpack_keys(width, keys, len(rays))
    expected = closure_minimal_generators(data, bounds)
    assert sorted(rows) == sorted(_pairings(g, data) for g in expected)
    assert tuple(sorted(_lattice_point(data, row) for row in rows)) == expected


def test_lattice_point_rejects_a_vector_outside_the_pairing_image():
    """(1, 0) on the A_1 cone would be the point (1, -1/2)."""
    cone = make_cone([(1, 0), (1, 2)], 2)
    assert _lattice_point(cone, (1, 1)) == (1, 0)
    with pytest.raises(RuntimeError):
        _lattice_point(cone, (1, 0))


def check_symbolic_powers_match_closure(q):
    """q^(E) against the closure search for E = 1..2m+1, m the class order:
    two whole periods and the first level of the third."""
    m = order_of_class(divisor_class(q), class_group_of(q.context))
    for power in range(1, 2 * m + 2):
        bounds = {ray: power * mult for ray, mult in q.components}
        sym = symbolic_power(q, power)
        assert sym.generators == closure_minimal_generators(q.context, bounds), power


@settings(deadline=None)
@given(small_cones(), st.data())
def test_symbolic_power_matches_closure(data, draw):
    nrays = len(data.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    check_symbolic_powers_match_closure(
        PureHeightOneIdeal(data, tuple((ray, draw.draw(st.integers(1, 3))) for ray in rays))
    )


def scaled_divisor(q, power):
    """The divisor E b of q = b: q^(E) is its first symbolic power."""
    return PureHeightOneIdeal(q.context, tuple((ray, power * mult) for ray, mult in q.components))


@st.composite
def divisor_pairs(draw):
    """A small cone and the components of two divisors on it."""
    data = draw(small_cones())
    nrays = len(data.rays)
    rays = st.lists(st.integers(0, nrays - 1), min_size=1, max_size=nrays, unique=True)
    return data, *(tuple((ray, draw(st.integers(1, 4))) for ray in draw(rays)) for _ in range(2))


@settings(deadline=None)
@given(divisor_pairs())
# on the A_1 cone neither ray prime is principal, but their sum is
@example((make_cone([(1, 0), (1, 2)], 2), ((0, 1),), ((1, 1),)))
def test_intersection_is_the_first_power_of_the_largest_divisor(drawn):
    """The intersection of two divisors' first symbolic powers has the closure
    search's generators for their componentwise maximum, and each of its
    generators lies in each factor's first symbolic power."""
    data, *components = drawn
    divisors = [PureHeightOneIdeal(data, comps) for comps in components]
    largest = {}
    for q in divisors:
        for ray, mult in q.components:
            largest[ray] = max(mult, largest.get(ray, 0))
    meet = intersect_valuation_ideals(divisors)
    assert meet.generators == closure_minimal_generators(data, largest)
    for g in meet.generators:
        for q in divisors:
            assert ideal_member(g, symbolic_power(q, 1)), (g, q)


DOUBLE_HALF = hilbert_basis(build_cone("klein4"))
DET11_4D = hilbert_basis(
    make_cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)], 4)
)
# basis (1, 0), (1, 1), ..., (1, 300): every element but the last is
# passed over by a point that only the last one fits
LONG_BASIS = hilbert_basis(make_cone([(0, 1), (300, -1)], 2))
# on the zoo cones a pass in reverse basis order takes the same counts;
# on the det-11 cone it does not, at (2, 2, 3, -1) for one
DECOMPOSED = {**dict(all_semigroups()), "det11": DET11_4D}


@st.composite
def zoo_points(draw):
    """A zoo cone or the det-11 cone, a point of the box around twice
    its dual parallelotope, widened by one below to reach non-members, and
    the index of one of its basis elements."""
    cone = DECOMPOSED[draw(st.sampled_from(sorted(DECOMPOSED)))]
    corners = [
        [sum(k * w[i] for k, w in zip(ks, cone.dual_rays)) for i in range(cone.ambient_dim)]
        for ks in itertools.product((0, 2), repeat=len(cone.dual_rays))
    ]
    box = [st.integers(min(c) - 1, max(c)) for c in zip(*corners)]
    return cone, draw(st.tuples(*box)), draw(st.integers(0, len(cone.hilbert_basis) - 1))


@settings(deadline=None, max_examples=300)
@given(zoo_points())
@example((LONG_BASIS, (2, 600), 150))
@example((DET11_4D, (2, 2, 3, -1), 9))
def test_one_pass_decomposition_matches_depth_first_search(drawn):
    """The library's one pass takes the counts of the depth-first search's
    first branch, on which the search meets no dead end.  Basis element k
    is irreducible, so a pass over a table without it leaves the element
    itself as a remainder, which raises."""
    cone, point, k = drawn
    counts, dead_ends = depth_first_member(point, cone)
    assert semigroup_member(point, cone) == counts
    assert dead_ends == 0
    fresh = make_cone(cone.rays, cone.ambient_dim)
    vars(fresh)["pairing_table"] = cone.pairing_table[:k] + cone.pairing_table[k + 1 :]
    with pytest.raises(RuntimeError, match="^point passed the facet test but no decomposition was found$"):
        semigroup_member(cone.hilbert_basis[k], fresh)


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
        nrays = len(data.rays)
        for components in [((i, 1),) for i in range(nrays)] + [((0, 1), (nrays - 1, 2))]:
            yield pytest.param(data, components, id=f"{name}-{components}")


@pytest.mark.parametrize("data, components", zoo_ideals())
def test_period_pairs_to_class_order(data, components):
    q = PureHeightOneIdeal(data, components)
    m, u = q._period
    b = divisor_class(q)
    assert m == search_order_of_class(b, class_group_of(data))
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
    minimal = unpack_keys(*_minimal_sums(rows, power), len(data.rays))
    solved = sorted((_lattice_point(data, row), row) for row in minimal)
    assert tuple(g for g, _ in solved) == quadratic_minimalize(sums, data)
    assert [row for _, row in solved] == [_pairings(g, data) for g, _ in solved]


@st.composite
def pairing_rows(draw):
    """Pairing rows of 1-60 candidates on one to five rays.  Rows are drawn
    from a smaller pool, so keys repeat, and entries are 0, small, or up
    to 10^3."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(0, 4), st.integers(0, 10**3))
    pool = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=60))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(deadline=None, max_examples=500)
@given(pairing_rows(), st.integers(1, 3))
# on one, two and three rays: a repeated key, and a key above a kept one
# with the same pairing 0; on one, a repeated least key
@example([(3,), (3,), (1,)], 1)
@example([(0,), (2,), (0,)], 1)
@example([(1, 0), (1, 1), (1, 0)], 1)
@example([(1, 0, 0), (1, 1, 0), (1, 0, 0)], 1)
# on two rays: a key below every kept pairing 0 is kept, and a later key
# dominates both kept ones; on three, a key covers a kept step, and a
# later key lies above the covering step alone; a key above a kept one in
# the last pairing alone
@example([(3, 2), (1, 2), (2, 1)], 1)
@example([(5, 5, 0), (1, 1, 1), (6, 3, 2)], 1)
@example([(1, 0, 0), (1, 0, 1)], 1)
# on four and five rays: a repeated key; fields at 2^(w-1) - 1 = 7
# beside 0; keys incomparable but for the last one, which dominates only
# the last kept key
@example([(2, 0, 1, 3), (2, 0, 1, 3)], 1)
@example([(7, 0, 0, 0, 7), (0, 7, 7, 0, 7), (7, 7, 7, 7, 7), (7, 0, 7, 0, 7)], 1)
@example([(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 5, 1)], 1)
@example([(5, 0, 0, 0, 0), (0, 5, 0, 0, 0), (0, 0, 5, 0, 0), (0, 0, 0, 5, 0), (1, 0, 0, 5, 0)], 1)
def test_minimal_sums_sweep_matches_guard_bit_loop(rows, power):
    """Three rules, the running minimum on one and two rays, the bisected
    staircase on three and the block test of a key against all the kept
    keys on four or more, keep the vectors the guard-bit loop keeps, in
    the same key order."""
    assert _minimal_sums(rows, power) == guard_bit_minimal_sums(list(zip(*rows)), power)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_stored_pairings_match_generators(data, draw):
    """Every ideal's stored pairing vectors are its generators' own, and
    membership read from them agrees with the difference-vector test."""
    nrays = len(data.rays)
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
    ideals.append(intersect_valuation_ideals([PureHeightOneIdeal(data, ((rays[0], 1),)),
                                              scaled_divisor(q, 2)]))
    primes = [PureHeightOneIdeal(data, ((ray, 1),)) for ray in range(nrays)]
    ideals.append(intersect_valuation_ideals(primes))
    for ideal in ideals:
        assert sorted(ideal._vectors) == sorted(_pairings(g, data) for g in ideal.generators)
    # each generator, and its steps up and down along every dual ray
    zero = (0,) * data.ambient_dim
    offsets = [zero, *data.dual_rays, *(tuple(-c for c in w) for w in data.dual_rays)]
    points = {
        tuple(a + b for a, b in zip(g, w))
        for ideal in ideals
        for g in ideal.generators
        for w in offsets
    }
    for ideal in ideals:
        for point in points:
            assert ideal_member(point, ideal) == difference_member(point, data, ideal.generators)


@settings(deadline=None)
@given(small_cones(), st.data())
def test_ordinary_power_matches_combinations(data, draw):
    nrays = len(data.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    q = PureHeightOneIdeal(data, tuple((ray, draw.draw(st.integers(1, 3))) for ray in rays))
    ideal = symbolic_power(q, draw.draw(st.integers(1, 2)))
    power = draw.draw(st.integers(1, 4))
    assume(comb(len(ideal.generators) + power - 1, power) <= 5000)
    expected = combination_ordinary_power(data, ideal.generators, power)
    assert ordinary_power(ideal, power).generators == expected


@settings(deadline=None)
@given(small_cones(), st.data())
def test_sweep_matches_reference(data, draw):
    """verify_containment and find_sharpness_witness against the
    brute-force sweep, at every multiplier from 1 to |det|, so that
    levels fail and witnesses are compared."""
    nrays = len(data.rays)
    rays = draw.draw(st.lists(st.integers(0, nrays - 1), min_size=1, max_size=2, unique=True))
    components = tuple((ray, draw.draw(st.integers(1, 2))) for ray in rays)
    q = PureHeightOneIdeal(data, components)
    max_level = draw.draw(st.integers(1, 3))
    base = len(symbolic_power(q, 1).generators)
    assume(comb(base + max_level - 1, max_level) <= 2000)
    for multiplier in range(1, abs(determinant(data.ray_matrix())) + 1):
        expected = reference_sweep(data, q.components, multiplier, max_level)
        report = verify_containment(q, multiplier, max_level)
        assert [(c.level, c.passed, c.witness) for c in report.levels] == expected
        failed = [(level, witness) for level, passed, witness in expected if not passed]
        assert find_sharpness_witness(q, multiplier, max_level) == (failed[0] if failed else None)


@pytest.mark.parametrize("value, power", [(1, 1), (7, 1), (5, 3), (21, 3)])
def test_ordinary_power_guard_bits(value, power):
    """Sum fields of 0 and of 2^(w-1) - 1, the largest value the field
    holds below its guard bit, in the same ray field of different sums,
    many of them dominated and rejected by the reduction."""
    top = power * value
    assert top == 2 ** top.bit_length() - 1
    # on the positive orthant the ray pairings are the coordinates
    data = hilbert_basis(make_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    gens = tuple(p for p in itertools.product((0, value), repeat=3) if any(p))
    expected = tuple(
        tuple(value * c for c in exps)
        for exps in itertools.product(range(power + 1), repeat=3)
        if sum(exps) == power
    )
    assert combination_ordinary_power(data, gens, power) == expected
    # all seven points, not only the three minimal ones a built ideal keeps;
    # the rays are lex sorted, so pairings list the coordinates last first
    width, keys = _minimal_sums([_pairings(g, data) for g in gens], power)
    assert width == top.bit_length() + 1
    assert unpack_keys(width, keys, 3) == tuple(g[::-1] for g in expected)
    assert ordinary_power(MonomialIdeal(data, gens), power).generators == expected


# the dual rays pair with the rays of this cone of determinant -3 to c_i = 3
GUARD_4D = [(-2, -2, -1, 2), (-1, -1, -1, -1), (0, 1, 0, 0), (1, 0, 0, 0)]


@pytest.mark.parametrize(
    "rays, bounds, pairings",
    [
        ([(1, 0), (1, 2)], {0: 6, 1: 1}, ((6, 2), (7, 1))),
        ([(1, 0), (1, 3)], {0: 13}, ((13, 1), (15, 0))),
        (GUARD_4D, {1: 2, 3: 1}, ((0, 2, 0, 2), (0, 2, 1, 1), (0, 4, 0, 1), (1, 2, 0, 1))),
        (GUARD_4D, {0: 2, 3: 2}, ((2, 0, 0, 4), (2, 0, 1, 3), (2, 0, 2, 2), (2, 1, 0, 2),
                                  (3, 0, 0, 3), (3, 0, 1, 2), (4, 0, 0, 2))),
    ],
)
def test_valuation_ideal_guard_bits(rays, bounds, pairings):
    """A kept generator raised along a dual ray to a pairing of 2^(w-1) - 1,
    the largest value the ideal's field holds below the guard bit, as no
    candidate pairs higher: the parallelotope points pairing to (0, 0) and
    (1, 1) are raised to (6, 2) and (7, 1); on the second cone those and
    (2, 2) are raised to (15, 0), (13, 1) and (14, 2).  On the 4D cone the
    cone's keys are packed at the width of 2 c_i = 6 and a guard bit, 4
    bits, and a bound of 2 = c_i - 1 raises a kept field to 2 c_i - 2 = 4,
    the most a raise gives, which the reduction's guard-bit test reads: at
    the width of c_i and a guard bit it would set the guard bit, and
    dominated keys would be kept."""
    data = make_cone(rays, len(rays))
    if len(rays) == 4:
        assert {c for _, c in data._own_duals} == {3} and data._packed[0] == 4
        assert max(map(max, pairings)) == 4
    expected = closure_minimal_generators(data, bounds)
    divisor = [bounds.get(ray, 0) for ray in range(len(rays))]
    assert sorted(unpack_keys(*_valuation_keys(data, divisor), len(rays))) == sorted(pairings)
    assert sorted(_pairings(g, data) for g in expected) == sorted(pairings)


@pytest.mark.parametrize("rays", [[(1, 0), (1, 3)], [(1, 0, 0), (0, 1, 0), (3, 5, 13)], GUARD_4D])
def test_one_residue_valuation_keys_match_closure(rays):
    """A bound of c_i - 1 on one ray i, the residue that keeps the fewest
    keys unraised, alone and with a multiple of c_j on a second ray j: the
    keys with field i at least c_i - 1 and the raised zero point reduce to
    the closure's generators, in key order."""
    data = make_cone(rays, len(rays))
    periods = [c for _, c in data._own_duals]
    cases = [{i: periods[i] - 1} for i in range(len(rays))]
    cases += [{i: periods[i] - 1, j: k * periods[j]}
              for i, j in itertools.permutations(range(len(rays)), 2) for k in (1, 2)]
    for bounds in cases:
        divisor = [bounds.get(ray, 0) for ray in range(len(rays))]
        width, keys = _valuation_keys(data, divisor)
        assert list(keys) == sorted(keys), bounds
        expected = closure_minimal_generators(data, bounds)
        rows = sorted(unpack_keys(width, keys, len(rays)))
        assert rows == sorted(_pairings(g, data) for g in expected), bounds


@st.composite
def simplicial_cones(draw, min_dim, max_dim, span):
    n = draw(st.integers(min_dim, max_dim))
    entries = st.integers(-span, span)
    rays = draw(st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n))
    assume(determinant(IntegerMatrix.from_rows(rays)) != 0)
    return make_cone(rays, n)


@st.composite
def smith_inputs(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = draw(st.sampled_from([1, 9, 10**6]))
    entries = draw(st.lists(st.integers(-size, size), min_size=rows * cols, max_size=rows * cols))
    return IntegerMatrix(rows, cols, tuple(entries))


@settings(deadline=None)
@given(smith_inputs())
# a negative pivot, and a row pulled up because 2 does not divide 3
@example(IntegerMatrix.from_rows([[0, -1, 0, 0]]))
@example(IntegerMatrix.from_rows([[2, 0], [0, 3]]))
def test_smith_form_matches_mirrored(m):
    """The same U, S, V and invariant factors as the three-list elimination."""
    assert smith_normal_form(m) == mirrored_smith_normal_form(m)


@st.composite
def matrix_products(draw):
    """Factors r x k and k x c with r, k, c in [0, 5]: 0 x k and k x 0 shapes are
    drawn, and entries of either sign, some near 10^40."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    size = draw(st.sampled_from([1, 9, 10**40]))

    def matrix(rows, cols):
        entries = st.lists(st.integers(-size, size), min_size=rows * cols, max_size=rows * cols)
        return IntegerMatrix(rows, cols, tuple(draw(entries)))

    return matrix(r, k), matrix(k, c)


@settings(deadline=None, max_examples=300)
@given(matrix_products())
@example((IntegerMatrix(0, 3, ()), IntegerMatrix(3, 2, (1, -2, 3, -4, 5, -6))))
@example((IntegerMatrix(2, 3, (1, -2, 3, -4, 5, -6)), IntegerMatrix(3, 0, ())))
# an empty inner dimension: every entry of the 3 x 2 product is the empty sum 0
@example((IntegerMatrix(3, 0, ()), IntegerMatrix(0, 2, ())))
@example((IntegerMatrix(0, 0, ()), IntegerMatrix(0, 0, ())))
@example((IntegerMatrix(1, 2, (10**40, -(10**40) + 1)), IntegerMatrix(2, 1, (10**40 - 1, 10**40))))
def test_inner_products_match_per_term_sums(factors):
    """``dot``, ``@`` and ``transpose`` as the per-term generators and ``at`` reads."""
    left, right = factors
    assert left @ right == per_term_matmul(left, right)
    assert left.transpose() == per_term_transpose(left)
    assert right.transpose() == per_term_transpose(right)
    for i in range(left.rows):
        for j in range(right.cols):
            row, column = left.row(i), right.column(j)
            assert dot(row, column) == generator_dot(row, column)


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


@st.composite
def packed_library_ideals(draw):
    """A library ideal on a simplicial full cone of 2-5 rays whose ray and
    dual-ray matrices have |det| <= 12: a symbolic power of one or two ray
    primes below, at or past its period, an intersection, or an ordinary
    power of a ray prime."""
    n = draw(st.integers(2, 5))
    entries = st.integers(*{2: (-4, 4), 3: (-2, 2)}.get(n, (-1, 1)))
    rays = draw(st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n))
    assume(0 < abs(determinant(IntegerMatrix.from_rows(rays))) <= 12)
    cone = make_cone(rays, n)
    assume(abs(determinant(IntegerMatrix.from_rows(dual_cone(cone).rays))) <= 12)
    chosen = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    q = PureHeightOneIdeal(cone, tuple((ray, draw(st.integers(1, 2))) for ray in chosen))
    kind = draw(st.sampled_from(["symbolic", "meet", "ordinary"]))
    if kind == "symbolic":
        return symbolic_power(q, draw(st.integers(1, q._period[0] + 1)))
    if kind == "meet":
        prime = PureHeightOneIdeal(cone, ((chosen[0], 1),))
        return intersect_valuation_ideals([scaled_divisor(q, 2), prime])
    prime = ray_prime(cone, chosen[0])
    power = draw(st.integers(1, 3))
    assume(comb(len(prime._vectors) + power - 1, power) <= 500)
    return ordinary_power(prime, power)


# a field of a tested row, (a, b, c) -> a p + b 2^(w-1) + c: p is the field of a
# stored vector, and 2^(w-1) the guard bit above the clamp 2^(w-1) - 1
ROW_FIELDS = st.tuples(st.integers(0, 1), st.sampled_from([-1, 0, 1, 2]),
                       st.sampled_from([-2, -1, 0, 1, 2, 10**12]))
# a negative field, fields at the clamp, at the guard bit and at 10^12, a stored vector
EDGE_ROWS = [[(0, 0, -1)], [(1, 0, 0), (0, 0, -1)], [(0, 1, -1)], [(1, 0, 0), (0, 1, -1)],
             [(0, 1, 0)], [(1, 0, 0), (0, 1, 0)], [(0, 0, 10**12)], [(1, 0, 1), (0, 0, 10**12)],
             [(1, 0, 0)]]


@settings(deadline=None, max_examples=200)
@given(packed_library_ideals(), st.integers(min_value=0),
       st.lists(st.lists(ROW_FIELDS, min_size=1, max_size=5), max_size=8))
@example(ray_prime(make_cone([(0, 1), (5, -2)], 2), 0), 1, EDGE_ROWS)
@example(ordinary_power(ray_prime(make_cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3), 2), 2), 0, EDGE_ROWS)
@example(ray_prime(make_cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)], 4), 3), 5,
         EDGE_ROWS)
def test_packed_membership_matches_tuple_domination(ideal, pick, specs):
    """One filter over all the rows keeps, in order, those that dominate no
    stored vector, as the tuple test and the filter on each row alone say:
    rows near a stored vector, at and past the clamp 2^(w-1) - 1 of a field
    at width w, all zero, and with a negative field.  A row's field specs
    repeat across its fields."""
    # an explicit example's printed form has read its generators already
    assert vars(ideal).keys() - {"_vectors", "generators"} == {"context", "_width", "_keys"}
    n, cap = len(ideal.context.rays), 1 << (ideal._width - 1)
    near = ideal._vectors[pick % len(ideal._vectors)]
    rows = [(0,) * n, (cap - 1,) * n, (cap,) * n]
    for spec in specs:
        fields = itertools.islice(itertools.cycle(spec), n)
        rows.append(tuple(a * p + b * cap + c for p, (a, b, c) in zip(near, fields)))
    outside = list(_outside(rows, ideal._width, ideal._keys))
    assert outside == [row for row in rows if not tuple_in_ideal(row, ideal)]
    assert outside == [row for row in rows if list(_outside([row], ideal._width, ideal._keys))]
    # a lattice point's membership reads the same packed test
    point = _lattice_point(ideal.context, near)
    for w in (0,) * n, *ideal.context.dual_rays:
        for sign in (1, -1):
            shifted = tuple(a + sign * b for a, b in zip(point, w))
            row = _pairings(shifted, ideal.context)
            assert ideal_member(shifted, ideal) == tuple_in_ideal(row, ideal), shifted


@settings(deadline=None, max_examples=100)
@given(simplicial_cones(2, 5, 2), st.data())
def test_caller_ideal_membership_matches_tuple_domination(cone, draw):
    """An ideal built from semigroup elements, small points that pair
    nonnegatively and sums of dual rays, answers membership, also of points
    outside the semigroup, as tuple domination of its generators' own
    pairings does."""
    assume(abs(determinant(cone.ray_matrix())) <= 40)
    n = cone.ambient_dim
    coords = st.tuples(*[st.integers(-3, 3)] * n)
    rays = st.lists(st.sampled_from(cone.dual_rays), min_size=1, max_size=2)
    gens = [p for p in draw.draw(st.lists(coords, max_size=6)) if in_semigroup(p, cone)]
    gens += [tuple(map(sum, zip(*ws))) for ws in draw.draw(st.lists(rays, max_size=2))]
    ideal = MonomialIdeal(cone, tuple(gens))
    listed = [_pairings(g, cone) for g in gens]
    for point in draw.draw(st.lists(coords, min_size=1, max_size=8)) + gens:
        row = _pairings(point, cone)
        member = ideal_member(point, ideal)
        assert member == any(all(map(ge, row, low)) for low in listed), point
        assert member == tuple_in_ideal(row, ideal) == difference_member(point, cone, gens), point
    big = tuple(10**9 for _ in range(n))
    assert list(_outside([big], ideal._width, ideal._keys)) == ([] if gens else [big])


@settings(deadline=None)
@given(small_cones(), st.data())
def test_caller_ideal_reduces_to_the_library_ideal(data, draw):
    """A library ideal's generators, shuffled, repeated and joined by
    semigroup translates of them, build that ideal: equal, equally hashed
    and printed, and stored as its width and kept keys alone."""
    nrays = len(data.rays)
    ray = draw.draw(st.integers(0, nrays - 1))
    q = PureHeightOneIdeal(data, ((ray, draw.draw(st.integers(1, 2))),))
    if draw.draw(st.booleans()):
        library = symbolic_power(q, draw.draw(st.integers(1, q._period[0] + 1)))
    else:
        library = ordinary_power(ray_prime(data, ray), 2)
    gens = list(library.generators)
    shifts = st.lists(st.sampled_from(data.hilbert_basis), min_size=1, max_size=2)
    translate = st.tuples(st.sampled_from(gens), shifts).map(
        lambda gs: tuple(map(sum, zip(gs[0], *gs[1]))))
    extra = draw.draw(st.lists(st.one_of(st.sampled_from(gens), translate), max_size=6))
    listed = tuple(draw.draw(st.permutations(gens + extra)))
    ideal = MonomialIdeal(data, listed)
    assert vars(ideal).keys() == {"context", "_width", "_keys"}
    assert ideal == library and hash(ideal) == hash(library) and repr(ideal) == repr(library)
    assert ideal._vectors == library._vectors
    zero = (0,) * data.ambient_dim
    offsets = [zero, *data.dual_rays, *(tuple(-c for c in w) for w in data.dual_rays)]
    points = {tuple(map(add, g, w)) for g in listed for w in offsets}
    coords = st.tuples(*[st.integers(-4, 4)] * data.ambient_dim)
    points |= set(draw.draw(st.lists(coords, max_size=6)))
    for point in sorted(points):
        assert ideal_member(point, ideal) == difference_member(point, data, listed), point


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: a product of up to six
    elementary row operations on the identity, then a row swap."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.integers(-3, 3))
        if i != j:
            g[i] = [a + k * b for a, b in zip(g[i], g[j])]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    g[i], g[j] = g[j], g[i]
    return g


def _hilbert_or_limit(cone):
    try:
        return cone.hilbert_basis
    except WorkLimitExceeded:
        return None


@st.composite
def automorphism_cases(draw):
    """A small cone, a unimodular g, an ideal of one or two ray primes, a
    multiplier and a level count."""
    cone = draw(small_cones())
    n = cone.ambient_dim
    chosen = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    components = tuple((ray, draw(st.integers(1, 2))) for ray in chosen)
    return cone, draw(unimodular(n)), components, draw(st.integers(1, 3)), 3


@settings(deadline=None, max_examples=60)
@given(automorphism_cases())
@example((make_cone([(0, 1), (6007, -7)], 2), [[1, 3], [0, 1]], ((0, 1),), 2, 2))
@example((make_cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)], 4),
          [[0, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 3, -1, 1]], ((0, 1), (3, 2)), 1, 3))
def test_answers_are_invariant_under_lattice_automorphisms(case):
    """On g.sigma, g in GL_n(Z), the class group, the Hilbert basis mapped by
    g^(-T), the pairing vectors of symbolic and ordinary powers up to
    ``make_cone``'s ray permutation and a short sweep's verdicts are those of
    sigma, and each witness of sigma, mapped by g^(-T), fails in g.sigma."""
    cone, g, components, multiplier, levels = case
    n = cone.ambient_dim
    inverse_t = adjugate(IntegerMatrix.from_rows(g)).transpose().to_rows()
    sign = determinant(IntegerMatrix.from_rows(g))
    assert sign in (1, -1)
    moved = [tuple(dot(row, ray) for row in g) for ray in cone.rays]
    image = make_cone(moved, n)
    perm = [image.rays.index(ray) for ray in moved]

    def dual_map(u):
        return tuple(sign * dot(row, u) for row in inverse_t)

    def permuted(vectors):
        # field j of the image's vector is field i of sigma's, where perm[i] = j
        order = sorted(range(len(perm)), key=perm.__getitem__)
        return sorted(tuple(v[i] for i in order) for v in vectors)

    assert class_group_of(image).invariant_factors == class_group_of(cone).invariant_factors
    basis = _hilbert_or_limit(cone)
    assert (basis is None) == (_hilbert_or_limit(image) is None)
    if basis is not None:
        assert sorted(map(dual_map, basis)) == list(image.hilbert_basis)
    q = PureHeightOneIdeal(cone, components)
    q_image = PureHeightOneIdeal(image, tuple((perm[ray], b) for ray, b in components))
    for power in (1, 2, multiplier * levels):
        assert permuted(symbolic_power(q, power)._vectors) == sorted(symbolic_power(q_image, power)._vectors)
    base, base_image = symbolic_power(q, 1), symbolic_power(q_image, 1)
    assert permuted(ordinary_power(base, 2)._vectors) == sorted(ordinary_power(base_image, 2)._vectors)
    report = verify_containment(q, multiplier, levels)
    report_image = verify_containment(q_image, multiplier, levels)
    assert [c.passed for c in report.levels] == [c.passed for c in report_image.levels]
    for check in report.levels:
        if not check.passed:
            witness = dual_map(check.witness)
            assert ideal_member(witness, symbolic_power(q_image, multiplier * check.level))
            assert not ideal_member(witness, ordinary_power(base_image, check.level))
