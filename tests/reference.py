"""Earlier lattice searches of the library, kept as independent oracles.

The library now builds Hilbert basis candidates and valuation-ideal
generators from one enumeration of the dual parallelotope, packed once
as pairing keys, minimalizes packed keys in increasing order, and solves
a valuation ideal's points, and an ordinary power's on first read, from
their pairing vectors.  The algorithms it replaced search
differently, so agreeing with them is evidence rather than a restatement:

* ``point_parallelotope`` forms every parallelotope point W t and pairs
  it with every ray, where the library writes each point's pairing with
  ray i as t_j c_i / s_n from the one dual ray w_j pairing with it, and
  forms no point;
* ``lcm_divisor_period`` solves a divisor's period through U and V of the
  stored Smith form and an lcm of per-factor orders, where the library
  applies one solve matrix s_n A^-1 and takes one gcd;
* ``box_scan_hilbert_basis`` scans the integer bounding box of the dual
  parallelotope and keeps the points whose parallelotope coordinates lie
  in [0, 1);
* ``closure_minimal_generators`` closes over sums of Hilbert basis
  elements inside a capped box of pairings;
* ``quadratic_minimalize`` tests every candidate against every other;
* ``guard_bit_minimal_sums`` tests each packed key, in key order, against
  every key already kept, with one guard-bit subtraction per pair, where
  the library sweeps the keys of one and two rays with a running
  minimum and of three with a bisected staircase, and tests a key of
  four or more rays against all kept keys at once, copied into one block; the
  library's guard-bit test now lives on only in ``_outside``, which sets
  up its clamp and guard once and tests every row of a level, or one
  point's, against an ideal's keys; ``unpack_keys`` reads the pairing
  vectors back out of its keys;
* ``depth_first_member`` decomposes a point over the Hilbert basis by a
  depth-first search that backtracks from dead ends, and counts them,
  where the library takes each basis element, in order, as often as it
  fits, in one pass that never dead-ends in a saturated semigroup;
* ``difference_member`` asks whether the point minus some generator lies
  in the dual semigroup, recomputing every pairing, and
  ``tuple_in_ideal`` whether a pairing vector dominates one of the
  ideal's tuple by tuple, where the library packs the vector and tests it
  against the ideal's stored keys with one guard-bit subtraction each;
* ``combination_ordinary_power`` sums every combination of generators as
  points and minimalizes those with ``quadratic_minimalize``, where the
  library sums packed pairing keys and solves points for the minimal sums
  only when the generators are read;
* ``reference_sweep`` decides each level of a containment sweep by
  ``difference_member`` against ``combination_ordinary_power``, on
  symbolic powers from ``closure_minimal_generators``, where the library
  compares the stored pairing vectors of both powers and never forms the
  ordinary power's points;
* ``adjugate_dual_rays`` takes the dual rays as the sign-fixed columns
  of the adjugate of the ray matrix, where the library solves for them
  with the Smith form the cone already stores;
* ``basis_ray_prime`` keeps the Hilbert basis elements that pair
  positively with one ray and minimalizes them with
  ``quadratic_minimalize``, where the library takes the ray prime as the
  first symbolic power of that ray's valuation ideal;
* ``search_order_of_class`` multiplies a divisor by k = 2, 3, ... up to
  the group exponent and projects each multiple, where the library reads
  the order off the residues as lcm(d_i / gcd(r_i, d_i));
* ``fourier_motzkin_contains`` decides whether a point is a nonnegative
  combination of rays by eliminating the coefficients one at a time,
  where the library finds the rays whose negation lies in the cone from
  the one-signed dependencies of its (rank + 1)-ray subsets;
* ``generator_dot``, ``per_term_matmul`` and ``per_term_transpose`` form
  each term of an inner product in a Python generator and read a matrix
  entry by entry through ``at``, where the library computes every inner
  product, a ray pairing or an entry of a matrix product, as one
  ``sum(map(mul, a, b))`` and transposes with ``zip``; the oracles here
  pair with ``generator_dot``, not with the library's ``dot``;
* ``mirrored_smith_normal_form`` keeps S, U and V as three lists of rows
  and repeats each row operation on U and each column operation on V,
  where the library eliminates once on the block matrix [[M, I], [I, 0]].
  It is the same elimination, kept because any valid U would not do: the
  residues of ``class_of`` and the column order of ``_parallelotope`` both
  read U, so the library's U, S and V must stay exactly these.

``hull_hilbert_basis`` and ``chain_hilbert_basis`` were never library
code.  The first is the 2D description of the Hilbert basis as the
lattice points on the bounded edges of the convex hull of the dual
cone's nonzero lattice points (Cox, Little and Schenck, *Toric
Varieties*, section 10.2); the second walks those points as the
Hirzebruch-Jung chain u_(i+1) = b_i u_i - u_(i-1) from one dual ray to
the other.  Both find their own dual rays.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import ge
from typing import Sequence

from symtoric.class_group import AbelianGroupPresentation, _canonical_parts
from symtoric.cones import Cone, Vector, in_semigroup, primitive
from symtoric.exact_linalg import IntegerMatrix, SmithDecomposition, adjugate, determinant
from symtoric.ideals import MonomialIdeal


def generator_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def per_term_matmul(left: IntegerMatrix, right: IntegerMatrix) -> IntegerMatrix:
    """The product of factors of matching shapes, each entry a generator over
    ``right.at(k, j)`` term by term."""
    out = []
    for i in range(left.rows):
        row = left.row(i)
        for j in range(right.cols):
            out.append(sum(row[k] * right.at(k, j) for k in range(left.cols)))
    return IntegerMatrix(left.rows, right.cols, tuple(out))


def per_term_transpose(m: IntegerMatrix) -> IntegerMatrix:
    entries = tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows))
    return IntegerMatrix(m.cols, m.rows, entries)


def adjugate_dual_rays(cone: Cone) -> tuple[Vector, ...]:
    """Lex-sorted dual rays of a simplicial full cone.

    With A the square ray matrix, the columns of its adjugate pair to
    det(A) with the matching ray and to zero with every other ray, so
    after fixing the overall sign they generate the dual cone.
    """
    mat = cone.ray_matrix()
    sign = 1 if determinant(mat) > 0 else -1
    adj = adjugate(mat)
    n = cone.ambient_dim
    return tuple(sorted(primitive([sign * x for x in adj.column(j)]) for j in range(n)))


def point_parallelotope(cone: Cone) -> tuple[tuple[tuple[int, ...], Vector], ...]:
    """(pairing vector, point) for each lattice point of the half-open
    parallelotope {W t : 0 <= t_j < 1} spanned by the cone's dual rays.

    The dual cone's Smith form U' W^T V' = S gives U W V = S with
    V = U'^T; k over prod [0, s_i) gives the W-coordinates
    t = frac(V S^-1 k), integers mod s_n once scaled by s_n, and W t is
    the point: |det W| of them, in the order of the library's columns.
    """
    dual = cone._dual
    duals = dual.rays
    n = len(duals)
    factors = dual.smith.invariant_factors
    top = factors[-1]
    v = dual.smith.U.transpose().to_rows()
    points = []
    for k in itertools.product(*(range(s) for s in factors)):
        scaled = [kj * (top // s) for kj, s in zip(k, factors)]
        t = [sum(a * b for a, b in zip(row, scaled)) % top for row in v]
        point = tuple(sum(w[i] * tj for w, tj in zip(duals, t)) // top for i in range(n))
        points.append((tuple(generator_dot(point, ray) for ray in cone.rays), point))
    return tuple(points)


def lcm_divisor_period(cone: Cone, divisor: Sequence[int]) -> tuple[int, Vector]:
    """Order m of the class of a divisor b on a simplicial full cone, and
    the character u with <u, ray_i> = m * b_i on each ray.

    The stored Smith form U A V = S turns A u = m b into S (V^-1 u) = m y,
    y = U b, integral exactly when each s_i divides m y_i: the least such m
    is lcm_i(s_i / gcd(y_i, s_i)), and u = V (m y_i / s_i)_i.
    """
    dec = cone.smith
    y = dec.U.apply(tuple(divisor))
    m = lcm(*(s // gcd(a, s) for a, s in zip(y, dec.invariant_factors)))
    return m, dec.V.apply(tuple(m * a // s for a, s in zip(y, dec.invariant_factors)))


def box_scan_hilbert_basis(cone: Cone) -> tuple[Vector, ...]:
    """Hilbert basis of the dual semigroup of a simplicial full cone.

    Every semigroup element is a dual-ray translate of a lattice point of
    the half-open fundamental parallelotope of the dual rays, so the
    irreducible elements all sit among those points and the dual rays
    themselves.  Candidates are enumerated over the integer bounding box
    of the parallelotope and filtered down to the irreducible ones.
    """
    n = cone.ambient_dim
    w = adjugate_dual_rays(cone)
    # columns of wmat are the dual rays
    wmat = IntegerMatrix.from_rows([[w[j][i] for j in range(n)] for i in range(n)])
    det = determinant(wmat)
    adj = adjugate(wmat)
    sign = 1 if det > 0 else -1
    absdet = abs(det)
    lo = [0] * n
    hi = [0] * n
    for subset in itertools.product((0, 1), repeat=n):
        vertex = [sum(subset[j] * w[j][i] for j in range(n)) for i in range(n)]
        lo = [min(a, b) for a, b in zip(lo, vertex)]
        hi = [max(a, b) for a, b in zip(hi, vertex)]
    candidates: set[Vector] = set(w)
    for point in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(n))):
        if not any(point):
            continue
        coords = [
            sign * sum(adj.at(i, k) * point[k] for k in range(n)) for i in range(n)
        ]
        # 0 <= t_i < 1 in the parallelotope coordinates, scaled by |det|
        if all(0 <= c < absdet for c in coords):
            candidates.add(point)
    rays = cone.rays

    def reducible(h: Vector) -> bool:
        for g in candidates:
            if g == h:
                continue
            diff = tuple(a - b for a, b in zip(h, g))
            if all(generator_dot(diff, ray) >= 0 for ray in rays):
                return True
        return False

    return tuple(h for h in sorted(candidates) if not reducible(h))


def box_scan_size(cone: Cone) -> int:
    """Integer points of the bounding box ``box_scan_hilbert_basis`` scans."""
    w = adjugate_dual_rays(cone)
    size = 1
    for i in range(cone.ambient_dim):
        coords = [
            sum(v[i] for v in subset)
            for r in range(len(w) + 1)
            for subset in itertools.combinations(w, r)
        ]
        size *= max(coords) - min(coords) + 1
    return size


def quadratic_minimalize(points: Sequence[Vector], data: Cone) -> tuple[Vector, ...]:
    """Drop every point that is a semigroup translate of another one.

    Translation by a semigroup element only raises ray pairings, so p is
    redundant exactly when some other candidate q has pairings dominated
    by p's componentwise.
    """
    unique = sorted(set(points))
    pairs = {p: tuple(generator_dot(p, ray) for ray in data.rays) for p in unique}
    kept = []
    for p in unique:
        pp = pairs[p]
        if not any(
            q != p and all(a >= b for a, b in zip(pp, pairs[q])) for q in unique
        ):
            kept.append(p)
    return tuple(kept)


def guard_bit_minimal_sums(
    columns: Sequence[Sequence[int]], power: int
) -> tuple[int, tuple[int, ...]]:
    """``cones._minimal_sums`` with one reduction for every number of rays:
    a key is kept when it dominates no key already kept, tested field by
    field at once as ``((key | guard) - low) & guard == guard``.  Returns
    the field width and the kept keys."""
    width = (power * max(map(max, columns), default=0)).bit_length() + 1
    keys = [0] * len(columns[0]) if columns else []
    for column in reversed(columns):
        keys = [key << width | p for key, p in zip(keys, column)]
    combinations = itertools.combinations_with_replacement(keys, power)
    sums = set(map(sum, combinations)) if power > 1 else keys
    fields = range(0, width * len(columns), width)
    guard = sum(1 << (shift + width - 1) for shift in fields)
    kept: list[int] = []
    for key in sorted(sums):
        high = key | guard
        if not any((high - low) & guard == guard for low in kept):
            kept.append(key)
    return width, tuple(kept)


def unpack_keys(width: int, keys: Sequence[int], nfields: int) -> tuple[tuple[int, ...], ...]:
    """The vectors whose field i is bits [i w, (i + 1) w) of each key."""
    mask = (1 << width) - 1
    return tuple(tuple(key >> (i * width) & mask for i in range(nfields)) for key in keys)


def tuple_in_ideal(row: Sequence[int], ideal: MonomialIdeal) -> bool:
    """Whether a pairing vector dominates one of the ideal's pairing
    vectors, compared tuple by tuple: the library's test before it packed."""
    return any(all(map(ge, row, low)) for low in ideal._vectors)


def difference_member(point: Sequence[int], data: Cone, generators: Sequence[Vector]) -> bool:
    """Membership in the monomial ideal with these generators: the point
    is a semigroup translate of a generator, so its difference with that
    generator pairs nonnegatively with every ray."""
    return any(
        all(generator_dot([a - b for a, b in zip(point, g)], ray) >= 0 for ray in data.rays)
        for g in generators
    )


def basis_ray_prime(data: Cone, ray_index: int) -> tuple[Vector, ...]:
    """Minimal generators of the prime of the divisor on one ray.

    A monomial pairing positively with the ray is a sum of Hilbert basis
    elements, one of which pairs positively with it, so those elements
    generate the prime.
    """
    gens = [h for h, row in zip(data.hilbert_basis, data.pairing_table) if row[ray_index] >= 1]
    return quadratic_minimalize(gens, data)


def combination_ordinary_power(
    data: Cone, generators: Sequence[Vector], power: int
) -> tuple[Vector, ...]:
    """Lex-sorted minimal generators of the a-th ordinary power: the
    minimalized a-fold sums of the generators."""
    sums = {
        tuple(sum(coords) for coords in zip(*combo))
        for combo in itertools.combinations_with_replacement(generators, power)
    }
    return quadratic_minimalize(sums, data)


def reference_sweep(
    data: Cone, components: Sequence[tuple[int, int]], multiplier: int, max_level: int
) -> list[tuple[int, bool, Vector | None]]:
    """(level, passed, witness) for the symbolic power D*a of the ideal with
    these (ray, multiplicity) components inside the a-th ordinary power of
    its first symbolic power, a = 1..max_level.  The witness is the
    lex-least symbolic generator outside the ordinary power."""
    base = closure_minimal_generators(data, dict(components))
    levels = []
    for a in range(1, max_level + 1):
        ordinary = combination_ordinary_power(data, base, a)
        bounds = {ray: multiplier * a * mult for ray, mult in components}
        symbolic = closure_minimal_generators(data, bounds)
        failing = [g for g in symbolic if not difference_member(g, data, ordinary)]
        levels.append((a, not failing, min(failing, default=None)))
    return levels


def closure_minimal_generators(data: Cone, bounds: dict[int, int]) -> tuple[Vector, ...]:
    """Minimal generators of {m in the semigroup : <m, ray_i> >= bounds[i]}.

    Search bound: a minimal generator stays strictly below bound + C on
    every ray, where C is the largest pairing of any Hilbert basis element
    with that ray (bound = 0 on unconstrained rays).  If a member met that
    cap on some ray, subtracting the dual ray generator supported on that
    ray alone would keep all other pairings, stay in the semigroup, and
    leave a smaller member, contradicting minimality.  Closure over sums
    of positively paired Hilbert basis elements inside the cap box
    therefore visits every minimal generator.
    """
    rays = data.rays
    caps = tuple(
        bounds.get(i, 0) + max(row[i] for row in data.pairing_table)
        for i in range(len(rays))
    )
    active = [
        (h, row)
        for h, row in zip(data.hilbert_basis, data.pairing_table)
        if any(row[i] > 0 for i in bounds)
    ]
    zero = (0,) * data.ambient_dim
    seen = {zero}
    frontier: list[tuple[Vector, tuple[int, ...]]] = [(zero, (0,) * len(rays))]
    members = []
    while frontier:
        point, pairs = frontier.pop()
        if all(pairs[i] >= b for i, b in bounds.items()):
            # in the ideal; any further sum is a translate of this member
            members.append(point)
            continue
        for h, row in active:
            extended = tuple(a + b for a, b in zip(point, h))
            if extended in seen:
                continue
            pairing = tuple(a + b for a, b in zip(pairs, row))
            if any(p >= cap for p, cap in zip(pairing, caps)):
                continue
            seen.add(extended)
            frontier.append((extended, pairing))
    return quadratic_minimalize(members, data)


def depth_first_member(point: Sequence[int], cone: Cone) -> tuple[tuple[int, ...] | None, int]:
    """``semigroup_member`` by its former search, and the dead ends it met.

    Depth-first search over basis elements in lexicographic order, each
    count tried from its largest value down; pairings against every ray
    stay nonnegative at each step, which bounds the search.  An explicit
    stack keeps deep bases off the call stack.
    """
    vec = tuple(point)
    if not in_semigroup(vec, cone):
        return None, 0
    table = cone.pairing_table
    counts = [0] * len(table)
    dead_ends = 0
    # rests[i]: what is left to cover before basis element i is counted
    rests = [tuple(generator_dot(vec, ray) for ray in cone.rays)]
    while any(rests[-1]):
        idx = len(rests) - 1
        if idx < len(table):
            counts[idx] = min(r // p for r, p in zip(rests[idx], table[idx]) if p > 0)
        else:
            # dead end: lower the deepest count that is still positive
            dead_ends += 1
            rests.pop()
            while rests and not counts[len(rests) - 1]:
                rests.pop()
            if not rests:
                raise RuntimeError("point passed the facet test but no decomposition was found")
            idx = len(rests) - 1
            counts[idx] -= 1
        rests.append(tuple(r - counts[idx] * p for r, p in zip(rests[idx], table[idx])))
    return tuple(counts), dead_ends


def search_order_of_class(divisor: Sequence[int], group: AbelianGroupPresentation) -> int | None:
    """Order of a class in the group; None means infinite.

    Found by iterating multiples up to the torsion exponent and checking
    each against the identity.
    """
    residues, frees = _canonical_parts(divisor, group)
    if any(frees):
        return None
    if not any(residues):
        return 1
    bound = group.invariant_factors[-1] if group.invariant_factors else 1
    for k in range(2, bound + 1):
        scaled = tuple(k * x for x in divisor)
        res, _ = _canonical_parts(scaled, group)
        if not any(res):
            return k
    raise RuntimeError("order search exceeded the group exponent")


def _normalize_inequality(coeffs: tuple[int, ...], rhs: int) -> tuple[tuple[int, ...], int]:
    g = gcd(*(abs(c) for c in coeffs), abs(rhs))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    return coeffs, rhs


def fourier_motzkin_contains(rays: Sequence[Vector], target: Vector) -> bool:
    """Exact test: is target a nonnegative rational combination of the rays?

    Encodes the defining equations as pairs of inequalities in the
    combination coefficients and eliminates the coefficients one at a time
    (Fourier-Motzkin over the integers, normalizing by gcd).
    """
    r = len(rays)
    if r == 0:
        return not any(target)
    system: set[tuple[tuple[int, ...], int]] = set()
    for j in range(len(target)):
        row = tuple(ray[j] for ray in rays)
        system.add(_normalize_inequality(row, target[j]))
        system.add(_normalize_inequality(tuple(-x for x in row), -target[j]))
    for i in range(r):
        unit = tuple(1 if k == i else 0 for k in range(r))
        system.add((unit, 0))
    for k in range(r):
        pos = [q for q in system if q[0][k] > 0]
        neg = [q for q in system if q[0][k] < 0]
        keep = {q for q in system if q[0][k] == 0}
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[k], -cn[k]
                coeffs = tuple(b * cp[idx] + a * cn[idx] for idx in range(r))
                keep.add(_normalize_inequality(coeffs, b * rp + a * rn))
        system = keep
    return all(rhs <= 0 for _, rhs in system)


def _cross(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dual_rays_2d(cone: Cone) -> tuple[Vector, Vector]:
    """The normals of a full 2D cone's two rays, each turned to pair
    positively with the other ray."""
    v1, v2 = cone.rays
    duals = []
    for v, other in ((v1, v2), (v2, v1)):
        normal = (-v[1], v[0])
        duals.append(normal if generator_dot(normal, other) > 0 else (v[1], -v[0]))
    return duals[0], duals[1]


def hull_hilbert_basis(cone: Cone) -> tuple[Vector, ...]:
    """Hilbert basis of the dual semigroup of a full 2D cone.

    The bounded edges of the hull run from one dual ray to the other
    inside the closed parallelogram they span, so gift wrapping over that
    parallelogram's nonzero lattice points, always turning as far towards
    the origin as the points allow, walks them vertex by vertex; every
    lattice point on an edge is kept.
    """
    w1, w2 = _dual_rays_2d(cone)
    det = _cross(w1, w2)
    sign = 1 if det > 0 else -1
    corners = (w1, w2, (w1[0] + w2[0], w1[1] + w2[1]))
    lo = [min(0, *(c[i] for c in corners)) for i in range(2)]
    hi = [max(0, *(c[i] for c in corners)) for i in range(2)]
    points = [
        p
        for p in itertools.product(range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1))
        if any(p)
        and 0 <= sign * _cross(p, w2) <= abs(det)
        and 0 <= sign * _cross(w1, p) <= abs(det)
    ]
    basis = [w1]
    vertex = w1
    while vertex != w2:
        nxt = w2
        for p in points:
            edge = (nxt[0] - vertex[0], nxt[1] - vertex[1])
            step = (p[0] - vertex[0], p[1] - vertex[1])
            turn = sign * _cross(edge, step)
            # the origin lies on the positive side of every bounded edge
            longer = generator_dot(step, step) > generator_dot(edge, edge)
            if turn > 0 or (turn == 0 and longer and generator_dot(step, edge) > 0):
                nxt = p
        dx, dy = nxt[0] - vertex[0], nxt[1] - vertex[1]
        g = gcd(dx, dy)
        basis += [(vertex[0] + k * dx // g, vertex[1] + k * dy // g) for k in range(1, g + 1)]
        vertex = nxt
    return tuple(sorted(basis))


def hirzebruch_jung(d: int, k: int) -> list[int]:
    """[b_1, ..., b_r] with d/k = b_1 - 1/(b_2 - 1/(... - 1/b_r)), all b_i >= 2."""
    fraction = []
    while k:
        b = -(-d // k)
        fraction.append(b)
        d, k = k, b * k - d
    return fraction


def _bezout(p: int, q: int) -> tuple[int, int]:
    """x, y with p x + q y = 1, for coprime p and q."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while q:
        t, r = divmod(p, q)
        p, q = q, r
        x0, y0, x1, y1 = x1, y1, x0 - t * x1, y0 - t * y1
    return (x0, y0) if p == 1 else (-x0, -y0)


def chain_hilbert_basis(cone: Cone) -> tuple[Vector, ...]:
    """Hilbert basis of the dual semigroup of a full 2D cone as the
    Hirzebruch-Jung chain of the dual cone (Cox, Little and Schenck,
    *Toric Varieties*, section 10.2).

    With dual rays a and b, d = |det(a, b)| and s its sign, take c with
    det(a, c) = s, shifted along a so that b = d c - k a with 0 <= k < d.
    Then u_0 = a, u_1 = c and u_(i+1) = b_i u_i - u_(i-1), where
    d/k = [[b_1, ..., b_r]], walks the lattice points on the bounded
    edges of the hull of the dual cone's nonzero lattice points and ends
    at b.
    """
    a, b = _dual_rays_2d(cone)
    det = _cross(a, b)
    d, s = abs(det), (1 if det > 0 else -1)
    x, y = _bezout(*a)
    c = (-s * y, s * x)
    alpha = s * _cross(b, c)  # b = alpha a + d c
    k = -alpha % d
    t = (alpha + k) // d
    chain = [a, (c[0] + t * a[0], c[1] + t * a[1])]
    for bi in hirzebruch_jung(d, k):
        chain.append(tuple(bi * p - q for p, q in zip(chain[-1], chain[-2])))
    if chain[-1] != b:
        raise RuntimeError(f"the chain ends at {chain[-1]}, not at the dual ray {b}")
    return tuple(sorted(chain))


def mirrored_smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, deterministically.

    Pivot rule: the entry of smallest nonzero absolute value in the
    remaining submatrix, ties broken by lowest (row, col) position.  Row
    and column operations are mirrored into U and V, so U @ M @ V == S
    holds exactly on return.
    """
    nrows, ncols = m.rows, m.cols
    s = m.to_rows()
    u = IntegerMatrix.identity(nrows).to_rows()
    v = IntegerMatrix.identity(ncols).to_rows()

    def swap_rows(a: int, b: int) -> None:
        s[a], s[b] = s[b], s[a]
        u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int) -> None:
        for row in s:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]

    def negate_row(a: int) -> None:
        s[a] = [-x for x in s[a]]
        u[a] = [-x for x in u[a]]

    def add_row(src: int, dst: int, k: int) -> None:
        s[dst] = [x + k * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, k: int) -> None:
        for row in s:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    limit = min(nrows, ncols)
    for t in range(limit):
        while True:
            pivot = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    val = abs(s[i][j])
                    if val and (best is None or val < best):
                        best, pivot = val, (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            if s[t][t] < 0:
                negate_row(t)
            p = s[t][t]
            clean = True
            for i in range(t + 1, nrows):
                if s[i][t]:
                    add_row(t, i, -(s[i][t] // p))
                    if s[i][t]:
                        clean = False
            for j in range(t + 1, ncols):
                if s[t][j]:
                    add_col(t, j, -(s[t][j] // p))
                    if s[t][j]:
                        clean = False
            if not clean:
                # a remainder smaller than the pivot appeared; re-pivot
                continue
            offender = None
            for i in range(t + 1, nrows):
                if any(s[i][j] % p for j in range(t + 1, ncols)):
                    offender = i
                    break
            if offender is None:
                break
            # pull the non-divisible row up so the next pivot shrinks
            add_row(offender, t, 1)
    diag = tuple(s[i][i] for i in range(limit))
    return SmithDecomposition(
        U=IntegerMatrix.from_rows(u),
        S=IntegerMatrix.from_rows(s),
        V=IntegerMatrix.from_rows(v),
        invariant_factors=diag,
    )
