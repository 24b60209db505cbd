"""Earlier lattice searches of the library, kept as independent oracles.

The library now builds Hilbert basis candidates and valuation-ideal
generators from one enumeration of the dual parallelotope and minimalizes
in order of pairing sum.  The algorithms it replaced search differently,
so agreeing with them is evidence rather than a restatement:

* ``box_scan_hilbert_basis`` scans the integer bounding box of the dual
  parallelotope and keeps the points whose parallelotope coordinates lie
  in [0, 1);
* ``closure_minimal_generators`` closes over sums of Hilbert basis
  elements inside a capped box of pairings;
* ``quadratic_minimalize`` tests every candidate against every other;
* ``difference_member`` asks whether the point minus some generator lies
  in the dual semigroup, recomputing every pairing, where the library
  compares the point's pairings with the ones the ideal stores;
* ``combination_ordinary_power`` sums every combination of generators as
  points and minimalizes those with ``quadratic_minimalize``, where the
  library sums packed pairing keys and forms points only for the minimal
  sums;
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
  the one-signed dependencies of its (rank + 1)-ray subsets.

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
from math import gcd
from typing import Sequence

from symtoric.class_group import AbelianGroupPresentation, _canonical_parts
from symtoric.cones import Cone, HilbertBasis, SemigroupData, Vector, dot, primitive
from symtoric.exact_linalg import IntegerMatrix, adjugate, determinant
from symtoric.ideals import MonomialIdeal


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
            if all(dot(diff, ray) >= 0 for ray in rays):
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


def quadratic_minimalize(points: Sequence[Vector], data: SemigroupData) -> tuple[Vector, ...]:
    """Drop every point that is a semigroup translate of another one.

    Translation by a semigroup element only raises ray pairings, so p is
    redundant exactly when some other candidate q has pairings dominated
    by p's componentwise.
    """
    unique = sorted(set(points))
    pairs = {p: tuple(dot(p, ray) for ray in data.cone.rays) for p in unique}
    kept = []
    for p in unique:
        pp = pairs[p]
        if not any(
            q != p and all(a >= b for a, b in zip(pp, pairs[q])) for q in unique
        ):
            kept.append(p)
    return tuple(kept)


def difference_member(point: Sequence[int], ideal: MonomialIdeal) -> bool:
    """Membership in a monomial ideal: the point is a semigroup translate
    of a generator, so its difference with that generator pairs
    nonnegatively with every ray."""
    rays = ideal.context.cone.rays
    return any(
        all(dot([a - b for a, b in zip(point, g)], ray) >= 0 for ray in rays)
        for g in ideal.generators
    )


def basis_ray_prime(data: HilbertBasis, ray_index: int) -> tuple[Vector, ...]:
    """Minimal generators of the prime of the divisor on one ray.

    A monomial pairing positively with the ray is a sum of Hilbert basis
    elements, one of which pairs positively with it, so those elements
    generate the prime.
    """
    gens = [h for h, row in zip(data.hilbert_basis, data.pairing_table) if row[ray_index] >= 1]
    return quadratic_minimalize(gens, data)


def combination_ordinary_power(ideal: MonomialIdeal, power: int) -> MonomialIdeal:
    """a-th ordinary power: minimalized a-fold sums of the generators."""
    sums = {
        tuple(sum(coords) for coords in zip(*combo))
        for combo in itertools.combinations_with_replacement(ideal.generators, power)
    }
    return MonomialIdeal(ideal.context, quadratic_minimalize(sums, ideal.context))


def closure_minimal_generators(data: HilbertBasis, bounds: dict[int, int]) -> tuple[Vector, ...]:
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
    rays = data.cone.rays
    caps = tuple(
        bounds.get(i, 0) + max(row[i] for row in data.pairing_table)
        for i in range(len(rays))
    )
    active = [
        (h, row)
        for h, row in zip(data.hilbert_basis, data.pairing_table)
        if any(row[i] > 0 for i in bounds)
    ]
    zero = (0,) * data.cone.ambient_dim
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
        duals.append(normal if dot(normal, other) > 0 else (v[1], -v[0]))
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
            if turn > 0 or (turn == 0 and dot(step, step) > dot(edge, edge) and dot(step, edge) > 0):
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
