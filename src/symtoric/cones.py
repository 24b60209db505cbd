"""Strongly convex rational cones and their dual lattice semigroups.

A cone is stored by its primitive ray generators, deduplicated and sorted,
so equal cones compare equal regardless of input order.  For a simplicial
full cone it computes a divisor's period (its class order m and the
character pairing to m times it), the dual rays as the ray divisors'
periods, and the dual semigroup's Hilbert basis with decompositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .exact_linalg import (
    DimensionError,
    IntegerMatrix,
    SmithDecomposition,
    smith_normal_form,
)

__all__ = [
    "Vector",
    "Cone",
    "SemigroupData",
    "NotStronglyConvexError",
    "UnsupportedConeError",
    "primitive",
    "make_cone",
    "dual_cone",
    "hilbert_basis",
    "in_semigroup",
    "semigroup_member",
]

Vector = tuple[int, ...]


class NotStronglyConvexError(ValueError):
    """The generated cone contains a line through the origin."""


class UnsupportedConeError(ValueError):
    """The operation needs a simplicial and/or full-dimensional cone."""


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def primitive(vector: Sequence[int]) -> Vector:
    """Divide out the gcd of the coordinates; rejects the zero vector."""
    vec = tuple(vector)
    if not any(vec):
        raise ValueError("the zero vector has no primitive form")
    g = gcd(*(abs(x) for x in vec))
    return tuple(x // g for x in vec)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by primitive, lex-sorted ray generators."""

    ambient_dim: int
    rays: tuple[Vector, ...]
    is_simplicial: bool
    is_full: bool
    # Smith form of the ray matrix; rank, dual rays and class group read it
    smith: SmithDecomposition = field(compare=False, repr=False)

    def ray_matrix(self) -> IntegerMatrix:
        """One row per ray, in stored order."""
        return IntegerMatrix.from_rows(self.rays)


def make_cone(rays: Iterable[Sequence[int]], ambient_dim: int) -> Cone:
    """Validate, primitivize, deduplicate and sort the rays of a cone.

    Rays pointing in the same direction collapse to one.  A cone that
    contains a line through the origin is rejected: that happens exactly
    when the negation of one of its rays lies in the cone, which
    ``_lineality_rays`` decides from the Smith forms of the (rank + 1)-ray
    subsets; the error names the least such ray.
    """
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    prim = []
    for k, ray in enumerate(rays):
        vec = tuple(ray)
        if len(vec) != ambient_dim:
            raise DimensionError(
                f"ray {k} has length {len(vec)}, expected {ambient_dim}"
            )
        if not any(vec):
            raise ValueError(f"ray {k} is the zero vector")
        prim.append(primitive(vec))
    unique = sorted(set(prim))
    snf = smith_normal_form(IntegerMatrix.from_rows(unique))
    rank = sum(1 for f in snf.invariant_factors if f)
    simplicial = rank == len(unique)
    if not simplicial:
        # linearly independent rays always span a pointed cone; only the
        # dependent case can hold a line
        lines = _lineality_rays(unique, rank)
        if lines:
            raise NotStronglyConvexError(f"cone contains the line through {min(lines)}")
    return Cone(ambient_dim, tuple(unique), simplicial, rank == ambient_dim, snf)


def _lineality_rays(rays: Sequence[Vector], rank: int) -> set[Vector]:
    """The rays whose negation lies in the cone they span.

    -v is in the cone exactly when v has a positive coefficient in a
    nonnegative dependency of the rays.  Such a dependency is a conformal
    sum of one-signed circuits (Rockafellar 1969), and each circuit extends
    to rank + 1 rays of full rank, whose only dependency it is: row ``rank``
    of U in their Smith form U A V = S, since row ``rank`` of S is zero.
    So C(len(rays), rank + 1) small Smith forms decide every ray.
    """
    lines: set[Vector] = set()
    for subset in itertools.combinations(rays, rank + 1):
        dep = smith_normal_form(IntegerMatrix.from_rows(subset)).U.row(rank)
        if min(dep) >= 0 or max(dep) <= 0:
            lines.update(ray for ray, c in zip(subset, dep) if c)
    return lines


def _divisor_period(cone: Cone, divisor: Sequence[int]) -> tuple[int, Vector]:
    """Order m of the class of a divisor b on a simplicial full cone, and
    the character u with <u, ray_i> = m * b_i on each ray.

    The stored Smith form U A V = S turns A u = m b into S (V^-1 u) = m y,
    y = U b, integral exactly when each s_i divides m y_i: the least such m,
    the class order, is lcm_i(s_i / gcd(y_i, s_i)), and u = V (m y_i / s_i)_i.
    """
    dec = cone.smith
    y = dec.U.apply(tuple(divisor))
    m = lcm(*(s // gcd(a, s) for a, s in zip(y, dec.invariant_factors)))
    return m, dec.V.apply(tuple(m * a // s for a, s in zip(y, dec.invariant_factors)))


def dual_cone(cone: Cone) -> Cone:
    """Dual of a simplicial full cone.

    Dual ray j is the period character of ray j's divisor e_j: it pairs to
    0 with every other ray and to the order of [e_j] with ray j, the least
    positive pairing an integral such point can have, so it is primitive.
    """
    if not (cone.is_simplicial and cone.is_full):
        raise UnsupportedConeError("dualization needs a simplicial full-dimensional cone")
    n = cone.ambient_dim
    units = ([int(i == j) for i in range(n)] for j in range(n))
    return make_cone([_divisor_period(cone, e)[1] for e in units], n)


@dataclass(frozen=True)
class SemigroupData:
    """Dual semigroup of a simplicial full cone, ready for monomial work.

    The cone is the one field: it determines the rest, so contexts compare
    and hash by cone.  Its dual cone is computed at construction, which
    rejects a cone that is not simplicial and full; every other attribute
    is derived on first read.  ``dual_rays`` is lex-sorted.
    ``parallelotope`` holds one (pairing vector, point) pair per lattice
    point of the half-open parallelotope of the dual rays, the origin
    included: every semigroup element is exactly one of those points plus
    a nonnegative integer combination of the dual rays.
    """

    cone: Cone

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dual", dual_cone(self.cone))

    @property
    def dual_rays(self) -> tuple[Vector, ...]:
        return self._dual.rays

    @cached_property
    def parallelotope(self) -> tuple[tuple[tuple[int, ...], Vector], ...]:
        return _parallelotope(self._dual, self.cone.rays)

    @cached_property
    def _columns(self) -> list[tuple[int, ...]]:
        """The parallelotope's pairing vectors transposed, one tuple per ray."""
        return list(zip(*(pairs for pairs, _ in self.parallelotope)))

    @cached_property
    def hilbert_basis(self) -> tuple[Vector, ...]:
        """The Hilbert basis, lex-sorted.

        Every semigroup element is a dual-ray translate of a lattice point
        of the parallelotope, so the irreducible elements all sit among
        those points and the dual rays themselves; a candidate is dropped
        when subtracting another candidate leaves a semigroup element.
        """
        rays = self.cone.rays
        candidates = set(self.dual_rays) | {p for _, p in self.parallelotope if any(p)}

        def reducible(h: Vector) -> bool:
            for g in candidates:
                if g == h:
                    continue
                diff = tuple(a - b for a, b in zip(h, g))
                if all(dot(diff, ray) >= 0 for ray in rays):
                    return True
            return False

        return tuple(h for h in sorted(candidates) if not reducible(h))

    @cached_property
    def pairing_table(self) -> tuple[tuple[int, ...], ...]:
        """``pairing_table[i][j]``: the pairing of basis element i with cone ray j."""
        return tuple(tuple(dot(h, ray) for ray in self.cone.rays) for h in self.hilbert_basis)


def _parallelotope(
    dual: Cone, rays: Sequence[Vector]
) -> tuple[tuple[tuple[int, ...], Vector], ...]:
    """(pairing vector, point) for each lattice point of the half-open
    parallelotope {W t : 0 <= t_j < 1} spanned by the dual rays.

    W, whose columns are the dual rays, is the transpose of the dual
    cone's ray matrix, so that cone's Smith form U' W^T V' = S gives
    U W V = S with V = U'^T.  The points are one per coset of W Z^n, and
    Z^n / W Z^n is the sum of the Z/s_i: k over prod [0, s_i) gives the
    representatives U^-1 k with W-coordinates t = frac(V S^-1 k), integers
    mod s_n once scaled by s_n, and W t is the point: |det W| of them.
    """
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
        points.append((tuple(dot(point, ray) for ray in rays), point))
    return tuple(points)


def _lattice_point(cone: Cone, pairs: Sequence[int]) -> Vector:
    """The lattice point with these ray pairings, solved by ``_divisor_period``."""
    m, point = _divisor_period(cone, pairs)
    if m != 1:
        raise RuntimeError(f"no lattice point has the ray pairings {tuple(pairs)}")
    return point


def _minimal_sums(columns: Sequence[Sequence[int]], power: int) -> tuple[tuple[int, ...], ...]:
    """Pairing vectors, in key order, of the minimal ``power``-fold sums of
    candidates whose nonnegative pairings with ray i are ``columns[i]``.

    A sum is compared through a packed key: pairing i in bits
    [i w, (i + 1) w), of a width w that holds ``power`` times the largest
    pairing plus a guard bit.  Pairings are linear, so the key of a sum is
    the sum of the keys, and equal keys are equal points.  A point is a
    semigroup translate of another exactly when its pairings dominate the
    other's, and then its key is the larger: in key order each key is
    tested only against those already kept (the reduction of Bruns and
    Ichim), as domination is transitive and a repeated key dominates its
    first copy; many sums coincide, so each is tested once.  A key has
    every field at least that of ``low`` exactly when
    ``((key | guard) - low) & guard == guard``: with every guard bit
    set first, no field borrows from the next, and a field keeps its guard
    bit exactly when it did not go below zero.
    """
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
        for low in kept:
            if (high - low) & guard == guard:
                break
        else:
            kept.append(key)
    mask = (1 << width) - 1
    return tuple(tuple(key >> shift & mask for shift in fields) for key in kept)


def hilbert_basis(cone: Cone) -> SemigroupData:
    """Semigroup context of a simplicial full cone with its Hilbert basis
    and pairing table computed before it is returned."""
    data = SemigroupData(cone)
    data.pairing_table
    return data


def in_semigroup(point: Sequence[int], data: SemigroupData) -> bool:
    """Membership in the dual semigroup: all ray pairings nonnegative."""
    if len(point) != data.cone.ambient_dim:
        raise DimensionError(
            f"point length {len(point)} != ambient dimension {data.cone.ambient_dim}"
        )
    return all(dot(point, ray) >= 0 for ray in data.cone.rays)


def semigroup_member(point: Sequence[int], data: SemigroupData) -> tuple[int, ...] | None:
    """Decompose a point over the Hilbert basis, or report non-membership.

    Returns a coefficient tuple aligned with ``data.hilbert_basis`` such
    that the weighted sum reproduces the point, or None when the point is
    outside the semigroup.  Depth-first search over basis elements in
    lexicographic order, each count tried from its largest value down;
    pairings against every ray stay nonnegative at each step, which bounds
    the search.  An explicit stack keeps deep bases off the call stack.
    """
    vec = tuple(point)
    if not in_semigroup(vec, data):
        return None
    table = data.pairing_table
    counts = [0] * len(table)
    # rests[i]: what is left to cover before basis element i is counted
    rests = [tuple(dot(vec, ray) for ray in data.cone.rays)]
    while any(rests[-1]):
        idx = len(rests) - 1
        if idx < len(table):
            counts[idx] = min(r // p for r, p in zip(rests[idx], table[idx]) if p > 0)
        else:
            # dead end: lower the deepest count that is still positive
            rests.pop()
            while rests and not counts[len(rests) - 1]:
                rests.pop()
            if not rests:
                raise RuntimeError("point passed the facet test but no decomposition was found")
            idx = len(rests) - 1
            counts[idx] -= 1
        rests.append(tuple(r - counts[idx] * p for r, p in zip(rests[idx], table[idx])))
    return tuple(counts)
