"""Strongly convex rational cones and their dual lattice semigroups.

A cone is stored by its primitive ray generators, deduplicated and sorted,
so equal cones compare equal regardless of input order.  For a simplicial
full cone one solve matrix gives a divisor's period (its class order m and
the character pairing to m times it) and the dual rays, and the dual
semigroup's Hilbert basis comes with decompositions: the cone determines
its semigroup, so it carries these, each on first read.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gcd, prod
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .exact_linalg import (
    DimensionError,
    IntegerMatrix,
    SmithDecomposition,
    _is_integer,
    smith_normal_form,
)

__all__ = [
    "Vector",
    "Cone",
    "NotStronglyConvexError",
    "UnsupportedConeError",
    "WorkLimitExceeded",
    "primitive",
    "make_cone",
    "dual_cone",
    "hilbert_basis",
    "in_semigroup",
    "semigroup_member",
]

Vector = tuple[int, ...]

# most dual parallelotope points enumerated: 2^22 take 9 s, 340 MiB (Xeon, Python 3.11)
_MAX_PARALLELOTOPE = 1 << 22
# most parallelotope points a Hilbert basis tests pairwise: 4093 take 4-6 s (Xeon, Python 3.11)
_MAX_HILBERT = 1 << 12
# most sums an ordinary power forms: 2^22 distinct on three rays take 9 s, 420 MiB (Xeon, Python 3.11)
_MAX_SUMS = 1 << 22


class NotStronglyConvexError(ValueError):
    """The generated cone contains a line through the origin."""


class UnsupportedConeError(ValueError):
    """The operation needs a simplicial and/or full-dimensional cone."""


class WorkLimitExceeded(ValueError):
    """An enumeration is larger than its limit; raised before it starts."""


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _pairings(point: Sequence[int], cone: Cone) -> tuple[int, ...]:
    """The point's pairing with each ray, in ray order: its valuations along
    the ray divisors, the coordinates every semigroup and ideal test reads."""
    return tuple(dot(point, ray) for ray in cone.rays)


def _point_pairings(point: Sequence[int], cone: Cone) -> tuple[int, ...]:
    """A caller's point's pairings: DimensionError off length, TypeError off the integers."""
    if len(point) != cone.ambient_dim:
        raise DimensionError(f"point length {len(point)} != ambient dimension {cone.ambient_dim}")
    if not all(map(_is_integer, point)):
        raise TypeError(f"point {tuple(point)!r} has a non-integer coordinate")
    return _pairings(point, cone)


def primitive(vector: Sequence[int]) -> Vector:
    """Divide out the gcd of the coordinates; rejects the zero vector."""
    vec = tuple(vector)
    if not any(vec):
        raise ValueError("the zero vector has no primitive form")
    g = gcd(*(abs(x) for x in vec))
    return tuple(x // g for x in vec)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone given by primitive, lex-sorted ray generators.

    A simplicial full cone determines its dual semigroup, whose attributes
    are derived on first read and kept; equality, hash and repr read the
    fields alone.  Every one goes through ``_dual``, which rejects any
    other cone.  ``dual_rays`` is lex-sorted.  ``_packed`` holds the width
    and pairing keys of ``_parallelotope``, whose points' translates along
    the dual rays are the semigroup.  ``_inverse`` solves pairings to points.
    """

    ambient_dim: int
    rays: tuple[Vector, ...]
    is_simplicial: bool
    is_full: bool
    # Smith form of the ray matrix; rank, dual rays and class group read it
    smith: SmithDecomposition = field(compare=False, repr=False)

    def ray_matrix(self) -> IntegerMatrix:
        """One row per ray, in stored order."""
        return IntegerMatrix.from_rows(self.rays)

    @cached_property
    def _dual(self) -> Cone:
        return dual_cone(self)

    @property
    def dual_rays(self) -> tuple[Vector, ...]:
        return self._dual.rays

    @cached_property
    def _inverse(self) -> tuple[int, IntegerMatrix]:
        """s_n and the solve matrix M = s_n A^-1 = V diag(s_n / s_i) U, by U A V = S."""
        dec, top = self.smith, self.smith.invariant_factors[-1]
        scaled = [[top // s * x for x in dec.U.row(i)] for i, s in enumerate(dec.invariant_factors)]
        return top, dec.V @ IntegerMatrix.from_rows(scaled)

    @cached_property
    def _own_duals(self) -> tuple[tuple[int, int], ...]:
        """(j, c_i) per ray i: dual ray w_j alone pairs nonzero with ray i, to c_i."""
        pairs = ((j, dot(w, ray)) for ray in self.rays for j, w in enumerate(self.dual_rays))
        return tuple((j, c) for j, c in pairs if c)

    @cached_property
    def _packed(self) -> tuple[int, tuple[int, ...]]:
        return _parallelotope(self)

    @cached_property
    def hilbert_basis(self) -> tuple[Vector, ...]:
        """The Hilbert basis, lex-sorted.

        Every semigroup element is a dual-ray translate of a lattice point
        of the parallelotope, so the irreducible ones sit among the dual
        rays and those points, solved from their pairing rows; a candidate
        is dropped when subtracting another leaves a semigroup element.
        """
        if prod(self._dual.smith.invariant_factors) > _MAX_HILBERT:
            raise WorkLimitExceeded(f"a Hilbert basis reads at most {_MAX_HILBERT} parallelotope points")
        rays, rows = self.rays, _unpacked(*self._packed, len(self.rays))
        candidates = set(self.dual_rays) | {_lattice_point(self, r) for r in rows if any(r)}

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
        """``pairing_table[i][j]``: the pairing of basis element i with ray j."""
        return tuple(_pairings(h, self) for h in self.hilbert_basis)


def make_cone(rays: Iterable[Sequence[int]], ambient_dim: int) -> Cone:
    """Validate, primitivize, deduplicate and sort the rays of a cone.

    Rays pointing in the same direction collapse to one.  A cone that
    contains a line through the origin is rejected: that happens exactly
    when the negation of one of its rays lies in the cone, which
    ``_lineality_rays`` decides from the Smith forms of the (rank + 1)-ray
    subsets, of which independent rays have none; the error names the least
    such ray.
    """
    if not _is_integer(ambient_dim):
        raise TypeError(f"ambient dimension must be an integer, got {ambient_dim!r}")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    prim = []
    for k, ray in enumerate(rays):
        vec = tuple(ray)
        if len(vec) != ambient_dim:
            raise DimensionError(f"ray {k} has length {len(vec)}, expected {ambient_dim}")
        if not all(map(_is_integer, vec)):
            raise TypeError(f"ray {k} has a non-integer coordinate")
        if not any(vec):
            raise ValueError(f"ray {k} is the zero vector")
        prim.append(primitive(vec))
    unique = sorted(set(prim))
    snf = smith_normal_form(IntegerMatrix.from_rows(unique))
    rank = sum(1 for f in snf.invariant_factors if f)
    if lines := _lineality_rays(unique, rank):
        raise NotStronglyConvexError(f"cone contains the line through {min(lines)}")
    return Cone(ambient_dim, tuple(unique), rank == len(unique), rank == ambient_dim, snf)


def _lineality_rays(rays: Sequence[Vector], rank: int) -> set[Vector]:
    """The rays whose negation lies in the cone they span.

    -v is in the cone exactly when v has a positive coefficient in a
    nonnegative dependency of the rays.  Such a dependency is a conformal
    sum of one-signed circuits (Rockafellar 1969), and each circuit extends
    to rank + 1 rays of full rank, whose only dependency it is: row ``rank``
    of U in their Smith form U A V = S, since row ``rank`` of S is zero.
    So C(len(rays), rank + 1) small Smith forms decide every ray: none when
    the rays are independent, as they then span a pointed cone.
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

    A u = m b is solved by u = m x / s_n, x = M b for the solve matrix
    M = s_n A^-1, integral exactly when s_n divides every m x_i: the least
    such m, the class order, is s_n / gcd(s_n, x)."""
    top, inverse = cone._inverse
    x = inverse.apply(tuple(divisor))
    m = top // gcd(top, *x)
    return m, tuple(m * a // top for a in x)


def dual_cone(cone: Cone) -> Cone:
    """Dual of a simplicial full cone: column j of the solve matrix s_n A^-1
    pairs to s_n with ray j and to 0 with every other ray, and ``make_cone``
    makes it primitive, dual ray j."""
    if not (cone.is_simplicial and cone.is_full):
        raise UnsupportedConeError("dualization needs a simplicial full-dimensional cone")
    return make_cone(zip(*cone._inverse[1].to_rows()), cone.ambient_dim)


def _parallelotope(cone: Cone) -> tuple[int, tuple[int, ...]]:
    """Width w and the packed pairing keys of the lattice points of the
    half-open parallelotope {W t : 0 <= t_j < 1} of the dual rays: field i
    of a key, bits [i w, (i + 1) w), is the point's pairing with ray i.

    W, whose columns are the dual rays, is the transpose of the dual cone's
    ray matrix, whose Smith form U' W^T V' = S gives U W V = S, V = U'^T.
    The points are one per coset of W Z^n, and Z^n / W Z^n is the sum of
    the Z/s_i: k over the box of multiples of s_n / s_i below s_n gives their
    W-coordinates scaled by s_n, t = V k mod s_n; more than ``_MAX_PARALLELOTOPE``
    points raise WorkLimitExceeded first.  Of the dual rays only w_j of
    ``_own_duals`` pairs with ray i, to c_i, so W t / s_n pairs with ray i to
    t_j c_i / s_n < c_i, an exact division: field i reads row j of V alone, and
    no point is formed.  w, ``_pack``'s width for 2 max c_i, has room to raise it by c_i."""
    dual, own = cone._dual, cone._own_duals
    factors = dual.smith.invariant_factors
    if (count := prod(factors)) > _MAX_PARALLELOTOPE:
        raise WorkLimitExceeded(f"the dual parallelotope has at least 2^{count.bit_length() - 1}"
                                f" points, over the limit of {_MAX_PARALLELOTOPE}")
    top, v = factors[-1], dual.smith.U.transpose().to_rows()
    width = _pack([[c for _, c in own]], 2)[0]
    fields = [(v[j], c, i * width) for i, (j, c) in enumerate(own)]
    box = itertools.product(*(range(0, top, top // s) for s in factors))
    keys = (sum(dot(row, k) % top * c // top << shift for row, c, shift in fields) for k in box)
    return width, tuple(keys)


def _lattice_point(cone: Cone, pairs: Sequence[int]) -> Vector:
    """The lattice point with these ray pairings, solved by ``_divisor_period``."""
    m, point = _divisor_period(cone, pairs)
    if m != 1:
        raise RuntimeError(f"no lattice point has the ray pairings {tuple(pairs)}")
    return point


def _outside(rows: Sequence[Sequence[int]], width: int, keys: Sequence[int]) -> Iterator[Sequence[int]]:
    """The ``rows``, in order and lazily, that dominate no vector packed at ``width`` in ``keys``:
    none with a negative field; one clamp, 2^(w-1) - 1 >= every stored field, serves all."""
    top, shifts = (1 << width - 1) - 1, range(0, width * len(rows[0]), width)
    guard = sum(top + 1 << shift for shift in shifts)
    for row in rows:
        high = sum(min(p, top) << shift for p, shift in zip(row, shifts)) | guard
        for low in keys if min(row) >= 0 else ():
            if (high - low) & guard == guard:
                break
        else:
            yield row


def _unpacked(width: int, keys: Iterable[int], nfields: int) -> Iterator[tuple[int, ...]]:
    """The vectors packed at ``width`` in ``keys``, lazily: field i in bits [i w, (i + 1) w)."""
    fields, mask = range(0, width * nfields, width), (1 << width) - 1
    return (tuple(key >> shift & mask for shift in fields) for key in keys)


def _pack(rows: Iterable[Iterable[int]], scale: int = 1) -> tuple[int, tuple[int, ...]]:
    """Width w, holding ``scale`` times the largest entry and a guard bit, and the keys
    of ``rows``, packed a column at a time: field i, bits [i w, (i + 1) w), is entry i."""
    columns = list(zip(*rows))
    width = (scale * max(map(max, columns), default=0)).bit_length() + 1
    keys = [0] * len(columns[0]) if columns else []
    for column in reversed(columns):
        keys = [key << width | p for key, p in zip(keys, column)]
    return width, tuple(keys)


def _minimal_sums(rows: Sequence[Sequence[int]], power: int) -> tuple[int, tuple[int, ...]]:
    """Width w, holding ``power`` times the largest pairing, and ``_reduce``d keys of
    the ``power``-fold sums of candidates with pairing rows ``rows``: keys sum.  More than
    ``_MAX_SUMS`` sums, C(g + power - 1, power) of g rows, raise WorkLimitExceeded first."""
    if (count := comb(len(rows) + power - 1, power)) > _MAX_SUMS:
        raise WorkLimitExceeded(f"the {power}-fold sums of {len(rows)} generators number at least"
                                f" 2^{count.bit_length() - 1}, over the limit of {_MAX_SUMS}")
    width, keys = _pack(rows, power)
    sums = set(map(sum, itertools.combinations_with_replacement(keys, power)))
    return width, _reduce(width, sums, len(rows[0]) if rows else 0)


def _valuation_keys(cone: Cone, divisor: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Width and keys, in key order, of the minimal generators of the valuation
    ideal {m in the semigroup : <m, ray_i> >= divisor[i] = b_i >= 0}.

    Every semigroup element is a parallelotope point y plus a nonnegative
    combination of the dual rays, of which only w_j of ``Cone._own_duals``
    pairs with ray i, to c_i > y_i.  So the minimal generators are the
    minimal y raised along it to the least pairing b_i + (y_i - b_i) mod c_i
    = y_i + c_i [y_i < r_i] + k_i c_i, b_i = k_i c_i + r_i: keys are raised by
    c_i where y_i < r_i and reduced, and the kept ones translated by k_i c_i,
    which keeps key order, and packed.  Each raised key is at least the raised
    zero point, so with one r_i > 0 that key replaces every raised one."""
    width, keys = cone._packed
    mask = (1 << width) - 1
    own = enumerate(zip(divisor, cone._own_duals))
    raises = [(i * width, r, c) for i, (b, (_, c)) in own if (r := b % c)]
    if len(raises) == 1:
        ((shift, r, c),) = raises
        keys = [key for key in keys if key >> shift & mask >= r] + [c << shift]
    else:
        for shift, r, c in raises:
            keys = [key + (c << shift) if key >> shift & mask < r else key for key in keys]
    kept = _reduce(width, keys, len(cone.rays))
    lifts = [b // c * c for b, (_, c) in zip(divisor, cone._own_duals)]
    rows = (map(add, row, lifts) for row in _unpacked(width, kept, len(lifts)))
    return _pack(rows) if any(lifts) else (width, kept)


def _reduce(width: int, keys: Iterable[int], nfields: int) -> tuple[int, ...]:
    """The keys, in key order, of the minimal vectors packed at ``width`` in
    ``keys``.  A point is a semigroup translate of another exactly when its
    pairings dominate the other's, and then its key is the larger: in key
    order each key is tested only against those kept (the reduction of
    Bruns and Ichim), as domination is transitive and a repeated key
    dominates its first copy.  Keys sort by the last field first, so the
    test reads the other fields alone.  Of one or two, a key is kept when
    its field 0 is below every kept one; of three, when one bisection finds
    no point below it on the staircase of kept (field 0, field 1), sorted by
    field 0 with field 1 falling, where it goes in after those at most its
    field 0, in place of those it covers (Kung, Luccio and Preparata, J. ACM
    22, 1975); otherwise, when one test finds none: the key, each field's
    top bit set, copied to every block of ``block`` (a kept key and a spare
    bit), minus it keeps a block's top bits, borrowing from none, exactly
    when it dominates that key (Lamport, CACM 18, 1975).  All keep the same keys."""
    mask = (1 << width) - 1
    kept: list[int] = []
    if nfields <= 2:
        least = mask + 1
        for key in sorted(keys):
            if key & mask < least:
                least = key & mask
                kept.append(key)
    elif nfields == 3:
        xs: list[int] = []
        ys: list[int] = []
        for key in sorted(keys):
            x, y = key & mask, key >> width & mask
            i = bisect_right(xs, x)
            if i and ys[i - 1] <= y:
                continue
            j = i
            while j < len(ys) and ys[j] >= y:
                j += 1
            xs[i:j], ys[i:j] = [x], [y]
            kept.append(key)
    else:
        guard = sum(1 << (shift + width - 1) for shift in range(0, width * nfields, width))
        block = ones = guards = tops = shift = 0
        for key in sorted(keys):
            if not (tops - ((((key | guard) * ones - block) & guards) ^ guards)) & tops:
                block, ones = block | key << shift, ones | 1 << shift
                guards, tops = guards | guard << shift, tops | 1 << shift + width * nfields
                shift += width * nfields + 1
                kept.append(key)
    return tuple(kept)


def hilbert_basis(cone: Cone) -> Cone:
    """The cone itself, once its dual semigroup's Hilbert basis and
    pairing table are computed."""
    cone.pairing_table
    return cone


def in_semigroup(point: Sequence[int], cone: Cone) -> bool:
    """Membership in the dual semigroup: all ray pairings nonnegative."""
    cone._dual  # rejects a cone that is not simplicial and full
    return min(_point_pairings(point, cone)) >= 0


def semigroup_member(point: Sequence[int], cone: Cone) -> tuple[int, ...] | None:
    """Decompose a point over the Hilbert basis, or report non-membership.

    Returns a coefficient tuple aligned with ``cone.hilbert_basis`` such
    that the weighted sum reproduces the point, or None when the point is
    outside the semigroup.  One pass in basis order takes each element as
    often as the rest's pairings allow.  It never dead-ends: once element i
    is taken, none of elements 0..i fits in the rest, which pairs
    nonnegatively and so, the semigroup being saturated, is a sum of basis
    elements that each fit in it; so the rest ends at zero.
    """
    cone._dual  # rejects a cone that is not simplicial and full
    rest, counts = _point_pairings(tuple(point), cone), []
    if min(rest) < 0:
        return None
    for row in cone.pairing_table:
        counts.append(min(r // p for r, p in zip(rest, row) if p > 0))
        rest = tuple(r - counts[-1] * p for r, p in zip(rest, row))
    if any(rest):
        raise RuntimeError("point passed the facet test but no decomposition was found")
    return tuple(counts)
