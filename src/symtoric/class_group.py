"""Divisor class groups of full-dimensional affine toric charts.

The group is presented as the cokernel of the pairing map sending a
lattice character to its vector of valuations along the rays.  The
cone's Smith form U A V = S of its ray matrix A yields the invariant
factors, the free rank, and in U a map taking any integer ray-coefficient
vector to a canonical residue form, so orders of classes are computable.

A class is represented by its integer coefficient vector over the rays
of the cone, indexed in the cone's stored (lex-sorted) ray order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm, prod
from typing import Sequence

from .cones import Cone, UnsupportedConeError
from .exact_linalg import (DimensionError, IntegerMatrix, SmithDecomposition, _is_integer,
                           determinant)

__all__ = [
    "DivisorClass",
    "AbelianGroupPresentation",
    "presentation_matrix",
    "class_group_of",
    "group_order",
    "group_exponent",
    "det_multiplier",
    "class_of",
    "order_of_class",
]

DivisorClass = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """Finitely generated abelian group in invariant factor form.

    ``invariant_factors`` keeps only the factors >= 2, in divisibility
    order.  Presentations built from a cone carry the Smith form of its
    ray matrix, whose U maps divisors to residue form; hand built ones
    (catalog entries) may omit it.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int
    smith: SmithDecomposition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if any(f < 2 for f in self.invariant_factors):
            raise ValueError("factors of 1 are dropped from the presentation")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank cannot be negative")

    @property
    def is_cyclic(self) -> bool:
        return self.free_rank == 0 and len(self.invariant_factors) <= 1


def presentation_matrix(cone: Cone) -> IntegerMatrix:
    """Ray matrix presenting the class group; one row per ray."""
    if not cone.is_full:
        raise UnsupportedConeError("class group presentation needs a full-dimensional cone")
    return cone.ray_matrix()


def class_group_of(cone: Cone) -> AbelianGroupPresentation:
    """Class group as the cokernel of the ray pairing map (the cone's Smith form).

    The ray matrix of a full cone has rank n, so its n invariant factors
    are nonzero and every ray past the n-th adds one free generator.
    """
    mat = presentation_matrix(cone)
    factors = cone.smith.invariant_factors
    free_rank = mat.rows - len(factors)
    return AbelianGroupPresentation(tuple(d for d in factors if d >= 2), free_rank, cone.smith)


def group_order(group: AbelianGroupPresentation) -> int | None:
    """Order of the group; None means infinite."""
    if group.free_rank:
        return None
    return prod(group.invariant_factors)


def group_exponent(group: AbelianGroupPresentation) -> int | None:
    """Exponent of the group (largest invariant factor); None means infinite."""
    if group.free_rank:
        return None
    return group.invariant_factors[-1] if group.invariant_factors else 1


def det_multiplier(cone: Cone) -> int:
    """Unsigned ray-matrix determinant of a simplicial full cone.

    This equals the class group order; the equality is checked rather
    than assumed, and a mismatch raises RuntimeError.
    """
    if not (cone.is_simplicial and cone.is_full):
        raise UnsupportedConeError("determinant multiplier needs a simplicial full cone")
    d = abs(determinant(cone.ray_matrix()))
    if d != group_order(class_group_of(cone)):
        raise RuntimeError("parallelotope volume disagrees with the class group order")
    return d


def _canonical_parts(
    divisor: Sequence[int], group: AbelianGroupPresentation
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if group.smith is None:
        raise ValueError("this presentation carries no Smith form")
    transform = group.smith.U
    if len(divisor) != transform.cols:
        raise DimensionError(f"divisor has {len(divisor)} coefficients, expected {transform.cols}")
    if not all(map(_is_integer, divisor)):
        raise TypeError(f"divisor {tuple(divisor)!r} has a non-integer coefficient")
    factors = group.smith.invariant_factors
    image = transform.apply(tuple(divisor))
    # a factor of 1 kills its coordinate; those past the factors are free
    return tuple(x % d for x, d in zip(image, factors) if d >= 2), image[len(factors):]


def class_of(divisor: Sequence[int], group: AbelianGroupPresentation) -> tuple[int, ...]:
    """Canonical residue form of a divisor class.

    The first ``len(invariant_factors)`` entries are residues modulo the
    matching invariant factor; the remaining ``free_rank`` entries are the
    signed free coordinates.  The identity is the all-zero tuple.
    """
    residues, frees = _canonical_parts(divisor, group)
    return residues + frees


def order_of_class(divisor: Sequence[int], group: AbelianGroupPresentation) -> int | None:
    """Order of a class in the group; None means infinite.

    A torsion class with residues r_i modulo the invariant factors d_i
    has order lcm(d_i / gcd(r_i, d_i)), which is 1 for the identity.
    """
    residues, frees = _canonical_parts(divisor, group)
    if any(frees):
        return None
    return lcm(*(d // gcd(r, d) for r, d in zip(residues, group.invariant_factors)))
