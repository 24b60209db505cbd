"""Catalog of du Val (ADE) surface singularities.

Each record carries the local hypersurface equation, the divisor class
group of the singularity, and the optimal uniform multiplier, which is
the exponent of that group.  The invariant factors of each group are
transcribed; the tests check them against Lipman's description of the
group as the cokernel of the resolution graph's intersection matrix (the
negated Cartan matrix of the Dynkin diagram).  The multiplier is read
off the group.  The A family doubles as a consistency check: its members
are the cyclic quotient cones, so the catalog entry can be recomputed
toric-side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .class_group import AbelianGroupPresentation, class_group_of, group_exponent
from .cones import make_cone
from .exact_linalg import _is_integer

__all__ = ["OutOfCatalogError", "DuValRecord", "lookup", "cross_check_an"]


class OutOfCatalogError(ValueError):
    """The (family, index) pair names no du Val singularity."""


@dataclass(frozen=True)
class DuValRecord:
    """One catalog row: equation, class group, optimal multiplier."""

    family: str
    index: int
    local_equation: str
    group: AbelianGroupPresentation

    @property
    def d_min(self) -> int:
        """Optimal uniform multiplier: the exponent of the class group."""
        exponent = group_exponent(self.group)
        if exponent is None:
            raise RuntimeError(f"{self.family}_{self.index} has an infinite class group")
        return exponent


def lookup(family: str, n: int) -> DuValRecord:
    """Catalog row for the singularity of type family_n.

    Valid pairs: A_n with n >= 1, D_n with n >= 4, E_6, E_7, E_8.
    """
    if not _is_integer(n):
        raise TypeError(f"du Val index must be an integer, got {n!r}")
    if family == "A" and n >= 1:
        group = AbelianGroupPresentation((n + 1,), 0)
        equation = f"xz - y^{n + 1}"
    elif family == "D" and n >= 4:
        if n % 2 == 0:
            group = AbelianGroupPresentation((2, 2), 0)
        else:
            group = AbelianGroupPresentation((4,), 0)
        equation = f"x^2 + yz^2 - z^{n - 1}"
    elif family == "E" and n in (6, 7, 8):
        factors = {6: (3,), 7: (2,), 8: ()}[n]
        group = AbelianGroupPresentation(factors, 0)
        equation = {
            6: "x^4 + y^3 + z^2",
            7: "x^3y + y^3 + z^2",
            8: "x^5 + y^3 + z^2",
        }[n]
    else:
        raise OutOfCatalogError(f"no du Val singularity of type {family}_{n}")
    return DuValRecord(family, n, equation, group)


def cross_check_an(n: int) -> bool:
    """Recompute the A_n class group from its quotient cone and compare.

    The A_n singularity is the affine toric surface of the plane cone on
    (1, 0) and (1, n+1), whose class group must be cyclic of order n+1.
    """
    if not _is_integer(n):
        raise TypeError(f"du Val index must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"A_n needs n >= 1, got {n}")
    cone = make_cone([(1, 0), (1, n + 1)], 2)
    return class_group_of(cone) == lookup("A", n).group
