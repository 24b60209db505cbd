"""Fixture cones shared across the suite.

Simplicial full cones in dimensions 2 and 3 whose ray matrices have
unsigned determinant between 1 and 12, spanning cyclic and non-cyclic
class groups.  ``EXPECTED_DET`` freezes the volumes so a regression in
the exact linear algebra shows up as a fixture mismatch.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from symtoric import Cone, HilbertBasis, SemigroupData, hilbert_basis, make_cone
from symtoric.cones import dot

CONE_FIXTURES: list[tuple[str, list[tuple[int, ...]]]] = [
    ("orthant2", [(1, 0), (0, 1)]),
    ("a1", [(1, 0), (1, 2)]),
    ("a2", [(1, 0), (1, 3)]),
    ("a3", [(1, 0), (1, 4)]),
    ("a4", [(1, 0), (1, 5)]),
    ("skew5", [(2, 1), (1, 3)]),
    ("skew8", [(3, 1), (1, 3)]),
    ("a11", [(1, 0), (1, 12)]),
    ("orthant3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("quadric3", [(1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    ("cyclic3", [(1, 0, 0), (0, 1, 0), (1, 1, 3)]),
    ("klein4", [(1, 0, 0), (1, 2, 0), (1, 0, 2)]),
    ("parity2", [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
    ("cyclic4", [(2, 1, 1), (1, 2, 1), (1, 1, 2)]),
]

EXPECTED_DET = {
    "orthant2": 1,
    "a1": 2,
    "a2": 3,
    "a3": 4,
    "a4": 5,
    "skew5": 5,
    "skew8": 8,
    "a11": 12,
    "orthant3": 1,
    "quadric3": 2,
    "cyclic3": 3,
    "klein4": 4,
    "parity2": 2,
    "cyclic4": 4,
}

# not simplicial, so kept out of the fixtures: the cone over the 3-cube,
# rays (+-1, +-1, +-1, 1)
CUBE_RAYS = [(*signs, 1) for signs in itertools.product((-1, 1), repeat=3)]


def build_cone(name: str) -> Cone:
    rays = dict(CONE_FIXTURES)[name]
    return make_cone(rays, len(rays[0]))


def all_cones() -> list[tuple[str, Cone]]:
    return [(name, make_cone(rays, len(rays[0]))) for name, rays in CONE_FIXTURES]


def all_semigroups() -> list[tuple[str, HilbertBasis]]:
    return [(name, hilbert_basis(cone)) for name, cone in all_cones()]


def an_cone(n: int) -> Cone:
    """Quotient cone of the A_n singularity."""
    return make_cone([(1, 0), (1, n + 1)], 2)


def lattice_box(vertices: list[tuple[Fraction, ...]]) -> list[tuple[int, ...]]:
    """Integer points of the coordinate bounding box of rational vertices."""
    import itertools
    import math

    n = len(vertices[0])
    lo = [math.floor(min(v[i] for v in vertices)) for i in range(n)]
    hi = [math.ceil(max(v[i] for v in vertices)) for i in range(n)]
    return [
        pt for pt in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(n)))
    ]


def splits_of(h: tuple[int, ...], data: SemigroupData) -> list[tuple[int, ...]]:
    """All x with x and h - x both nonzero semigroup members.

    Candidates are enumerated from the exact vertex set of the polytope
    {x : 0 <= <x, ray> <= <h, ray> for every ray}, so the search is
    complete for the simplicial full cones in the zoo.
    """
    from symtoric.exact_linalg import IntegerMatrix, adjugate, determinant

    rays = data.cone.rays
    n = data.cone.ambient_dim
    mat = IntegerMatrix.from_rows(rays)
    det = determinant(mat)
    adj = adjugate(mat)
    hp = [dot(h, ray) for ray in rays]
    import itertools

    vertices = []
    for corner in itertools.product(*[(0, p) for p in hp]):
        vert = tuple(
            Fraction(sum(adj.at(i, j) * corner[j] for j in range(n)), det)
            for i in range(n)
        )
        vertices.append(vert)
    found = []
    for x in lattice_box(vertices):
        if not any(x) or x == h:
            continue
        rest = tuple(a - b for a, b in zip(h, x))
        if all(dot(x, ray) >= 0 for ray in rays) and all(
            dot(rest, ray) >= 0 for ray in rays
        ):
            found.append(x)
    return found
