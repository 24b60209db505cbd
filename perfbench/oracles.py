"""Independent answers for the benchmark's output checks.

Nothing here imports symtoric.  Each check recomputes what it needs with
exact ``Fraction`` or integer arithmetic, by a different method than the
library uses, so a wrong answer cannot vouch for itself:

* lattice points of the dual parallelotope come from a walk over the
  group Z^n / W Z^n in pairing coordinates, not from a bounding-box scan;
* symbolic-power generators are recomputed from those points plus
  dual-ray translates, not from the library's closure search;
* class-group facts come from ``Fraction`` Gauss-Jordan elimination, not
  from a Smith form.

Every ``check_*`` function returns a list of error strings; an empty list
means the answer passed.  A *pairing vector* of a lattice point m is the
tuple of its pairings <m, v_i> with the cone's rays v_i, in ray order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Sequence

Vector = tuple[int, ...]


def primitive(vector: Sequence[int]) -> Vector:
    g = gcd(*vector)
    return tuple(x // g for x in vector)


def pairings(point: Sequence[int], rays: Sequence[Vector]) -> Vector:
    return tuple(sum(a * b for a, b in zip(point, ray)) for ray in rays)


def inverse(rays: Sequence[Vector]) -> list[list[Fraction]]:
    """Inverse of the square matrix with the rays as rows (Gauss-Jordan)."""
    n = len(rays)
    aug = [[Fraction(x) for x in ray] + [Fraction(int(i == j)) for j in range(n)]
           for i, ray in enumerate(rays)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("the rays are linearly dependent")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def abs_det(rays: Sequence[Vector]) -> int:
    """Unsigned determinant of the ray matrix by Fraction elimination."""
    rows = [[Fraction(x) for x in ray] for ray in rays]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
        det *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return abs(int(det))


def exponent(rays: Sequence[Vector]) -> int:
    """Exponent of Z^n / A Z^n: the lcm of the denominators of A^-1."""
    return lcm(*(x.denominator for row in inverse(rays) for x in row))


def dual_rays(rays: Sequence[Vector]) -> list[Vector]:
    """Primitive dual ray w_j of each ray v_j: <w_j, v_i> = 0 for i != j.

    Column j of A^-1 pairs to 1 with v_j and to 0 with the other rays.
    """
    inv = inverse(rays)
    n = len(rays)
    duals = []
    for j in range(n):
        col = [inv[i][j] for i in range(n)]
        scale = lcm(*(x.denominator for x in col))
        duals.append(primitive([int(x * scale) for x in col]))
    return duals


def dual_caps(rays: Sequence[Vector]) -> Vector:
    """c_j = <w_j, v_j>, the pairing of each dual ray with its own ray."""
    return tuple(pairings(w, [v])[0] for w, v in zip(dual_rays(rays), rays))


def parallelotope(rays: Sequence[Vector]) -> set[Vector]:
    """Pairing vectors of the lattice points of the half-open parallelotope
    spanned by the dual rays: all y in A Z^n with 0 <= y_j < c_j.

    A Z^n is generated by the columns of A, and c_j e_j = A w_j lies in it,
    so a walk from 0 along the columns, reducing coordinate j mod c_j,
    visits the whole group A Z^n / (+) c_j Z e_j, one point per coset.
    """
    caps = dual_caps(rays)
    n = len(rays)
    steps = [tuple(ray[k] % cap for ray, cap in zip(rays, caps)) for k in range(n)]
    start = (0,) * n
    seen = {start}
    frontier = [start]
    while frontier:
        y = frontier.pop()
        for step in steps:
            nxt = tuple((a + b) % cap for a, b, cap in zip(y, step, caps))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def lattice_point(y: Sequence[int], rays: Sequence[Vector], inv=None) -> Vector:
    """The lattice point m with pairing vector y (A m = y)."""
    inv = inverse(rays) if inv is None else inv
    m = [sum(row[k] * y[k] for k in range(len(y))) for row in inv]
    if any(x.denominator != 1 for x in m):
        raise ValueError(f"pairing vector {tuple(y)} is not in the lattice")
    return tuple(int(x) for x in m)


def in_image(y: Sequence[int], inv: list[list[Fraction]]) -> bool:
    """Is y = A m for an integer vector m?"""
    return all(sum(row[k] * y[k] for k in range(len(y))).denominator == 1 for row in inv)


def _dominated(y: Vector, others) -> bool:
    """Some other pairing vector is <= y componentwise, i.e. y minus that
    point stays in the semigroup."""
    return any(z != y and all(a >= b for a, b in zip(y, z)) for z in others)


# ---------------------------------------------------------------- cones


def check_hilbert(rays: Sequence[Vector], duals: Sequence[Vector],
                  basis: Sequence[Vector]) -> list[str]:
    """Is ``basis`` exactly the Hilbert basis of the dual semigroup?

    It is when it holds every dual ray, every element is a nonzero
    semigroup member, no element minus another stays in the semigroup, and
    every other irreducible candidate (a dual ray or a parallelotope
    point) is some element plus a semigroup member.
    """
    errors = []
    expected_duals = sorted(dual_rays(rays))
    if sorted(duals) != expected_duals:
        errors.append(f"dual rays {list(duals)} != {expected_duals}")
    ys = {}
    for b in basis:
        y = pairings(b, rays)
        if not any(b) or min(y) < 0:
            errors.append(f"basis element {b} is not a nonzero semigroup member")
        ys[y] = b
    for w in expected_duals:
        if w not in basis:
            errors.append(f"dual ray {w} missing from the basis")
    for y, b in ys.items():
        if _dominated(y, ys):
            errors.append(f"basis element {b} is reducible")
    candidates = parallelotope(rays) | {pairings(w, rays) for w in expected_duals}
    for y in candidates:
        if any(y) and y not in ys and not _dominated(y, ys):
            errors.append(f"irreducible point with pairings {y} missing from the basis")
    return errors


def check_decomposition(point: Vector, basis: Sequence[Vector], coeffs) -> list[str]:
    """Nonnegative coefficients over the basis that sum back to the point."""
    if coeffs is None:
        return [f"member {point} reported outside the semigroup"]
    if len(coeffs) != len(basis) or any(not isinstance(c, int) or c < 0 for c in coeffs):
        return [f"bad coefficient vector {coeffs} for {point}"]
    total = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(point)))
    if total != tuple(point):
        return [f"decomposition of {point} sums to {total}"]
    return []


def box_points(rays: Sequence[Vector]) -> int:
    """Integer points of the coordinate bounding box of the dual
    parallelotope: the candidates the box-scan enumeration visits."""
    duals = sorted(dual_rays(rays))
    n = len(rays)
    lo = [0] * n
    hi = [0] * n
    for mask in range(1 << n):
        vertex = [sum(duals[j][i] for j in range(n) if mask >> j & 1) for i in range(n)]
        lo = [min(a, b) for a, b in zip(lo, vertex)]
        hi = [max(a, b) for a, b in zip(hi, vertex)]
    return prod(h - l + 1 for l, h in zip(lo, hi))


def par_points(rays: Sequence[Vector]) -> int:
    """|det W| for the dual ray matrix W: the parallelotope's lattice points."""
    return abs_det(dual_rays(rays))


# --------------------------------------------------------------- ideals


def symbolic_generators(rays: Sequence[Vector], bounds: dict[int, int]) -> list[Vector]:
    """Minimal generators of {m in the semigroup : <m, v_i> >= bounds[i]}.

    Every semigroup point is a parallelotope point plus nonnegative dual-ray
    multiples, whose pairing vector moves by c_j along coordinate j.  A
    minimal generator has y_j < bounds[j] + c_j on every ray (else subtract
    w_j), so it suffices to scan those translates and keep the minimal ones.
    """
    caps = dual_caps(rays)
    limits = [bounds.get(j, 0) + caps[j] for j in range(len(rays))]
    members = []
    for base in parallelotope(rays):
        ranges = [range(b, lim, cap) for b, lim, cap in zip(base, limits, caps)]
        stack = [()]
        for r in ranges:
            stack = [prefix + (v,) for prefix in stack for v in r]
        members += [y for y in stack if all(y[j] >= b for j, b in bounds.items())]
    members.sort(key=sum)
    kept: list[Vector] = []
    for y in members:
        if not any(all(a >= b for a, b in zip(y, z)) for z in kept):
            kept.append(y)
    inv = inverse(rays)
    return sorted(lattice_point(y, rays, inv) for y in kept)


def check_symbolic_power(rays, components, power, generators) -> list[str]:
    bounds = {ray: power * mult for ray, mult in components}
    expected = symbolic_generators(rays, bounds)
    if list(generators) != expected:
        return [f"symbolic power {power} of {components}: {list(generators)} != {expected}"]
    return []


def check_witness(rays, components, multiplier, level, witness) -> list[str]:
    """A failure witness must be a semigroup member of the symbolic power
    q^(multiplier * level)."""
    y = pairings(witness, rays)
    if min(y) < 0:
        return [f"witness {witness} is outside the semigroup"]
    short = [ray for ray, mult in components if y[ray] < multiplier * level * mult]
    if short:
        return [f"witness {witness} misses the symbolic bound on rays {short}"]
    return []


def ordinary_sums(generators: int, power: int) -> int:
    """Number of power-fold generator sums an ordinary power forms."""
    return comb(generators + power - 1, power)


# ---------------------------------------------------------- class group


def check_group(rays, factors, free_rank) -> list[str]:
    """Invariant factors of a full simplicial cone's class group."""
    errors = []
    if free_rank != 0:
        errors.append(f"free rank {free_rank} != 0")
    if any(f < 2 for f in factors):
        errors.append(f"invariant factors {factors} include a unit")
    if any(b % a for a, b in zip(factors, factors[1:])):
        errors.append(f"invariant factors {factors} do not form a divisibility chain")
    det = abs_det(rays)
    if prod(factors) != det:
        errors.append(f"group order {prod(factors)} != |det| {det}")
    exp = exponent(rays)
    if (factors[-1] if factors else 1) != exp:
        errors.append(f"largest factor of {factors} != exponent {exp}")
    return errors


def _prime_factors(k: int) -> list[int]:
    out, p = [], 2
    while p * p <= k:
        if k % p == 0:
            out.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return out + ([k] if k > 1 else [])


def check_order(rays, divisor, order) -> list[str]:
    """order is the least k with k * divisor in the image of the pairing map.

    It is when k * divisor is in the image and (k / p) * divisor is not,
    for every prime p dividing k.
    """
    if not isinstance(order, int) or order < 1:
        return [f"order {order!r} of {divisor} is not a positive integer"]
    inv = inverse(rays)
    if not in_image([order * x for x in divisor], inv):
        return [f"{order} * {divisor} is not principal"]
    for p in _prime_factors(order):
        if in_image([order // p * x for x in divisor], inv):
            return [f"{order // p} * {divisor} is already principal"]
    return []
