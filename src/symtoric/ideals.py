"""Torus-invariant monomial ideals and symbolic power containment checks.

A monomial ideal lives in the dual semigroup of a simplicial full cone,
stored by its minimal lattice-point generators.  Symbolic powers of pure
height one ideals are valuation ideals: a point is in the E-th one exactly
when its pairing with each chosen ray reaches E times its multiplicity.
Once the period m of the divisor class divides E, the E-th is principal.
Ordinary powers are generated by sums of generators; comparing the two
detects whether a multiplier D puts every D*a-th symbolic power inside the
a-th ordinary power.

One reduction on packed pairing keys minimalizes valuation ideals and
ordinary powers.  Every ideal holds its generators' pairing vectors from
construction; a library ideal solves its points when its generators are
first read.  Membership, powers and the sweep read vectors alone: a sweep
solves witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import ge
from typing import Iterable, Iterator, Sequence

from .cones import SemigroupData, Vector, _divisor_period, _lattice_point, _minimal_sums, dot
from .exact_linalg import DimensionError

__all__ = [
    "MonomialIdeal",
    "PureHeightOneIdeal",
    "LevelCheck",
    "ContainmentReport",
    "ray_prime",
    "symbolic_power",
    "ordinary_power",
    "ideal_member",
    "is_principal",
    "intersect_valuation_ideals",
    "divisor_class",
    "verify_containment",
    "find_sharpness_witness",
]


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal with a minimal, lex-sorted generating set.

    ``valuation_bounds`` records, when the ideal was produced as a
    valuation ideal, the (ray index, lower bound) pairs defining it;
    ordinary powers drop it since they are not valuation ideals in
    general.  Equality compares context and generators only.  ``_vectors``
    holds the generators' pairing vectors from construction: ``pairings`` for
    an ideal built from generators, and for a library ideal the ones its
    reduction kept, whose points ``__getattr__`` solves on first read.
    """

    context: SemigroupData
    generators: tuple[Vector, ...]
    valuation_bounds: tuple[tuple[int, int], ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        dim, nrays = self.context.cone.ambient_dim, len(self.context.cone.rays)
        if lengths := {len(g) for g in self.generators} - {dim}:
            raise DimensionError(f"generator length {min(lengths)} != ambient dimension {dim}")
        if bad := [ray for ray, _ in self.valuation_bounds or () if not 0 <= ray < nrays]:
            raise IndexError(f"ray index {bad[0]} out of range for {nrays} rays")
        object.__setattr__(self, "_vectors", self.pairings)

    @cached_property
    def pairings(self) -> tuple[tuple[int, ...], ...]:
        """Each generator's ray pairings, in generator order, computed on
        first use.  Not a field, so equality, hash and repr ignore it and no
        caller can pass it in."""
        return tuple(_pairings(g, self.context) for g in self.generators)

    def __getattr__(self, name: str) -> tuple[Vector, ...]:
        if name != "generators":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        points = (_lattice_point(self.context.cone, row) for row in self._vectors)
        self.__dict__["generators"] = tuple(sorted(points))
        return self.generators


@dataclass(frozen=True)
class PureHeightOneIdeal:
    """Formal intersection of ray primes with multiplicities.

    ``components`` holds (ray index, multiplicity) pairs with distinct
    ray indices and multiplicities >= 1; they are kept sorted by ray.
    """

    context: SemigroupData
    components: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        comps = _checked_components(self.components, len(self.context.cone.rays))
        object.__setattr__(self, "components", comps)

    @cached_property
    def _period(self) -> tuple[int, Vector]:
        """Order m of the divisor class b and the character u with <u, v_j> =
        m * b_j on each ray v_j, solved once; equality, hash and repr ignore it."""
        b = divisor_class(self)
        m, u = _divisor_period(self.context.cone, b)
        if _pairings(u, self.context) != tuple(m * c for c in b):
            raise RuntimeError("the period character does not pair to m times the divisor")
        return m, u


def _checked_components(
    components: Iterable[tuple[int, int]], nrays: int
) -> tuple[tuple[int, int], ...]:
    """(ray index, multiplicity) pairs sorted by ray and checked against
    nrays rays, with no semigroup: the CLI checks before it builds one."""
    comps = tuple(sorted(tuple(c) for c in components))
    if not comps:
        raise ValueError("at least one ray component is required")
    seen = set()
    for ray_index, mult in comps:
        if not 0 <= ray_index < nrays:
            raise IndexError(f"ray index {ray_index} out of range for {nrays} rays")
        if mult < 1:
            raise ValueError(f"multiplicity {mult} on ray {ray_index} must be >= 1")
        if ray_index in seen:
            raise ValueError(f"ray index {ray_index} appears twice")
        seen.add(ray_index)
    return comps


def _pairings(point: Vector, data: SemigroupData) -> tuple[int, ...]:
    return tuple(dot(point, ray) for ray in data.cone.rays)


def _library_ideal(
    data: SemigroupData, bounds: tuple[tuple[int, int], ...] | None, vectors: tuple[Vector, ...]
) -> MonomialIdeal:
    """Ideal holding a reduction's kept pairing vectors alone; its rays are in
    range, so it skips ``__post_init__``.  ``generators`` is solved on first read."""
    ideal = object.__new__(MonomialIdeal)
    ideal.__dict__.update(context=data, valuation_bounds=bounds, _vectors=vectors)
    return ideal


def _in_ideal(row: Sequence[int], ideal: MonomialIdeal) -> bool:
    """Whether a pairing vector dominates one of the ideal's, so its monomial lies in the ideal."""
    return any(all(map(ge, row, low)) for low in ideal._vectors)


def _valuation_ideal(data: SemigroupData, bounds: dict[int, int]) -> MonomialIdeal:
    """The valuation ideal {m in the semigroup : <m, ray_i> >= bounds[i]},
    holding the pairing vectors of its minimal generators in key order.

    Every semigroup element is a parallelotope point y plus a nonnegative
    combination of the dual rays.  Dual ray w_i, the period character of
    ray i's divisor, is the one pairing positively with ray i: it raises
    that pairing alone, by the class's order c_i = <w_i, ray_i> > y_i.  So
    the minimal generators are the minimal ones among the |det W| points y
    raised along w_i, for each bounded ray i, to the least pairing
    b_i + (y_i - b_i) mod c_i >= b_i: their pairing columns are reduced."""
    columns = list(data._columns)
    for i, bound in bounds.items():
        if bound > 0:
            c = max(dot(w, data.cone.rays[i]) for w in data.dual_rays)
            columns[i] = [bound + (p - bound) % c for p in columns[i]]
    return _library_ideal(data, tuple(sorted(bounds.items())), _minimal_sums(columns, 1))


def ray_prime(data: SemigroupData, ray_index: int) -> MonomialIdeal:
    """Prime of the divisor on one ray: monomials with positive pairing
    there, the first symbolic power of that ray's valuation ideal."""
    return symbolic_power(PureHeightOneIdeal(data, ((ray_index, 1),)), 1)


def symbolic_power(q: PureHeightOneIdeal, power: int) -> MonomialIdeal:
    """E-th symbolic power: pairing on each component ray at least E times
    its multiplicity.

    Once q^(m) = fR is principal, q^(ma) = f^a R: the principal-power
    argument behind the uniform multiplier.  Here m is the order of q's
    divisor class and f = chi^u, u of ``q._period``, pairs to m b, b the
    multiplicities on the rays.  So a power that m divides holds the one
    vector E b; any other is reduced at its bounds, as an intersection is.
    """
    if power < 1:
        raise ValueError(f"symbolic power must be >= 1, got {power}")
    bounds = {ray: power * mult for ray, mult in q.components}
    if power % q._period[0]:
        return _valuation_ideal(q.context, bounds)
    vector = tuple(power * c for c in divisor_class(q))
    return _library_ideal(q.context, tuple(bounds.items()), (vector,))


def ordinary_power(ideal: MonomialIdeal, power: int) -> MonomialIdeal:
    """a-th ordinary power: the a-fold sums of the generators, minimalized
    by ``cones._minimal_sums`` from the generators' pairing vectors, and
    built from the vectors it keeps.  A generator with a negative pairing
    lies outside the dual semigroup and raises ValueError."""
    if power < 1:
        raise ValueError(f"ordinary power must be >= 1, got {power}")
    columns = list(zip(*ideal._vectors))
    if min(map(min, columns), default=0) < 0:
        raise ValueError("ordinary power needs generators in the dual semigroup")
    return _library_ideal(ideal.context, None, _minimal_sums(columns, power))


def ideal_member(point: Sequence[int], ideal: MonomialIdeal) -> bool:
    """Membership: the point's ray pairings dominate some generator's
    componentwise, read from the ideal's stored vectors."""
    data = ideal.context
    if len(point) != data.cone.ambient_dim:
        raise DimensionError(
            f"point length {len(point)} != ambient dimension {data.cone.ambient_dim}"
        )
    return _in_ideal(_pairings(point, data), ideal)


def is_principal(ideal: MonomialIdeal) -> bool:
    return len(ideal._vectors) == 1


def intersect_valuation_ideals(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    """Intersection of valuation ideals, computed on their bound descriptions.

    Bounds are exact and intersect by taking the larger bound per ray,
    after which minimal generators are recomputed from scratch.
    """
    if not ideals:
        raise ValueError("nothing to intersect")
    data = ideals[0].context
    merged: dict[int, int] = {}
    for ideal in ideals:
        if ideal.context != data:
            raise ValueError("ideals live in different semigroups")
        if ideal.valuation_bounds is None:
            raise ValueError("intersection needs ideals with a recorded valuation description")
        for ray, bound in ideal.valuation_bounds:
            merged[ray] = max(bound, merged.get(ray, 0))
    return _valuation_ideal(data, merged)


def divisor_class(q: PureHeightOneIdeal) -> tuple[int, ...]:
    """Ray-coefficient vector of the divisor underlying q."""
    coeffs = [0] * len(q.context.cone.rays)
    for ray, mult in q.components:
        coeffs[ray] = mult
    return tuple(coeffs)


@dataclass(frozen=True)
class LevelCheck:
    """Containment verdict at one power level."""

    level: int
    passed: bool
    witness: Vector | None


@dataclass(frozen=True)
class ContainmentReport:
    """Per-level results of a symbolic-into-ordinary containment sweep."""

    multiplier: int
    levels: tuple[LevelCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.levels)


def _level_checks(q: PureHeightOneIdeal, multiplier: int, max_level: int) -> Iterator[LevelCheck]:
    """Verdicts for symbolic_power(q, D*a) inside ordinary_power(q, a), a = 1..max_level.

    Generator containment suffices: every other member is a semigroup
    translate of a generator and ordinary powers absorb translation.  The
    symbolic power's vectors are tested against the ordinary power's, and
    only the failing ones are solved: the lex-least of their points is the
    level's witness."""
    if multiplier < 1:
        raise ValueError(f"multiplier must be >= 1, got {multiplier}")
    if max_level < 1:
        raise ValueError(f"max level must be >= 1, got {max_level}")
    base = symbolic_power(q, 1)
    for a in range(1, max_level + 1):
        sym = symbolic_power(q, multiplier * a)
        ordinary = ordinary_power(base, a)
        failing = [row for row in sym._vectors if not _in_ideal(row, ordinary)]
        witness = min((_lattice_point(q.context.cone, row) for row in failing), default=None)
        yield LevelCheck(a, witness is None, witness)


def verify_containment(q: PureHeightOneIdeal, multiplier: int, max_level: int) -> ContainmentReport:
    """Check symbolic_power(q, D*a) inside ordinary_power(q, a) for a = 1..max_level."""
    return ContainmentReport(multiplier, tuple(_level_checks(q, multiplier, max_level)))


def find_sharpness_witness(
    q: PureHeightOneIdeal, candidate: int, max_level: int
) -> tuple[int, Vector] | None:
    """Smallest level where the candidate multiplier fails, with a monomial
    witnessing the failure; None when no failure shows up to max_level."""
    first = next((c for c in _level_checks(q, candidate, max_level) if not c.passed), None)
    return None if first is None else (first.level, first.witness)
