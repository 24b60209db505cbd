"""Torus-invariant monomial ideals and symbolic power containment checks.

A monomial ideal lives in the dual semigroup of a simplicial full cone,
stored by its minimal lattice-point generators.  Symbolic powers of pure
height one ideals are valuation ideals: a point is in the E-th one exactly
when its pairing with each chosen ray reaches E times its multiplicity.
They repeat with the period of the divisor class: the (E+m)-th is the E-th
translated by the period character.  Ordinary powers are generated by
sums of generators; comparing the two detects whether a multiplier D puts
every D*a-th symbolic power inside the a-th ordinary power.

Every ideal computes its generators' pairing vectors once, on first
use, and membership and ordinary powers read them there; an ordinary
power's come from the packed keys it compares sums by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from operator import ge
from typing import Iterable, Iterator, Sequence

from .cones import SemigroupData, Vector, _divisor_period, dot
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
    general.  Equality compares context and generators only.
    """

    context: SemigroupData
    generators: tuple[Vector, ...]
    valuation_bounds: tuple[tuple[int, int], ...] | None = field(default=None, compare=False)

    @cached_property
    def pairings(self) -> tuple[tuple[int, ...], ...]:
        """Each generator's ray pairings, in generator order, computed from
        the generators on first use (``ordinary_power`` fills the cache
        from its keys); not a field, so equality, hash and repr ignore it
        and no caller can pass it in."""
        return tuple(_pairings(g, self.context) for g in self.generators)


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


def _minimalize(candidates: Iterable[tuple[tuple[int, ...], Vector]]) -> tuple[Vector, ...]:
    """Lex-sorted points of the (pairing vector, point) candidates that are
    no semigroup translate of another candidate.

    Translation by a semigroup element only raises ray pairings, so p is
    redundant exactly when some other candidate's pairings are dominated
    by p's componentwise.  Distinct points have distinct pairing vectors,
    so a dominating candidate has a strictly smaller pairing sum.  Taken in
    order of that sum, each candidate is tested only against those already
    kept (the degree-sorted reduction of Bruns and Ichim): a dropped one is
    dominated by a kept one, and domination is transitive.
    """
    kept: list[tuple[tuple[int, ...], Vector]] = []
    for pairs, point in sorted(set(candidates), key=lambda c: sum(c[0])):
        if not any(all(map(ge, pairs, low)) for low, _ in kept):
            kept.append((pairs, point))
    return tuple(sorted(point for _, point in kept))


def _minimal_generators(data: SemigroupData, bounds: dict[int, int]) -> tuple[Vector, ...]:
    """Minimal generators of {m in the semigroup : <m, ray_i> >= bounds[i]}.

    Every semigroup element is a parallelotope point y plus a nonnegative
    combination of the dual rays, and dual ray w_i, the period character of
    ray i's divisor, raises the pairing with ray i alone, by that class's
    order c_i.  So the minimal generators are the minimal ones among the
    |det W| points y shifted along w_i for each bounded ray i by the least
    k_i = max(0, ceil((b_i - y_i) / c_i)) that meets the bound b_i.
    """
    n = len(data.cone.rays)
    shifts = [
        (i, bound, *_divisor_period(data.cone, [int(j == i) for j in range(n)]))
        for i, bound in bounds.items()
    ]
    candidates = []
    for pairs, point in data.parallelotope:
        for i, bound, c, w in shifts:
            k = -((pairs[i] - bound) // c)
            if k > 0:
                pairs = pairs[:i] + (pairs[i] + k * c,) + pairs[i + 1 :]
                point = tuple(a + k * b for a, b in zip(point, w))
        candidates.append((pairs, point))
    return _minimalize(candidates)


def ray_prime(data: SemigroupData, ray_index: int) -> MonomialIdeal:
    """Prime of the divisor on one ray: monomials with positive pairing
    there, the first symbolic power of that ray's valuation ideal."""
    return symbolic_power(PureHeightOneIdeal(data, ((ray_index, 1),)), 1)


def _period(q: PureHeightOneIdeal) -> tuple[int, Vector]:
    """Order m of q's divisor class b and the character u with
    <u, v_j> = m * b_j on every ray v_j, from ``_divisor_period``."""
    b = divisor_class(q)
    m, u = _divisor_period(q.context.cone, b)
    if _pairings(u, q.context) != tuple(m * c for c in b):
        raise RuntimeError("the period character does not pair to m times the divisor")
    return m, u


def symbolic_power(q: PureHeightOneIdeal, power: int) -> MonomialIdeal:
    """E-th symbolic power: pairing on each component ray at least E times
    its multiplicity.

    Symbolic powers are periodic up to translation.  Once q^(m) = fR is
    principal, q^(E+m) = f q^(E) for every E >= 0, with q^(0) = R: the
    principal-power argument behind the uniform multiplier.  Here m is the
    order of q's divisor class and f the monomial chi^u of ``_period``,
    and adding u shifts the pairing on each ray by exactly m times its
    multiplicity.  So q^(E) is q^(E mod m) translated by (E // m) u, a
    single generator when m divides E; a translation keeps lex order.
    """
    if power < 1:
        raise ValueError(f"symbolic power must be >= 1, got {power}")
    bounds = {ray: power * mult for ray, mult in q.components}
    m, u = _period(q)
    k, r = divmod(power, m)
    if not r:
        gens = (tuple(k * c for c in u),)
    else:
        gens = _minimal_generators(q.context, {ray: r * mult for ray, mult in q.components})
        if k:  # below the period the built generators are returned, not copies
            gens = tuple(tuple(a + k * c for a, c in zip(g, u)) for g in gens)
    return MonomialIdeal(q.context, gens, tuple(sorted(bounds.items())))


def ordinary_power(ideal: MonomialIdeal, power: int) -> MonomialIdeal:
    """a-th ordinary power: minimalized a-fold sums of the generators.

    The sums are compared through packed keys.  A generator's pairing
    vector, nonnegative in the dual semigroup, becomes one integer with a
    field of ``width`` bits per ray (room for ``power`` times the largest
    pairing, plus a guard bit on top) and its pairing sum in a last field
    above them.  Pairings are linear, so the key of a sum of generators is
    the sum of their keys, and sorted keys are sums in order of pairing
    sum, the order ``_minimalize`` reduces in.  A key has every ray field
    at least that of ``low`` exactly when
    ``((key | guard) - low) & guard == guard``: with every guard bit set
    first, no field borrows from the next, and a field keeps its guard bit
    exactly when it did not go below zero.  Points are summed, and pairing
    vectors unpacked from the keys, only for the minimal sums.  A
    generator with a negative pairing lies outside the dual semigroup and
    raises ValueError.
    """
    if power < 1:
        raise ValueError(f"ordinary power must be >= 1, got {power}")
    data = ideal.context
    rows = ideal.pairings
    if any(p < 0 for row in rows for p in row):
        raise ValueError("ordinary power needs generators in the dual semigroup")
    top = power * max((p for row in rows for p in row), default=0)
    width = top.bit_length() + 1
    fields = range(0, width * len(data.cone.rays), width)
    keys = [
        sum(p << shift for p, shift in zip(row, fields)) + (sum(row) << len(fields) * width)
        for row in rows
    ]
    guard = sum(1 << (shift + width - 1) for shift in fields)
    # equal keys are equal pairing vectors, hence equal points
    combos = dict(
        zip(
            map(sum, combinations_with_replacement(keys, power)),
            combinations_with_replacement(ideal.generators, power),
        )
    )
    kept: list[int] = []
    for key in sorted(combos):
        high = key | guard
        for low in kept:
            if (high - low) & guard == guard:
                break
        else:
            kept.append(key)
    mask = (1 << width) - 1
    minimal = sorted(
        (tuple(map(sum, zip(*combos[key]))), tuple(key >> shift & mask for shift in fields))
        for key in kept
    )
    result = MonomialIdeal(data, tuple(g for g, _ in minimal))
    # the keys hold the sums' pairing vectors: fill the cache from them
    result.__dict__["pairings"] = tuple(row for _, row in minimal)
    return result


def ideal_member(point: Sequence[int], ideal: MonomialIdeal) -> bool:
    """Membership: the point's ray pairings dominate some generator's
    componentwise, read from ``ideal.pairings``."""
    data = ideal.context
    if len(point) != data.cone.ambient_dim:
        raise DimensionError(
            f"point length {len(point)} != ambient dimension {data.cone.ambient_dim}"
        )
    pairs = _pairings(point, data)
    return any(all(map(ge, pairs, low)) for low in ideal.pairings)


def is_principal(ideal: MonomialIdeal) -> bool:
    return len(ideal.generators) == 1


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
    gens = _minimal_generators(data, merged)
    return MonomialIdeal(data, gens, tuple(sorted(merged.items())))


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
    first symbolic generator failing membership is the level's witness.
    """
    base = symbolic_power(q, 1)
    for a in range(1, max_level + 1):
        sym = symbolic_power(q, multiplier * a)
        ordinary = ordinary_power(base, a)
        witness = next(
            (g for g in sym.generators if not ideal_member(g, ordinary)), None
        )
        yield LevelCheck(a, witness is None, witness)


def verify_containment(q: PureHeightOneIdeal, multiplier: int, max_level: int) -> ContainmentReport:
    """Check symbolic_power(q, D*a) inside ordinary_power(q, a) for a = 1..max_level."""
    if multiplier < 1:
        raise ValueError(f"multiplier must be >= 1, got {multiplier}")
    if max_level < 1:
        raise ValueError(f"max level must be >= 1, got {max_level}")
    return ContainmentReport(multiplier, tuple(_level_checks(q, multiplier, max_level)))


def find_sharpness_witness(
    q: PureHeightOneIdeal, candidate: int, max_level: int
) -> tuple[int, Vector] | None:
    """Smallest level where the candidate multiplier fails, with a monomial
    witnessing the failure; None when no failure shows up to max_level."""
    if candidate < 1:
        raise ValueError(f"candidate multiplier must be >= 1, got {candidate}")
    if max_level < 1:
        raise ValueError(f"max level must be >= 1, got {max_level}")
    failures = (c for c in _level_checks(q, candidate, max_level) if not c.passed)
    first = next(failures, None)
    return None if first is None else (first.level, first.witness)
