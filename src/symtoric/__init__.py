"""Exact toric class groups and symbolic power containment checks.

The pipeline: build a strongly convex rational cone from integer rays,
compute the divisor class group of the corresponding affine toric chart
as a Smith normal form cokernel, read off the uniform multiplier (the
group order, equal to the unsigned ray-matrix determinant for simplicial
full cones) and the optimal multiplier (the group exponent), then verify
symbolic-into-ordinary power containments for torus-invariant ideals by
exact lattice computation.  A catalog of du Val singularities ships with
the package, cross-checkable against the toric machinery.
"""

from .class_group import (
    AbelianGroupPresentation,
    DivisorClass,
    class_group_of,
    class_of,
    det_multiplier,
    group_exponent,
    group_order,
    order_of_class,
    presentation_matrix,
)
from .cones import (
    Cone,
    HilbertBasis,
    NotStronglyConvexError,
    SemigroupData,
    UnsupportedConeError,
    Vector,
    dual_cone,
    hilbert_basis,
    in_semigroup,
    make_cone,
    primitive,
    semigroup_data,
    semigroup_member,
)
from .duval import DuValRecord, OutOfCatalogError, cross_check_an, lookup
from .exact_linalg import (
    DimensionError,
    IntegerMatrix,
    SmithDecomposition,
    adjugate,
    determinant,
    smith_normal_form,
)
from .ideals import (
    ContainmentReport,
    LevelCheck,
    MonomialIdeal,
    PureHeightOneIdeal,
    divisor_class,
    find_sharpness_witness,
    ideal_member,
    intersect_valuation_ideals,
    is_principal,
    ordinary_power,
    ray_prime,
    symbolic_power,
    verify_containment,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupPresentation",
    "Cone",
    "ContainmentReport",
    "DimensionError",
    "DivisorClass",
    "DuValRecord",
    "HilbertBasis",
    "IntegerMatrix",
    "LevelCheck",
    "MonomialIdeal",
    "NotStronglyConvexError",
    "OutOfCatalogError",
    "PureHeightOneIdeal",
    "SemigroupData",
    "SmithDecomposition",
    "UnsupportedConeError",
    "Vector",
    "adjugate",
    "class_group_of",
    "class_of",
    "cross_check_an",
    "det_multiplier",
    "determinant",
    "divisor_class",
    "dual_cone",
    "find_sharpness_witness",
    "group_exponent",
    "group_order",
    "hilbert_basis",
    "ideal_member",
    "in_semigroup",
    "intersect_valuation_ideals",
    "is_principal",
    "lookup",
    "make_cone",
    "order_of_class",
    "ordinary_power",
    "presentation_matrix",
    "primitive",
    "ray_prime",
    "semigroup_data",
    "semigroup_member",
    "smith_normal_form",
    "symbolic_power",
    "verify_containment",
]
