"""Exact toric class groups and symbolic power containment checks.

The pipeline: build a strongly convex rational cone from integer rays,
compute the divisor class group of the corresponding affine toric chart
as a Smith normal form cokernel, read off the uniform multiplier (the
group order, equal to the unsigned ray-matrix determinant for simplicial
full cones) and the optimal multiplier (the group exponent), then verify
symbolic-into-ordinary power containments for torus-invariant ideals by
exact lattice computation.  A catalog of du Val singularities ships with
the package, cross-checkable against the toric machinery.

Each layer module's ``__all__`` is its public list; the package
re-exports exactly those names.
"""

from .class_group import *
from .cones import *
from .duval import *
from .exact_linalg import *
from .ideals import *

__version__ = "0.1.0"

__all__ = (class_group.__all__ + cones.__all__ + duval.__all__
           + exact_linalg.__all__ + ideals.__all__)
