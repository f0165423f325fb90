"""Exact-arithmetic engine for the Block Lie algebra B(q) and superalgebra S(q).

Structure-constant brackets over Q or Q(q), half-(super)derivation null
spaces stabilized across nested index windows, transposed Poisson product
verification, and Hom-Lie twisted Jacobi checks.
"""

from .algebra import (EVEN, ODD, AlgebraSpec, BasisIndex, SparseVector,
                      VerificationReport, Window, bracket_basis, bracket_vec,
                      verify_antisymmetry, verify_jacobi)
from .halfder import (ClassificationReport, ConstraintSystem, GradedMap,
                      MapDegree, NullSpaceBasis, build_constraints, builtin_map,
                      check_map, classify, half_derivation_system, null_space,
                      stabilize)
from .scalars import Poly, RatFunc, Rational, Scalar, parse_q, specialize_q
from .specdsl import builtin_algebra, make_algebra, parse_spec, print_spec

__all__ = [
    "EVEN", "ODD", "AlgebraSpec", "BasisIndex", "SparseVector",
    "VerificationReport", "Window", "bracket_basis", "bracket_vec",
    "verify_antisymmetry", "verify_jacobi",
    "ClassificationReport", "ConstraintSystem", "GradedMap", "MapDegree",
    "NullSpaceBasis", "build_constraints", "builtin_map", "check_map",
    "classify", "half_derivation_system", "null_space", "stabilize",
    "Poly", "RatFunc", "Rational", "Scalar", "parse_q", "specialize_q",
    "builtin_algebra", "make_algebra", "parse_spec", "print_spec",
]

__version__ = "0.1.0"
