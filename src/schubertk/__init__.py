"""Restrictions of Schubert structure-sheaf classes to torus fixed points in
the equivariant K-theory of Grassmannians and maximal isotropic Grassmannians,
with Hilbert series, Hilbert polynomials and multiplicities at fixed points.

Three backends compute every class and cross-check each other: excited Young
diagrams, set-valued tableaux, and 0-Hecke subsequence enumeration.
"""

from .weyl import (
    RootSystem,
    WeylElement,
    apply,
    inverse,
    is_minimal_rep,
    length,
    mult,
    parse_window,
    reduced_word,
    simple_reflection,
    simple_roots,
)
from .hecke import hecke_subsequences
from .shapes import (
    bd_identify_inverse,
    contains,
    partition_of,
    perm_of,
    perm_of_strict,
    strict_partition_of,
)
from .diagrams import BoxSet, enumerate_eyd, reading_word, reflection_tableau
from .tableaux import SetValuedTableau, enumerate_svt, f_map
from .ring import GradedSeries, LaurentPoly, specialize_zero
from .restriction import (
    HilbertData,
    KClass,
    check_backends,
    graded_character,
    hilbert_data,
    hilbert_polynomial_coeffs,
    hilbert_polynomial_value,
    pullback,
    pullback_b_via_d,
    r_values,
    tangent_weights,
)

__all__ = [
    # weyl
    "RootSystem", "WeylElement", "apply", "inverse", "is_minimal_rep", "length",
    "mult", "parse_window", "reduced_word", "simple_reflection", "simple_roots",
    # hecke
    "hecke_subsequences",
    # shapes
    "bd_identify_inverse", "contains", "partition_of", "perm_of", "perm_of_strict",
    "strict_partition_of",
    # diagrams
    "BoxSet", "enumerate_eyd", "reading_word", "reflection_tableau",
    # tableaux
    "SetValuedTableau", "enumerate_svt", "f_map",
    # ring
    "GradedSeries", "LaurentPoly", "specialize_zero",
    # restriction
    "HilbertData", "KClass", "check_backends", "graded_character", "hilbert_data",
    "hilbert_polynomial_coeffs", "hilbert_polynomial_value", "pullback",
    "pullback_b_via_d", "r_values", "tangent_weights",
]

__version__ = "0.1.0"
