"""Couplings between Lie algebra bundles and tangent bundles, at desk scale.

The library makes the classification machinery for transitive Lie algebroids
computable on small gridded atlases: a finite-dimensional Lie algebra kernel
(Der, Aut, Inn, Out decisions), discretized manifolds and Lie algebra
bundles, Lie connections with the curvature-vs-inner-span coupling check,
and the mutually inverse maps between couplings and structures that are
continuous into the discretely-quotiented automorphism group.
"""

__version__ = "0.1.0"

from .algebra import (
    InnerVerdict,
    LieAlgebra,
    ad,
    bracket,
    derivations_basis,
    is_inner,
    validate_algebra,
)
from .algebroid import AlgebroidSection, algebroid_bracket, axiom_report
from .bundles import (
    DeltaReport,
    Trivialization,
    check_delta_continuity,
    pullback_lab,
    reference_trivialization,
    trivializations_equivalent,
    validate_lab,
)
from .connections import (
    ConnectionForm,
    accordance,
    coupling_equivalent,
    curvature,
    pullback_connection,
    shift_by_inner,
    validate_connection,
    zero_connection,
)
from .correspondence import (
    f_map,
    g_map,
    verify_g_well_defined,
    verify_inverse,
)
from .errors import ComputationError, CoverageError, InputError, PreconditionError
from .manifolds import (
    ChartedManifold,
    ManifoldMap,
    build_manifold,
    partition_of_unity,
)

__all__ = [
    "AlgebroidSection",
    "ChartedManifold",
    "ComputationError",
    "ConnectionForm",
    "CoverageError",
    "DeltaReport",
    "InnerVerdict",
    "InputError",
    "LieAlgebra",
    "ManifoldMap",
    "PreconditionError",
    "Trivialization",
    "accordance",
    "ad",
    "algebroid_bracket",
    "axiom_report",
    "bracket",
    "build_manifold",
    "check_delta_continuity",
    "coupling_equivalent",
    "curvature",
    "derivations_basis",
    "f_map",
    "g_map",
    "is_inner",
    "partition_of_unity",
    "pullback_connection",
    "pullback_lab",
    "reference_trivialization",
    "shift_by_inner",
    "trivializations_equivalent",
    "validate_algebra",
    "validate_connection",
    "validate_lab",
    "verify_g_well_defined",
    "verify_inverse",
    "zero_connection",
]
