"""Default tolerances shared across the library.

Double-precision algebraic identities hold to ~1e-12, so floor-level checks
use ALG_TOL.  Data that went through an ODE integrator or a second-order
finite-difference stencil carries larger errors and is judged against the
FD-limited tolerances instead.  Every residual-vs-tolerance verdict reduces
its residuals with ``peak``, so a NaN can never read as a small residual.
"""

import math

import numpy as np

# Exact-arithmetic-grade identities (structure constants, SVD rank cuts).
ALG_TOL = 1e-9

# Inner-membership decisions: log projections, of a and of its shifted a exp(ad y_j).
INNER_TOL = 1e-6

# Gauge-compatibility residuals on overlaps (FD-limited).
GAUGE_TOL = 1e-4

# Curvature-vs-ad least squares; FD derivatives participate, so the budget
# is FD-limited.
ACC_TOL = 1e-4

# Parallel transport (RK4 with the default 64 steps).
TRANS_TOL = 1e-6

# Default ODE step count for transports along chart rays.
ODE_STEPS = 64

# is_inner's gate on a caller's matrix (sweeps gate their own ratios): TRANS_TOL's room.
INNER_AUT_TOL = 1e-6

# verify_g_well_defined's frame-ratio gate: its structures are typically transported.
WELL_DEFINED_AUT_TOL = 1e-6

# verify_inverse's f(g(T)) ~ T gate: FD stencils, then RK4, so 10x the transport budget.
ROUNDTRIP_AUT_TOL = 1e-5

# g_map's validate_lab gate: frames saved from RK4 transport need room over ALG_TOL.
G_MAP_LAB_TOL = 100 * ALG_TOL

# axioms' skew gate: the bracket is antisymmetric by construction, so round-off only.
SKEW_TOL = 1e-12

# axioms' Leibniz gate: the anchored rule carries the grids' FD error, the ACC_TOL budget.
LEIBNIZ_TOL = 1e-4


def peak(*arrays) -> float:
    """Largest entry over all arrays, 0.0 when they are empty; +inf as soon
    as any entry is NaN, so a NaN residual never passes a tolerance."""
    highs = [a.max() for a in (np.asarray(x, dtype=float) for x in arrays) if a.size]
    top = np.max(highs, initial=0.0)  # NaN-propagating, unlike Python's max
    return math.inf if np.isnan(top) else float(top)
