"""Lie connections on Lie algebra bundles.

A connection is stored chartwise as derivation-valued one-form grids
``omega[chart][*node, axis] in Der(g)`` with the sign convention
``nabla = d + omega`` (so parallel transport solves T' = -omega(v) T).
Curvature is the chartwise R_ij = d_i w_j - d_j w_i + [w_i, w_j]; a
connection is *in accordance* with the structural group (i.e. represents a
coupling) when R lands in the inner span: R_ij = ad(Omega_ij) for some
fiber-valued two-form Omega, recovered here by least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .algebra import LieAlgebra, _inverses, ad, derivation_residuals, inner_projection
from .bundles import Trivialization, pullback_lab, _same_base, _worst_node
from .errors import InputError
from .manifolds import (
    ManifoldMap,
    chart_grids,
    grid_derivative,
    grid_partials,
    overlap_pair,
)
from .tolerances import ACC_TOL, ALG_TOL, GAUGE_TOL, peak


@dataclass(frozen=True)
class ConnectionForm:
    """Per-chart, per-axis grids of derivation matrices over a bundle."""

    bundle: Trivialization
    omega: tuple  # per chart: array (*resolution, mdim, n, n)

    def __post_init__(self):
        n = self.bundle.algebra.dim
        m = self.bundle.manifold
        grids = chart_grids(m, self.omega, (m.dim, n, n), "omega")
        for cid, arr in enumerate(grids):
            if not np.isfinite(arr).all():
                raise InputError(f"omega grid {cid} has non-finite entries")
        object.__setattr__(self, "omega", grids)

    @property
    def algebra(self) -> LieAlgebra:
        return self.bundle.algebra

    @property
    def manifold(self):
        return self.bundle.manifold

    @cached_property
    def omega_leading(self) -> tuple:
        """omega with the grid axes last, per chart (mdim, n, n, *resolution):
        the layout of covariant_partials; read-only, like the grids."""
        grids = []
        for w in self.omega:
            lead = np.ascontiguousarray(np.moveaxis(w, range(self.manifold.dim), range(-self.manifold.dim, 0)))
            lead.flags.writeable = False
            grids.append(lead)
        return tuple(grids)


def zero_connection(bundle: Trivialization) -> ConnectionForm:
    n = bundle.algebra.dim
    m = bundle.manifold
    omega = tuple(
        np.zeros(chart.resolution + (m.dim, n, n)) for chart in m.charts
    )
    return ConnectionForm(bundle, omega)


def covariant_partials(c: ConnectionForm, u: list) -> list:
    """Per chart, the covariant partials (nabla_0 u, ..., nabla_{dim-1} u),
    nabla_i u = d_i u + w_i u, of a fiber field whose components lead and
    whose grid axes trail: u[cid] has shape (n, *batch, *resolution), and so
    has each partial.  (w_i u)_k sums w_kj u_j in the order of j."""
    m = c.manifold
    n = c.algebra.dim
    if len(u) != len(m.charts):
        raise InputError(f"fiber field: {len(u)} grids for {len(m.charts)} charts")
    uu = tuple(np.asarray(grid, dtype=float) for grid in u)
    for cid, (grid, chart) in enumerate(zip(uu, m.charts)):
        if grid.shape[:1] != (n,) or grid.shape[grid.ndim - m.dim :] != chart.resolution:
            raise InputError(
                f"fiber field grid {cid} has shape {grid.shape}, expected ({n}, *batch) + {chart.resolution}"
            )
    out = []
    for grid, w, partials in zip(uu, c.omega_leading, grid_partials(m, uu)):
        # w_i as (n, n, 1 per batch axis, *resolution): one product per j for all k
        w = w.reshape(w.shape[:3] + (1,) * (grid.ndim - 1 - m.dim) + w.shape[3:])
        chart_out = []
        for i, d in enumerate(partials):
            acc = w[i, :, 0] * grid[0]
            for j in range(1, n):
                acc += w[i, :, j] * grid[j]
            chart_out.append(np.add(d, acc, out=acc))
        out.append(tuple(chart_out))
    return out


@dataclass(frozen=True)
class ConnectionReport:
    passed: bool
    max_derivation_residual: float
    max_gauge_residual: float
    worst: str = ""

    def residuals(self) -> dict:
        return {
            "derivation": self.max_derivation_residual,
            "gauge": self.max_gauge_residual,
        }


def validate_connection(c: ConnectionForm, tol: float = ALG_TOL) -> ConnectionReport:
    """Pointwise Leibniz check of every omega value plus the overlap gauge law
    w_beta = tau w_alpha tau^{-1} + tau d(tau^{-1}) through the overlap
    Jacobian, where tau is the section-coordinate change of the bundle
    (within GAUGE_TOL)."""
    located = [(f"chart {cid}", derivation_residuals(c.algebra, grid)) for cid, grid in enumerate(c.omega)]
    max_der = peak(*(res for _, res in located))
    max_gauge = gauge_residual(c)
    passed = max_der <= tol and max_gauge <= GAUGE_TOL
    return ConnectionReport(bool(passed), max_der, max_gauge, _worst_node(located))


def gauge_residual(c: ConnectionForm) -> float:
    m = c.manifold
    defects = []
    for k, o in enumerate(m.overlaps):
        tau = c.bundle.coordinate_change_grid(k)
        tau_inv = _inverses(tau)
        w_alpha, w_beta = overlap_pair(m, o, c.omega)
        for i in range(m.dim):
            lhs = np.einsum("j,...jkl->...kl", o.matrix[:, i], w_beta)
            d_tau_inv = grid_derivative(m.charts[o.alpha], tau_inv, i)
            rhs = tau @ w_alpha[..., i, :, :] @ tau_inv + tau @ d_tau_inv
            defects.append(np.abs(lhs - rhs))
    return peak(*defects)


@dataclass(frozen=True)
class CurvatureData:
    """Chartwise curvature matrices per unordered axis pair (i < j), and their
    minimum-norm split R_ij ~ ad(Omega_ij) + residual (a Frobenius norm),
    nodewise.  R_ji = -R_ij is implied, never stored."""

    pairs: tuple        # ((i, j), ...) with i < j
    r: tuple            # per chart: (*resolution, P, n, n)
    omega_form: tuple   # per chart: (*resolution, P, n)
    residuals: tuple    # per chart: (*resolution, P)


def curvature(c: ConnectionForm) -> CurvatureData:
    """R_ij = d_i w_j - d_j w_i + [w_i, w_j], second-order FD chartwise, with
    its projection onto the inner derivations (``inner_projection``)."""
    m = c.manifold
    n = c.algebra.dim
    pairs = tuple(combinations(range(m.dim), 2))
    grids = []
    for cid, chart in enumerate(m.charts):
        w = c.omega[cid]
        out = np.zeros(chart.resolution + (len(pairs), n, n))
        for p, (i, j) in enumerate(pairs):
            di_wj = grid_derivative(chart, w[..., j, :, :], i)
            dj_wi = grid_derivative(chart, w[..., i, :, :], j)
            comm = w[..., i, :, :] @ w[..., j, :, :] - w[..., j, :, :] @ w[..., i, :, :]
            out[..., p, :, :] = di_wj - dj_wi + comm
        grids.append(out)
    omega_forms, residual_grids = zip(*(inner_projection(c.algebra, grid) for grid in grids))
    return CurvatureData(pairs, tuple(grids), omega_forms, residual_grids)


@dataclass(frozen=True)
class AccordanceResult:
    """Outcome of the coupling condition R = ad(Omega)."""

    passed: bool
    max_residual: float
    curvature: CurvatureData
    center_dim: int


def accordance(c: ConnectionForm, tol: float = ACC_TOL) -> AccordanceResult:
    """Whether curvature's fit R_ij(p) ~ ad(Omega_ij(p)) holds within tol at every node.

    The recovered Omega is unique up to center directions; the minimum-norm
    solution has no center component, and the ambiguity dimension is
    reported.
    """
    curv = curvature(c)
    worst = peak(*curv.residuals)
    return AccordanceResult(bool(worst <= tol), worst, curv, c.algebra.center.shape[1])


def shift_by_inner(c: ConnectionForm, l: list) -> ConnectionForm:
    """nabla' = nabla + [l(X), .], i.e. omega' = omega + ad(l).

    l must transform as a fiber-valued one-form across overlaps (checked
    within GAUGE_TOL).
    """
    m = c.manifold
    l = chart_grids(m, l, (m.dim, c.algebra.dim), "shift field")
    defects = []
    for k, o in enumerate(m.overlaps):
        tau = c.bundle.coordinate_change_grid(k)
        l_alpha, l_beta = overlap_pair(m, o, l)
        lhs = np.einsum("ji,...jk->...ik", o.matrix, l_beta)
        rhs = np.einsum("...ab,...ib->...ia", tau, l_alpha)
        defects.append(np.abs(lhs - rhs))
    worst = peak(*defects)
    if worst > GAUGE_TOL:
        raise InputError(f"shift field is not overlap-covariant (residual {worst:.3e})")
    # Keep ad(l) referenced: `omega + <temporary>` lets numpy write the sum into
    # the temporary, whose fiber axes are transposed in memory.  That layout
    # slows f_map's comb, which copies each axis' lines, and curvature's
    # strided w[..., j, :, :] views.
    inner = [ad(c.algebra, grid) for grid in l]
    return ConnectionForm(c.bundle, tuple(w + a for w, a in zip(c.omega, inner)))


@dataclass(frozen=True)
class CouplingEquivalence:
    passed: bool
    max_residual: float
    l: tuple  # per chart (*res, m, n): recovered inner shift


def coupling_equivalent(
    c: ConnectionForm, c_prime: ConnectionForm, tol: float = ACC_TOL
) -> CouplingEquivalence:
    """Same coupling class: omega' - omega is an inner-valued one-form.

    Nodewise the difference is projected onto span{ad(e_k)}; the recovered
    shift l is returned for inspection (minimum-norm, so center-free).
    """
    if c.bundle is not c_prime.bundle:
        _same_base(c.bundle, c_prime.bundle, "connections")
        if any(np.abs(a - b).max() > ALG_TOL for a, b in zip(c.bundle.frames, c_prime.bundle.frames)):
            raise InputError("connections live over different bundles")
    shifts, residuals = zip(*(inner_projection(c.algebra, b - a) for a, b in zip(c.omega, c_prime.omega)))
    worst = peak(*residuals)
    return CouplingEquivalence(bool(worst <= tol), worst, shifts)


def pullback_connection(c: ConnectionForm, f: ManifoldMap) -> ConnectionForm:
    """omega'_i(p) = sum_j J_ji omega_j(f(p)) over the pulled-back bundle."""
    omega = (np.einsum("ji,...jab->...iab", asg.matrix, w) for asg, w in zip(f.assignments, f.pull(c.omega)))
    return ConnectionForm(pullback_lab(c.bundle, f), tuple(omega))
