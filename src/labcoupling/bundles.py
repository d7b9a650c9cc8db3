"""Lie algebra bundles over charted manifolds.

A bundle is presented by per-chart frame fields: at each grid node an
automorphism-valued matrix identifying the ambient fiber coordinates with the
model algebra.  Transitions are derived from frames (never stored
independently), compared across overlaps, and their classes are probed with
the inner-membership kernel: continuity into the discretely-quotiented
automorphism group means the outer class is locally constant, which the
checks realize nodewise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    LieAlgebra,
    automorphism_residuals,
    derivation_residuals,
    inner_log_residuals,
    is_inner,
)
from .errors import InputError
from .manifolds import ChartedManifold, ManifoldMap, interpolate, overlap_pair, region_slices
from .tolerances import ALG_TOL, INNER_TOL, TRANS_TOL, peak


@dataclass(frozen=True)
class Trivialization:
    """A local-trivialization structure on the bundle: per-chart frames."""

    algebra: LieAlgebra
    manifold: ChartedManifold
    frames: tuple  # per chart: array (*resolution, n, n)

    def __post_init__(self):
        n = self.algebra.dim
        frames = []
        if len(self.frames) != len(self.manifold.charts):
            raise InputError("one frame grid per chart is required")
        for cid, grid in enumerate(self.frames):
            arr = np.asarray(grid, dtype=float)
            expected = self.manifold.charts[cid].resolution + (n, n)
            if arr.shape != tuple(expected):
                raise InputError(f"frame grid {cid} has shape {arr.shape}, expected {expected}")
            if not np.isfinite(arr).all():
                raise InputError(f"frame grid {cid} has non-finite entries")
            frames.append(arr)
        object.__setattr__(self, "frames", tuple(frames))

    def transition_grid(self, overlap_index: int) -> np.ndarray:
        """Transition matrices phi_beta phi_alpha^{-1} on the overlap's alpha nodes."""
        o = self.manifold.overlaps[overlap_index]
        f_alpha, f_beta = overlap_pair(self.manifold, o, self.frames)
        return f_beta @ np.linalg.inv(f_alpha)

    def coordinate_change_grid(self, overlap_index: int) -> np.ndarray:
        """Section-coordinate change alpha -> beta: phi_beta^{-1} phi_alpha."""
        o = self.manifold.overlaps[overlap_index]
        f_alpha, f_beta = overlap_pair(self.manifold, o, self.frames)
        return np.linalg.inv(f_beta) @ f_alpha


def reference_trivialization(algebra: LieAlgebra, manifold: ChartedManifold) -> Trivialization:
    """The identity-frame structure (the bundle's own ambient coordinates)."""
    n = algebra.dim
    frames = [
        np.broadcast_to(np.eye(n), chart.resolution + (n, n)).copy()
        for chart in manifold.charts
    ]
    return Trivialization(algebra, manifold, tuple(frames))


@dataclass(frozen=True)
class LabReport:
    passed: bool
    max_frame_residual: float
    max_transition_residual: float
    max_cocycle_residual: float
    worst: str = ""

    def residuals(self) -> dict:
        return {
            "frame_automorphism": self.max_frame_residual,
            "transition_automorphism": self.max_transition_residual,
            "cocycle": self.max_cocycle_residual,
        }


def validate_lab(t: Trivialization, tol: float = ALG_TOL) -> LabReport:
    """Check frames and derived transitions are automorphisms and the cocycle
    identity holds on triple overlaps (within 10*tol).

    A singular frame (|det| <= ALG_TOL) has residual +inf and fails the check
    outright: no transition is formed, and the transition and cocycle
    residuals read +inf as well."""
    g = t.algebra
    frames = []
    for cid, grid in enumerate(t.frames):
        frames.append((f"frame chart {cid}", np.where(_singular(grid), np.inf, automorphism_residuals(g, grid))))
    max_frame = peak(*(res for _, res in frames))
    if math.isinf(max_frame):
        return LabReport(False, max_frame, math.inf, math.inf, _worst_node(frames))
    grids = [t.transition_grid(k) for k in range(len(t.manifold.overlaps))]
    transitions = [
        (f"transition overlap {k} region", automorphism_residuals(g, grid))
        for k, grid in enumerate(grids)
    ]
    max_trans = peak(*(res for _, res in transitions))
    max_cocycle = _cocycle_residual(t, grids)
    passed = max_frame <= tol and max_trans <= tol and max_cocycle <= 10 * tol
    return LabReport(bool(passed), max_frame, max_trans, max_cocycle, _worst_node(frames + transitions))


def _singular(frames: np.ndarray) -> np.ndarray:
    """Nodes whose frame is not invertible: |det| <= ALG_TOL."""
    return np.abs(np.linalg.det(frames)) <= ALG_TOL


def _worst_node(located: list) -> str:
    """Where the largest residual sits, as "<label> node <index>", over
    (label, residual grid) pairs; the first grid wins a tie."""
    if not located:
        return ""
    label, res = located[int(np.argmax([peak(res) for _, res in located]))]
    node = np.unravel_index(np.argmax(res), res.shape)
    return f"{label} node {tuple(int(i) for i in node)}"


def _cocycle_residual(t: Trivialization, grids: list) -> float:
    """Largest cocycle defect on triple overlaps, from validate_lab's transition grids."""
    m = t.manifold
    defects = []
    n = t.algebra.dim

    @functools.cache
    def embedded(k: int) -> np.ndarray:
        return _embed_on_chart(t, k, grids[k])

    for k1, o1 in enumerate(m.overlaps):
        for k2, o2 in enumerate(m.overlaps):
            if o2.alpha != o1.beta or o2.beta == o1.alpha:
                continue
            for k3, o3 in enumerate(m.overlaps):
                if (o3.alpha, o3.beta) != (o1.alpha, o2.beta):
                    continue
                chart = m.charts[o1.alpha]
                sl = region_slices(chart, o1.region)
                pts = chart.grid_points()[sl].reshape(-1, m.dim)
                mid = o1.apply(pts)
                mask = o2.region_contains(mid) & o3.region_contains(pts)
                if not mask.any():
                    continue
                t1 = grids[k1].reshape(-1, n, n)[mask]
                t2 = interpolate(m.charts[o2.alpha], embedded(k2), mid[mask])
                t3 = interpolate(chart, embedded(k3), pts[mask])
                defects.append(np.abs(t2 @ t1 - t3))
    return peak(*defects)


def _embed_on_chart(t: Trivialization, overlap_index: int, grid: np.ndarray) -> np.ndarray:
    """An overlap's transition grid embedded into its alpha chart's full grid
    (identity outside the region) so it can be interpolated positionally."""
    o = t.manifold.overlaps[overlap_index]
    chart = t.manifold.charts[o.alpha]
    n = t.algebra.dim
    full = np.broadcast_to(np.eye(n), chart.resolution + (n, n)).copy()
    full[region_slices(chart, o.region)] = grid
    return full


@dataclass(frozen=True)
class VerdictGroup:
    scope: str
    max_inner_residual: float
    inner: int
    outer: int
    undecided: int


@dataclass(frozen=True)
class DeltaReport:
    """Outcome of a discrete-quotient continuity sweep.

    passed means every probed ratio was certified inner; any undecided
    verdict clears passed and raises the (distinct) undecided flag, which is
    an honest "could not decide", not a refutation.
    """

    passed: bool
    undecided: bool
    groups: tuple
    max_inner_residual: float
    max_aut_residual: float = 0.0

    def counts(self) -> dict:
        return {
            "inner": sum(x.inner for x in self.groups),
            "outer": sum(x.outer for x in self.groups),
            "undecided": sum(x.undecided for x in self.groups),
        }


def _verdict_sweep(
    g: LieAlgebra, mats: np.ndarray, scope: str, inner_tol: float, aut_tol: float
) -> VerdictGroup:
    """Classify a batch of automorphisms as inner/outer/undecided.

    Every matrix goes through the batched principal-log projection (the rule
    of is_inner's log route); only those without a real principal log, or
    whose log is not a derivation, fall back to the scalar is_inner.
    """
    mats = mats.reshape(-1, g.dim, g.dim)
    aut = automorphism_residuals(g, mats)
    if peak(aut) > aut_tol:
        raise InputError(f"{scope}: ratio is not an automorphism within {aut_tol:.1e}")
    resid, logs, ok = inner_log_residuals(g, mats)
    inner_mask = ok & (resid <= inner_tol)
    der = derivation_residuals(g, logs)
    outer_mask = ok & ~inner_mask & (der <= ALG_TOL)
    counts = {"inner": int(inner_mask.sum()), "outer": int(outer_mask.sum()), "undecided": 0}
    decided = inner_mask | outer_mask
    scalar = [is_inner(g, a, inner_tol=inner_tol, aut_tol=aut_tol) for a in mats[~decided]]
    for v in scalar:
        counts[v.verdict] += 1
    max_res = peak(resid[decided], [v.residual for v in scalar])
    return VerdictGroup(scope, max_res, counts["inner"], counts["outer"], counts["undecided"])


def check_delta_continuity(
    t: Trivialization, inner_tol: float = INNER_TOL, aut_tol: float = TRANS_TOL
) -> DeltaReport:
    """Per overlap, test that every transition agrees with the base node's
    transition up to an inner automorphism (constant outer class on the
    connected overlap region).  A singular frame (|det| <= ALG_TOL) anywhere
    fails the sweep with residuals +inf, and nothing is inverted."""
    if any(_singular(grid).any() for grid in t.frames):
        return DeltaReport(False, False, (), math.inf, math.inf)
    g = t.algebra
    groups = []
    for k, o in enumerate(t.manifold.overlaps):
        grid = t.transition_grid(k).reshape(-1, g.dim, g.dim)
        ratios = grid @ np.linalg.inv(grid[0])
        groups.append(
            _verdict_sweep(g, ratios, f"overlap {k} ({o.alpha}->{o.beta})", inner_tol, aut_tol)
        )
    undecided = any(x.undecided for x in groups)
    passed = all(x.outer == 0 and x.undecided == 0 for x in groups)
    max_res = peak([x.max_inner_residual for x in groups])
    return DeltaReport(bool(passed), bool(undecided), tuple(groups), max_res)


def _spanning_tree_edges(shape: tuple) -> tuple:
    """Row-major spanning tree of a grid: along the last axis within rows,
    first-column spine along the remaining axes."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    edges_a = []
    edges_b = []
    last = len(shape) - 1
    for axis in range(len(shape)):
        take_a = [slice(None)] * len(shape)
        take_b = [slice(None)] * len(shape)
        take_a[axis] = slice(None, -1)
        take_b[axis] = slice(1, None)
        if axis != last:
            for later in range(axis + 1, len(shape)):
                take_a[later] = slice(0, 1)
                take_b[later] = slice(0, 1)
        edges_a.append(idx[tuple(take_a)].ravel())
        edges_b.append(idx[tuple(take_b)].ravel())
    return np.concatenate(edges_a), np.concatenate(edges_b)


def trivializations_equivalent(
    t: Trivialization,
    t_prime: Trivialization,
    inner_tol: float = INNER_TOL,
    aut_tol: float = ALG_TOL,
) -> DeltaReport:
    """Equivalence of two structures over the same cover: the per-chart ratio
    phi'^{-1} phi must be automorphism-valued, and locally constant in the
    discrete outer quotient (consecutive-ratio inner test along a spanning
    tree of grid edges).  A chart where either structure has a singular
    frame gets automorphism residual +inf, and nothing is inverted there."""
    if t.algebra.dim != t_prime.algebra.dim or np.abs(t.algebra.c - t_prime.algebra.c).max() > ALG_TOL:
        raise InputError("trivializations live over different algebras")
    if t.manifold is not t_prime.manifold and _cover_signature(t.manifold) != _cover_signature(t_prime.manifold):
        raise InputError("trivializations live over different covers")
    g = t.algebra
    groups = []
    chart_aut = []
    for cid in range(len(t.manifold.charts)):
        if _singular(t.frames[cid]).any() or _singular(t_prime.frames[cid]).any():
            aut = math.inf
        else:
            ratios = np.linalg.inv(t_prime.frames[cid]) @ t.frames[cid]
            flat = ratios.reshape(-1, g.dim, g.dim)
            aut = peak(automorphism_residuals(g, flat))
        chart_aut.append(aut)
        if aut > aut_tol:
            groups.append(VerdictGroup(f"chart {cid}", aut, 0, 0, 0))
            continue
        a_idx, b_idx = _spanning_tree_edges(t.manifold.charts[cid].resolution)
        edges = flat[b_idx] @ np.linalg.inv(flat[a_idx])
        groups.append(
            _verdict_sweep(g, edges, f"chart {cid}", inner_tol, max(10 * aut_tol, TRANS_TOL))
        )
    max_aut = peak(chart_aut)
    undecided = any(x.undecided for x in groups)
    passed = max_aut <= aut_tol and all(x.outer == 0 and x.undecided == 0 for x in groups)
    max_res = peak([x.max_inner_residual for x in groups])
    return DeltaReport(bool(passed), bool(undecided), tuple(groups), max_res, max_aut)


def _cover_signature(m: ChartedManifold):
    charts = tuple((tuple(map(tuple, c.box)), c.resolution) for c in m.charts)
    overlaps = tuple(
        (o.alpha, o.beta, tuple(map(tuple, o.region))) for o in m.overlaps
    )
    return charts, overlaps


def pullback_lab(t: Trivialization, f: ManifoldMap) -> Trivialization:
    """Pull the structure back along a chart-compatible affine map: source
    frames are the target frames sampled at image points (multilinear off
    nodes, no re-orthonormalization)."""
    if _cover_signature(f.target) != _cover_signature(t.manifold):
        raise InputError("map target does not match the bundle's manifold")
    frames = []
    for cid, chart in enumerate(f.source.charts):
        asg = f.assignments[cid]
        pts = asg.apply(chart.grid_points())
        tgt_chart = f.target.charts[asg.target_chart]
        if not tgt_chart.contains(pts.reshape(-1, f.target.dim)).all():
            raise InputError(f"image of source chart {cid} leaves target chart {asg.target_chart}")
        frames.append(interpolate(tgt_chart, t.frames[asg.target_chart], pts))
    return Trivialization(t.algebra, f.source, tuple(frames))
