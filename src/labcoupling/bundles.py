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

# nothing here calls is_inner; the name stays bound for perfbench, whose self-test reads it
from .algebra import LieAlgebra, automorphism_residuals, inner_verdicts, is_inner  # noqa: F401
from .errors import InputError
from .manifolds import (
    ChartedManifold,
    ManifoldMap,
    _overlap_triples,
    chart_grids,
    interpolate,
    overlap_pair,
    region_slices,
)
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
        for cid, grid in enumerate(chart_grids(self.manifold, self.frames, (n, n), "frame")):
            arr = np.array(grid)  # own copy: `transitions` is cached
            if not np.isfinite(arr).all():
                raise InputError(f"frame grid {cid} has non-finite entries")
            arr.flags.writeable = False
            frames.append(arr)
        object.__setattr__(self, "frames", tuple(frames))

    def transition_grid(self, overlap_index: int) -> np.ndarray:
        """Transition matrices phi_beta phi_alpha^{-1} on the overlap's alpha nodes."""
        o = self.manifold.overlaps[overlap_index]
        f_alpha, f_beta = overlap_pair(self.manifold, o, self.frames)
        return f_beta @ np.linalg.inv(f_alpha)

    @functools.cached_property
    def transitions(self) -> tuple:
        """Every overlap's transition grid, built once per structure; read-only."""
        grids = tuple(self.transition_grid(k) for k in range(len(self.manifold.overlaps)))
        for grid in grids:
            grid.flags.writeable = False
        return grids

    def coordinate_change_grid(self, overlap_index: int) -> np.ndarray:
        """Section-coordinate change alpha -> beta: phi_beta^{-1} phi_alpha."""
        o = self.manifold.overlaps[overlap_index]
        f_alpha, f_beta = overlap_pair(self.manifold, o, self.frames)
        return np.linalg.inv(f_beta) @ f_alpha


def reference_trivialization(algebra: LieAlgebra, manifold: ChartedManifold) -> Trivialization:
    """The identity-frame structure (the bundle's own ambient coordinates);
    Trivialization copies the broadcast identity grids."""
    n = algebra.dim
    frames = tuple(np.broadcast_to(np.eye(n), chart.resolution + (n, n)) for chart in manifold.charts)
    return Trivialization(algebra, manifold, frames)


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
    transitions = [
        (f"transition overlap {k} region", automorphism_residuals(g, grid))
        for k, grid in enumerate(t.transitions)
    ]
    max_trans = peak(*(res for _, res in transitions))
    max_cocycle = _cocycle_residual(t)
    # a cocycle defect compounds three transitions, two interpolated: 10x the budget
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


def _cocycle_residual(t: Trivialization) -> float:
    """Largest cocycle defect on triple overlaps, from the structure's transition grids."""
    m = t.manifold
    grids = t.transitions
    defects = []
    n = t.algebra.dim

    @functools.cache
    def embedded(k: int) -> np.ndarray:
        return _embed_on_chart(t, k, grids[k])

    for k1, k2, k3 in _overlap_triples(m):
        o1, o2, o3 = (m.overlaps[k] for k in (k1, k2, k3))
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
    max_aut_residual: float = 0.0


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
    g: LieAlgebra, grid: np.ndarray, edges: tuple, scope: str, inner_tol: float, tol: float
) -> VerdictGroup:
    """Decide the ratios grid[b] grid[a]^{-1} over the edges (a, b) of a
    spanning tree of the region's nodes with one inner_verdicts call.  A
    ratio is one matrix times another's inverse and grid passed tol, so the
    ratios are gated at 10x tol, and at least TRANS_TOL.  max_inner_residual
    is over the ratios certified inner."""
    grid = grid.reshape(-1, g.dim, g.dim)
    a, b = edges
    mats = grid[b] @ np.linalg.inv(grid[a])
    gate = max(10 * tol, TRANS_TOL)
    aut = peak(automorphism_residuals(g, mats))
    if aut > gate:
        raise InputError(f"{scope}: ratio is not an automorphism within {gate:.1e}")
    inner, outer, resid, _, _ = inner_verdicts(g, mats, inner_tol)
    undecided = ~(inner | outer)
    return VerdictGroup(scope, peak(resid[inner]), int(inner.sum()), int(outer.sum()), int(undecided.sum()), aut)


# The report of a sweep that did not run: FAIL, with residuals +inf.
UNSWEPT = DeltaReport(False, False, (), math.inf, math.inf)


def _delta_report(groups: list, max_aut: float, passed: bool) -> DeltaReport:
    """A sweep's report from its verdict groups: passed when `passed` holds and
    every ratio was certified inner."""
    passed = passed and all(x.outer == 0 and x.undecided == 0 for x in groups)
    undecided = any(x.undecided for x in groups)
    max_res = peak([x.max_inner_residual for x in groups])
    return DeltaReport(bool(passed), bool(undecided), tuple(groups), max_res, max_aut)


def check_delta_continuity(
    t: Trivialization, inner_tol: float = INNER_TOL, lab_tol: float = ALG_TOL
) -> DeltaReport:
    """Per overlap, test that every transition agrees with the base node's
    transition up to an inner automorphism (constant outer class on the
    connected overlap region; the sweep's tree is the star from node 0).
    lab_tol is the gate the transitions passed.  A singular frame (|det| <=
    ALG_TOL) anywhere fails the sweep with residuals +inf, and nothing is
    inverted."""
    if any(_singular(grid).any() for grid in t.frames):
        return UNSWEPT
    g = t.algebra
    groups = []
    for k, o in enumerate(t.manifold.overlaps):
        grid = t.transitions[k]
        star = (np.zeros(1, int), np.arange(grid.size // g.dim**2))
        groups.append(
            _verdict_sweep(g, grid, star, f"overlap {k} ({o.alpha}->{o.beta})", inner_tol, lab_tol)
        )
    return _delta_report(groups, peak([x.max_aut_residual for x in groups]), True)


def _snake_edges(shape: tuple) -> tuple:
    """A path through every node of a 1-D or 2-D grid: row-major order with
    odd rows reversed, so each step moves to a grid neighbour."""
    path = np.arange(int(np.prod(shape))).reshape(-1, shape[-1])
    path[1::2] = path[1::2, ::-1]
    path = path.ravel()
    return path[:-1], path[1:]


def trivializations_equivalent(
    t: Trivialization,
    t_prime: Trivialization,
    inner_tol: float = INNER_TOL,
    aut_tol: float = ALG_TOL,
) -> DeltaReport:
    """Equivalence of two structures over the same cover: the per-chart ratio
    phi'^{-1} phi must be automorphism-valued, and locally constant in the
    discrete outer quotient (consecutive-ratio inner test along a snake path:
    the chart's nodes in row-major order with odd rows reversed).  A chart
    where either structure has a singular frame gets automorphism residual
    +inf, and nothing is inverted there."""
    _same_base(t, t_prime, "trivializations")
    g = t.algebra
    groups = []
    chart_aut = []
    for cid in range(len(t.manifold.charts)):
        if _singular(t.frames[cid]).any() or _singular(t_prime.frames[cid]).any():
            aut = math.inf
        else:
            ratios = np.linalg.inv(t_prime.frames[cid]) @ t.frames[cid]
            aut = peak(automorphism_residuals(g, ratios))
        chart_aut.append(aut)
        if aut > aut_tol:
            groups.append(VerdictGroup(f"chart {cid}", 0.0, 0, 0, 0, aut))
            continue
        snake = _snake_edges(t.manifold.charts[cid].resolution)
        groups.append(_verdict_sweep(g, ratios, snake, f"chart {cid}", inner_tol, aut_tol))
    max_aut = peak(chart_aut)
    return _delta_report(groups, max_aut, max_aut <= aut_tol)


def _same_base(t: Trivialization, t_prime: Trivialization, what: str) -> None:
    """Two structures compared node by node must share the algebra (structure
    constants within ALG_TOL) and the cover; otherwise an InputError."""
    if t.algebra.dim != t_prime.algebra.dim or np.abs(t.algebra.c - t_prime.algebra.c).max() > ALG_TOL:
        raise InputError(f"{what} live over different algebras")
    if t.manifold is not t_prime.manifold and _cover_signature(t.manifold) != _cover_signature(t_prime.manifold):
        raise InputError(f"{what} live over different covers")


def _cover_signature(m: ChartedManifold):
    charts = tuple((tuple(map(tuple, c.box)), c.resolution) for c in m.charts)
    overlaps = tuple(
        (o.alpha, o.beta, tuple(map(tuple, o.region)), tuple(map(tuple, o.matrix)), tuple(o.offset))
        for o in m.overlaps
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
        if not tgt_chart.contains(pts):
            raise InputError(f"image of source chart {cid} leaves target chart {asg.target_chart}")
        frames.append(interpolate(tgt_chart, t.frames[asg.target_chart], pts))
    return Trivialization(t.algebra, f.source, tuple(frames))
