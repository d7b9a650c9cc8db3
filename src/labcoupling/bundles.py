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

from .algebra import LieAlgebra, _dets, _inverses, automorphism_residuals, inner_verdicts
from .errors import InputError
from .manifolds import ChartedManifold, ManifoldMap, _overlap_triples, chart_grids, overlap_pair, overlap_plan
from .tolerances import ALG_TOL, INNER_TOL, TRANS_TOL, peak

# nothing here calls is_inner or interpolate; the names stay bound for perfbench, whose self-test reads them
from .algebra import is_inner  # noqa: F401
from .manifolds import interpolate  # noqa: F401


@dataclass(frozen=True)
class Trivialization:
    """A local-trivialization structure on the bundle: per-chart frames, held
    as ``chart_grids`` gives them (finite, owned and read-only), so the
    cached ``transitions`` and ``singular`` cannot go stale."""

    algebra: LieAlgebra
    manifold: ChartedManifold
    frames: tuple  # per chart: array (*resolution, n, n)

    def __post_init__(self):
        n = self.algebra.dim
        object.__setattr__(self, "frames", chart_grids(self.manifold, self.frames, (n, n), "frame"))

    def transition_grid(self, overlap_index: int, points=None) -> np.ndarray:
        """Transition matrices phi_beta phi_alpha^{-1} on the overlap's alpha
        nodes, or at given alpha points (see ``overlap_pair``)."""
        o = self.manifold.overlaps[overlap_index]
        f_alpha, f_beta = overlap_pair(self.manifold, o, self.frames, points)
        return f_beta @ _inverses(f_alpha)

    @functools.cached_property
    def singular(self) -> tuple:
        """Per chart, the nodes whose frame is not invertible, |det| <= ALG_TOL;
        one det pass per structure, read-only like the frames it reads."""
        masks = tuple(np.abs(_dets(grid)) <= ALG_TOL for grid in self.frames)
        for mask in masks:
            mask.flags.writeable = False
        return masks

    @functools.cached_property
    def transitions(self) -> tuple:
        """Every overlap's transition grid, built once per structure; read-only."""
        grids = tuple(self.transition_grid(k) for k in range(len(self.manifold.overlaps)))
        for grid in grids:
            grid.flags.writeable = False
        return grids

    def coordinate_change_grid(self, overlap_index: int, points=None) -> np.ndarray:
        """Section-coordinate change alpha -> beta, phi_beta^{-1} phi_alpha, on
        the overlap's alpha nodes or at given alpha points."""
        o = self.manifold.overlaps[overlap_index]
        f_alpha, f_beta = overlap_pair(self.manifold, o, self.frames, points)
        return _inverses(f_beta) @ f_alpha


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
    identity holds on triple overlaps (within 10*tol).  Each cocycle leg is
    ``transition_grid`` at the triple's points, its two frames interpolated
    there by ``overlap_pair``, so the check holds wherever the overlap edges
    fall relative to the nodes.

    A singular frame (|det| <= ALG_TOL) has residual +inf and fails the check
    outright: no transition is formed, and the transition and cocycle
    residuals read +inf as well."""
    g = t.algebra
    frames = []
    for cid, grid in enumerate(t.frames):
        frames.append((f"frame chart {cid}", np.where(t.singular[cid], np.inf, automorphism_residuals(g, grid))))
    max_frame = peak(*(res for _, res in frames))
    if math.isinf(max_frame):
        return LabReport(False, max_frame, math.inf, math.inf, _worst_node(frames))
    transitions = [
        (f"transition overlap {k} region", automorphism_residuals(g, grid))
        for k, grid in enumerate(t.transitions)
    ]
    max_trans = peak(*(res for _, res in transitions))
    max_cocycle = _cocycle_residual(t)
    # a cocycle defect compounds three transitions, from frames read off the nodes: 10x the budget
    passed = max_frame <= tol and max_trans <= tol and max_cocycle <= 10 * tol
    return LabReport(bool(passed), max_frame, max_trans, max_cocycle, _worst_node(frames + transitions))


def _worst_node(located: list) -> str:
    """Where the largest residual sits, as "<label> node <index>", over
    (label, residual grid) pairs; the first grid wins a tie."""
    if not located:
        return ""
    label, res = located[int(np.argmax([peak(res) for _, res in located]))]
    node = np.unravel_index(np.argmax(res), res.shape)
    return f"{label} node {tuple(int(i) for i in node)}"


def _cocycle_residual(t: Trivialization) -> float:
    """Largest cocycle defect on triple overlaps alpha -> beta -> gamma, at the
    alpha nodes of the first overlap that the other two cover, as its plan
    holds them: each leg is a transition read at those points or at their
    images."""
    m = t.manifold
    return peak(*(
        np.abs(t.transition_grid(k2, mid) @ t.transition_grid(k1, pts) - t.transition_grid(k3, pts))
        for (k1, k2, k3), pts, mid in _overlap_triples(m, lambda o: overlap_plan(m, o).nodes)
    ))


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


def _verdict_sweep(g: LieAlgebra, parts: list, inner_tol: float, tol: float) -> list:
    """One VerdictGroup per part (grid, edges, scope), from the ratios
    grid[b] grid[a]^{-1} over the edges (a, b) of a spanning tree of the
    part's nodes; one inner_verdicts call decides every part.  A ratio is one
    matrix times another's inverse and grid passed tol, so each part's ratios
    are gated at 10x tol, and at least TRANS_TOL, in order before any
    verdict.  max_inner_residual is over a part's ratios certified inner."""
    gate = max(10 * tol, TRANS_TOL)
    ratios, auts = [], []
    for grid, (a, b), scope in parts:
        grid = grid.reshape(-1, g.dim, g.dim)
        ratios.append(grid[b] @ _inverses(grid[a]))
        auts.append(peak(automorphism_residuals(g, ratios[-1])))
        if auts[-1] > gate:
            raise InputError(f"{scope}: ratio is not an automorphism within {gate:.1e}")
    if not parts:
        return []
    bounds = np.cumsum([len(mats) for mats in ratios])[:-1]
    inner, outer, resid = (np.split(v, bounds) for v in inner_verdicts(g, np.concatenate(ratios), inner_tol)[:3])
    return [
        VerdictGroup(scope, peak(r[i]), int(i.sum()), int(o.sum()), int((~(i | o)).sum()), aut)
        for (_, _, scope), i, o, r, aut in zip(parts, inner, outer, resid, auts)
    ]


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
    if any(mask.any() for mask in t.singular):
        return UNSWEPT
    parts = [
        (grid, (np.zeros(1, int), np.arange(grid.size // t.algebra.dim**2)), f"overlap {k} ({o.alpha}->{o.beta})")
        for k, (o, grid) in enumerate(zip(t.manifold.overlaps, t.transitions))
    ]
    groups = _verdict_sweep(t.algebra, parts, inner_tol, lab_tol)
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
    groups, parts = [], []
    for cid, chart in enumerate(t.manifold.charts):
        if t.singular[cid].any() or t_prime.singular[cid].any():
            aut = math.inf
        else:
            ratios = _inverses(t_prime.frames[cid]) @ t.frames[cid]
            aut = peak(automorphism_residuals(t.algebra, ratios))
        groups.append(VerdictGroup(f"chart {cid}", 0.0, 0, 0, 0, aut))
        if aut <= aut_tol:  # swept below, in one call with every chart that clears the gate
            parts.append((ratios, _snake_edges(chart.resolution), f"chart {cid}"))
    max_aut = peak([x.max_aut_residual for x in groups])
    swept = iter(_verdict_sweep(t.algebra, parts, inner_tol, aut_tol))
    groups = [next(swept) if x.max_aut_residual <= aut_tol else x for x in groups]
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


def monodromy(t: Trivialization) -> np.ndarray:
    """The product of the coordinate changes phi_beta^{-1} phi_alpha around
    the cycle of charts along axis 0 (circle and cylinder covers), in the
    order of the charts' lower axis-0 edges.  The walk starts at the first
    chart's center and crosses each chart's forward overlap (alpha -> next
    chart, reaching alpha's upper axis-0 edge) at the midpoint of its axis-0
    span, where ``coordinate_change_grid`` reads it.  For f(C) this is the
    holonomy of C around the loop from that center: the outer part of a
    coupling is a flat Out(g) connection, so it is a class invariant mod Inn
    and up to conjugation.  A chart with no forward overlap is an InputError."""
    m = t.manifold
    order = sorted(range(len(m.charts)), key=lambda cid: m.charts[cid].box[0, 0])
    first = m.charts[order[0]]
    point = first.node_point(first.center)
    total = np.eye(t.algebra.dim)
    for cid, nxt in zip(order, order[1:] + order[:1]):
        upper = m.charts[cid].box[0, 1]
        forward = [
            k for k, o in enumerate(m.overlaps)
            if o.alpha == cid and o.beta == nxt and abs(o.region[0, 1] - upper) <= 1e-9
        ]
        if not forward:
            raise InputError(f"no forward overlap from chart {cid} along axis 0")
        k = forward[0]
        o = m.overlaps[k]
        point[0] = 0.5 * (o.region[0, 0] + o.region[0, 1])
        total = t.coordinate_change_grid(k, point[None, :])[0] @ total
        point = o.apply(point)
    return total


def pullback_lab(t: Trivialization, f: ManifoldMap) -> Trivialization:
    """Pull the structure back along a chart-compatible affine map: source
    frames are the target frames sampled at image points (multilinear off
    nodes, no re-orthonormalization)."""
    if _cover_signature(f.target) != _cover_signature(t.manifold):
        raise InputError("map target does not match the bundle's manifold")
    return Trivialization(t.algebra, f.source, tuple(f.pull(t.frames)))
