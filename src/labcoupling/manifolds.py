"""Discretized manifolds: gridded chart boxes glued by affine overlap maps.

A chart is a coordinate box with a uniform grid; overlaps record which part
of a chart is also covered by another chart and the affine change of
coordinates between them.  This is enough to cover intervals, disks,
circles, and cylinders while keeping every transition formula exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import CoverageError, InputError
from .tolerances import ALG_TOL, peak

MIN_RESOLUTION = 9


@dataclass(frozen=True)
class Chart:
    box: np.ndarray         # (dim, 2) rows (lo, hi)
    resolution: tuple       # nodes per axis, each >= MIN_RESOLUTION
    center: tuple           # grid index of the chart's central point

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.box, dtype=float))
        if not np.isfinite(box).all():
            raise InputError("chart box has non-finite entries")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))
        object.__setattr__(self, "center", tuple(int(i) for i in self.center))

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def spacing(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / (np.array(self.resolution) - 1)

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.box[axis]
        return np.linspace(lo, hi, self.resolution[axis])

    def node_point(self, index: tuple) -> np.ndarray:
        return np.array([self.axis_nodes(a)[i] for a, i in enumerate(index)])

    def grid_points(self) -> np.ndarray:
        """All node coordinates, shape (*resolution, dim)."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        inside = (points >= self.box[:, 0] - 1e-9) & (points <= self.box[:, 1] + 1e-9)
        # one AND per axis: about twice as fast as all(axis=-1) over short rows
        return functools.reduce(np.logical_and, np.moveaxis(inside, -1, 0))


@dataclass(frozen=True)
class Overlap:
    alpha: int
    beta: int
    region: np.ndarray      # (dim, 2) sub-box in alpha coordinates
    matrix: np.ndarray      # affine map x_beta = matrix @ x_alpha + offset
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "region", np.atleast_2d(np.asarray(self.region, dtype=float)))
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "offset", np.atleast_1d(np.asarray(self.offset, dtype=float)))
        if not all(np.isfinite(a).all() for a in (self.region, self.matrix, self.offset)):
            raise InputError("overlap has non-finite entries")

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.matrix.T + self.offset

    def region_contains(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        lo = self.region[:, 0] - 1e-9
        hi = self.region[:, 1] + 1e-9
        return np.all((points >= lo) & (points <= hi), axis=-1)


@dataclass(frozen=True)
class ChartedManifold:
    dim: int
    charts: tuple
    overlaps: tuple
    name: str = ""

    def overlaps_from(self, alpha: int):
        return [o for o in self.overlaps if o.alpha == alpha]


def build_manifold(spec: dict, name: str = "") -> ChartedManifold:
    """Validate a manifold description and return the manifold.

    ``spec`` uses the JSON file layout: dim, charts (box/resolution/center),
    overlaps (alpha/beta/region/map{matrix,offset}).
    """
    try:
        dim = int(spec["dim"])
        charts = tuple(
            Chart(np.asarray(c["box"], dtype=float), tuple(c["resolution"]), tuple(c["center"]))
            for c in spec["charts"]
        )
        overlaps = tuple(
            Overlap(
                int(o["alpha"]),
                int(o["beta"]),
                np.asarray(o["region"], dtype=float),
                np.asarray(o["map"]["matrix"], dtype=float),
                np.asarray(o["map"]["offset"], dtype=float),
            )
            for o in spec.get("overlaps", [])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed manifold spec: {exc}") from exc

    if not charts:
        raise InputError("a manifold needs at least one chart")
    if dim not in (1, 2):
        raise InputError("only dim 1 and 2 manifolds are supported")
    for idx, chart in enumerate(charts):
        if chart.dim != dim:
            raise InputError(f"chart {idx} has dim {chart.dim}, expected {dim}")
        if any(r < MIN_RESOLUTION for r in chart.resolution):
            raise InputError(f"chart {idx} resolution below {MIN_RESOLUTION}")
        if np.any(chart.box[:, 1] <= chart.box[:, 0]):
            raise InputError(f"chart {idx} has an empty box")
        if any(not (0 <= c < r) for c, r in zip(chart.center, chart.resolution)):
            raise InputError(f"chart {idx} center index out of range")

    m = ChartedManifold(dim, charts, overlaps, name=name)
    _validate_overlaps(m)
    return m


def _validate_overlaps(m: ChartedManifold) -> None:
    for k, o in enumerate(m.overlaps):
        if not (0 <= o.alpha < len(m.charts) and 0 <= o.beta < len(m.charts)):
            raise InputError(f"overlap {k} references an unknown chart")
        alpha_chart, beta_chart = m.charts[o.alpha], m.charts[o.beta]
        region = o.region
        inside = (region[:, 0] >= alpha_chart.box[:, 0] - ALG_TOL) & (
            region[:, 1] <= alpha_chart.box[:, 1] + ALG_TOL
        )
        if not inside.all():
            raise InputError(f"overlap {k} region leaves chart {o.alpha}")
        corners = np.array(list(itertools.product(*region)))
        if not beta_chart.contains(o.apply(corners)).all():
            raise InputError(f"overlap {k} image leaves chart {o.beta}")

    # symmetry: (alpha, beta) pairs come with an inverse partner
    for k, o in enumerate(m.overlaps):
        partner = _find_partner(m, o)
        if partner is None:
            raise InputError(f"overlap {k} ({o.alpha}->{o.beta}) has no symmetric partner")

    _validate_triples(m)


def _find_partner(m: ChartedManifold, o: Overlap):
    inv_matrix = np.linalg.inv(o.matrix)
    inv_offset = -inv_matrix @ o.offset
    image = np.sort(o.apply(o.region.T).T, axis=1)
    for p in m.overlaps:
        if p.alpha != o.beta or p.beta != o.alpha:
            continue
        if (
            np.abs(p.matrix - inv_matrix).max() <= ALG_TOL
            and np.abs(p.offset - inv_offset).max() <= ALG_TOL
            and np.abs(np.sort(p.region, axis=1) - image).max() <= 1e-7
        ):
            return p
    return None


def _validate_triples(m: ChartedManifold) -> None:
    """On triple overlaps the composed affine maps must agree."""
    by_pair = {}
    for o in m.overlaps:
        by_pair.setdefault((o.alpha, o.beta), []).append(o)
    for o1 in m.overlaps:
        for o2 in m.overlaps:
            if o2.alpha != o1.beta:
                continue
            gamma = o2.beta
            if gamma == o1.alpha:
                continue
            for o3 in by_pair.get((o1.alpha, gamma), []):
                # points of o1.region whose image lies in o2.region and o3.region
                corners = np.array(list(itertools.product(*o1.region)))
                mid = o1.apply(corners)
                mask = o2.region_contains(mid) & o3.region_contains(corners)
                if not mask.any():
                    continue
                via = o2.apply(mid[mask])
                direct = o3.apply(corners[mask])
                if np.abs(via - direct).max() > 10 * ALG_TOL:
                    raise InputError(
                        f"triple overlap {o1.alpha}->{o1.beta}->{gamma} is inconsistent"
                    )


# --- fields ------------------------------------------------------------------
# Fields are plain per-chart lists of numpy arrays whose leading axes match the
# chart resolutions; trailing axes carry the value shape (scalar: none,
# fiber vector: (n,), tangent vector: (dim,), frame: (n, n)).

def grid_derivative(chart: Chart, values: np.ndarray, axis: int) -> np.ndarray:
    """Second-order finite difference along a grid axis (one-sided at edges).

    values may be sampled on a sub-grid; along an axis with fewer than 3
    samples the stencil drops to first order."""
    order = 2 if np.shape(values)[axis] >= 3 else 1
    return np.gradient(values, chart.spacing[axis], axis=axis, edge_order=order)


def directional_derivative(
    m: ChartedManifold, values: np.ndarray, chart_id: int, node: tuple, axis: int
):
    """Stencil derivative of a sampled field at one node."""
    deriv = grid_derivative(m.charts[chart_id], np.asarray(values, dtype=float), axis)
    return deriv[tuple(node)]


def lie_bracket_fields(m: ChartedManifold, x_field: list, y_field: list) -> list:
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i), chartwise."""
    out = []
    for cid, chart in enumerate(m.charts):
        x = np.asarray(x_field[cid], dtype=float)
        y = np.asarray(y_field[cid], dtype=float)
        if x.shape != y.shape or x.shape[-1] != m.dim:
            raise InputError("tangent field shapes do not match the manifold")
        bracket = np.zeros_like(x)
        for j in range(m.dim):
            bracket += x[..., j : j + 1] * grid_derivative(chart, y, j)
            bracket -= y[..., j : j + 1] * grid_derivative(chart, x, j)
        out.append(bracket)
    return out


def tangent_overlap_residual(m: ChartedManifold, x_field: list) -> float:
    """Worst mismatch of pushforwards across overlaps ("global" tangent check)."""
    mismatches = []
    for o in m.overlaps:
        here, there = overlap_pair(m, o, x_field)
        mismatches.append(np.abs(np.einsum("ij,...j->...i", o.matrix, here) - there))
    return peak(*mismatches)


def region_slices(chart: Chart, region: np.ndarray) -> tuple:
    """Grid slices spanned by a node-aligned sub-box (inward rounding)."""
    slices = []
    for a in range(chart.dim):
        h = chart.spacing[a]
        lo_f = (region[a, 0] - chart.box[a, 0]) / h
        hi_f = (region[a, 1] - chart.box[a, 0]) / h
        lo = int(np.ceil(lo_f - 1e-6))
        hi = int(np.floor(hi_f + 1e-6))
        if hi < lo:
            raise InputError("overlap region contains no grid nodes")
        slices.append(slice(lo, hi + 1))
    return tuple(slices)


def interpolate(chart: Chart, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a gridded field at arbitrary chart points.

    values has shape (*resolution, *value_shape); points (..., dim).  Points
    may sit on the box boundary; anything outside raises InputError.

    One sparse gather-and-weight operator: row p of a CSR matrix holds the
    2^dim corner weights of point p at the flat indices of its cell's
    corners, in itertools.product((0, 1), ...) order.  CSR row accumulation
    adds the corner terms in that order onto a zero, so the result is
    bit-identical to summing ``weight * values[corner]`` corner by corner.
    """
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    res = chart.resolution
    if values.shape[: chart.dim] != res:
        raise InputError(f"value grid {values.shape} does not match the chart resolution {res}")
    lead = points.shape[:-1]
    pts = points.reshape(-1, chart.dim)
    # The box is axis-aligned, so per-axis extremes accept exactly the points
    # chart.contains accepts (a NaN extreme fails both tests).  Column by
    # column this costs a third of the mask; a min over axis 0 costs more.
    lo, hi = chart.box[:, 0] - 1e-9, chart.box[:, 1] + 1e-9
    if len(pts) and not all(
        pts[:, a].min() >= lo[a] and pts[:, a].max() <= hi[a] for a in range(chart.dim)
    ):
        raise InputError("interpolation point outside the chart box")
    value_shape = values.shape[chart.dim:]

    normalized = (pts - chart.box[:, 0]) / chart.spacing
    base = np.floor(normalized).astype(int)
    base = np.minimum(np.maximum(base, 0), np.array(res) - 2)
    frac = normalized - base
    low, high = 1.0 - frac, frac
    flat = np.ravel_multi_index(base.T, res)
    corners = list(itertools.product((0, 1), repeat=chart.dim))
    weights = np.empty((len(pts), len(corners)))
    columns = np.empty(weights.shape, dtype=np.intp)
    for k, corner in enumerate(corners):
        weight = np.ones(len(pts))
        for a, c in enumerate(corner):
            weight = weight * (high if c else low)[:, a]
        weights[:, k] = weight
        columns[:, k] = flat + np.ravel_multi_index(corner, res)
    rows = np.arange(0, weights.size + 1, weights.shape[1])
    operator = scipy.sparse.csr_array(
        (weights.ravel(), columns.ravel(), rows), shape=(len(pts), int(np.prod(res)))
    )
    out = operator @ values.reshape(operator.shape[1], -1)
    return out.reshape(lead + value_shape)


def overlap_nodes(m: ChartedManifold, o: Overlap) -> tuple:
    """Grid slices of the overlap region in the alpha chart, and the images
    of those alpha nodes in beta coordinates."""
    chart = m.charts[o.alpha]
    slices = region_slices(chart, o.region)
    return slices, o.apply(chart.grid_points()[slices])


def overlap_pair(m: ChartedManifold, o: Overlap, field) -> tuple:
    """A per-chart gridded field on the overlap's alpha nodes, and the same
    field interpolated in the beta chart at those nodes' images."""
    slices, images = overlap_nodes(m, o)
    alpha, beta = (np.asarray(field[cid], dtype=float) for cid in (o.alpha, o.beta))
    return alpha[slices], interpolate(m.charts[o.beta], beta, images)


# --- partition of unity ------------------------------------------------------

@dataclass(frozen=True)
class PartitionOfUnity:
    """Smooth chart-subordinate bumps normalized to sum to one.

    Per chart and axis the raw bump is exp(-sharpness / (1 - r^2)) where r
    runs over the part of the chart whose boundary is interior to the union
    (covered by another chart); free boundary sides keep the bump away from
    its zero.  Normalization divides by the pointwise sum of all bumps that
    cover the point, transported through the overlap maps.
    """

    manifold: ChartedManifold
    sharpness: float
    covered: tuple  # per chart: ((lo_covered, hi_covered), ...) per axis
    fields: tuple   # per chart normalized grids

    def raw_bump(self, chart_id: int, points: np.ndarray) -> np.ndarray:
        chart = self.manifold.charts[chart_id]
        points = np.asarray(points, dtype=float)
        value = np.ones(points.shape[:-1])
        for a in range(chart.dim):
            lo, hi = chart.box[a]
            cov_lo, cov_hi = self.covered[chart_id][a]
            t = points[..., a]
            if cov_lo and cov_hi:
                r = 2.0 * (t - lo) / (hi - lo) - 1.0
            elif cov_lo:
                r = (t - lo) / (hi - lo) - 1.0
            elif cov_hi:
                r = (t - lo) / (hi - lo)
            else:
                continue
            value = value * _bump_profile(r, self.sharpness)
        return value

    def total(self, chart_id: int, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        total = self.raw_bump(chart_id, points)
        for o in self.manifold.overlaps_from(chart_id):
            mask = o.region_contains(points)
            if np.any(mask):
                contrib = self.raw_bump(o.beta, o.apply(points[mask]))
                total = total.copy()
                total[mask] += contrib
        return total

    def evaluate(self, chart_id: int, points: np.ndarray) -> np.ndarray:
        """Normalized bump h_alpha at arbitrary chart points."""
        return self.raw_bump(chart_id, points) / self.total(chart_id, points)


def _bump_profile(r: np.ndarray, sharpness: float) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    out = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-sharpness / (1.0 - r[inside] ** 2))
    return out


def partition_of_unity(m: ChartedManifold, sharpness: float = 1.0) -> PartitionOfUnity:
    sharpness = float(sharpness)
    if not (np.isfinite(sharpness) and sharpness > 0.0):
        raise InputError(f"bump sharpness must be finite and > 0, got {sharpness}")
    covered = []
    for cid, chart in enumerate(m.charts):
        per_axis = []
        for a in range(chart.dim):
            cov = [False, False]
            for side, edge in enumerate(chart.box[a]):
                for o in m.overlaps_from(cid):
                    if abs(o.region[a, side] - edge) <= 1e-9:
                        per = [
                            abs(o.region[ax, 0] - chart.box[ax, 0]) <= 1e-9
                            and abs(o.region[ax, 1] - chart.box[ax, 1]) <= 1e-9
                            for ax in range(chart.dim)
                            if ax != a
                        ]
                        if all(per):
                            cov[side] = True
            per_axis.append(tuple(cov))
        covered.append(tuple(per_axis))

    pou = PartitionOfUnity(m, sharpness, tuple(covered), fields=())
    fields = []
    for cid, chart in enumerate(m.charts):
        pts = chart.grid_points()
        total = pou.total(cid, pts)
        uncovered = ~(total > 0.0)  # NaN counts as uncovered
        if uncovered.any():
            bad = np.argwhere(uncovered)[0]
            raise CoverageError(f"node {tuple(int(i) for i in bad)} of chart {cid} has no bump support")
        fields.append(pou.raw_bump(cid, pts) / total)
    return PartitionOfUnity(m, sharpness, tuple(covered), tuple(fields))


def partition_sum_residual(pou: PartitionOfUnity) -> float:
    """Direct-summation check that the normalized bumps add to one."""
    m = pou.manifold
    defects = []
    for cid, chart in enumerate(m.charts):
        pts = chart.grid_points()
        total = pou.fields[cid].copy()
        for o in m.overlaps_from(cid):
            mask = o.region_contains(pts)
            if np.any(mask):
                total[mask] += pou.evaluate(o.beta, o.apply(pts[mask]))
        defects.append(np.abs(total - 1.0))
    return peak(*defects)


# --- paths -------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    """Straight segment start + t (end - start), t in [0, 1], inside one
    chart, cut into ``steps`` uniform steps; ``end`` may be batched
    (..., dim), a fan of segments from one start."""

    chart_id: int
    start: np.ndarray  # (dim,)
    end: np.ndarray    # (..., dim)
    steps: int


def ray_path(m: ChartedManifold, chart_id: int, node: tuple, steps: int) -> Path:
    """Straight segment in chart coordinates from the chart center to a node."""
    chart = m.charts[chart_id]
    return Path(chart_id, chart.node_point(chart.center), chart.node_point(node), steps)


# --- smooth maps between charted manifolds -----------------------------------

@dataclass(frozen=True)
class ChartAssignment:
    target_chart: int
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))
        object.__setattr__(self, "offset", np.atleast_1d(np.asarray(self.offset, dtype=float)))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.matrix.T + self.offset


@dataclass(frozen=True)
class ManifoldMap:
    """Chart-compatible smooth map: each source chart lands, affinely, inside
    a single target chart."""

    source: ChartedManifold
    target: ChartedManifold
    assignments: tuple  # ChartAssignment per source chart

    def __post_init__(self):
        if len(self.assignments) != len(self.source.charts):
            raise InputError("one chart assignment per source chart is required")
        for cid, asg in enumerate(self.assignments):
            chart = self.source.charts[cid]
            corners = np.array(list(itertools.product(*chart.box)))
            tgt = self.target.charts[asg.target_chart]
            if not tgt.contains(asg.apply(corners)).all():
                raise InputError(
                    f"image of source chart {cid} leaves target chart {asg.target_chart}"
                )


def identity_map(m: ChartedManifold) -> ManifoldMap:
    eye = np.eye(m.dim)
    zero = np.zeros(m.dim)
    return ManifoldMap(m, m, tuple(ChartAssignment(i, eye, zero) for i in range(len(m.charts))))


def constant_map(source: ChartedManifold, target: ChartedManifold, chart_id: int, point) -> ManifoldMap:
    zero_m = np.zeros((target.dim, source.dim))
    pt = np.asarray(point, dtype=float)
    return ManifoldMap(
        source, target, tuple(ChartAssignment(chart_id, zero_m, pt) for _ in source.charts)
    )


# --- random band-limited fields ---------------------------------------------

@dataclass(frozen=True)
class HarmonicField:
    """Closed-form band-limited field: constants plus unit-period harmonics.

    Components are c0 + sum_{axis, k<=2} (a cos(2 pi k t) + b sin(2 pi k t))
    with amplitudes decaying like 1/k^3 so finite-difference errors stay in
    budget at the default grids.  Unit-period harmonics are automatically
    consistent across the translation overlaps used by the fixtures.
    """

    coeffs_cos: np.ndarray  # (*value_shape, dim, kmax)
    coeffs_sin: np.ndarray
    constant: np.ndarray    # (*value_shape)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        lead = points.shape[:-1]
        value_shape = self.constant.shape
        out = np.broadcast_to(self.constant, lead + value_shape).copy()
        kmax = self.coeffs_cos.shape[-1]
        for a in range(points.shape[-1]):
            for k in range(1, kmax + 1):
                phase = 2.0 * np.pi * k * points[..., a]
                cshape = lead + (1,) * len(value_shape)
                out += np.cos(phase).reshape(cshape) * self.coeffs_cos[..., a, k - 1]
                out += np.sin(phase).reshape(cshape) * self.coeffs_sin[..., a, k - 1]
        return out

    def sample(self, m: ChartedManifold) -> list:
        return [self(chart.grid_points()) for chart in m.charts]


def random_harmonic_field(
    rng: np.random.Generator,
    dim: int,
    value_shape: tuple = (),
    amplitude: float = 0.01,
    constant_scale: float = 0.3,
) -> HarmonicField:
    decay = np.array([1.0 / k**3 for k in (1, 2)])
    shape = value_shape + (dim, 2)
    coeffs_cos = rng.uniform(-1.0, 1.0, size=shape) * amplitude * decay
    coeffs_sin = rng.uniform(-1.0, 1.0, size=shape) * amplitude * decay
    constant = rng.uniform(-1.0, 1.0, size=value_shape) * constant_scale
    return HarmonicField(coeffs_cos, coeffs_sin, np.asarray(constant))
