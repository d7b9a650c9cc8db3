"""Discretized manifolds: gridded chart boxes glued by affine overlap maps.

A chart is a coordinate box with a uniform grid; overlaps record which part
of a chart is also covered by another chart and the affine change of
coordinates between them.  This is enough to cover intervals, disks,
circles, and cylinders while keeping every transition formula exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

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
        object.__setattr__(self, "resolution", tuple(_integer(r, "resolution") for r in self.resolution))
        object.__setattr__(self, "center", tuple(_integer(i, "center") for i in self.center))

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

    def contains(self, points: np.ndarray) -> bool:
        """Whether every point of a (..., dim) batch lies in the box, with a
        1e-9 margin; an empty batch passes and a NaN coordinate fails.  The
        box is axis-aligned, so each coordinate column's own extremes decide
        it (a third of the cost of a pointwise mask on a column)."""
        coords = np.asarray(points, dtype=float).reshape(-1, self.dim).T
        lo, hi = self.box[:, 0] - 1e-9, self.box[:, 1] + 1e-9
        return not coords.size or all(
            np.min(t) >= lo[a] and np.max(t) <= hi[a] for a, t in enumerate(coords)
        )


@dataclass(frozen=True)
class Overlap:
    alpha: int
    beta: int
    region: np.ndarray      # (dim, 2) sub-box in alpha coordinates
    matrix: np.ndarray      # affine map x_beta = matrix @ x_alpha + offset
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _integer(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _integer(self.beta, "beta"))
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
        dim = _integer(spec["dim"], "dim")
        charts = tuple(Chart(c["box"], tuple(c["resolution"]), tuple(c["center"])) for c in spec["charts"])
        overlaps = tuple(
            Overlap(o["alpha"], o["beta"], o["region"], o["map"]["matrix"], o["map"]["offset"])
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
        _check_shape(f"chart {idx} box", chart.box, (dim, 2))
        _check_shape(f"chart {idx} resolution", chart.resolution, (dim,))
        _check_shape(f"chart {idx} center", chart.center, (dim,))
        if any(r < MIN_RESOLUTION for r in chart.resolution):
            raise InputError(f"chart {idx} resolution below {MIN_RESOLUTION}")
        if np.any(chart.box[:, 1] <= chart.box[:, 0]):
            raise InputError(f"chart {idx} has an empty box")
        if any(not (0 <= c < r) for c, r in zip(chart.center, chart.resolution)):
            raise InputError(f"chart {idx} center index out of range")

    m = ChartedManifold(dim, charts, overlaps, name=name)
    _validate_overlaps(m)
    return m


def _integer(value, field: str) -> int:
    """An integer field of an input file: an int, or a float with an integral value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, float)) or value % 1 != 0:
        raise InputError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _check_shape(what: str, value, expected: tuple) -> None:
    """An InputError unless the array field ``what`` has the shape ``expected``."""
    if np.shape(value) != expected:
        raise InputError(f"{what} has shape {np.shape(value)}, expected {expected}")


def _validate_overlaps(m: ChartedManifold) -> None:
    for k, o in enumerate(m.overlaps):
        _check_shape(f"overlap {k} region", o.region, (m.dim, 2))
        _check_shape(f"overlap {k} matrix", o.matrix, (m.dim, m.dim))
        _check_shape(f"overlap {k} offset", o.offset, (m.dim,))
        if np.linalg.matrix_rank(o.matrix) < m.dim:
            raise InputError(f"overlap {k} matrix is singular")
        if not (0 <= o.alpha < len(m.charts) and 0 <= o.beta < len(m.charts)):
            raise InputError(f"overlap {k} references an unknown chart")
        corners = np.array(list(itertools.product(*o.region)))
        if not m.charts[o.alpha].contains(corners):
            raise InputError(f"overlap {k} region leaves chart {o.alpha}")
        if not m.charts[o.beta].contains(o.apply(corners)):
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


def _overlap_triples(m: ChartedManifold, points):
    """Triples (k1, k2, k3) of overlaps alpha->beta, beta->gamma and
    alpha->gamma with gamma != alpha, in overlap order, each with its points:
    the alpha points of ``points(o1)``, a (..., dim) batch, that o3 covers
    and whose images o2 covers, as an (n, dim) array in row-major order, and
    those images.  A triple with no such point is skipped."""
    for k1, o1 in enumerate(m.overlaps):
        for k2, o2 in enumerate(m.overlaps):
            if o2.alpha != o1.beta or o2.beta == o1.alpha:
                continue
            for k3, o3 in enumerate(m.overlaps):
                if (o3.alpha, o3.beta) != (o1.alpha, o2.beta):
                    continue
                pts = points(o1)
                mid = o1.apply(pts)
                mask = o2.region_contains(mid) & o3.region_contains(pts)
                if mask.any():
                    yield (k1, k2, k3), pts[mask], mid[mask]


def _validate_triples(m: ChartedManifold) -> None:
    """On triple overlaps the composed affine maps must agree, at the
    corners of the first overlap's region."""
    def corners(o: Overlap) -> np.ndarray:
        return np.array(list(itertools.product(*o.region)))

    for ks, pts, mid in _overlap_triples(m, corners):
        o1, o2, o3 = (m.overlaps[k] for k in ks)
        if np.abs(o2.apply(mid) - o3.apply(pts)).max() > 10 * ALG_TOL:
            raise InputError(f"triple overlap {o1.alpha}->{o1.beta}->{o2.beta} is inconsistent")


# --- fields ------------------------------------------------------------------
# Fields are plain per-chart lists of numpy arrays whose leading axes match the
# chart resolutions; trailing axes carry the value shape (scalar: none,
# fiber vector: (n,), tangent vector: (dim,), frame: (n, n)).  chart_grids
# holds that contract for every entry point that takes such a field.

def chart_grids(m: ChartedManifold, grids, value_shape: tuple, what: str) -> tuple:
    """The per-chart field as float arrays, one per chart, each of shape
    chart.resolution + value_shape; any other count or shape is an InputError."""
    if len(grids) != len(m.charts):
        raise InputError(f"{what}: {len(grids)} grids for {len(m.charts)} charts")
    out = tuple(np.asarray(grid, dtype=float) for grid in grids)
    for cid, (arr, chart) in enumerate(zip(out, m.charts)):
        expected = chart.resolution + value_shape
        if arr.shape != expected:
            raise InputError(f"{what} grid {cid} has shape {arr.shape}, expected {expected}")
    return out


def grid_derivative(chart: Chart, values: np.ndarray, axis: int) -> np.ndarray:
    """Second-order finite difference along a grid axis (one-sided at edges).

    axis is chart axis i when the grid axes of values lead, or i - dim when
    they trail.  values may be sampled on a sub-grid; along an axis with
    fewer than 3 samples the stencil drops to first order.  Bitwise
    np.gradient, in two contiguous passes: the central difference over the
    flat array (axis stride s), then the one-sided end planes over it."""
    f = np.ascontiguousarray(values, dtype=float)
    r, h, a = f.shape[axis], chart.spacing[axis], axis % f.ndim
    if r < 2:
        raise ValueError("Shape of array too small to calculate a numerical gradient, "
                         "at least (edge_order + 1) elements are required.")
    s = math.prod(f.shape[a + 1 :])
    out = np.empty_like(f)
    flat, src = out.reshape(-1), f.reshape(-1)
    np.subtract(src[2 * s :], src[: src.size - 2 * s], out=flat[s : src.size - s])
    flat[s : src.size - s] /= 2.0 * h
    f3, o3 = (g.reshape(math.prod(f.shape[:a]), r, s) for g in (f, out))
    if r == 2:
        o3[:, 0] = o3[:, 1] = (f3[:, 1] - f3[:, 0]) / h
    else:
        o3[:, 0] = -1.5 / h * f3[:, 0] + 2.0 / h * f3[:, 1] + -0.5 / h * f3[:, 2]
        o3[:, -1] = 0.5 / h * f3[:, -3] + -2.0 / h * f3[:, -2] + 1.5 / h * f3[:, -1]
    return out


def grid_partials(m: ChartedManifold, field: list) -> list:
    """Per chart, the grid partials (d_0 F, ..., d_{dim-1} F) of a per-chart
    field whose trailing axes are the chart resolution (values lead); any
    other grid is an InputError, since the stencil would use the wrong
    spacing."""
    if len(field) != len(m.charts):
        raise InputError(f"field: {len(field)} grids for {len(m.charts)} charts")
    out = []
    for cid, chart in enumerate(m.charts):
        values = np.asarray(field[cid], dtype=float)
        if values.shape[values.ndim - m.dim :] != chart.resolution:
            raise InputError(
                f"field grid {cid} has shape {values.shape}, not on the chart resolution {chart.resolution}"
            )
        out.append(tuple(grid_derivative(chart, values, i - m.dim) for i in range(m.dim)))
    return out


def directional(x: np.ndarray, partials: tuple) -> np.ndarray:
    """X(F) = sum_i X^i d_i F nodewise, accumulated in axis order onto zeros,
    from a tangent field x whose components lead, (dim, ..., *grid), and the
    partials of F, (*value_shape, ..., *grid)."""
    total = np.zeros(np.shape(partials[0]))
    for xi, p in zip(x, partials):
        total += xi * p
    return total


def lie_bracket_partials(x: np.ndarray, dx: tuple, y: np.ndarray, dy: tuple) -> np.ndarray:
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i) from two tangent fields
    whose components lead, (dim, ..., *grid), and their grid partials.  Each
    j enters as one term, which negates exactly when the fields swap, so the
    bracket does too."""
    bracket = np.zeros_like(x)
    for j in range(len(dx)):
        bracket += x[j] * dy[j] - y[j] * dx[j]
    return bracket


def region_slices(chart: Chart, region: np.ndarray) -> tuple:
    """Grid slices spanned by a node-aligned sub-box (inward rounding)."""
    edges = (region - chart.box[:, :1]) / chart.spacing[:, None]  # (dim, 2) in node steps
    lo = np.ceil(edges[:, 0] - 1e-6).astype(int)
    hi = np.floor(edges[:, 1] + 1e-6).astype(int)
    if (hi < lo).any():
        raise InputError("overlap region contains no grid nodes")
    return tuple(slice(a, b) for a, b in zip(lo.tolist(), (hi + 1).tolist()))


def interpolate(chart: Chart, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a gridded field at arbitrary chart points.

    values has shape (*resolution, *value_shape); points (..., dim).  Points
    may sit on the box boundary; anything outside raises InputError.

    One sparse gather-and-weight operator: row p of a CSR matrix holds the
    2^dim corner weights of point p at the flat indices of its cell's
    corners, in itertools.product((0, 1), ...) order.  CSR row accumulation
    adds the corner terms in that order onto a zero, so the result is
    bit-identical to summing ``weight * values[corner]`` corner by corner.

    Each axis takes its cell index and its (1 - frac, frac) pair from its
    coordinate column and folds the index into the flat one as
    ``flat * res[a] + cell``; each corner's weight is then
    ``1.0 * f_0 * f_1 ...`` in axis order.
    """
    values = np.asarray(values, dtype=float)
    res = chart.resolution
    if values.shape[: chart.dim] != res:
        raise InputError(f"value grid {values.shape} does not match the chart resolution {res}")
    points = np.asarray(points, dtype=float)
    if not chart.contains(points):
        raise InputError("interpolation point outside the chart box")
    lead = points.shape[:-1]
    coords = points.reshape(-1, chart.dim).T

    flat, pairs = 0, []
    for t, lo, h, r in zip(coords, chart.box[:, 0], chart.spacing, res):
        normalized = (t - lo) / h
        # the cell index as a float: its difference from normalized is the
        # fraction that an integer index would give, bit for bit
        cell = np.clip(np.floor(normalized), 0, r - 2)
        frac = normalized - cell
        flat = flat * r + cell.astype(int)
        pairs.append((1.0 - frac, frac))
    corners = list(itertools.product((0, 1), repeat=chart.dim))
    weights = np.empty((coords.shape[1], len(corners)))
    columns = np.empty(weights.shape, dtype=np.intp)
    for k, corner in enumerate(corners):
        weight = 1.0
        for pair, c in zip(pairs, corner):
            weight = weight * pair[c]
        weights[..., k] = weight
        np.add(flat, np.ravel_multi_index(corner, res), out=columns[..., k])
    rows = np.arange(0, weights.size + 1, len(corners))
    import scipy.sparse  # deferred: the CLI imports this module, and only cross-chart reads interpolate

    operator = scipy.sparse.csr_array(
        (weights.ravel(), columns.ravel(), rows), shape=(len(weights), math.prod(res))
    )
    out = operator @ values.reshape(operator.shape[1], -1)
    return out.reshape(lead + values.shape[chart.dim:])


def overlap_nodes(m: ChartedManifold, o: Overlap) -> tuple:
    """Grid slices of the overlap region in the alpha chart, and the images
    of those alpha nodes in beta coordinates."""
    chart = m.charts[o.alpha]
    slices = region_slices(chart, o.region)
    return slices, o.apply(chart.grid_points()[slices])


def overlap_pair(m: ChartedManifold, o: Overlap, field, points=None) -> tuple:
    """A per-chart gridded field on the overlap's alpha side and the same
    field in the beta chart at the images: with no points, the alpha nodes
    of the overlap region, read off the grid; with alpha points (..., dim),
    the field interpolated at those points and at their images."""
    alpha, beta = (np.asarray(field[cid], dtype=float) for cid in (o.alpha, o.beta))
    if points is None:
        slices, images = overlap_nodes(m, o)
        return alpha[slices], interpolate(m.charts[o.beta], beta, images)
    return interpolate(m.charts[o.alpha], alpha, points), interpolate(m.charts[o.beta], beta, o.apply(points))


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
        """Product over the covered axes of the bump at r = (cov_lo + cov_hi) u - cov_lo,
        u = (t - lo) / (hi - lo), so r spans [-1, 1], [-1, 0] or [0, 1]; a free
        axis gives no factor, and two factors multiply exactly in any order."""
        chart = self.manifold.charts[chart_id]
        cov = np.array(self.covered[chart_id], dtype=float)  # (dim, 2)
        bumped = cov.any(axis=1)
        lo, hi = chart.box[bumped].T
        u = (np.asarray(points, dtype=float)[..., bumped] - lo) / (hi - lo)
        r = cov[bumped].sum(axis=1) * u - cov[bumped, 0]
        return np.prod(_bump_profile(r, self.sharpness), axis=-1)

    def total(self, chart_id: int, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        total = self.raw_bump(chart_id, points)
        for o in self.manifold.overlaps_from(chart_id):
            mask = o.region_contains(points)
            if np.any(mask):
                total[mask] += self.raw_bump(o.beta, o.apply(points[mask]))
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
        # a side is covered when an overlap region reaches its edge and spans
        # the box along every other axis
        sides = np.zeros((chart.dim, 2), dtype=bool)
        for o in m.overlaps_from(cid):
            touch = np.abs(o.region - chart.box) <= 1e-9
            spans = touch.all(axis=1)
            sides |= touch & (spans.sum() - spans == chart.dim - 1)[:, None]
        covered.append(tuple(map(tuple, sides.tolist())))

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
            if not tgt.contains(asg.apply(corners)):
                raise InputError(
                    f"image of source chart {cid} leaves target chart {asg.target_chart}"
                )

    def pull(self, field) -> list:
        """A per-chart field of the target read at the image of every source
        node: one grid per source chart, interpolated in its target chart."""
        return [
            interpolate(self.target.charts[asg.target_chart], field[asg.target_chart], asg.apply(chart.grid_points()))
            for chart, asg in zip(self.source.charts, self.assignments)
        ]


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

    @classmethod
    def stack(cls, fields: list) -> "HarmonicField":
        """One field whose values are those of the given fields, on a new
        axis after their common value shape: (*value_shape, len(fields))."""
        return cls(
            np.stack([f.coeffs_cos for f in fields], axis=-3),
            np.stack([f.coeffs_sin for f in fields], axis=-3),
            np.stack([f.constant for f in fields], axis=-1),
        )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return self._values_last(self._on_axes([points[..., a] for a in range(points.shape[-1])]))

    def sample(self, m: ChartedManifold) -> list:
        """The field on every chart grid, (*resolution, *value_shape), with
        the same sums as at ``grid_points()``."""
        return [self._values_last(grid) for grid in self.sample_leading(m)]

    def sample_leading(self, m: ChartedManifold) -> list:
        """The field on every chart grid with the value axes leading,
        (*value_shape, *resolution).  Each harmonic depends on one axis
        coordinate only, so it is taken on that axis' nodes (an open mesh)
        and broadcast."""
        return [
            self._on_axes(np.ix_(*(chart.axis_nodes(a) for a in range(chart.dim))))
            for chart in m.charts
        ]

    def _values_last(self, out: np.ndarray) -> np.ndarray:
        k = self.constant.ndim
        return np.ascontiguousarray(np.moveaxis(out, range(k), range(out.ndim - k, out.ndim)))

    def _on_axes(self, coords) -> np.ndarray:
        """The field, value axes first, at the points whose axis-a coordinates
        are coords[a]; the coordinate arrays broadcast against each other to
        the point grid."""
        lead = np.broadcast_shapes(*(t.shape for t in coords))
        coeff_shape = self.constant.shape + (1,) * len(lead)
        # the sum grows to each term's broadcast shape; a copy keeps the constant frozen
        out = self.constant.reshape(coeff_shape).copy()
        for a, t in enumerate(coords):
            for k in range(1, self.coeffs_cos.shape[-1] + 1):
                phase = 2.0 * np.pi * k * t
                for wave, coeffs in ((np.cos, self.coeffs_cos), (np.sin, self.coeffs_sin)):
                    term = wave(phase) * coeffs[..., a, k - 1].reshape(coeff_shape)
                    grows = np.broadcast_shapes(out.shape, term.shape) != out.shape
                    out = out + term if grows else np.add(out, term, out=out)
        return out


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
