"""Charted-manifold tests: atlas validation, partitions of unity,
finite-difference calculus, vector-field brackets, ray paths, interpolation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labcoupling import fixtures as fx, manifolds
from labcoupling.errors import CoverageError, InputError
from labcoupling.manifolds import (
    build_manifold,
    grid_derivative,
    grid_partials,
    interpolate,
    lie_bracket_partials,
    partition_of_unity,
    partition_sum_residual,
    random_harmonic_field,
    ray_path,
    region_slices,
    tangent_overlap_residual,
)

FIXTURES = [fx.manifold(n) for n in fx.MANIFOLD_NAMES]


# --- build_manifold ----------------------------------------------------------

def test_interval1_shape():
    m = fx.manifold("interval1")
    assert len(m.charts) == 1 and len(m.overlaps) == 0
    assert m.charts[0].node_point(m.charts[0].center)[0] == 0.5


def test_circle2_shape():
    m = fx.manifold("circle2")
    assert len(m.charts) == 2
    # two overlap components, each recorded in both orientations
    assert len(m.overlaps) == 4
    assert sorted((o.alpha, o.beta) for o in m.overlaps) == [(0, 1), (0, 1), (1, 0), (1, 0)]


def test_asymmetric_overlap_rejected():
    spec = {
        "dim": 1,
        "charts": [
            {"box": [[0.0, 1.0]], "resolution": [9], "center": [4]},
            {"box": [[0.5, 1.5]], "resolution": [9], "center": [4]},
        ],
        "overlaps": [
            {"alpha": 0, "beta": 1, "region": [[0.5, 1.0]], "map": {"matrix": [[1.0]], "offset": [0.0]}}
        ],
    }
    with pytest.raises(InputError, match="partner"):
        build_manifold(spec)


def test_region_leaving_chart_rejected():
    spec = {
        "dim": 1,
        "charts": [
            {"box": [[0.0, 1.0]], "resolution": [9], "center": [4]},
            {"box": [[0.5, 1.5]], "resolution": [9], "center": [4]},
        ],
        "overlaps": [
            {"alpha": 0, "beta": 1, "region": [[0.4, 1.2]], "map": {"matrix": [[1.0]], "offset": [0.0]}},
            {"alpha": 1, "beta": 0, "region": [[0.4, 1.2]], "map": {"matrix": [[1.0]], "offset": [0.0]}},
        ],
    }
    with pytest.raises(InputError, match="region leaves chart 0"):
        build_manifold(spec)


def test_low_resolution_rejected():
    spec = {"dim": 1, "charts": [{"box": [[0.0, 1.0]], "resolution": [5], "center": [2]}], "overlaps": []}
    with pytest.raises(InputError, match="resolution"):
        build_manifold(spec)


def three_chart_interval_spec(shift: float = 0.0) -> dict:
    """[0, 3] covered by three length-2 charts at global offsets 0, 0.5 and 1,
    so all three meet on [1, 2]; every region is node-aligned.  ``shift``
    moves the 1 -> 2 overlap map (and its partner with it, so the pair still
    inverts) by that much."""

    def overlap(alpha, beta, region, offset):
        return {"alpha": alpha, "beta": beta, "region": [region], "map": {"matrix": [[1.0]], "offset": [offset]}}

    return {
        "dim": 1,
        "charts": [{"box": [[0.0, 2.0]], "resolution": [9], "center": [4]}] * 3,
        "overlaps": [
            overlap(0, 1, [0.5, 2.0], -0.5),
            overlap(1, 0, [0.0, 1.5], 0.5),
            overlap(0, 2, [1.0, 2.0], -1.0),
            overlap(2, 0, [0.0, 1.0], 1.0),
            overlap(1, 2, [0.5, 2.0], -0.5 + shift),
            overlap(2, 1, [shift, 1.5 + shift], 0.5 - shift),
        ],
    }


def test_inconsistent_triple_overlap_rejected():
    assert len(build_manifold(three_chart_interval_spec()).overlaps) == 6
    with pytest.raises(InputError, match="triple overlap 0->1->2 is inconsistent"):
        build_manifold(three_chart_interval_spec(shift=1e-6))


@pytest.mark.parametrize("name", ["circle2", "cyl2", "circle4"])
def test_overlap_cycles_compose_to_identity(name):
    m = fx.manifold(name)
    for o in m.overlaps:
        partner = next(
            p for p in m.overlaps if p.alpha == o.beta and p.beta == o.alpha
            and np.abs(p.apply(o.apply(o.region.T.copy())) - o.region.T).max() <= 1e-12
        )
        pts = np.linspace(o.region[:, 0], o.region[:, 1], 7)
        np.testing.assert_allclose(partner.apply(o.apply(pts)), pts, atol=1e-12)


# --- partition of unity ------------------------------------------------------

@pytest.mark.parametrize("m", FIXTURES, ids=lambda m: m.name)
def test_partition_sums_to_one(m):
    pou = partition_of_unity(m)
    assert partition_sum_residual(pou) <= 1e-12


@pytest.mark.parametrize("m", FIXTURES, ids=lambda m: m.name)
def test_partition_nonnegative(m):
    pou = partition_of_unity(m)
    for h in pou.fields:
        assert h.min() >= 0.0


def test_interval_partition_is_constant_one():
    pou = partition_of_unity(fx.manifold("interval1"))
    assert np.abs(pou.fields[0] - 1.0).max() == 0.0


def test_circle2_bumps_sum_on_overlaps_by_direct_summation():
    m = fx.manifold("circle2")
    pou = partition_of_unity(m)
    for o in m.overlaps:
        chart = m.charts[o.alpha]
        slices = region_slices(chart, o.region)
        pts = chart.grid_points()[slices]
        here = pou.fields[o.alpha][slices]
        there = pou.evaluate(o.beta, o.apply(pts))
        np.testing.assert_allclose(here + there, 1.0, atol=1e-12)


def test_circle2_bumps_vanish_on_covered_boundary():
    m = fx.manifold("circle2")
    pou = partition_of_unity(m)
    for h in pou.fields:
        assert h[0] <= 1e-12 and h[-1] <= 1e-12


def test_two_sharpness_profiles_differ():
    m = fx.manifold("circle2")
    a = partition_of_unity(m, sharpness=1.0)
    b = partition_of_unity(m, sharpness=2.0)
    assert np.abs(a.fields[0] - b.fields[0]).max() > 1e-3
    assert partition_sum_residual(b) <= 1e-12


def test_total_coverage_failure_raises():
    # both charts identical, every edge mutually "covered": bumps vanish jointly
    spec = {
        "dim": 1,
        "charts": [
            {"box": [[0.0, 1.0]], "resolution": [9], "center": [4]},
            {"box": [[0.0, 1.0]], "resolution": [9], "center": [4]},
        ],
        "overlaps": [
            {"alpha": 0, "beta": 1, "region": [[0.0, 1.0]], "map": {"matrix": [[1.0]], "offset": [0.0]}},
            {"alpha": 1, "beta": 0, "region": [[0.0, 1.0]], "map": {"matrix": [[1.0]], "offset": [0.0]}},
        ],
    }
    with pytest.raises(CoverageError):
        partition_of_unity(build_manifold(spec))


@pytest.mark.parametrize("sharpness", [float("nan"), float("inf"), -1.0, 0.0])
def test_partition_rejects_a_bad_sharpness(sharpness):
    with pytest.raises(InputError, match="sharpness"):
        partition_of_unity(fx.manifold("circle2"), sharpness=sharpness)


def test_three_chart_interval_partition_uses_one_sided_bumps():
    # the outer charts are covered on one side only, so their bumps take the
    # one-sided profiles; the middle chart is covered on both sides
    pou = partition_of_unity(build_manifold(three_chart_interval_spec()))
    assert pou.covered == (((False, True),), ((True, True),), ((True, False),))
    assert partition_sum_residual(pou) <= 1e-12


def test_nan_bump_total_is_a_coverage_failure(monkeypatch):
    monkeypatch.setattr(manifolds, "_bump_profile", lambda r, sharpness: np.full(np.shape(r), np.nan))
    with pytest.raises(CoverageError):
        partition_of_unity(fx.manifold("circle2"))


# --- finite differences ------------------------------------------------------

def test_constant_field_has_zero_derivative():
    m = fx.manifold("interval1")
    f = np.full(m.charts[0].resolution, 3.25)
    assert np.abs(grid_derivative(m.charts[0], f, 0)).max() == 0.0


def test_fd_exact_on_quadratics():
    m = fx.manifold("interval1")
    x = m.charts[0].grid_points()[..., 0]
    d = grid_derivative(m.charts[0], x**2, 0)
    assert np.abs(d - 2 * x).max() <= 1e-10


def test_fd_exact_on_2d_quadratics():
    m = fx.manifold("disk2d")
    pts = m.charts[0].grid_points()
    f = pts[..., 0] * pts[..., 1] + pts[..., 1] ** 2
    dy = grid_derivative(m.charts[0], f, 1)
    assert np.abs(dy - (pts[..., 0] + 2 * pts[..., 1])).max() <= 1e-10


def test_fd_second_order_convergence_on_sine():
    errors = []
    for refine in (1, 2):
        m = fx.manifold("interval1", refine=refine)
        x = m.charts[0].grid_points()[..., 0]
        d = grid_derivative(m.charts[0], np.sin(2 * np.pi * x), 0)
        errors.append(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x)).max())
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_directional_derivative_node_accessor():
    m = fx.manifold("interval1")
    x = m.charts[0].grid_points()[..., 0]
    val = grid_derivative(m.charts[0], x**2, 0)[16]
    assert abs(val - 2 * x[16]) <= 1e-12


# --- vector field brackets ---------------------------------------------------

def vector_bracket(m, x_field, y_field):
    """[X, Y] chartwise from the grid partials of both fields."""
    return [
        lie_bracket_partials(x, dx, y, dy)
        for x, dx, y, dy in zip(x_field, grid_partials(m, x_field), y_field, grid_partials(m, y_field))
    ]


def test_bracket_of_field_with_itself_vanishes():
    m = fx.manifold("disk2d")
    rng = np.random.default_rng(5)
    x = [random_harmonic_field(rng, 2, (2,))(m.charts[0].grid_points())]
    b = vector_bracket(m, x, x)
    assert np.abs(b[0]).max() <= 1e-12


def test_bracket_of_constant_fields_vanishes():
    m = fx.manifold("disk2d")
    shape = m.charts[0].resolution + (2,)
    x = [np.broadcast_to([1.0, 2.0], shape).copy()]
    y = [np.broadcast_to([-0.5, 0.25], shape).copy()]
    assert np.abs(vector_bracket(m, x, y)[0]).max() == 0.0


def test_bracket_coordinate_example():
    # X = d/dx, Y = x d/dy  =>  [X, Y] = d/dy
    m = fx.manifold("disk2d")
    pts = m.charts[0].grid_points()
    x = [np.stack([np.ones_like(pts[..., 0]), np.zeros_like(pts[..., 0])], axis=-1)]
    y = [np.stack([np.zeros_like(pts[..., 0]), pts[..., 0]], axis=-1)]
    b = vector_bracket(m, x, y)[0]
    expected = np.stack([np.zeros_like(pts[..., 0]), np.ones_like(pts[..., 0])], axis=-1)
    assert np.abs(b - expected).max() <= 1e-4


@pytest.mark.parametrize("name", ["interval1", "circle2", "disk2d"])
def test_bracket_is_bitwise_the_per_axis_loop(name):
    m = fx.manifold(name)
    rng = np.random.default_rng(12)
    x = random_harmonic_field(rng, m.dim, (m.dim,), amplitude=0.3).sample(m)
    y = random_harmonic_field(rng, m.dim, (m.dim,), amplitude=0.3).sample(m)
    for cid, (chart, got) in enumerate(zip(m.charts, vector_bracket(m, x, y), strict=True)):
        ref = np.zeros_like(x[cid])
        for j in range(m.dim):
            dy = grid_derivative(chart, y[cid], j)
            dx = grid_derivative(chart, x[cid], j)
            ref += x[cid][..., j : j + 1] * dy - y[cid][..., j : j + 1] * dx
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["disk2d", "cyl2"])
def test_bracket_negates_bitwise_under_swap(name):
    m = fx.manifold(name)
    rng = np.random.default_rng(13)
    x = random_harmonic_field(rng, m.dim, (m.dim,), amplitude=0.3).sample(m)
    y = random_harmonic_field(rng, m.dim, (m.dim,), amplitude=0.3).sample(m)
    for xy, yx in zip(vector_bracket(m, x, y), vector_bracket(m, y, x), strict=True):
        assert np.array_equal(xy, -yx)


def test_bracket_rejects_a_field_off_the_chart_resolution():
    # a (9, 9, 2) field on the 33 x 33 disk chart would be differentiated
    # with the chart's spacing
    m = fx.manifold("disk2d")
    coarse = [np.ones((9, 9, 2))]
    with pytest.raises(InputError, match="resolution"):
        vector_bracket(m, coarse, coarse)
    with pytest.raises(InputError):
        grid_partials(m, [np.ones((33, 33)), np.ones((33, 33))])


@pytest.mark.parametrize("name", ["interval1", "circle2", "disk2d", "cyl2"])
def test_harmonic_sample_is_bitwise_the_pointwise_field(name):
    m = fx.manifold(name)
    rng = np.random.default_rng(31)
    for value_shape in [(), (3,), (m.dim, 3)]:
        f = random_harmonic_field(rng, m.dim, value_shape, amplitude=0.3)
        sampled = f.sample(m)
        pointwise = [f(chart.grid_points()) for chart in m.charts]
        for got, ref in zip(sampled, pointwise, strict=True):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_tangent_overlap_residual_flags_global_fields():
    m = fx.manifold("circle2")
    rng = np.random.default_rng(9)
    f = random_harmonic_field(rng, 1, (1,))
    good = f.sample(m)
    assert tangent_overlap_residual(m, good) <= 1e-4
    bad = [g.copy() for g in good]
    bad[1] += 0.5
    assert tangent_overlap_residual(m, bad) > 0.1


# --- paths -------------------------------------------------------------------

def test_ray_to_center_is_constant():
    m = fx.manifold("interval1")
    p = ray_path(m, 0, (16,), 4)
    assert np.abs(p.start - 0.5).max() == 0.0
    assert np.abs(p.end - p.start).max() == 0.0
    assert p.steps == 4


def test_ray_sample_points_match_arithmetic():
    m = fx.manifold("interval1")
    p = ray_path(m, 0, (32,), 4)
    np.testing.assert_allclose(p.start, [0.5])
    np.testing.assert_allclose(p.end, [1.0])
    assert (p.chart_id, p.steps) == (0, 4)


def test_rerayed_midpoint_is_truncated_ray():
    m = fx.manifold("disk2d")
    full = ray_path(m, 0, (32, 24), 8)
    mid = full.start + 0.5 * (full.end - full.start)
    idx = tuple(
        int(round((mid[a] - m.charts[0].box[a, 0]) / m.charts[0].spacing[a])) for a in range(2)
    )
    half = ray_path(m, 0, idx, 4)
    np.testing.assert_array_equal(half.start, full.start)
    np.testing.assert_allclose(half.end, mid, atol=1e-12)
    # same step length, so half's samples are full's first five
    assert 2 * half.steps == full.steps


# --- interpolation -----------------------------------------------------------

def test_interpolation_exact_at_nodes_and_bilinear():
    m = fx.manifold("disk2d")
    chart = m.charts[0]
    pts = chart.grid_points()
    f = 2.0 + pts[..., 0] * pts[..., 1]  # bilinear: multilinear interp is exact
    queries = np.array([[0.111, -0.734], [0.5, 0.25], [-1.0, 1.0]])
    vals = interpolate(chart, f, queries)
    np.testing.assert_allclose(vals, 2.0 + queries[:, 0] * queries[:, 1], atol=1e-12)


def corner_loop_interpolate(chart, values, points):
    """Reference multilinear interpolation: one fancy-indexed gather and
    weighted add per cell corner, corners in itertools.product order."""
    values = np.asarray(values, dtype=float)
    points = np.asarray(points, dtype=float)
    lead = points.shape[:-1]
    pts = points.reshape(-1, chart.dim)
    value_shape = values.shape[chart.dim:]
    res = chart.resolution
    normalized = (pts - chart.box[:, 0]) / chart.spacing
    base = np.floor(normalized).astype(int)
    base = np.minimum(np.maximum(base, 0), np.array(res) - 2)
    frac = normalized - base
    out = np.zeros((len(pts),) + value_shape)
    for corner in itertools.product((0, 1), repeat=chart.dim):
        weight = np.ones(len(pts))
        idx = []
        for a, c in enumerate(corner):
            weight = weight * (frac[:, a] if c else (1.0 - frac[:, a]))
            idx.append(base[:, a] + c)
        out += weight.reshape((-1,) + (1,) * len(value_shape)) * values[tuple(idx)]
    return out.reshape(lead + value_shape)


def _query_points(chart, rng):
    """Nodes, cell interiors and points on every face of the box, batched (2, k, dim)."""
    nodes = chart.grid_points().reshape(-1, chart.dim)[::7]
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    interior = lo + rng.random((40, chart.dim)) * (hi - lo)
    faces = []
    for a in range(chart.dim):
        for edge in (lo[a], hi[a]):
            face = lo + rng.random((5, chart.dim)) * (hi - lo)
            face[:, a] = edge
            faces.append(face)
    corners = np.array(list(itertools.product(*chart.box)))
    pts = np.concatenate([nodes, interior, corners] + faces)
    return pts[: 2 * (len(pts) // 2)].reshape(2, -1, chart.dim)


@pytest.mark.parametrize("name", ["interval1", "disk2d"])
@pytest.mark.parametrize("value_shape", [(), (3,), "form"], ids=["scalar", "vector", "form"])
def test_sparse_interpolation_matches_the_corner_loop_bit_for_bit(name, value_shape):
    chart = fx.manifold(name).charts[0]
    if value_shape == "form":
        value_shape = (chart.dim, 3, 3)
    rng = np.random.default_rng(len(value_shape) + chart.dim)
    values = rng.standard_normal(chart.resolution + value_shape)
    pts = _query_points(chart, rng)
    got = interpolate(chart, values, pts)
    assert got.shape == pts.shape[:-1] + value_shape
    np.testing.assert_array_equal(got, corner_loop_interpolate(chart, values, pts))
    # the same points read through other layouts: a (2, k, dim) moveaxis
    # view of per-axis rows, and the transpose of a (dim, 2k) array (both
    # non-contiguous unless dim is 1)
    stacked = np.moveaxis(np.moveaxis(pts, -1, 0).copy(), 0, -1)
    flat = pts.reshape(-1, chart.dim).T.copy().T
    assert stacked.flags.c_contiguous == flat.flags.c_contiguous == (chart.dim == 1)
    assert interpolate(chart, values, stacked).tobytes() == got.tobytes()
    assert interpolate(chart, values, flat).tobytes() == got.reshape(flat.shape[:1] + value_shape).tobytes()
    # the same values, read through a strided (non-contiguous) view
    interleaved = np.stack([values, -values], axis=-1)
    view = interleaved[..., 0]
    assert not view.flags.c_contiguous
    np.testing.assert_array_equal(interpolate(chart, view, pts), got)
    empty = interpolate(chart, values, np.empty((0, chart.dim)))
    assert empty.shape == (0,) + value_shape


def test_interpolation_keeps_non_finite_values_in_their_cells():
    chart = fx.manifold("disk2d").charts[0]
    values = np.zeros(chart.resolution)
    values[3, 4] = np.nan
    pts = _query_points(chart, np.random.default_rng(1))
    got = interpolate(chart, values, pts)
    np.testing.assert_array_equal(got, corner_loop_interpolate(chart, values, pts))
    assert np.isnan(got).any() and not np.isnan(got).all()


@pytest.mark.parametrize("delta", [-1, 1])
def test_interpolation_rejects_a_value_grid_of_the_wrong_shape(delta):
    chart = fx.manifold("disk2d").charts[0]
    shape = (chart.resolution[0], chart.resolution[1] + delta, 3)
    with pytest.raises(InputError, match="resolution"):
        interpolate(chart, np.zeros(shape), np.array([[0.9, 0.9]]))


def test_interpolation_outside_box_rejected():
    m = fx.manifold("interval1")
    chart = m.charts[0]
    with pytest.raises(InputError):
        interpolate(chart, chart.grid_points()[..., 0], np.array([[1.2]]))


def reference_contains(chart, points) -> bool:
    """Pointwise box test with the 1e-9 margin: every coordinate of every
    point must compare inside, and a NaN compares outside."""
    inside = (points >= chart.box[:, 0] - 1e-9) & (points <= chart.box[:, 1] + 1e-9)
    return bool(inside.all())


@st.composite
def chart_and_points(draw):
    """A 1-D or 2-D chart and a batch of points whose coordinates lie inside
    its box, on an edge, 1e-9 or 2e-9 either side of an edge, or are NaN or
    +-inf."""
    chart = draw(st.sampled_from([fx.manifold(n).charts[0] for n in ("interval1", "disk2d")]))

    def coordinate(lo, hi):
        edges = [e + d for e in (lo, hi) for d in (-2e-9, -1e-9, 0.0, 1e-9, 2e-9)]
        return st.one_of(st.floats(lo, hi), st.sampled_from(edges + [np.nan, np.inf, -np.inf]))

    rows = draw(st.lists(st.tuples(*(coordinate(lo, hi) for lo, hi in chart.box)), max_size=6))
    lead = draw(st.sampled_from([(-1,), (1, -1)]))
    return chart, np.array(rows, dtype=float).reshape(lead + (chart.dim,))


@settings(max_examples=300, deadline=None)
@given(chart_and_points())
def test_interpolation_box_check_agrees_with_chart_contains(case):
    chart, points = case
    inside = reference_contains(chart, points)
    assert chart.contains(points) is inside
    values = chart.grid_points()[..., 0]
    if inside:
        assert interpolate(chart, values, points).shape == points.shape[:-1]
    else:
        with pytest.raises(InputError, match="outside"):
            interpolate(chart, values, points)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_interpolation_reproduces_affine_functions(a, b, c, qx, qy):
    m = fx.manifold("disk2d")
    chart = m.charts[0]
    pts = chart.grid_points()
    f = a * pts[..., 0] + b * pts[..., 1] + c
    val = interpolate(chart, f, np.array([[qx, qy]]))[0]
    assert abs(val - (a * qx + b * qy + c)) <= 1e-10 * (1 + abs(a) + abs(b) + abs(c))
