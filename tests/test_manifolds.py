"""Charted-manifold tests: atlas validation, partitions of unity, overlap
node slices, finite-difference calculus, vector-field brackets, interpolation."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labcoupling import fileio, fixtures as fx, manifolds
from labcoupling.errors import CoverageError, InputError
from labcoupling.manifolds import (
    Chart,
    HarmonicField,
    Overlap,
    build_manifold,
    grid_derivative,
    grid_partials,
    interpolate,
    lie_bracket_partials,
    overlap_nodes,
    overlap_pair,
    partition_of_unity,
    partition_sum_residual,
    random_harmonic_field,
    region_slices,
)
from tests.test_fixtures import digest

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


def one_chart_spec(dim=1, overlaps=(), **chart) -> dict:
    return {
        "dim": dim,
        "charts": [{"box": [[0.0, 1.0]], "resolution": [9], "center": [4], **chart}],
        "overlaps": list(overlaps),
    }


UNKNOWN_PARTNER = {"alpha": 0, "beta": 1, "region": [[0.0, 1.0]], "map": {"matrix": [[1.0]], "offset": [0.0]}}


def collapsed_circle2_spec() -> dict:
    """circle2 with every overlap map the constant 0.55, which lies in both
    charts: only the singular matrix is wrong."""
    spec = fileio.manifold_to_dict(fx.manifold("circle2"))
    for o in spec["overlaps"]:
        o["map"] = {"matrix": [[0.0]], "offset": [0.55]}
    return spec


def one_node_overlap_spec() -> dict:
    """Two [0, 1] charts at 33 nodes glued at one node each: the regions
    [1 - h/2, 1] and [0, h/2], h = 1/32, hold the nodes 1 and 0."""
    h = 1.0 / 32
    chart = {"box": [[0.0, 1.0]], "resolution": [33], "center": [16]}
    return {
        "dim": 1,
        "charts": [chart, chart],
        "overlaps": [
            {"alpha": 0, "beta": 1, "region": [[1.0 - h / 2, 1.0]], "map": {"matrix": [[1.0]], "offset": [h / 2 - 1.0]}},
            {"alpha": 1, "beta": 0, "region": [[0.0, h / 2]], "map": {"matrix": [[1.0]], "offset": [1.0 - h / 2]}},
        ],
    }


@pytest.mark.parametrize(
    "spec,match",
    [
        ({**one_chart_spec(), "charts": []}, "at least one chart"),
        (one_chart_spec(dim=3, box=[[0.0, 1.0]] * 3, resolution=[9] * 3, center=[4] * 3), "only dim 1 and 2"),
        (one_chart_spec(dim=2), "chart 0 has dim 1, expected 2"),
        (one_chart_spec(resolution=[5], center=[2]), "resolution below"),
        (one_chart_spec(box=[[1.0, 1.0]]), "empty box"),
        (one_chart_spec(center=[9]), "center index out of range"),
        (one_chart_spec(overlaps=[UNKNOWN_PARTNER]), "overlap 0 references an unknown chart"),
        # integer fields are not truncated: 33.7 nodes is no grid, "7" no index
        (one_chart_spec(resolution=[33.7], center=[16]), "resolution must be an integer, got 33.7"),
        (one_chart_spec(resolution=[33], center=[16.9]), "center must be an integer, got 16.9"),
        (one_chart_spec(center="7"), "center must be an integer, got '7'"),
        (one_chart_spec(dim=1.9), "dim must be an integer, got 1.9"),
        (one_chart_spec(overlaps=[{**UNKNOWN_PARTNER, "alpha": 0.5}]), "alpha must be an integer"),
        (one_chart_spec(overlaps=[{**UNKNOWN_PARTNER, "beta": True}]), "beta must be an integer"),
        # every array matches dim: a third box column is not dropped, a second
        # resolution is not a 2-D grid under a 1-D box
        (one_chart_spec(box=[[0.0, 1.0, 5.0]]), r"chart 0 box has shape \(1, 3\), expected \(1, 2\)"),
        (one_chart_spec(resolution=[33, 33], center=[16]), r"chart 0 resolution has shape \(2,\), expected \(1,\)"),
        (one_chart_spec(center=[4, 4]), r"chart 0 center has shape \(2,\), expected \(1,\)"),
        (
            one_chart_spec(overlaps=[{**UNKNOWN_PARTNER, "region": [[0.0, 1.0]] * 2}]),
            r"overlap 0 region has shape \(2, 2\), expected \(1, 2\)",
        ),
        (
            one_chart_spec(overlaps=[{**UNKNOWN_PARTNER, "map": {"matrix": np.eye(2).tolist(), "offset": [0.0]}}]),
            r"overlap 0 matrix has shape \(2, 2\), expected \(1, 1\)",
        ),
        (
            one_chart_spec(overlaps=[{**UNKNOWN_PARTNER, "map": {"matrix": [[1.0]], "offset": [0.0, 0.0]}}]),
            r"overlap 0 offset has shape \(2,\), expected \(1,\)",
        ),
        # an InputError, not numpy's LinAlgError from the partner search
        (collapsed_circle2_spec(), "overlap 0 matrix is singular"),
        # the gauge check differentiates across each region: one node is too few
        (one_node_overlap_spec(), "overlap 0 region spans one node along axis 0; at least 2 are needed"),
        # a region between two nodes holds none
        (
            one_chart_spec(overlaps=[{**UNKNOWN_PARTNER, "beta": 0, "region": [[0.3, 0.32]]}]),
            "overlap region contains no grid nodes",
        ),
    ],
    ids=[
        "no charts", "dim 3", "chart dim", "low resolution", "empty box", "center", "unknown chart",
        "fractional resolution", "fractional center", "string center", "fractional dim",
        "fractional alpha", "boolean beta", "box columns", "resolution length", "center length",
        "region shape", "matrix shape", "offset length", "singular matrix", "one-node region",
        "node-free region",
    ],
)
def test_invalid_manifold_spec_rejected(spec, match):
    with pytest.raises(InputError, match=match):
        build_manifold(spec)


def test_integral_floats_read_as_integers():
    m = build_manifold(one_chart_spec(dim=1.0, resolution=[33.0], center=[16.0]))
    assert (m.dim, m.charts[0].resolution, m.charts[0].center) == (1, (33,), (16,))
    assert all(type(i) is int for i in m.charts[0].resolution + m.charts[0].center)


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


# Every fixture partition of unity at refine 1 and 2, sharpness 1 and 2,
# pinned by the SHA-256 digest of tests/test_fixtures.py (dtype, shape and
# raw bytes) over its covered flags, its normalized node fields and evaluate
# at 50 seeded random points per chart.  After an intended change, print a
# fresh table with ``PYTHONPATH=src python -m tests.test_manifolds``.
PARTITION_CASES = [(n, r, s) for n in fx.MANIFOLD_NAMES for r in (1, 2) for s in (1.0, 2.0)]

PARTITION_DIGESTS = {
    "interval1 1 1.0": "de3d91efbdecc7fc226b0b8f1184021ce742e14bc1870ab2bf938c96e69c333d",
    "interval1 1 2.0": "de3d91efbdecc7fc226b0b8f1184021ce742e14bc1870ab2bf938c96e69c333d",
    "interval1 2 1.0": "a2d7a5e8f4c2e1e1f1780651c17fac353cfcb699230d580f4b80915137ea5bad",
    "interval1 2 2.0": "a2d7a5e8f4c2e1e1f1780651c17fac353cfcb699230d580f4b80915137ea5bad",
    "interval3 1 1.0": "0a52571b536e47dfb946d5fb653f077a9ae8d7e8e3174b1e89973a5d6cefbcda",
    "interval3 1 2.0": "3efe34b619fbc00e6b5f3be08df9f929bed77384d807ea2e12aeba4a51d17d0d",
    "interval3 2 1.0": "73b9b2fe627be143bb1ca9123d2d25c341557b1b9e53cca0a61495e9dee2d9ef",
    "interval3 2 2.0": "cce9791037e75f166e58968a470c1c23f5e2a20059eda3bded579b6a46a5989c",
    "circle2 1 1.0": "0a14494024b55321df157f3e16e02c7e67809722b5d91f35a2f50baf1913e5da",
    "circle2 1 2.0": "3fcbae4f8c14b0e8e0b55ba1aca6dc530afc6aa21218948c396d8abb8dd86246",
    "circle2 2 1.0": "a549c08e3c2c41225cb0e8d6ad90f308a97a3fbff7136f4dd14cc496d42442ea",
    "circle2 2 2.0": "089a4c8db30df01d90ce7588d2faa2020ec98c38f827e598a5dd3a0c31462c40",
    "circle4 1 1.0": "8360230cdcb059785e8f5013bb58936158fb13b8d177a69e39cea4424efc176e",
    "circle4 1 2.0": "b9b10d987adc068798229397d4a4100953635ec919d062635acae05e240315bf",
    "circle4 2 1.0": "722902838062a8906a1ce0f7e59f8f4113fc84c3e00f7a28549c3b5088f8e0e3",
    "circle4 2 2.0": "004d874cd1aa3124cf55b26ec7603fd4a67ddeb2d102f93074f41f25dd601870",
    "disk2d 1 1.0": "4d1d3c7199b07a7b7ee6107f7fe0e454a54e056fd1f60b885f0ff54b502c59d2",
    "disk2d 1 2.0": "4d1d3c7199b07a7b7ee6107f7fe0e454a54e056fd1f60b885f0ff54b502c59d2",
    "disk2d 2 1.0": "d4def58579aa50b8505aee397d318c824cb850892f230dd5b84717b8f90ff31d",
    "disk2d 2 2.0": "d4def58579aa50b8505aee397d318c824cb850892f230dd5b84717b8f90ff31d",
    "cyl2 1 1.0": "1c57139d90987c4d99f8b4219c7dba2d7f90563e93e098978c9dd15f4594e7f9",
    "cyl2 1 2.0": "262409325036f3e3d60c6c861b2beed02a6fd9c1c83259071aaabf531d8eb215",
    "cyl2 2 1.0": "84063380ca982dd609887e0b2445ba0a0c2038ae15157d727991600f42e17d07",
    "cyl2 2 2.0": "284847629211fe4325cbb5a1048875f03f927816d2c0450301a9e98184350599",
}


def partition_digest(pou) -> str:
    m = pou.manifold
    rng = np.random.default_rng(0)
    arrays = [np.array(pou.covered)]
    for cid, chart in enumerate(m.charts):
        lo, hi = chart.box.T
        arrays += [pou.fields[cid], pou.evaluate(cid, lo + (hi - lo) * rng.random((50, m.dim)))]
    return digest(arrays)


@pytest.mark.parametrize("name, refine, sharpness", PARTITION_CASES)
def test_partition_of_unity_matches_its_digest(name, refine, sharpness):
    pou = partition_of_unity(fx.manifold(name, refine), sharpness)
    assert all(type(flag) is bool for sides in pou.covered for axis in sides for flag in axis)
    assert partition_digest(pou) == PARTITION_DIGESTS[f"{name} {refine} {sharpness}"]


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


def gradient_layouts(rng, dim: int, axis: int, samples: int) -> list:
    """(values, axis argument) pairs with `samples` nodes along chart axis
    `axis` and 4 along any other: grid axes leading (values last, positive
    axis) and trailing (values first, negative axis), a scalar field given
    both ways, and strided views of each layout (curvature's w[..., j, :, :],
    a batch slice, a swapped value pair)."""
    grid = tuple(samples if a == axis else 4 for a in range(dim))
    lead = rng.standard_normal(grid + (2, 3, 3))
    trail = rng.standard_normal((3, 2) + grid)
    scalar = rng.standard_normal(grid)
    return [
        (lead, axis),
        (lead[..., 1, :, :], axis),
        (trail, axis - dim),
        (trail[:, 1], axis - dim),
        (np.moveaxis(trail, 0, 1), axis - dim),
        (scalar, axis),
        (scalar, axis - dim),
    ]


@pytest.mark.parametrize("refine", [1, 2, 4])
@pytest.mark.parametrize("name", fx.MANIFOLD_NAMES)
def test_grid_derivative_is_bitwise_np_gradient(name, refine):
    # every fixture spacing, the circle covers' non-dyadic ones (1/48 at refine 1) included
    m = fx.manifold(name, refine)
    rng = np.random.default_rng(17)
    for chart in m.charts:
        for axis in range(m.dim):
            for samples in (2, 3, 65):
                for values, arg in gradient_layouts(rng, m.dim, axis, samples):
                    got = grid_derivative(chart, values, arg)
                    order = 2 if samples >= 3 else 1
                    ref = np.gradient(values, chart.spacing[axis], axis=arg, edge_order=order)
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape, axis", [((1,), 0), ((1, 5), 0), ((5, 1), -1), ((3, 0), 1)])
def test_grid_derivative_below_two_samples_raises_like_np_gradient(shape, axis):
    chart = fx.manifold("disk2d").charts[0]
    with pytest.raises(ValueError) as ours:
        grid_derivative(chart, np.zeros(shape), axis)
    with pytest.raises(ValueError) as reference:
        np.gradient(np.zeros(shape), chart.spacing[axis], axis=axis, edge_order=1)
    assert str(ours.value) == str(reference.value)


def test_directional_derivative_node_accessor():
    m = fx.manifold("interval1")
    x = m.charts[0].grid_points()[..., 0]
    val = grid_derivative(m.charts[0], x**2, 0)[16]
    assert abs(val - 2 * x[16]) <= 1e-12


# --- vector field brackets ---------------------------------------------------

def vector_bracket(m, x_field, y_field):
    """[X, Y] chartwise from the grid partials of both fields, value-last in
    and out; the kernel takes the components first."""
    x_lead, y_lead = ([np.moveaxis(np.asarray(g, dtype=float), -1, 0) for g in f] for f in (x_field, y_field))
    return [
        np.moveaxis(lie_bracket_partials(x, dx, y, dy), 0, -1)
        for x, dx, y, dy in zip(x_lead, grid_partials(m, x_lead), y_lead, grid_partials(m, y_lead))
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
    with pytest.raises(InputError, match=r"^field grid 0 has shape \(2, 9, 9\), expected \(2, 33, 33\)$"):
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
    # stacked as axiom_report stacks its trials, sampled with the values
    # leading; no sum (a single point's included) writes into the constant
    parts = [random_harmonic_field(rng, m.dim, (3,), amplitude=0.3) for _ in range(2)]
    f = HarmonicField.stack(parts)
    constant = f.constant.copy()
    leading = f.sample_leading(m)
    single = f(m.charts[0].node_point(m.charts[0].center))
    assert single.shape == (3, 2) and f.constant.tobytes() == constant.tobytes()
    for cid, chart in enumerate(m.charts):
        got = leading[cid]
        ref = np.ascontiguousarray(np.moveaxis(f(chart.grid_points()), (-2, -1), (0, 1)))
        assert got.shape == (3, 2) + chart.resolution and got.tobytes() == ref.tobytes()
        for p, part in enumerate(parts):
            assert np.ascontiguousarray(got[:, p]).tobytes() == part.sample_leading(m)[cid].tobytes()


# --- overlap node slices -----------------------------------------------------

def overlap_slices() -> list:
    """region_slices of every overlap of every fixture manifold at refine 1, 2, 4."""
    out = []
    for name in fx.MANIFOLD_NAMES:
        for refine in (1, 2, 4):
            m = fx.manifold(name, refine)
            out += [region_slices(m.charts[o.alpha], o.region) for o in m.overlaps]
    return out


# the repr pins the bounds and their type (Python ints, step None)
OVERLAP_SLICES_DIGEST = "1fd7e3b48858794a7adc2f49b73d587983e2e080d6b984534fd3966fb8b10f14"


def test_region_slices_of_the_fixture_overlaps_match_their_digest():
    slices = overlap_slices()
    assert len(slices) == 66
    assert hashlib.sha256(repr(slices).encode()).hexdigest() == OVERLAP_SLICES_DIGEST


@pytest.mark.parametrize("layout", ["C-ordered floats", "an int view with the values moved last"])
def test_chart_grids_hand_out_owned_c_ordered_read_only_float_copies(layout):
    m = fx.manifold("circle2")
    if layout == "C-ordered floats":
        grids = [np.zeros(chart.resolution + (3,)) for chart in m.charts]
    else:
        grids = [np.moveaxis(np.zeros((3,) + chart.resolution, dtype=int), 0, -1) for chart in m.charts]
    out = manifolds.chart_grids(m, grids, (3,), "fiber field")
    for grid, given in zip(out, grids):
        assert grid.dtype == float and grid.flags.c_contiguous and grid.flags.owndata
        assert not grid.flags.writeable and not np.shares_memory(grid, given)


def test_region_slices_round_inward_and_refuse_a_region_between_nodes():
    chart = Chart(np.array([[0.0, 1.0], [0.0, 2.0]]), (9, 9), (4, 4))  # spacing 0.125, 0.25
    # a bound 5e-4 steps off a node rounds inward; within 1e-6 steps it is on the node
    region = np.array([[0.25 + 6.25e-5, 0.5 - 6.25e-5], [0.5 + 1e-9, 1.5 - 1e-9]])
    assert region_slices(chart, region) == (slice(3, 4), slice(2, 7))
    with pytest.raises(InputError, match="overlap region contains no grid nodes"):
        region_slices(chart, np.array([[0.0, 1.0], [0.3, 0.45]]))


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


def test_chart_and_overlap_keep_their_own_copies():
    box, region, matrix, offset = np.array([[0.0, 1.0]]), np.array([[0.5, 1.0]]), np.eye(1), np.zeros(1)
    chart, o = Chart(box, (9,), (4,)), Overlap(0, 1, region, matrix, offset)
    for source in (box, region, matrix, offset):
        source[...] = 7.0
    assert chart.box.tolist() == [[0.0, 1.0]]
    assert (o.region.tolist(), o.matrix.tolist(), o.offset.tolist()) == ([[0.5, 1.0]], [[1.0]], [0.0])


def test_a_built_manifold_refuses_writes_to_its_arrays():
    m = fx.manifold("cyl2", 1)
    before = [region_slices(m.charts[o.alpha], o.region) for o in m.overlaps]
    arrays = [chart.box for chart in m.charts] + [a for o in m.overlaps for a in (o.region, o.matrix, o.offset)]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.55
    assert [region_slices(m.charts[o.alpha], o.region) for o in m.overlaps] == before


def test_overlap_plans_read_off_each_overlap_and_are_read_only():
    m = fx.manifold("cyl2", 1)
    assert len(m.overlap_plans) == len(m.overlaps) == 4
    for o, plan in zip(m.overlaps, m.overlap_plans):
        chart = m.charts[o.alpha]
        slices = region_slices(chart, o.region)
        nodes = chart.grid_points()[slices]
        assert plan.slices == slices and overlap_nodes(m, o)[0] == slices
        assert plan.nodes.tobytes() == nodes.tobytes()
        assert plan.images.tobytes() == o.apply(nodes).tobytes()
        assert overlap_nodes(m, o)[1] is plan.images
        assert plan.operator.shape == (math.prod(plan.images.shape[:-1]), math.prod(m.charts[o.beta].resolution))
        for arr in (plan.nodes, plan.images, plan.operator.data, plan.operator.indices, plan.operator.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.55
    assert m.overlap_plans is m.overlap_plans  # built once per manifold


def test_overlap_readers_refuse_an_overlap_of_another_cover():
    m, other = fx.manifold("cyl2", 1), fx.manifold("cyl2", 1)
    field = [np.zeros(chart.resolution) for chart in m.charts]
    for foreign in (other.overlaps[0], dataclasses.replace(m.overlaps[0])):
        with pytest.raises(InputError, match="not one of the manifold's overlaps"):
            overlap_nodes(m, foreign)
        with pytest.raises(InputError, match="not one of the manifold's overlaps"):
            overlap_pair(m, foreign, field)


@pytest.mark.parametrize("delta", [-1, 1])
def test_overlap_pair_rejects_a_value_grid_of_the_wrong_shape(delta):
    m = fx.manifold("cyl2", 1)
    field = [np.zeros((r[0], r[1] + delta)) for r in (chart.resolution for chart in m.charts)]
    with pytest.raises(InputError, match="does not match the chart resolution"):
        overlap_pair(m, m.overlaps[0], field)


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


if __name__ == "__main__":
    for name, refine, sharpness in PARTITION_CASES:
        pou = partition_of_unity(fx.manifold(name, refine), sharpness)
        print(f'    "{name} {refine} {sharpness}": "{partition_digest(pou)}",')
    print(f'OVERLAP_SLICES_DIGEST = "{hashlib.sha256(repr(overlap_slices()).encode()).hexdigest()}"')
