"""Tests for the RK4 kernel, the monodromy and the two classification maps.

Oracles: closed-form matrix exponentials for constant-form transport and for
the holonomy of cocycle-constant loops, an independent np.matmul RK4 on
the comb's edge blends and along straight paths for f_map's frames, and a
literal re-evaluation of the defining h-weighted sum for the connection
assembled by g_map.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from labcoupling import correspondence, fileio, fixtures as fx, manifolds
from labcoupling.algebra import ad, automorphism_residuals, unit_vector
from labcoupling.bundles import (
    DeltaReport,
    Trivialization,
    check_delta_continuity,
    monodromy,
    pullback_lab,
    reference_trivialization,
    trivializations_equivalent,
    validate_lab,
)
from labcoupling.connections import (
    ConnectionForm,
    accordance,
    coupling_equivalent,
    pullback_connection,
    shift_by_inner,
    validate_connection,
)
from labcoupling.correspondence import (
    f_map,
    g_map,
    verify_g_well_defined,
    verify_inverse,
)
from labcoupling.errors import InputError, PreconditionError
from labcoupling.manifolds import (
    build_manifold,
    constant_map,
    grid_derivative,
    interpolate,
    overlap_pair,
    partition_of_unity,
    random_harmonic_field,
    region_slices,
)
from labcoupling.tolerances import EDGE_STEPS, TRANS_TOL
from tests.test_bundles import degree2_circle_map, steep_circle_coupling
from tests.test_connections import covariant_along
from tests.test_fixtures import digest

SO3 = fx.algebra("so3")
K = ad(SO3, unit_vector(3, 2))


def constant_connection(manifold_name: str, matrix: np.ndarray, algebra=SO3) -> ConnectionForm:
    m = fx.manifold(manifold_name)
    omega = tuple(
        np.broadcast_to(matrix, chart.resolution + (m.dim,) + matrix.shape).copy()
        for chart in m.charts
    )
    return ConnectionForm(reference_trivialization(algebra, m), omega)


# --- RK4 kernel ------------------------------------------------------------------

def constant_rk4(d: np.ndarray, steps: int) -> np.ndarray:
    """correspondence._rk4 on the constant form A(t) = -d, one problem."""
    return correspondence._rk4(-d[..., None], np.zeros(d.shape + (1,)), steps)[..., 0]


def test_constant_form_transport_matches_matrix_exponential():
    d = 0.45 * K  # the form 0.9 K along a path of length 0.5
    t_mat = constant_rk4(d, 64)
    exact = scipy.linalg.expm(-d)
    assert np.abs(t_mat - exact).max() <= 1e-8
    assert automorphism_residuals(SO3, t_mat) <= 1e-10


def test_rk4_order_four_against_closed_form():
    d = 0.5 * K
    exact = scipy.linalg.expm(-d)
    errors = [np.abs(constant_rk4(d, steps) - exact).max() for steps in (8, 16)]
    assert 12.0 <= errors[0] / errors[1] <= 20.0


@pytest.mark.parametrize("steps", [0, -1, 2.5, True])
def test_f_map_and_verify_inverse_reject_a_bad_step_count(steps):
    c = fx.connection("circle2_so3_twisted")
    with pytest.raises(InputError, match="ode_steps"):
        f_map(c, ode_steps=steps)
    with pytest.raises(InputError, match="ode_steps"):
        verify_inverse(c=c, ode_steps=steps)


def test_a_bad_step_count_is_rejected_before_any_work(monkeypatch):
    # f_map checks the count before accordance, verify_inverse before g(T)
    calls = []
    monkeypatch.setattr(correspondence, "accordance", lambda *a, **k: calls.append("accordance"))
    monkeypatch.setattr(correspondence, "g_map", lambda *a, **k: calls.append("g_map"))
    with pytest.raises(InputError, match="ode_steps must be at least 1, got 0"):
        f_map(fx.connection("circle2_so3_twisted"), ode_steps=0)
    for given in ({"c": fx.connection("cyl2_so3_twisted")}, {"t": fx.bundle("cyl2_so3_twisted", 2)}):
        with pytest.raises(InputError, match="ode_steps must be at least 1, got 0"):
            verify_inverse(**given, ode_steps=0)
    assert calls == []


def edge_blends(c: ConnectionForm, chart_id: int, axis: int) -> tuple:
    """The stage blends of every forward grid edge along an axis as the comb
    forms them, A(t) = a0 + t d from the node values -h w_axis: a0 and d as
    contiguous (n, n, N) arrays over the N edges."""
    n = c.algebra.dim
    nodes = np.moveaxis(c.omega[chart_id][..., axis, :, :], axis, 0)
    nodes = nodes * -c.manifold.charts[chart_id].spacing[axis]
    lo, hi = nodes[:-1].reshape(-1, n, n), nodes[1:].reshape(-1, n, n)
    return tuple(np.ascontiguousarray(x.transpose(1, 2, 0)) for x in (lo, hi - lo))


def stretched_blends(c: ConnectionForm, chart_id: int, axis: int) -> tuple:
    """edge_blends times the chart's node count along the axis: each edge's
    blend stretched over the chart's width, so that its transport is far
    from the identity and RK4's truncation shows."""
    width = c.manifold.charts[chart_id].resolution[axis]
    return tuple(width * x for x in edge_blends(c, chart_id, axis))


def shifted_connection(name: str, refine: int = 1) -> ConnectionForm:
    """A fixture connection plus an inner shift: the fixtures' forms are
    constant along each grid edge (d = 0), the shifted ones are not."""
    c = fx.connection(name, refine=refine)
    m = c.manifold
    l = random_harmonic_field(np.random.default_rng(11), m.dim, (m.dim, c.algebra.dim), amplitude=0.3, constant_scale=0.3)
    return shift_by_inner(c, l.sample(m))


def chart_axes(c: ConnectionForm) -> list:
    return [(cid, a) for cid, chart in enumerate(c.manifold.charts) for a in range(chart.dim)]


def products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return np.einsum("ikp,kjp->ijp", left, right)


def test_flat_transport_is_identity():
    # omega = 0 makes every stage matrix zero, so RK4 leaves T(0) = I untouched
    c = fx.connection("interval1_so3_flat")
    transports = correspondence._comb_transports(c, 0, 64)
    assert np.abs(transports - np.eye(3)).max() == 0.0


@pytest.mark.parametrize("name", ["interval1_so3_flat", "circle2_so3_twisted", "disk2d_so3_nonflat"])
def test_comb_transport_to_the_chart_center_is_the_identity(name):
    # the comb starts from T = I at the center, so f(C) keeps the bundle's frame there
    c = fx.connection(name)
    frames = f_map(c).trivialization.frames
    for cid, chart in enumerate(c.manifold.charts):
        center = tuple(chart.center)
        assert correspondence._comb_transports(c, cid, 8)[center].tobytes() == np.eye(3).tobytes()
        np.testing.assert_array_equal(frames[cid][center], c.bundle.frames[cid][center])


@pytest.mark.parametrize("name", ["disk2d_so3_nonflat", "circle2_so3_twisted", "cyl2_so3_twisted"])
def test_rk4_flow_property_on_split_edges(name):
    # T(gamma1 . gamma2) = T(gamma2) T(gamma1): split each grid edge at its
    # midpoint; a half's blend over its own [0, 1] is half of A on that half,
    # so the halves take the full solve's steps up to rounding
    c = shifted_connection(name)
    for cid, a in chart_axes(c):
        a0, d = stretched_blends(c, cid, a)
        full = correspondence._rk4(a0, d, 64)
        first = correspondence._rk4(0.5 * a0, 0.25 * d, 32)
        second = correspondence._rk4(0.5 * (a0 + 0.5 * d), 0.25 * d, 32)
        assert np.abs(products(second, first) - full).max() <= 1e-12


@pytest.mark.parametrize("name", ["disk2d_so3_nonflat", "cyl2_so3_twisted", "disk2d_heis3_outer"])
def test_rk4_reversed_edge_inverts_the_forward_one(name):
    # the comb runs an edge toward lower indices as the blend -A(1 - t)
    c = shifted_connection(name)
    for cid, a in chart_axes(c):
        a0, d = stretched_blends(c, cid, a)
        there = correspondence._rk4(a0, d, 64)
        back = correspondence._rk4(-(a0 + d), d, 64)
        assert np.abs(products(back, there) - np.eye(3)[..., None]).max() <= 1e-8


EDGE_FANS = {"one-edge": slice(3, 4), "a-row-of-edges": slice(0, 6), "every-edge": slice(None), "no-edge": slice(0, 0)}


@pytest.mark.parametrize("fan", EDGE_FANS)
def test_rk4_solves_each_problem_of_a_batch_bitwise_alone(fan):
    # the comb solves all edges of an axis pass in one batch: batching changes no bit
    c = shifted_connection("disk2d_so3_nonflat")
    a0, d = (np.ascontiguousarray(x[..., EDGE_FANS[fan]]) for x in edge_blends(c, 0, 1))
    got = correspondence._rk4(a0, d, 8)
    assert got.shape == a0.shape
    for p in range(a0.shape[-1]):
        alone = correspondence._rk4(a0[..., p : p + 1], d[..., p : p + 1], 8)
        assert got[..., p].tobytes() == alone[..., 0].tobytes()


def reference_rk4(a0: np.ndarray, d: np.ndarray, steps: int) -> np.ndarray:
    """Classical RK4 for T' = (a0 + t d) T, T(0) = I, over (N, n, n) stacks
    with np.matmul, written out independently of the library kernel; takes
    and returns the kernel's (n, n, N) layout."""
    a0, d = (np.moveaxis(x, -1, 0) for x in (a0, d))
    t_mats = np.broadcast_to(np.eye(a0.shape[-1]), a0.shape)
    dt = 1.0 / steps
    for s in range(steps):
        t0 = s * dt
        k1 = (a0 + t0 * d) @ t_mats
        k2 = (a0 + (t0 + 0.5 * dt) * d) @ (t_mats + 0.5 * dt * k1)
        k3 = (a0 + (t0 + 0.5 * dt) * d) @ (t_mats + 0.5 * dt * k2)
        k4 = (a0 + (t0 + dt) * d) @ (t_mats + dt * k3)
        t_mats = t_mats + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.moveaxis(t_mats, 0, -1)


@pytest.mark.parametrize("fan", EDGE_FANS)
def test_rk4_kernel_matches_a_reference_rk4(fan):
    # an inner shift makes the blends non-commuting, so only the integrator
    # fixes the transport
    c = shifted_connection("disk2d_so3_nonflat", refine=2)
    a0, d = (np.ascontiguousarray(x[..., EDGE_FANS[fan]]) for x in stretched_blends(c, 0, 1))
    got = correspondence._rk4(a0, d, 64)
    assert got.shape == a0.shape
    assert np.abs(got - reference_rk4(a0, d, 64)).max(initial=0.0) <= 1e-13
    if fan == "every-edge":
        assert np.abs(got - np.eye(3)[..., None]).max() > 0.1  # the transport is far from trivial


@pytest.mark.parametrize("name", ["disk2d_so3_nonflat", "disk2d_heis3_outer"])
def test_comb_transport_to_every_node_is_an_automorphism(name):
    # the form is pointwise a derivation of the bracket, so T is an automorphism
    c = fx.connection(name)
    for cid, chart in enumerate(c.manifold.charts):
        got = correspondence._comb_transports(c, cid, 64)
        assert got.shape == chart.resolution + (3, 3)
        assert np.max(automorphism_residuals(c.algebra, got.reshape(-1, 3, 3))) <= 1e-10


def random_chart_nodes(chart, rng, count: int) -> list:
    return [tuple(int(rng.integers(0, r)) for r in chart.resolution) for _ in range(count)]


def reference_transport(c: ConnectionForm, chart_id: int, start, end, steps: int) -> np.ndarray:
    """Classical RK4 for T' = A(t) T with A(t) = -sum_i v^i w_i(start + t v),
    v = end - start, along the straight chart segments from start (dim,) to
    each point of end (..., dim), over (..., n, n) stacks with np.matmul:
    an integrator written out independently of the library kernel.  The
    form is interpolated at t = 0 once, then at the midpoint and end of each
    step, whose end value is reused as the next step's start value."""
    chart = c.manifold.charts[chart_id]
    v = end - start
    n = c.algebra.dim

    def form(t):
        w = interpolate(chart, c.omega[chart_id], start + t * v)
        return -np.einsum("...i,...iab->...ab", v, w)

    t_mats = np.broadcast_to(np.eye(n), v.shape[:-1] + (n, n))
    dt = 1.0 / steps
    a1 = form(0.0)
    for s in range(steps):
        t0 = s * dt
        a0, a_mid, a1 = a1, form(t0 + 0.5 * dt), form(t0 + dt)
        k1 = a0 @ t_mats
        k2 = a_mid @ (t_mats + 0.5 * dt * k1)
        k3 = a_mid @ (t_mats + 0.5 * dt * k2)
        k4 = a1 @ (t_mats + dt * k3)
        t_mats = t_mats + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return t_mats


def comb_path(chart, node) -> list:
    """The comb's path from the chart center to a node, as its list of nodes:
    along axis 0 first, then axis 1, and so on."""
    path = [tuple(chart.center)]
    for a, target in enumerate(node):
        while path[-1][a] != target:
            step = list(path[-1])
            step[a] += 1 if target > step[a] else -1
            path.append(tuple(step))
    return path


def per_edge_comb(c: ConnectionForm, chart_id: int, steps: int) -> np.ndarray:
    """The comb's transports solved one grid edge at a time, in (n, n, 1)
    arrays, with the kernel's stage blends and products written out: A(t) =
    a0 + t (a1 - a0) from the node values -h_a w_a (negated on an edge that
    runs toward lower indices), then each node's transport is its edge's
    times that of the node the edge leaves."""
    chart = c.manifold.charts[chart_id]
    n = c.algebra.dim
    omega = c.omega[chart_id]
    out = {tuple(chart.center): np.eye(n)[..., None]}
    # by comb-path length, so that every node's parent is done before it
    order = sorted(np.ndindex(chart.resolution), key=lambda node: len(comb_path(chart, node)))
    for node in order[1:]:
        parent = comb_path(chart, node)[-2]
        a = next(b for b in range(chart.dim) if parent[b] != node[b])
        a0, a1 = (omega[end][a][..., None] * -chart.spacing[a] for end in (parent, node))
        if node[a] < parent[a]:
            a0, a1 = -a0, -a1
        d = a1 - a0
        t_mats = np.eye(n)[..., None].copy()
        dt = 1.0 / steps
        b1 = a0 + 0.0 * d
        for s in range(steps):
            t0 = s * dt
            b0, b_mid, b1 = b1, a0 + (t0 + 0.5 * dt) * d, a0 + (t0 + dt) * d
            k1 = np.einsum("ikp,kjp->ijp", b0, t_mats)
            k2 = np.einsum("ikp,kjp->ijp", b_mid, k1 * (0.5 * dt) + t_mats)
            k3 = np.einsum("ikp,kjp->ijp", b_mid, k2 * (0.5 * dt) + t_mats)
            k4 = np.einsum("ikp,kjp->ijp", b1, k3 * dt + t_mats)
            t_mats = t_mats + (((k1 + k2 * 2.0) + k3 * 2.0) + k4) * (dt / 6.0)
        out[node] = np.einsum("ikp,kjp->ijp", t_mats, out[parent])
    return np.stack([out[node][..., 0] for node in np.ndindex(chart.resolution)]).reshape(
        chart.resolution + (n, n)
    )


def test_f_map_frames_are_bitwise_the_per_stage_kernel_frames():
    # batching the edges of an axis pass into one RK4 solve, and the
    # prefix products into slices of one array, changes no bit of a frame
    c = fx.connection("cyl2_so3_twisted")
    frames = f_map(c, ode_steps=3).trivialization.frames
    for cid, frame in enumerate(frames):
        expected = c.bundle.frames[cid] @ per_edge_comb(c, cid, 3)
        assert frame.tobytes() == expected.tobytes()


def test_circle_monodromy_is_the_cocycle_constant():
    c = fx.connection("circle2_so3_twisted")
    hol = monodromy(f_map(c).trivialization)
    expected = scipy.linalg.expm(-fx.TWIST_ANGLE * K)
    assert np.abs(hol - expected).max() <= 1e-8


def test_abelian_monodromy_has_non_inner_holonomy():
    c = fx.connection("circle2_abelian2_flat")
    hol = monodromy(f_map(c).trivialization)
    expected = scipy.linalg.expm(-np.diag([0.25, -0.4]))
    assert np.abs(hol - expected).max() <= 1e-8


@pytest.mark.parametrize("name,last", [("disk2d_so3_bilinear", 0), ("interval3_so3_twisted", 2)])
def test_monodromy_needs_a_cycle_of_charts(name, last):
    # one chart, or a chain of charts: no forward overlap closes a loop along axis 0
    with pytest.raises(InputError, match=f"no forward overlap from chart {last}"):
        monodromy(fx.bundle(name))


@pytest.mark.parametrize("name", ["circle2", "circle4", "cyl2"])
def test_monodromy_of_the_identity_frames_is_the_identity(name):
    # every coordinate change of the reference structure is I
    t = reference_trivialization(SO3, fx.manifold(name))
    assert monodromy(t).tobytes() == np.eye(3).tobytes()


@pytest.mark.parametrize(
    "name", ["circle2_so3_twisted", "cyl2_so3_twisted", "circle2_abelian2_twisted", "circle2_abelian2_varying"]
)
def test_monodromy_conjugates_under_a_constant_frame_change(name):
    # frames phi g change coordinates by g^-1 phi_beta^-1 phi_alpha g, so the
    # product around the loop is g^-1 M g
    t = fx.bundle(name)
    n = t.algebra.dim
    g = scipy.linalg.expm(0.5 * np.random.default_rng(7).standard_normal((n, n)))
    moved = Trivialization(t.algebra, t.manifold, tuple(f @ g for f in t.frames))
    expected = np.linalg.solve(g, monodromy(t) @ g)
    assert np.abs(monodromy(moved) - expected).max() <= 1e-12
    assert np.abs(monodromy(t) - np.eye(n)).max() > 1e-3  # the loop is not trivial


# --- cross-chart reads ------------------------------------------------------------
# validate_lab on every fixture bundle at refine 1 and 2, the monodromy of f(C)
# on the loop covers, and both pullbacks along the doubling map and a constant map,
# pinned by the SHA-256 digest of tests/test_fixtures.py.  After an intended
# change, print a fresh table with ``PYTHONPATH=src python -m tests.test_correspondence``.
CROSS_CHART_CASES = (
    [f"lab {name} {refine}" for name in fx.BUNDLE_NAMES for refine in (1, 2)]
    + [f"monodromy {name}" for name in ("circle2_so3_twisted", "cyl2_so3_twisted", "circle2_abelian2_flat")]
    + [f"pull {name} {f}" for name in ("circle2_so3_twisted", "circle2_abelian2_flat") for f in ("degree2", "constant")]
)

CROSS_CHART_DIGESTS = {
    "lab circle2_so3_twisted 1": "805914be70911320af21d02723e48cdf816641b490f5344c5350bde2b0c8e6bf",
    "lab circle2_so3_twisted 2": "b377b41ee5c89bab5a1610ea3100cd0a3f5b7f8604db74e205f050775680acf4",
    "lab cyl2_so3_twisted 1": "805914be70911320af21d02723e48cdf816641b490f5344c5350bde2b0c8e6bf",
    "lab cyl2_so3_twisted 2": "b377b41ee5c89bab5a1610ea3100cd0a3f5b7f8604db74e205f050775680acf4",
    "lab circle2_abelian2_twisted 1": "b668c416cdbf82c37544d5831968a42a87cb49c02c4e10331ed8a9f2ba5aeaf8",
    "lab circle2_abelian2_twisted 2": "b668c416cdbf82c37544d5831968a42a87cb49c02c4e10331ed8a9f2ba5aeaf8",
    "lab circle2_abelian2_varying 1": "b668c416cdbf82c37544d5831968a42a87cb49c02c4e10331ed8a9f2ba5aeaf8",
    "lab circle2_abelian2_varying 2": "b668c416cdbf82c37544d5831968a42a87cb49c02c4e10331ed8a9f2ba5aeaf8",
    "lab disk2d_so3_bilinear 1": "1be67e4906af7179c91a3d45bc0a33096b892f84ec4f376df10f4a4445208a0c",
    "lab disk2d_so3_bilinear 2": "1be67e4906af7179c91a3d45bc0a33096b892f84ec4f376df10f4a4445208a0c",
    "lab cyl2_heis3_drift 1": "ddd1be52fe7233cb21ddf4cef22cbce0f8687f3db8e6e0541fbe61b0e641ccce",
    "lab cyl2_heis3_drift 2": "ddd1be52fe7233cb21ddf4cef22cbce0f8687f3db8e6e0541fbe61b0e641ccce",
    "lab interval3_so3_twisted 1": "bffd04f6e2b32fabca1f03587a977697eb3d4750d528e20e21418d84979d3b5a",
    "lab interval3_so3_twisted 2": "484e2589e69236019be2beecfb160ed467b0d8ae653ab882d49b187bd6a4b127",
    "monodromy circle2_so3_twisted": "b142ca232d834af638e3cbbd10749b2e35a552505691189cacdb321c3f1b7845",
    "monodromy cyl2_so3_twisted": "b142ca232d834af638e3cbbd10749b2e35a552505691189cacdb321c3f1b7845",
    "monodromy circle2_abelian2_flat": "885214a4d1b9c38249621b2f4a21d78b16636d7949ff581c37f477c03e5776a7",
    "pull circle2_so3_twisted degree2": "197065ff218e9f61f00a953921abf8edba70d546b013eda9dbdb4f99c99eebbb",
    "pull circle2_so3_twisted constant": "f0beaf51c764ff6db702643a9f8e362e807d90905eeb9b45dd1f7ba0f4cdd8de",
    "pull circle2_abelian2_flat degree2": "a3831c2dd415f758de12d0c24e546586f986301409cce1735cb8b4f0e901f3c2",
    "pull circle2_abelian2_flat constant": "26e55f7cfeabb17bebdced327f7d4ad2dcc96e6b2f173f104a215b013df341d2",
}


def cross_chart_arrays(case: str) -> list:
    kind, name, *arg = case.split()
    if kind == "lab":
        rep = validate_lab(fx.bundle(name, int(arg[0])))
        return [np.array([rep.passed]), np.array(list(rep.residuals().values()))]
    c = fx.connection(name)
    if kind == "monodromy":
        return [monodromy(f_map(c).trivialization)]
    f = degree2_circle_map() if arg == ["degree2"] else constant_map(fx.manifold("circle4"), c.manifold, 0, [0.25])
    return [*pullback_lab(c.bundle, f).frames, *pullback_connection(c, f).omega]


@pytest.mark.parametrize("case", CROSS_CHART_CASES)
def test_cross_chart_reads_match_their_digest(case):
    assert digest(cross_chart_arrays(case)) == CROSS_CHART_DIGESTS[case]


# --- f_map -----------------------------------------------------------------------
# f_map's frames on every fixture coupling at refine 1 and 2, and on the
# benchmark's `transport` input of seed 1, pinned by the SHA-256 digest of
# tests/test_fixtures.py.  The table prints with the one above.
F_MAP_CASES = [f"{name} {refine}" for name in fx.COUPLING_NAMES for refine in (1, 2)] + ["transport 1"]

F_MAP_DIGESTS = {
    "interval1_so3_flat 1": "6e684d7c1e5ec1af2517ed455d494e94aafe8145922a013ebd5b958dbd0f5d6d",
    "interval1_so3_flat 2": "6bc91cbfa99fa228390fefaef06415b04ebb50c611eeb54c439564aa795d0b99",
    "circle2_so3_twisted 1": "c4571ab87859c883dd2f963253bb2da2a4c99810f2b26872f289c81cfcf2638d",
    "circle2_so3_twisted 2": "40bbe8b30fc6f20a54c8e2d570f0b85e9642a22b5f180123797ef4ca29668a42",
    "cyl2_so3_twisted 1": "bbf1f7609d72403930cdc38fad075560c825821608ecb1aae1533dfdc096b42f",
    "cyl2_so3_twisted 2": "d7c740d23538abf18fc85bf82947ebdb1db9525bfa04c3e20b8fc43d3296fbe4",
    "disk2d_so3_nonflat 1": "45ea6686c86f2646560ff554efd83f44f955ffd3d755fd51df6669707ae93e46",
    "disk2d_so3_nonflat 2": "91d504000c2a9ac164358c124b6a5e7cb95f6cf0436d91780067806da1720411",
    "circle2_abelian2_flat 1": "0536e5ba96bc0b7d1615e046006764c7b671d00bf99ba2b5739fce82daaf6453",
    "circle2_abelian2_flat 2": "3155e7795baf9a2ec211f7672711107c16e044644e6d7d7e00e8a60d847cc7fe",
    "transport 1": "21b59906271ea2fefd34d236d5638ddd63471c6ede9bea64a070883215e63d7a",
}


def benchmark_transport_input(seed: int) -> ConnectionForm:
    """perfbench's `transport` input for the first timed operation at a seed
    (its rng is default_rng([seed, 1, 0])): disk2d_so3_nonflat at refine 2
    shifted by ad(l), l a band-limited one-form of amplitude 0.3."""
    c0 = fx.connection("disk2d_so3_nonflat", refine=2)
    rng = np.random.default_rng([seed, 1, 0])
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.3, constant_scale=0.3)
    return shift_by_inner(c0, l.sample(c0.manifold))


def f_map_frames(case: str) -> tuple:
    name, arg = case.split()
    c = benchmark_transport_input(int(arg)) if name == "transport" else fx.connection(name, int(arg))
    return f_map(c).trivialization.frames


@pytest.mark.parametrize("case", F_MAP_CASES)
def test_f_map_frames_match_their_digest(case):
    assert digest(f_map_frames(case)) == F_MAP_DIGESTS[case]


def test_f_map_of_flat_identity_data_is_trivial():
    c = fx.connection("interval1_so3_flat")
    fm = f_map(c)
    assert fm.passed
    assert np.abs(fm.trivialization.frames[0] - np.eye(3)).max() == 0.0


def test_f_map_of_flat_twisted_circle_has_locally_constant_transitions():
    c = fx.connection("circle2_so3_twisted")
    fm = f_map(c)
    assert fm.passed
    for k in range(len(c.manifold.overlaps)):
        grid = fm.trivialization.transition_grid(k)
        assert np.abs(grid - grid.reshape(-1, 3, 3)[0]).max() <= 1e-9


def test_f_map_on_single_chart_nonflat_validates():
    c = fx.connection("disk2d_so3_nonflat")
    fm = f_map(c)
    assert fm.lab_report.passed
    assert len(c.manifold.overlaps) == 0


def test_f_map_frames_are_comb_transports():
    # an inner shift makes omega non-commuting along grid lines, so the
    # transport is no exponential of an integral and only the integrator
    # fixes it: a node's frame is the product of straight-path solves along
    # the grid edges of its comb path, axis 0 first
    c0 = fx.connection("disk2d_so3_nonflat")
    m = c0.manifold
    rng = np.random.default_rng(5)
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.3, constant_scale=0.3).sample(m)
    c = shift_by_inner(c0, l)
    frames = f_map(c).trivialization.frames[0]
    chart = m.charts[0]
    corners = list(itertools.product(*((0, r - 1) for r in chart.resolution)))
    for node in corners + random_chart_nodes(chart, rng, 16):
        path = comb_path(chart, node)
        product = np.eye(3)
        for start, end in zip(path, path[1:]):
            edge = reference_transport(c, 0, chart.node_point(start), chart.node_point(end), EDGE_STEPS)
            product = edge @ product
        assert np.abs(frames[node] - c.bundle.frames[0][node] @ product).max() <= 1e-13


@pytest.mark.parametrize("name,steps", [("disk2d_so3_nonflat", 64), ("circle2_so3_twisted", 8)])
def test_f_map_solves_one_edge_batch_per_chart_axis(monkeypatch, name, steps):
    # on a grid edge the interpolant of omega is linear, so f_map reads no
    # interpolation; each chart axis is one RK4 solve over the edges of its
    # pass, and the passes together solve each of the comb's nodes - 1 edges once
    c = fx.connection(name)
    interpolated, solves = [], []
    rk4 = correspondence._rk4

    def counted_interpolation(chart, values, points):
        interpolated.append(chart)
        return interpolate(chart, values, points)

    def counted_solve(a0, d, steps):
        solves.append((a0.shape[-1], steps))
        return rk4(a0, d, steps)

    # correspondence binds no interpolate: every read at points resolves it in manifolds
    monkeypatch.setattr(manifolds, "interpolate", counted_interpolation)
    monkeypatch.setattr(correspondence, "_rk4", counted_solve)
    f_map(c, ode_steps=steps)
    charts = c.manifold.charts
    assert interpolated == []
    assert len(solves) == sum(chart.dim for chart in charts)
    assert {s for _, s in solves} == {steps}
    assert sum(edges for edges, _ in solves) == sum(math.prod(chart.resolution) - 1 for chart in charts)


def ray_fan_structure(c: ConnectionForm) -> Trivialization:
    """The structure whose frames are the bundle's frames times the 64-step
    reference transports along the straight rays from each chart's center."""
    frames = []
    for cid, chart in enumerate(c.manifold.charts):
        rays = reference_transport(c, cid, chart.node_point(chart.center), chart.grid_points(), 64)
        frames.append(c.bundle.frames[cid] @ rays)
    return Trivialization(c.algebra, c.manifold, tuple(frames))


@pytest.mark.parametrize("name", fx.COUPLING_NAMES)
def test_comb_and_ray_frames_are_equivalent_structures(name):
    # a coupling's curvature is inner-valued, so transports along homotopic
    # paths differ by an inner automorphism and f's class does not depend on
    # the paths; the gate is TRANS_TOL, not ALG_TOL, because 64-step ray
    # frames sit up to 3.4e-9 off Aut on the benchmark's shifted disk
    c = fx.connection(name)
    rep = trivializations_equivalent(f_map(c).trivialization, ray_fan_structure(c), aut_tol=TRANS_TOL)
    assert rep.passed
    assert rep.counts()["outer"] == rep.counts()["undecided"] == 0 < rep.counts()["inner"]


@pytest.mark.parametrize("refine", [1, 2])
def test_f_of_g_of_the_abelian_twisted_bundle_is_delta_continuous(refine):
    # defect C's delta half: the comb steps on the kinks of the interpolant
    # of omega, so f(g(T)) reads no outer ratio (64-step ray frames, which
    # step across the kinks, read 16 and 28 outer at refine 1 and 2)
    t = fx.bundle("circle2_abelian2_twisted", refine)
    fm = f_map(g_map(t, partition_of_unity(t.manifold)))
    assert fm.passed
    assert fm.delta.counts()["outer"] == fm.delta.counts()["undecided"] == 0


def test_round_trip_from_a_connection_sweeps_only_f_of_c(monkeypatch):
    # of f(g(f(C))) the report reads the frames and validate_lab, so the
    # verdict sweep runs on f(C) alone
    swept = []

    def counted(t, *args, **kwargs):
        swept.append(t)
        return check_delta_continuity(t, *args, **kwargs)

    monkeypatch.setattr(correspondence, "check_delta_continuity", counted)
    rep = verify_inverse(c=fx.connection("cyl2_so3_twisted"))
    assert rep.passed and not rep.inconclusive
    assert len(swept) == 1


def test_f_map_rejects_non_coupling():
    with pytest.raises(PreconditionError, match="coupling"):
        f_map(fx.connection("disk2d_abelian2_nonflat"))


@pytest.mark.parametrize("name", fx.COUPLING_NAMES)
def test_f_map_theorem_checks_on_every_fixture_coupling(name):
    fm = f_map(fx.connection(name))
    assert fm.lab_report.max_transition_residual <= 1e-6
    assert fm.delta.passed
    counts = fm.delta.counts()
    assert counts["outer"] == 0 and counts["undecided"] == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        # one RK4 step per edge on the steep form: transitions off Aut by 2.7e-5 > TRANS_TOL
        {"c": steep_circle_coupling, "ode_steps": 1},
        # round-off transitions (7.5e-14) fail a gate below them
        {"c": lambda: fx.connection("circle2_so3_twisted"), "aut_tol": 1e-16},
    ],
)
def test_f_map_sweeps_only_a_structure_that_validated(monkeypatch, kwargs):
    # a structure outside LAB gets the "nothing swept" report, the one
    # check_delta_continuity gives a singular frame, and no ratio is classified
    def no_sweep(*args, **kw):
        raise AssertionError("the continuity sweep ran on a structure that failed validation")

    monkeypatch.setattr(correspondence, "check_delta_continuity", no_sweep)
    fm = f_map(**{**kwargs, "c": kwargs["c"]()})
    assert not fm.lab_report.passed and not fm.passed
    assert fm.delta == DeltaReport(False, False, (), math.inf, math.inf)


def test_f_map_class_invariant_under_ray_system_choice():
    # transporting from a different base node lands in the same equivalence class
    c = fx.connection("circle2_so3_twisted")
    default = f_map(c)
    spec = fileio.manifold_to_dict(c.manifold)
    for chart, center in zip(spec["charts"], ([10], [20])):
        chart["center"] = center
    m = build_manifold(spec)
    shifted = f_map(ConnectionForm(reference_trivialization(c.algebra, m), c.omega))
    rep = trivializations_equivalent(
        shifted.trivialization, default.trivialization, aut_tol=1e-5
    )
    assert rep.passed


# --- g_map -----------------------------------------------------------------------

def test_g_map_constant_frame_gives_zero_form():
    m = fx.manifold("interval1")
    a = scipy.linalg.expm(0.4 * K)
    frames = (np.broadcast_to(a, m.charts[0].resolution + (3, 3)).copy(),)
    t = Trivialization(SO3, m, frames)
    c = g_map(t, partition_of_unity(m))
    assert np.abs(c.omega[0]).max() <= 1e-12


def test_g_map_exponential_frame_closed_form():
    # frame exp(x ad(e3)): omega = phi d(phi^{-1}) = -ad(e3); at one grid
    # refinement the FD error sits inside the 1e-4 budget
    m = fx.manifold("interval1", refine=2)
    x = m.charts[0].grid_points()[..., 0]
    frames = (np.stack([scipy.linalg.expm(v * K) for v in x]).reshape(x.shape + (3, 3)),)
    c = g_map(Trivialization(SO3, m, frames), partition_of_unity(m))
    assert np.abs(c.omega[0][..., 0, :, :] + K).max() <= 1e-4
    # at the default grid the boundary stencil constant caps the error at ~h^2/3
    m0 = fx.manifold("interval1")
    x0 = m0.charts[0].grid_points()[..., 0]
    frames0 = (np.stack([scipy.linalg.expm(v * K) for v in x0]).reshape(x0.shape + (3, 3)),)
    c0 = g_map(Trivialization(SO3, m0, frames0), partition_of_unity(m0))
    assert np.abs(c0.omega[0][..., 0, :, :] + K).max() <= 4e-4


def test_g_map_output_validates_at_strict_tolerances():
    t = fx.bundle("circle2_so3_twisted")
    c = g_map(t, partition_of_unity(t.manifold))
    rep = validate_connection(c)
    assert rep.passed
    assert rep.max_derivation_residual <= 1e-9


@pytest.mark.parametrize(
    "name", ["circle2_so3_twisted", "cyl2_so3_twisted", "circle2_abelian2_twisted", "disk2d_so3_bilinear"]
)
def test_g_map_accordance_on_fixture_bundles(name):
    t = fx.bundle(name)
    c = g_map(t, partition_of_unity(t.manifold))
    result = accordance(c)
    assert result.passed
    assert result.max_residual <= 1e-4


def test_g_map_rejects_delta_failing_structure():
    t = fx.bundle("circle2_abelian2_varying")
    with pytest.raises(PreconditionError, match="quotient"):
        g_map(t, partition_of_unity(t.manifold))


def test_g_map_rejects_a_partition_of_another_manifold():
    t = fx.bundle("circle2_so3_twisted")
    with pytest.raises(InputError, match="different manifold"):
        g_map(t, partition_of_unity(fx.manifold("circle2")))


def test_g_map_rejects_a_frame_that_is_not_an_automorphism():
    t = fx.bundle("circle2_so3_twisted")
    frames = [grid.copy() for grid in t.frames]
    frames[0][5] *= 1.5
    t_scaled = Trivialization(t.algebra, t.manifold, tuple(frames))
    with pytest.raises(PreconditionError, match=r"frame chart 0 node \(5,\)"):
        g_map(t_scaled, partition_of_unity(t.manifold))


def _defining_sum(t, h, u):
    """Literal per-chart evaluation of sum_alpha phi_alpha d(phi_alpha^{-1} h_alpha u)."""
    m = t.manifold
    inv = [np.linalg.inv(f) for f in t.frames]
    terms = []
    for cid, chart in enumerate(m.charts):
        hu = h.fields[cid][..., None] * np.einsum("...ab,...b->...a", inv[cid], u[cid])
        per_axis = np.stack(
            [
                np.einsum("...ab,...b->...a", t.frames[cid], grid_derivative(chart, hu, j))
                for j in range(m.dim)
            ],
            axis=-2,
        )
        terms.append(per_axis)
    out = []
    for cid, chart in enumerate(m.charts):
        rhs = terms[cid].copy()
        for o in m.overlaps_from(cid):
            slices = region_slices(chart, o.region)
            images = o.apply(chart.grid_points()[slices])
            other = interpolate(m.charts[o.beta], terms[o.beta], images)
            rhs[slices] += np.einsum("ji,...ja->...ia", o.matrix, other)
        out.append(rhs)
    return out


def test_g_map_pulls_each_overlap_bitwise_as_a_direct_interpolation(monkeypatch):
    t = fx.bundle("cyl2_so3_twisted")
    m = t.manifold
    pulls = []

    def recorded(m, o, field, points=None):
        pair = overlap_pair(m, o, field, points)
        pulls.append((o, field, pair[1]))
        return pair

    monkeypatch.setattr(correspondence, "overlap_pair", recorded)
    g_map(t, partition_of_unity(m), check=False)
    assert [o for o, _, _ in pulls] == [o for cid in range(len(m.charts)) for o in m.overlaps_from(cid)]
    for o, field, pulled in pulls:
        chart = m.charts[o.alpha]
        images = o.apply(chart.grid_points()[region_slices(chart, o.region)])
        direct = interpolate(m.charts[o.beta], field[o.beta], images)
        assert pulled.shape == direct.shape and pulled.tobytes() == direct.tobytes()


def test_verify_inverse_builds_one_interpolation_operator_per_overlap(monkeypatch):
    # a connection read back from its file layout, as the CLI reads one: a
    # new cover, whose overlap plan the round trip builds and then shares
    rng = np.random.default_rng(5)
    c0 = fx.connection("cyl2_so3_twisted")
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.02).sample(c0.manifold)
    c = fileio.load_connection(fileio.connection_to_dict(shift_by_inner(c0, l)))
    built = []
    operator = manifolds.interpolation_operator

    def counted(chart, points):
        built.append(np.shape(points))
        return operator(chart, points)

    monkeypatch.setattr(manifolds, "interpolation_operator", counted)
    assert verify_inverse(c=c).passed
    assert len(built) == len(c.manifold.overlaps) == 4
    built.clear()
    assert verify_inverse(c=c).passed
    assert built == []


def test_g_map_operator_agrees_with_defining_sum_single_chart():
    # the disk chart spacing is 1/16 at the default grid; one refinement puts
    # the product-rule FD error inside the 1e-4 budget on the whole grid
    t = fx.bundle("disk2d_so3_bilinear", refine=2)
    m = t.manifold
    h = partition_of_unity(m)
    c = g_map(t, h)
    rng = np.random.default_rng(77)
    u = random_harmonic_field(rng, 2, (3,), amplitude=0.01).sample(m)
    x = random_harmonic_field(rng, 2, (2,), amplitude=0.01, constant_scale=0.8).sample(m)
    lhs = covariant_along(c, x, u)[0]
    rhs = _defining_sum(t, h, u)
    contracted = np.einsum("...i,...ia->...a", x[0], rhs[0])
    assert np.abs(lhs - contracted).max() <= 1e-4


def test_g_map_operator_agrees_with_defining_sum_two_charts():
    # The literal finite-difference evaluation of the defining sum mixes
    # one-sided and central stencils at the four overlap-region edge nodes of
    # each chart, where the bump tails are barely resolved; everywhere the
    # stencil geometry is consistent, the two evaluations agree within 1e-4.
    t = fx.bundle("circle2_so3_twisted")
    m = t.manifold
    h = partition_of_unity(m)
    c = g_map(t, h)
    rng = np.random.default_rng(77)
    u = random_harmonic_field(rng, 1, (3,), amplitude=0.01).sample(m)
    x = random_harmonic_field(rng, 1, (1,), amplitude=0.01, constant_scale=0.8).sample(m)
    lhs = covariant_along(c, x, u)
    rhs = _defining_sum(t, h, u)
    for cid, chart in enumerate(m.charts):
        contracted = np.einsum("...i,...ia->...a", x[cid], rhs[cid])
        diff = np.abs(lhs[cid] - contracted).max(axis=-1)
        rim = np.zeros(diff.shape, dtype=bool)
        for o in m.overlaps_from(cid):
            lo, hi = region_slices(chart, o.region)[0].start, region_slices(chart, o.region)[0].stop
            for edge in (lo, hi - 1):
                rim[max(edge - 1, 0) : edge + 2] = True
        assert diff[~rim].max() <= 1e-4


# --- well-definedness --------------------------------------------------------------

def test_well_defined_rejects_a_singular_frame():
    t = fx.bundle("circle2_so3_twisted")
    frames = [grid.copy() for grid in t.frames]
    frames[0][16] = 0.0
    t_prime = Trivialization(t.algebra, t.manifold, tuple(frames))
    h = partition_of_unity(t.manifold)
    with pytest.raises(PreconditionError, match="not equivalent"):
        verify_g_well_defined(t, t_prime, h, h)


def test_same_inputs_give_zero_residual():
    t = fx.bundle("circle2_so3_twisted")
    h = partition_of_unity(t.manifold)
    rep = verify_g_well_defined(t, t, h, h)
    assert rep.passed and rep.max_residual <= 1e-12


def test_independent_of_partition_choice():
    t = fx.bundle("circle2_so3_twisted")
    h1 = partition_of_unity(t.manifold, sharpness=1.0)
    h2 = partition_of_unity(t.manifold, sharpness=2.0)
    rep = verify_g_well_defined(t, t, h1, h2)
    assert rep.passed
    assert rep.max_residual <= 1e-4


def test_independent_of_equivalent_reframing():
    t = fx.bundle("circle2_so3_twisted")
    posts = [
        scipy.linalg.expm(ad(SO3, np.array([0.2, 0.0, 0.1]))),
        scipy.linalg.expm(ad(SO3, np.array([0.0, -0.3, 0.2]))),
    ]
    t2 = Trivialization(SO3, t.manifold, tuple(t.frames[i] @ posts[i] for i in range(2)))
    h1 = partition_of_unity(t.manifold, sharpness=1.0)
    h2 = partition_of_unity(t.manifold, sharpness=2.0)
    rep = verify_g_well_defined(t, t2, h1, h2)
    assert rep.passed


def test_well_defined_refuses_a_structure_outside_lab_delta():
    # circle2_abelian2_varying is not continuous into the discrete outer
    # quotient, so it lies outside the theorem rather than refuting it
    t = fx.bundle("circle2_abelian2_varying")
    h1 = partition_of_unity(t.manifold, sharpness=1.0)
    h2 = partition_of_unity(t.manifold, sharpness=2.0)
    with pytest.raises(PreconditionError, match="quotient"):
        verify_g_well_defined(t, t, h1, h2)


def test_well_defined_requires_equivalent_structures():
    t = fx.bundle("circle2_abelian2_varying")
    ref = reference_trivialization(t.algebra, t.manifold)
    h = partition_of_unity(t.manifold)
    with pytest.raises(PreconditionError):
        verify_g_well_defined(t, ref, h, h)


# --- round trips ---------------------------------------------------------------------

def test_flat_identity_round_trip_is_exact():
    rep = verify_inverse(c=fx.connection("interval1_so3_flat"))
    assert rep.passed
    for d in rep.directions.values():
        assert d.residual <= 1e-10


@pytest.mark.parametrize(
    "name",
    [
        "interval1_so3_flat",
        "circle2_so3_twisted",
        "cyl2_so3_twisted",
        "disk2d_so3_nonflat",
        "circle2_abelian2_flat",
    ],
)
def test_round_trip_from_connections(name):
    rep = verify_inverse(c=fx.connection(name))
    assert rep.passed and not rep.inconclusive
    assert rep.directions["connection_roundtrip"].residual <= 1e-4


@pytest.mark.parametrize("name", ["circle2_so3_twisted", "disk2d_so3_bilinear"])
def test_round_trip_from_structures(name):
    rep = verify_inverse(t=fx.bundle(name))
    assert rep.passed and not rep.inconclusive


def test_round_trip_reports_non_couplings():
    rep = verify_inverse(c=fx.connection("disk2d_abelian2_nonflat"))
    assert not rep.passed
    assert "not a coupling" in rep.note


@pytest.mark.parametrize(
    "name, residual", [("disk2d_abelian2_nonflat", "1.000e+00"), ("disk2d_heis3_outer", "1.871e-01")]
)
def test_round_trip_note_names_the_accordance_residual(name, residual):
    # the wording of f_map's refusal
    rep = verify_inverse(c=fx.connection(name))
    assert not rep.passed and rep.directions == {}
    assert rep.note == f"not a coupling: accordance residual {residual} > 1.0e-04"


def heis3_disk_coupling(refine: int) -> ConnectionForm:
    """omega_y = x ad(e1) + DRIFT over identity frames on disk2d: R_xy =
    ad(e1) is inner, so a coupling, whose transports carry an outer drift."""
    g = fx.algebra("heis3")
    m = fx.manifold("disk2d", refine)
    omega = []
    for chart in m.charts:
        w = np.zeros(chart.resolution + (m.dim, g.dim, g.dim))
        w[..., 1, :, :] = chart.grid_points()[..., 0, None, None] * ad(g, unit_vector(3, 0)) + fx.DRIFT
        omega.append(w)
    return ConnectionForm(reference_trivialization(g, m), tuple(omega))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1, defect A: the round trip FAILs at refine 1 and PASSes at refine 2",
)
def test_heis3_disk_round_trip_verdict_does_not_flip_with_refinement():
    # at refine 1, 990 of the 1088 snake edges of trivialization_roundtrip read outer
    verdicts = {verify_inverse(c=heis3_disk_coupling(refine)).passed for refine in (1, 2)}
    assert len(verdicts) == 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the structure side reads a 2e-4 outer shift as equivalent at refine 8",
)
def test_coupling_and_structure_equivalence_agree_on_a_shifted_abelian_pair():
    # abelian2 has Inn = {id}: the shift is outer, and coupling_equivalent
    # FAILs at 2.0e-4 on every grid; the f_map images read 512 inner edges at refine 8
    for refine in (1, 2, 4, 8):
        c = fx.connection("circle2_abelian2_flat", refine)
        shifted = ConnectionForm(c.bundle, tuple(w + 2e-4 * np.diag([1.0, 0.0]) for w in c.omega))
        structures = trivializations_equivalent(f_map(c).trivialization, f_map(shifted).trivialization)
        assert coupling_equivalent(c, shifted).passed == structures.passed, refine


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP defect C, items 3 and 9: a structure in LAB^delta FAILs its round trip",
)
def test_abelian_twisted_bundle_round_trip_does_not_fail():
    # the bundle passes validate-lab and check-delta, so the theorem says its
    # round trip holds; today connection_roundtrip reads 0.0714 and 0.0225 at
    # refine 1 and 2 against ACC_TOL = 1e-4, an O(h^2) error that also makes
    # f(g(T)) drift off T (f(g(T)) itself is delta-continuous, see above)
    for refine in (1, 2):
        rep = verify_inverse(t=fx.bundle("circle2_abelian2_twisted", refine))
        assert rep.passed or rep.inconclusive, refine


def abelian_jump_bundle(refine: int) -> Trivialization:
    """abelian2 over circle2 whose chart-1 frames are I below the box
    midpoint and diag(1, -1) from it on: a jump inside one chart."""
    g, m = fx.algebra("abelian2"), fx.manifold("circle2", refine)
    frames = [np.broadcast_to(np.eye(2), chart.resolution + (2, 2)).copy() for chart in m.charts]
    chart = m.charts[1]
    frames[1][chart.grid_points()[..., 0] >= chart.box[0].mean()] = np.diag([1.0, -1.0])
    return Trivialization(g, m, tuple(frames))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 13, defect E: nothing checks that a chart's frames are continuous",
)
def test_a_structure_that_passes_both_checks_has_a_passing_round_trip():
    # validate_lab and check_delta_continuity pass (36 and 68 inner ratios),
    # while connection_roundtrip reads 32.4 and 64.9 at refine 1 and 2
    for refine in (1, 2):
        t = abelian_jump_bundle(refine)
        if validate_lab(t).passed and check_delta_continuity(t).passed:
            assert verify_inverse(t=t).passed, refine


def test_round_trip_requires_exactly_one_input():
    with pytest.raises(InputError):
        verify_inverse()


if __name__ == "__main__":
    for case in CROSS_CHART_CASES:
        print(f'    "{case}": "{digest(cross_chart_arrays(case))}",')
    print()
    for case in F_MAP_CASES:
        print(f'    "{case}": "{digest(f_map_frames(case))}",')
