"""Tests for parallel transport and the two classification maps.

Oracles: closed-form matrix exponentials for constant-form transport,
transport composition for the flow property, and a literal re-evaluation of
the defining h-weighted sum for the connection assembled by g_map.
"""

import numpy as np
import pytest
import scipy.linalg

from labcoupling import correspondence, fixtures as fx
from labcoupling.algebra import ad, unit_vector
from labcoupling.bundles import (
    Trivialization,
    reference_trivialization,
    trivializations_equivalent,
)
from labcoupling.connections import (
    ConnectionForm,
    accordance,
    apply_connection,
    shift_by_inner,
    validate_connection,
)
from labcoupling.correspondence import (
    f_map,
    g_map,
    loop_transport,
    parallel_transport,
    verify_g_well_defined,
    verify_inverse,
)
from labcoupling.errors import InputError, PreconditionError
from labcoupling.manifolds import (
    Path,
    grid_derivative,
    interpolate,
    partition_of_unity,
    random_harmonic_field,
    ray_path,
    region_slices,
)

SO3 = fx.algebra("so3")
K = ad(SO3, unit_vector(3, 2))


def constant_connection(manifold_name: str, matrix: np.ndarray, algebra=SO3) -> ConnectionForm:
    m = fx.manifold(manifold_name)
    omega = tuple(
        np.broadcast_to(matrix, chart.resolution + (m.dim,) + matrix.shape).copy()
        for chart in m.charts
    )
    return ConnectionForm(reference_trivialization(algebra, m), omega)


# --- parallel transport --------------------------------------------------------

def test_flat_transport_is_identity():
    c = fx.connection("interval1_so3_flat")
    path = ray_path(c.manifold, 0, (32,), 64)
    res = parallel_transport(c, path)
    assert np.abs(res.matrix - np.eye(3)).max() == 0.0


def test_constant_form_transport_matches_matrix_exponential():
    d = 0.9 * K  # ||d|| <= 1
    c = constant_connection("interval1", d)
    path = ray_path(c.manifold, 0, (32,), 64)  # 0.5 -> 1.0
    res = parallel_transport(c, path)
    exact = scipy.linalg.expm(-0.5 * d)
    assert np.abs(res.matrix - exact).max() <= 1e-8
    assert res.aut_residual <= 1e-10


@pytest.mark.parametrize(
    "name,nodes", [("disk2d_so3_nonflat", 50), ("circle2_so3_twisted", 20), ("cyl2_so3_twisted", 20)]
)
def test_transport_flow_property_on_split_rays(name, nodes):
    # T(gamma1 . gamma2) = T(gamma2) T(gamma1): split each ray at its midpoint
    c = fx.connection(name)
    m = c.manifold
    rng = np.random.default_rng(23)
    for _ in range(nodes):
        cid = int(rng.integers(0, len(m.charts)))
        chart = m.charts[cid]
        start = chart.node_point(chart.center)
        node = tuple(int(rng.integers(0, r)) for r in chart.resolution)
        if node == chart.center:
            continue
        end = chart.node_point(node)
        mid = 0.5 * (start + end)
        full = parallel_transport(c, ray_path(m, cid, node, 64)).matrix
        first = parallel_transport(c, Path(cid, start, mid, 32)).matrix
        second = parallel_transport(c, Path(cid, mid, end, 32)).matrix
        assert np.abs(second @ first - full).max() <= 1e-6


def test_rk4_order_four_against_closed_form():
    d = K.copy()
    c = constant_connection("interval1", d)
    exact = scipy.linalg.expm(-0.5 * d)
    errors = []
    for steps in (8, 16):
        res = parallel_transport(c, ray_path(c.manifold, 0, (32,), steps))
        errors.append(np.abs(res.matrix - exact).max())
    assert 12.0 <= errors[0] / errors[1] <= 20.0


def test_transport_rejects_escaping_path():
    c = fx.connection("interval1_so3_flat")
    path = ray_path(c.manifold, 0, (32,), 8)  # 0.5 -> 1.0
    for start, end in ((path.start + 0.4, path.end + 0.4), (path.end + 0.4, path.start)):
        with pytest.raises(InputError, match="leaves"):
            parallel_transport(c, Path(0, start, end, 8))


@pytest.mark.parametrize("steps", [0, -1])
def test_transport_rejects_non_positive_step_counts(steps):
    c = fx.connection("interval1_so3_flat")
    with pytest.raises(InputError, match="step"):
        parallel_transport(c, ray_path(c.manifold, 0, (32,), steps))


def reference_transport(c: ConnectionForm, path: Path) -> np.ndarray:
    """Classical RK4 for T' = A(t) T over (..., n, n) stacks with np.matmul,
    written out independently of the library kernel.  The form is sampled
    at t = 0 once, then at the midpoint and end of each step, whose end
    value is reused as the next step's start value."""
    chart = c.manifold.charts[path.chart_id]
    v = path.end - path.start
    n = c.algebra.dim

    def form(t):
        w = interpolate(chart, c.omega[path.chart_id], path.start + t * v)
        return -np.einsum("...i,...iab->...ab", v, w)

    t_mats = np.broadcast_to(np.eye(n), v.shape[:-1] + (n, n))
    dt = 1.0 / path.steps
    a1 = form(0.0)
    for s in range(path.steps):
        t0 = s * dt
        a0, a_mid, a1 = a1, form(t0 + 0.5 * dt), form(t0 + dt)
        k1 = a0 @ t_mats
        k2 = a_mid @ (t_mats + 0.5 * dt * k1)
        k3 = a_mid @ (t_mats + 0.5 * dt * k2)
        k4 = a1 @ (t_mats + dt * k3)
        t_mats = t_mats + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return t_mats


@pytest.mark.parametrize("fan", ["point", "row", "grid", "empty"])
def test_transport_kernel_matches_a_reference_rk4(fan):
    # an inner shift makes omega non-commuting along rays, so only the
    # integrator fixes the transport; every lead shape of Path.end is covered
    c0 = fx.connection("disk2d_so3_nonflat", refine=2)
    m = c0.manifold
    rng = np.random.default_rng(11)
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.3, constant_scale=0.3).sample(m)
    c = shift_by_inner(c0, l)
    chart = m.charts[0]
    grid = chart.grid_points()
    end = {
        "point": grid[3, 60],
        "row": grid[:, 7],
        "grid": grid[::4, ::5],
        "empty": np.empty((0, m.dim)),
    }[fan]
    path = Path(0, chart.node_point(chart.center), end, 64)
    got = correspondence._transport(c, path)
    expected = reference_transport(c, path)
    assert got.shape == end.shape[:-1] + (3, 3) == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= 1e-13
    if fan == "grid":
        assert np.abs(got - np.eye(3)).max() > 0.1  # the transport is far from trivial


def test_circle_loop_transport_is_the_cocycle_constant():
    c = fx.connection("circle2_so3_twisted")
    hol = loop_transport(c)
    expected = scipy.linalg.expm(-fx.TWIST_ANGLE * K)
    assert np.abs(hol - expected).max() <= 1e-8


def test_abelian_loop_transport_has_non_inner_holonomy():
    c = fx.connection("circle2_abelian2_flat")
    hol = loop_transport(c)
    expected = scipy.linalg.expm(-np.diag([0.25, -0.4]))
    assert np.abs(hol - expected).max() <= 1e-8


# --- f_map -----------------------------------------------------------------------

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


def test_f_map_frames_are_ray_transports():
    # an inner shift makes omega non-commuting along rays, so the transport
    # is no exponential of an integral and only the integrator fixes it
    c0 = fx.connection("disk2d_so3_nonflat")
    m = c0.manifold
    rng = np.random.default_rng(5)
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.3, constant_scale=0.3).sample(m)
    c = shift_by_inner(c0, l)
    frames = f_map(c).trivialization.frames[0]
    for _ in range(20):
        node = tuple(int(rng.integers(0, r)) for r in m.charts[0].resolution)
        ray = parallel_transport(c, ray_path(m, 0, node, 64)).matrix
        assert np.abs(frames[node] - c.bundle.frames[0][node] @ ray).max() <= 1e-14


@pytest.mark.parametrize("name,steps", [("disk2d_so3_nonflat", 64), ("circle2_so3_twisted", 8)])
def test_f_map_evaluates_the_form_twice_per_step_plus_once(monkeypatch, name, steps):
    c = fx.connection(name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return interpolate(*args, **kwargs)

    monkeypatch.setattr(correspondence, "interpolate", counted)
    f_map(c, ode_steps=steps)
    assert len(calls) == len(c.manifold.charts) * (2 * steps + 1)


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


def test_f_map_class_invariant_under_ray_system_choice():
    # transporting from a different base node lands in the same equivalence class
    c = fx.connection("circle2_so3_twisted")
    default = f_map(c)
    shifted = f_map(c, centers=((10,), (20,)))
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
    lhs = apply_connection(c, u, x)
    rhs = _defining_sum(t, h, u)
    contracted = np.einsum("...i,...ia->...a", x[0], rhs[0])
    assert np.abs(lhs[0] - contracted).max() <= 1e-4


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
    lhs = apply_connection(c, u, x)
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


def test_round_trip_requires_exactly_one_input():
    with pytest.raises(InputError):
        verify_inverse()
