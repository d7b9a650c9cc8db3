"""Connection tests: covariant derivative, validation, curvature, the
coupling (accordance) condition, inner shifts, and pullbacks."""

import numpy as np
import pytest

from labcoupling import fileio, fixtures as fx
from labcoupling.algebra import ad, bracket, unit_vector
from labcoupling.algebroid import AlgebroidSection, algebroid_bracket, axiom_report
from labcoupling.bundles import Trivialization, reference_trivialization
from labcoupling.connections import (
    ConnectionForm,
    accordance,
    coupling_equivalent,
    covariant_partials,
    curvature,
    pullback_connection,
    shift_by_inner,
    validate_connection,
    zero_connection,
)
from labcoupling.errors import InputError
from labcoupling.manifolds import (
    HarmonicField,
    directional,
    grid_derivative,
    grid_partials,
    identity_map,
    overlap_pair,
    random_harmonic_field,
)
from labcoupling.tolerances import peak
from tests.test_bundles import degree2_circle_map

SO3 = fx.algebra("so3")
K = ad(SO3, unit_vector(3, 2))


def constant_fields(m, vec):
    return [np.broadcast_to(np.asarray(vec, float), c.resolution + (len(vec),)).copy() for c in m.charts]


def leading(field):
    """Per-chart value-last grids with their value axis moved first."""
    return [np.moveaxis(np.asarray(g, dtype=float), -1, 0) for g in field]


def covariant_along(c, x, u):
    """nabla_X u per chart, value-last in and out, from covariant_partials and
    directional in their values-first layout."""
    return [np.moveaxis(directional(xx, cov), 0, -1) for xx, cov in zip(leading(x), covariant_partials(c, leading(u)))]


# --- covariant derivative ------------------------------------------------------

def test_flat_constant_section_has_zero_derivative():
    c = fx.connection("interval1_so3_flat")
    m = c.manifold
    u = constant_fields(m, [1.0, -2.0, 0.5])
    x = constant_fields(m, [1.0])
    out = covariant_along(c, x, u)[0]
    assert np.abs(out).max() == 0.0


def test_flat_linear_section_recovers_plain_derivative():
    c = fx.connection("interval1_so3_flat")
    m = c.manifold
    t = m.charts[0].grid_points()[..., 0]
    u = [np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=-1)]
    x = constant_fields(m, [1.0])
    out = covariant_along(c, x, u)[0]
    np.testing.assert_allclose(out, np.broadcast_to([1.0, 0.0, 0.0], out.shape), atol=1e-10)


def test_fiberwise_leibniz_in_the_bracket():
    c = fx.connection("disk2d_so3_nonflat")
    m = c.manifold
    rng = np.random.default_rng(2)
    u = [random_harmonic_field(rng, 2, (3,))(m.charts[0].grid_points())]
    v = [random_harmonic_field(rng, 2, (3,))(m.charts[0].grid_points())]
    x = [random_harmonic_field(rng, 2, (2,), constant_scale=0.6)(m.charts[0].grid_points())]
    uv = [bracket(SO3, u[0], v[0])]
    lhs, nabla_u, nabla_v = (covariant_along(c, x, w)[0] for w in (uv, u, v))
    rhs = bracket(SO3, nabla_u, v[0]) + bracket(SO3, u[0], nabla_v)
    assert np.abs(lhs - rhs).max() <= 1e-4


@pytest.mark.parametrize("name", ["interval1_so3_flat", "circle2_so3_twisted", "disk2d_so3_nonflat"])
def test_covariant_derivative_is_bitwise_the_per_axis_loop(name):
    c = fx.connection(name)
    m = c.manifold
    rng = np.random.default_rng(8)
    u = random_harmonic_field(rng, m.dim, (3,), amplitude=0.3).sample(m)
    x = random_harmonic_field(rng, m.dim, (m.dim,), amplitude=0.3).sample(m)
    for cid, (chart, got) in enumerate(zip(m.charts, covariant_along(c, x, u), strict=True)):
        ref = np.zeros_like(u[cid])
        for i in range(m.dim):
            covar = grid_derivative(chart, u[cid], i)
            covar = covar + np.einsum("...kj,...j->...k", c.omega[cid][..., i, :, :], u[cid])
            ref += x[cid][..., i : i + 1] * covar
        assert got.tobytes() == ref.tobytes()


def per_k_covariant_partials(c, u):
    """covariant_partials one k row at a time: d_i u_k + sum_j w_kj u_j in
    the order of j, on the values-first layout (n, *batch, *resolution)."""
    m = c.manifold
    out = []
    for chart, grid, w in zip(m.charts, u, c.omega_leading, strict=True):
        partials = []
        for i in range(m.dim):
            d = grid_derivative(chart, grid, i - m.dim)
            cov = np.empty_like(d)
            for k in range(c.algebra.dim):
                acc = w[i, k, 0] * grid[0]
                for j in range(1, c.algebra.dim):
                    acc += w[i, k, j] * grid[j]
                cov[k] = d[k] + acc
            partials.append(cov)
        out.append(partials)
    return out


@pytest.mark.parametrize("name", fx.CONNECTION_NAMES)
def test_covariant_partials_are_bitwise_the_per_k_loop(name):
    # batch shapes () and (2,), on abelian2 (n = 2) and so3/heis3 (n = 3); the
    # fixture's omega and a dense one, whose rows have no zero term to hide
    # the order of the j sum
    c = fx.connection(name)
    m = c.manifold
    rng = np.random.default_rng(12)
    dense = ConnectionForm(c.bundle, tuple(w + rng.uniform(-1.0, 1.0, w.shape) for w in c.omega))
    fields = [random_harmonic_field(rng, m.dim, (c.algebra.dim,), amplitude=0.3) for _ in range(2)]
    for form in (c, dense):
        for field in (fields[0], HarmonicField.stack(fields)):
            u = field.sample_leading(m)
            for got, ref in zip(covariant_partials(form, u), per_k_covariant_partials(form, u), strict=True):
                assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]


# --- the per-chart field contract at every entry point --------------------------

def _fiber(c):
    return constant_fields(c.manifold, [0.1, -0.2, 0.3])


def _tangent(c):
    return constant_fields(c.manifold, [1.0])


def _section(u, x):
    return AlgebroidSection(tuple(u), tuple(x))


def _bracket_with(c, s):
    curv = accordance(c).curvature
    return algebroid_bracket(c, curv, _section(_fiber(c), _tangent(c)), s)


# entry point -> (its field's name in errors, a valid per-chart field for it
# in the values-last layout, the call with that field); the stencil kernels
# take the field with its values first
ENTRY_POINTS = {
    "Trivialization": (
        "frame", lambda c: list(c.bundle.frames), lambda c, f: Trivialization(c.algebra, c.manifold, f),
    ),
    "ConnectionForm": ("omega", lambda c: list(c.omega), lambda c, f: ConnectionForm(c.bundle, f)),
    "grid_partials": ("field", _tangent, lambda c, f: grid_partials(c.manifold, leading(f))),
    "covariant_partials": ("fiber field", _fiber, lambda c, f: covariant_partials(c, leading(f))),
    "algebroid_bracket u": ("fiber field", _fiber, lambda c, f: _bracket_with(c, _section(f, _tangent(c)))),
    "algebroid_bracket X": (
        "section tangent part", _tangent, lambda c, f: _bracket_with(c, _section(_fiber(c), f)),
    ),
    "shift_by_inner": (
        "shift field",
        lambda c: [np.zeros(chart.resolution + (1, 3)) for chart in c.manifold.charts],
        shift_by_inner,
    ),
}

MALFORMED = {
    "fewer grids": lambda f: f[:1],
    "an extra grid": lambda f: f + f[:1],
    "a grid off the chart resolution": lambda f: [f[0], f[1][:-1]],
    "a wrong value shape": lambda f: [f[0], np.concatenate([f[1], f[1][..., :1]], axis=-1)],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("defect", MALFORMED)
def test_every_entry_point_refuses_a_malformed_per_chart_field(entry, defect):
    c = fx.connection("circle2_so3_twisted")  # two charts
    _, valid, call = ENTRY_POINTS[entry]
    call(c, valid(c))  # the well-formed field is accepted
    with pytest.raises(InputError, match=r"grids for 2 charts|grid 1 has shape .*, expected"):
        call(c, MALFORMED[defect](valid(c)))


def _with_nan(grid):
    """A copy of the grid with one NaN entry."""
    bad = np.array(grid, dtype=float)
    bad.flat[bad.size // 2] = np.nan
    return bad


# every entry point checks its field by chart_grids' rule, in either layout
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_chart_grids_entry_point_refuses_a_non_finite_field(entry):
    c = fx.connection("circle2_so3_twisted")
    what, valid, call = ENTRY_POINTS[entry]
    with pytest.raises(InputError, match=rf"^{what} grid 1 has non-finite entries$"):
        call(c, [valid(c)[0], _with_nan(valid(c)[1])])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_shape_is_checked_before_any_finiteness(entry):
    # a NaN in grid 0 and a short grid 1: the shape error comes first
    c = fx.connection("circle2_so3_twisted")
    _, valid, call = ENTRY_POINTS[entry]
    f = valid(c)
    with pytest.raises(InputError, match=r"grid 1 has shape .*, expected"):
        call(c, [_with_nan(f[0]), f[1][:-1]])


def test_the_stencil_kernels_take_the_batch_axes_of_grid_0():
    c = fx.connection("circle2_so3_twisted")
    m = c.manifold
    u = [np.zeros((3, 2) + chart.resolution) for chart in m.charts]
    assert [p[0].shape for p in covariant_partials(c, u)] == [g.shape for g in u]
    u[1] = u[1][:, :1]
    for call, what in ((covariant_partials, "fiber field"), (lambda c, f: grid_partials(c.manifold, f), "field")):
        with pytest.raises(InputError, match=rf"^{what} grid 1 has shape \(3, 1, \d+\), expected \(3, 2, \d+\)$"):
            call(c, u)


def test_connection_form_keeps_a_read_only_copy_so_cached_reports_stay_valid():
    c = fx.connection("disk2d_so3_nonflat")
    grids = [np.array(w) for w in c.omega]
    copy = ConnectionForm(c.bundle, tuple(grids))
    first = axiom_report(copy, curvature(copy))
    for w in grids:
        w *= 3.0  # the caller's arrays are not the form's omega
    assert all(np.array_equal(a, b) for a, b in zip(copy.omega, c.omega))
    again = axiom_report(copy, curvature(copy))  # omega_leading is cached by now
    fresh = ConnectionForm(c.bundle, copy.omega)
    assert again == first == axiom_report(fresh, curvature(fresh))
    with pytest.raises(ValueError):
        copy.omega[0][0] = 0.0
    with pytest.raises(ValueError):
        copy.omega_leading[0][0] = 0.0


def test_shifted_and_loaded_forms_get_the_c_order_layout():
    c = fx.connection("circle2_so3_twisted")
    shift = [np.full(chart.resolution + (1, 3), 0.2) for chart in c.manifold.charts]
    loaded = fileio.load_connection(fileio.connection_to_dict(c))
    for form in (shift_by_inner(c, shift), loaded):
        assert all(w.flags.c_contiguous and w.flags.owndata and not w.flags.writeable for w in form.omega)


# --- validate_connection ------------------------------------------------------

@pytest.mark.parametrize("name", fx.CONNECTION_NAMES)
def test_fixture_connections_validate(name):
    rep = validate_connection(fx.connection(name))
    assert rep.passed
    assert rep.max_derivation_residual <= 1e-9


def test_zero_connection_on_trivial_bundle_passes():
    c = zero_connection(reference_trivialization(SO3, fx.manifold("interval1")))
    assert validate_connection(c).passed


def test_gauge_law_with_varying_transitions():
    # express the flat connection in varying inner frames: chartwise
    # omega = phi^{-1} d(phi), and the overlap law picks up both the
    # conjugation and the tau d(tau^{-1}) term
    import scipy.linalg
    from labcoupling.bundles import Trivialization

    m = fx.manifold("circle2", refine=2)
    q = 0.01
    frames = []
    omegas = []
    for chart in m.charts:
        t = chart.grid_points()[..., 0]
        theta = q * np.sin(2.0 * np.pi * t)
        frames.append(
            np.stack([scipy.linalg.expm(-v * K) for v in theta.ravel()]).reshape(t.shape + (3, 3))
        )
        d_theta = q * 2.0 * np.pi * np.cos(2.0 * np.pi * t)
        omegas.append((-d_theta[..., None, None] * K)[..., None, :, :])
    frames[0] = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    omegas[0] = np.zeros(m.charts[0].resolution + (1, 3, 3))
    bundle = Trivialization(SO3, m, tuple(frames))
    c = ConnectionForm(bundle, tuple(omegas))
    rep = validate_connection(c)
    assert rep.passed
    assert rep.max_gauge_residual <= 1e-4
    assert rep.max_gauge_residual > 0.0  # the transition-derivative term is live


def test_non_derivation_node_fails_with_location():
    c = fx.connection("disk2d_so3_nonflat")
    w = [g.copy() for g in c.omega]
    w[0][4, 7, 0] = np.diag([1.0, 0.0, 0.0])  # not a derivation of so3
    rep = validate_connection(ConnectionForm(c.bundle, tuple(w)))
    assert not rep.passed
    assert "(4, 7, 0)" in rep.worst


# --- curvature ----------------------------------------------------------------

def test_flat_curvature_vanishes():
    c = zero_connection(reference_trivialization(SO3, fx.manifold("disk2d")))
    curv = curvature(c)
    assert np.abs(curv.r[0]).max() == 0.0


def test_constant_forms_give_commutator_curvature():
    # w_x = A, w_y = B constants: R_xy = [A, B] exactly (FD exact on constants)
    m = fx.manifold("disk2d")
    a = ad(SO3, np.array([1.0, 0.0, 0.0]))
    b = ad(SO3, np.array([0.0, 1.0, 0.0]))
    w = np.zeros(m.charts[0].resolution + (2, 3, 3))
    w[..., 0, :, :] = a
    w[..., 1, :, :] = b
    c = ConnectionForm(reference_trivialization(SO3, m), (w,))
    curv = curvature(c)
    np.testing.assert_allclose(curv.r[0][5, 9, 0], a @ b - b @ a, atol=1e-12)


def test_linear_form_gives_constant_curvature():
    # w_x = 0, w_y = x D: R_xy = D within FD tolerance (exact: FD on linear)
    c = fx.connection("disk2d_so3_nonflat")
    curv = curvature(c)
    np.testing.assert_allclose(
        curv.r[0], np.broadcast_to(fx.DISK_SLOPE * K, curv.r[0].shape), atol=1e-10
    )


def curvature_gauge_residual(c):
    """Worst violation of R_beta = tau R_alpha tau^{-1} across overlaps, with
    the curvature expanded to the antisymmetric (*res, m, m, n, n) tensor."""
    curv = curvature(c)
    m = c.manifold
    full = []
    for grid in curv.r:
        out = np.zeros(grid.shape[:-3] + (m.dim, m.dim) + grid.shape[-2:])
        for p, (i, j) in enumerate(curv.pairs):
            out[..., i, j, :, :] = grid[..., p, :, :]
            out[..., j, i, :, :] = -grid[..., p, :, :]
        full.append(out)
    defects = []
    for k, o in enumerate(m.overlaps):
        tau = c.bundle.coordinate_change_grid(k)
        r_alpha, r_beta = overlap_pair(m, o, full)
        pulled = np.einsum("ki,lj,...klab->...ijab", o.matrix, o.matrix, r_beta)
        conj = np.einsum("...ab,...ijbc,...cd->...ijad", tau, r_alpha, np.linalg.inv(tau))
        defects.append(np.abs(pulled - conj))
    return peak(*defects)


def test_curvature_gauge_covariance_on_fixtures():
    for name in ("cyl2_so3_twisted", "circle2_abelian2_flat"):
        assert curvature_gauge_residual(fx.connection(name)) <= 1e-4


# --- accordance ----------------------------------------------------------------

def test_flat_connection_accords_with_zero_form():
    c = zero_connection(reference_trivialization(SO3, fx.manifold("disk2d")))
    result = accordance(c)
    assert result.passed
    assert np.abs(result.curvature.omega_form[0]).max() == 0.0


@pytest.mark.parametrize("refine", [1, 2, 4])
def test_heis3_outer_curvature_fails_with_the_closed_form_residual(refine):
    # R_xy = slope * DRIFT is diagonal while every ad(x) of heis3 is strictly
    # off-diagonal, so its distance from span{ad} is slope * ||DRIFT||_F
    c = fx.connection("disk2d_heis3_outer", refine)
    assert validate_connection(c).passed
    result = accordance(c)
    assert not result.passed
    assert abs(result.max_residual - fx.DISK_SLOPE * np.linalg.norm(fx.DRIFT)) <= 1e-12


def test_abelian_nonflat_fails_with_curvature_norm():
    result = accordance(fx.connection("disk2d_abelian2_nonflat"))
    assert not result.passed
    r_norms = np.linalg.norm(result.curvature.r[0], axis=(-2, -1))
    assert abs(result.max_residual - r_norms.max()) <= 1e-12


def test_so3_constructed_coupling_recovers_omega():
    result = accordance(fx.connection("disk2d_so3_nonflat"))
    assert result.passed and result.max_residual <= 1e-8
    np.testing.assert_allclose(
        result.curvature.omega_form[0][..., 0, :],
        np.broadcast_to([0.0, 0.0, fx.DISK_SLOPE], result.curvature.omega_form[0][..., 0, :].shape),
        atol=1e-10,
    )
    assert result.center_dim == 0


def test_abelian_accordance_iff_flat():
    flat = fx.connection("circle2_abelian2_flat")
    assert accordance(flat).passed  # dim-1 base: no curvature slots
    nonflat = fx.connection("disk2d_abelian2_nonflat")
    assert not accordance(nonflat).passed
    # 2d abelian with commuting constant forms is flat, hence a coupling
    ab = fx.algebra("abelian2")
    m = fx.manifold("disk2d")
    w = np.zeros(m.charts[0].resolution + (2, 2, 2))
    w[..., 0, :, :] = np.diag([0.3, -0.1])
    w[..., 1, :, :] = np.diag([0.2, 0.5])
    c2 = ConnectionForm(reference_trivialization(ab, m), (w,))
    result = accordance(c2)
    assert result.passed
    assert float(np.linalg.norm(result.curvature.r[0], axis=(-2, -1)).max()) <= 1e-4


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3, defect B: a constant curvature below ACC_TOL passes on every grid",
)
def test_small_abelian_curvature_fails_accordance_at_every_refinement():
    # omega_y = 5e-5 x diag(1, 0): R_xy = 5e-5 diag(1, 0) and ad = 0, so a
    # coupling at no resolution; today accordance PASSes with 5.000e-05
    for refine in (1, 2, 4):
        c = fx.connection("disk2d_abelian2_nonflat", refine)
        assert not accordance(ConnectionForm(c.bundle, tuple(5e-5 * w for w in c.omega))).passed


# --- shift_by_inner ------------------------------------------------------------

def test_zero_shift_keeps_connection():
    c = fx.connection("disk2d_so3_nonflat")
    l = [np.zeros(ch.resolution + (2, 3)) for ch in c.manifold.charts]
    c2 = shift_by_inner(c, l)
    assert np.abs(c2.omega[0] - c.omega[0]).max() == 0.0


def test_abelian_shift_is_noop():
    c = fx.connection("circle2_abelian2_flat")
    l = [np.full(ch.resolution + (1, 2), 0.7) for ch in c.manifold.charts]
    c2 = shift_by_inner(c, l)
    for a, b in zip(c.omega, c2.omega):
        assert np.abs(a - b).max() == 0.0


def test_shift_preserves_accordance_on_random_shifts():
    rng = np.random.default_rng(31)
    c = fx.connection("disk2d_so3_nonflat")
    base = accordance(c).max_residual
    for _ in range(5):
        l = [random_harmonic_field(rng, 2, (2, 3), amplitude=0.02)(c.manifold.charts[0].grid_points())]
        result = accordance(shift_by_inner(c, l))
        assert result.passed
        assert result.max_residual <= 10 * base + 1e-4


def test_shift_rejects_noncovariant_field():
    c = fx.connection("circle2_so3_twisted")
    l = [np.zeros(ch.resolution + (1, 3)) for ch in c.manifold.charts]
    l[0][..., 0, 2] = c.manifold.charts[0].grid_points()[..., 0]  # not periodic
    with pytest.raises(InputError, match="covariant"):
        shift_by_inner(c, l)


# --- coupling_equivalent ---------------------------------------------------------

def test_connection_equivalent_to_itself():
    c = fx.connection("disk2d_so3_nonflat")
    eq = coupling_equivalent(c, c)
    assert eq.passed and eq.max_residual == 0.0


def test_shift_roundtrip_recovers_l():
    rng = np.random.default_rng(5)
    c = fx.connection("disk2d_so3_nonflat")
    l = [random_harmonic_field(rng, 2, (2, 3), amplitude=0.05)(c.manifold.charts[0].grid_points())]
    eq = coupling_equivalent(c, shift_by_inner(c, l))
    assert eq.passed
    assert np.abs(eq.l[0] - l[0]).max() <= 1e-9  # so3 is centerless: unique recovery


def test_abelian_nonzero_delta_is_inequivalent():
    c = fx.connection("circle2_abelian2_flat")
    other = ConnectionForm(c.bundle, tuple(w + 0.01 * np.eye(2) for w in c.omega))
    eq = coupling_equivalent(c, other)
    assert not eq.passed


def test_equivalence_relation_properties():
    rng = np.random.default_rng(8)
    c = fx.connection("disk2d_so3_nonflat")
    grids = c.manifold.charts[0].grid_points()
    l1 = [random_harmonic_field(rng, 2, (2, 3), amplitude=0.03)(grids)]
    l2 = [random_harmonic_field(rng, 2, (2, 3), amplitude=0.03)(grids)]
    c1 = shift_by_inner(c, l1)
    c2 = shift_by_inner(c1, l2)
    assert coupling_equivalent(c, c).passed                      # reflexive
    assert coupling_equivalent(c1, c).passed == coupling_equivalent(c, c1).passed  # symmetric
    r12 = coupling_equivalent(c, c1).max_residual
    r23 = coupling_equivalent(c1, c2).max_residual
    r13 = coupling_equivalent(c, c2).max_residual
    assert r13 <= r12 + r23 + 2e-4                               # transitive within 2*tol


def test_equivalence_requires_same_bundle():
    a = fx.connection("disk2d_so3_nonflat")
    b = fx.connection("circle2_so3_twisted")
    with pytest.raises(InputError):
        coupling_equivalent(a, b)


def test_equivalence_refuses_other_algebras_and_other_frames():
    so3 = fx.connection("disk2d_so3_nonflat")
    with pytest.raises(InputError, match="connections live over different algebras"):
        coupling_equivalent(so3, fx.connection("disk2d_heis3_outer"))
    frames = [np.broadcast_to(np.diag([1.0, -1.0, -1.0]), f.shape).copy() for f in so3.bundle.frames]
    turned = ConnectionForm(Trivialization(so3.algebra, so3.manifold, tuple(frames)), so3.omega)
    with pytest.raises(InputError, match="connections live over different bundles"):
        coupling_equivalent(so3, turned)


# --- pullback --------------------------------------------------------------------

def test_pullback_along_identity_is_unchanged():
    c = fx.connection("circle2_so3_twisted")
    cp = pullback_connection(c, identity_map(c.manifold))
    for a, b in zip(c.omega, cp.omega):
        assert np.abs(a - b).max() <= 1e-12


def test_pullback_along_degree2_doubles_omega():
    c = fx.connection("circle2_so3_twisted")
    cp = pullback_connection(c, degree2_circle_map())
    assert validate_connection(cp).passed
    # J = 2: pullback of the constant form is twice the constant
    expected = np.broadcast_to(2.0 * fx.TWIST_ANGLE * K, cp.omega[0][..., 0, :, :].shape)
    np.testing.assert_allclose(cp.omega[0][..., 0, :, :], expected, atol=1e-12)


def test_pullback_along_constant_map_is_flat():
    from labcoupling.manifolds import constant_map

    c = fx.connection("circle2_so3_twisted")
    f = constant_map(fx.manifold("circle4"), c.manifold, 0, [0.25])
    cp = pullback_connection(c, f)
    assert max(np.abs(w).max() for w in cp.omega) == 0.0
    assert accordance(cp).passed
