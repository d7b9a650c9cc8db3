"""Algebroid bracket tests: the defining formula in one argument order, its
reduction over a flat connection, exact skew symmetry, the section axioms,
and splitting independence."""

import numpy as np
import pytest

from labcoupling import algebroid
from labcoupling import fixtures as fx
from labcoupling.algebra import bracket
from labcoupling.algebroid import (
    AlgebroidSection,
    algebroid_bracket,
    axiom_report,
    random_section,
)
from labcoupling.bundles import reference_trivialization
from labcoupling.connections import (
    accordance,
    curvature,
    shift_by_inner,
    zero_connection,
)
from labcoupling.errors import InputError
from labcoupling.manifolds import grid_derivative, random_harmonic_field
from tests.test_algebra import so3_in_random_basis

SO3 = fx.algebra("so3")


def flat_disk_connection():
    return zero_connection(reference_trivialization(SO3, fx.manifold("disk2d")))


def constant_section(m, u_vec, x_vec):
    u = [np.broadcast_to(np.asarray(u_vec, float), c.resolution + (len(u_vec),)).copy() for c in m.charts]
    x = [np.broadcast_to(np.asarray(x_vec, float), c.resolution + (len(x_vec),)).copy() for c in m.charts]
    return AlgebroidSection(tuple(u), tuple(x))


# --- the value-last reference ----------------------------------------------------
# The bracket as it was formed one section at a time, with the values on the
# last axis: the covariant term through einsum, every partial through
# grid_derivative, every sum onto zeros in axis order.

def along(x, partials):
    """X(F) = sum_i X^i d_i F on a value-last grid."""
    total = np.zeros(np.shape(partials[0]))
    for i, p in enumerate(partials):
        xi = x[..., i]
        total += xi.reshape(xi.shape + (1,) * (p.ndim - xi.ndim)) * p
    return total


def value_last_partials(c, s):
    """The pair (s, covariant partials of u, grid partials of X), per chart."""
    m = c.manifold
    cov, dx = [], []
    for cid, chart in enumerate(m.charts):
        u, w = s.u[cid], c.omega[cid]
        cov.append(
            [grid_derivative(chart, u, i) + np.einsum("...kj,...j->...k", w[..., i, :, :], u) for i in range(m.dim)]
        )
        dx.append([grid_derivative(chart, s.x[cid], i) for i in range(m.dim)])
    return s, cov, dx


def omega_area(curv, cid, x1, x2):
    """Omega(X1, X2) = sum_{i<j} (X1^i X2^j - X1^j X2^i) Omega_ij nodewise."""
    form = curv.omega_form[cid]
    out = np.zeros(x1.shape[:-1] + (form.shape[-1],))
    for p, (i, j) in enumerate(curv.pairs):
        area = x1[..., i] * x2[..., j] - x1[..., j] * x2[..., i]
        out += area[..., None] * form[..., p, :]
    return out


def vector_field_bracket(x, dx, y, dy):
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i) on a value-last grid."""
    out = np.zeros_like(x)
    for j in range(len(dx)):
        out += x[..., j : j + 1] * dy[j] - y[..., j : j + 1] * dx[j]
    return out


def value_last_bracket(c, curv, a, b):
    """The coupling bracket of two ``value_last_partials`` triples."""
    (s1, cov1, dx1), (s2, cov2, dx2) = a, b
    u, x = [], []
    for cid in range(len(c.manifold.charts)):
        u1, x1, u2, x2 = s1.u[cid], s1.x[cid], s2.u[cid], s2.x[cid]
        nabla = along(x1, cov2[cid]) - along(x2, cov1[cid])
        u.append(bracket(c.algebra, u1, u2) + nabla + omega_area(curv, cid, x1, x2))
        x.append(vector_field_bracket(x1, dx1[cid], x2, dx2[cid]))
    return AlgebroidSection(tuple(u), tuple(x))


def reference_axiom_report(c, curv, trials, seed):
    """The axiom probes one trial at a time, value-last: each trial draws
    s1, s2, s3 (u then X) and f, and each of its seven sections has its
    partials taken once."""
    rng = np.random.default_rng(seed)
    m = c.manifold

    def sample(value_shape, **kw):
        return random_harmonic_field(rng, m.dim, value_shape, amplitude=0.01, **kw).sample(m)

    def section():
        u = sample((c.algebra.dim,))
        return AlgebroidSection(tuple(u), tuple(sample((m.dim,), constant_scale=0.5)))

    def norm(s):
        return max(np.abs(g).max() for g in s.u + s.x)

    def combine(a, b, sb):
        return AlgebroidSection(
            tuple(x + sb * y for x, y in zip(a.u, b.u)), tuple(x + sb * y for x, y in zip(a.x, b.x))
        )

    def times(f, s):
        return AlgebroidSection(
            tuple(fc[..., None] * u for fc, u in zip(f, s.u)),
            tuple(fc[..., None] * x for fc, x in zip(f, s.x)),
        )

    def br(a, b):
        return value_last_bracket(c, curv, a, b)

    def partials(s):
        return value_last_partials(c, s)

    skew, leibniz, jacobi = [], [], []
    for _ in range(trials):
        s1, s2, s3 = section(), section(), section()
        f = sample(())
        p1, p2, p3 = partials(s1), partials(s2), partials(s3)
        b12 = br(p1, p2)
        skew.append(norm(combine(b12, br(p2, p1), 1.0)))
        lhs = br(p1, partials(times(f, s2)))
        anchored = [
            along(x1, [grid_derivative(chart, fc, i) for i in range(m.dim)])
            for x1, fc, chart in zip(s1.x, f, m.charts)
        ]
        expected = combine(times(anchored, s2), times(f, b12), 1.0)
        leibniz.append(norm(combine(lhs, expected, -1.0)))
        j1 = br(p1, partials(br(p2, p3)))
        j2 = br(p3, partials(b12))
        j3 = br(p2, partials(br(p3, p1)))
        jacobi.append(norm(combine(combine(j1, j2, 1.0), j3, 1.0)))
    return max(skew), max(leibniz), max(jacobi)


# --- algebroid_bracket ---------------------------------------------------------

def test_pure_fiber_sections_reduce_to_fiber_bracket():
    c = fx.connection("disk2d_so3_nonflat")
    curv = accordance(c).curvature
    m = c.manifold
    s1 = constant_section(m, [1.0, 0.0, 0.0], [0.0, 0.0])
    s2 = constant_section(m, [0.0, 1.0, 0.0], [0.0, 0.0])
    out = algebroid_bracket(c, curv, s1, s2)
    expected = bracket(SO3, s1.u[0], s2.u[0])
    assert np.abs(out.u[0] - expected).max() <= 1e-12
    assert np.abs(out.x[0]).max() == 0.0


def test_mixed_section_reduces_to_covariant_derivative():
    c = flat_disk_connection()
    curv = accordance(c).curvature
    m = c.manifold
    rng = np.random.default_rng(3)
    v = random_harmonic_field(rng, 2, (3,), amplitude=0.01).sample(m)
    s1 = AlgebroidSection(
        (np.zeros(m.charts[0].resolution + (3,)),),
        (np.broadcast_to([1.0, 0.0], m.charts[0].resolution + (2,)).copy(),),
    )
    s2 = AlgebroidSection(tuple(v), (np.zeros(m.charts[0].resolution + (2,)),))
    out = algebroid_bracket(c, curv, s1, s2)
    expected = along(s1.x[0], value_last_partials(c, s2)[1][0])
    assert np.abs(out.u[0] - expected).max() <= 1e-12
    assert np.abs(out.x[0]).max() <= 1e-12


def test_swap_negates_exactly():
    c = fx.connection("disk2d_so3_nonflat")
    curv = accordance(c).curvature
    rng = np.random.default_rng(11)
    s1 = random_section(c, rng)
    s2 = random_section(c, rng)
    b12 = algebroid_bracket(c, curv, s1, s2)
    b21 = algebroid_bracket(c, curv, s2, s1)
    assert np.abs(b12.u[0] + b21.u[0]).max() == 0.0
    assert np.abs(b12.x[0] + b21.x[0]).max() == 0.0


def two_order_bracket(c, curv, s1, s2):
    """Reference: the raw bracket in each argument order, then halved."""

    def raw(a, b):
        (_, cov_a, dx_a), (_, cov_b, dx_b) = value_last_partials(c, a), value_last_partials(c, b)
        nabla_ab = [along(x, cov) for x, cov in zip(a.x, cov_b)]
        nabla_ba = [along(x, cov) for x, cov in zip(b.x, cov_a)]
        u = [
            bracket(c.algebra, a.u[cid], b.u[cid])
            + nabla_ab[cid]
            - nabla_ba[cid]
            + omega_area(curv, cid, a.x[cid], b.x[cid])
            for cid in range(len(c.manifold.charts))
        ]
        x = [vector_field_bracket(*args) for args in zip(a.x, dx_a, b.x, dx_b)]
        return u, x

    u12, x12 = raw(s1, s2)
    u21, x21 = raw(s2, s1)
    return (
        [0.5 * (a - b) for a, b in zip(u12, u21)],
        [0.5 * (a - b) for a, b in zip(x12, x21)],
    )


@pytest.mark.parametrize("name", ["circle2_so3_twisted", "disk2d_so3_nonflat"])
def test_each_covariant_derivative_once_and_bitwise_the_two_order_formula(name, monkeypatch):
    c = fx.connection(name)
    curv = accordance(c).curvature
    rng = np.random.default_rng(23)
    s1 = random_section(c, rng)
    s2 = random_section(c, rng)
    u_ref, x_ref = two_order_bracket(c, curv, s1, s2)

    calls = []
    kernel = algebroid.covariant_partials

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(algebroid, "covariant_partials", counting)
    out = algebroid_bracket(c, curv, s1, s2)
    assert len(calls) == 2
    assert len(out.u) == len(u_ref) == len(c.manifold.charts)
    # one order sums the terms differently from the halved two orders
    for got, ref in zip(out.u + out.x, u_ref + x_ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # one pass stacks up to two trials: s1, s2, s3, f s2, [s2, s3], [s3, s1]
    # and [s1, s2] have their covariant partials taken once each per pass
    for trials, passes in ((2, 1), (3, 2)):
        calls.clear()
        axiom_report(c, curv, trials=trials, seed=0)
        assert len(calls) == passes * 7


def test_section_with_wrong_chart_count_is_an_input_error():
    c = fx.connection("circle2_so3_twisted")
    curv = accordance(c).curvature
    s = random_section(c, np.random.default_rng(2))
    fewer = AlgebroidSection(s.u[:1], s.x[:1])
    extra = AlgebroidSection(s.u + s.u[:1], s.x + s.x[:1])
    for bad in (fewer, extra):
        with pytest.raises(InputError, match="charts"):
            algebroid_bracket(c, curv, s, bad)
        with pytest.raises(InputError, match="charts"):
            algebroid_bracket(c, curv, bad, s)


def test_omega_term_enters_with_area_factor():
    c = fx.connection("disk2d_so3_nonflat")
    curv = accordance(c).curvature
    m = c.manifold
    s1 = constant_section(m, [0.0, 0.0, 0.0], [1.0, 0.0])
    s2 = constant_section(m, [0.0, 0.0, 0.0], [0.0, 1.0])
    out = algebroid_bracket(c, curv, s1, s2)
    # constant unit fields along x and y: u-part is exactly Omega_xy
    assert np.abs(out.u[0] - curv.omega_form[0][..., 0, :]).max() <= 1e-12


def test_curvature_carries_the_recovered_form_of_accordance():
    # curvature(c) is the whole decomposition R = ad(Omega) + residual, so the
    # axiom report takes it directly, with the same numbers as accordance's
    c = fx.connection("disk2d_so3_nonflat")
    curv, acc = curvature(c), accordance(c).curvature
    assert curv.pairs == acc.pairs
    for field in ("r", "omega_form", "residuals"):
        got, want = getattr(curv, field), getattr(acc, field)
        assert len(got) == len(want) == len(c.manifold.charts)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert axiom_report(c, curv, trials=2) == axiom_report(c, acc, trials=2)


# --- over a flat connection: ([u, v] + X(v) - Y(u), [X, Y]) ----------------------

def test_flat_bracket_on_constants():
    c = flat_disk_connection()
    m = c.manifold
    s1 = constant_section(m, [1.0, 0.0, 0.0], [0.0, 0.0])
    s2 = constant_section(m, [0.0, 1.0, 0.0], [0.0, 0.0])
    out = algebroid_bracket(c, accordance(c).curvature, s1, s2)
    assert np.abs(out.u[0] - bracket(SO3, s1.u[0], s2.u[0])).max() == 0.0


def test_flat_bracket_directional_term():
    # u = 0, v(x) = x e1, X = d/dx, Y = 0  =>  bracket = (e1, 0)
    c = zero_connection(reference_trivialization(SO3, fx.manifold("interval1")))
    m = c.manifold
    pts = m.charts[0].grid_points()[..., 0]
    v = np.zeros(m.charts[0].resolution + (3,))
    v[..., 0] = pts
    s1 = AlgebroidSection((np.zeros_like(v),), (np.ones(m.charts[0].resolution + (1,)),))
    s2 = AlgebroidSection((v,), (np.zeros(m.charts[0].resolution + (1,)),))
    out = algebroid_bracket(c, accordance(c).curvature, s1, s2)
    expected = np.zeros_like(v)
    expected[..., 0] = 1.0
    assert np.abs(out.u[0] - expected).max() <= 1e-10


# --- axiom report -----------------------------------------------------------------

def test_flat_constant_sections_have_zero_residuals():
    c = flat_disk_connection()
    curv = accordance(c).curvature
    m = c.manifold
    s1 = constant_section(m, [1.0, 0.2, 0.0], [0.3, 0.0])
    s2 = constant_section(m, [0.0, 1.0, -0.5], [0.0, 0.2])
    out = algebroid_bracket(c, curv, s1, s2)
    expected = bracket(SO3, s1.u[0], s2.u[0])
    assert np.abs(out.u[0] - expected).max() <= 1e-12


def test_axioms_on_nonflat_disk():
    c = fx.connection("disk2d_so3_nonflat")
    rep = axiom_report(c, accordance(c).curvature, trials=8, seed=1)
    assert rep.max_skew == 0.0
    assert rep.max_leibniz <= 1e-4
    assert rep.max_jacobi < 1e-2


def test_axioms_on_multichart_circle():
    c = fx.connection("circle2_so3_twisted")
    rep = axiom_report(c, accordance(c).curvature, trials=5, seed=2)
    assert rep.max_skew == 0.0
    assert rep.max_leibniz <= 1e-4


def test_skew_is_exact_with_dense_structure_constants():
    # so3 in a random basis: every pair (i, j) of the fiber bracket feeds
    # every output component, under an inner-shifted connection
    g = so3_in_random_basis()
    m = fx.manifold("disk2d")
    l = random_harmonic_field(np.random.default_rng(19), 2, (2, 3), amplitude=0.3).sample(m)
    c = shift_by_inner(zero_connection(reference_trivialization(g, m)), l)
    rep = axiom_report(c, accordance(c).curvature, trials=3, seed=0)
    assert rep.max_skew == 0.0
    assert rep.max_leibniz <= 1e-4


def per_call_axiom_report(c, curv, trials, seed):
    """Reference: the axiom probes with every bracket formed from scratch by
    ``two_order_bracket`` and every field sampled pointwise."""
    rng = np.random.default_rng(seed)
    m = c.manifold

    def field(value_shape, **kw):
        f = random_harmonic_field(rng, m.dim, value_shape, amplitude=0.01, **kw)
        return [f(chart.grid_points()) for chart in m.charts]

    def section():
        u = field((c.algebra.dim,))
        return AlgebroidSection(tuple(u), tuple(field((m.dim,), constant_scale=0.5)))

    def br(a, b):
        return AlgebroidSection(*map(tuple, two_order_bracket(c, curv, a, b)))

    def norm(s):
        return max(np.abs(g).max() for g in s.u + s.x)

    def combine(a, b, sb):
        return AlgebroidSection(
            tuple(x + sb * y for x, y in zip(a.u, b.u)), tuple(x + sb * y for x, y in zip(a.x, b.x))
        )

    def times(f, s):
        return AlgebroidSection(
            tuple(fc[..., None] * u for fc, u in zip(f, s.u)),
            tuple(fc[..., None] * x for fc, x in zip(f, s.x)),
        )

    skew, leibniz, jacobi = [], [], []
    for _ in range(trials):
        s1, s2, s3 = section(), section(), section()
        f = field(())
        b12 = br(s1, s2)
        skew.append(norm(combine(b12, br(s2, s1), 1.0)))
        anchored = []
        for cid, chart in enumerate(m.charts):
            df = np.zeros(f[cid].shape)
            for i in range(m.dim):
                df += s1.x[cid][..., i] * grid_derivative(chart, f[cid], i)
            anchored.append(df)
        expected = combine(times(anchored, s2), times(f, b12), 1.0)
        leibniz.append(norm(combine(br(s1, times(f, s2)), expected, -1.0)))
        j1 = br(s1, br(s2, s3))
        j3 = br(s2, br(s3, s1))
        jacobi.append(norm(combine(combine(j1, br(s3, b12), 1.0), j3, 1.0)))
    return max(skew), max(leibniz), max(jacobi)


@pytest.mark.parametrize(
    "name", ["interval1_so3_flat", "circle2_so3_twisted", "cyl2_so3_twisted", "disk2d_so3_nonflat"]
)
def test_axiom_report_is_bitwise_the_per_call_formula(name):
    c = fx.connection(name)
    curv = accordance(c).curvature
    for seed in range(3):
        rep = axiom_report(c, curv, trials=2, seed=seed)
        got = (rep.max_skew, rep.max_leibniz, rep.max_jacobi)
        # Skew is 0.0 on both sides, and the others move only by rounding.  The
        # Jacobi sum cancels brackets about 1000x its size, so one reordered
        # sum moves it by up to ~1e-11 of itself.
        ref = per_call_axiom_report(c, curv, trials=2, seed=seed)
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


ACCORDANT = [name for name in fx.CONNECTION_NAMES if accordance(fx.connection(name)).passed]


@pytest.mark.parametrize("name", ACCORDANT)
def test_axiom_report_is_bitwise_the_value_last_loop(name):
    # one trial (a lone pass), two (one full pass), three (an odd last pass)
    # and ten; the fixtures span the 1-D, two-chart and disk covers
    c = fx.connection(name)
    curv = accordance(c).curvature
    for trials in (1, 2, 3, 10):
        for seed in range(3):
            rep = axiom_report(c, curv, trials=trials, seed=seed)
            got = [float(v).hex() for v in (rep.max_skew, rep.max_leibniz, rep.max_jacobi)]
            ref = [float(v).hex() for v in reference_axiom_report(c, curv, trials, seed)]
            assert got == ref, (trials, seed)


# float.hex of (accordance residual, skew, Leibniz, Jacobi) on perfbench's
# `axioms` input for the first timed operation at seed 1.  The value-last
# reference above calls grid_derivative itself, so a stencil that drifts moves
# both sides; this pin does not move with it.
AXIOMS_SEED_1 = ("0x1.03f81f636b80cp-49", "0x0.0p+0", "0x1.421a1b89d4800p-16", "0x1.bc1d680b36a00p-10")


def test_axiom_report_on_the_benchmark_input_is_pinned():
    # perfbench's rng for that operation is default_rng([seed, 1, 0]): it
    # draws the inner shift l, then the trial seed
    rng = np.random.default_rng([1, 1, 0])
    c0 = fx.connection("disk2d_so3_nonflat", refine=2)
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.3, constant_scale=0.3)
    c = shift_by_inner(c0, l.sample(c0.manifold))
    acc = accordance(c)
    rep = axiom_report(c, acc.curvature, trials=10, seed=int(rng.integers(2**31)))
    got = (acc.max_residual, rep.max_skew, rep.max_leibniz, rep.max_jacobi)
    assert tuple(float(v).hex() for v in got) == AXIOMS_SEED_1


def test_jacobi_residual_decays_at_second_order():
    residuals = []
    for refine in (1, 2):
        c = fx.connection("disk2d_so3_nonflat", refine=refine)
        rep = axiom_report(c, accordance(c).curvature, trials=5, seed=0)
        residuals.append(rep.max_jacobi)
    order = np.log2(residuals[0] / residuals[1])
    assert 1.5 <= order <= 2.5


# --- splitting independence -------------------------------------------------------

def test_bracket_invariant_under_splitting_shift():
    # lambda' = lambda + l changes the section decomposition u -> u - l(X) and
    # the connection by an inner shift; bracket values must agree after
    # matching the decompositions: w' = w - l(Z) with Z the tangent part.
    rng = np.random.default_rng(17)
    c = fx.connection("disk2d_so3_nonflat")
    curv = accordance(c).curvature
    m = c.manifold
    l = random_harmonic_field(rng, 2, (2, 3), amplitude=0.02).sample(m)
    c_shift = shift_by_inner(c, l)
    curv_shift = accordance(c_shift).curvature

    def decompose(s: AlgebroidSection) -> AlgebroidSection:
        u = tuple(
            s.u[cid] - np.einsum("...ik,...i->...k", np.asarray(l[cid]), s.x[cid])
            for cid in range(len(m.charts))
        )
        return AlgebroidSection(u, s.x)

    for _ in range(5):
        s1 = random_section(c, rng)
        s2 = random_section(c, rng)
        w = algebroid_bracket(c, curv, s1, s2)
        w_prime = algebroid_bracket(c_shift, curv_shift, decompose(s1), decompose(s2))
        matched = decompose(w)
        assert np.abs(w_prime.u[0] - matched.u[0]).max() <= 1e-3
        assert np.abs(w_prime.x[0] - w.x[0]).max() == 0.0
