"""Lie algebra kernel tests.

Expected values come from independent oracles: brute-force index loops for
the tensor identities, a literal constraint-matrix build plus SVD for the
derivation/center dimensions, and closed-form rotation matrices for the
exponentials.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from labcoupling import algebra, fixtures as fx
from labcoupling.algebra import (
    LieAlgebra,
    _character_route,
    _dets,
    _exp_by_squaring,
    _inverses,
    _mercator,
    _square_roots,
    ad,
    automorphism_residuals,
    bracket,
    derivation_residuals,
    derivations_basis,
    inner_log_residuals,
    inner_projection,
    inner_verdicts,
    is_inner,
    principal_logs,
    unit_vector,
    validate_algebra,
)
from labcoupling.errors import InputError
from labcoupling.tolerances import ALG_TOL, INNER_TOL, character_gate

ALL = [fx.algebra(n) for n in fx.ALGEBRA_NAMES]


def jacobi_oracle(c: np.ndarray) -> float:
    """Brute-force loop over all index quadruples."""
    n = c.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total = 0.0
                    for m in range(n):
                        total += (
                            c[i, j, m] * c[m, k, l]
                            + c[k, i, m] * c[m, j, l]
                            + c[j, k, m] * c[m, i, l]
                        )
                    worst = max(worst, abs(total))
    return worst


def derivation_constraint_oracle(g: LieAlgebra) -> np.ndarray:
    """Literal build of the Leibniz constraint system over matrix space."""
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                row = np.zeros((n, n))
                for k in range(n):
                    row[l, k] += g.c[i, j, k]
                for m in range(n):
                    row[m, i] -= g.c[m, j, l]
                    row[m, j] -= g.c[i, m, l]
                rows.append(row.reshape(-1))
    return np.array(rows)


def null_dim_oracle(mat: np.ndarray, tol: float = 1e-9) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    return mat.shape[1] - int(np.sum(s > tol))


# --- validate_algebra -------------------------------------------------------

def test_abelian_passes_with_zero_residuals():
    rep = validate_algebra(fx.algebra("abelian2"))
    assert rep.passed
    assert rep.max_antisymmetry == 0.0
    assert rep.max_jacobi == 0.0


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_fixtures_pass_and_agree_with_bruteforce(g):
    rep = validate_algebra(g)
    assert rep.passed
    assert rep.max_jacobi <= 1e-12
    assert abs(rep.max_jacobi - jacobi_oracle(g.c)) <= 1e-14


def test_broken_antisymmetry_is_reported():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = 1.0
    rep = validate_algebra(LieAlgebra("broken", 2, c))
    assert not rep.passed
    assert rep.worst_antisymmetry == (0, 1, 0)


def test_malformed_tensor_rejected():
    with pytest.raises(InputError):
        LieAlgebra("bad", 3, np.zeros((3, 3, 2)))


# --- bracket / ad -----------------------------------------------------------

def test_abelian_bracket_vanishes():
    g = fx.algebra("abelian2")
    assert np.all(bracket(g, np.array([1.0, 2.0]), np.array([-3.0, 0.5])) == 0.0)


def test_so3_bracket_matches_summation_oracle():
    g = fx.algebra("so3")
    e1, e2 = unit_vector(3, 0), unit_vector(3, 1)
    expected = np.array([sum(e1[i] * e2[j] * g.c[i, j, k] for i in range(3) for j in range(3)) for k in range(3)])
    np.testing.assert_allclose(bracket(g, e1, e2), expected)
    np.testing.assert_allclose(expected, unit_vector(3, 2))


def bracket_oracle(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y]_k as the literal sum of x_i y_j c_ijk, one (i, j) term at a time."""
    n = c.shape[0]
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for i in range(n):
        for j in range(n):
            out += x[..., i : i + 1] * y[..., j : j + 1] * c[i, j]
    return out


def so3_in_random_basis() -> LieAlgebra:
    """so3 written in the basis e'_a = sum_i P_ia e_i: its constants
    c'_ab^d = P_ia P_jb c_ij^k (P^-1)_dk are dense and not +-1."""
    rng = np.random.default_rng(5)
    p = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    c = np.einsum("ia,jb,ijk,dk->abd", p, p, fx.algebra("so3").c, np.linalg.inv(p))
    g = LieAlgebra("so3_random_basis", 3, c)
    assert validate_algebra(g).passed
    return g


@pytest.mark.parametrize(
    "x_shape, y_shape",
    [((257, 3), (257, 3)), ((257, 3), (3,)), ((3,), (257, 3)), ((4, 5, 3), (3,)), ((0, 3), (0, 3))],
)
def test_bracket_matches_per_term_oracle_in_random_basis(x_shape, y_shape):
    g = so3_in_random_basis()
    rng = np.random.default_rng(6)
    x = rng.normal(size=x_shape) * 10.0 ** rng.uniform(-3, 3, size=x_shape)
    y = rng.normal(size=y_shape)
    out = bracket(g, x, y)
    expected = bracket_oracle(g.c, x, y)
    assert out.shape == expected.shape
    if out.size:
        # Entries may cancel to near zero, so the bound scales with the
        # operands rather than with each entry.
        bound = 1e-15 * np.abs(x).max() * np.abs(y).max() * np.abs(g.c).sum()
        assert np.abs(out - expected).max() <= bound


def test_bracket_negates_exactly_under_swap_in_random_basis():
    # dense structure constants: every pair (i, j) feeds every k
    g = so3_in_random_basis()
    rng = np.random.default_rng(8)
    for x_shape, y_shape in [((4225, 3), (4225, 3)), ((6, 7, 3), (3,)), ((3,), (3,))]:
        x = rng.normal(size=x_shape)
        y = rng.normal(size=y_shape)
        assert np.array_equal(bracket(g, x, y), -bracket(g, y, x))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_bracket_is_bitwise_the_three_operand_einsum(g):
    rng = np.random.default_rng(7)
    for x_shape, y_shape in [((4225, g.dim), (4225, g.dim)), ((6, 7, g.dim), (g.dim,)), ((g.dim,), (g.dim,))]:
        x = rng.normal(size=x_shape)
        y = rng.normal(size=y_shape)
        out = bracket(g, x, y)
        expected = np.einsum("...i,...j,ijk->...k", x, y, g.c)
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_bracket_of_vector_with_itself_is_zero(g):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=g.dim)
        assert np.abs(bracket(g, x, x)).max() <= 1e-12


def test_bracket_dimension_mismatch():
    g = fx.algebra("so3")
    with pytest.raises(InputError):
        bracket(g, np.zeros(2), np.zeros(3))


def test_ad_of_zero_and_abelian():
    g = fx.algebra("so3")
    assert np.all(ad(g, np.zeros(3)) == 0.0)
    ab = fx.algebra("abelian2")
    assert np.all(ad(ab, np.array([1.0, -2.0])) == 0.0)


def test_so3_ad_e3_by_direct_bracket_evaluation():
    g = fx.algebra("so3")
    e = np.eye(3)
    m = ad(g, e[2])
    np.testing.assert_allclose(m @ e[0], bracket(g, e[2], e[0]))
    np.testing.assert_allclose(m @ e[0], e[1])   # [e3,e1] = e2
    np.testing.assert_allclose(m @ e[1], -e[0])  # [e3,e2] = -e1
    np.testing.assert_allclose(m @ e[2], np.zeros(3))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_ad_is_a_lie_homomorphism(g):
    rng = np.random.default_rng(1)
    for _ in range(25):
        x, y = rng.normal(size=(2, g.dim))
        lhs = ad(g, bracket(g, x, y))
        rhs = ad(g, x) @ ad(g, y) - ad(g, y) @ ad(g, x)
        assert np.abs(lhs - rhs).max() <= 1e-9


# --- center / derivations ---------------------------------------------------

@pytest.mark.parametrize(
    "name,expected", [("abelian2", 2), ("so3", 0), ("heis3", 1), ("aff1", 0)]
)
def test_center_dimensions(name, expected):
    g = fx.algebra(name)
    assert g.center.shape == (g.dim, expected)
    stacked = np.stack([ad(g, unit_vector(g.dim, i)).reshape(-1) for i in range(g.dim)], axis=1)
    assert null_dim_oracle(stacked) == expected


def test_heis3_center_is_e3():
    basis = fx.algebra("heis3").center
    assert basis.shape == (3, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)


def test_center_is_cached_read_only():
    g = fx.algebra("abelian2")
    first = g.center
    before = first.tolist()
    with pytest.raises(ValueError):
        first[0, 0] = 5.0  # a caller cannot corrupt the next caller's basis
    assert g.center is first and g.center.tolist() == before


@pytest.mark.parametrize(
    "name,expected", [("abelian2", 4), ("so3", 3), ("heis3", 6), ("aff1", 2)]
)
def test_derivation_dimensions_match_nullspace_oracle(name, expected):
    g = fx.algebra(name)
    basis = derivations_basis(g)
    assert len(basis) == expected
    assert null_dim_oracle(derivation_constraint_oracle(g)) == expected
    for d in basis:
        assert derivation_residuals(g, d) <= 1e-9


def test_so3_derivations_span_equals_inner_span():
    g = fx.algebra("so3")
    ders = np.stack([d.reshape(-1) for d in derivations_basis(g)], axis=1)
    inner = g.ad_basis_matrix
    combined = np.concatenate([ders, inner], axis=1)
    assert np.linalg.matrix_rank(combined, tol=1e-9) == 3


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_inner_span_dim_is_dim_minus_center(g):
    rank = np.linalg.matrix_rank(g.ad_basis_matrix, tol=1e-9)
    assert rank == g.dim - g.center.shape[1]


# --- exp / log --------------------------------------------------------------

def test_exp_of_zero_is_identity():
    g = fx.algebra("so3")
    a = scipy.linalg.expm(np.zeros((3, 3)))
    np.testing.assert_allclose(a, np.eye(3))
    assert automorphism_residuals(g, a) == 0.0


def test_so3_exp_is_closed_form_rotation():
    g = fx.algebra("so3")
    theta = 0.7
    a = scipy.linalg.expm(theta * ad(g, unit_vector(3, 2)))
    ct, st = np.cos(theta), np.sin(theta)
    rotation = np.array([[ct, -st, 0.0], [st, ct, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(a, rotation, atol=1e-12)
    assert automorphism_residuals(g, a) <= 1e-12


def test_heis3_exp_is_truncated_series():
    g = fx.algebra("heis3")
    d = ad(g, unit_vector(3, 0))
    assert np.abs(d @ d).max() == 0.0  # nilpotent of order 2
    a = scipy.linalg.expm(d)
    np.testing.assert_allclose(a, np.eye(3) + d, atol=1e-14)
    assert automorphism_residuals(g, a) <= 1e-14


def test_exp_rejects_non_derivation():
    # the Leibniz rule that certifies a derivation refuses diag(1, 0, 0)
    g = fx.algebra("so3")
    assert derivation_residuals(g, np.diag([1.0, 0.0, 0.0])) > ALG_TOL


def test_exp_flags_numerical_escape_from_aut():
    # an overflowed exponential is no automorphism, and is_inner refuses it
    g = fx.algebra("aff1")
    huge = np.array([[0.0, 0.0], [0.0, 800.0]])  # a derivation, but exp overflows
    assert derivation_residuals(g, huge) <= ALG_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        a = scipy.linalg.expm(huge)
        assert not np.isfinite(a).all()
        with pytest.raises(InputError):
            is_inner(g, a)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_exp_of_random_derivations_lands_in_aut(g):
    rng = np.random.default_rng(7)
    basis = derivations_basis(g)
    for _ in range(100):
        coeff = rng.normal(size=len(basis))
        d = sum(c * b for c, b in zip(coeff, basis))
        d *= min(1.0, 1.5 / max(np.linalg.norm(d), 1e-12))
        a = scipy.linalg.expm(d)
        assert automorphism_residuals(g, a) <= 1e-9


def test_log_of_identity_is_zero():
    logs, ok = principal_logs(np.eye(3)[None])
    assert ok[0]
    np.testing.assert_allclose(logs[0], np.zeros((3, 3)), atol=1e-14)


def test_log_roundtrip_on_so3_rotation():
    g = fx.algebra("so3")
    d = 0.7 * ad(g, unit_vector(3, 2))
    logs, _ = principal_logs(scipy.linalg.expm(d)[None])
    np.testing.assert_allclose(logs[0], d, atol=1e-10)


def test_log_obstructed_by_negative_spectrum():
    assert not principal_logs(np.diag([-1.0, -1.0])[None])[1][0]


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_log_inverts_exp_below_spectral_radius_pi(g):
    rng = np.random.default_rng(11)
    basis = derivations_basis(g)
    done = 0
    while done < 25:
        coeff = rng.normal(size=len(basis))
        d = sum(c * b for c, b in zip(coeff, basis))
        if np.abs(np.linalg.eigvals(d)).max() >= np.pi - 0.2:
            continue
        logs, ok = principal_logs(scipy.linalg.expm(d)[None])
        assert ok[0]
        assert np.abs(logs[0] - d).max() <= 1e-8
        done += 1


# --- inner membership -------------------------------------------------------

def test_identity_is_inner_with_zero_witness():
    g = fx.algebra("so3")
    v = is_inner(g, np.eye(3))
    assert v.inner and v.residual == 0.0
    np.testing.assert_allclose(v.witness, np.zeros(3), atol=1e-12)


def test_identity_route_decides_a_row_near_the_identity():
    # the log route leaves this one open (residual 0.01005 > inner_tol); the
    # identity route takes it, with residual ||a - I||_F = 0.01 and log 0
    g = fx.algebra("so3")
    a = np.diag([0.99, 1.0, 1.0])
    inner, outer, resid, logs, shift = inner_verdicts(g, a[None], 0.01 * (1 + 0.0025))
    assert inner[0] and not outer[0] and shift[0] == -1
    assert resid[0] == pytest.approx(0.01, abs=1e-12)
    assert not logs[0].any()


def test_abelian_nonidentity_is_outer():
    # the characters decide it before any log: g/[g,g] = z(g) = g, so the
    # residual is the character distance ||A - I||_F
    g = fx.algebra("abelian2")
    v = is_inner(g, np.diag([2.0, 1.0]))
    assert v.outer
    assert abs(v.residual - 1.0) <= 1e-12


def test_abelian_obstructed_log_still_outer():
    # no principal log, but Inn = {id} decides it anyway
    g = fx.algebra("abelian2")
    v = is_inner(g, np.diag([-1.0, -1.0]))
    assert v.outer


@pytest.mark.parametrize("diagonal, distance", [((-1.0, -1.0, 1.0), 8**0.5), ((-1.0, 1.0, -1.0), 2.0)])
def test_heis3_sign_flips_are_outer_by_their_characters(diagonal, distance):
    # det +1 and no principal log, and every inner shift is unipotent, so no
    # shifted row has a log either; but a acts on g/[g,g] = span{e1, e2} (and
    # the second on z = span{e3}) with an eigenvalue -1, which Inn never does
    g = fx.algebra("heis3")
    a = np.diag(diagonal)
    assert automorphism_residuals(g, a) <= 1e-12
    assert not principal_logs(a[None])[1][0]
    v = is_inner(g, a)
    assert v.outer
    assert abs(v.residual - distance) <= 1e-12


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1e-6, 0.6, 0.8)])
def test_inner_shift_certifies_rotation_by_pi(axis):
    # eigenvalues {-1,-1,1} obstruct the log; a shift along the axis turns
    # the rotation away from pi, and Aut(so3) = Inn(so3) makes that row inner
    g = fx.algebra("so3")
    a = scipy.linalg.expm(ad(g, np.pi * np.array(axis) / np.linalg.norm(axis)))
    assert not principal_logs(a[None])[1][0]
    v = is_inner(g, a)
    assert v.inner and v.residual <= 1e-12
    product = np.eye(3)
    for x in v.factors:
        product = product @ scipy.linalg.expm(ad(g, x))
    np.testing.assert_allclose(product, a, rtol=0.0, atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2, still open: the first Denman-Beavers root loses the ill-conditioned near-pi row",
)
def test_principal_log_of_a_near_pi_rotation_in_an_ill_conditioned_basis():
    # S R S^-1 for R the rotation by pi - 1e-8 about e3 and S = diag(1, 1e4, 1):
    # its log is S theta J S^-1, but today the row reads ok False with a zero log
    theta = np.pi - 1e-8
    j = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rotation = np.array([[np.cos(theta), -np.sin(theta), 0.0], [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]])
    s, s_inv = np.diag([1.0, 1e4, 1.0]), np.diag([1.0, 1e-4, 1.0])
    logs, ok = principal_logs((s @ rotation @ s_inv)[None])
    expected = s @ (theta * j) @ s_inv
    assert ok[0]
    assert np.linalg.norm(logs[0] - expected) <= 1e-6 * np.linalg.norm(expected)


def so3_plus_r() -> LieAlgebra:
    """so3 + R: the so3 brackets on e1..e3 and a central e4."""
    c = np.zeros((4, 4, 4))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return LieAlgebra("so3+R", 4, c)


@pytest.mark.parametrize("scale, verdict", [(2.0, "outer"), (1.0, "inner")])
def test_inner_shift_decides_rotation_by_pi_times_a_central_scale(scale, verdict):
    # R_z(pi) + s has no real log; the shift along e3 gives one, whose part
    # off the inner span is log(s) on the center, a derivation
    g = so3_plus_r()
    assert validate_algebra(g).passed
    a = np.diag([-1.0, -1.0, 1.0, scale])
    assert not principal_logs(a[None])[1][0]
    assert is_inner(g, a).verdict == verdict


def rotation_by_pi(g: LieAlgebra, axis) -> np.ndarray:
    return scipy.linalg.expm(ad(g, np.pi * np.array(axis) / np.linalg.norm(axis)))


# Per algebra: an inner_tol and (row, verdict, decided by a shift) triples
# that reach every route of inner_verdicts.
ROUTE_STACKS = {
    "so3": (0.01 * (1 + 0.0025), [
        (scipy.linalg.expm(ad(fx.algebra("so3"), np.array([0.3, -0.2, 0.5]))), "inner", False),  # log
        (np.diag([0.99, 1.0, 1.0]), "inner", False),  # identity
        (rotation_by_pi(fx.algebra("so3"), (0.0, 0.0, 1.0)), "inner", True),
        (rotation_by_pi(fx.algebra("so3"), (1e-6, 0.6, 0.8)), "inner", True),
    ]),
    "abelian2": (1e-6, [  # g/[g,g] = z(g) = g: the characters decide every row but I
        (np.diag([2.0, 1.0]), "outer", False),
        (np.diag([-1.0, 2.0]), "outer", False),
        (np.diag([-1.0, -1.0]), "outer", False),
        (np.eye(2), "inner", False),  # log
    ]),
    "aff1": (1e-6, [(np.diag([1.0, -1.0]), "outer", False), (np.eye(2), "inner", False)]),  # det < 0
    "so3+R": (1e-6, [
        (np.diag([-1.0, -1.0, 1.0, 2.0]), "outer", False),  # characters: 2 on the center
        (np.diag([-1.0, -1.0, 1.0, 1.0]), "inner", True),
        (scipy.linalg.expm(ad(so3_plus_r(), np.array([0.0, 0.0, 0.6484375, 0.0]))), "inner", False),  # log
    ]),
    "heis3": (1e-6, [
        (np.diag([-1.0, -1.0, 1.0]), "outer", False),  # characters
        (np.diag([-1.0, 1.0, -1.0]), "outer", False),  # characters
        (np.diag([2.0, 1.0, 1.0]), "undecided", False),  # no automorphism: the characters pass it on
        (scipy.linalg.expm(ad(fx.algebra("heis3"), np.array([0.4, -0.7, 0.2]))), "inner", False),  # log
        (  # characters, far from the identity: ||a - I||_F = 10.7
            scipy.linalg.expm(8.0 * fx.DRIFT) @ scipy.linalg.expm(ad(fx.algebra("heis3"), np.array([1.5, 0.5, -2.0]))),
            "outer",
            False,
        ),
    ]),
}


@pytest.mark.parametrize("name", ROUTE_STACKS)
def test_inner_verdicts_rows_are_independent(name):
    # one stacked call equals the single-row calls bit for bit, on every route
    g = so3_plus_r() if name == "so3+R" else fx.algebra(name)
    inner_tol, rows = ROUTE_STACKS[name]
    stack = np.stack([row for row, _, _ in rows])
    together = inner_verdicts(g, stack, inner_tol)
    alone = [inner_verdicts(g, row[None], inner_tol) for row in stack]
    for k, field in enumerate(together):
        assert np.concatenate([single[k] for single in alone]).tobytes() == field.tobytes()
    inner, outer, _, _, shift = together
    verdicts = np.where(inner, "inner", np.where(outer, "outer", "undecided"))
    assert verdicts.tolist() == [v for _, v, _ in rows]
    assert (shift >= 0).tolist() == [s for _, _, s in rows]


def test_log_route_takes_no_leibniz_residual_of_an_all_inner_stack(monkeypatch):
    # _log_route takes the Leibniz residual of its candidate outer rows only,
    # and makes no call at all when there are none
    g = fx.algebra("so3")
    mats = so3_rotations(2.5, 40, np.random.default_rng(59))
    expected = inner_verdicts(g, mats, INNER_TOL)
    assert expected[0].all()
    residuals = algebra.derivation_residuals
    calls = []

    def counted(g, x):
        calls.append(len(x))
        return residuals(g, x)

    monkeypatch.setattr(algebra, "derivation_residuals", counted)
    got = inner_verdicts(g, mats, INNER_TOL)
    assert calls == []
    for a, b in zip(got, expected, strict=True):
        assert a.tobytes() == b.tobytes()
    # with no inner tolerance every real log is a candidate outer row
    algebra._log_route(g, mats, 0.0)
    assert calls == [len(mats)]


def test_characters_decide_every_abelian_row_the_log_leaves_open():
    # abelian2: every matrix is a derivation, so the log route decides each
    # row with a real log, and det < 0 rows are outer; what is left, det > 0
    # and no log (both eigenvalues negative, or a log the exp guard rejects),
    # is outer because Inn = {id}, and the character distance ||a - I||_F
    # decides each such row on its own
    g = fx.algebra("abelian2")
    rng = np.random.default_rng(53)
    theta = rng.uniform(0.0, np.pi, size=100)
    rot = np.stack([np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)], axis=1).reshape(-1, 2, 2)
    p = rot * rng.uniform(0.1, 10.0, size=(100, 1, 2))  # columns scaled: condition numbers up to 100
    negative = np.einsum("rij,rj,rjk->rik", p, -rng.uniform(0.01, 100.0, size=(100, 2)), np.linalg.inv(p))
    jordan = np.array([[[-1.0, t], [0.0, -1.0]] for t in (1e-6, 0.5, 30.0)])
    c, s = np.cos(np.pi - 1e-8), np.sin(np.pi - 1e-8)
    near_pi = np.diag([1.0, 1e4]) @ np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1e-4])
    rows = np.concatenate([negative, jordan, -np.eye(2)[None], near_pi[None]])
    assert not principal_logs(rows)[1].any() and (np.linalg.det(rows) > 0.0).all()
    assert _character_route(g, rows, 1e-6)[0].all()
    inner, outer, resid, logs, shift = inner_verdicts(g, rows, 1e-6)
    assert outer.all() and not inner.any() and (shift == -1).all() and not logs.any()
    np.testing.assert_allclose(resid, np.linalg.norm(rows - np.eye(2), axis=(-2, -1)), rtol=1e-12)


def test_a_row_no_route_decides_on_an_algebra_without_shifts_stays_undecided():
    # abelian2 has no inner shift, so the shift route has nothing to run on
    g = fx.algebra("abelian2")
    with np.errstate(all="ignore"):
        inner, outer, _, _, shift = inner_verdicts(g, np.full((1, 2, 2), np.nan), 1e-6)
    assert not inner[0] and not outer[0] and shift[0] == -1


@pytest.mark.parametrize("name", ["aff1", "so3", "heis3", "abelian2"])
def test_non_finite_rows_are_neither_inner_nor_outer(name):
    # a -inf entry once gave det -inf, which route 4 read as outer
    g = fx.algebra(name)
    rows = []
    for bad in (-np.inf, np.inf, np.nan):
        for sign in (1.0, -1.0):  # with det of either sign on the finite part
            a = np.eye(g.dim)
            a[0, 0], a[-1, -1] = bad, sign
            rows.append(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inner, outer, resid, logs, shift = inner_verdicts(g, np.array(rows), INNER_TOL)
    assert not inner.any() and not outer.any() and (shift == -1).all() and not logs.any()
    assert not np.isfinite(resid).any()


def sl2() -> LieAlgebra:
    """sl(2,R) in the basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[0, 2, 2], c[1, 2, 0] = 2.0, -2.0, 1.0
    return LieAlgebra("sl2", 3, c - np.swapaxes(c, 0, 1))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 16, defect F: on sl(2,R) neither det nor the characters can read a row outer",
)
def test_an_outer_automorphism_of_sl2_reads_outer():
    # diag(1, -1, -1) is outer; today it reads undecided with residual 2.83
    g = sl2()
    a = np.diag([1.0, -1.0, -1.0])
    assert validate_algebra(g).passed and automorphism_residuals(g, a) == 0.0
    inner, outer, _, _, _ = inner_verdicts(g, a[None], INNER_TOL)
    assert outer[0] and not inner[0]


def character_norm(g: LieAlgebra, d: np.ndarray) -> float:
    """max_B ||B^T d B||_F over g.character_bases: d's characters' size."""
    return max((np.linalg.norm(b.T @ d @ b) for b in g.character_bases), default=0.0)


PROPERTY_ALGEBRAS = {"heis3": fx.algebra("heis3"), "abelian2": fx.algebra("abelian2"), "so3+R": so3_plus_r()}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PROPERTY_ALGEBRAS)),
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    st.lists(
        st.tuples(st.booleans(), st.floats(-3.0, 3.0), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)),
        min_size=1,
        max_size=5,
    ),
)
def test_characters_never_overrule_the_log_route(name, coeffs, draws):
    # stacks exp(s D) exp(ad y) with D a unit derivation off span{ad}; s is
    # either free in [-3, 3] or a multiple in [-3, 3] of the s at which D's
    # characters reach the gate, so rows fall on both sides of it
    g = PROPERTY_ALGEBRAS[name]
    basis = np.stack(derivations_basis(g))
    d = np.tensordot(coeffs[: len(basis)], basis, 1)
    d -= ad(g, inner_projection(g, d)[0])
    assume(np.linalg.norm(d) > 0.1)
    d /= np.linalg.norm(d)
    assume(character_norm(g, d) > 1e-3)
    at_gate = character_gate(INNER_TOL) / character_norm(g, d)
    stack = np.stack([
        scipy.linalg.expm((t * at_gate if near else t) * d) @ scipy.linalg.expm(ad(g, np.array(y[: g.dim])))
        for near, t, y in draws
    ])
    log_inner, log_outer, _, _ = algebra._log_route(g, stack, INNER_TOL)
    together = inner_verdicts(g, stack, INNER_TOL)
    inner, outer = together[:2]
    by_log = log_inner | log_outer
    assert (inner[by_log] == log_inner[by_log]).all() and (outer[by_log] == log_outer[by_log]).all()
    by_chi, distances = _character_route(g, stack, INNER_TOL)
    assert not (by_chi & log_inner).any()
    # row by row: the characters bit for bit, and every verdict and shift (a
    # log's projection residual may move in the last bit with the stack size)
    alone = [_character_route(g, row[None], INNER_TOL) for row in stack]
    assert np.concatenate([chi for chi, _ in alone]).tolist() == by_chi.tolist()
    assert np.concatenate([dist for _, dist in alone]).tobytes() == distances.tobytes()
    alone = [inner_verdicts(g, row[None], INNER_TOL) for row in stack]
    for k in (0, 1, 4):
        assert np.concatenate([single[k] for single in alone]).tolist() == together[k].tolist()


def test_so3_exp_inner_with_recovered_witness():
    g = fx.algebra("so3")
    a = scipy.linalg.expm(1.2 * ad(g, unit_vector(3, 1)))
    v = is_inner(g, a)
    assert v.inner and v.residual <= 1e-6
    np.testing.assert_allclose(v.witness, [0.0, 1.2, 0.0], atol=1e-9)


def test_is_inner_rejects_non_automorphism():
    g = fx.algebra("so3")
    with pytest.raises(InputError):
        is_inner(g, np.diag([2.0, 1.0, 1.0]))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_exp_of_inner_is_always_inner(g):
    # 200 trials per fixture; no outer and no undecided verdicts allowed
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = rng.normal(size=g.dim)
        x /= max(1.0, np.linalg.norm(x))
        v = is_inner(g, scipy.linalg.expm(ad(g, x)))
        assert v.inner


# Equality in Aut(g)/Inn(g): a and b agree when a b^{-1} is inner.

def test_outer_equal_reflexive():
    g = fx.algebra("so3")
    a = scipy.linalg.expm(ad(g, unit_vector(3, 0)))
    v = is_inner(g, a @ np.linalg.inv(a))
    assert v.inner
    np.testing.assert_allclose(v.witness, np.zeros(3), atol=1e-9)


def test_outer_equal_abelian_distinct_classes():
    g = fx.algebra("abelian2")
    assert is_inner(g, np.eye(2) @ np.linalg.inv(np.diag([2.0, 1.0]))).outer


def test_outer_equal_so3_connected_aut():
    g = fx.algebra("so3")
    a = scipy.linalg.expm(ad(g, unit_vector(3, 0)))
    b = scipy.linalg.expm(ad(g, unit_vector(3, 1)))
    assert is_inner(g, a @ np.linalg.inv(b)).inner


def test_aff1_orientation_flip_is_outer():
    # Aut(aff1) = {[[1,0],[q,s]], s != 0}; Inn is the s > 0 component.
    g = fx.algebra("aff1")
    flip = np.array([[1.0, 0.0], [0.3, -1.0]])
    assert automorphism_residuals(g, flip) <= 1e-12
    assert is_inner(g, flip).outer  # det < 0 certificate
    ratio = flip @ np.linalg.inv(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert is_inner(g, ratio).inner  # same component => inner ratio


def test_batched_residuals_match_scalar_projection():
    # reference: scipy's logm, projected one matrix at a time
    g = fx.algebra("so3")
    rng = np.random.default_rng(17)
    mats = np.stack(
        [scipy.linalg.expm(ad(g, rng.normal(scale=0.04, size=3))) for _ in range(16)]
    )
    resid, logs, ok = inner_log_residuals(g, mats)
    assert ok.all()
    for i in range(len(mats)):
        _, scalar_resid = inner_projection(g, scipy.linalg.logm(mats[i]).real)
        assert abs(resid[i] - scalar_resid) <= 1e-10


def square_roots_needed(a: np.ndarray) -> int:
    """How many principal square roots (scipy's sqrtm) bring a within the
    0.25 Frobenius radius of the identity."""
    k = 0
    while np.linalg.norm(a - np.eye(len(a))) >= 0.25:
        a = scipy.linalg.sqrtm(a).real
        k += 1
    return k


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_principal_logs_match_logm_after_square_roots(g, k):
    # exp of a derivation whose k-th root, not its (k-1)-th, lies near the
    # middle of the series radius; the log must match scipy's logm
    rng = np.random.default_rng(19 + k)
    basis = derivations_basis(g)
    mats = []
    while len(mats) < 6:
        d = sum(c * b for c, b in zip(rng.normal(size=len(basis)), basis))
        a = scipy.linalg.expm(0.18 * 2**k * d / np.linalg.norm(d))
        if square_roots_needed(a) == k:
            mats.append(a)
    logs, ok = principal_logs(np.stack(mats))
    assert ok.all()
    for a, log in zip(mats, logs):
        ref = scipy.linalg.logm(a).real
        assert np.abs(log - ref).max() <= 1e-12 * np.abs(ref).max()


def test_principal_logs_flag_rows_without_a_real_log():
    g = fx.algebra("so3")
    rows = np.stack([
        np.diag([-1.0, -1.0, 1.0]),  # eigenvalue -1: on the negative axis
        scipy.linalg.expm(ad(g, np.array([0.0, 0.0, np.pi]))),  # rotation by pi
        scipy.linalg.expm(ad(g, np.array([0.0, 0.0, 1.0]))),
    ])
    logs, ok = principal_logs(rows)
    assert ok.tolist() == [False, False, True]
    assert not logs[:2].any()
    np.testing.assert_allclose(logs[2], ad(g, np.array([0.0, 0.0, 1.0])), atol=1e-13)
    assert not principal_logs(rows[1][None])[1][0]


def test_principal_logs_of_an_empty_stack():
    logs, ok = principal_logs(np.zeros((0, 3, 3)))
    assert logs.shape == (0, 3, 3) and ok.shape == (0,)
    resid, logs, ok = inner_log_residuals(fx.algebra("so3"), np.zeros((0, 3, 3)))
    assert resid.shape == ok.shape == (0,)


def automorphism_residuals_oracle(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The three-operand einsum form: max over (i, j) of
    || c_ijk a_lk - a_mi a_pj c_mpl ||_2."""
    lhs = np.einsum("...lk,ijk->...ijl", a, c)
    rhs = np.einsum("...mi,...pj,mpl->...ijl", a, a, c)
    return np.linalg.norm(lhs - rhs, axis=-1).max(axis=(-2, -1))


@pytest.mark.parametrize("lead", [(), (257,), (4, 5), (0,)], ids=str)
@pytest.mark.parametrize("g", ALL + [so3_in_random_basis()], ids=lambda g: g.name)
def test_automorphism_residuals_match_the_einsum_oracle(g, lead):
    # half exact automorphisms exp(d), d in Der(g), where lhs and rhs cancel,
    # half perturbed ones with O(1) residuals
    rng = np.random.default_rng(23)
    basis = np.stack(derivations_basis(g))
    count = int(np.prod(lead))
    d = np.einsum("ra,aij->rij", rng.normal(size=(count, len(basis))), basis)
    a = scipy.linalg.expm(d) if count else np.zeros((0, g.dim, g.dim))
    a[1::2] += 0.3 * rng.normal(size=a[1::2].shape)
    a = a.reshape(lead + (g.dim, g.dim))
    out = automorphism_residuals(g, a)
    expected = automorphism_residuals_oracle(g.c, a)
    assert out.shape == expected.shape == lead
    if count:
        scale = max(1.0, np.abs(a).max()) ** 2 * np.abs(g.c).sum()
        assert np.abs(out - expected).max() <= 1e-15 * scale


def test_automorphism_residuals_of_a_nan_frame_are_nan():
    # the bracket side sums only the nonzero constants, so it never reads
    # some entries (heis3's a_20 and a_21, every entry on abelian2): a
    # non-finite one must still read NaN, with no RuntimeWarning
    for g in ALL + [so3_in_random_basis()]:
        for bad in (np.nan, np.inf, -np.inf):
            for pos in np.ndindex(g.dim, g.dim):
                a = np.broadcast_to(np.eye(g.dim), (4, g.dim, g.dim)).copy()
                a[2][pos] = bad
                out = automorphism_residuals(g, a)
                assert np.isnan(out).tolist() == [False, False, True, False], (g.name, bad, pos)
                assert out[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]


def test_derivation_residuals_of_a_nan_derivation_are_nan():
    for g in ALL + [so3_in_random_basis()]:
        d0 = derivations_basis(g)[0]
        for bad in (np.nan, np.inf, -np.inf):
            for pos in np.ndindex(g.dim, g.dim):
                d = np.broadcast_to(d0, (4, g.dim, g.dim)).copy()
                d[2][pos] = bad
                out = derivation_residuals(g, d)
                assert np.isnan(out).tolist() == [False, False, True, False], (g.name, bad, pos)
                assert np.all(out[[0, 1, 3]] <= 1e-14)


def derivation_residuals_oracle(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The three-einsum form: max over (i, j) of
    || c_ijk d_lk - d_mi c_mjl - d_mj c_iml ||_2."""
    lhs = np.einsum("...lk,ijk->...ijl", d, c)
    t1 = np.einsum("...mi,mjl->...ijl", d, c)
    t2 = np.einsum("...mj,iml->...ijl", d, c)
    return np.linalg.norm(lhs - t1 - t2, axis=-1).max(axis=(-2, -1))


@pytest.mark.parametrize("lead", [(), (257,), (4, 5), (0,)], ids=str)
@pytest.mark.parametrize("g", ALL + [so3_in_random_basis()], ids=lambda g: g.name)
def test_derivation_residuals_match_the_einsum_oracle(g, lead):
    # half exact derivations, where the three terms cancel, half perturbed
    # ones with O(1) residuals
    rng = np.random.default_rng(29)
    basis = np.stack(derivations_basis(g))
    count = int(np.prod(lead))
    d = np.einsum("ra,aij->rij", rng.normal(size=(count, len(basis))), basis)
    d[1::2] += 0.3 * rng.normal(size=d[1::2].shape)
    d = d.reshape(lead + (g.dim, g.dim))
    out = derivation_residuals(g, d)
    expected = derivation_residuals_oracle(g.c, d)
    assert np.shape(out) == expected.shape == lead
    if count:
        scale = max(1.0, np.abs(d).max()) * np.abs(g.c).sum()
        assert np.abs(out - expected).max() <= 1e-15 * scale


@pytest.mark.parametrize("g", ALL + [so3_in_random_basis()], ids=lambda g: g.name)
def test_derivation_projector_matches_the_oracle_constraint(g):
    # the projector onto the null space of the literal Leibniz system
    _, s, vh = np.linalg.svd(derivation_constraint_oracle(g))
    s = np.concatenate([s, np.zeros(g.dim**2 - len(s))])
    basis = vh[s <= ALG_TOL].T
    assert np.abs(g.derivation_projector - basis @ basis.T).max() <= 1e-12


@pytest.mark.parametrize("name, counts", [("abelian2", [2]), ("so3", []), ("heis3", [2, 1]), ("aff1", [1])])
def test_character_bases_keep_each_subspace_once(name, counts):
    # abelian2's [g,g]^perp and center are both g: one basis
    g = fx.algebra(name)
    assert [b.shape[1] for b in g.character_bases] == counts


def principal_logs_scipy_guard(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """principal_logs with scipy's expm as the guard: the same square roots,
    series and bound, exp(log) taken by scipy row by row, and the eigenvalue
    screen on every far row, not only on those at ||a - I||_F >= 1 - 1e-6."""
    mats = np.asarray(mats, dtype=float)
    eye = np.eye(mats.shape[-1])
    ok = np.linalg.norm(mats - eye, axis=(-2, -1)) < 0.25
    far = np.flatnonzero(~ok)
    eig = np.linalg.eigvals(mats[far])
    far = far[~np.any((eig.real <= ALG_TOL) & (np.abs(eig.imag) <= ALG_TOL), axis=-1)]
    roots = np.where(ok[:, None, None], mats, eye)
    roots[far] = mats[far]
    k = np.zeros(len(mats))
    out = far
    while out.size:
        roots[out] = _square_roots(roots[out])
        k[out] += 1
        out = out[np.linalg.norm(roots[out] - eye, axis=(-2, -1)) >= 0.25]
    logs = 2.0 ** k[:, None, None] * _mercator(roots - eye)
    miss = np.linalg.norm(scipy.linalg.expm(logs[far]) - mats[far], axis=(-2, -1))
    ok[far] = miss <= 100 * ALG_TOL * (1.0 + np.linalg.norm(mats[far], axis=(-2, -1)))
    logs[~ok] = 0.0
    return logs, ok


def so3_rotations(max_angle: float, count: int, rng) -> np.ndarray:
    axes = rng.normal(size=(count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return scipy.linalg.expm(ad(fx.algebra("so3"), axes * rng.uniform(0.0, max_angle, size=(count, 1))))


def heis3_drift_ratios(count: int, rng) -> np.ndarray:
    """exp(s D) exp(ad y) with D = diag(.3, -.2, .1) outer, |s| <= 1.5, |y| <= 1."""
    s = rng.uniform(-1.5, 1.5, size=count)
    y = rng.uniform(-1.0, 1.0, size=(count, 3)) / np.sqrt(3.0)
    drift = np.zeros((count, 3, 3))
    for i, d in enumerate((0.3, -0.2, 0.1)):
        drift[:, i, i] = np.exp(s * d)
    return drift @ scipy.linalg.expm(ad(fx.algebra("heis3"), y))


def near_pi_ill_conditioned() -> np.ndarray:
    """A rotation by pi - 1e-8 conjugated by diag(1, 1e4, 1): its first
    square root is inaccurate, and the guard rejects the scaled-up log."""
    th = np.pi - 1e-8
    r = np.array([[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]])
    p = np.diag([1.0, 1e4, 1.0])
    return p @ r @ np.linalg.inv(p)


SPECIAL_ROWS = {  # name: (matrix, whether a log is certified)
    "singular": (np.diag([1.0, 1.0, 0.0]), False),
    "zero": (np.zeros((3, 3)), False),
    "minus_one_pair": (np.diag([-1.0, -1.0, 1.0]), False),
    "near_pi_ill_conditioned": (near_pi_ill_conditioned(), False),
    "rotation_3_1": (so3_rotations(3.1, 1, np.random.default_rng(1))[0], True),
}


@pytest.mark.parametrize("case", ["so3_0.3", "so3_1", "so3_2.5", "so3_3.1", "heis3", "special"])
def test_principal_logs_are_bitwise_the_scipy_guarded_version(case):
    rng = np.random.default_rng(29)
    if case == "heis3":
        mats = heis3_drift_ratios(300, rng)
    elif case == "special":
        mats = np.stack([m for m, _ in SPECIAL_ROWS.values()] + list(so3_rotations(2.5, 8, rng)))
    else:
        mats = so3_rotations(float(case.split("_")[1]), 300, rng)
    logs, ok = principal_logs(mats)
    ref_logs, ref_ok = principal_logs_scipy_guard(mats)
    assert ok.tolist() == ref_ok.tolist()
    assert logs.tobytes() == ref_logs.tobytes()
    if case == "special":
        assert ok[: len(SPECIAL_ROWS)].tolist() == [certified for _, certified in SPECIAL_ROWS.values()]
    else:
        assert ok.all() and (np.linalg.norm(mats - np.eye(3), axis=(-2, -1)) >= 0.25).any()
    # scipy's expm as an independent oracle of every certified log
    miss = np.linalg.norm(scipy.linalg.expm(logs[ok]) - mats[ok], axis=(-2, -1))
    assert (miss <= 100 * ALG_TOL * (1.0 + np.linalg.norm(mats[ok], axis=(-2, -1)))).all()


def test_principal_logs_reject_non_finite_rows():
    rng = np.random.default_rng(31)
    mats = so3_rotations(2.5, 6, rng)
    mats[1, 0, 2] = np.nan
    mats[4, 1, 1] = np.inf
    finite = [0, 2, 3, 5]
    with pytest.raises(np.linalg.LinAlgError):
        principal_logs_scipy_guard(mats)  # the eigenvalue screen refuses them
    logs, ok = principal_logs(mats)
    ref_logs, ref_ok = principal_logs_scipy_guard(mats[finite])
    assert ok.tolist() == [True, False, True, True, False, True]
    assert not logs[[1, 4]].any()
    assert logs[finite].tobytes() == ref_logs.tobytes()


def mercator_30(e: np.ndarray) -> np.ndarray:
    """The fixed 30-term Mercator sum of log(I + e), every row to degree 30."""
    power, acc = e.copy(), e.copy()
    for j in range(2, 31):
        power = power @ e
        acc += ((-1) ** (j + 1) / j) * power
    return acc


def test_mercator_radii_increase_and_meet_their_tail_bound():
    r = algebra._MERCATOR_RADII
    j = np.arange(1, len(r) + 1)
    assert len(r) == 30 and (np.diff(r) > 0).all() and r[-1] > 0.25
    assert (r**j / ((j + 1) * (1.0 - r)) <= 2.0**-53).all()
    up = np.nextafter(r, 1.0)  # each is the largest double that meets it
    assert (up**j / ((j + 1) * (1.0 - up)) > 2.0**-53).all()


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_mercator_is_the_30_term_sum_to_its_tail_bound(g):
    # rows at 0, 1e-17, every table radius and its neighbouring doubles
    # (either side of a degree step), and 0.2499, along a derivation of g
    radii = algebra._MERCATOR_RADII
    r = np.concatenate([[0.0, 1e-17, 0.2499], np.nextafter(radii, 0.0), radii, np.nextafter(radii, 1.0)])
    r = r[r < 0.25]
    basis = derivations_basis(g)
    d = sum(c * b for c, b in zip(np.random.default_rng(47).normal(size=len(basis)), basis))
    e = r[:, None, None] * d / np.linalg.norm(d)
    norms = np.linalg.norm(e, axis=(1, 2))
    gap = np.linalg.norm(_mercator(e) - mercator_30(e), axis=(1, 2))
    assert (gap <= 4 * 2.0**-53 * norms).all()
    assert _mercator(e[:2]).tobytes() == e[:2].tobytes()  # degree 1: e itself


def test_principal_logs_rows_do_not_depend_on_their_stack():
    # near and far rows of many series degrees, rows without a log and a
    # NaN row: each row's log is bitwise its own call's, in any order
    rng = np.random.default_rng(53)
    mats = np.concatenate([
        so3_rotations(0.3, 6, rng),
        so3_rotations(3.1, 6, rng),
        heis3_drift_ratios(6, rng),
        np.stack([m for m, _ in SPECIAL_ROWS.values()]),
        np.stack([np.eye(3), np.diag([5e-7, 1.0, 1.0]), np.full((3, 3), np.nan)]),
    ])
    logs, ok = principal_logs(mats)
    alone = [principal_logs(a[None]) for a in mats]
    assert logs.tobytes() == np.concatenate([l for l, _ in alone]).tobytes()
    assert ok.tolist() == [bool(o[0]) for _, o in alone]
    back_logs, back_ok = principal_logs(mats[::-1])
    assert back_logs[::-1].tobytes() == logs.tobytes() and back_ok[::-1].tolist() == ok.tolist()


def count_eigvals_rows(monkeypatch) -> list:
    """Patch np.linalg.eigvals to record the row count of each call."""
    rows = []
    eigvals = np.linalg.eigvals

    def counted(a):
        rows.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return rows


def test_principal_logs_screen_no_row_the_norm_bound_clears(monkeypatch):
    # ||a - I||_F <= 0.8 < 1 - 1e-6 keeps every eigenvalue off the negative axis
    mats = so3_rotations(0.57, 300, np.random.default_rng(59))
    dist = np.linalg.norm(mats - np.eye(3), axis=(1, 2))
    assert dist.max() <= 0.8 and (dist >= 0.25).sum() > 100
    rows = count_eigvals_rows(monkeypatch)
    assert principal_logs(mats)[1].all()
    assert sum(rows) == 0


@pytest.mark.parametrize("d0, screened, certified", [(2e-6, 0, True), (5e-7, 1, True), (-1e-3, 1, False)])
def test_principal_logs_screen_only_rows_at_the_norm_bound(monkeypatch, d0, screened, certified):
    # diag(d0, 1, 1) sits at ||a - I||_F = 1 - d0, on either side of 1 - 1e-6
    rows = count_eigvals_rows(monkeypatch)
    logs, ok = principal_logs(np.diag([d0, 1.0, 1.0])[None])
    assert sum(rows) == screened and ok.tolist() == [certified]
    if certified:  # log is 1/d0-conditioned at d0: round-off of 1e-16 moves it by 1e-16/d0
        np.testing.assert_allclose(logs[0], np.diag([np.log(d0), 0.0, 0.0]), rtol=0.0, atol=1e-15 / d0)


def test_principal_logs_screen_decides_as_screening_every_far_row():
    # the scipy-guarded reference runs eigvals on every far row
    rng = np.random.default_rng(61)
    diag = [np.diag([d, 1.0, 1.0]) for d in (2e-6, 1.1e-6, 1e-6, 9e-7, 5e-7, 1e-9, 1e-10, 0.0, -1e-12, -1e-3, 0.5, 3.0)]
    mats = np.concatenate([np.stack(diag), so3_rotations(3.1, 40, rng), heis3_drift_ratios(40, rng)])
    logs, ok = principal_logs(mats)
    ref_logs, ref_ok = principal_logs_scipy_guard(mats)
    assert ok.tolist() == ref_ok.tolist() and logs.tobytes() == ref_logs.tobytes()
    assert not ok[5:10].any() and ok[10:].all()


def test_principal_logs_without_a_far_row_skip_the_screen_and_the_guard(monkeypatch):
    # rows inside the series radius, I and a NaN row: none is far
    rng = np.random.default_rng(67)
    near = np.concatenate([
        so3_rotations(0.17, 4, rng),
        np.eye(3) + rng.normal(scale=1e-3, size=(2, 3, 3)),
        np.stack([np.eye(3), np.full((3, 3), np.nan)]),
    ])
    nan_row = len(near) - 1
    assert (np.linalg.norm(near[:nan_row] - np.eye(3), axis=(1, 2)) < 0.25).all()
    mixed = np.concatenate([near, so3_rotations(3.1, 4, rng), np.stack([m for m, _ in SPECIAL_ROWS.values()])])
    logs, ok = principal_logs(mixed)
    ref_logs, ref_ok = principal_logs_scipy_guard(np.delete(mixed, nan_row, axis=0))  # its screen refuses NaN
    assert np.delete(logs, nan_row, axis=0).tobytes() == ref_logs.tobytes()
    assert np.delete(ok, nan_row).tolist() == ref_ok.tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("far-row machinery called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(algebra, "_exp_by_squaring", refuse)
    near_logs, near_ok = principal_logs(near)
    assert near_ok.tolist() == [True] * nan_row + [False]
    assert near_logs.tobytes() == logs[: len(near)].tobytes() and near_ok.tolist() == ok[: len(near)].tolist()
    with pytest.raises(AssertionError, match="far-row"):  # the mixed stack does reach both
        principal_logs(mixed)


def test_principal_logs_guard_does_not_call_scipy_expm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    mats = so3_rotations(2.5, 40, np.random.default_rng(37))
    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    logs, ok = principal_logs(mats)
    assert ok.all() and (np.linalg.norm(mats - np.eye(3), axis=(-2, -1)) >= 0.25).all()


def test_guard_exponential_is_scipy_expm_to_round_off():
    # mixed k in one batch, every x at most the series bound -log(0.75) in norm
    rng = np.random.default_rng(41)
    x = rng.normal(size=(400, 3, 3))
    x *= -np.log(0.75) * rng.uniform(0.0, 1.0, size=(400, 1, 1)) / np.linalg.norm(x, axis=(1, 2), keepdims=True)
    k = rng.integers(0, 4, size=400).astype(float)
    ref = scipy.linalg.expm(2.0 ** k[:, None, None] * x)
    err = np.linalg.norm(_exp_by_squaring(x, k) - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert (err <= 2.0 ** (k + 1) * 1e-15).all()


def test_principal_logs_guard_fails_an_overflowing_row_without_a_warning(monkeypatch):
    # a stand-in root step that takes 1000 roots to reach the series radius:
    # exp(series) squared 1000 times overflows, and the row must read ok
    # False (pytest turns a RuntimeWarning into an error)
    calls = []

    def slow_roots(a):
        calls.append(1)
        return a if len(calls) < 1000 else np.broadcast_to(np.diag([1.2, 1.0, 1.0]), a.shape).copy()

    monkeypatch.setattr(algebra, "_square_roots", slow_roots)
    logs, ok = principal_logs(np.diag([2.0, 1.0, 1.0])[None])
    assert len(calls) == 1000
    assert ok.tolist() == [False] and not logs.any()


def test_outer_equal_rejects_a_singular_divisor():
    # a singular matrix is no automorphism, so it has no class to compare
    g = fx.algebra("so3")
    with pytest.raises(InputError):
        is_inner(g, np.diag([1.0, 1.0, 0.0]))


# --- hypothesis property checks --------------------------------------------

coeffs = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_bracket_bilinear_and_antisymmetric(xs, ys, s, t):
    g = fx.algebra("so3")
    x, y = np.array(xs), np.array(ys)
    lhs = bracket(g, s * x + t * y, y)
    rhs = s * bracket(g, x, y) + t * bracket(g, y, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    np.testing.assert_allclose(bracket(g, x, y), -bracket(g, y, x), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(coeffs)
def test_ad_output_satisfies_leibniz(xs):
    g = fx.algebra("so3")
    assert derivation_residuals(g, ad(g, np.array(xs))) <= 1e-12


def derivation_exponentials(g: LieAlgebra, count: int, rng) -> np.ndarray:
    """exp(d) for random derivations d of g with ||d||_F <= 2."""
    basis = np.stack(derivations_basis(g))
    d = np.einsum("ra,aij->rij", rng.normal(size=(count, len(basis))), basis)
    d *= 2.0 * rng.uniform(size=(count, 1, 1)) / np.linalg.norm(d, axis=(-2, -1), keepdims=True)
    return scipy.linalg.expm(d)


SQUARE_ROOT_STACKS = {  # name: rng -> stack whose principal square roots are checked
    "so3_3.1": lambda rng: so3_rotations(3.1, 200, rng),
    "heis3_drift": lambda rng: heis3_drift_ratios(200, rng),
    "derivations_n2": lambda rng: derivation_exponentials(fx.algebra("aff1"), 200, rng),
    "derivations_n4": lambda rng: derivation_exponentials(LieAlgebra("abelian4", 4, np.zeros((4, 4, 4))), 200, rng),
}


@pytest.mark.parametrize("case", SQUARE_ROOT_STACKS)
def test_square_roots_match_sqrtm(case):
    mats = SQUARE_ROOT_STACKS[case](np.random.default_rng(37))
    roots = _square_roots(mats)
    for a, root in zip(mats, roots):
        ref = scipy.linalg.sqrtm(a).real
        assert np.abs(root - ref).max() <= 1e-12 * np.abs(ref).max()


def test_square_roots_invert_once_per_step(monkeypatch):
    # the product form inverts only M, from M = a by M <- I/2 + (M + M^-1)/4;
    # a second inverse per step (the Y/Z form) breaks the chain of arguments
    inverses = algebra._inverses
    calls = []

    def counted(m):
        calls.append(m.copy())
        return inverses(m)

    monkeypatch.setattr(algebra, "_inverses", counted)
    a = so3_rotations(2.5, 1, np.random.default_rng(41))
    root = _square_roots(a)
    np.testing.assert_allclose(root[0], scipy.linalg.sqrtm(a[0]).real, rtol=0, atol=1e-14)
    assert len(calls) >= 4
    assert calls[0].tobytes() == a.tobytes()
    for m, m_next in zip(calls, calls[1:]):
        assert m_next.tobytes() == (0.5 * np.eye(3) + 0.25 * (m + inverses(m))).tobytes()
    # a batch takes as many steps as its slowest row
    one_row = []
    for a in so3_rotations(3.1, 5, np.random.default_rng(43)):
        calls.clear()
        _square_roots(a[None])
        one_row.append(len(calls))
    calls.clear()
    _square_roots(so3_rotations(3.1, 5, np.random.default_rng(43)))
    assert len(calls) == max(one_row)
    calls.clear()
    _square_roots(np.eye(3)[None])
    assert len(calls) == 1


def test_square_roots_of_singular_or_overflowing_rows_are_nan_rowwise():
    rng = np.random.default_rng(47)
    mats = np.concatenate([
        so3_rotations(3.1, 3, rng),
        np.diag([1.0, 1.0, 0.0])[None],  # singular
        heis3_drift_ratios(3, rng),
        np.diag([1e-310, 1.0, 1.0])[None],  # its inverse overflows
        so3_rotations(0.3, 2, rng),
    ])
    bad = [3, 7]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _square_roots(mats)
        one_row = np.stack([_square_roots(a[None])[0] for a in mats])
    assert np.isnan(roots[bad]).all() and np.isnan(one_row[bad]).all()
    good = np.setdiff1d(np.arange(len(mats)), bad)
    assert np.isfinite(roots[good]).all()
    assert roots[good].tobytes() == one_row[good].tobytes()


# --- closed-form determinants and inverses ---------------------------------


def conditioned_stack(n: int, count: int, cond: float, rng) -> np.ndarray:
    """count random n x n matrices U diag(s) V^T, U and V orthogonal, with
    singular values s log-spaced from 1 down to 1/cond."""
    u = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    return (u * np.geomspace(1.0, 1.0 / cond, n)) @ np.swapaxes(v, -1, -2)


KERNEL_STACKS = {  # name: (n, rng) -> stack of 200 matrices
    "random": lambda n, rng: rng.normal(size=(200, n, n)),
    "integer": lambda n, rng: rng.integers(-4, 5, size=(200, n, n)).astype(float),
    "cond_1e4": lambda n, rng: conditioned_stack(n, 200, 1e4, rng),
    "cond_1e8": lambda n, rng: conditioned_stack(n, 200, 1e8, rng),
}


@pytest.mark.parametrize("case", KERNEL_STACKS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_dets_and_inverses_match_lapack(n, case):
    # n <= 3 in closed form, n = 4 through the np.linalg fallback.  Cofactor
    # expansion does not pivot, so the bound scales with prod_i s_1 / s_i over
    # a row's singular values: the condition number at n = 2, at most its
    # square at n = 3
    mats = KERNEL_STACKS[case](n, np.random.default_rng(53 + n))
    ref_det = np.linalg.det(mats)
    if case == "integer":  # small integer entries: the expansion is exact
        ref_det = np.round(ref_det) if n <= 3 else ref_det
        assert (_dets(mats) == ref_det).all()
        assert np.isnan(_inverses(mats[ref_det == 0.0])).all()
    live = ref_det != 0.0
    s = np.linalg.svd(mats[live], compute_uv=False)
    bound = 8.0 * np.finfo(float).eps * np.prod(s[:, :1] / s, axis=1)
    ref_inv = np.linalg.inv(mats[live])
    assert (np.abs(_dets(mats[live]) - ref_det[live]) <= bound * np.abs(ref_det[live])).all()
    miss = np.linalg.norm(_inverses(mats[live]) - ref_inv, axis=(-2, -1))
    assert (miss <= bound * np.linalg.norm(ref_inv, axis=(-2, -1))).all()
    if n <= 3:  # a row's bits do not depend on its stack
        assert np.stack([_inverses(a) for a in mats]).tobytes() == _inverses(mats).tobytes()
        assert np.stack([_dets(a) for a in mats]).tobytes() == _dets(mats).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverses_of_singular_and_non_finite_rows_are_nan(n):
    mats = np.random.default_rng(61).normal(size=(7, n, n)) + 3.0 * np.eye(n)
    mats[1] = 0.0
    mats[2] = np.outer(np.arange(1.0, n + 1), np.arange(1.0, n + 1)) if n > 1 else 0.0  # rank 1, det exactly 0
    mats[3, 0, 0] = np.nan
    mats[4, -1, -1] = np.inf
    mats[5, 0, -1] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, det = _inverses(mats), _dets(mats)
        one_row = np.stack([_inverses(a) for a in mats])
    assert (det[[1, 2]] == 0.0).all() and not np.isfinite(det[3:6]).any()
    assert np.isnan(inv[1:6]).all()
    assert np.isfinite(inv[[0, 6]]).all()
    assert inv[[0, 6]].tobytes() == one_row[[0, 6]].tobytes()


def test_principal_logs_leave_a_row_with_overflowing_norms_open(monkeypatch):
    # the Frobenius norms of a 1e300 row overflow, and inf > 1e-8 * inf is
    # False: a stop test phrased that way takes the first step as converged
    # and feeds back a/2 (I + a^-1), not a root, about 500 times.  The row
    # must stay open to the step cap, come back NaN, and read ok False after
    # one batch, with no overflow warning from any norm.
    calls = []
    square_roots = algebra._square_roots

    def counted(a):
        calls.append(len(a))
        return square_roots(a)

    monkeypatch.setattr(algebra, "_square_roots", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs, ok = principal_logs(np.diag([1e300, 1e300, 1.0])[None])
    assert len(calls) <= 1
    assert ok.tolist() == [False] and not logs.any()
