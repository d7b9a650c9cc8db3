"""Finite-dimensional Lie algebra kernel.

A Lie algebra is stored as a dense rank-3 structure-constants tensor
``c[i, j, k]`` meaning ``[e_i, e_j] = sum_k c[i, j, k] e_k`` (0-based).
Everything downstream (derivations, automorphisms, inner-membership
decisions) is linear algebra over this tensor.  Null spaces and projections
go through SVD with an absolute singular-value cutoff so rank decisions stay
stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .tolerances import ALG_TOL, INNER_AUT_TOL, INNER_TOL

MAX_DIM = 16


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants of a finite-dimensional Lie algebra."""

    name: str
    dim: int
    c: np.ndarray  # shape (dim, dim, dim)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if not (1 <= self.dim <= MAX_DIM):
            raise InputError(f"dim must be in 1..{MAX_DIM}, got {self.dim}")
        if c.shape != (self.dim, self.dim, self.dim):
            raise InputError(f"structure tensor has shape {c.shape}, expected {(self.dim,) * 3}")
        if not np.isfinite(c).all():
            raise InputError("structure tensor has non-finite entries")
        object.__setattr__(self, "c", c)

    @cached_property
    def ad_basis_matrix(self) -> np.ndarray:
        """Columns are vec(ad(e_i)); the image spans the inner derivations."""
        n = self.dim
        cols = [ad(self, unit_vector(n, i)).reshape(-1) for i in range(n)]
        return np.stack(cols, axis=1)

    @cached_property
    def ad_pinv(self) -> np.ndarray:
        """Pseudo-inverse of the vec(ad) map, cutoff at ALG_TOL; used for
        minimum-norm witnesses and for projecting matrices onto the inner span."""
        return np.linalg.pinv(self.ad_basis_matrix, **_pinv_cut(self.ad_basis_matrix))

    @cached_property
    def derivation_projector(self) -> np.ndarray:
        """Orthogonal projector (dim^2 x dim^2) onto vec(Der(g))."""
        basis = np.stack([d.reshape(-1) for d in derivations_basis(self)], axis=1)
        return basis @ basis.T

    @cached_property
    def inner_shifts(self) -> tuple[np.ndarray, np.ndarray]:
        """The fixed inner shifts y_j = e_j / (4 ||ad e_j||_F), one per e_j with
        ad(e_j) != 0, and exp(ad y_j), as stacks (J, n) and (J, n, n)."""
        live = np.abs(self.ad_basis_matrix).max(axis=0, initial=0.0) > ALG_TOL
        y = np.eye(self.dim)[live] / (4.0 * np.linalg.norm(self.ad_basis_matrix[:, live], axis=0))[:, None]
        return y, _exp_by_squaring(ad(self, y), np.zeros(len(y)))


def _pinv_cut(mat: np.ndarray) -> dict:
    # numpy's pinv rcond is relative to the largest singular value; convert
    # the absolute ALG_TOL cutoff.
    smax = np.linalg.norm(mat, 2) if mat.size else 1.0
    return {"rcond": 0.0} if smax == 0.0 else {"rcond": ALG_TOL / smax}


def unit_vector(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim)
    e[i] = 1.0
    return e


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    max_antisymmetry: float
    max_jacobi: float
    worst_antisymmetry: tuple
    worst_jacobi: tuple

    def residuals(self) -> dict:
        return {"antisymmetry": self.max_antisymmetry, "jacobi": self.max_jacobi}


def validate_algebra(g: LieAlgebra, tol: float = ALG_TOL) -> ValidationReport:
    """Check antisymmetry and the Jacobi identity of the structure tensor."""
    c = g.c
    anti = c + np.swapaxes(c, 0, 1)
    jac = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
    )
    a_flat = np.abs(anti)
    j_flat = np.abs(jac)
    worst_a = np.unravel_index(np.argmax(a_flat), a_flat.shape) if a_flat.size else ()
    worst_j = np.unravel_index(np.argmax(j_flat), j_flat.shape) if j_flat.size else ()
    max_a = float(a_flat.max(initial=0.0))
    max_j = float(j_flat.max(initial=0.0))
    return ValidationReport(
        passed=bool(max_a <= tol and max_j <= tol),
        max_antisymmetry=max_a,
        max_jacobi=max_j,
        worst_antisymmetry=tuple(int(i) for i in worst_a),
        worst_jacobi=tuple(int(i) for i in worst_j),
    )


def bracket(g: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] via the structure constants; broadcasts over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != g.dim or y.shape[-1] != g.dim:
        raise InputError(f"coordinate length must be {g.dim}")
    # Pair form, one GEMM: sum_{i<j} (x_i y_j - x_j y_i) times the skew part
    # of c_ijk.  Each area negates exactly when x and y swap, so does the
    # result; on an antisymmetric c the skew part is c[i, j] to the bit.
    i, j = np.triu_indices(g.dim, 1)
    area = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    return area @ (0.5 * (g.c[i, j] - g.c[j, i]))


def ad(g: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) = [x, .]; broadcasts over leading axes of x."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != g.dim:
        raise InputError(f"coordinate length must be {g.dim}")
    # (ad x)[k, j] = sum_i x_i c[i, j, k]
    return np.einsum("...i,ijk->...kj", x, g.c)


def _null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis (columns): singular values <= ALG_TOL."""
    _, s, vh = np.linalg.svd(mat)
    s = np.concatenate([s, np.zeros(mat.shape[1] - len(s))])
    return vh[s <= ALG_TOL].T


def center_basis(g: LieAlgebra) -> list[np.ndarray]:
    """Orthonormal basis of Z(g) = ker(x -> ad(x))."""
    stacked = g.ad_basis_matrix  # (dim^2, dim)
    return [v for v in _null_space(stacked).T]


def _leibniz_defects(g: LieAlgebra, d: np.ndarray) -> np.ndarray:
    """d [e_i, e_j] - [d e_i, e_j] - [e_i, d e_j] as (..., i, j, l); broadcasts
    over leading axes of d."""
    lhs = np.einsum("...lk,ijk->...ijl", d, g.c)
    t1 = np.einsum("...mi,mjl->...ijl", d, g.c)
    t2 = np.einsum("...mj,iml->...ijl", d, g.c)
    return lhs - t1 - t2


def derivation_residuals(g: LieAlgebra, d: np.ndarray) -> np.ndarray:
    """Max-over-basis-pairs Leibniz residual of d; broadcasts over leading axes.

    Residual per pair (i, j): || d [e_i, e_j] - [d e_i, e_j] - [e_i, d e_j] ||_2.
    """
    per_pair = np.linalg.norm(_leibniz_defects(g, np.asarray(d, dtype=float)), axis=-1)
    return per_pair.max(axis=(-2, -1))


def automorphism_residuals(g: LieAlgebra, a: np.ndarray) -> np.ndarray:
    """Max-over-basis-pairs residual || a [e_i, e_j] - [a e_i, a e_j] ||_2."""
    a = np.asarray(a, dtype=float)
    n = g.dim
    at = np.swapaxes(a, -1, -2)
    cube = a.shape[:-2] + (n, n, n)
    # Three GEMMs: lhs_ijl = c_ijk a_lk, t_ipl = a_mi c_mpl, rhs_ijl = a_pj t_ipl.
    lhs = (g.c.reshape(n * n, n) @ at).reshape(cube)
    t = (at @ g.c.reshape(n, n * n)).reshape(cube)
    rhs = at[..., None, :, :] @ t
    per_pair = np.linalg.norm(lhs - rhs, axis=-1)
    return per_pair.max(axis=(-2, -1))


def derivations_basis(g: LieAlgebra) -> list[np.ndarray]:
    """Orthonormal (as vectors) basis of Der(g), solved as one linear system.

    The inner derivations span{ad(e_i)} are always a subspace of the result.
    """
    n = g.dim
    units = np.eye(n * n).reshape(n * n, n, n)
    constraint = _leibniz_defects(g, units).reshape(n * n, n * n * n).T  # rows: (i,j,l)
    return [v.reshape(n, n) for v in _null_space(constraint).T]


def principal_logs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real principal logarithms of a stack (m, n, n) as (logs, ok), by inverse
    scaling and squaring: k square roots bring a row within ||x - I||_F < 0.25,
    and 2^k times the 30-term Mercator series of log(x) is its log.  A row that
    starts there (k = 0) needs no guard; any other gets ok False and a zero log
    if it is not finite, if an eigenvalue lies on the closed negative real axis
    within ALG_TOL, or if exp(log), formed as exp(series) squared k times,
    misses it by more than 100*ALG_TOL*(1 + ||a||_F)."""
    mats = np.asarray(mats, dtype=float)
    eye = np.eye(mats.shape[-1])
    with np.errstate(over="ignore"):  # an overflowing norm is inf: the row is far
        ok = np.linalg.norm(mats - eye, axis=(-2, -1)) < 0.25  # far rows are judged below
    far = np.flatnonzero(~ok & np.isfinite(mats).all(axis=(-2, -1)))  # non-finite: no log
    eig = np.linalg.eigvals(mats[far])
    far = far[~np.any((eig.real <= ALG_TOL) & (np.abs(eig.imag) <= ALG_TOL), axis=-1)]
    roots = np.where(ok[:, None, None], mats, eye)  # rows without a real log: I
    roots[far] = mats[far]
    k = np.zeros(len(mats))
    out = far
    while out.size:  # a root that did not converge is NaN and drops out
        roots[out] = _square_roots(roots[out])
        k[out] += 1
        out = out[np.linalg.norm(roots[out] - eye, axis=(-2, -1)) >= 0.25]
    e = roots - eye
    power = e.copy()
    acc = e.copy()
    for j in range(2, 31):
        power = np.matmul(power, e)
        acc += ((-1) ** (j + 1) / j) * power
    logs = 2.0 ** k[:, None, None] * acc
    with np.errstate(all="ignore"):  # an overflowing or NaN row fails the check
        miss = np.linalg.norm(_exp_by_squaring(acc[far], k[far]) - mats[far], axis=(-2, -1))
        ok[far] = miss <= 100 * ALG_TOL * (1.0 + np.linalg.norm(mats[far], axis=(-2, -1)))
    logs[~ok] = 0.0
    return logs, ok


def _exp_by_squaring(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(2^k x) of a stack as exp(x) squared k times per row.  Every x here
    is a Mercator sum with ||x||_F <= -log(0.75) < 0.29, or an inner shift
    ad(y_j) with ||ad y_j||_F = 0.25 (k = 0); there the degree-12 Taylor
    polynomial (Horner form) leaves a remainder below 2e-17."""
    eye = np.eye(x.shape[-1])
    e = eye + x / 12.0
    for j in range(11, 0, -1):
        e = eye + np.matmul(x, e) / j
    for step in range(int(k.max(initial=0))):
        rows = k > step
        e[rows] = np.matmul(e[rows], e[rows])
    return e


def _square_roots(a: np.ndarray) -> np.ndarray:
    """Principal square roots of a stack by the product form of the
    Denman-Beavers iteration, one inverse per step (Higham, Functions of
    Matrices, 2008, eq. 6.17; Cheng, Higham, Kenney & Laub, SIAM J. Matrix
    Anal. Appl. 22(4), 2001): from M = Y = a, Y <- Y (I + M^-1)/2 and
    M <- I/2 + (M + M^-1)/4, so M -> I and Y -> a^(1/2).  Convergence is
    quadratic, so a row is done after a finite step of at most 1e-8
    relative (a step whose norm overflows is no stop).  A row with a
    singular or overflowing iterate, or not done in 100 steps, is NaN."""
    eye = np.eye(a.shape[-1])
    y = a.copy()
    m = a.copy()
    todo = np.arange(len(a))
    with np.errstate(all="ignore"):
        for _ in range(100):
            y_old, m_old = y[todo], m[todo]
            m_inv = _inverses(m_old)
            y_new = 0.5 * np.matmul(y_old, eye + m_inv)
            y[todo] = y_new
            m[todo] = 0.5 * eye + 0.25 * (m_old + m_inv)
            step = np.linalg.norm(y_new - y_old, axis=(-2, -1))
            done = np.isfinite(step) & (step <= 1e-8 * np.linalg.norm(y_new, axis=(-2, -1)))
            todo = todo[~done]
            if not todo.size:
                break
    y[todo] = np.nan
    return np.where(np.isfinite(y), y, np.nan)


def _inverses(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack; a singular row (det 0) comes back NaN instead of raising."""
    return np.linalg.inv(np.where(np.linalg.det(m)[:, None, None] == 0.0, np.nan, m))


@dataclass(frozen=True)
class InnerVerdict:
    """Outcome of an inner-membership decision.

    verdict is one of "inner", "outer", "undecided".  For an "inner" verdict
    ``factors`` holds vectors x_1..x_k with A ~ exp(ad x_1)...exp(ad x_k), and
    ``witness`` is set when a single factor suffices (minimum-norm solution).
    "undecided" is an honest third state; it is never silently coerced.
    """

    verdict: str
    residual: float
    witness: np.ndarray | None = None
    factors: tuple | None = None

    @property
    def inner(self) -> bool:
        return self.verdict == "inner"

    @property
    def outer(self) -> bool:
        return self.verdict == "outer"

    @property
    def undecided(self) -> bool:
        return self.verdict == "undecided"


def inner_projection(g: LieAlgebra, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project matrices (..., n, n) onto span{ad(e_i)}: the minimum-norm
    coefficients x (..., n) with ad(x) ~ mat, and the Frobenius residuals (...)."""
    mats = np.asarray(mats, dtype=float)
    lead = mats.shape[:-2]
    flat = mats.reshape(-1, g.dim * g.dim)
    coeff = flat @ g.ad_pinv.T
    resid = np.linalg.norm(flat - coeff @ g.ad_basis_matrix.T, axis=1)
    return coeff.reshape(lead + (g.dim,)), resid.reshape(lead)


def inner_log_residuals(g: LieAlgebra, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-projection distances of a stack (m, n, n): (residuals, logs, ok);
    a row without a real principal log has ok False and a zero log."""
    logs, ok = principal_logs(mats)
    return inner_projection(g, logs)[1], logs, ok


def _log_route(g: LieAlgebra, mats: np.ndarray, inner_tol: float) -> tuple:
    """Route 1 of inner_verdicts on a stack, as (inner, outer, residuals, logs):
    a real principal log within inner_tol of the inner span reads inner, a
    farther one that is a derivation outer (locally, Inn = exp(ad g))."""
    resid, logs, ok = inner_log_residuals(g, mats)
    inner = ok & (resid <= inner_tol)
    outer = ok & ~inner & (derivation_residuals(g, logs) <= ALG_TOL)
    return inner, outer, resid, logs


def inner_verdicts(g: LieAlgebra, mats: np.ndarray, inner_tol: float) -> tuple:
    """Membership in Inn(g) = <exp(ad x)> of a stack of automorphisms, as
    (inner, outer, residuals, logs, shift); neither flag is "undecided".  A
    row takes the first route that decides it: (1) its own log (_log_route);
    (2) ||a - I||_F <= inner_tol: inner, log 0; (3) det < 0: outer, as every
    exp(ad x) product has det > 0; (4) ad = 0: outer, as Inn(g) = {id};
    (5) Inn is a group, so one _log_route call on a exp(ad y_j) over the open
    rows and g.inner_shifts: the inner row of least residual makes a inner
    (its residual and log, shift j), else the first outer one makes a outer.
    shift is -1 where no shift decided; the residual is ||a - I||_F outside
    routes 1 and 5-inner."""
    mats = np.asarray(mats, dtype=float)
    inner, outer, resid, logs = _log_route(g, mats, inner_tol)
    shift = np.full(len(mats), -1)
    rest = np.flatnonzero(~(inner | outer))
    d = (mats[rest] - np.eye(g.dim)).reshape(len(rest), 1, g.dim**2)
    resid[rest] = np.sqrt(d @ np.swapaxes(d, 1, 2)).ravel()  # ||a - I||_F as a dot, like np.linalg.norm
    near = rest[resid[rest] <= inner_tol]
    inner[near], logs[near] = True, 0.0
    y, exp_y = g.inner_shifts
    rest = rest[~inner[rest]]
    outer[rest] = (np.linalg.det(mats[rest]) < 0.0) | (len(y) == 0)
    rest = rest[~outer[rest]]
    if rest.size:
        shifted = (mats[rest, None] @ exp_y).reshape(-1, g.dim, g.dim)
        hit, out, res, s_logs = (
            v.reshape(len(rest), len(y), *v.shape[1:]) for v in _log_route(g, shifted, inner_tol)
        )
        j = np.where(hit.any(axis=1), np.argmin(np.where(hit, res, np.inf), axis=1), np.argmax(out, axis=1))
        pick = (np.arange(len(rest)), j)
        inner[rest], outer[rest] = hit[pick], out[pick]
        done = hit[pick] | out[pick]
        shift[rest[done]], logs[rest[done]] = j[done], s_logs[pick][done]
        resid[rest] = np.where(hit[pick], res[pick], resid[rest])
    return inner, outer, resid, logs, shift


def is_inner(g: LieAlgebra, a: np.ndarray, inner_tol: float = INNER_TOL) -> InnerVerdict:
    """inner_verdicts on one automorphism a, gated at INNER_AUT_TOL.  The
    witness x projects the deciding log, with factors (x,); a shift-decided
    a has no witness and factors (x_j, -y_j)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (g.dim, g.dim):
        raise InputError(f"expected {(g.dim, g.dim)} matrix, got {a.shape}")
    aut_res = float(automorphism_residuals(g, a))
    if not (abs(np.linalg.det(a)) > ALG_TOL) or not (aut_res <= INNER_AUT_TOL):
        raise InputError(f"input is not an automorphism (residual {aut_res:.3e})")

    inner, outer, resid, logs, shift = inner_verdicts(g, a[None], inner_tol)
    if not inner[0]:
        return InnerVerdict("outer" if outer[0] else "undecided", float(resid[0]))
    x = inner_projection(g, logs[0])[0]
    if shift[0] < 0:
        return InnerVerdict("inner", float(resid[0]), witness=x, factors=(x,))
    return InnerVerdict("inner", float(resid[0]), factors=(x, -g.inner_shifts[0][shift[0]]))
