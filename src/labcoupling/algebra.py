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
from .tolerances import ALG_TOL, CHARACTER_AUT_TOL, INNER_AUT_TOL, INNER_TOL, character_gate

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

    @cached_property
    def center(self) -> np.ndarray:
        """Orthonormal basis (columns) of the center z(g) = ker(x -> ad(x));
        read-only, so no caller can corrupt the cached basis."""
        basis = _null_space(self.ad_basis_matrix)
        basis.flags.writeable = False
        return basis

    @cached_property
    def character_bases(self) -> tuple:
        """Orthonormal bases (columns) of [g,g]^perp, which stands for
        g/[g,g], and of z(g), the nonempty ones, each subspace once: Inn(g)
        acts on both as the identity, so a's compressions B^T a B are its
        outer characters.  ||B^T a B - I||_F does not depend on which
        orthonormal basis B spans a subspace, so a second basis of a kept
        subspace (abelian g, where both are g) adds nothing and is dropped."""
        n = self.dim
        kept = []
        for b in (_null_space(self.c.reshape(n * n, n)), self.center):
            if b.size and not any(k.shape == b.shape and np.linalg.norm(k @ (k.T @ b) - b) <= ALG_TOL for k in kept):
                kept.append(b)
        return tuple(kept)

    @cached_property
    def bracket_pairs(self) -> tuple:
        """The pair form of the bracket: index arrays i < j and the skew part
        0.5 (c[i, j] - c[j, i]) (P, dim) that the areas x_i y_j - x_j y_i
        multiply; on an antisymmetric c it is c[i, j] to the bit."""
        i, j = np.triu_indices(self.dim, 1)
        skew = 0.5 * (self.c[i, j] - self.c[j, i])
        for arr in (i, j, skew):
            arr.flags.writeable = False
        return i, j, skew

    @cached_property
    def bracket_rows(self) -> tuple:
        """The nonzero rows c[m, :, l] of the structure constants, as index
        arrays m and l and the rows (R, dim): the only terms of
        [x, y]_l = sum_m x_m sum_p c_mpl y_p that the bracket defect kernel
        (_defects) sums."""
        m, l = np.nonzero(np.abs(self.c).max(axis=1))
        rows = self.c[m, :, l]
        for arr in (m, l, rows):
            arr.flags.writeable = False
        return m, l, rows


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
    # result.
    i, j, skew = g.bracket_pairs
    area = x[..., i] * y[..., j] - x[..., j] * y[..., i]
    return area @ skew


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


def _defects(g: LieAlgebra, x: np.ndarray, linear: bool) -> np.ndarray:
    """Bracket defects of a nodes-last stack x (n, n, N), x[m, i] = x_mi at
    each of N nodes, as a contiguous (l, i, j, N) array: the automorphism
    defect x [e_i, e_j] - [x e_i, x e_j], or, when linear, its
    linearization at the identity, the Leibniz defect
    x [e_i, e_j] - [x e_i, e_j] - [e_i, x e_j].

    x [e_i, e_j]_l = sum_k c_ijk x_lk is one batched product of
    c.reshape(n^2, n) with the rows x[l], which writes every entry.  The
    bracket side sums only over g.bracket_rows, the nonzero rows c[m, :, l]:
    with w_j = sum_p c_mpl x_pj, [x e_i, x e_j]_l takes the outer product
    x_mi w_j from each.  The Leibniz defect subtracts every
    [x e_i, e_j]_l = sum_m x_mi c_mjl first and then [e_i, x e_j]_l = w_j
    at i = m, the order of the three-term sum.  A bracket term never
    multiplies a zero constant, so a non-finite x_mi need not reach the
    result: callers that must see it check x themselves."""
    n, count = g.dim, x.shape[-1]
    out = np.empty((n, n, n, count))
    np.matmul(g.c.reshape(n * n, n), x, out=out.reshape(n, n * n, count))
    flat = x.reshape(n, n * count)
    buf = np.empty((n, n, count))
    m_idx, l_idx, rows = g.bracket_rows
    if linear:
        for m, l, row in zip(m_idx, l_idx, rows):
            out[l] -= np.multiply(x[m, :, None], row[:, None], out=buf)
    for m, l, row in zip(m_idx, l_idx, rows):
        w = (row @ flat).reshape(n, count)
        if linear:
            out[l, m] -= w
        else:
            out[l] -= np.multiply(x[m, :, None], w, out=buf)
    return out


def _pair_residuals(g: LieAlgebra, a: np.ndarray, linear: bool) -> np.ndarray:
    """Per matrix of a (..., n, n), the max over basis pairs (i, j) of the
    2-norm over l of its _defects; the stack goes to the kernel nodes last.
    A matrix with a non-finite entry reads NaN, whichever constants its
    entries meet, and no RuntimeWarning escapes."""
    a = np.asarray(a, dtype=float)
    n = g.dim
    nodes = np.ascontiguousarray(np.moveaxis(a.reshape(-1, n, n), 0, -1))
    with np.errstate(invalid="ignore", over="ignore"):
        sq = _defects(g, nodes, linear)
        np.square(sq, out=sq)
        total = sq[0]  # sum over l in place, in the order of np.linalg.norm's
        for part in sq[1:]:
            total += part
        res = np.sqrt(total.reshape(n * n, -1).max(axis=0))
    res[~np.isfinite(nodes).all(axis=(0, 1))] = np.nan
    return res.reshape(a.shape[:-2])[()]


def derivation_residuals(g: LieAlgebra, d: np.ndarray) -> np.ndarray:
    """Max-over-basis-pairs Leibniz residual of d; broadcasts over leading axes.

    Residual per pair (i, j): || d [e_i, e_j] - [d e_i, e_j] - [e_i, d e_j] ||_2.
    """
    return _pair_residuals(g, d, linear=True)


def automorphism_residuals(g: LieAlgebra, a: np.ndarray) -> np.ndarray:
    """Max-over-basis-pairs residual || a [e_i, e_j] - [a e_i, a e_j] ||_2."""
    return _pair_residuals(g, a, linear=False)


def derivations_basis(g: LieAlgebra) -> list[np.ndarray]:
    """Orthonormal (as vectors) basis of Der(g), solved as one linear system.

    The inner derivations span{ad(e_i)} are always a subspace of the result.
    """
    n = g.dim
    units = np.eye(n * n).reshape(n, n, n * n)  # column u is the u-th unit matrix
    defects = _defects(g, units, linear=True)
    constraint = defects.transpose(1, 2, 0, 3).reshape(n**3, n * n)  # rows: (i,j,l)
    return [v.reshape(n, n) for v in _null_space(constraint).T]


# Below this ||a - I||_F every eigenvalue has |lambda - 1| <= ||a - I||_2 < 1 - 1e-6,
# so Re lambda > 1e-6 > ALG_TOL: the negative-axis screen cannot flag the row.
_SCREEN_FREE = 1.0 - 1e-6


def _mercator_radii() -> np.ndarray:
    """R_J for J = 1..30: the largest double r with r^J / ((J + 1)(1 - r))
    <= 2^-53, by bisection to adjacent doubles.  A row of norm r <= R_J
    leaves a Mercator tail past degree J of at most
    r^(J+1) / ((J + 1)(1 - r)) <= 2^-53 r (Higham, Functions of Matrices,
    2008, sec. 11.5)."""
    j = np.arange(1, 31)
    lo, hi = np.zeros(30), np.full(30, 0.5)  # every J fails at 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            return lo
        good = mid**j / ((j + 1) * (1.0 - mid)) <= 2.0**-53
        lo, hi = np.where(good, mid, lo), np.where(good, hi, mid)


_MERCATOR_RADII = _mercator_radii()
_MERCATOR_RADII.flags.writeable = False


def _mercator(e: np.ndarray) -> np.ndarray:
    """The Mercator series sum_j (-1)^(j+1) e^j / j of log(I + e) on a stack
    (N, n, n) with ||e||_F < 0.25, each row to the least degree J whose
    _MERCATOR_RADII[J - 1] bounds its norm (at most 30; a NaN row takes 30).
    The rows go in descending degree, so the rows that need term j are a
    prefix and each product runs on it; a row's degree and every operation
    on it depend on that row alone, so its bits do not depend on its stack."""
    cap = len(_MERCATOR_RADII)
    deg = np.minimum(np.searchsorted(_MERCATOR_RADII, np.linalg.norm(e, axis=(-2, -1))) + 1, cap)
    order = np.argsort(-deg, kind="stable")
    rows = np.bincount(deg, minlength=cap + 1)[::-1].cumsum()[::-1]  # rows[j]: count of degree >= j
    e = e[order]
    power = e
    acc = e.copy()
    for j in range(2, int(deg.max(initial=1)) + 1):
        power = np.matmul(power[: rows[j]], e[: rows[j]])
        acc[: rows[j]] += ((-1) ** (j + 1) / j) * power
    out = np.empty_like(acc)
    out[order] = acc
    return out


def principal_logs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real principal logarithms of a stack (m, n, n) as (logs, ok), by inverse
    scaling and squaring: k square roots bring a row within ||x - I||_F < 0.25,
    and 2^k times its Mercator series (_mercator, the tail past each row's
    degree at most 2^-53 ||x - I||_F) is its log.  A row that starts there
    (k = 0) needs no guard; any other gets ok False and a zero log if it is
    not finite, if an eigenvalue lies on the closed negative real axis within
    ALG_TOL (only a row with ||a - I||_F >= _SCREEN_FREE can have one, so only
    those are screened), or if exp(log), formed as exp(series) squared k
    times, misses it by more than 100*ALG_TOL*(1 + ||a||_F)."""
    mats = np.asarray(mats, dtype=float)
    eye = np.eye(mats.shape[-1])
    with np.errstate(over="ignore"):  # an overflowing norm is inf: the row is far
        dist = np.linalg.norm(mats - eye, axis=(-2, -1))
    ok = dist < 0.25  # far rows are judged below
    far = np.flatnonzero(~ok & np.isfinite(mats).all(axis=(-2, -1)))  # non-finite: no log
    on_axis = dist[far] >= _SCREEN_FREE  # only these rows can have an eigenvalue there
    if on_axis.any():
        eig = np.linalg.eigvals(mats[far[on_axis]])
        on_axis[on_axis] = np.any((eig.real <= ALG_TOL) & (np.abs(eig.imag) <= ALG_TOL), axis=-1)
        far = far[~on_axis]
    roots = np.where(ok[:, None, None], mats, eye)  # rows without a real log: I
    roots[far] = mats[far]
    k = np.zeros(len(mats))
    out = far
    while out.size:  # a root that did not converge is NaN and drops out
        roots[out] = _square_roots(roots[out])
        k[out] += 1
        out = out[np.linalg.norm(roots[out] - eye, axis=(-2, -1)) >= 0.25]
    acc = _mercator(roots - eye)
    logs = 2.0 ** k[:, None, None] * acc
    if far.size:
        with np.errstate(all="ignore"):  # an overflowing or NaN row fails the check
            miss = np.linalg.norm(_exp_by_squaring(acc[far], k[far]) - mats[far], axis=(-2, -1))
            ok[far] = miss <= 100 * ALG_TOL * (1.0 + np.linalg.norm(mats[far], axis=(-2, -1)))
    logs[~ok] = 0.0
    return logs, ok


def _exp_by_squaring(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(2^k x) of a stack as exp(x) squared k times per row.  Every x here
    is a Mercator sum of some degree J on ||e||_F = r < 0.25, whose norm is
    at most sum_{j <= J} r^j / j <= -log(1 - r) < -log(0.75) < 0.29 whatever
    J, or an inner shift ad(y_j) with ||ad y_j||_F = 0.25 (k = 0); there the
    degree-12 Taylor polynomial (Horner form) leaves a remainder below 2e-17."""
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


# adj_k = m_p m_q - m_r m_s over the row-major entries k = (i, j) of a 3x3 adjugate:
# adj_ij is the cofactor C_ji, whose sign the cyclic indices (mod 3) build in
_ADJ3 = tuple(3 * (np.arange(a, 9 + a) % 3) + (np.arange(9) // 3 + b) % 3 for a, b in ((1, 1), (2, 2), (1, 2), (2, 1)))


def _cofactors(m: np.ndarray, k: np.ndarray) -> tuple:
    """A stack (..., n, n), n <= 3, nodes-last as f (n^2, N), and entries k of its adjugates."""
    n = m.shape[-1]
    f = np.ascontiguousarray(m.reshape(-1, n * n).T)
    if n == 3:
        p, q, r, s = (t[k] for t in _ADJ3)
        return f, f[p] * f[q] - f[r] * f[s]
    if n == 2:  # adj [[a, b], [c, d]] = [[d, -b], [-c, a]]
        return f, f[np.array([3, 1, 2, 0])[k]] * np.where(k % 3, -1.0, 1.0)[:, None]
    return f, np.ones((len(k), f.shape[1]))


def _dets(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack (..., n, n): for n <= 3 by cofactor expansion
    along row 0, nodes-last, so a row's bits do not depend on its stack;
    larger n by np.linalg.det."""
    n = m.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row has a non-finite det
        if n > 3:
            return np.linalg.det(m)
        f, col = _cofactors(m, np.arange(0, n * n, n))
        return (f[:n] * col).sum(axis=0).reshape(m.shape[:-2])


def _inverses(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack (..., n, n), for n <= 3 the adjugate over the
    determinant of _dets, nodes-last, else by np.linalg.inv; a row whose det
    is 0 or not finite comes back NaN, and no RuntimeWarning escapes."""
    n = m.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if n > 3:
            det = _dets(m)
            return np.linalg.inv(np.where((np.isfinite(det) & (det != 0.0))[..., None, None], m, np.nan))
        f, adj = _cofactors(m, np.arange(n * n))
        det = (f[:n] * adj[::n]).sum(axis=0)
        adj /= np.where(np.isfinite(det) & (det != 0.0), det, np.nan)
    return np.ascontiguousarray(adj.T).reshape(m.shape)


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
    coefficients x (..., n) with ad(x) ~ mat, and the Frobenius residuals (...);
    a row per product, so its bits do not depend on its stack (a GEMM's would)."""
    mats = np.asarray(mats, dtype=float)
    lead = mats.shape[:-2]
    flat = mats.reshape(-1, 1, g.dim * g.dim)
    coeff = flat @ g.ad_pinv.T
    resid = np.linalg.norm((flat - coeff @ g.ad_basis_matrix.T)[:, 0], axis=1)
    return coeff.reshape(lead + (g.dim,)), resid.reshape(lead)


def inner_log_residuals(g: LieAlgebra, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-projection distances of a stack (m, n, n): (residuals, logs, ok);
    a row without a real principal log has ok False and a zero log."""
    logs, ok = principal_logs(mats)
    return inner_projection(g, logs)[1], logs, ok


def _log_route(g: LieAlgebra, mats: np.ndarray, inner_tol: float) -> tuple:
    """Route 2 of inner_verdicts on a stack, as (inner, outer, residuals, logs):
    a real principal log within inner_tol of the inner span reads inner, a
    farther one that is a derivation outer (locally, Inn = exp(ad g)).  Only
    those farther rows have their Leibniz residual taken."""
    resid, logs, ok = inner_log_residuals(g, mats)
    inner = ok & (resid <= inner_tol)
    outer = ok & ~inner
    if outer.any():
        outer[outer] = derivation_residuals(g, logs[outer]) <= ALG_TOL
    return inner, outer, resid, logs


def _character_route(g: LieAlgebra, mats: np.ndarray, inner_tol: float) -> tuple:
    """Route 1 of inner_verdicts on a stack, as (outer, distances): the
    character distance max_B ||B^T a B - I||_F over g.character_bases, and
    outer where it passes character_gate(inner_tol) on a row that is an
    automorphism within CHARACTER_AUT_TOL.  The characters of exp(L) are the
    exponentials of L's compressions, which vanish on span{ad} and do not
    raise the Frobenius norm, so no row of log residual <= inner_tol passes."""
    dist = np.zeros(len(mats))
    with np.errstate(all="ignore"):  # a non-finite distance or defect fails a gate
        for b in g.character_bases:
            d = (b.T @ mats @ b - np.eye(b.shape[1])).reshape(len(mats), 1, -1)
            dist = np.maximum(dist, np.sqrt(d @ np.swapaxes(d, 1, 2)).ravel())
        outer = dist > character_gate(inner_tol)
        if outer.any():
            outer[outer] = automorphism_residuals(g, mats[outer]) <= CHARACTER_AUT_TOL
    return outer, dist


def inner_verdicts(g: LieAlgebra, mats: np.ndarray, inner_tol: float) -> tuple:
    """Membership in Inn(g) = <exp(ad x)> of a stack of automorphisms, as
    (inner, outer, residuals, logs, shift); neither flag is "undecided".  A
    row takes the first route that decides it: (1) its outer characters,
    a on g/[g,g] and on z(g), on which Inn acts trivially
    (_character_route): outer, with residual its character distance;
    (2) its own log (_log_route); (3) ||a - I||_F <= inner_tol: inner, log 0;
    (4) det < 0: outer, as every exp(ad x) product has det > 0; (5) Inn is a
    group, so one _log_route call on a exp(ad y_j) over the open rows and
    g.inner_shifts: the inner row of least residual makes a inner (its
    residual and log, shift j), else the first outer one makes a outer.
    shift is -1 where no shift decided; the residual is ||a - I||_F outside
    routes 1, 2 and 5-inner, and the log 0 outside routes 2 and 5."""
    mats = np.asarray(mats, dtype=float)
    outer, resid = _character_route(g, mats, inner_tol)
    inner, logs, shift = np.zeros(len(mats), bool), np.zeros(mats.shape), np.full(len(mats), -1)
    rest = np.flatnonzero(~outer)
    inner[rest], outer[rest], resid[rest], logs[rest] = _log_route(g, mats[rest], inner_tol)
    rest = rest[~(inner[rest] | outer[rest])]
    d = (mats[rest] - np.eye(g.dim)).reshape(len(rest), 1, g.dim**2)
    resid[rest] = np.sqrt(d @ np.swapaxes(d, 1, 2)).ravel()  # ||a - I||_F as a dot, like np.linalg.norm
    rest = rest[np.isfinite(mats[rest]).all(axis=(-2, -1))]  # no later route decides a non-finite row
    near = rest[resid[rest] <= inner_tol]
    inner[near], logs[near] = True, 0.0
    y, exp_y = g.inner_shifts
    rest = rest[~inner[rest]]
    outer[rest] = _dets(mats[rest]) < 0.0
    rest = rest[~outer[rest]]
    if rest.size and len(y):  # an abelian g has no shift; characters decide its finite rows
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
    a has no witness and factors (x_j, -y_j).  An a that its outer
    characters decide has as residual its character distance."""
    a = np.asarray(a, dtype=float)
    if a.shape != (g.dim, g.dim):
        raise InputError(f"expected {(g.dim, g.dim)} matrix, got {a.shape}")
    aut_res = float(automorphism_residuals(g, a))
    if not (abs(_dets(a)) > ALG_TOL) or not (aut_res <= INNER_AUT_TOL):
        raise InputError(f"input is not an automorphism (residual {aut_res:.3e})")

    inner, outer, resid, logs, shift = inner_verdicts(g, a[None], inner_tol)
    if not inner[0]:
        return InnerVerdict("outer" if outer[0] else "undecided", float(resid[0]))
    x = inner_projection(g, logs[0])[0]
    if shift[0] < 0:
        return InnerVerdict("inner", float(resid[0]), witness=x, factors=(x,))
    return InnerVerdict("inner", float(resid[0]), factors=(x, -g.inner_shifts[0][shift[0]]))
