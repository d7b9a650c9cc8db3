"""Canonical fixture algebras, manifolds, bundles, and connections.

Everything here is generated from closed-form data so that fixtures can be
rebuilt at refined grid resolutions for convergence studies.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

from .algebra import LieAlgebra, ad, unit_vector
from .bundles import Trivialization
from .errors import InputError
from .manifolds import ChartedManifold, build_manifold


def _antisymmetrized(dim: int, entries: dict[tuple[int, int, int], float]) -> np.ndarray:
    c = np.zeros((dim, dim, dim))
    for (i, j, k), v in entries.items():
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def algebra(name: str) -> LieAlgebra:
    """Named fixture algebras: abelian2, so3, heis3, aff1."""
    if name == "abelian2":
        return LieAlgebra("abelian2", 2, np.zeros((2, 2, 2)))
    if name == "so3":
        # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
        return LieAlgebra("so3", 3, _antisymmetrized(3, {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}))
    if name == "heis3":
        # [e1,e2]=e3
        return LieAlgebra("heis3", 3, _antisymmetrized(3, {(0, 1, 2): 1.0}))
    if name == "aff1":
        # [e1,e2]=e2
        return LieAlgebra("aff1", 2, _antisymmetrized(2, {(0, 1, 1): 1.0}))
    raise InputError(f"unknown algebra fixture {name!r}")


ALGEBRA_NAMES = ("abelian2", "so3", "heis3", "aff1")


def _res(base: int, refine: int) -> int:
    return (base - 1) * refine + 1


def _interval_chart(lo: float, hi: float, res: int) -> dict:
    return {"box": [[lo, hi]], "resolution": [res], "center": [(res - 1) // 2]}


def _circle_cover(n_charts: int, res: int) -> dict:
    """Charts of equal width covering the unit-circumference circle t ~ t+1.

    Consecutive charts overlap; the wrap-around overlap is the translation
    t -> t - 1.  Widths are chosen so overlap edges land exactly on grid
    nodes (the per-chart spacing divides the overlap width).
    """
    if n_charts == 2:
        width, starts = 2.0 / 3.0, [0.0, 0.5]
    elif n_charts == 4:
        width, starts = 1.0 / 3.0, [0.0, 0.25, 0.5, 0.75]
    else:
        raise InputError("circle covers are built for 2 or 4 charts")
    charts = [_interval_chart(s, s + width, res) for s in starts]
    overlaps = []
    for k, s in enumerate(starts):
        nxt = (k + 1) % n_charts
        lo = starts[nxt] + (1.0 if nxt == 0 else 0.0)
        hi = s + width
        shift = 0.0 if nxt else -1.0  # into the next chart's coordinates
        overlaps.append(
            {"alpha": k, "beta": nxt, "region": [[lo, hi]], "map": {"matrix": [[1.0]], "offset": [shift]}}
        )
        overlaps.append(
            {
                "alpha": nxt,
                "beta": k,
                "region": [[lo + shift, hi + shift]],
                "map": {"matrix": [[1.0]], "offset": [-shift]},
            }
        )
    return {"dim": 1, "charts": charts, "overlaps": overlaps}


# global coordinate of each interval3 chart's left end
INTERVAL3_OFFSETS = (0.0, 0.5, 1.0)


def _interval3_cover(res: int) -> dict:
    """[0, 3] covered by three length-2 charts at INTERVAL3_OFFSETS, so all
    three meet on [1, 2] (triple overlaps); the overlap maps are the
    translations between chart coordinates, and every overlap edge lands on a
    grid node."""
    overlaps = []
    for a, b in itertools.combinations(range(3), 2):
        lo, hi = INTERVAL3_OFFSETS[b], INTERVAL3_OFFSETS[a] + 2.0
        for alpha, beta in ((a, b), (b, a)):
            off = INTERVAL3_OFFSETS[alpha]
            overlaps.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "region": [[lo - off, hi - off]],
                    "map": {"matrix": [[1.0]], "offset": [off - INTERVAL3_OFFSETS[beta]]},
                }
            )
    return {"dim": 1, "charts": [_interval_chart(0.0, 2.0, res)] * 3, "overlaps": overlaps}


def manifold(name: str, refine: int = 1) -> ChartedManifold:
    """Named fixture manifolds: interval1, interval3, circle2, circle4, disk2d, cyl2."""
    res = _res(33, refine)
    if name == "interval1":
        return build_manifold({"dim": 1, "charts": [_interval_chart(0.0, 1.0, res)], "overlaps": []}, name)
    if name == "interval3":
        return build_manifold(_interval3_cover(res), name)
    if name == "circle2":
        return build_manifold(_circle_cover(2, res), name)
    if name == "circle4":
        return build_manifold(_circle_cover(4, res), name)
    if name == "disk2d":
        chart = {"box": [[-1.0, 1.0], [-1.0, 1.0]], "resolution": [res, res], "center": [(res - 1) // 2] * 2}
        return build_manifold({"dim": 2, "charts": [chart], "overlaps": []}, name)
    if name == "cyl2":
        flat = _circle_cover(2, res)
        charts = []
        for c in flat["charts"]:
            charts.append(
                {
                    "box": [c["box"][0], [0.0, 1.0]],
                    "resolution": [res, res],
                    "center": [c["center"][0], (res - 1) // 2],
                }
            )
        overlaps = []
        for o in flat["overlaps"]:
            overlaps.append(
                {
                    "alpha": o["alpha"],
                    "beta": o["beta"],
                    "region": [o["region"][0], [0.0, 1.0]],
                    "map": {
                        "matrix": [[1.0, 0.0], [0.0, 1.0]],
                        "offset": [o["map"]["offset"][0], 0.0],
                    },
                }
            )
        return build_manifold({"dim": 2, "charts": charts, "overlaps": overlaps}, name)
    raise InputError(f"unknown manifold fixture {name!r}")


MANIFOLD_NAMES = ("interval1", "interval3", "circle2", "circle4", "disk2d", "cyl2")


# --- bundle fixtures ----------------------------------------------------------

TWIST_ANGLE = 0.8
# heis3 derivation outside span{ad}: it scales e1, e2 and e3 = [e1, e2]
# consistently (.3 - .2 = .1), and ad(x) is strictly off-diagonal.
DRIFT = np.diag([0.3, -0.2, 0.1])
DRIFT_RATE = 1.5


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2 junctions."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u**3 * (6.0 * u**2 - 15.0 * u + 10.0)


def _rotation_generator() -> np.ndarray:
    return ad(algebra("so3"), unit_vector(3, 2))


def bundle(name: str, refine: int = 1) -> Trivialization:
    """Named fixture bundles (local-trivialization structures)."""
    if name in ("circle2_so3_twisted", "cyl2_so3_twisted"):
        # inner frames with linear exponent; transitions are constant inner
        # automorphisms on each overlap component
        g = algebra("so3")
        m = manifold(name.split("_")[0], refine)
        k = _rotation_generator()
        frames = []
        for chart in m.charts:
            t = chart.grid_points()[..., 0]
            center = chart.node_point(chart.center)[0]
            frames.append(scipy.linalg.expm(np.multiply.outer(-(t - center) * TWIST_ANGLE, k)))
        return Trivialization(g, m, tuple(frames))
    if name == "interval3_so3_twisted":
        # frames exp(-s * angle * ad(e3)) of the global coordinate s: every
        # transition is the identity, and the cocycle is checked on each of
        # the cover's six overlap triples
        g = algebra("so3")
        m = manifold("interval3", refine)
        k = _rotation_generator()
        frames = [
            scipy.linalg.expm(np.multiply.outer(-(chart.grid_points()[..., 0] + off) * TWIST_ANGLE, k))
            for chart, off in zip(m.charts, INTERVAL3_OFFSETS)
        ]
        return Trivialization(g, m, tuple(frames))
    if name == "circle2_abelian2_twisted":
        # outer-twisted structure: the wrap transition is the constant
        # diag(1/2, 1); still delta-continuous (constant per component)
        g = algebra("abelian2")
        m = manifold("circle2", refine)
        t1 = m.charts[1].grid_points()[..., 0]
        s = smoothstep((t1 - 2.0 / 3.0) * 3.0)
        phi1 = np.zeros(t1.shape + (2, 2))
        phi1[..., 0, 0] = 2.0 ** (-s)
        phi1[..., 1, 1] = 1.0
        eye = np.broadcast_to(np.eye(2), m.charts[0].resolution + (2, 2)).copy()
        return Trivialization(g, m, (eye, phi1))
    if name == "circle2_abelian2_varying":
        # outer class drifts smoothly across the overlaps: delta check fails
        g = algebra("abelian2")
        m = manifold("circle2", refine)
        frames = []
        for chart in m.charts:
            t = chart.grid_points()[..., 0]
            phi = np.zeros(t.shape + (2, 2))
            phi[..., 0, 0] = 1.0 + 0.3 * np.sin(2.0 * np.pi * t)
            phi[..., 1, 1] = 1.0
            frames.append(phi)
        frames[0] = np.broadcast_to(np.eye(2), m.charts[0].resolution + (2, 2)).copy()
        return Trivialization(g, m, tuple(frames))
    if name == "cyl2_heis3_drift":
        # outer class drifting along the axis: chart 0 carries identity
        # frames, chart 1 exp(s D) with s = DRIFT_RATE * y and D an outer
        # derivation, so an overlap ratio is exp(+-(s - s0) D) and its log's
        # distance from span{ad} is |s - s0| ||D||_F: every ratio off its
        # region's first row (y = 0) is outer, 1152 of 1188 at refine 1.
        # The ratios at y >= 0.4375 (0 -> 1 overlaps) or y >= 0.46875
        # (1 -> 0), 666 at refine 1, lie outside the 0.25 series radius and
        # take the square-root route of principal_logs and its guard.
        g = algebra("heis3")
        m = manifold("cyl2", refine)
        y = m.charts[1].grid_points()[..., 1]
        phi1 = np.zeros(y.shape + (3, 3))
        for i, d in enumerate(np.diag(DRIFT)):
            phi1[..., i, i] = np.exp(DRIFT_RATE * y * d)
        eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
        return Trivialization(g, m, (eye, phi1))
    if name == "disk2d_so3_bilinear":
        g = algebra("so3")
        m = manifold("disk2d", refine)
        k = _rotation_generator()
        pts = m.charts[0].grid_points()
        frames = scipy.linalg.expm(np.multiply.outer(0.25 * pts[..., 0] * pts[..., 1], k))
        return Trivialization(g, m, (frames,))
    raise InputError(f"unknown bundle fixture {name!r}")


BUNDLE_NAMES = (
    "circle2_so3_twisted",
    "cyl2_so3_twisted",
    "circle2_abelian2_twisted",
    "circle2_abelian2_varying",
    "disk2d_so3_bilinear",
    "cyl2_heis3_drift",
    "interval3_so3_twisted",
)


# --- connection fixtures --------------------------------------------------------

DISK_SLOPE = 0.5


def _disk_linear_omega(g: LieAlgebra, d: np.ndarray, refine: int) -> "ConnectionForm":
    """omega_y = x * d over the identity frames on disk2d, so R_xy = d."""
    from .bundles import reference_trivialization
    from .connections import ConnectionForm

    m = manifold("disk2d", refine)
    pts = m.charts[0].grid_points()
    w = np.zeros(m.charts[0].resolution + (2, g.dim, g.dim))
    w[..., 1, :, :] = pts[..., 0, None, None] * d
    return ConnectionForm(reference_trivialization(g, m), (w,))


def connection(name: str, refine: int = 1) -> "ConnectionForm":
    """Named fixture connections, all over identity-frame bundles."""
    from .bundles import reference_trivialization
    from .connections import ConnectionForm, zero_connection

    if name == "interval1_so3_flat":
        return zero_connection(reference_trivialization(algebra("so3"), manifold("interval1", refine)))
    if name == "circle2_so3_twisted":
        # constant omega = angle * ad(e3) dt: flat with holonomy exp(-angle ad(e3))
        g = algebra("so3")
        m = manifold("circle2", refine)
        k = _rotation_generator()
        omega = tuple(
            np.broadcast_to(TWIST_ANGLE * k, chart.resolution + (1, 3, 3)).copy()
            for chart in m.charts
        )
        return ConnectionForm(reference_trivialization(g, m), omega)
    if name == "cyl2_so3_twisted":
        g = algebra("so3")
        m = manifold("cyl2", refine)
        k = _rotation_generator()
        omega = []
        for chart in m.charts:
            w = np.zeros(chart.resolution + (2, 3, 3))
            w[..., 0, :, :] = TWIST_ANGLE * k
            omega.append(w)
        return ConnectionForm(reference_trivialization(g, m), tuple(omega))
    if name == "disk2d_so3_nonflat":
        # omega_y = slope * x * ad(e3): R_xy = slope * ad(e3) by construction
        return _disk_linear_omega(algebra("so3"), DISK_SLOPE * _rotation_generator(), refine)
    if name == "disk2d_abelian2_nonflat":
        # nonzero curvature with ad = 0: accordance must fail with residual ||R||
        return _disk_linear_omega(algebra("abelian2"), np.diag([1.0, 0.0]), refine)
    if name == "disk2d_heis3_outer":
        # omega_y = slope * x * DRIFT: R_xy = slope * DRIFT is an outer
        # derivation, orthogonal to span{ad} (ad(x) is strictly off-diagonal),
        # so accordance fails with residual slope * ||DRIFT||_F
        return _disk_linear_omega(algebra("heis3"), DISK_SLOPE * DRIFT, refine)
    if name == "circle2_abelian2_flat":
        # constant non-inner omega: transports twist by a non-inner automorphism
        g = algebra("abelian2")
        m = manifold("circle2", refine)
        d = np.diag([0.25, -0.4])
        omega = tuple(
            np.broadcast_to(d, chart.resolution + (1, 2, 2)).copy() for chart in m.charts
        )
        return ConnectionForm(reference_trivialization(g, m), omega)
    raise InputError(f"unknown connection fixture {name!r}")


CONNECTION_NAMES = (
    "interval1_so3_flat",
    "circle2_so3_twisted",
    "cyl2_so3_twisted",
    "disk2d_so3_nonflat",
    "disk2d_abelian2_nonflat",
    "circle2_abelian2_flat",
    "disk2d_heis3_outer",
)

# connections that represent couplings (accordance passes)
COUPLING_NAMES = (
    "interval1_so3_flat",
    "circle2_so3_twisted",
    "cyl2_so3_twisted",
    "disk2d_so3_nonflat",
    "circle2_abelian2_flat",
)
