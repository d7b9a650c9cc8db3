"""Canonical fixture algebras, manifolds, bundles, and connections.

Everything here is generated from closed-form data so that fixtures can be
rebuilt at refined grid resolutions for convergence studies.  Each family
has one builder: algebras from structure-constant tables, manifolds from
cover specs, bundles from so3 exponent grids or chart-1 diagonals, and
connections from one form table.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import LieAlgebra, ad, unit_vector
from .bundles import Trivialization, reference_trivialization
from .connections import ConnectionForm
from .errors import InputError
from .manifolds import ChartedManifold, build_manifold


def _antisymmetrized(dim: int, entries: dict[tuple[int, int, int], float]) -> np.ndarray:
    c = np.zeros((dim, dim, dim))
    for (i, j, k), v in entries.items():
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


# name -> (dim, {(i, j, k): c_ij^k}) with i < j listed once
_ALGEBRAS = {
    "abelian2": (2, {}),
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    "so3": (3, {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}),
    # [e1,e2]=e3
    "heis3": (3, {(0, 1, 2): 1.0}),
    # [e1,e2]=e2
    "aff1": (2, {(0, 1, 1): 1.0}),
}
ALGEBRA_NAMES = tuple(_ALGEBRAS)


def algebra(name: str) -> LieAlgebra:
    """Named fixture algebras: abelian2, so3, heis3, aff1."""
    if name not in _ALGEBRAS:
        raise InputError(f"unknown algebra fixture {name!r}")
    dim, entries = _ALGEBRAS[name]
    return LieAlgebra(name, dim, _antisymmetrized(dim, entries))


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


def _times_unit_interval(cover: dict, res: int) -> dict:
    """A 1-D cover times [0, 1] (res nodes, centered): every chart, overlap
    region and overlap map gains the second axis, which maps to itself."""
    charts = [
        {
            "box": c["box"] + [[0.0, 1.0]],
            "resolution": c["resolution"] + [res],
            "center": c["center"] + [(res - 1) // 2],
        }
        for c in cover["charts"]
    ]
    overlaps = [
        {
            **o,
            "region": o["region"] + [[0.0, 1.0]],
            "map": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "offset": o["map"]["offset"] + [0.0]},
        }
        for o in cover["overlaps"]
    ]
    return {"dim": 2, "charts": charts, "overlaps": overlaps}


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


# name -> cover spec at res nodes per axis
_MANIFOLDS = {
    "interval1": lambda res: {"dim": 1, "charts": [_interval_chart(0.0, 1.0, res)], "overlaps": []},
    "interval3": _interval3_cover,
    "circle2": lambda res: _circle_cover(2, res),
    "circle4": lambda res: _circle_cover(4, res),
    "disk2d": lambda res: {
        "dim": 2,
        "charts": [
            {"box": [[-1.0, 1.0], [-1.0, 1.0]], "resolution": [res, res], "center": [(res - 1) // 2] * 2}
        ],
        "overlaps": [],
    },
    "cyl2": lambda res: _times_unit_interval(_circle_cover(2, res), res),
}
MANIFOLD_NAMES = tuple(_MANIFOLDS)


def manifold(name: str, refine: int = 1) -> ChartedManifold:
    """Named fixture manifolds: interval1, interval3, circle2, circle4, disk2d, cyl2."""
    if name not in _MANIFOLDS:
        raise InputError(f"unknown manifold fixture {name!r}")
    return build_manifold(_MANIFOLDS[name](_res(33, refine)), name)


# --- bundle fixtures ----------------------------------------------------------

TWIST_ANGLE = 0.8
# heis3 derivation outside span{ad}: it scales e1, e2 and e3 = [e1, e2]
# consistently (.3 - .2 = .1), and ad(x) is strictly off-diagonal.
DRIFT = np.diag([0.3, -0.2, 0.1])
DRIFT_RATE = 1.5
# ad(e3) of so3, the generator of every so3 fixture's frames and forms
_ROTATION = ad(algebra("so3"), unit_vector(3, 2))


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 for u <= 0, 1 for u >= 1, C^2 junctions."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u**3 * (6.0 * u**2 - 15.0 * u + 10.0)


def _so3_rotations(m: ChartedManifold, exponents: list, scale: float) -> Trivialization:
    """Frames expm(s * scale * ad(e3)), one exponent grid s per chart."""
    import scipy.linalg  # deferred: the CLI imports this module, and only so3 bundles need expm

    frames = (scipy.linalg.expm(np.multiply.outer(s * scale, _ROTATION)) for s in exponents)
    return Trivialization(algebra("so3"), m, tuple(frames))


def _identity_then_diagonal(g: LieAlgebra, m: ChartedManifold, diagonal: list) -> Trivialization:
    """Identity frames on chart 0 and diagonal frames on chart 1, whose i-th
    diagonal entry is diagonal[i] (a chart-1 grid or a constant)."""
    n = g.dim
    phi1 = np.zeros(m.charts[1].resolution + (n, n))
    for i, d in enumerate(diagonal):
        phi1[..., i, i] = d
    eye = np.broadcast_to(np.eye(n), m.charts[0].resolution + (n, n)).copy()
    return Trivialization(g, m, (eye, phi1))


def bundle(name: str, refine: int = 1) -> Trivialization:
    """Named fixture bundles (local-trivialization structures)."""
    if name not in BUNDLE_NAMES:
        raise InputError(f"unknown bundle fixture {name!r}")
    base, alg = name.split("_")[:2]
    m = manifold(base, refine)
    pts = [chart.grid_points() for chart in m.charts]
    if name in ("circle2_so3_twisted", "cyl2_so3_twisted"):
        # inner frames with linear exponent; transitions are constant inner
        # automorphisms on each overlap component
        s = [-(p[..., 0] - chart.node_point(chart.center)[0]) for p, chart in zip(pts, m.charts)]
        return _so3_rotations(m, s, TWIST_ANGLE)
    if name == "interval3_so3_twisted":
        # frames exp(-s * angle * ad(e3)) of the global coordinate s: every
        # transition is the identity, and the cocycle is checked on each of
        # the cover's six overlap triples
        s = [-(p[..., 0] + off) for p, off in zip(pts, INTERVAL3_OFFSETS)]
        return _so3_rotations(m, s, TWIST_ANGLE)
    if name == "disk2d_so3_bilinear":
        return _so3_rotations(m, [pts[0][..., 0] * pts[0][..., 1]], 0.25)
    g = algebra(alg)
    x1 = pts[1][..., 0]
    if name == "circle2_abelian2_twisted":
        # outer-twisted structure: the wrap transition is the constant
        # diag(1/2, 1); still delta-continuous (constant per component)
        return _identity_then_diagonal(g, m, [2.0 ** (-smoothstep((x1 - 2.0 / 3.0) * 3.0)), 1.0])
    if name == "circle2_abelian2_varying":
        # outer class drifts smoothly across the overlaps: delta check fails
        return _identity_then_diagonal(g, m, [1.0 + 0.3 * np.sin(2.0 * np.pi * x1), 1.0])
    # cyl2_heis3_drift: outer class drifting along the axis: chart 0 carries
    # identity frames, chart 1 exp(s D) with s = DRIFT_RATE * y and D an outer
    # derivation, so an overlap ratio is exp(+-(s - s0) D) and its log's
    # distance from span{ad} is |s - s0| ||D||_F: every ratio off its
    # region's first row (y = 0) is outer, 1152 of 1188 at refine 1.
    # The ratios at y >= 0.4375 (0 -> 1 overlaps) or y >= 0.46875
    # (1 -> 0), 666 at refine 1, lie outside the 0.25 series radius and
    # take the square-root route of principal_logs and its guard.
    y1 = pts[1][..., 1]
    return _identity_then_diagonal(g, m, [np.exp(DRIFT_RATE * y1 * d) for d in np.diag(DRIFT)])


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

# name -> (algebra, manifold, axis, matrix, profile): omega_axis is `matrix`
# ("constant") or x * `matrix` ("linear", x the first chart coordinate) over
# the identity frames, and every other axis of omega is zero
_CONNECTIONS = {
    "interval1_so3_flat": ("so3", "interval1", 0, np.zeros((3, 3)), "constant"),
    # constant omega = angle * ad(e3) dt: flat with holonomy exp(-angle ad(e3))
    "circle2_so3_twisted": ("so3", "circle2", 0, TWIST_ANGLE * _ROTATION, "constant"),
    "cyl2_so3_twisted": ("so3", "cyl2", 0, TWIST_ANGLE * _ROTATION, "constant"),
    # omega_y = slope * x * ad(e3): R_xy = slope * ad(e3) by construction
    "disk2d_so3_nonflat": ("so3", "disk2d", 1, DISK_SLOPE * _ROTATION, "linear"),
    # nonzero curvature with ad = 0: accordance must fail with residual ||R||
    "disk2d_abelian2_nonflat": ("abelian2", "disk2d", 1, np.diag([1.0, 0.0]), "linear"),
    # constant non-inner omega: transports twist by a non-inner automorphism
    "circle2_abelian2_flat": ("abelian2", "circle2", 0, np.diag([0.25, -0.4]), "constant"),
    # omega_y = slope * x * DRIFT: R_xy = slope * DRIFT is an outer
    # derivation, orthogonal to span{ad} (ad(x) is strictly off-diagonal),
    # so accordance fails with residual slope * ||DRIFT||_F
    "disk2d_heis3_outer": ("heis3", "disk2d", 1, DISK_SLOPE * DRIFT, "linear"),
}
CONNECTION_NAMES = tuple(_CONNECTIONS)


def connection(name: str, refine: int = 1) -> ConnectionForm:
    """Named fixture connections, all over identity-frame bundles; a linear
    omega_y = x * d on disk2d has curvature R_xy = d."""
    if name not in _CONNECTIONS:
        raise InputError(f"unknown connection fixture {name!r}")
    alg, base, axis, matrix, profile = _CONNECTIONS[name]
    g = algebra(alg)
    m = manifold(base, refine)
    omega = []
    for chart in m.charts:
        w = np.zeros(chart.resolution + (m.dim, g.dim, g.dim))
        x = chart.grid_points()[..., 0, None, None]
        w[..., axis, :, :] = matrix if profile == "constant" else x * matrix
        omega.append(w)
    return ConnectionForm(reference_trivialization(g, m), tuple(omega))


# connections that represent couplings (accordance passes)
COUPLING_NAMES = (
    "interval1_so3_flat",
    "circle2_so3_twisted",
    "cyl2_so3_twisted",
    "disk2d_so3_nonflat",
    "circle2_abelian2_flat",
)
