"""The four benchmark workloads: seeded inputs, one operation, its check.

Inputs are built only through labcoupling's public API, fresh for every
operation, from a ``numpy.random.Generator`` the runner derives from
(seed, stream, operation index).  A check recomputes the decisive numbers
from the operation's outputs with NaN-propagating reductions instead of
trusting the library's own ``max()`` reductions, and compares each verdict
with what the theory says the input must give.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import labcoupling as lc
from labcoupling import fileio, fixtures
from labcoupling.manifolds import random_harmonic_field, region_slices
from labcoupling.tolerances import ACC_TOL, ALG_TOL, INNER_TOL, TRANS_TOL

# Shift amplitudes: large enough that omega does not commute along rays,
# small enough that RK4 at the default 64 steps and the FD stencils stay
# inside the library's pinned tolerances.
TRANSPORT_SHIFT = {"amplitude": 0.3, "constant_scale": 0.3}
# The round trip's shift is scaled to max |l| = 0.12, which keeps its overlap
# ratios inside the series radius: larger shifts send a seed-dependent
# 0-200 ratios down the scalar route and double some operations' time.
ROUNDTRIP_SHIFT = {"amplitude": 0.05, "constant_scale": 0.05}
ROUNDTRIP_MAX_SHIFT = 0.12
# Inner frames exp(ad x) with |x| <= 0.4 rad: overlap ratios then rotate by
# at most 0.8 rad, far from pi, so a real principal log always exists, yet
# 65% of them leave the 0.25 series radius and take the scalar route.
INNER_MAX_ANGLE = 0.4
# heis3 frames exp(s D) exp(ad y) with D = diag(.3, -.2, .1), an outer
# derivation (Der(heis3) contains it, span{ad} does not), |s| <= 0.5 and
# |y| <= 0.5: 62% of the ratios take the scalar route.  The inner factor
# makes the ratios non-diagonal, so their logs cost about as much as the so3
# ones and both classes take similar time.
OUTER_DRIFT = np.diag([0.3, -0.2, 0.1])
VERDICT_FIELD_SEED = 0
OUTER_MAX_EXPONENT = 0.5
OUTER_INNER_MAX = 0.5
# Gate of the CLI's `axioms` command.
SKEW_TOL, LEIBNIZ_TOL = 1e-12, 1e-4
# verify_inverse's default tolerance for the structure round trip.
ROUNDTRIP_AUT_TOL = 1e-5


@dataclass
class Outcome:
    """Result of one check: ok, the worst residual among checks expected to
    PASS (None when the operation has none), and a reason when not ok."""

    ok: bool
    residual: float | None
    reason: str = ""


def worst(*arrays) -> float:
    """Largest entry over all arrays; +inf as soon as any entry is not finite."""
    top = 0.0
    for arr in arrays:
        a = np.asarray(arr, dtype=float)
        if a.size == 0:
            continue
        if not np.isfinite(a).all():
            return math.inf
        top = max(top, float(a.max()))
    return top


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def grid_nodes(manifold) -> int:
    return sum(math.prod(chart.resolution) for chart in manifold.charts)


def frame_defect(t) -> float:
    """Worst automorphism residual of a structure's frames, reduced here."""
    return worst(*(lc.algebra.automorphism_residuals(t.algebra, f) for f in t.frames))


def _shifted(name: str, refine: int, rng, shift: dict, max_shift: float | None = None):
    """A fixture coupling plus a seeded inner shift ad(l), l a band-limited
    fiber-valued one-form (unit-period harmonics, so it is overlap-covariant
    on the translation covers of the fixtures), optionally scaled to
    max |l| = max_shift."""
    c0 = fixtures.connection(name, refine)
    m = c0.manifold
    l = random_harmonic_field(rng, m.dim, (m.dim, c0.algebra.dim), **shift).sample(m)
    if max_shift is not None:
        scale = max_shift / max(np.abs(grid).max() for grid in l)
        l = [grid * scale for grid in l]
    return lc.shift_by_inner(c0, l)


# --- transport --------------------------------------------------------------

def transport_make(rng, k: int, workdir: Path) -> dict:
    c = _shifted("disk2d_so3_nonflat", 2, rng, TRANSPORT_SHIFT)
    return {"c": c, "nodes": grid_nodes(c.manifold)}


def transport_run(inp: dict):
    return lc.f_map(inp["c"])


def transport_check(inp: dict, out) -> Outcome:
    t = out.trivialization
    defect = frame_defect(t)
    counts = out.delta.counts()
    if not out.passed:
        return Outcome(False, defect, "f_map did not PASS")
    if not defect <= TRANS_TOL:
        return Outcome(False, defect, f"frame automorphism residual {defect:.3e}")
    if any(counts.values()):
        return Outcome(False, defect, f"verdicts on a cover without overlaps: {counts}")
    center = t.manifold.charts[0].center
    if not np.array_equal(t.frames[0][center], inp["c"].bundle.frames[0][center]):
        return Outcome(False, defect, "transport at the chart center is not the identity")
    return Outcome(True, defect)


# --- roundtrip --------------------------------------------------------------

def roundtrip_make(rng, k: int, workdir: Path) -> dict:
    c = _shifted("cyl2_so3_twisted", 1, rng, ROUNDTRIP_SHIFT, ROUNDTRIP_MAX_SHIFT)
    path = workdir / f"roundtrip-{os.getpid()}-{k}.json"
    fileio.save_json(path, fileio.connection_to_dict(c))
    return {"c": c, "path": path, "nodes": grid_nodes(c.manifold)}


def roundtrip_run(inp: dict):
    c = lc.fileio.load_connection(str(inp["path"]))
    return c, lc.verify_inverse(c=c)


def roundtrip_check(inp: dict, out) -> Outcome:
    loaded, rep = out
    src = inp["c"]
    same = all(np.array_equal(a, b) for a, b in zip(loaded.omega, src.omega)) and all(
        np.array_equal(a, b) for a, b in zip(loaded.bundle.frames, src.bundle.frames)
    )
    if not same:
        return Outcome(False, None, "loaded connection differs from the saved one")
    dirs = rep.directions
    if set(dirs) != {"connection_roundtrip", "trivialization_roundtrip"}:
        return Outcome(False, None, f"round trip directions {sorted(dirs)}")
    conn, triv = dirs["connection_roundtrip"], dirs["trivialization_roundtrip"]
    if not finite(conn.residual, triv.residual):
        return Outcome(False, math.inf, "non-finite round-trip residual")
    residual = max(conn.residual, triv.residual)
    if not (rep.passed and conn.passed and triv.passed) or rep.inconclusive:
        return Outcome(False, residual, "round trip did not PASS")
    if conn.undecided or triv.undecided:
        return Outcome(False, residual, "undecided verdicts in the round trip")
    if not (conn.residual <= ACC_TOL and triv.residual <= ROUNDTRIP_AUT_TOL):
        return Outcome(False, residual, "round-trip residual above tolerance")
    return Outcome(True, residual)


def cleanup_file(inp: dict) -> None:
    inp["path"].unlink(missing_ok=True)


# --- verdicts ---------------------------------------------------------------

def _ratio_drift(m, field) -> tuple:
    """Per overlap, the exponent differences s(p) - s(p0) that the outer
    drift puts into the ratios check_delta_continuity forms (p0 = the
    region's first node), evaluated in closed form."""
    diffs = []
    for o in m.overlaps:
        chart = m.charts[o.alpha]
        pts = chart.grid_points()[region_slices(chart, o.region)].reshape(-1, m.dim)
        s = field(o.apply(pts) if o.alpha == 0 else pts)
        diffs.append(s - s[0])
    return tuple(diffs)


def _plane_rotation(angle: float) -> np.ndarray:
    """Rotation of the e1-e2 plane fixing e3: an orthogonal automorphism of heis3."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def verdicts_make(rng, k: int, workdir: Path) -> dict:
    """Even k: so3, chart-1 frames A exp(ad x(p)) A^T (all ratios inner).
    Odd k: heis3, chart-1 frames A exp(s(p) D) exp(ad y(p)) A^T with D outer
    (ratios with s(p) != s(p0) are outer).  Chart 0 carries identity frames.

    x, s and y are fixed fields; the seed enters through the orthogonal
    automorphism A.  Conjugating by A keeps every ratio's class, its distance
    from the identity (hence its verdict route) and the cost of its logarithm,
    so every operation of a class does the same work and the timing measures
    the code, not the draw."""
    m = fixtures.manifold("cyl2", 1)
    pts = m.charts[1].grid_points()
    fields = np.random.default_rng(VERDICT_FIELD_SEED)
    if k % 2 == 0:
        g = fixtures.algebra("so3")
        x = random_harmonic_field(fields, m.dim, (g.dim,), amplitude=1.0, constant_scale=0.0)(pts)
        x *= INNER_MAX_ANGLE / np.linalg.norm(x, axis=-1).max()
        frames1 = scipy.linalg.expm(lc.ad(g, x))
        a = scipy.linalg.expm(lc.ad(g, rng.normal(size=g.dim)))
        expected_outer = 0
    else:
        g = fixtures.algebra("heis3")
        h = random_harmonic_field(fields, m.dim, (), amplitude=1.0, constant_scale=0.0)
        scale = OUTER_MAX_EXPONENT / np.abs(h(pts)).max()
        y = random_harmonic_field(fields, m.dim, (g.dim,), amplitude=1.0, constant_scale=0.0)(pts)
        y *= OUTER_INNER_MAX / np.linalg.norm(y, axis=-1).max()
        frames1 = scipy.linalg.expm(scale * h(pts)[..., None, None] * OUTER_DRIFT) @ scipy.linalg.expm(
            lc.ad(g, y)
        )
        a = _plane_rotation(rng.uniform(0.0, 2.0 * math.pi))
        # Inn is an ideal of Der and [D, D] = 0, so the log of each ratio is
        # (s - s0) A D A^T plus an inner derivation; A D A^T is orthogonal to
        # span{ad} with the norm of D, so the log's projection residual is
        # exactly |s - s0| ||D||
        drift = _ratio_drift(m, lambda p: scale * h(p))
        norm_d = np.linalg.norm(OUTER_DRIFT)
        expected_outer = sum(int((np.abs(d) * norm_d > INNER_TOL).sum()) for d in drift)
    frames0 = np.broadcast_to(np.eye(g.dim), m.charts[0].resolution + (g.dim, g.dim)).copy()
    t = lc.Trivialization(g, m, (frames0, a @ frames1 @ a.T))
    total = sum(
        math.prod(s.stop - s.start for s in region_slices(m.charts[o.alpha], o.region))
        for o in m.overlaps
    )
    return {
        "t": t,
        "inner_class": k % 2 == 0,
        "total": total,
        "expected_outer": expected_outer,
        "nodes": grid_nodes(m),
    }


def verdicts_run(inp: dict):
    lab = lc.validate_lab(inp["t"])
    if not lab.passed:
        return lab, None
    return lab, lc.check_delta_continuity(inp["t"])


def verdicts_check(inp: dict, out) -> Outcome:
    lab, delta = out
    defect = frame_defect(inp["t"])
    if not (lab.passed and defect <= ALG_TOL):
        return Outcome(False, defect, f"validate_lab: frame residual {defect:.3e}")
    counts = delta.counts()
    if sum(counts.values()) != inp["total"]:
        return Outcome(False, defect, f"{sum(counts.values())} verdicts for {inp['total']} ratios")
    if counts["undecided"]:
        return Outcome(False, defect, f"undecided verdicts: {counts}")
    if inp["inner_class"]:
        res = delta.max_inner_residual
        if not finite(res):
            return Outcome(False, math.inf, "non-finite inner residual")
        if not (delta.passed and counts["outer"] == 0 and res <= INNER_TOL):
            return Outcome(False, max(defect, res), f"inner structure not certified: {counts}")
        return Outcome(True, max(defect, res))
    if delta.passed or counts["outer"] != inp["expected_outer"] or not counts["outer"]:
        return Outcome(
            False, defect, f"outer drift: {counts}, expected {inp['expected_outer']} outer"
        )
    return Outcome(True, defect)


# --- axioms -----------------------------------------------------------------

def axioms_make(rng, k: int, workdir: Path) -> dict:
    c = _shifted("disk2d_so3_nonflat", 2, rng, TRANSPORT_SHIFT)
    return {"c": c, "trial_seed": int(rng.integers(2**31)), "nodes": grid_nodes(c.manifold)}


def axioms_run(inp: dict):
    acc = lc.accordance(inp["c"])
    return acc, lc.axiom_report(inp["c"], acc.curvature, trials=10, seed=inp["trial_seed"])


def axioms_check(inp: dict, out) -> Outcome:
    acc, rep = out
    acc_res = worst(*acc.curvature.residuals)
    if not (acc.passed and acc_res <= ACC_TOL):
        return Outcome(False, acc_res, f"accordance residual {acc_res:.3e}")
    if not finite(rep.max_skew, rep.max_leibniz, rep.max_jacobi):
        return Outcome(False, math.inf, "non-finite axiom residual")
    residual = max(acc_res, rep.max_skew, rep.max_leibniz)
    if not (rep.max_skew <= SKEW_TOL and rep.max_leibniz <= LEIBNIZ_TOL):
        return Outcome(False, residual, f"axioms: {rep.residuals()}")
    return Outcome(True, residual)


@dataclass(frozen=True)
class Workload:
    """make(rng, k, workdir) -> input dict (with "nodes", the input atlas's
    grid nodes); run(input) -> output, the timed operation; check(input,
    output) -> Outcome; cleanup(input) after the check."""

    make: Callable
    run: Callable
    check: Callable
    cleanup: Callable = lambda inp: None


WORKLOADS = {
    "transport": Workload(transport_make, transport_run, transport_check),
    "roundtrip": Workload(roundtrip_make, roundtrip_run, roundtrip_check, cleanup_file),
    "verdicts": Workload(verdicts_make, verdicts_run, verdicts_check),
    "axioms": Workload(axioms_make, axioms_run, axioms_check),
}
