"""The two classification maps and their round-trip verification.

``f_map`` turns a coupling (a connection whose curvature lies in the inner
span) into a local-trivialization structure by parallel transport from each
chart center along a comb of grid edges.  Its class does not depend on the
paths: the curvature is inner-valued, so transports along homotopic paths
differ by an inner automorphism.  ``g_map`` goes back: given a structure and a
partition of unity it assembles the connection whose chartwise form is the
h-weighted sum of the pure-gauge forms phi_alpha d(phi_alpha^{-1}).  The
round-trip checks assert, numerically, that the two maps are mutually
inverse up to the respective equivalences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bundles import (
    DeltaReport,
    LabReport,
    UNSWEPT,
    Trivialization,
    check_delta_continuity,
    reference_trivialization,
    trivializations_equivalent,
    validate_lab,
)
from .connections import ConnectionForm, CouplingEquivalence, accordance, coupling_equivalent
from .errors import ComputationError, InputError, PreconditionError
from .manifolds import (
    PartitionOfUnity,
    grid_derivative,
    interpolate,
    overlap_nodes,
    partition_of_unity,
    _interpolate_axes,
)
from .tolerances import (
    ACC_TOL,
    EDGE_STEPS,
    G_MAP_LAB_TOL,
    INNER_TOL,
    ODE_STEPS,
    ROUNDTRIP_AUT_TOL,
    TRANS_TOL,
    WELL_DEFINED_AUT_TOL,
)


def _rk4(stages, steps: int) -> np.ndarray:
    """Classical RK4 for T' = A(t) T, T(0) = I over t in [0, 1] in ``steps``
    uniform steps, for N problems at once.  ``stages(*times)`` returns the
    stage values of A at the given times, a list of contiguous (n, n, N)
    arrays; it is called at t = 0 and then once per step for the step's
    midpoint and end, whose end value is the next step's start value.

    The state and the stage buffers are contiguous (n, n, N) arrays too,
    where one einsum product per stage runs about 3x faster than np.matmul
    over (N, n, n); T(1) is returned in that layout."""
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise InputError(f"a path's step count must be an integer, got {steps!r}")
    if steps < 1:
        raise InputError("a path needs at least one step")
    (a1,) = stages(0.0)
    t_mats = np.broadcast_to(np.eye(a1.shape[0])[..., None], a1.shape).copy()
    k1, k2, k3, k4, y = (np.empty_like(t_mats) for _ in range(5))
    dt = 1.0 / steps
    for s in range(steps):
        t0 = s * dt
        a0, (a_mid, a1) = a1, stages(t0 + 0.5 * dt, t0 + dt)
        # k_{j+1} = A (T + h k_j), with T + h k_j formed in y as h k_j + T
        np.einsum("ikp,kjp->ijp", a0, t_mats, out=k1)
        np.multiply(k1, 0.5 * dt, out=y)
        y += t_mats
        np.einsum("ikp,kjp->ijp", a_mid, y, out=k2)
        np.multiply(k2, 0.5 * dt, out=y)
        y += t_mats
        np.einsum("ikp,kjp->ijp", a_mid, y, out=k3)
        np.multiply(k3, dt, out=y)
        y += t_mats
        np.einsum("ikp,kjp->ijp", a1, y, out=k4)
        # T += (dt / 6) (((k1 + 2 k2) + 2 k3) + k4), summed in k1
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= dt / 6.0
        t_mats += k1
    return t_mats


def parallel_transport(c: ConnectionForm, chart_id: int, start, end, steps: int) -> np.ndarray:
    """Solve T' = A(t) T, T(0) = I, with A(t) = -sum_i v^i w_i(start + t v)
    and v = end - start, by classical RK4 in ``steps`` uniform steps along
    the straight chart segments from ``start`` (dim,) to each point of
    ``end`` (..., dim).  The result, of shape end.shape[:-1] + (n, n), is an
    automorphism up to integrator error because the form is pointwise a
    bracket derivation.

    A stage's sample points start + t v go to the interpolation kernel as
    per-axis coordinate arrays.  A step's two new values of A (at t0 + dt/2
    and t0 + dt) come from one kernel call on (2, ...) coordinate arrays, so
    a solve makes steps + 1 kernel calls covering the 2 steps + 1 stage
    times.  A chart box is convex: checking the start and the ends keeps
    every sample inside it."""
    chart = c.manifold.charts[chart_id]
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if start.shape != (chart.dim,) or end.shape[-1:] != (chart.dim,):
        raise InputError(
            f"a path in a {chart.dim}-D chart needs a start of shape ({chart.dim},) "
            f"and ends of shape (..., {chart.dim}), got {start.shape} and {end.shape}"
        )
    if not (chart.contains(start) and chart.contains(end)):
        raise InputError("path leaves its chart")
    omega = np.ascontiguousarray(c.omega[chart_id])
    v = end - start
    rows = np.moveaxis(v, -1, 0)
    n = c.algebra.dim

    def forms(*times: float) -> list:
        # stage times on a new leading axis of every coordinate array
        t = np.array(times).reshape((-1,) + (1,) * (v.ndim - 1))
        w = _interpolate_axes(chart, omega, [s + t * row for s, row in zip(start, rows)])
        out = []
        for w_t in w:
            a = np.einsum("...i,...iab->...ab", v, w_t).reshape(-1, n, n)
            # one C-ordered (n, n, N) copy; an "abp" einsum output is a strided
            # view, which would slow every product that reads it
            out.append(np.negative(a.transpose(1, 2, 0), order="C"))
        return out

    t_mats = _rk4(forms, steps)
    return np.ascontiguousarray(t_mats.transpose(2, 0, 1)).reshape(v.shape[:-1] + (n, n))


@dataclass(frozen=True)
class FMapResult:
    """Trivialization built by comb transport, with its embedded theorem
    checks: transitions must be pointwise automorphisms and the structure
    must pass the discrete-quotient continuity sweep."""

    trivialization: Trivialization
    lab_report: LabReport
    delta: DeltaReport

    @property
    def passed(self) -> bool:
        return self.lab_report.passed and self.delta.passed


def _comb_transports(c: ConnectionForm, chart_id: int, steps: int) -> np.ndarray:
    """Transports from the chart center to every node along the node comb,
    a spanning tree of grid edges: the axis-0 line through the center, then
    from each of its nodes the axis-1 line, and so on for each later axis.
    A node's transport is the product of the edge transports on its comb
    path; the result has shape resolution + (n, n).

    On the grid edge from node k to k + 1 along axis a the multilinear
    interpolant of w is linear in t, so the edge's A(t) = -h_a w_a(t) is the
    blend a0 + t (a1 - a0) of its two node values and needs no interpolation
    call; an edge run from k + 1 to k negates both.  All edges of one axis
    pass, forward (from k to k + 1 at and above the center index) and
    backward (from k + 1 to k below it), are one RK4 batch of ``steps``
    steps per edge.  Then each edge's transport multiplies the one of the
    node it leaves: a batched product per node index, in (n, n, L) slices
    over the L lines along axis a in grid order."""
    chart = c.manifold.charts[chart_id]
    n = c.algebra.dim
    covered = np.eye(n)[..., None]  # the center alone, (n, n, 1)
    for a, (center, r, h) in enumerate(zip(chart.center, chart.resolution, chart.spacing)):
        # -h_a w_a on the lines along axis a: axes before a full, later axes at the center
        index = tuple(slice(None) if b <= a else i for b, i in enumerate(chart.center))
        nodes = np.moveaxis(c.omega[chart_id][index + (a,)], a, 0) * -h
        nodes = np.moveaxis(nodes.reshape(r, -1, n, n), (2, 3), (0, 1))  # (n, n, r, L)
        # forward edges k -> k + 1 for k >= center, then backward edges k + 1 -> k
        a0 = np.concatenate([nodes[:, :, center:-1], -nodes[:, :, 1 : center + 1]], axis=2)
        a1 = np.concatenate([nodes[:, :, center + 1 :], -nodes[:, :, :center]], axis=2)
        shape = a0.shape
        a0, d = a0.reshape(n, n, -1), (a1 - a0).reshape(n, n, -1)
        edges = _rk4(lambda *times: [a0 + t * d for t in times], steps).reshape(shape)
        line = np.empty(nodes.shape)
        line[:, :, center] = covered
        for k in range(center, r - 1):
            np.einsum("ikp,kjp->ijp", edges[:, :, k - center], line[:, :, k], out=line[:, :, k + 1])
        for k in range(center - 1, -1, -1):
            np.einsum("ikp,kjp->ijp", edges[:, :, r - 1 - center + k], line[:, :, k + 1], out=line[:, :, k])
        # grid order: the lines' axes before axis a
        covered = line.transpose(0, 1, 3, 2).reshape(n, n, -1)
    return np.ascontiguousarray(covered.transpose(2, 0, 1)).reshape(chart.resolution + (n, n))


def _comb_frames(c: ConnectionForm, ode_steps: int, acc_tol: float) -> Trivialization:
    """The structure f(C) before its checks: after the accordance
    precondition, each node's frame is the bundle's frame there times the
    transport to it from the chart center along the node comb, in
    ``ode_steps`` RK4 steps per grid edge."""
    result = accordance(c, tol=acc_tol)
    if not result.passed:
        raise PreconditionError(
            f"not a coupling: accordance residual {result.max_residual:.3e} > {acc_tol:.1e}"
        )
    frames = []
    for cid in range(len(c.manifold.charts)):
        frame = c.bundle.frames[cid] @ _comb_transports(c, cid, ode_steps)
        if not np.isfinite(frame).all():
            raise ComputationError(f"comb transport in chart {cid} is not finite")
        frames.append(frame)
    return Trivialization(c.algebra, c.manifold, tuple(frames))


def f_map(
    c: ConnectionForm,
    ode_steps: int = EDGE_STEPS,
    acc_tol: float = ACC_TOL,
    aut_tol: float = TRANS_TOL,
    inner_tol: float = INNER_TOL,
) -> FMapResult:
    """Coupling -> structure: each node's frame is the bundle's frame times
    the transport to the node from its chart's center along the node comb,
    in ``ode_steps`` RK4 steps per grid edge."""
    out = _comb_frames(c, ode_steps, acc_tol)
    lab = validate_lab(out, tol=aut_tol)
    if not lab.passed:  # a structure outside LAB is not swept: nothing is certified
        return FMapResult(out, lab, UNSWEPT)
    delta = check_delta_continuity(out, inner_tol=inner_tol, lab_tol=aut_tol)
    return FMapResult(out, lab, delta)


def g_map(
    t: Trivialization,
    h: PartitionOfUnity,
    check: bool = True,
    inner_tol: float = INNER_TOL,
) -> ConnectionForm:
    """Structure + partition of unity -> connection over the identity-frame
    trivialization of the same bundle.

    Chartwise, omega = sum_alpha h_alpha . phi_alpha d(phi_alpha^{-1}), with
    cross-chart contributions carried through the overlap Jacobians and the
    derivatives realized by second-order finite differences.  The assembled
    values are projected onto the derivation subspace (an O(h^2)-size
    correction) so the result is an exact Lie-connection form.
    """
    if h.manifold is not t.manifold:
        raise InputError("partition of unity built over a different manifold")
    if check:
        lab = validate_lab(t, tol=G_MAP_LAB_TOL)
        if not lab.passed:
            raise PreconditionError(f"structure does not validate ({lab.worst})")
        delta = check_delta_continuity(t, inner_tol=inner_tol, lab_tol=G_MAP_LAB_TOL)
        if not delta.passed:
            raise PreconditionError(
                "structure is not continuous into the discrete outer quotient"
                + (" (undecided verdicts)" if delta.undecided else "")
            )
    m = t.manifold
    n = t.algebra.dim
    # pure-gauge forms P_alpha,j = phi_alpha d_j(phi_alpha^{-1}) per chart
    gauge_forms = []
    for cid, chart in enumerate(m.charts):
        inv = np.linalg.inv(t.frames[cid])
        per_axis = np.stack(
            [t.frames[cid] @ grid_derivative(chart, inv, j) for j in range(m.dim)], axis=-3
        )
        gauge_forms.append(per_axis)

    omega = []
    for cid in range(len(m.charts)):
        w = h.fields[cid][..., None, None, None] * gauge_forms[cid]
        for o in m.overlaps_from(cid):
            slices, images = overlap_nodes(m, o)
            h_other = h.evaluate(o.beta, images)
            p_other = interpolate(m.charts[o.beta], gauge_forms[o.beta], images)
            pulled = np.einsum("ji,...jab->...iab", o.matrix, p_other)
            w[slices] += h_other[..., None, None, None] * pulled
        omega.append(w)

    # project pointwise onto Der(g): removes the FD error component that
    # leaves the derivation subspace
    proj = t.algebra.derivation_projector
    omega = tuple(
        (grid.reshape(-1, n * n) @ proj.T).reshape(grid.shape) for grid in omega
    )
    return ConnectionForm(reference_trivialization(t.algebra, m), omega)


def verify_g_well_defined(
    t: Trivialization,
    t_prime: Trivialization,
    h: PartitionOfUnity,
    h_prime: PartitionOfUnity,
) -> CouplingEquivalence:
    """The class of g(structure, partition) depends on neither choice: the two
    assembled connections must differ by an inner-valued one-form (within
    ACC_TOL).  A structure outside LAB^delta is outside the theorem, so the
    first g_map runs its checks and raises PreconditionError for it."""
    eq = trivializations_equivalent(t, t_prime, aut_tol=WELL_DEFINED_AUT_TOL)
    if not eq.passed:
        raise PreconditionError("structures are not equivalent")
    ca = g_map(t, h)
    cb = g_map(t_prime, h_prime, check=False)
    return coupling_equivalent(ca, cb)


@dataclass(frozen=True)
class DirectionResult:
    passed: bool
    residual: float
    undecided: int


@dataclass(frozen=True)
class RoundTripReport:
    directions: dict
    inconclusive: bool
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.directions) and all(d.passed for d in self.directions.values())


def verify_inverse(
    c: ConnectionForm | None = None,
    t: Trivialization | None = None,
    ode_steps: int = EDGE_STEPS,
    coupling_tol: float = ACC_TOL,
    inner_tol: float = INNER_TOL,
) -> RoundTripReport:
    """Round-trip verification of the two maps, with the default partition
    of unity.

    From a connection C = c and T = f(C); from a structure T = t and
    C = g(T), checked.  Then g(f(C)) must be coupling-equivalent to C, and
    f(g(T)) must be an equivalent structure to T (frame ratios automorphisms
    within ROUNDTRIP_AUT_TOL).  Undecided inner verdicts mark the report
    inconclusive, never failed.
    """
    if (c is None) == (t is None):
        raise InputError("exactly one of connection / trivialization is required")
    f = functools.partial(f_map, ode_steps=ode_steps, acc_tol=coupling_tol, inner_tol=inner_tol)
    from_connection = c is not None
    if from_connection:
        try:
            f_c = f(c)
        except PreconditionError as exc:  # not a coupling: the note names the residual
            return RoundTripReport({}, False, note=str(exc))
        h = partition_of_unity(c.manifold)
    else:
        h = partition_of_unity(t.manifold)
        c = g_map(t, h, inner_tol=inner_tol)
        f_c = f(c)
    g_f_c = g_map(f_c.trivialization, h, check=False)
    # g(T) is g(f(C)) from a connection and C itself from a structure
    if from_connection:
        t = f_c.trivialization
        # of f(g(T)) only its frames and validate_lab are read: no verdict sweep
        f_g_t = _comb_frames(g_f_c, ode_steps, coupling_tol)
        f_g_t_lab = validate_lab(f_g_t, tol=TRANS_TOL)
    else:
        f_g_t, f_g_t_lab = f_c.trivialization, f_c.lab_report
    eq = coupling_equivalent(g_f_c, c, tol=coupling_tol)
    back_eq = trivializations_equivalent(f_g_t, t, inner_tol=inner_tol, aut_tol=ROUNDTRIP_AUT_TOL)
    # both structures compared must be in LAB; a structure T given as input passed g_map's check
    labs = {"T = f(C)": f_c.lab_report} if from_connection else {}
    failed = [
        f"{name} fails validate_lab: residual {max(lab.residuals().values()):.3e} at {lab.worst}"
        for name, lab in {**labs, "f(g(T))": f_g_t_lab}.items()
        if not lab.passed
    ]
    directions = {
        "connection_roundtrip": DirectionResult(
            eq.passed and f_c.delta.passed and not f_c.delta.undecided,
            eq.max_residual,
            f_c.delta.counts()["undecided"],
        ),
        "trivialization_roundtrip": DirectionResult(
            back_eq.passed and not failed, back_eq.max_aut_residual, back_eq.counts()["undecided"]
        ),
    }
    inconclusive = any(d.undecided > 0 for d in directions.values())
    return RoundTripReport(directions, inconclusive, note="; ".join(failed))


# --- loop transport (holonomy around circle-like fixtures) --------------------

def loop_transport(c: ConnectionForm) -> np.ndarray:
    """Transport around the closed cycle of charts along the first axis
    (circle and cylinder covers), in ODE_STEPS steps per leg, switching
    charts at overlap-region midpoints."""
    m = c.manifold
    n_charts = len(m.charts)
    order = sorted(range(n_charts), key=lambda cid: m.charts[cid].box[0, 0])
    n = c.algebra.dim
    total = np.eye(n)
    start = m.charts[order[0]].node_point(m.charts[order[0]].center)
    current = start.copy()
    for pos, cid in enumerate(order):
        nxt = order[(pos + 1) % n_charts]
        # the forward overlap touches the upper edge of the current chart
        k, o = next(
            (
                (k, o)
                for k, o in enumerate(m.overlaps)
                if o.alpha == cid
                and o.beta == nxt
                and abs(o.region[0, 1] - m.charts[cid].box[0, 1]) <= 1e-9
            ),
            (None, None),
        )
        if o is None:
            raise InputError(f"no forward overlap from chart {cid} along axis 0")
        switch = current.copy()
        switch[0] = 0.5 * (o.region[0, 0] + o.region[0, 1])
        total = parallel_transport(c, cid, current, switch, ODE_STEPS) @ total
        f_alpha, f_beta = c.bundle.frames_at(k, switch[None, :])
        total = np.linalg.inv(f_beta[0]) @ f_alpha[0] @ total
        current = o.apply(switch[None, :])[0]
    return parallel_transport(c, order[0], current, start, ODE_STEPS) @ total
