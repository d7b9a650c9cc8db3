"""The two classification maps and their round-trip verification.

``f_map`` turns a coupling (a connection whose curvature lies in the inner
span) into a local-trivialization structure by parallel transport along the
rays from each chart center.  ``g_map`` goes back: given a structure and a
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
    G_MAP_LAB_TOL,
    INNER_TOL,
    ODE_STEPS,
    ROUNDTRIP_AUT_TOL,
    TRANS_TOL,
    WELL_DEFINED_AUT_TOL,
)


def _transport(c: ConnectionForm, chart_id: int, start, ends, steps: int) -> np.ndarray:
    """Solve T' = A(t) T, T(0) = I, with A(t) = -sum_i v^i w_i(start + t v)
    and v = end - start, by classical RK4 in ``steps`` uniform steps, for a
    fan of segments from one start.  ``ends`` holds the fan's end points per
    axis: ends[a] are their axis-a coordinates, arrays that broadcast
    against each other to the fan shape, so a chart's open mesh (np.ix_ of
    its axis nodes) is the fan to every node.

    A stage's sample points start[a] + t v_a stay per axis, at each
    array's own size, and go to the interpolation kernel as they are.  A
    step's end value of A is the next step's start value, and a step's two
    new values (at t0 + dt/2 and t0 + dt) come from one kernel call on
    (2, ...) coordinate arrays, so a solve makes steps + 1 kernel calls
    covering the 2 steps + 1 stage times.  A chart box is convex: checking
    the start and the ends keeps every sample inside it.

    The state, the stage buffers and every form value are held as
    contiguous (n, n, N) arrays over the N batched segments, where one
    einsum product per stage runs about 3x faster than np.matmul over
    (N, n, n); the result has shape fan shape + (n, n)."""
    chart = c.manifold.charts[chart_id]
    start = np.asarray(start, dtype=float)
    ends = [np.asarray(e, dtype=float) for e in ends]
    if start.shape != (chart.dim,) or len(ends) != chart.dim:
        raise InputError(
            f"a path in a {chart.dim}-D chart needs a start of shape ({chart.dim},) "
            f"and {chart.dim} end coordinates, got {start.shape} and {len(ends)}"
        )
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise InputError(f"a path's step count must be an integer, got {steps!r}")
    if not (chart.contains(start) and chart.contains_axes(ends)):
        raise InputError("path leaves its chart")
    if steps < 1:
        raise InputError("a path needs at least one step")
    omega = np.ascontiguousarray(c.omega[chart_id])
    rows = [e - s for e, s in zip(ends, start)]
    v = np.stack(np.broadcast_arrays(*rows), axis=-1)
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

    (a1,) = forms(0.0)
    t_mats = np.broadcast_to(np.eye(n)[..., None], a1.shape).copy()
    k1, k2, k3, k4, y = (np.empty_like(t_mats) for _ in range(5))
    dt = 1.0 / steps
    for s in range(steps):
        t0 = s * dt
        a0, (a_mid, a1) = a1, forms(t0 + 0.5 * dt, t0 + dt)
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
    return np.ascontiguousarray(t_mats.transpose(2, 0, 1)).reshape(v.shape[:-1] + (n, n))


def parallel_transport(c: ConnectionForm, chart_id: int, start, end, steps: int) -> np.ndarray:
    """Solve T' = -w(gamma')(gamma) T, T(0) = I along the straight chart
    segments from ``start`` (dim,) to ``end`` (..., dim) in ``steps`` RK4
    steps; the result, of shape end.shape[:-1] + (n, n), is an automorphism
    up to integrator error because the form is pointwise a bracket
    derivation."""
    end = np.asarray(end, dtype=float)
    return _transport(c, chart_id, start, np.moveaxis(end, -1, 0) if end.ndim else (), steps)


@dataclass(frozen=True)
class FMapResult:
    """Trivialization built by ray transport, with its embedded theorem
    checks: transitions must be pointwise automorphisms and the structure
    must pass the discrete-quotient continuity sweep."""

    trivialization: Trivialization
    lab_report: LabReport
    delta: DeltaReport

    @property
    def passed(self) -> bool:
        return self.lab_report.passed and self.delta.passed


def _ray_frames(c: ConnectionForm, ode_steps: int, acc_tol: float) -> Trivialization:
    """The structure f(C) before its checks: after the accordance
    precondition, each chart's frames are the bundle's frame at the chart
    center times the transports along the fan of rays from the center to
    the chart's open mesh of nodes."""
    result = accordance(c, tol=acc_tol)
    if not result.passed:
        raise PreconditionError(
            f"not a coupling: accordance residual {result.max_residual:.3e} > {acc_tol:.1e}"
        )
    frames = []
    for cid, chart in enumerate(c.manifold.charts):
        mesh = np.ix_(*(chart.axis_nodes(a) for a in range(chart.dim)))
        frame = c.bundle.frames[cid] @ _transport(c, cid, chart.node_point(chart.center), mesh, ode_steps)
        if not np.isfinite(frame).all():
            raise ComputationError(f"ray transport in chart {cid} is not finite")
        frames.append(frame)
    return Trivialization(c.algebra, c.manifold, tuple(frames))


def f_map(
    c: ConnectionForm,
    ode_steps: int = ODE_STEPS,
    acc_tol: float = ACC_TOL,
    aut_tol: float = TRANS_TOL,
    inner_tol: float = INNER_TOL,
) -> FMapResult:
    """Coupling -> structure: frames are ray transports composed with the
    bundle's frame at the chart center."""
    out = _ray_frames(c, ode_steps, acc_tol)
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
    ode_steps: int = ODE_STEPS,
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
        f_g_t = _ray_frames(g_f_c, ode_steps, coupling_tol)
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
        total = _transport(c, cid, current, switch, ODE_STEPS) @ total
        f_alpha, f_beta = c.bundle.frames_at(k, switch[None, :])
        total = np.linalg.inv(f_beta[0]) @ f_alpha[0] @ total
        current = o.apply(switch[None, :])[0]
    return _transport(c, order[0], current, start, ODE_STEPS) @ total
