"""Bundle-structure tests: validation, discrete-quotient continuity,
equivalence, and pullback."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from labcoupling import algebra, bundles, fixtures as fx, manifolds
from labcoupling.algebra import _inverses, ad, automorphism_residuals, inner_verdicts
from labcoupling.bundles import (
    Trivialization,
    check_delta_continuity,
    pullback_lab,
    reference_trivialization,
    trivializations_equivalent,
    validate_lab,
)
from labcoupling.connections import ConnectionForm, coupling_equivalent
from labcoupling.correspondence import f_map, verify_inverse
from labcoupling.errors import InputError
from labcoupling.manifolds import (
    ChartAssignment,
    ManifoldMap,
    _overlap_triples,
    _validate_overlaps,
    build_manifold,
    constant_map,
    identity_map,
    interpolate,
    random_harmonic_field,
    region_slices,
)
from labcoupling.tolerances import ALG_TOL, INNER_TOL
from tests.test_manifolds import three_chart_interval_spec


def degree2_circle_map() -> ManifoldMap:
    """Doubling map from the 4-chart circle onto the 2-chart circle; every
    source node lands exactly on a target node."""
    m4 = fx.manifold("circle4")
    m2 = fx.manifold("circle2")
    plan = [(0, 0.0), (1, 0.0), (0, -1.0), (1, -1.0)]
    return ManifoldMap(
        m4, m2, tuple(ChartAssignment(tgt, [[2.0]], [off]) for tgt, off in plan)
    )


# --- validate_lab -------------------------------------------------------------

def test_identity_frames_on_interval_pass():
    t = reference_trivialization(fx.algebra("so3"), fx.manifold("interval1"))
    rep = validate_lab(t)
    assert rep.passed
    assert rep.max_transition_residual == 0.0  # no overlaps


def test_constant_cocycle_bundle_passes():
    g = fx.algebra("so3")
    m = fx.manifold("circle2")
    a = scipy.linalg.expm(ad(g, np.array([0.0, 0.0, 0.7])))
    # chart1 frame constantly a: transitions are the constants a / a^{-1}
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    frames = (eye, np.broadcast_to(a, m.charts[1].resolution + (3, 3)).copy())
    t = Trivialization(g, m, frames)
    rep = validate_lab(t)
    assert rep.passed
    for k in range(len(m.overlaps)):
        assert automorphism_residuals(g, t.transition_grid(k)).max() <= 1e-12


def test_cocycle_is_compared_on_every_triple_overlap_node(monkeypatch):
    g = fx.algebra("so3")
    m = build_manifold(three_chart_interval_spec())
    frames = []
    for cid, chart in enumerate(m.charts):
        # a frame field of its own per chart, so every transition is nontrivial
        s = chart.grid_points()[..., 0]
        direction = np.array([1.0, 0.5 * cid, -0.3])
        frames.append(scipy.linalg.expm(ad(g, (s + cid)[:, None] * direction)))
    t = Trivialization(g, m, tuple(frames))
    assert len(t.transitions) == len(m.overlaps)  # the node grids, built before the reader is counted
    queried = []

    def counted(chart, values, points):
        queried.append(len(points))
        return interpolate(chart, values, points)

    monkeypatch.setattr(manifolds, "interpolate", counted)
    rep = validate_lab(t)
    assert rep.passed and rep.max_cocycle_residual <= 1e-12
    # six orderings of the three charts, each forming three legs from two
    # frames read on the five nodes of [1, 2]
    assert queried == [5] * 36


def offset_interval_spec(offsets: tuple, resolution: int) -> dict:
    """[0, 2] charts at the given global offsets, each pair glued by the
    translation on the part they share."""
    overlaps = []
    for a, b in itertools.permutations(range(len(offsets)), 2):
        d = offsets[b] - offsets[a]
        region = [[max(0.0, d), min(2.0, 2.0 + d)]]
        overlaps.append({"alpha": a, "beta": b, "region": region, "map": {"matrix": [[1.0]], "offset": [-d]}})
    chart = {"box": [[0.0, 2.0]], "resolution": [resolution], "center": [resolution // 2]}
    return {"dim": 1, "charts": [chart] * len(offsets), "overlaps": overlaps}


@pytest.mark.parametrize("resolution", [33, 65, 129])
def test_cocycle_of_constant_frames_holds_with_overlap_edges_off_the_nodes(resolution):
    # charts at 0, 0.53 and 1.01: no overlap edge is a node, so a transition
    # grid padded with the identity once read 0.820, 1.009 and 0.441 here
    g = fx.algebra("so3")
    m = build_manifold(offset_interval_spec((0.0, 0.53, 1.01), resolution))
    steps = [e / m.charts[0].spacing[0] for o in m.overlaps for e in o.region[0] if 0.0 < e < 2.0]
    assert len(steps) == 6 and all(abs(x - round(x)) > 1e-6 for x in steps)
    frames = tuple(
        np.broadcast_to(scipy.linalg.expm(theta * ad(g, np.array([0.0, 0.0, 1.0]))), chart.resolution + (3, 3)).copy()
        for theta, chart in zip((0.0, 0.7, 1.9), m.charts)
    )
    rep = validate_lab(Trivialization(g, m, frames))
    assert rep.passed and rep.max_cocycle_residual <= 1e-15


def test_validate_lab_builds_each_transition_grid_once(monkeypatch):
    m = build_manifold(three_chart_interval_spec())
    t = reference_trivialization(fx.algebra("so3"), m)
    built = []
    transition_grid = Trivialization.transition_grid

    def counted(self, overlap_index, points=None):
        if points is None:  # the cocycle legs read at points, not on the node grid
            built.append(overlap_index)
        return transition_grid(self, overlap_index, points)

    monkeypatch.setattr(Trivialization, "transition_grid", counted)
    assert validate_lab(t).passed
    # one grid per overlap, shared by the automorphism and cocycle checks
    assert sorted(built) == list(range(len(m.overlaps)))


def test_frame_products_at_the_overlap_nodes_match_the_node_grids():
    # the points path interpolates both frames; at the alpha nodes it reads
    # what the node path reads off the grid
    checked = 0
    for name in fx.BUNDLE_NAMES:
        t = fx.bundle(name)
        m = t.manifold
        for k, o in enumerate(m.overlaps):
            chart = m.charts[o.alpha]
            pts = chart.grid_points()[region_slices(chart, o.region)]
            for product in (t.transition_grid, t.coordinate_change_grid):
                at_points, on_nodes = product(k, pts), product(k)
                assert at_points.shape == on_nodes.shape
                assert np.abs(at_points - on_nodes).max() <= 1e-14, (name, k, product.__name__)
            checked += 1
    assert checked == 26  # 4 overlaps on each of the five two-chart bundles, 6 on interval3


def test_one_constant_transition_other_identity():
    # step the chart-1 frame from I to a^{-1} across the middle band: one
    # overlap component carries the constant a, the other the identity
    g = fx.algebra("so3")
    m = fx.manifold("circle2")
    a = scipy.linalg.expm(ad(g, np.array([0.0, 0.0, 0.7])))
    t1 = m.charts[1].grid_points()[..., 0]
    s = fx.smoothstep((t1 - 2.0 / 3.0) * 3.0)
    phi1 = np.stack(
        [scipy.linalg.expm(-v * 0.7 * ad(g, np.array([0.0, 0.0, 1.0]))) for v in s.ravel()]
    ).reshape(s.shape + (3, 3))
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    t = Trivialization(g, m, (eye, phi1))
    assert validate_lab(t).passed
    grids = [t.transition_grid(k) for k in range(len(m.overlaps))]
    spreads = [np.abs(gr - gr.reshape(-1, 3, 3)[0]).max() for gr in grids]
    assert max(spreads) <= 1e-9  # locally constant on every component
    values = {np.abs(gr.reshape(-1, 3, 3)[0] - np.eye(3)).max() > 1e-6 for gr in grids}
    assert values == {True, False}  # one component identity, the other a
    assert check_delta_continuity(t).passed


@pytest.mark.parametrize("name", fx.BUNDLE_NAMES)
def test_shipped_bundles_validate(name):
    rep = validate_lab(fx.bundle(name))
    assert rep.passed
    assert max(rep.max_frame_residual, rep.max_transition_residual, rep.max_cocycle_residual) <= 1e-8


def test_non_automorphism_frame_perturbation_fails_with_node():
    t = fx.bundle("circle2_so3_twisted")
    frames = [f.copy() for f in t.frames]
    frames[1][5] = frames[1][5] + np.array([[0.3, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    broken = Trivialization(t.algebra, t.manifold, tuple(frames))
    rep = validate_lab(broken)
    assert not rep.passed
    assert "chart 1" in rep.worst and "(5,)" in rep.worst


def test_frame_shape_mismatch_rejected():
    g = fx.algebra("so3")
    m = fx.manifold("interval1")
    with pytest.raises(InputError):
        Trivialization(g, m, (np.zeros((5, 3, 3)),))


# --- delta continuity ---------------------------------------------------------

def test_constant_transitions_pass_trivially():
    rep = check_delta_continuity(fx.bundle("circle2_abelian2_twisted"))
    assert rep.passed and not rep.undecided
    assert rep.counts()["outer"] == 0


def test_abelian_varying_transition_fails():
    rep = check_delta_continuity(fx.bundle("circle2_abelian2_varying"))
    assert not rep.passed
    assert rep.counts()["outer"] > 0
    assert not rep.undecided  # refuted, not inconclusive


def test_so3_inner_family_transitions_pass():
    g = fx.algebra("so3")
    m = fx.manifold("circle2")
    k = ad(g, np.array([0.0, 0.0, 1.0]))
    frames = []
    for chart in m.charts:
        t = chart.grid_points()[..., 0]
        theta = 0.4 * np.sin(2.0 * np.pi * t)
        frames.append(np.stack([scipy.linalg.expm(v * k) for v in theta.ravel()]).reshape(t.shape + (3, 3)))
    frames[0] = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    t = Trivialization(g, m, tuple(frames))
    assert validate_lab(t).passed
    rep = check_delta_continuity(t)
    assert rep.passed
    assert rep.counts()["outer"] == 0 and rep.counts()["undecided"] == 0


def test_inner_ratios_on_the_square_root_route_read_inner(monkeypatch):
    # no fixture has inner ratios outside the 0.25 series radius; here the
    # cyl2 chart-1 frames exp(ad x(p)), |x| <= 0.4 rad, give overlap ratios
    # up to 0.8 rad that take principal_logs' Denman-Beavers square roots
    g = fx.algebra("so3")
    m = fx.manifold("cyl2")
    field = random_harmonic_field(np.random.default_rng(5), m.dim, (g.dim,), amplitude=1.0, constant_scale=0.0)
    x = field(m.charts[1].grid_points())
    x *= 0.4 / np.linalg.norm(x, axis=-1).max()
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3))
    t = Trivialization(g, m, (eye, scipy.linalg.expm(ad(g, x))))
    assert validate_lab(t).passed
    square_roots = algebra._square_roots
    rows = []

    def counted(a):
        rows.append(len(a))
        return square_roots(a)

    monkeypatch.setattr(algebra, "_square_roots", counted)
    rep = check_delta_continuity(t)
    assert rep.counts() == {"inner": 1188, "outer": 0, "undecided": 0}
    assert rep.passed and rep.max_inner_residual <= 1e-13
    assert rows


def rotation_by_pi_bundle() -> Trivialization:
    """so3 on circle2 whose chart-1 node 4 carries a rotation by pi: the two
    ratios through it have no real principal log."""
    g = fx.algebra("so3")
    m = fx.manifold("circle2")
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    phi1 = np.broadcast_to(np.eye(3), m.charts[1].resolution + (3, 3)).copy()
    phi1[4] = scipy.linalg.expm(ad(g, np.array([0.0, 0.0, np.pi])))
    t = Trivialization(g, m, (eye, phi1))
    assert validate_lab(t).passed
    return t


def test_rotation_by_pi_ratios_are_decided_by_an_inner_shift(monkeypatch):
    # the two ratios through the pi node are the only ones the log route
    # leaves open; the kernel's inner shifts certify them (Aut(so3) = Inn)
    shifted = []

    def counted(*args, **kwargs):
        out = inner_verdicts(*args, **kwargs)
        shifted.extend(out[0][out[4] >= 0].tolist())  # inner flags of the shift-decided rows
        return out

    monkeypatch.setattr(bundles, "inner_verdicts", counted)
    rep = check_delta_continuity(rotation_by_pi_bundle())
    assert shifted == [True, True]
    assert rep.passed and rep.counts() == {"inner": 36, "outer": 0, "undecided": 0}


def test_rotation_by_pi_sweep_takes_each_log_once(monkeypatch):
    # one log batch for the four overlaps' ratios, and one shift batch (3
    # shifts) for the two open ones: 4 x 9 + 2 x 3 rows in two calls; the pi
    # ratios' own logs are not retried
    t = rotation_by_pi_bundle()
    principal_logs = algebra.principal_logs
    rows = []

    def counted(mats):
        rows.append(len(mats))
        return principal_logs(mats)

    monkeypatch.setattr(algebra, "principal_logs", counted)
    check_delta_continuity(t)
    assert (sum(rows), len(rows)) == (42, 2)


def test_ratio_with_a_small_determinant_is_decided_not_refused():
    # frames 10 I and -1e-4 I give the ratio -1e-5 I (det 1e-10): a valid
    # abelian2 automorphism without a real log, outer since ad = 0
    g = fx.algebra("abelian2")
    m = fx.manifold("circle2")
    f0 = np.broadcast_to(10.0 * np.eye(2), m.charts[0].resolution + (2, 2)).copy()
    f1 = f0.copy()
    f1[0] = -1e-4 * np.eye(2)
    t = Trivialization(g, m, (f0, f1))
    assert validate_lab(t).passed
    rep = check_delta_continuity(t)
    assert not rep.passed and rep.counts() == {"inner": 20, "outer": 16, "undecided": 0}


def test_delta_report_groups_cover_all_overlaps():
    t = fx.bundle("circle2_so3_twisted")
    rep = check_delta_continuity(t)
    assert len(rep.groups) == len(t.manifold.overlaps)


def test_delta_report_carries_the_sweeps_automorphism_residual():
    t = fx.bundle("cyl2_so3_twisted")
    rep = check_delta_continuity(t)
    expected = 0.0
    for k in range(len(t.manifold.overlaps)):
        grid = t.transition_grid(k).reshape(-1, 3, 3)
        expected = max(expected, float(automorphism_residuals(t.algebra, grid @ _inverses(grid[0])).max()))
    assert expected > 0.0  # round-off of the ratios, not an exact zero
    assert rep.max_aut_residual == expected


def verdict_workload_bundle(name: str) -> Trivialization:
    """The two input classes of the benchmark's verdicts workload on cyl2,
    unconjugated: identity frames on chart 0, and on chart 1 so3 frames
    exp(ad x) with |x| <= 0.4 (every ratio inner) or heis3 frames
    exp(s D) exp(ad y), D = fx.DRIFT outer, |s| <= 0.5 and |y| <= 0.5."""
    m = fx.manifold("cyl2")
    pts = m.charts[1].grid_points()
    fields = np.random.default_rng(0)
    g = fx.algebra(name)

    def field(shape, top):
        f = random_harmonic_field(fields, m.dim, shape, amplitude=1.0, constant_scale=0.0)(pts)
        return f * (top / np.abs(f).max() if not shape else top / np.linalg.norm(f, axis=-1).max())

    if name == "so3":
        frames1 = scipy.linalg.expm(ad(g, field((3,), 0.4)))
    else:
        s = field((), 0.5)
        frames1 = scipy.linalg.expm(s[..., None, None] * fx.DRIFT) @ scipy.linalg.expm(ad(g, field((3,), 0.5)))
    return Trivialization(g, m, (np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)), frames1))


def overlap_parts(t: Trivialization) -> list:
    """check_delta_continuity's sweep parts: each overlap's star from node 0."""
    return [
        (grid, (np.zeros(1, int), np.arange(grid.size // t.algebra.dim**2)), f"overlap {k} ({o.alpha}->{o.beta})")
        for k, (o, grid) in enumerate(zip(t.manifold.overlaps, t.transitions))
    ]


@pytest.mark.parametrize(
    "case", [f"{name} {refine}" for name in fx.BUNDLE_NAMES for refine in (1, 2)] + ["verdicts so3", "verdicts heis3"]
)
def test_batched_delta_sweep_is_bitwise_the_per_overlap_sweeps(case):
    # one inner_verdicts call over every overlap gives each overlap the group
    # a call of its own gives, to the bit
    name, arg = case.split()
    t = verdict_workload_bundle(arg) if name == "verdicts" else fx.bundle(name, int(arg))
    rep = check_delta_continuity(t)
    alone = [bundles._verdict_sweep(t.algebra, [part], INNER_TOL, ALG_TOL)[0] for part in overlap_parts(t)]

    def hexed(group):
        return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(group)]

    assert [hexed(x) for x in rep.groups] == [hexed(x) for x in alone]
    if name == "verdicts":
        assert rep.counts()["outer" if arg == "heis3" else "inner"] > 0


def test_delta_sweep_gates_every_part_before_any_verdict(monkeypatch):
    # the first overlap whose ratios fail the gate names the error, and no
    # ratio of any overlap reaches inner_verdicts
    t = one_step_transport_bundle()
    first = None
    for part in overlap_parts(t):
        try:
            bundles._verdict_sweep(t.algebra, [part], INNER_TOL, ALG_TOL)
        except InputError as err:
            first = first or str(err)
    assert first is not None
    calls = []
    monkeypatch.setattr(bundles, "inner_verdicts", lambda *args: calls.append(args))
    with pytest.raises(InputError) as err:
        check_delta_continuity(t)
    assert str(err.value) == first and calls == []


# Outer ratios of cyl2_heis3_drift at refine 1; CI's CLI smoke step checks the same count.
HEIS3_DRIFT_OUTER = 1152


def test_heis3_drift_fails_with_the_closed_form_outer_count():
    t = fx.bundle("cyl2_heis3_drift")
    assert validate_lab(t).passed
    m = t.manifold
    norm_d = np.linalg.norm(fx.DRIFT)
    expected = far = total = 0
    for k, o in enumerate(m.overlaps):
        chart = m.charts[o.alpha]
        pts = chart.grid_points()[region_slices(chart, o.region)].reshape(-1, m.dim)
        s = fx.DRIFT_RATE * (o.apply(pts) if o.alpha == 0 else pts)[:, 1]  # in chart-1 coordinates
        # the ratio exp(+-(s - s0) D) has log distance |s - s0| ||D||_F from span{ad}
        expected += int((np.abs(s - s[0]) * norm_d > INNER_TOL).sum())
        total += len(s)
        grid = t.transition_grid(k).reshape(-1, 3, 3)
        far += int((np.linalg.norm(grid @ np.linalg.inv(grid[0]) - np.eye(3), axis=(-2, -1)) >= 0.25).sum())
    rep = check_delta_continuity(t)
    assert expected == HEIS3_DRIFT_OUTER
    assert far == 666  # ratios on the square-root route, as the fixture says
    assert not rep.passed and not rep.undecided
    assert rep.counts() == {"inner": total - expected, "outer": expected, "undecided": 0}


@pytest.mark.parametrize("name", ["cyl2_heis3_drift", "circle2_abelian2_varying"])
def test_max_inner_residual_ignores_outer_ratios(name):
    # both structures have outer ratios far from span{ad}, and every inner
    # ratio is exactly the identity, so the largest inner residual is 0
    rep = check_delta_continuity(fx.bundle(name))
    assert not rep.passed and rep.counts()["outer"] > 0
    assert rep.max_inner_residual == 0.0
    assert all(group.max_inner_residual == 0.0 for group in rep.groups)


# Inner ratios of interval3_so3_twisted at refine 1: the nodes of its six
# overlap regions, 4 x 25 on the two chart pairs meeting over a length of 1.5
# and 2 x 17 on the pair meeting over a length of 1.
INTERVAL3_INNER = 134


def test_interval3_fixture_checks_the_cocycle_on_six_triple_overlaps():
    t = fx.bundle("interval3_so3_twisted")
    m = t.manifold
    spec = build_manifold(three_chart_interval_spec())
    for o, ref in zip(m.overlaps, spec.overlaps, strict=True):
        assert (o.alpha, o.beta) == (ref.alpha, ref.beta)
        assert np.array_equal(o.region, ref.region) and np.array_equal(o.offset, ref.offset)

    def nodes(o):
        chart = m.charts[o.alpha]
        return chart.grid_points()[region_slices(chart, o.region)]

    assert len(list(_overlap_triples(m, nodes))) == 6
    rep = validate_lab(t)
    assert rep.passed and rep.max_cocycle_residual <= 1e-15  # 2.2e-16 measured
    chart = m.charts[0]  # the three charts are alike
    assert sum(len(chart.axis_nodes(0)[region_slices(chart, o.region)]) for o in m.overlaps) == INTERVAL3_INNER
    assert check_delta_continuity(t).counts() == {"inner": INTERVAL3_INNER, "outer": 0, "undecided": 0}
    assert verify_inverse(t=t).passed


def test_frames_are_a_read_only_copy_so_cached_transitions_stay_valid():
    t = fx.bundle("circle2_so3_twisted")
    grids = [grid.copy() for grid in t.frames]
    copy = Trivialization(t.algebra, t.manifold, tuple(grids))
    before = copy.transitions[0].copy()
    grids[0][:] = 0.0  # the caller's arrays are not the structure's frames
    assert np.array_equal(copy.transitions[0], before)
    assert validate_lab(copy).passed
    with pytest.raises(ValueError):
        copy.frames[0][0] = 0.0
    with pytest.raises(ValueError):
        copy.transitions[0][0] = 0.0


def heis3_jump_bundle():
    """heis3 structure whose frames jump by diag(-1,-1,1) inside one overlap:
    the ratio has no principal log, and no inner shift gives it one, but it
    acts on g/[g,g] = span{e1, e2} as -1, which no inner automorphism does."""
    g = fx.algebra("heis3")
    m = fx.manifold("circle2")
    jump = np.diag([-1.0, -1.0, 1.0])
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    phi1 = np.broadcast_to(np.eye(3), m.charts[1].resolution + (3, 3)).copy()
    phi1[8:] = jump  # node 8 is the last node of the first overlap component
    return Trivialization(g, m, (eye, phi1))


STEEP_SCALE = 15.0


def steep_circle_coupling() -> ConnectionForm:
    """circle2_so3_twisted with its form scaled by STEEP_SCALE: a 1-D form is
    flat, so it is still a coupling, but one RK4 step per grid edge then
    leaves f_map's transitions 2.7e-5 off Aut (at the fixture's own scale
    they stay within 2.4e-12)."""
    c = fx.connection("circle2_so3_twisted")
    return ConnectionForm(c.bundle, tuple(STEEP_SCALE * w for w in c.omega))


def one_step_transport_bundle():
    """f_map's structure for steep_circle_coupling with one RK4 step per grid
    edge, passed at aut_tol 1e-2: its ratios are automorphisms to about 5e-5
    only, so their logs are no derivations, so3 has no outer character, and
    32 of them stay undecided when swept at lab_tol 1e-2."""
    return f_map(steep_circle_coupling(), ode_steps=1, aut_tol=1e-2).trivialization


def test_heis3_jump_is_refuted_by_its_characters():
    t = heis3_jump_bundle()
    assert validate_lab(t).passed  # pointwise the jump is a fine automorphism
    rep = check_delta_continuity(t)
    assert not rep.passed and not rep.undecided
    # the two ratios across the jump are outer; the other 34 are the identity
    assert rep.counts() == {"inner": 34, "outer": 2, "undecided": 0}


def test_undecided_verdicts_flag_inconclusive_not_refuted():
    t = one_step_transport_bundle()
    assert validate_lab(t, tol=1e-2).passed
    rep = check_delta_continuity(t, lab_tol=1e-2)
    assert not rep.passed
    assert rep.undecided
    counts = rep.counts()
    assert counts["undecided"] > 0 and counts["outer"] == 0


# --- equivalence ---------------------------------------------------------------

def test_self_equivalence():
    t = fx.bundle("circle2_so3_twisted")
    rep = trivializations_equivalent(t, t)
    assert rep.passed
    assert rep.max_aut_residual <= 1e-12


def test_constant_reframing_is_equivalent():
    t = fx.bundle("circle2_so3_twisted")
    g = t.algebra
    posts = [
        scipy.linalg.expm(ad(g, np.array([0.3, 0.1, 0.0]))),
        scipy.linalg.expm(ad(g, np.array([0.0, 0.2, 0.5]))),
    ]
    frames = tuple(t.frames[i] @ posts[i] for i in range(2))
    rep = trivializations_equivalent(t, Trivialization(g, t.manifold, frames))
    assert rep.passed


def test_abelian_varying_reframe_is_inequivalent():
    t = fx.bundle("circle2_abelian2_varying")
    ref = reference_trivialization(t.algebra, t.manifold)
    rep = trivializations_equivalent(t, ref)
    assert not rep.passed


@pytest.mark.parametrize("shape", [(9,), (33,), (9, 9), (33, 17), (65, 65)])
def test_snake_is_a_path_of_grid_edges_through_every_node(shape):
    a, b = bundles._snake_edges(shape)
    n = math.prod(shape)
    assert len(a) == len(b) == n - 1
    steps = np.abs(np.array(np.unravel_index(a, shape)) - np.array(np.unravel_index(b, shape)))
    assert (steps.sum(axis=0) == 1).all()  # 1 in exactly one index
    assert sorted(np.append(a, b[-1])) == list(range(n))
    assert (a[1:] == b[:-1]).all()


def _with_singular_frame(t):
    frames = [grid.copy() for grid in t.frames]
    frames[0][16] = 0.0
    return Trivialization(t.algebra, t.manifold, tuple(frames))


@pytest.mark.parametrize("singular_side", [0, 1])
def test_singular_frame_makes_structures_inequivalent(singular_side):
    t = fx.bundle("circle2_so3_twisted")
    pair = [t, t]
    pair[singular_side] = _with_singular_frame(t)
    rep = trivializations_equivalent(*pair)
    assert not rep.passed
    assert rep.max_aut_residual == math.inf
    # only chart 0 holds the singular frame; chart 1 is swept as before
    assert rep.groups[0].max_aut_residual == math.inf
    assert rep.groups[1].inner > 0 and rep.groups[1].outer == 0


def test_delta_sweep_gates_ratios_at_ten_times_lab_tol_and_at_least_trans_tol():
    # one RK4 step per edge: transitions 2.7e-5 off Aut, their ratios to node 0 5.4e-5 off
    t = one_step_transport_bundle()
    rep = check_delta_continuity(t, lab_tol=6e-6)
    assert 5e-5 < rep.max_aut_residual <= 6e-5
    assert rep.counts() == {"inner": 4, "outer": 0, "undecided": 32}
    for lab_tol, gate in ((5e-6, "5.0e-05"), (ALG_TOL, "1.0e-06")):
        with pytest.raises(InputError, match=f"not an automorphism within {gate}"):
            check_delta_continuity(t, lab_tol=lab_tol)


def test_singular_frame_fails_the_delta_sweep():
    t = fx.bundle("circle2_so3_twisted")
    frames = [grid.copy() for grid in t.frames]
    frames[0][30] = 0.0  # a node of overlap 0's region, where frames are inverted
    rep = check_delta_continuity(Trivialization(t.algebra, t.manifold, tuple(frames)))
    assert not rep.passed and not rep.undecided
    assert rep.max_inner_residual == rep.max_aut_residual == math.inf


def test_equivalence_requires_same_cover():
    t = fx.bundle("circle2_so3_twisted")
    other = reference_trivialization(t.algebra, fx.manifold("interval1"))
    with pytest.raises(InputError):
        trivializations_equivalent(t, other)


def circle2_with_flipped_gluing():
    """circle2 with its 0<->1 gluing x -> 7/6 - x: the same chart boxes,
    resolutions and overlap regions, a different cover."""
    m = fx.manifold("circle2")
    flipped = tuple(
        dataclasses.replace(o, matrix=[[-1.0]], offset=[7.0 / 6.0]) if o.region[0, 0] == 0.5 else o
        for o in m.overlaps
    )
    cover = dataclasses.replace(m, overlaps=flipped)
    _validate_overlaps(cover)
    assert sum(o is not p for o, p in zip(flipped, m.overlaps)) == 2
    return cover


def test_overlap_maps_tell_covers_apart():
    c = fx.connection("circle2_so3_twisted")
    t = c.bundle
    flipped = circle2_with_flipped_gluing()
    t_flipped = Trivialization(t.algebra, flipped, t.frames)
    with pytest.raises(InputError, match="trivializations live over different covers"):
        trivializations_equivalent(t, t_flipped)
    with pytest.raises(InputError, match="connections live over different covers"):
        coupling_equivalent(c, ConnectionForm(t_flipped, c.omega))
    with pytest.raises(InputError, match="map target does not match"):
        pullback_lab(t, identity_map(flipped))


def test_equivalence_requires_same_algebra():
    t = fx.bundle("circle2_so3_twisted")
    other = reference_trivialization(fx.algebra("heis3"), t.manifold)
    with pytest.raises(InputError, match="trivializations live over different algebras"):
        trivializations_equivalent(t, other)


def test_delta_verdict_invariant_under_equivalence():
    pairs = [
        ("circle2_so3_twisted", True),
        ("circle2_abelian2_twisted", True),
        ("circle2_abelian2_varying", False),
    ]
    for name, expected in pairs:
        t = fx.bundle(name)
        n = t.algebra.dim
        post = np.eye(n) * 1.0 if n != 2 else np.diag([3.0, 0.5])
        if n == 3:
            post = scipy.linalg.expm(ad(t.algebra, np.array([0.2, -0.1, 0.4])))
        t2 = Trivialization(t.algebra, t.manifold, tuple(f @ post for f in t.frames))
        assert trivializations_equivalent(t, t2).passed
        r1 = check_delta_continuity(t)
        r2 = check_delta_continuity(t2)
        assert r1.passed == r2.passed == expected


# --- pullback -------------------------------------------------------------------

def test_pullback_along_identity_keeps_frames():
    t = fx.bundle("circle2_so3_twisted")
    tp = pullback_lab(t, identity_map(t.manifold))
    for a, b in zip(t.frames, tp.frames):
        assert np.abs(a - b).max() <= 1e-12


def test_pullback_along_constant_map_is_delta_trivial():
    t = fx.bundle("circle2_so3_twisted")
    f = constant_map(fx.manifold("circle4"), t.manifold, 0, [0.25])
    tc = pullback_lab(t, f)
    assert validate_lab(tc).passed
    # constant frames: every transition is constant
    rep = check_delta_continuity(tc)
    assert rep.passed


def test_degree2_pullback_validates_and_preserves_delta_verdict():
    t = fx.bundle("circle2_so3_twisted")
    tp = pullback_lab(t, degree2_circle_map())
    assert validate_lab(tp).passed
    assert check_delta_continuity(tp).passed == check_delta_continuity(t).passed


def test_degree2_pullback_of_failing_bundle_still_fails():
    t = fx.bundle("circle2_abelian2_varying")
    tp = pullback_lab(t, degree2_circle_map())
    assert validate_lab(tp).passed
    assert not check_delta_continuity(tp).passed


def test_pullback_rejects_escaping_image():
    m2 = fx.manifold("circle2")
    t = fx.bundle("circle2_so3_twisted")
    bad = ManifoldMap.__new__(ManifoldMap)  # bypass constructor validation
    object.__setattr__(bad, "source", fx.manifold("interval1"))
    object.__setattr__(bad, "target", m2)
    object.__setattr__(bad, "assignments", (ChartAssignment(0, [[2.0]], [0.0]),))
    with pytest.raises(InputError):
        pullback_lab(t, bad)


def test_pullback_preserves_validity_on_all_fixture_bundles():
    for name in ("circle2_so3_twisted", "circle2_abelian2_twisted"):
        t = fx.bundle(name)
        tp = pullback_lab(t, degree2_circle_map())
        assert validate_lab(tp).passed
