"""Bundle-structure tests: validation, discrete-quotient continuity,
equivalence, and pullback."""

import math

import numpy as np
import pytest
import scipy.linalg

from labcoupling import bundles, fixtures as fx
from labcoupling.algebra import ad, automorphism_residuals, is_inner
from labcoupling.bundles import (
    Trivialization,
    check_delta_continuity,
    pullback_lab,
    reference_trivialization,
    trivializations_equivalent,
    validate_lab,
)
from labcoupling.errors import InputError
from labcoupling.manifolds import (
    ChartAssignment,
    ManifoldMap,
    build_manifold,
    constant_map,
    identity_map,
    interpolate,
)
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
    queried = []

    def counted(chart, values, points):
        queried.append(len(points))
        return interpolate(chart, values, points)

    monkeypatch.setattr(bundles, "interpolate", counted)
    rep = validate_lab(t)
    assert rep.passed and rep.max_cocycle_residual <= 1e-12
    # six orderings of the three charts, each sampling two transitions on
    # the five nodes of [1, 2]
    assert queried == [5] * 12


def test_cocycle_check_embeds_each_transition_grid_once(monkeypatch):
    m = build_manifold(three_chart_interval_spec())
    t = reference_trivialization(fx.algebra("so3"), m)
    embedded = []
    embed_on_chart = bundles._embed_on_chart

    def counted(t, overlap_index, grid):
        embedded.append(overlap_index)
        return embed_on_chart(t, overlap_index, grid)

    monkeypatch.setattr(bundles, "_embed_on_chart", counted)
    assert validate_lab(t).passed
    # the 12 second and third legs of the six triples use each of the six
    # overlaps, and each is embedded into its alpha chart only once
    assert sorted(embedded) == list(range(len(m.overlaps)))


def test_validate_lab_builds_each_transition_grid_once(monkeypatch):
    m = build_manifold(three_chart_interval_spec())
    t = reference_trivialization(fx.algebra("so3"), m)
    built = []
    transition_grid = Trivialization.transition_grid

    def counted(self, overlap_index):
        built.append(overlap_index)
        return transition_grid(self, overlap_index)

    monkeypatch.setattr(Trivialization, "transition_grid", counted)
    assert validate_lab(t).passed
    # one grid per overlap, shared by the automorphism and cocycle checks
    assert sorted(built) == list(range(len(m.overlaps)))


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


def test_rotation_by_pi_ratio_falls_back_to_is_inner(monkeypatch):
    # one chart-1 node of the first overlap component carries a rotation by
    # pi: the two ratios through it have no real principal log, so they alone
    # reach is_inner, whose factor search certifies them (Aut(so3) = Inn)
    g = fx.algebra("so3")
    m = fx.manifold("circle2")
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    phi1 = np.broadcast_to(np.eye(3), m.charts[1].resolution + (3, 3)).copy()
    phi1[4] = scipy.linalg.expm(ad(g, np.array([0.0, 0.0, np.pi])))
    t = Trivialization(g, m, (eye, phi1))
    assert validate_lab(t).passed
    verdicts = []

    def counted(*args, **kwargs):
        v = is_inner(*args, **kwargs)
        verdicts.append(v.verdict)
        return v

    monkeypatch.setattr(bundles, "is_inner", counted)
    rep = check_delta_continuity(t)
    assert verdicts == ["inner", "inner"]
    assert rep.passed and rep.counts() == {"inner": 36, "outer": 0, "undecided": 0}


def test_delta_report_groups_cover_all_overlaps():
    t = fx.bundle("circle2_so3_twisted")
    rep = check_delta_continuity(t)
    assert len(rep.groups) == len(t.manifold.overlaps)


def undecidable_heis3_bundle():
    """heis3 structure whose frames jump by diag(-1,-1,1) inside one overlap:
    the ratio has no principal log, positive determinant, and a nontrivial
    inner span, so the bounded search cannot decide it."""
    g = fx.algebra("heis3")
    m = fx.manifold("circle2")
    jump = np.diag([-1.0, -1.0, 1.0])
    eye = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    phi1 = np.broadcast_to(np.eye(3), m.charts[1].resolution + (3, 3)).copy()
    phi1[8:] = jump  # node 8 is the last node of the first overlap component
    return Trivialization(g, m, (eye, phi1))


def test_undecided_verdicts_flag_inconclusive_not_refuted():
    t = undecidable_heis3_bundle()
    assert validate_lab(t).passed  # pointwise the jump is a fine automorphism
    rep = check_delta_continuity(t)
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
    assert rep.groups[0].max_inner_residual == math.inf
    assert rep.groups[1].inner > 0 and rep.groups[1].outer == 0


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
