"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Tolerances are pinned here, not configurable: they are the exit contract.
"""

import time

import numpy as np
import scipy.linalg

from labcoupling import fixtures as fx
from labcoupling.algebra import (
    ad,
    automorphism_residuals,
    derivations_basis,
    unit_vector,
    validate_algebra,
)
from labcoupling.algebroid import axiom_report
from labcoupling.bundles import check_delta_continuity, monodromy, pullback_lab, validate_lab
from labcoupling.connections import accordance, pullback_connection, shift_by_inner
from labcoupling.correspondence import _rk4, f_map, verify_g_well_defined, verify_inverse
from labcoupling.bundles import Trivialization
from labcoupling.manifolds import (
    grid_derivative,
    partition_of_unity,
    random_harmonic_field,
)
from tests.test_algebra import derivation_constraint_oracle, null_dim_oracle
from tests.test_bundles import degree2_circle_map


def report(criterion: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {state}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_algebra_kernel():
    expected_dims = {"abelian2": 4, "so3": 3, "heis3": 6, "aff1": 2}
    ok = True
    details = []
    for name in fx.ALGEBRA_NAMES:
        g = fx.algebra(name)
        rep = validate_algebra(g)
        ok &= rep.passed and max(rep.max_antisymmetry, rep.max_jacobi) <= 1e-12
        basis = derivations_basis(g)
        oracle_dim = null_dim_oracle(derivation_constraint_oracle(g))
        ok &= len(basis) == expected_dims[name] == oracle_dim
        details.append(f"{name}: der={len(basis)}")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in fx.ALGEBRA_NAMES:
        g = fx.algebra(name)
        basis = derivations_basis(g)
        for _ in range(250):  # 1000 random derivations across the fixtures
            coeff = rng.normal(size=len(basis))
            d = sum(c * b for c, b in zip(coeff, basis))
            d *= min(1.0, 1.5 / max(np.linalg.norm(d), 1e-12))
            worst = max(worst, float(automorphism_residuals(g, scipy.linalg.expm(d))))
    ok &= worst <= 1e-9
    report("criterion 1 (algebra kernel)", ok, "; ".join(details) + f"; exp residual {worst:.2e}")


def test_criterion_2_delta_semantics():
    t0 = time.perf_counter()
    failing = check_delta_continuity(fx.bundle("circle2_abelian2_varying"))
    t_fail = time.perf_counter() - t0
    t0 = time.perf_counter()
    passing = check_delta_continuity(fx.bundle("circle2_so3_twisted"))
    t_pass = time.perf_counter() - t0
    ok = (
        not failing.passed
        and passing.passed
        and passing.counts()["outer"] == 0
        and t_fail <= 5.0
        and t_pass <= 5.0
    )
    report(
        "criterion 2 (delta semantics)",
        ok,
        f"abelian fails ({failing.counts()['outer']} outer), so3 passes, "
        f"runtimes {t_fail:.2f}s/{t_pass:.2f}s",
    )


def test_criterion_3_coupling_condition():
    bad = accordance(fx.connection("disk2d_abelian2_nonflat"))
    r_norm = max(
        float(np.linalg.norm(grid, axis=(-2, -1)).max()) for grid in bad.curvature.r
    )
    good = accordance(fx.connection("disk2d_so3_nonflat"))
    ok = (
        not bad.passed
        and abs(bad.max_residual - r_norm) <= 1e-12
        and good.passed
        and good.max_residual <= 1e-8
    )
    report(
        "criterion 3 (coupling condition)",
        ok,
        f"abelian residual {bad.max_residual:.3f} = max||R||, so3 residual {good.max_residual:.2e}",
    )


def test_criterion_4_closure_theorem():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for name in fx.COUPLING_NAMES:
        c = fx.connection(name)
        m = c.manifold
        for _ in range(20):
            l = random_harmonic_field(rng, m.dim, (m.dim, c.algebra.dim), amplitude=0.02).sample(m)
            result = accordance(shift_by_inner(c, l))
            ok &= result.passed and result.max_residual <= 1e-4
            worst = max(worst, result.max_residual)
    report("criterion 4 (closure under inner shifts)", ok, f"max residual {worst:.2e}")


def test_criterion_5_transport_trivialization_theorem():
    ok = True
    details = []
    for name in fx.COUPLING_NAMES:
        fm = f_map(fx.connection(name))
        counts = fm.delta.counts()
        ok &= fm.lab_report.max_transition_residual <= 1e-6
        ok &= fm.delta.passed and counts["outer"] == 0 and counts["undecided"] == 0
        details.append(f"{name}: aut {fm.lab_report.max_transition_residual:.1e}")
    report("criterion 5 (transport trivializations)", ok, "; ".join(details))


def test_criterion_6_inverse_theorems():
    t = fx.bundle("circle2_so3_twisted")
    h1 = partition_of_unity(t.manifold, sharpness=1.0)
    h2 = partition_of_unity(t.manifold, sharpness=2.0)
    posts = [
        scipy.linalg.expm(ad(t.algebra, np.array([0.2, 0.0, 0.1]))),
        scipy.linalg.expm(ad(t.algebra, np.array([0.0, -0.3, 0.2]))),
    ]
    reframed = Trivialization(t.algebra, t.manifold, tuple(t.frames[i] @ posts[i] for i in range(2)))
    wd = verify_g_well_defined(t, reframed, h1, h2)
    ok = wd.passed
    details = [f"well-defined residual {wd.max_residual:.2e}"]
    for name in ("interval1_so3_flat", "circle2_so3_twisted", "disk2d_so3_nonflat"):
        rep = verify_inverse(c=fx.connection(name))
        d1 = rep.directions["connection_roundtrip"]
        ok &= rep.passed and not rep.inconclusive and d1.residual <= 1e-4
        details.append(f"{name}: {d1.residual:.1e}")
    report("criterion 6 (f and g mutually inverse)", ok, "; ".join(details))


def test_criterion_7_algebroid_axioms():
    c = fx.connection("disk2d_so3_nonflat")
    rep = axiom_report(c, accordance(c).curvature, trials=6, seed=0)
    jac = [rep.max_jacobi]
    c2 = fx.connection("disk2d_so3_nonflat", refine=2)
    rep2 = axiom_report(c2, accordance(c2).curvature, trials=6, seed=0)
    jac.append(rep2.max_jacobi)
    order = float(np.log2(jac[0] / jac[1]))
    ok = rep.max_skew == 0.0 and rep.max_leibniz <= 1e-4 and 1.5 <= order <= 2.5
    report(
        "criterion 7 (algebroid axioms)",
        ok,
        f"skew {rep.max_skew:.1e}, leibniz {rep.max_leibniz:.1e}, jacobi order {order:.2f}",
    )


def test_criterion_8_discretization_orders():
    # RK4 against the closed-form transport of the constant form A = -d/2
    d = ad(fx.algebra("so3"), unit_vector(3, 2))
    exact = scipy.linalg.expm(-0.5 * d)
    stages = (-0.5 * d[..., None], np.zeros((3, 3, 1)))
    errs = [np.abs(_rk4(*stages, steps)[..., 0] - exact).max() for steps in (8, 16)]
    rk4_ratio = errs[0] / errs[1]
    fd_errs = []
    for refine in (1, 2):
        mm = fx.manifold("interval1", refine=refine)
        x = mm.charts[0].grid_points()[..., 0]
        deriv = grid_derivative(mm.charts[0], np.sin(2 * np.pi * x), 0)
        fd_errs.append(np.abs(deriv - 2 * np.pi * np.cos(2 * np.pi * x)).max())
    fd_ratio = fd_errs[0] / fd_errs[1]
    ok = 12.0 <= rk4_ratio <= 20.0 and 3.5 <= fd_ratio <= 4.5
    report(
        "criterion 8 (discretization orders)",
        ok,
        f"RK4 ratio {rk4_ratio:.1f}, FD ratio {fd_ratio:.2f}",
    )


def test_criterion_9_pullback():
    f = degree2_circle_map()
    bundle = pullback_lab(fx.bundle("circle2_so3_twisted"), f)
    lab = validate_lab(bundle)
    c = fx.connection("circle2_so3_twisted")
    holonomy = monodromy(f_map(c).trivialization)
    pulled = pullback_connection(c, f)
    doubled = monodromy(f_map(pulled).trivialization)
    err = float(np.abs(doubled - holonomy @ holonomy).max())
    ok = lab.passed and err <= 1e-5
    report("criterion 9 (pullback)", ok, f"bundle valid, squared-holonomy error {err:.1e}")
