"""Transitive Lie algebroid brackets on sections of L + TM.

A section is a pair (u, X) of a fiber field and a tangent field; the bracket
built from a coupling connection and its recovered two-form is

    {(u1, X1), (u2, X2)} =
        ([u1, u2] + nabla_{X1} u2 - nabla_{X2} u1 + Omega(X1, X2), [X1, X2])

evaluated nodewise in this one argument order.  Every term (the fiber
bracket in pair form, the difference of covariant derivatives, the Omega
contraction and the vector-field bracket) negates exactly when the sections
swap, so the skew axiom holds to the last bit; the Leibniz and Jacobi axioms
hold up to the finite-difference budget and are probed on random band-limited
sections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import bracket
from .connections import ConnectionForm, CurvatureData, covariant_partials
from .errors import InputError
from .manifolds import chart_grids, directional, grid_partials, lie_bracket_partials, random_harmonic_field
from .tolerances import peak


@dataclass(frozen=True)
class AlgebroidSection:
    """Pair of per-chart grids: fiber part u and (anchor image) tangent part X."""

    u: tuple
    x: tuple

    @classmethod
    def of(cls, u, x) -> "AlgebroidSection":
        return cls(tuple(np.asarray(g, dtype=float) for g in u), tuple(np.asarray(g, dtype=float) for g in x))


def _partials(c: ConnectionForm, s: AlgebroidSection) -> tuple:
    """The pair (s, (covariant partials of u, grid partials of X)), per chart,
    that ``_bracket`` reads; covariant_partials checks u, and X is checked
    here."""
    x = chart_grids(c.manifold, s.x, (c.manifold.dim,), "section tangent part")
    return s, (covariant_partials(c, s.u), grid_partials(c.manifold, x))


def omega_contract(curv: CurvatureData, cid: int, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Omega(X1, X2) = sum_{i<j} (X1^i X2^j - X1^j X2^i) Omega_ij nodewise,
    from the coupling form that ``curvature`` recovers on chart cid."""
    form = curv.omega_form[cid]
    out = np.zeros(x1.shape[:-1] + (form.shape[-1],))
    for p, (i, j) in enumerate(curv.pairs):
        area = x1[..., i] * x2[..., j] - x1[..., j] * x2[..., i]
        out += area[..., None] * form[..., p, :]
    return out


def _bracket(c: ConnectionForm, curv: CurvatureData, a: tuple, b: tuple) -> AlgebroidSection:
    """The coupling bracket of two ``_partials`` pairs."""
    (s1, (cov1, dx1)), (s2, (cov2, dx2)) = a, b
    u, x = [], []
    for cid in range(len(c.manifold.charts)):
        u1, x1, u2, x2 = s1.u[cid], s1.x[cid], s2.u[cid], s2.x[cid]
        nabla = directional(x1, cov2[cid]) - directional(x2, cov1[cid])
        u.append(bracket(c.algebra, u1, u2) + nabla + omega_contract(curv, cid, x1, x2))
        x.append(lie_bracket_partials(x1, dx1[cid], x2, dx2[cid]))
    return AlgebroidSection(tuple(u), tuple(x))


def algebroid_bracket(
    c: ConnectionForm, curv: CurvatureData, s1: AlgebroidSection, s2: AlgebroidSection
) -> AlgebroidSection:
    """The coupling bracket in one argument order; swapping the arguments
    negates the output exactly, term by term.  Each section's partials are
    taken once."""
    return _bracket(c, curv, _partials(c, s1), _partials(c, s2))


def _max_norm(section: AlgebroidSection) -> float:
    return peak(*(np.abs(grid) for grid in section.u + section.x))


def _combine(a: AlgebroidSection, b: AlgebroidSection, sa: float, sb: float) -> AlgebroidSection:
    return AlgebroidSection(
        tuple(sa * x + sb * y for x, y in zip(a.u, b.u)),
        tuple(sa * x + sb * y for x, y in zip(a.x, b.x)),
    )


def _times(f: list, s: AlgebroidSection) -> AlgebroidSection:
    """The section scaled nodewise by a per-chart scalar field."""
    return AlgebroidSection(
        tuple(fc[..., None] * u for fc, u in zip(f, s.u)),
        tuple(fc[..., None] * x for fc, x in zip(f, s.x)),
    )


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    max_skew: float
    max_leibniz: float
    max_jacobi: float

    def residuals(self) -> dict:
        return {"skew": self.max_skew, "leibniz": self.max_leibniz, "jacobi": self.max_jacobi}


def random_section(c: ConnectionForm, rng: np.random.Generator) -> AlgebroidSection:
    m = c.manifold
    n = c.algebra.dim
    u = random_harmonic_field(rng, m.dim, (n,), amplitude=0.01).sample(m)
    x = random_harmonic_field(rng, m.dim, (m.dim,), amplitude=0.01, constant_scale=0.5).sample(m)
    return AlgebroidSection.of(u, x)


def axiom_report(
    c: ConnectionForm, curv: CurvatureData, trials: int = 10, seed: int = 0
) -> AxiomReport:
    """Probe the three bracket axioms on random band-limited sections.

    Skew commutativity is structural (exact); the anchored Leibniz rule and
    the Jacobi identity carry the finite-difference error of the grids.
    Fewer than one trial would probe nothing and read as all-zero residuals,
    so it is an InputError, as is a negative seed.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    m = c.manifold
    skew, leibniz, jacobi = [], [], []
    for _ in range(trials):
        s1 = random_section(c, rng)
        s2 = random_section(c, rng)
        s3 = random_section(c, rng)
        f = random_harmonic_field(rng, m.dim, (), amplitude=0.01).sample(m)

        # each of the trial's seven sections has its partials taken once
        p1, p2, p3 = (_partials(c, s) for s in (s1, s2, s3))
        b12 = _bracket(c, curv, p1, p2)
        b21 = _bracket(c, curv, p2, p1)
        skew.append(_max_norm(_combine(b12, b21, 1.0, 1.0)))

        lhs = _bracket(c, curv, p1, _partials(c, _times(f, s2)))
        anchored = [directional(x1, df) for x1, df in zip(s1.x, grid_partials(m, f))]
        expected = _combine(_times(anchored, s2), _times(f, b12), 1.0, 1.0)
        leibniz.append(_max_norm(_combine(lhs, expected, 1.0, -1.0)))

        j1 = _bracket(c, curv, p1, _partials(c, _bracket(c, curv, p2, p3)))
        j2 = _bracket(c, curv, p3, _partials(c, b12))
        j3 = _bracket(c, curv, p2, _partials(c, _bracket(c, curv, p3, p1)))
        total = _combine(_combine(j1, j2, 1.0, 1.0), j3, 1.0, 1.0)
        jacobi.append(_max_norm(total))
    return AxiomReport(trials, peak(skew), peak(leibniz), peak(jacobi))
