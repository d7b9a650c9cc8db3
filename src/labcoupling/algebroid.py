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

One kernel forms the bracket, on per-chart arrays with the values first and
the grid axes last, (k, batch, *resolution): every product and sum runs over
whole grids.  ``axiom_report`` stacks its trials on the batch axis, two per
pass; ``algebroid_bracket`` transposes its sections in and out, with a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connections import ConnectionForm, CurvatureData, covariant_partials
from .errors import InputError
from .manifolds import (
    HarmonicField,
    _integer,
    chart_grids,
    directional,
    grid_partials,
    lie_bracket_partials,
    random_harmonic_field,
)
from .tolerances import peak

# Trials stacked on the batch axis of one axiom_report pass: the live set
# grows with the width, and two already make the per-grid ops long.
_PASS_TRIALS = 2


@dataclass(frozen=True)
class AlgebroidSection:
    """Pair of per-chart grids: fiber part u and (anchor image) tangent part X."""

    u: tuple
    x: tuple


@dataclass(frozen=True)
class _Section:
    """A section in the kernel layout, per chart: u (n, batch, *grid) and X
    (dim, batch, *grid), with the covariant partials of u and the grid
    partials of X, each in the layout of its field."""

    u: list
    x: list
    cov: list
    dx: list


def _section(c: ConnectionForm, u: list, x: list) -> _Section:
    """Each section's partials are taken once, here."""
    return _Section(u, x, covariant_partials(c, u), grid_partials(c.manifold, x))


def _omega_forms(curv: CurvatureData, dim: int) -> list:
    """Omega_ij per chart in the kernel layout, (P, n, 1, *grid)."""
    return [np.moveaxis(form, range(dim), range(-dim, 0))[:, :, None] for form in curv.omega_form]


def _bracket(c: ConnectionForm, curv: CurvatureData, forms: list, a: _Section, b: _Section) -> tuple:
    """The coupling bracket of two kernel sections, as per-chart (u, x)."""
    i, j, skew = c.algebra.bracket_pairs
    u, x = [], []
    for cid in range(len(c.manifold.charts)):
        u1, x1, u2, x2 = a.u[cid], a.x[cid], b.u[cid], b.x[cid]
        area = np.empty((len(i),) + u1.shape[1:])
        for p, (k, l) in enumerate(zip(i.tolist(), j.tolist())):
            np.multiply(u1[k], u2[l], out=area[p])
            area[p] -= u1[l] * u2[k]
        fiber = (skew.T @ area.reshape(len(i), math.prod(area.shape[1:]))).reshape(u1.shape)
        nabla = directional(x1, b.cov[cid])
        nabla -= directional(x2, a.cov[cid])
        omega = np.zeros(u1.shape)
        for p, (k, l) in enumerate(curv.pairs):
            omega += (x1[k] * x2[l] - x1[l] * x2[k]) * forms[cid][p]
        fiber += nabla
        u.append(np.add(fiber, omega, out=fiber))
        x.append(lie_bracket_partials(x1, a.dx[cid], x2, b.dx[cid]))
    return u, x


def algebroid_bracket(
    c: ConnectionForm, curv: CurvatureData, s1: AlgebroidSection, s2: AlgebroidSection
) -> AlgebroidSection:
    """The coupling bracket in one argument order; swapping the arguments
    negates the output exactly, term by term.  Each section's partials are
    taken once."""
    m = c.manifold
    sections = []
    for s in (s1, s2):
        u = chart_grids(m, s.u, (c.algebra.dim,), "fiber field")
        x = chart_grids(m, s.x, (m.dim,), "section tangent part")
        sections.append(_section(c, *([np.moveaxis(g, -1, 0)[:, None] for g in field] for field in (u, x))))
    out = _bracket(c, curv, _omega_forms(curv, m.dim), *sections)
    return AlgebroidSection(*(tuple(np.ascontiguousarray(np.moveaxis(g[:, 0], 0, -1)) for g in field) for field in out))


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    max_skew: float
    max_leibniz: float
    max_jacobi: float

    def residuals(self) -> dict:
        return {"skew": self.max_skew, "leibniz": self.max_leibniz, "jacobi": self.max_jacobi}


def _section_fields(c: ConnectionForm, rng: np.random.Generator) -> tuple:
    """The harmonic fields of a random section, u then X."""
    dim = c.manifold.dim
    u = random_harmonic_field(rng, dim, (c.algebra.dim,), amplitude=0.01)
    return u, random_harmonic_field(rng, dim, (dim,), amplitude=0.01, constant_scale=0.5)


def random_section(c: ConnectionForm, rng: np.random.Generator) -> AlgebroidSection:
    return AlgebroidSection(*(tuple(f.sample(c.manifold)) for f in _section_fields(c, rng)))


def _trial_maxima(*fields: list) -> np.ndarray:
    """Per trial, the largest |entry| over per-chart kernel arrays (values,
    batch, *grid); NaN stays NaN, for peak to read."""
    return np.max([np.abs(g).max(axis=(0, *range(2, g.ndim))) for field in fields for g in field], axis=0)


def _sum(a: tuple, b: tuple) -> tuple:
    """Two per-chart (u, x) pairs added part by part."""
    return tuple([p + q for p, q in zip(*parts)] for parts in zip(a, b))


def _residuals(c: ConnectionForm, curv: CurvatureData, forms: list, roles: list) -> tuple:
    """Skew, Leibniz and Jacobi residuals of one pass, per trial; roles are
    the sampled u1, X1, u2, X2, u3, X3 and f.  Each intermediate is dropped
    once its check has read it, and the Jacobi sum is built term by term."""
    u1, x1, u2, x2, u3, x3, f = roles
    s1, s2, s3 = _section(c, u1, x1), _section(c, u2, x2), _section(c, u3, x3)

    def br(a: _Section, b: _Section) -> tuple:
        return _bracket(c, curv, forms, a, b)

    b12 = br(s1, s2)
    skew = _trial_maxima(*_sum(b12, br(s2, s1)))

    # [s1, f s2] against the anchored rule (X1 f) s2 + f [s1, s2]
    lhs = br(s1, _section(c, [fc * g for fc, g in zip(f, u2)], [fc * g for fc, g in zip(f, x2)]))
    anchored = [directional(x, df) for x, df in zip(x1, grid_partials(c.manifold, f))]
    leibniz = _trial_maxima(
        *(
            [lc - (a * sc + fc * bc) for lc, a, sc, fc, bc in zip(lp, anchored, sp, f, bp)]
            for lp, sp, bp in zip(lhs, (u2, x2), b12)
        )
    )
    del lhs, anchored

    total = br(s1, _section(c, *br(s2, s3)))
    total = _sum(total, br(s3, _section(c, *b12)))
    del b12
    total = _sum(total, br(s2, _section(c, *br(s3, s1))))
    return skew, leibniz, _trial_maxima(*total)


def axiom_report(
    c: ConnectionForm, curv: CurvatureData, trials: int = 10, seed: int = 0
) -> AxiomReport:
    """Probe the three bracket axioms on random band-limited sections.

    Skew commutativity is structural (exact); the anchored Leibniz rule and
    the Jacobi identity carry the finite-difference error of the grids.
    Every trial's fields are drawn first, in trial order; the trials then run
    in passes of two on the batch axis of the kernel (an odd last trial runs
    alone), with the same per-node arithmetic as one trial at a time.
    Fewer than one trial would probe nothing and read as all-zero residuals,
    so it is an InputError, as are a negative seed and a count or seed that
    is not an integer (a bool included).
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    m = c.manifold
    # per trial: u1, X1, u2, X2, u3, X3, f
    draws = [
        (*_section_fields(c, rng), *_section_fields(c, rng), *_section_fields(c, rng),
         random_harmonic_field(rng, m.dim, (), amplitude=0.01))
        for _ in range(trials)
    ]
    forms = _omega_forms(curv, m.dim)
    found = []
    for start in range(0, trials, _PASS_TRIALS):
        fields = zip(*draws[start : start + _PASS_TRIALS])
        roles = [HarmonicField.stack(role).sample_leading(m) for role in fields]
        found.append(_residuals(c, curv, forms, roles))
    skew, leibniz, jacobi = (np.concatenate(r) for r in zip(*found))
    return AxiomReport(trials, peak(skew), peak(leibniz), peak(jacobi))
