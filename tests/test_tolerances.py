"""The shared residual reduction and the named gates."""

import math

import numpy as np

from labcoupling.tolerances import (
    CHARACTER_AUT_TOL,
    G_MAP_LAB_TOL,
    INNER_AUT_TOL,
    LEIBNIZ_TOL,
    ROUNDTRIP_AUT_TOL,
    SKEW_TOL,
    WELL_DEFINED_AUT_TOL,
    character_gate,
    peak,
)


def test_peak_is_the_largest_entry_and_reads_nan_as_inf():
    assert peak() == 0.0 and peak(np.zeros((0, 3))) == 0.0
    assert peak(np.array([1e-9, 2e-9]), [3e-9], 5e-10) == 3e-9
    assert peak(np.array([1e-9, np.nan])) == math.inf
    assert peak([0.5], np.array([[np.nan]]), [2.0]) == math.inf  # max(0.5, nan) would be 0.5
    assert peak(np.array([np.inf, 1.0])) == math.inf


def test_named_gates_have_their_pinned_values():
    assert (INNER_AUT_TOL, WELL_DEFINED_AUT_TOL, ROUNDTRIP_AUT_TOL) == (1e-6, 1e-6, 1e-5)
    assert G_MAP_LAB_TOL == 100 * 1e-9
    assert (SKEW_TOL, LEIBNIZ_TOL) == (1e-12, 1e-4)


def test_character_gate_clears_the_exponential_bound():
    # a character within expm1(inner_tol) of I may belong to an inner row
    assert CHARACTER_AUT_TOL == 100 * 1e-9
    assert abs(character_gate(1e-6) - 2e-6) <= 1e-12
    for inner_tol in (1e-6, 1e-2, 2.0):
        assert character_gate(inner_tol) > math.expm1(inner_tol)
