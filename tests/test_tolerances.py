"""The shared residual reduction."""

import math

import numpy as np

from labcoupling.tolerances import peak


def test_peak_is_the_largest_entry_and_reads_nan_as_inf():
    assert peak() == 0.0 and peak(np.zeros((0, 3))) == 0.0
    assert peak(np.array([1e-9, 2e-9]), [3e-9], 5e-10) == 3e-9
    assert peak(np.array([1e-9, np.nan])) == math.inf
    assert peak([0.5], np.array([[np.nan]]), [2.0]) == math.inf  # max(0.5, nan) would be 0.5
    assert peak(np.array([np.inf, 1.0])) == math.inf
