"""Self-tests of the benchmark: determinism, the output checks, set-up failure.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.locate_library()

import spans  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC_COUNTS = (
    "manifolds.interpolate.points",
    "manifolds.interpolate.bytes_gathered",
    "correspondence.rk4_node_steps",
    "algebra.is_inner.calls",
    "algebra.is_inner.inner",
    "algebra.is_inner.outer",
    "algebra.is_inner.undecided",
    "algebra.principal_log.calls",
    "algebra.inner_log_residuals.rows",
    "algebra.inner_log_residuals.series_ratio",
    "bundles.transition_grid.calls",
)


def test_same_seed_gives_same_counts_and_residual():
    first = run.measure("roundtrip", seed=3, seconds=0.0, trace=True)
    second = run.measure("roundtrip", seed=3, seconds=0.0, trace=True)
    assert first["failed"] == second["failed"] == 0
    for name in DETERMINISTIC_COUNTS:
        assert first["per_layer"][name] == second["per_layer"][name], name
    assert first["per_layer"]["correspondence.rk4_node_steps"][0] > 0
    assert first["per_layer"]["bundles.transition_grid.calls"][0] > 0
    assert first["end_to_end"]["residual.max"] == second["end_to_end"]["residual.max"]


def test_recorder_restores_every_binding():
    import labcoupling
    from labcoupling import bundles, correspondence

    before = (labcoupling.f_map, bundles.interpolate, bundles.is_inner, bundles.Trivialization.transition_grid)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert bundles.interpolate is not before[1]
        assert correspondence.f_map is not before[0]
    finally:
        rec.uninstall()
    after = (labcoupling.f_map, bundles.interpolate, bundles.is_inner, bundles.Trivialization.transition_grid)
    assert all(a is b for a, b in zip(before, after))


def test_worst_turns_nan_into_inf():
    assert workloads.worst(np.array([1e-9, 2e-9])) == 2e-9
    assert workloads.worst(np.array([1e-9, np.nan])) == math.inf
    assert workloads.worst(np.array([]), np.array([3.0])) == 3.0


def test_roundtrip_check_rejects_nonfinite_and_undecided():
    c = workloads._shifted("cyl2_so3_twisted", 1, np.random.default_rng(0), workloads.ROUNDTRIP_SHIFT)
    inp = {"c": c}

    def report(residual, undecided=0):
        d = SimpleNamespace(passed=True, residual=residual, undecided=undecided)
        dirs = {"connection_roundtrip": d, "trivialization_roundtrip": d}
        return SimpleNamespace(directions=dirs, passed=True, inconclusive=False)

    assert workloads.roundtrip_check(inp, (c, report(1e-12))).ok
    assert not workloads.roundtrip_check(inp, (c, report(float("nan")))).ok
    assert not workloads.roundtrip_check(inp, (c, report(1e-12, undecided=1))).ok


def test_verdicts_check_rejects_the_wrong_class():
    rng = np.random.default_rng([0, 1, 1])
    inp = workloads.verdicts_make(rng, 1, run.OUT)  # outer-drift class
    out = workloads.verdicts_run(inp)
    assert workloads.verdicts_check(inp, out).ok
    inp["inner_class"] = True
    assert not workloads.verdicts_check(inp, out).ok


def test_tail_is_the_order_statistic_with_ten_beyond():
    value, pct, beyond = run.tail(list(range(40)))
    assert (value, beyond) == (29, 10) and pct == pytest.approx(72.5)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_exits_without_result_outside_a_checkout():
    bare = run.OUT / "bare-checkout"  # only BENCHMARK.json and perfbench/, no src/
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
