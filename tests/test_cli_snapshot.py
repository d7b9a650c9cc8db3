"""CLI reports against a snapshot of earlier output.

The snapshot holds the parsed stdout and the exit code of a fast subset of
the fixture sweep.  Exit codes, verdicts, counts and node locations must
match exactly; floats may move by 1e-12 relative (plus 1e-15 absolute), the
room a reordered floating-point sum needs.  After an intended report
change, regenerate the snapshot with ``PYTHONPATH=src python -m tests.test_cli_snapshot``:
it keeps every stored row that the fresh output matches within those bounds and
writes only new and changed rows, so an unchanged program leaves the file as it is.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from labcoupling import cli, fixtures as fx
from tests.test_package import fresh_interpreter

SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")
COMMANDS = (
    [[cmd, "--bundle", name] for name in fx.BUNDLE_NAMES for cmd in ("validate-lab", "check-delta")]
    + [["check-coupling", "--connection", name] for name in fx.CONNECTION_NAMES]
    + [["f-map", "--connection", "circle2_so3_twisted"]]
    + [["roundtrip", "--connection", name] for name in ("circle2_so3_twisted", "circle2_abelian2_flat")]
    + [["g-map", "--bundle", "circle2_so3_twisted"]]
    + [["g-map", "--bundle", name] for name in fx.BUNDLE_NAMES if name != "circle2_so3_twisted"]
    + [["roundtrip", "--bundle", name] for name in fx.BUNDLE_NAMES]
    + [["f-map", "--connection", name] for name in fx.CONNECTION_NAMES if name != "circle2_so3_twisted"]
    + [["axioms", "--connection", name] for name in fx.CONNECTION_NAMES]
    + [
        ["roundtrip", "--connection", name]
        for name in fx.CONNECTION_NAMES
        if name not in ("circle2_so3_twisted", "circle2_abelian2_flat")
    ]
    + [["validate-algebra", "--algebra", name] for name in fx.ALGEBRA_NAMES]
    + [["fixtures", "--list"]]
)


def run_all() -> list:
    results = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        results.append({"argv": argv, "exit": code, "report": json.loads(out.getvalue())})
    return results


def assert_close(expected, actual, where):
    if isinstance(expected, float) and isinstance(actual, float):
        assert abs(actual - expected) <= 1e-12 * abs(expected) + 1e-15, where
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_close(e, a, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def test_reports_match_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = run_all()
    assert [r["argv"] for r in expected] == [r["argv"] for r in actual]
    for e, a in zip(expected, actual):
        assert_close(e, a, " ".join(e["argv"]))


# snapshot rows run in a fresh interpreter each, and whether the run reads
# across charts, which loads scipy.sparse; none of them needs scipy.linalg
COLD_RUNS = [
    (["axioms", "--connection", "circle2_so3_twisted"], False),
    (["f-map", "--connection", "disk2d_so3_nonflat"], False),
    (["roundtrip", "--connection", "disk2d_so3_nonflat"], False),
    (["roundtrip", "--connection", "circle2_so3_twisted"], True),
]


@pytest.mark.parametrize("argv, reads_across", COLD_RUNS, ids=[f"{argv[0]}-{argv[2]}" for argv, _ in COLD_RUNS])
def test_cold_runs_match_snapshot_and_load_scipy_only_to_interpolate(argv, reads_across):
    # the in-process sweep above runs after scipy is loaded, so a deferred
    # import that fails shows only here
    expected = next(r for r in json.loads(SNAPSHOT.read_text()) if r["argv"] == argv)
    child, loaded = fresh_interpreter("from labcoupling.cli import main; main()", *argv)
    assert child.returncode == expected["exit"]
    assert_close(expected["report"], json.loads(child.stdout), " ".join(argv))
    if reads_across:
        assert "scipy.sparse" in loaded and "scipy.linalg" not in loaded
    else:
        assert loaded == []


def merge_rows(stored: list, fresh: list) -> list:
    """The fresh rows, except that a stored row with the same argv which the
    fresh one matches (per ``assert_close``) is kept as stored."""
    by_argv = {tuple(r["argv"]): r for r in stored}
    merged = []
    for row in fresh:
        old = by_argv.get(tuple(row["argv"]))
        merged.append(old if old is not None and _matches(old, row) else row)
    return merged


def _matches(expected, actual) -> bool:
    try:
        assert_close(expected, actual, "")
    except AssertionError:
        return False
    return True


def test_merge_keeps_matching_rows_and_writes_new_and_changed_ones():
    stored = [
        {"argv": ["check-delta", "a"], "exit": 1, "report": {"max_inner": 0.30084515513189936}},
        {"argv": ["validate-lab", "a"], "exit": 0, "report": {"passed": True}},
        {"argv": ["axioms", "gone"], "exit": 0, "report": {}},
    ]
    fresh = [
        {"argv": ["check-delta", "a"], "exit": 1, "report": {"max_inner": 0.30084515513189913}},
        {"argv": ["validate-lab", "a"], "exit": 1, "report": {"passed": False}},
        {"argv": ["f-map", "new"], "exit": 0, "report": {"max": 1e-3}},
    ]
    merged = merge_rows(stored, fresh)
    assert merged[0] is stored[0]
    assert merged[1] is fresh[1] and merged[2] is fresh[2]
    assert len(merged) == 3


if __name__ == "__main__":
    stored = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else []
    rows = [json.dumps(r, sort_keys=True) for r in merge_rows(stored, run_all())]
    SNAPSHOT.write_text("[\n" + ",\n".join(rows) + "\n]\n")
