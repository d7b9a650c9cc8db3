"""CLI behaviour: subcommands, exit codes, report schema, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labcoupling import cli, fileio, fixtures as fx
from labcoupling.bundles import reference_trivialization

REPORT_KEYS = {"command", "passed", "inconclusive", "residuals", "artifacts", "seed"}


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


@pytest.mark.parametrize(
    "argv", [("check-delta", "--bundle", "cyl2_so3_twisted"), ("f-map", "--connection", "cyl2_so3_twisted")]
)
def test_each_transition_grid_is_built_once(capsys, monkeypatch, argv):
    # validate_lab and check_delta_continuity read one set of grids: one
    # frame pair per overlap of the 4, not one per check
    from labcoupling import bundles

    pairs = []
    overlap_pair = bundles.overlap_pair

    def counted(m, o, field, points=None):
        pairs.append(o)
        return overlap_pair(m, o, field, points)

    monkeypatch.setattr(bundles, "overlap_pair", counted)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(pairs) == 4


def test_fixtures_list(capsys):
    code, report = run_cli(capsys, "fixtures", "--list")
    assert code == 0
    assert REPORT_KEYS <= set(report)
    assert "so3" in report["names"]["algebras"]
    assert "circle2_so3_twisted" in report["names"]["bundles"]


def test_fixtures_emit_and_reload(capsys, tmp_path):
    code, report = run_cli(capsys, "fixtures", "--emit", "so3", "--out-dir", str(tmp_path))
    assert code == 0
    assert report["artifacts"] == [str(tmp_path / "so3.json")]
    assert fileio.load_algebra(tmp_path / "so3.json").dim == 3


def test_fixtures_env_var_output_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ALGEBROID_FIXTURE_DIR", str(tmp_path))
    code, report = run_cli(capsys, "fixtures", "--emit", "circle2")
    assert code == 0
    assert (tmp_path / "circle2.json").exists()


def test_fixtures_unknown_name(capsys):
    code, _ = run_cli(capsys, "fixtures", "--emit", "nonsense")
    assert code == 3


@pytest.mark.parametrize("argv", [["frobnicate"], []])
def test_unknown_or_missing_subcommand_exits_3(capsys, argv):
    assert cli.run(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("f-map", "--connection", "circle2_so3_twisted", "--out"),
        ("g-map", "--bundle", "circle2_so3_twisted", "--out"),
        ("fixtures", "--emit", "so3", "--out-dir"),
    ],
)
def test_unwritable_output_is_an_input_error(capsys, tmp_path, argv):
    # --out names a directory, --out-dir an existing file
    target = tmp_path
    if argv[-1] == "--out-dir":
        target = tmp_path / "taken"
        target.write_text("")
    assert cli.run([*argv, str(target)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ") and str(target) in captured.err


def test_validate_algebra_pass_and_residuals(capsys, tmp_path):
    path = tmp_path / "so3.json"
    fileio.save_json(path, fileio.algebra_to_dict(fx.algebra("so3")))
    code, report = run_cli(capsys, "validate-algebra", "--algebra", str(path))
    assert code == 0
    assert report["residuals"]["jacobi"] <= 1e-12


def test_check_coupling_failure_exit_code(capsys):
    code, report = run_cli(capsys, "check-coupling", "--connection", "disk2d_abelian2_nonflat")
    assert code == 1
    assert not report["passed"]
    assert report["residuals"]["accordance"] >= 0.999


def test_check_coupling_pass_with_omega_stats(capsys):
    code, report = run_cli(capsys, "check-coupling", "--connection", "disk2d_so3_nonflat")
    assert code == 0
    assert abs(report["omega_stats"]["omega_norm_max"] - fx.DISK_SLOPE) <= 1e-8


def test_validate_lab_cli(capsys):
    code, report = run_cli(capsys, "validate-lab", "--bundle", "circle2_so3_twisted")
    assert code == 0
    assert report["residuals"]["transition_automorphism"] <= 1e-8


def test_check_delta_failing_bundle(capsys):
    code, report = run_cli(capsys, "check-delta", "--bundle", "circle2_abelian2_varying")
    assert code == 1
    assert report["verdicts"]["outer"] > 0


def test_check_delta_passing_bundle(capsys):
    code, report = run_cli(capsys, "check-delta", "--bundle", "circle2_so3_twisted")
    assert code == 0
    assert report["verdicts"]["outer"] == 0 and report["verdicts"]["undecided"] == 0


def test_check_delta_undecided_exits_2(capsys, tmp_path):
    from labcoupling import fileio
    from tests.test_bundles import one_step_transport_bundle

    path = tmp_path / "undecidable.json"
    fileio.save_json(path, fileio.bundle_to_dict(one_step_transport_bundle()))
    code, report = run_cli(capsys, "check-delta", "--bundle", str(path), "--alg-tol", "1e-2")
    assert code == 2
    assert report["inconclusive"] and not report["passed"]
    assert report["verdicts"]["undecided"] > 0


def test_check_delta_refutes_the_heis3_jump(capsys, tmp_path):
    from labcoupling import fileio
    from tests.test_bundles import heis3_jump_bundle

    path = tmp_path / "jump.json"
    fileio.save_json(path, fileio.bundle_to_dict(heis3_jump_bundle()))
    code, report = run_cli(capsys, "check-delta", "--bundle", str(path))
    assert code == 1
    assert not report["inconclusive"] and not report["passed"]
    assert report["verdicts"]["outer"] > 0 and report["verdicts"]["undecided"] == 0


def test_roundtrip_flagship_fixture(capsys):
    code, report = run_cli(capsys, "roundtrip", "--connection", "circle2_so3_twisted")
    assert code == 0
    assert report["passed"] and not report["inconclusive"]
    assert set(report["directions"]) == {"connection_roundtrip", "trivialization_roundtrip"}


def test_roundtrip_from_bundle_fixture(capsys):
    code, report = run_cli(capsys, "roundtrip", "--bundle", "circle2_so3_twisted")
    assert code == 0 and report["passed"]


def test_emit_connection_with_prefix(capsys, tmp_path):
    code, report = run_cli(
        capsys, "fixtures", "--emit", "connection:circle2_so3_twisted", "--out-dir", str(tmp_path)
    )
    assert code == 0
    loaded = fileio.load_connection(tmp_path / "circle2_so3_twisted.json")
    assert loaded.algebra.name == "so3"


def test_roundtrip_requires_exactly_one_input(capsys):
    assert cli.run(["roundtrip"]) == 3
    assert (
        cli.run(["roundtrip", "--bundle", "circle2_so3_twisted", "--connection", "circle2_so3_twisted"]) == 3
    )


def steep_connection_file(tmp_path) -> str:
    """tests.test_bundles.steep_circle_coupling saved as a connection file."""
    from tests.test_bundles import steep_circle_coupling

    path = tmp_path / "steep.json"
    fileio.save_json(path, fileio.connection_to_dict(steep_circle_coupling()))
    return str(path)


STEEP = "<steep circle coupling file>"


@pytest.mark.parametrize(
    "argv",
    [
        ("f-map", "--connection", STEEP, "--ode-steps", "1"),
        ("f-map", "--connection", "circle2_so3_twisted", "--trans-tol", "1e-16"),
    ],
)
def test_f_map_on_a_structure_that_fails_validation_fails_without_verdicts(capsys, tmp_path, argv):
    # the transitions miss the --trans-tol gate, so no ratio is swept: FAIL
    # (exit 1) with max_inner "inf", not a verdict sweep on non-automorphisms
    argv = [steep_connection_file(tmp_path) if arg == STEEP else arg for arg in argv]
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert not report["passed"] and not report["inconclusive"]
    assert report["residuals"]["max_inner"] == "inf"
    assert report["residuals"]["transition_automorphism"] > 1e-16
    assert report["verdicts"] == {"inner": 0, "outer": 0, "undecided": 0}


def test_roundtrip_fails_on_a_transport_that_fails_validation(capsys, tmp_path):
    code, report = run_cli(capsys, "roundtrip", "--connection", steep_connection_file(tmp_path), "--ode-steps", "1")
    assert code == 1 and not report["inconclusive"]
    assert not report["directions"]["connection_roundtrip"]["passed"]
    assert report["directions"]["connection_roundtrip"]["undecided"] == 0
    # both structures it compares fail validate_lab: the note names that, and
    # their equivalence is not certified
    assert "T = f(C) fails validate_lab: residual 5.383e-05" in report["note"]
    assert "f(g(T)) fails validate_lab" in report["note"]
    assert not report["directions"]["trivialization_roundtrip"]["passed"]


def test_check_delta_agrees_with_f_map_on_its_bundle(capsys, tmp_path):
    # one RK4 step per edge puts the steep form's transitions 2.7e-5 off Aut; with
    # the gates widened to 1e-2 both commands sweep the same ratios under the same ratio gate
    out = str(tmp_path / "b.json")
    argv = ("--connection", steep_connection_file(tmp_path), "--ode-steps", "1", "--trans-tol", "1e-2", "--out", out)
    code, mapped = run_cli(capsys, "f-map", *argv)
    assert code == 2
    assert mapped["verdicts"] == {"inner": 4, "outer": 0, "undecided": 32}
    code, swept = run_cli(capsys, "check-delta", "--bundle", out, "--alg-tol", "1e-2")
    assert code == 2
    assert swept["verdicts"] == mapped["verdicts"]


def test_f_map_writes_bundle_artifact(capsys, tmp_path):
    out = tmp_path / "out.json"
    code, report = run_cli(capsys, "f-map", "--connection", "circle2_so3_twisted", "--out", str(out))
    assert code == 0
    assert report["artifacts"] == [str(out)]
    loaded = fileio.load_bundle(out)
    assert loaded.algebra.dim == 3


def test_g_map_then_check_coupling(capsys, tmp_path):
    out = tmp_path / "conn.json"
    code, _ = run_cli(capsys, "g-map", "--bundle", "circle2_so3_twisted", "--out", str(out))
    assert code == 0
    code2, report = run_cli(capsys, "check-coupling", "--connection", str(out))
    assert code2 == 0 and report["passed"]


def test_axioms_report(capsys):
    code, report = run_cli(capsys, "axioms", "--connection", "disk2d_so3_nonflat", "--trials", "3")
    assert code == 0
    assert report["residuals"]["skew"] <= 1e-12
    assert report["residuals"]["leibniz"] <= 1e-4


def test_reports_are_bit_identical_across_runs(capsys):
    argv = ["axioms", "--connection", "disk2d_so3_nonflat", "--trials", "3", "--seed", "9"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_passed_and_inconclusive_never_both_true(capsys):
    for argv in (
        ["check-delta", "--bundle", "circle2_abelian2_twisted"],
        ["roundtrip", "--connection", "interval1_so3_flat"],
        ["check-coupling", "--connection", "disk2d_abelian2_nonflat"],
    ):
        code, report = run_cli(capsys, *argv)
        assert not (report["passed"] and report["inconclusive"])
        expected = 2 if report["inconclusive"] else (0 if report["passed"] else 1)
        assert code == expected


def test_tolerance_flags_are_honored(capsys):
    # an absurdly tight inner tolerance flips even float-exact ratios to outer
    code, report = run_cli(
        capsys, "check-delta", "--bundle", "circle2_so3_twisted", "--inner-tol", "1e-30"
    )
    assert code == 1 and not report["passed"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
@pytest.mark.parametrize(
    "command,flag",
    [
        (("check-delta", "--bundle", "circle2_so3_twisted"), "--alg-tol"),
        (("check-coupling", "--connection", "circle2_so3_twisted"), "--acc-tol"),
        (("f-map", "--connection", "circle2_so3_twisted"), "--trans-tol"),
        (("check-delta", "--bundle", "circle2_so3_twisted"), "--inner-tol"),
        (("validate-lab", "--bundle", "circle2_so3_twisted"), "--alg-tol"),
        (("g-map", "--bundle", "circle2_so3_twisted"), "--sharpness"),
    ],
)
def test_non_finite_or_non_positive_float_flags_exit_3(capsys, command, flag, value):
    assert cli.run([*command, flag, value]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a finite number > 0" in captured.err


# the tolerance flags each subcommand's handler reads; it declares no other
TOLERANCES_READ = {
    ("validate-algebra", "--algebra", "so3"): {"--alg-tol"},
    ("validate-lab", "--bundle", "circle2_so3_twisted"): {"--alg-tol"},
    ("check-delta", "--bundle", "circle2_so3_twisted"): {"--alg-tol", "--inner-tol"},
    ("check-coupling", "--connection", "circle2_so3_twisted"): {"--alg-tol", "--acc-tol"},
    ("f-map", "--connection", "circle2_so3_twisted"): {"--acc-tol", "--trans-tol", "--inner-tol"},
    ("g-map", "--bundle", "circle2_so3_twisted"): {"--alg-tol", "--acc-tol", "--inner-tol"},
    ("roundtrip", "--connection", "circle2_so3_twisted"): {"--acc-tol", "--inner-tol"},
    ("axioms", "--connection", "circle2_so3_twisted"): {"--acc-tol"},
}
UNREAD_FLAGS = [
    pytest.param(command, flag, id=f"{command[0]} {flag}")
    for command, read in TOLERANCES_READ.items()
    for flag in ("--alg-tol", "--acc-tol", "--trans-tol", "--inner-tol", "--tol")
    if flag not in read
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_tolerance_flag_the_subcommand_does_not_read_exits_3(capsys, command, flag):
    assert cli.run([*command, flag, "1e-6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} 1e-6" in captured.err


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-3"), ("--seed", "-1")])
def test_axioms_rejects_no_trials_and_a_negative_seed(capsys, flag, value):
    code = cli.run(["axioms", "--connection", "circle2_so3_twisted", flag, value])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"error: {flag[2:]} must be" in captured.err


# --- non-finite and malformed input ------------------------------------------

def _no_constant(token):
    raise ValueError(f"non-strict JSON constant {token} on stdout")


def run_strict(capsys, *argv):
    """cli.run, with stdout parsed as strict JSON (no NaN/Infinity tokens)."""
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_no_constant) if out.strip() else None)


def test_non_finite_values_rejected_by_each_constructor(capsys, tmp_path):
    connection = fileio.connection_to_dict(fx.connection("disk2d_so3_nonflat"))
    connection["omega"][0][1][16][16][0][1] = float("nan")  # passed check-coupling once
    algebra = fileio.algebra_to_dict(fx.algebra("so3"))
    algebra["c"][0][1][2] = float("inf")
    bundle = fileio.bundle_to_dict(fx.bundle("circle2_so3_twisted"))
    bundle["frames"][1][5][0][0] = float("nan")
    # on a cover without overlaps only the chart itself can catch an infinite box
    chart_box = fileio.bundle_to_dict(reference_trivialization(fx.algebra("so3"), fx.manifold("interval1")))
    chart_box["manifold"]["charts"][0]["box"][0][1] = float("inf")
    for name, cmd, flag, data in (
        ("connection", "check-coupling", "--connection", connection),
        ("algebra", "validate-algebra", "--algebra", algebra),
        ("bundle", "validate-lab", "--bundle", bundle),
        ("chart", "validate-lab", "--bundle", chart_box),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert run_strict(capsys, cmd, flag, str(path)) == (3, None), name


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("validate-algebra", "--algebra", '{"name": "x", "dim": "three", "c": []}'),
        ("validate-algebra", "--algebra", "[1, 2]"),
        ("validate-lab", "--bundle", '{"algebra": "so3", "manifold": "interval1", "frames": [[["a"]]]}'),
        ("check-coupling", "--connection", '"a string"'),
        ("check-coupling", "--connection", '{"bundle": "circle2_so3_twisted", "omega": 5}'),
    ],
)
def test_malformed_files_exit_3(capsys, tmp_path, command, flag, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run_strict(capsys, command, flag, str(path)) == (3, None)


def test_check_delta_on_a_fractional_resolution_exits_3(capsys, tmp_path):
    # 33.7 nodes once read as 33, which the frames happen to fit
    data = fileio.bundle_to_dict(fx.bundle("circle2_so3_twisted"))
    data["manifold"]["charts"][0]["resolution"] = [33.7]
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(data))
    assert cli.run(["check-delta", "--bundle", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "resolution must be an integer, got 33.7" in err


def test_validate_lab_on_a_second_resolution_axis_exits_3(capsys, tmp_path):
    # a 1-D chart with resolution [33, 33] and frames on that grid once PASSed
    data = fileio.bundle_to_dict(reference_trivialization(fx.algebra("so3"), fx.manifold("interval1")))
    data["manifold"]["charts"][0]["resolution"] = [33, 33]
    data["frames"] = [np.broadcast_to(np.eye(3), (33, 33, 3, 3)).tolist()]
    path = tmp_path / "two_axes.json"
    path.write_text(json.dumps(data))
    assert cli.run(["validate-lab", "--bundle", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "chart 0 resolution has shape (2,), expected (1,)" in err


def test_roundtrip_with_zero_ode_steps_exits_3(capsys):
    assert cli.run(["roundtrip", "--bundle", "cyl2_so3_twisted", "--ode-steps", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "ode_steps must be at least 1, got 0" in err


@pytest.mark.parametrize("dim", [3.7, True, "3"])
def test_validate_algebra_on_a_non_integer_dim_exits_3(capsys, tmp_path, dim):
    # 3.7 once loaded as 3 and true as 1
    data = {**fileio.algebra_to_dict(fx.algebra("so3")), "dim": dim}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    assert cli.run(["validate-algebra", "--algebra", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"dim must be an integer, got {dim!r}" in err


def _singular_frame_bundle(node: int) -> dict:
    """circle2_so3_twisted with the zero matrix as chart 0's frame at one node
    (node 0 lies in an overlap region, node 16 in none)."""
    data = fileio.bundle_to_dict(fx.bundle("circle2_so3_twisted"))
    data["frames"][0][node] = [[0.0] * 3] * 3
    return data


@pytest.mark.parametrize("node", [0, 16])
def test_singular_frame_fails_with_strict_json(capsys, tmp_path, node):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(_singular_frame_bundle(node)))
    for command in ("validate-lab", "check-delta"):
        code, report = run_strict(capsys, command, "--bundle", str(path))
        assert code == 1 and not report["passed"]
        assert report["residuals"]["frame_automorphism"] == "inf"
        assert report["worst"] == f"frame chart 0 node ({node},)"


@pytest.mark.parametrize(
    "argv,note",
    [
        (("g-map", "--bundle", "circle2_abelian2_varying"), "quotient"),
        (("roundtrip", "--bundle", "circle2_abelian2_varying"), "quotient"),
        (("f-map", "--connection", "disk2d_abelian2_nonflat"), "not a coupling"),
    ],
)
def test_failed_precondition_is_a_fail_report(capsys, argv, note):
    code, report = run_strict(capsys, *argv)
    assert code == 1
    assert report["command"] == argv[0] and not report["passed"] and not report["inconclusive"]
    assert note in report["note"]


def test_transport_overflow_is_a_fail_report(capsys, tmp_path):
    # accordance passes at --acc-tol 1e300, but the comb transport overflows
    data = fileio.connection_to_dict(fx.connection("circle2_so3_twisted"))
    data["omega"] = [(np.asarray(grid) * 1e150).tolist() for grid in data["omega"]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    with np.errstate(over="ignore", invalid="ignore"):
        code, report = run_strict(capsys, "f-map", "--connection", str(path), "--acc-tol", "1e300")
    assert code == 1 and not report["passed"]
    assert report["note"] == "comb transport in chart 0 is not finite"


def _leaves(tree, path=()):
    """Paths of the scalar leaves of a JSON tree, skipping free-form names."""
    if isinstance(tree, dict):
        return [p for k, v in tree.items() if k != "name" for p in _leaves(v, path + (k,))]
    if isinstance(tree, list):
        return [p for i, v in enumerate(tree) for p in _leaves(v, path + (i,))]
    return [path]


def _replaced(tree, path, value):
    if not path:
        return value
    tree = json.loads(json.dumps(tree))
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree


FUZZ_BASES = {
    "validate-algebra": ("--algebra", fileio.algebra_to_dict(fx.algebra("so3"))),
    "validate-lab": ("--bundle", fileio.bundle_to_dict(fx.bundle("circle2_so3_twisted"))),
    "check-coupling": ("--connection", fileio.connection_to_dict(fx.connection("circle2_so3_twisted"))),
}
BULK = ("c", "frames", "omega")  # the many numeric entries; each is a leaf group of its own
# None reads as NaN through numpy; every value is non-finite or not a number
JUNK = [float("nan"), float("inf"), float("-inf"), None, "abc", [], {}, [1.0, 2.0]]


def _leaf_groups() -> list:
    """(command, flag, base, leaf paths) per command and leaf group; the
    structure group also holds the path (), which replaces the whole document."""
    out = []
    for command, (flag, base) in sorted(FUZZ_BASES.items()):
        groups = {"structure": [()]}
        for p in _leaves(base):
            groups.setdefault(next((k for k in p if k in BULK), "structure"), []).append(p)
        out += [(command, flag, base, paths) for _, paths in sorted(groups.items())]
    return out


LEAF_GROUPS = _leaf_groups()


@st.composite
def malformed_files(draw):
    command, flag, base, paths = draw(st.sampled_from(LEAF_GROUPS))
    text = json.dumps(_replaced(base, draw(st.sampled_from(paths)), draw(st.sampled_from(JUNK))))
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]  # truncated: not JSON
    return command, flag, text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(malformed_files())
def test_malformed_or_non_finite_files_always_exit_3(tmp_path_factory, case):
    command, flag, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(text)
    assert cli.run([command, flag, str(path)]) == 3
