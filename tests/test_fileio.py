"""Round-trip tests for the JSON file formats."""

import codecs
import json

import numpy as np
import pytest

from labcoupling import cli, fileio, fixtures as fx
from labcoupling.bundles import Trivialization, validate_lab
from labcoupling.connections import validate_connection
from labcoupling.errors import InputError


def test_algebra_file_roundtrip(tmp_path):
    g = fx.algebra("so3")
    path = tmp_path / "so3.json"
    fileio.save_json(path, fileio.algebra_to_dict(g))
    data = json.loads(path.read_text())
    assert set(data) == {"name", "dim", "c"}
    loaded = fileio.load_algebra(path)
    assert loaded.name == "so3" and loaded.dim == 3
    np.testing.assert_array_equal(loaded.c, g.c)


def test_integral_float_algebra_dim_reads_as_an_integer():
    loaded = fileio.load_algebra({**fileio.algebra_to_dict(fx.algebra("so3")), "dim": 3.0})
    assert type(loaded.dim) is int and loaded.dim == 3


def test_manifold_file_roundtrip(tmp_path):
    m = fx.manifold("circle2")
    path = tmp_path / "circle2.json"
    fileio.save_json(path, fileio.manifold_to_dict(m))
    data = json.loads(path.read_text())
    assert set(data) == {"dim", "charts", "overlaps"}
    assert set(data["charts"][0]) == {"box", "resolution", "center"}
    assert set(data["overlaps"][0]) == {"alpha", "beta", "region", "map"}
    loaded = fileio.load_manifold(path)
    assert len(loaded.charts) == 2 and len(loaded.overlaps) == 4


def test_bundle_file_roundtrip_with_named_refs(tmp_path):
    t = fx.bundle("circle2_so3_twisted")
    path = tmp_path / "bundle.json"
    fileio.save_json(path, fileio.bundle_to_dict(t, algebra_ref="so3", manifold_ref="circle2"))
    loaded = fileio.load_bundle(path)
    assert validate_lab(loaded).passed
    assert [a.tobytes() for a in loaded.frames] == [b.tobytes() for b in t.frames]


def test_connection_file_roundtrip(tmp_path):
    c = fx.connection("disk2d_so3_nonflat")
    path = tmp_path / "conn.json"
    fileio.save_json(path, fileio.connection_to_dict(c))
    loaded = fileio.load_connection(path)
    assert validate_connection(loaded).passed
    assert [a.tobytes() for a in loaded.omega] == [b.tobytes() for b in c.omega]


@pytest.mark.parametrize("name", fx.BUNDLE_NAMES)
def test_every_fixture_bundle_comes_back_bitwise(tmp_path, name):
    t = fx.bundle(name)
    fileio.save_json(tmp_path / "b.json", fileio.bundle_to_dict(t))
    loaded = fileio.load_bundle(tmp_path / "b.json")
    assert loaded.algebra.c.tobytes() == t.algebra.c.tobytes()
    assert [a.tobytes() for a in loaded.frames] == [b.tobytes() for b in t.frames]


@pytest.mark.parametrize("name", fx.CONNECTION_NAMES)
def test_every_fixture_connection_comes_back_bitwise(tmp_path, name):
    c = fx.connection(name)
    fileio.save_json(tmp_path / "c.json", fileio.connection_to_dict(c))
    loaded = fileio.load_connection(tmp_path / "c.json")
    assert [a.tobytes() for a in loaded.bundle.frames] == [b.tobytes() for b in c.bundle.frames]
    assert [a.tobytes() for a in loaded.omega] == [b.tobytes() for b in c.omega]


def test_extreme_frame_entries_come_back_bitwise(tmp_path):
    # -0.0, the smallest and the largest subnormal, the largest double and 1 + ulp
    extremes = [-0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308, 1.0000000000000002]
    m = fx.manifold("interval1")
    frames = np.broadcast_to(np.eye(3), m.charts[0].resolution + (3, 3)).copy()
    frames[0].flat[: len(extremes)] = extremes
    frames[1].flat[: len(extremes)] = np.negative(extremes)
    t = Trivialization(fx.algebra("so3"), m, (frames,))
    fileio.save_json(tmp_path / "b.json", fileio.bundle_to_dict(t, algebra_ref="so3", manifold_ref="interval1"))
    loaded = fileio.load_bundle(tmp_path / "b.json")
    assert loaded.frames[0].tobytes() == frames.tobytes()


# each token is valid in Python's json but not in strict JSON or not a double
UNREADABLE_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400"]


def _connection_text() -> str:
    data = fileio.connection_to_dict(fx.connection("interval1_so3_flat"))
    data["omega"][0][0][5][0][1] = 0.125  # the one entry the cases below rewrite
    text = json.dumps(data)
    assert text.count("0.125") == 1
    return text


@pytest.mark.parametrize(
    "case",
    [f"token {t}" for t in UNREADABLE_TOKENS] + ["truncated", "byte order mark"],
)
def test_files_that_are_not_strict_utf8_json_fail_at_parse(capsys, tmp_path, case):
    text = _connection_text()
    if case.startswith("token"):
        raw = text.replace("0.125", case.split()[1]).encode()
    elif case == "truncated":
        raw = text[: len(text) // 2].encode()
    else:
        raw = codecs.BOM_UTF8 + text.encode()
    path = tmp_path / "conn.json"
    path.write_bytes(raw)
    with pytest.raises(InputError, match="cannot read connection file"):
        fileio.load_connection(path)
    assert cli.run(["check-coupling", "--connection", str(path)]) == 3
    assert capsys.readouterr().out == ""


def test_connection_omega_layout_is_per_chart_per_axis(tmp_path):
    c = fx.connection("disk2d_so3_nonflat")
    data = fileio.connection_to_dict(c)
    omega = np.asarray(data["omega"][0])
    assert omega.shape == (2, 33, 33, 3, 3)  # axis-major before node axes


def test_fixture_names_resolve_directly():
    assert fileio.load_algebra("heis3").name == "heis3"
    assert fileio.load_manifold("interval1").name == "interval1"
    assert fileio.load_bundle("circle2_abelian2_twisted").algebra.name == "abelian2"
    assert fileio.load_connection("circle2_abelian2_flat").algebra.name == "abelian2"


def test_unknown_reference_rejected():
    with pytest.raises(InputError):
        fileio.load_algebra("not_a_fixture")


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "dim": 2}))
    with pytest.raises(InputError, match="missing"):
        fileio.load_algebra(path)


def test_emit_fixture_writes_loadable_files(tmp_path):
    for name in ("so3", "circle2", "circle2_so3_twisted", "disk2d_so3_nonflat"):
        path = fileio.emit_fixture(name, tmp_path)
        assert path.exists() and path.name == f"{name}.json"
    assert validate_lab(fileio.load_bundle(tmp_path / "circle2_so3_twisted.json")).passed


@pytest.mark.parametrize("depth", [2_000, 300_000])
def test_a_file_nested_too_deep_is_refused_unparsed(capsys, tmp_path, depth):
    # closers inside a string must not hide the depth that follows them
    path = tmp_path / "deep.json"
    path.write_text('{"name": "' + "]" * depth + '", "omega": ' + "[" * depth + "]" * depth + "}")
    with pytest.raises(InputError, match="nested deeper than 1000 levels"):
        fileio.load_connection(path)
    assert cli.run(["check-coupling", "--connection", str(path)]) == 3
    assert capsys.readouterr().out == ""


def test_brackets_and_escaped_quotes_inside_strings_are_no_nesting(tmp_path):
    name = '\\"' + "[" * 2_000 + '{\\'
    fileio.save_json(tmp_path / "g.json", {**fileio.algebra_to_dict(fx.algebra("so3")), "name": name})
    assert fileio.load_algebra(tmp_path / "g.json").name == name
