"""Round-trip tests for the JSON file formats."""

import json

import numpy as np
import pytest

from labcoupling import fileio, fixtures as fx
from labcoupling.bundles import validate_lab
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
    for a, b in zip(loaded.frames, t.frames):
        np.testing.assert_allclose(a, b)


def test_connection_file_roundtrip(tmp_path):
    c = fx.connection("disk2d_so3_nonflat")
    path = tmp_path / "conn.json"
    fileio.save_json(path, fileio.connection_to_dict(c))
    loaded = fileio.load_connection(path)
    assert validate_connection(loaded).passed
    np.testing.assert_allclose(loaded.omega[0], c.omega[0])


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
