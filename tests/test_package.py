"""The package's public surface: ``__all__`` names exactly what it binds,
and importing it loads no scipy or orjson module."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import labcoupling
from labcoupling import fileio, fixtures as fx


def fresh_interpreter(statement: str, *args: str, root: str = "scipy") -> tuple:
    """Run one statement in a new interpreter pointed at the package under
    test, with args as its sys.argv[1:]; return the finished process and the
    modules of package ``root`` loaded when it ended, which the process writes
    as the last line of its stderr.  An earlier test has loaded scipy and
    orjson in this process, so only a new interpreter shows what an import or
    a command loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(labcoupling.__file__).parents[1])}
    program = (
        f"import json, sys\ntry:\n    {statement}\nfinally:\n"
        f"    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {root!r})), file=sys.stderr)"
    )
    child = subprocess.run([sys.executable, "-c", program, *args], env=env, capture_output=True, text=True)
    return child, json.loads(child.stderr.splitlines()[-1])


def test_all_lists_every_public_binding():
    public = {
        name
        for name, value in vars(labcoupling).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(labcoupling.__all__) == sorted(public)
    assert len(labcoupling.__all__) == len(set(labcoupling.__all__)) == 37


def test_removed_names_stay_removed():
    for name in ("Path", "ray_path", "TransportResult", "apply_connection", "center_basis"):
        assert not hasattr(labcoupling, name)
    assert not hasattr(labcoupling.manifolds, "Path") and not hasattr(labcoupling.manifolds, "ray_path")
    assert not hasattr(labcoupling.correspondence, "TransportResult")
    assert not hasattr(labcoupling.connections, "apply_connection")
    assert not hasattr(labcoupling.algebra, "center_basis")


@pytest.mark.parametrize("module", ["labcoupling", "labcoupling.cli"])
def test_import_loads_no_scipy(module):
    # scipy.sparse loads on the first interpolation, scipy.linalg for so3 fixture bundles
    child, loaded = fresh_interpreter(f"import {module}")
    assert child.returncode == 0
    assert loaded == []


@pytest.mark.parametrize("module", ["labcoupling", "labcoupling.cli"])
def test_import_loads_no_orjson(module):
    # orjson loads at the first file read
    child, loaded = fresh_interpreter(f"import {module}", root="orjson")
    assert child.returncode == 0
    assert loaded == []


def test_the_first_file_read_loads_orjson(tmp_path):
    path = tmp_path / "conn.json"
    fileio.save_json(path, fileio.connection_to_dict(fx.connection("interval1_so3_flat")))
    load = "from labcoupling import fileio; fileio.load_connection(sys.argv[1])"
    child, loaded = fresh_interpreter(load, "interval1_so3_flat", root="orjson")
    assert child.returncode == 0 and loaded == []  # a fixture name reads no file
    child, loaded = fresh_interpreter(load, str(path), root="orjson")
    assert child.returncode == 0 and "orjson" in loaded
