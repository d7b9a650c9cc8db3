"""Every function of the package is reached by the CLI snapshot sweep, or is
named here with the reason it is not.

The sweep runs the snapshot's ``COMMANDS`` through ``cli.run`` in one new
interpreter under ``sys.setprofile``, with the hook set before the package
is imported, so module-level calls count and no cache an earlier test filled
hides a call.  A function the sweep never enters and that has no entry in
``UNREACHED`` (dead code, or a helper that only tests call) fails here until
it gets a caller or a reason; an entry whose function the sweep does enter,
or that names no function, fails too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import labcoupling
from tests.test_cli_snapshot import COMMANDS

PACKAGE = Path(labcoupling.__file__).parent

_PERFBENCH = "reached only from perfbench or from CLI flags the snapshot does not pass"
_TESTS = "a reference the tests compare against"
_MAPS = "pull-backs along manifold maps, waiting on ROADMAP items 4-6"
_INNER = "waiting on ROADMAP item 17; bundles binds it for perfbench"
_SECTIONS = "the value-last section API, waiting on ROADMAP item 11"

# module.qualified.name -> why the snapshot sweep never enters it
UNREACHED = {
    "algebra._square_roots": _PERFBENCH,
    "connections.shift_by_inner": _PERFBENCH,
    "fileio.algebra_to_dict": _PERFBENCH,
    "fileio.manifold_to_dict": _PERFBENCH,
    "fileio.bundle_to_dict": _PERFBENCH,
    "fileio.connection_to_dict": _PERFBENCH,
    "fileio.save_json": _PERFBENCH,
    "fileio.load_manifold": _PERFBENCH,
    "manifolds.HarmonicField.__call__": _PERFBENCH,
    "manifolds.HarmonicField.sample": _PERFBENCH,
    "manifolds.HarmonicField._values_last": _PERFBENCH,
    "fileio.emit_fixture": _PERFBENCH,
    "cli._finite_positive": _PERFBENCH,
    "cli.main": _PERFBENCH,
    "algebra.bracket": _TESTS,
    "manifolds.partition_sum_residual": _TESTS,
    "bundles.monodromy": _MAPS,
    "correspondence.verify_g_well_defined": _MAPS,
    "bundles._cover_signature": _MAPS,
    "bundles.pullback_lab": _MAPS,
    "connections.pullback_connection": _MAPS,
    "manifolds.ChartAssignment.__post_init__": _MAPS,
    "manifolds.ChartAssignment.apply": _MAPS,
    "manifolds.ManifoldMap.__post_init__": _MAPS,
    "manifolds.ManifoldMap.pull": _MAPS,
    "manifolds.identity_map": _MAPS,
    "manifolds.constant_map": _MAPS,
    "algebra.is_inner": _INNER,
    "algebra.InnerVerdict.inner": _INNER,
    "algebra.InnerVerdict.outer": _INNER,
    "algebra.InnerVerdict.undecided": _INNER,
    "connections.zero_connection": _SECTIONS,
    "algebroid.random_section": _SECTIONS,
    "algebroid.algebroid_bracket": _SECTIONS,
}

_SWEEP = """
import contextlib, io, json, sys
entered = set()
def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(hook)
from labcoupling import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.run(argv)
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno) for code in entered})))
"""


def package_functions() -> dict:
    """(file, first line) -> module.qualified.name for every def in the
    package; a decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def test_every_package_function_is_reached_or_has_a_reason():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    child = subprocess.run(
        [sys.executable, "-c", _SWEEP, json.dumps(COMMANDS)], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    entered = {(str(Path(f)), line) for f, line in json.loads(child.stdout)}
    functions = package_functions()
    never = {name for key, name in functions.items() if key not in entered}
    # (never entered and unexplained, explained but entered or no function)
    assert (sorted(never - UNREACHED.keys()), sorted(UNREACHED.keys() - never)) == ([], [])
    assert all(UNREACHED.values())
