"""JSON serialization for algebras, manifolds, bundles, and connections.

References inside files (a bundle's algebra, a connection's bundle) may be a
fixture name, a path to another JSON file, or an inline object.  A file that
cannot be read or written (a directory, a missing parent, no permission) is
an InputError, as is a malformed one.

Files are read with orjson, imported at the first file read, and written by
``save_json`` with the stdlib ``json`` module.  A file must be UTF-8 (no byte
order mark), strict JSON and nested at most 1000 levels deep: the
``NaN``/``Infinity`` tokens, a number outside double range (``1e400``) and a
deeper text are refused at parse.  Floats decode bitwise as ``json`` decodes
them.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from . import fixtures
from .algebra import LieAlgebra
from .bundles import Trivialization
from .connections import ConnectionForm
from .errors import InputError
from .manifolds import ChartedManifold, _integer, build_manifold

# orjson's parser recurses on the C stack and crashes the process past about
# 1.5e5 nesting levels on an 8 MB stack.  No valid file nests more than about
# 70 (numpy arrays stop at 64 dimensions), so a deeper text is refused unparsed.
_MAX_DEPTH = 1000
# a JSON string, or an unterminated one to the end: every quote matches, so no backtracking
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)', re.DOTALL)
_NOT_BRACKET = bytes(sorted(set(range(256)) - set(b"[]{}")))


def _load(ref, cls, kind: str, fixture, make):
    """Resolve a reference to a ``cls`` object: an instance passes through, a
    name is looked up with ``fixture``, and an inline dict or a JSON file (a
    ``.json`` suffix or an existing path) is built by ``make(data)``.  An
    unreadable file, a missing field, or a value of the wrong type, shape or
    range is an InputError."""
    if isinstance(ref, cls):
        return ref
    if isinstance(ref, dict):
        data = ref
    elif isinstance(ref, (str, Path)):
        p = Path(ref)
        if not (p.suffix == ".json" or p.exists()):
            return fixture(str(ref))
        import orjson  # deferred: the CLI imports this module, and only file references parse JSON

        try:
            raw = p.read_bytes()
            # the brackets outside strings: "[" and "{" have bit 1 set, "]" and "}" do not
            brackets = np.frombuffer(_STRING.sub(b"", raw).translate(None, _NOT_BRACKET), dtype=np.int8)
            if np.cumsum((brackets & 2) - 1).max(initial=0) > _MAX_DEPTH:
                raise ValueError(f"nested deeper than {_MAX_DEPTH} levels")
            data = orjson.loads(raw)
        except (OSError, ValueError) as exc:  # ValueError: too deep, not UTF-8 or not strict JSON
            raise InputError(f"cannot read {kind} file {ref}: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"{kind} file {ref} does not hold a JSON object")
    else:
        raise InputError(f"unsupported {kind} reference {ref!r}")
    try:
        return make(data)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{kind} file is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind} file: {exc}") from exc


def algebra_to_dict(g: LieAlgebra) -> dict:
    return {"name": g.name, "dim": g.dim, "c": g.c.tolist()}


def load_algebra(ref) -> LieAlgebra:
    return _load(
        ref, LieAlgebra, "algebra", fixtures.algebra,
        lambda d: LieAlgebra(str(d["name"]), _integer(d["dim"], "dim"), np.asarray(d["c"], dtype=float)),
    )


def manifold_to_dict(m: ChartedManifold) -> dict:
    return {
        "dim": m.dim,
        "charts": [
            {"box": c.box.tolist(), "resolution": list(c.resolution), "center": list(c.center)}
            for c in m.charts
        ],
        "overlaps": [
            {
                "alpha": o.alpha,
                "beta": o.beta,
                "region": o.region.tolist(),
                "map": {"matrix": o.matrix.tolist(), "offset": o.offset.tolist()},
            }
            for o in m.overlaps
        ],
    }


def load_manifold(ref) -> ChartedManifold:
    return _load(ref, ChartedManifold, "manifold", fixtures.manifold, build_manifold)


def bundle_to_dict(t: Trivialization, algebra_ref=None, manifold_ref=None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_dict(t.algebra),
        "manifold": manifold_ref if manifold_ref is not None else manifold_to_dict(t.manifold),
        "frames": [f.tolist() for f in t.frames],
    }


def load_bundle(ref) -> Trivialization:
    return _load(
        ref, Trivialization, "bundle", fixtures.bundle,
        lambda d: Trivialization(
            load_algebra(d["algebra"]),
            load_manifold(d["manifold"]),
            tuple(np.asarray(f, dtype=float) for f in d["frames"]),
        ),
    )


def connection_to_dict(c: ConnectionForm) -> dict:
    # omega stored per chart, per axis, then node-major
    omega = []
    for grid in c.omega:
        mdim = grid.shape[-3]
        by_axis = np.moveaxis(grid, -3, 0)
        omega.append([by_axis[i].tolist() for i in range(mdim)])
    return {
        "bundle": bundle_to_dict(c.bundle),
        "omega": omega,
    }


def load_connection(ref) -> ConnectionForm:
    return _load(
        ref, ConnectionForm, "connection", fixtures.connection,
        lambda d: ConnectionForm(
            load_bundle(d["bundle"]),
            tuple(np.moveaxis(np.asarray(w, dtype=float), 0, -3) for w in d["omega"]),
        ),
    )


def save_json(path, payload: dict) -> None:
    try:
        Path(path).write_text(json.dumps(payload, sort_keys=True))
    except OSError as exc:
        raise InputError(f"cannot write JSON file {path}: {exc}") from exc


def emit_fixture(name: str, out_dir) -> Path:
    """Write a named fixture to <out_dir>/<name>.json and return the path.

    Where a bundle and a connection share a name, the bundle wins; prefix
    with "connection:" to emit the connection instead.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write fixture file into {out_dir}: {exc}") from exc
    force_connection = name.startswith("connection:")
    if force_connection:
        name = name.split(":", 1)[1]
    path = out_dir / f"{name}.json"
    if force_connection:
        if name not in fixtures.CONNECTION_NAMES:
            raise InputError(f"unknown connection fixture {name!r}")
        save_json(path, connection_to_dict(fixtures.connection(name)))
    elif name in fixtures.ALGEBRA_NAMES:
        save_json(path, algebra_to_dict(fixtures.algebra(name)))
    elif name in fixtures.MANIFOLD_NAMES:
        save_json(path, manifold_to_dict(fixtures.manifold(name)))
    elif name in fixtures.BUNDLE_NAMES:
        t = fixtures.bundle(name)
        save_json(path, bundle_to_dict(t, algebra_ref=t.algebra.name, manifold_ref=t.manifold.name))
    elif name in fixtures.CONNECTION_NAMES:
        save_json(path, connection_to_dict(fixtures.connection(name)))
    else:
        raise InputError(f"unknown fixture {name!r}")
    return path
