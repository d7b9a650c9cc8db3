"""JSON serialization for algebras, manifolds, bundles, and connections.

References inside files (a bundle's algebra, a connection's bundle) may be a
fixture name, a path to another JSON file, or an inline object.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import fixtures
from .algebra import LieAlgebra
from .bundles import Trivialization
from .connections import ConnectionForm
from .errors import InputError
from .manifolds import ChartedManifold, build_manifold


def _load_ref(ref, kind: str):
    """Resolve a name / path / inline-dict reference to a parsed JSON object,
    or to None when the name should be tried against the fixture registry."""
    if isinstance(ref, dict):
        return ref
    if isinstance(ref, (str, Path)):
        p = Path(ref)
        if p.suffix == ".json" or p.exists():
            try:
                data = json.loads(p.read_text())
            except (OSError, ValueError) as exc:  # ValueError: undecodable or not JSON
                raise InputError(f"cannot read {kind} file {ref}: {exc}") from exc
            if not isinstance(data, dict):
                raise InputError(f"{kind} file {ref} does not hold a JSON object")
            return data
        return None
    raise InputError(f"unsupported {kind} reference {ref!r}")


def _build(kind: str, make):
    """Build an object from parsed file data: a missing field, or a value of
    the wrong type, shape or range, is an InputError."""
    try:
        return make()
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{kind} file is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind} file: {exc}") from exc


def algebra_to_dict(g: LieAlgebra) -> dict:
    return {"name": g.name, "dim": g.dim, "c": g.c.tolist()}


def load_algebra(ref) -> LieAlgebra:
    if isinstance(ref, LieAlgebra):
        return ref
    data = _load_ref(ref, "algebra")
    if data is None:
        return fixtures.algebra(str(ref))
    return _build(
        "algebra",
        lambda: LieAlgebra(str(data["name"]), int(data["dim"]), np.asarray(data["c"], dtype=float)),
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
    if isinstance(ref, ChartedManifold):
        return ref
    data = _load_ref(ref, "manifold")
    if data is None:
        return fixtures.manifold(str(ref))
    return _build("manifold", lambda: build_manifold(data))


def bundle_to_dict(t: Trivialization, algebra_ref=None, manifold_ref=None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_dict(t.algebra),
        "manifold": manifold_ref if manifold_ref is not None else manifold_to_dict(t.manifold),
        "frames": [f.tolist() for f in t.frames],
    }


def load_bundle(ref) -> Trivialization:
    if isinstance(ref, Trivialization):
        return ref
    data = _load_ref(ref, "bundle")
    if data is None:
        return fixtures.bundle(str(ref))
    return _build(
        "bundle",
        lambda: Trivialization(
            load_algebra(data["algebra"]),
            load_manifold(data["manifold"]),
            tuple(np.asarray(f, dtype=float) for f in data["frames"]),
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
    if isinstance(ref, ConnectionForm):
        return ref
    data = _load_ref(ref, "connection")
    if data is None:
        return fixtures.connection(str(ref))
    return _build(
        "connection",
        lambda: ConnectionForm(
            load_bundle(data["bundle"]),
            tuple(np.moveaxis(np.asarray(w, dtype=float), 0, -3) for w in data["omega"]),
        ),
    )


def save_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def emit_fixture(name: str, out_dir) -> Path:
    """Write a named fixture to <out_dir>/<name>.json and return the path.

    Where a bundle and a connection share a name, the bundle wins; prefix
    with "connection:" to emit the connection instead.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
