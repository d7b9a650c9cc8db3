"""The package's public surface: ``__all__`` names exactly what it binds."""

import types

import labcoupling


def test_all_lists_every_public_binding():
    public = {
        name
        for name, value in vars(labcoupling).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(labcoupling.__all__) == sorted(public)
    assert len(labcoupling.__all__) == len(set(labcoupling.__all__)) == 39


def test_removed_names_stay_removed():
    for name in ("Path", "ray_path", "TransportResult", "apply_connection", "center_basis"):
        assert not hasattr(labcoupling, name)
    assert not hasattr(labcoupling.manifolds, "Path") and not hasattr(labcoupling.manifolds, "ray_path")
    assert not hasattr(labcoupling.correspondence, "TransportResult")
    assert not hasattr(labcoupling.connections, "apply_connection")
    assert not hasattr(labcoupling.algebra, "center_basis")
