"""Fixture bytes pinned by SHA-256 digests.

Each digest covers every array a named fixture is made of at one
refinement: an algebra's structure constants; a manifold's chart boxes,
resolutions and centers and its overlaps' charts, regions and maps; a
bundle's manifold and frames; a connection's bundle and omega grids.  Dtype,
shape and raw bytes (signs of zeros included) all enter the hash, so a
rebuilt fixture must be bit-for-bit the one these checks were run on.
After an intended fixture change, print a fresh table with
``PYTHONPATH=src python -m tests.test_fixtures``.
"""

import hashlib

import numpy as np
import pytest

from labcoupling import fixtures as fx

REFINES = (1, 2)


def _manifold_arrays(m):
    yield np.array([m.dim], dtype=np.int64)
    for chart in m.charts:
        yield chart.box
        yield np.array(chart.resolution + chart.center, dtype=np.int64)
    for o in m.overlaps:
        yield np.array([o.alpha, o.beta], dtype=np.int64)
        yield o.region
        yield o.matrix
        yield o.offset


def _bundle_arrays(t):
    yield t.algebra.c
    yield from _manifold_arrays(t.manifold)
    yield from t.frames


def fixture_arrays(kind: str, name: str, refine: int):
    if kind == "algebra":
        return [fx.algebra(name).c]
    if kind == "manifold":
        return list(_manifold_arrays(fx.manifold(name, refine)))
    if kind == "bundle":
        return list(_bundle_arrays(fx.bundle(name, refine)))
    c = fx.connection(name, refine)
    return list(_bundle_arrays(c.bundle)) + list(c.omega)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def cases():
    families = (
        ("algebra", fx.ALGEBRA_NAMES),
        ("manifold", fx.MANIFOLD_NAMES),
        ("bundle", fx.BUNDLE_NAMES),
        ("connection", fx.CONNECTION_NAMES),
    )
    # an algebra has no grid, so it is pinned once
    return [
        (kind, name, r)
        for kind, names in families
        for name in names
        for r in (REFINES if kind != "algebra" else REFINES[:1])
    ]


DIGESTS = {
    "algebra abelian2 1": "eff1f50d441aa3d7caceba7e1cf65b3694eff780c3e11da5294cf255fea6c1ce",
    "algebra so3 1": "00bfe26f78d6e7f7ed62f7ce0316da7aab2121bc0195a03c5045f00e964be499",
    "algebra heis3 1": "25fb28f48134106995bd3789f72b46d2cbf0a2b10e8706a8de1fb6b9218e051e",
    "algebra aff1 1": "00acdb2fda86adce976e9eeafc9bce07b30e9a463a6baf90c5d07c3907f16399",
    "manifold interval1 1": "f9253442b096b938fb7195cd505c941792dc3139d2b2817ace28430dafac382b",
    "manifold interval1 2": "70c555a48c9e7b6dfc1fa69e46eeb34e1082dee54c817f70d9e584fe610c7cd3",
    "manifold interval3 1": "3adf09c948c648ce0804699f9e24d84f08209802ee7d07973d9e2dba28b1b4d4",
    "manifold interval3 2": "c10da2ea4e43ee6d7be28b95c95d7e5e0b73014cc263a5d124e98739ccd6ebeb",
    "manifold circle2 1": "8e43112732e302b1e90cdb63a52efc15bf5a2e29f275c6332d8649a90004fd58",
    "manifold circle2 2": "976081936a856e5be0bde6ae9a069eb6a481c217b669754d06371fd752287a11",
    "manifold circle4 1": "bcf09b6a19e040499e6c601561ffcd51f156b5e448746390ae0e98ec72b54875",
    "manifold circle4 2": "4b0098ddea59f37e7589e7927a732d2f53cc7e134ac97736ed7b0ad2bca6320e",
    "manifold disk2d 1": "c056ec0141d20cc692b4390dc1b5b8177953e1bcec1c57948f31f168a5d0499a",
    "manifold disk2d 2": "6077ee6f53392177dcd1a06bd29e19ef478a8db75751ba2b09699cf1dc185413",
    "manifold cyl2 1": "62d1896034841640cac48e4d9248f2db24785d8da6027f272ad392f29bb5aa3c",
    "manifold cyl2 2": "b764432be227ddbe6973a3e63be6ebc6b7f170e7e096237e9dfb0c2fe7335a37",
    "bundle circle2_so3_twisted 1": "f40110e52a5fde74ee161e394cf4077e4f6a42e1232d245df8971e5a0ae8d1cf",
    "bundle circle2_so3_twisted 2": "eea24389a2d42ed386b9cd630581d12877082da4c0a3ee85ef23e878d12aa900",
    "bundle cyl2_so3_twisted 1": "1c64172a253851269d1c2a18aa61b37a4f8859116ed3239a832d147ac58cc7bf",
    "bundle cyl2_so3_twisted 2": "830e415899c200849924b82a103ab23a2f0854c2ceca3a2d74c54b4f0d0cac40",
    "bundle circle2_abelian2_twisted 1": "5ccc38d1776fde3fbe7d25a020ddf4c54232fad9da05f9c5f257c08775c04657",
    "bundle circle2_abelian2_twisted 2": "612a3d54a32e55afe167a219096823681950eb6942a6bcfac5daaffd4c05ed09",
    "bundle circle2_abelian2_varying 1": "0e1f8c0214cba0968aed6da8c32b14f6b63b806e18073b6afcc7c9aa50821a15",
    "bundle circle2_abelian2_varying 2": "58bf043bd734b8480fb9192619f93ac918c0b2153e05f51944635fd0dba51ea7",
    "bundle disk2d_so3_bilinear 1": "ab924d8a96f3d348aa6abc1a6d15ab879f285b19c581a95ec4fed9742729cd23",
    "bundle disk2d_so3_bilinear 2": "8186f8b5df58bb3012970f6584a2894731360cfee8ed39cc18432a1320f0b085",
    "bundle cyl2_heis3_drift 1": "1fe250716c31d501c2f98d22d2446ad8841f2770d9a30450c2019f0461c10a06",
    "bundle cyl2_heis3_drift 2": "0e7d3269c0852ed2de89d22fab084d5c11d5a75750a6ad6e548ae9c33b82ec28",
    "bundle interval3_so3_twisted 1": "67ebd1887ff396645b38e798ad254b135e04693256cfee48ca7992fb53a79703",
    "bundle interval3_so3_twisted 2": "e7deb6bc625b2fa62a80864a29b381ee873a0dd668501d501a1917bb363256ee",
    "connection interval1_so3_flat 1": "41ac5226725a9e0e808bc45b6ae24466ad2ad31132362fe31804dc0b15603627",
    "connection interval1_so3_flat 2": "c2b2fb53d82bdd4fc4e07f8e2da494c9bc00b7b0b7e01ba7b970014db021ce35",
    "connection circle2_so3_twisted 1": "befe1b20ac477f980cd900a6fdd6190a6bf81ac4f60c937789913af1f6ae74e3",
    "connection circle2_so3_twisted 2": "d9d689a5bcfdd79fba3fa371ba6d1cae1c2157d50d4d63ae1acf83d52e7b79c5",
    "connection cyl2_so3_twisted 1": "eecac27f89fcf0e829bab6adda9689ae8c27868e93d97edca3384623157608b4",
    "connection cyl2_so3_twisted 2": "4fa07de7db65ffbae7cd14f129ba29d3549dc421a373413c1a415da32a107cd7",
    "connection disk2d_so3_nonflat 1": "cb15b93c5b79130c607eec10df736a5c594ff698d628f6936c224aff185a717d",
    "connection disk2d_so3_nonflat 2": "123a615008ba9efeae7031f6ba2175f338e4f58e41b9fc2d2ec0d13e115338e1",
    "connection disk2d_abelian2_nonflat 1": "20bbe113a3f4c2733a6c73aaf84f23f99e75fce628c54788608a636b39350f2d",
    "connection disk2d_abelian2_nonflat 2": "aec7cffc514535215eb82c8af0b842549ef0025670321aa35aed0f86aab18158",
    "connection circle2_abelian2_flat 1": "b8381300569f985b138f0659737b177b171fbbc16f6ce083fec41b081c07c393",
    "connection circle2_abelian2_flat 2": "10901176bcbeb8dd44ef2386ba4100b68ca6198bb639be2f5514a3d5954e3327",
    "connection disk2d_heis3_outer 1": "ea1c7d983b6929785edb91b7feaab40accae771dcabc0a1a8d825801f4855121",
    "connection disk2d_heis3_outer 2": "ac4cd55d2f29a5ba2fe2b9dc6bce5d03c74de42ee1105bdf9510b39d45baf69a",
}


def test_fixture_names_and_their_order():
    assert fx.ALGEBRA_NAMES == ("abelian2", "so3", "heis3", "aff1")
    assert fx.MANIFOLD_NAMES == ("interval1", "interval3", "circle2", "circle4", "disk2d", "cyl2")
    assert fx.BUNDLE_NAMES == (
        "circle2_so3_twisted",
        "cyl2_so3_twisted",
        "circle2_abelian2_twisted",
        "circle2_abelian2_varying",
        "disk2d_so3_bilinear",
        "cyl2_heis3_drift",
        "interval3_so3_twisted",
    )
    assert fx.CONNECTION_NAMES == (
        "interval1_so3_flat",
        "circle2_so3_twisted",
        "cyl2_so3_twisted",
        "disk2d_so3_nonflat",
        "disk2d_abelian2_nonflat",
        "circle2_abelian2_flat",
        "disk2d_heis3_outer",
    )
    assert sorted(DIGESTS) == sorted(f"{k} {n} {r}" for k, n, r in cases())


@pytest.mark.parametrize("kind, name, refine", cases())
def test_fixture_bytes_match_their_digest(kind, name, refine):
    assert digest(fixture_arrays(kind, name, refine)) == DIGESTS[f"{kind} {name} {refine}"]


if __name__ == "__main__":
    for kind, name, r in cases():
        print(f'    "{kind} {name} {r}": "{digest(fixture_arrays(kind, name, r))}",')
