"""Shared generators for randomized tests (all take an explicit rng), and
oracles that reach a partitioning's cells."""

import gzip
import json

import numpy as np

from isokernel.dataset import (
    Dataset,
    LabeledPoint,
    SparseVector,
    from_dense,
)
from isokernel.featuremap import Mapper
from isokernel.partition import (
    CentreIndex, CentreStack, ITree, by_column, sample_rows,
)


def rand_sparse(rng, dim, density=0.5, scale=1.0):
    """Random sparse vector with ~density*dim nonzero normal entries."""
    nnz = int(rng.binomial(dim, density))
    if nnz == 0:
        return SparseVector([], [], dim)
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)) + 1
    vals = rng.standard_normal(nnz) * scale
    vals[vals == 0.0] = 1.0
    return SparseVector(idx, vals, dim)


def rand_dataset(rng, n, dim, density=0.5, name="random"):
    points = [
        LabeledPoint(rand_sparse(rng, dim, density), int(rng.choice([-1, 1])))
        for _ in range(n)
    ]
    return Dataset(points, dim=dim, name=name)


def uniform_dataset(rng, n, dim, name="uniform"):
    """Dense points uniform on [0, 1]^dim."""
    X = rng.uniform(size=(n, dim))
    points = []
    for row in X:
        nz = np.flatnonzero(row)
        points.append(
            LabeledPoint(SparseVector(nz + 1, row[nz], dim), 1)
        )
    return Dataset(points, dim=dim, name=name)


def damage_npz(path, drop=None, meta=None):
    """Rewrite the npz at ``path`` without array ``drop``, or with ``meta``
    as its header."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files if key != drop}
    if meta is not None:
        arrays["meta"] = meta
    np.savez_compressed(path, **arrays)


def set_npz_entry(path, key, value):
    """Rewrite the npz at ``path`` with the first entry of array ``key``
    set to ``value``, in a float copy of the array if ``value`` is not an
    integer."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    if not isinstance(value, int):
        arrays[key] = arrays[key].astype(np.float64)
    arrays[key].reshape(-1)[0] = value
    np.savez_compressed(path, **arrays)


def rewrite_npz(path, edit):
    """Rewrite the npz at ``path`` after ``edit(meta, arrays)``, which may
    change its parsed meta and its arrays in place."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        arrays = {key: data[key] for key in data.files if key != "meta"}
    edit(meta, arrays)
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


GZIP_DAMAGE = ("truncated", "corrupted", "crc")


def damaged_gzip(data, damage):
    """``data`` gzipped, then cut in half, with 8 bytes of its deflate
    stream overwritten (past the 10-byte header), or with its CRC zeroed
    (the first 4 of the last 8 bytes), by ``damage``."""
    packed = gzip.compress(data)
    if damage == "truncated":
        return packed[: len(packed) // 2]
    if damage == "corrupted":
        return packed[:10] + b"\xff" * 8 + packed[18:]
    return packed[:-8] + bytes(4) + packed[-4:]


def as_depth_first_release(path, version):
    """Rewrite the iforest map or checkpoint at ``path`` as a release that
    numbered leaves depth-first wrote it: header ``format_version``
    ``version``, and each tree i under its own ``part{i}_`` keys, its
    ``feature`` and ``threshold`` beside its ``left``, ``right`` and
    depth-first, left-first ``leaf_id`` arrays."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    meta["format_version"] = version
    stem = "encoder_" if "encoder_feature" in arrays else ""
    trees = ITree.unpack({key: arrays.pop(stem + key)
                          for key in ("feature", "threshold", "offsets")})
    for i, tree in enumerate(trees):
        feature = tree.pack()["feature"]
        leaf_id = np.full(feature.size, -1, dtype=np.int32)
        stack, seen = [0], 0
        while stack:
            node = stack.pop()
            if feature[node] < 0:
                leaf_id[node], seen = seen, seen + 1
            else:
                stack += [tree.left[node] + 1, tree.left[node]]
        right = np.where(tree.left < 0, -1, tree.left + 1)
        for key, arr in [("feature", feature),
                         ("threshold", tree.threshold), ("left", tree.left),
                         ("right", right), ("leaf_id", leaf_id)]:
            arrays[f"{stem}part{i}_{key}"] = arr
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


def unreadable_files(tmp_path):
    """Paths of files that are not npz: LIBSVM text, a bare .npy array, a
    truncated npz and an empty file."""
    text = tmp_path / "text.npz"
    text.write_text("+1 1:0.5\n")
    bare = tmp_path / "bare.npy"
    np.save(bare, np.arange(3))
    whole = tmp_path / "whole.npz"
    np.savez_compressed(whole, meta="{}", a=np.arange(100))
    cut = tmp_path / "cut.npz"
    cut.write_bytes(whole.read_bytes()[:40])
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    return [text, bare, cut, empty]


def sample_psi(dataset, psi, rng):
    """The psi distinct points a fit draws from ``dataset`` with ``rng``:
    the SparseVectors of the rows ``sample_rows`` draws, in draw order."""
    return dataset.rows.take(sample_rows(len(dataset), psi, rng)).vectors()


def one_row_laplacian(store, x):
    """k(x, z) for every row z of ``store``, a ``RowStore`` under a
    ``Laplacian``, by the one-row scorer that block scoring replaced: x's
    terms summed over its own columns, then ``||z||_1`` added, in that
    order. Block scores must equal it bit for bit."""
    at = store.slot.take(x.indices, mode="clip")
    Z, norms = store.Z[:store.n], store.norms[:store.n]
    cols = Z.T[at]
    abs_z = np.abs(cols)
    cols -= x.values[:, None]
    np.abs(cols, out=cols)
    cols -= abs_z
    d1 = cols.sum(axis=0)
    d1 += norms
    d1 *= -store.kernel.scale
    return np.exp(d1, out=d1)


def cell(part, x):
    """Cell id of SparseVector x under ``part``, one partitioning, through
    the ``map_point`` of a one-partitioning map."""
    return int(_one_map(part, x.dim).map_point(x)[0])


def cells_of(part, X):
    """Cell ids of the rows of dense X under ``part``, through ``map_many``
    of a one-partitioning map."""
    ds = from_dense(X, np.ones(len(X), dtype=int), "rows")
    return _one_map(part, X.shape[1]).map_many(ds)[:, 0]


def _one_map(part, dim):
    return Mapper(part, int(part.n_cells[0]), 1, part.scheme, 0, dim)


def centre_forms(part):
    """A ``CentreStack`` and a ``CentreIndex`` of the centres of ``part``,
    a ``VoronoiPartition``, whichever form it scores them by."""
    packed = part.rows.entries()
    cols = np.unique(packed[1])
    sq, k = part.sq_norms, len(part)
    return [CentreStack(packed, cols, sq, k),
            CentreIndex(packed, cols, sq, k, *by_column(packed[1]))]


def walk_tree(tree, x_dense):
    """Independent re-descent of a one-tree ``ITree``: follows the split
    attributes and thresholds of its ``pack`` and its links with its own
    loop."""
    state = tree.pack()
    feature, threshold = state["feature"], state["threshold"]
    node = 0
    while feature[node] >= 0:
        attr = feature[node]
        v = x_dense[attr] if attr < len(x_dense) else 0.0
        node = tree.left[node] + (v >= threshold[node])
    return int(tree.leaf_id[node])
