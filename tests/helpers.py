"""Shared generators for randomized tests. All take an explicit rng."""

import numpy as np

from isokernel.dataset import Dataset, LabeledPoint, SparseVector


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


def unreadable_files(tmp_path):
    """Paths of files that are not npz: LIBSVM text, a bare .npy array and
    a truncated npz."""
    text = tmp_path / "text.npz"
    text.write_text("+1 1:0.5\n")
    bare = tmp_path / "bare.npy"
    np.save(bare, np.arange(3))
    whole = tmp_path / "whole.npz"
    np.savez_compressed(whole, meta="{}", a=np.arange(100))
    cut = tmp_path / "cut.npz"
    cut.write_bytes(whole.read_bytes()[:40])
    return [text, bare, cut]
