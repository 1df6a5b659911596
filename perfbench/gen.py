"""Seeded generators for the benchmark's synthetic inputs.

Each generator returns ``(labels, rows)``: labels is an int array of +1/-1
and every row is ``(indices, values)`` with 1-based, strictly increasing
indices and nonzero values. ``write_libsvm`` turns that into a LIBSVM text
file. Only numpy's seeded generator is used, so the same seed gives
byte-identical files on every run; the program under test reads only those
files, never these arrays.
"""

import numpy as np

# a9a: 14 original attributes one-hot encoded into 123 binary columns, so
# every row has exactly 14 ones, one per group.
A9A_GROUPS = (5, 7, 16, 16, 7, 14, 6, 5, 2, 5, 5, 3, 2, 30)
A9A_DIM = sum(A9A_GROUPS)


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def a9a_like(n, seed, noise=0.6):
    """a9a-shaped rows: 123 binary columns, 14 ones per row.

    Each group's category is drawn from seeded skewed frequencies. The label
    is the sign of a seeded linear rule over the columns plus Gaussian
    noise, thresholded at its median so the classes are balanced. The noise
    is ``noise`` times the rule's own spread, so every seed gives a task of
    about the same difficulty.
    """
    rng = _rng(seed, 1)
    starts = np.cumsum((0,) + A9A_GROUPS[:-1])
    cols = np.empty((n, len(A9A_GROUPS)), dtype=np.int64)
    for g, (start, size) in enumerate(zip(starts, A9A_GROUPS)):
        freq = rng.dirichlet(np.ones(size))
        cols[:, g] = start + rng.choice(size, size=n, p=freq)
    weights = rng.standard_normal(A9A_DIM)
    rule = weights[cols].sum(axis=1)
    score = rule + noise * rule.std() * rng.standard_normal(n)
    labels = np.where(score > np.median(score), 1, -1)
    ones = np.ones(len(A9A_GROUPS))
    rows = [(c + 1, ones) for c in cols]
    return labels, rows


def sparse_hd(n, seed, dim=20000, nnz=20, pool=200, from_pool=2):
    """High-dimensional sparse rows whose class shows in their support.

    Each class owns ``pool`` signature columns; a row takes ``from_pool`` of
    its class's columns plus ``nnz - from_pool`` columns drawn from all
    ``dim``. Values are positive and rows have unit L2 norm, so two rows are
    close exactly when their supports overlap, and nearest-centre cells
    follow the class.
    """
    rng = _rng(seed, 2)
    signature = rng.choice(dim, size=2 * pool, replace=False)
    pools = {1: signature[:pool], -1: signature[pool:]}
    labels = rng.choice([-1, 1], size=n)
    rows = []
    for c in labels:
        chosen = set(rng.choice(pools[int(c)], size=from_pool, replace=False))
        while len(chosen) < nnz:
            chosen.add(int(rng.integers(dim)))
        idx = np.array(sorted(chosen), dtype=np.int64)
        vals = rng.uniform(0.5, 1.5, size=nnz)
        rows.append((idx + 1, vals / np.sqrt(vals @ vals)))
    return labels, rows


def two_gaussians(n, dim, separation, seed):
    """Dense two-class data: spherical Gaussians ``separation`` apart.

    The same recipe as ``isokernel.eval.make_two_gaussians``, kept here so
    the benchmark writes its own input files.
    """
    rng = _rng(seed, 3)
    labels = rng.choice([-1, 1], size=n)
    offset = separation / (2.0 * np.sqrt(dim))
    X = rng.standard_normal((n, dim)) + labels[:, None] * offset
    rows = []
    for row in X:
        nz = np.flatnonzero(row)
        rows.append((nz + 1, row[nz]))
    return labels, rows


def write_libsvm(path, labels, rows):
    """Write rows as LIBSVM text with exact (repr) float values."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for c, (idx, vals) in zip(labels, rows):
            feats = " ".join(
                f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())
            )
            fh.write(f"{'+1' if c > 0 else '-1'} {feats}\n")
