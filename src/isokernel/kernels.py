"""Closed-form baseline kernels with sharpness parameterization.

The Laplacian kernel is expressed through the same sharpness parameter psi
used by the partition-based kernel: L(x, y) = psi^(-l1(x,y)/d), i.e.
exp(-lambda * l1) with lambda = log(psi)/d where d is the ambient dimension.
Both kernels are normalized: k(x, x) = 1.
"""

import math

import numpy as np

from .dataset import l1_distance, sq_distance
from .errors import ParameterError

# Elements of the widest temporary that ``RowStore.scores`` makes for one
# block of rows: a block of m rows, each padded to the widest row's w
# entries, against n stored rows gathers m*w*n of them, so a block holds
# SCORE_BLOCK // (w*n) rows, or one row when a row needs more. Measured on
# baselines-online's data (8000 a9a-shaped rows of 14 entries, seed 301;
# NOGD has b=100 landmarks, so 23 rows per block at 2^15), one
# ``run_online`` each, best of 5 (numpy 2.4, 2-vCPU VM):
#
# | budget | NOGD run | dual OGD run |
# |---|---|---|
# | 2^10 | 0.43 s | 1.43 s |
# | 2^12 | 0.37 s | 1.43 s |
# | 2^14 | 0.21 s | 1.43 s |
# | 2^15 | 0.19 s | 1.42 s |
# | 2^16 | 0.18 s | 1.41 s |
# | 2^18 | 0.23 s | 1.70 s |
#
# Dual OGD's run is mostly its one-point steps, a block of one row each;
# its batch scores slow down once a block outgrows the cache (2^18).
# 2^15 float64 elements are 256 KB: near the best, at half the memory of
# 2^16.
SCORE_BLOCK = 1 << 15


class RowStore:
    """Rows held column-major on the union of their supports, plus one zero
    column, and scored against a block of queries by
    ``kernel.sparse_row_scores``.

    ``slot`` maps each attribute from 0 to one past the largest stored to
    its store column. Column 0 is the zero column: attributes outside the
    union map to it, and so do attributes past the end of ``slot``, whose
    last entry is never in the union. Rows grow by doubling. Columns grow
    by half, to at most one per attribute up to the largest stored, so a
    store is never wider than a dense one: on sparse rows new columns
    come with almost every row, and doubling them too would leave the
    store up to four times the size of its rows.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.n = 0
        self.width = 1  # store columns in use, the zero column included
        self.Z = np.zeros((0, 1), order="F")
        self.norms = np.empty(0)  # kernel.row_norm of each stored row
        self.slot = np.zeros(1, dtype=np.int32)

    def append(self, indices, values):
        """Store the row with ascending 1-based attributes ``indices`` and
        their ``values``."""
        if indices.size and indices[-1] + 1 >= self.slot.size:
            slot = np.zeros(int(indices[-1]) + 2, dtype=np.int32)
            slot[:self.slot.size] = self.slot
            self.slot = slot
        at = self.slot[indices]
        new = indices[at == 0]
        rows, cols = self.Z.shape
        if self.n == rows or self.width + new.size > cols:
            if self.n == rows:
                rows = max(16, 2 * rows)
            if self.width + new.size > cols:
                cols = min(max(cols + cols // 2, self.width + new.size),
                           self.slot.size - 1)
            Z = np.zeros((rows, cols), order="F")
            Z[:self.n, :self.width] = self.Z[:self.n, :self.width]
            self.Z = Z
            self.norms = np.resize(self.norms, rows)
        if new.size:
            self.slot[new] = np.arange(self.width, self.width + new.size)
            self.width += new.size
            at = self.slot[indices]
        self.Z[self.n, at] = values
        self.norms[self.n] = self.kernel.row_norm(values)
        self.n += 1

    def scores(self, indices, values, offsets, weights=None):
        """k(x, z) for every row x of the flat ragged rows ``(indices,
        values, offsets)``, with 1-based attributes, and every stored row z,
        in order: an (m, n) array. With ``weights``, one per stored row,
        each x's sum of ``weights[z] * k(x, z)`` instead, an (m,) array,
        one dot per row, taken as soon as its block is scored.
        """
        parts = [K if weights is None else np.vecdot(K, weights)
                 for K in self.blocks(indices, values, offsets,
                                      self.kernel.sparse_row_scores)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def blocks(self, indices, values, offsets, score):
        """``score(x, Z, norms)`` of each block x of the flat ragged rows
        ``(indices, values, offsets)`` in turn, as the kernel's
        ``sparse_row_scores`` takes a block: an array of a row per row of
        x and a column per stored row.

        Rows go a block at a time within ``SCORE_BLOCK``, and one after
        another on a store of one row: there numpy sums each row's terms
        pairwise, so that a row padded in a block would round otherwise.
        ``norms`` reach the kernel as a (1, n) row, which adds to a block
        of one row without broadcasting.
        """
        at = self.slot.take(indices, mode="clip")
        Z, norms = self.Z[:self.n], self.norms[None, :self.n]
        m = offsets.size - 1
        step = m
        if m > 1 and self.n:
            wide = max(1, int(np.diff(offsets).max()) * self.n)
            step = 1 if self.n == 1 else min(m, max(1, SCORE_BLOCK // wide))
        if step == m:
            yield score((at, values, offsets), Z, norms)
            return
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            a, b = offsets[lo], offsets[hi]
            yield score((at[a:b], values[a:b], offsets[lo:hi + 1] - a), Z,
                        norms)


def _padded(x):
    """``(columns, values, m, w)`` of a block of m rows x = ``(columns,
    values, offsets)``, each row's entries padded at the end to the widest
    row's w with column 0 (the store's zero column) and the value 0. A
    padded entry adds a term of 0 after a row's own, so summing a row's w
    terms in order, as ``reshape(m, w, n).sum(axis=1)`` does on a store of
    more than one row, rounds as summing its own."""
    at, values, offsets = x
    m = offsets.size - 1
    if m == 1:
        return at, values, 1, at.size
    count = np.diff(offsets)
    w = int(count.max(initial=0))
    if at.size == m * w:  # every row has w entries
        return at, values, m, w
    keep = np.arange(w) < count[:, None]
    pad_at = np.zeros((m, w), dtype=at.dtype)
    pad_values = np.zeros((m, w))
    pad_at[keep] = at
    pad_values[keep] = values
    return pad_at.reshape(-1), pad_values.reshape(-1), m, w


class _Stationary:
    """A kernel exp(-scale * dist(x, y)) whose distance sums ``term(x_j -
    y_j)`` over the attributes j (``term`` is ``np.abs`` or ``np.square``),
    clamped at 0 when ``clamp`` is set: a scalar form on sparse points by
    ``distance``, and a scorer of a block of queries against the rows of a
    ``RowStore``."""

    def __init__(self, term, distance, scale, clamp):
        self.term, self.distance = term, distance
        self.scale, self.clamp = scale, clamp

    def __call__(self, x, y):
        return math.exp(-self.scale * self.distance(x, y))

    def sparse_row_scores(self, x, Z, norms):
        """k(x, z) for every row x of a block and every row z of a
        column-major store Z, whose ``row_norm`` values are the (1, n) row
        ``norms``, as an (m, n) array: ``of_distances`` of
        ``sparse_row_distances``."""
        return self.of_distances(self.sparse_row_distances(x, Z, norms))

    def of_distances(self, dist, out=None):
        """exp(-scale * dist), into ``out``, by default ``dist`` itself."""
        out = np.multiply(dist, -self.scale, out=dist if out is None else out)
        return np.exp(out, out=out)

    def sparse_row_distances(self, x, Z, norms):
        """dist(x, z) for every row x of a block and every row z of a
        column-major store Z, as ``sparse_row_scores`` takes them, reading
        only each x's own columns: dist(x, z) = norm(z) + sum_{j in supp x}
        (term(x_j - z_j) - term(z_j)). x is ``(columns, values, offsets)``:
        its rows' entries' columns of Z and their values, row i's at
        ``offsets[i]:offsets[i + 1]``. No distance depends on ``scale``.
        """
        at, values, m, w = _padded(x)
        cols = Z.T[at]
        term_z = self.term(cols)
        cols -= values[:, None]
        self.term(cols, out=cols)
        cols -= term_z
        dist = cols.reshape(m, w, Z.shape[0]).sum(axis=1)
        dist += norms
        if self.clamp:
            np.maximum(dist, 0.0, out=dist)
        return dist


class Laplacian(_Stationary):
    """Laplacian kernel exp(-lambda * l1(x, y)), lambda = log(psi)/dim;
    also a dense kernel matrix."""

    name = "laplacian"

    def __init__(self, psi, dim):
        if psi < 2:
            raise ParameterError(f"psi must be >= 2, got {psi}")
        if dim < 1:
            raise ParameterError(f"dim must be >= 1, got {dim}")
        self.psi = psi
        self.dim = int(dim)
        super().__init__(np.abs, l1_distance, math.log(psi) / dim, False)

    def params(self):
        return {"name": self.name, "psi": self.psi, "dim": self.dim}

    def row_norm(self, values):
        """||z||_1 of a stored row with nonzero ``values``: the ``norms``
        entry that ``sparse_row_scores`` takes for it."""
        return float(np.abs(values).sum())

    def matrix(self, X, Z):
        """Kernel matrix between dense row sets X (n x d) and Z (m x d),
        a block of rows at a time within ``SCORE_BLOCK`` elements."""
        n = X.shape[0]
        out = np.empty((n, Z.shape[0]), dtype=np.float64)
        step = max(1, SCORE_BLOCK // max(1, Z.shape[0] * Z.shape[1]))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            d1 = np.abs(X[lo:hi, None, :] - Z[None, :, :]).sum(axis=2)
            out[lo:hi] = np.exp(-self.scale * d1)
        return out


class Gaussian(_Stationary):
    """Gaussian (RBF) kernel exp(-gamma * ||x - y||^2)."""

    name = "gaussian"

    def __init__(self, gamma, dim):
        if gamma <= 0:
            raise ParameterError(f"gamma must be > 0, got {gamma}")
        self.dim = int(dim)
        super().__init__(np.square, sq_distance, float(gamma), True)

    def params(self):
        return {"name": self.name, "gamma": self.scale, "dim": self.dim}

    def row_norm(self, values):
        """||z||^2 of a stored row with nonzero ``values``: the ``norms``
        entry that ``sparse_row_scores`` takes for it."""
        return float(values @ values)


def make_kernel(params):
    """Rebuild a kernel object from its ``params()`` record."""
    kind = params["name"]
    if kind == "laplacian":
        return Laplacian(params["psi"], params["dim"])
    if kind == "gaussian":
        return Gaussian(params["gamma"], params["dim"])
    raise ParameterError(f"unknown kernel {kind!r}")
