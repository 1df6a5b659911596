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

# elements per |X - Z| broadcast block; bounds peak memory
_BLOCK_ELEMS = 16_000_000


class RowStore:
    """Rows held column-major on the union of their supports, plus one zero
    column, and scored against a query by ``kernel.sparse_row_scores``.

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

    def scores(self, indices, values):
        """k(x, z) for every stored row z, in order, where x has the
        1-based attributes ``indices`` and the ``values``."""
        at = self.slot.take(indices, mode="clip")
        return self.kernel.sparse_row_scores(
            (at, values), self.Z[:self.n], self.norms[:self.n]
        )


def laplacian(x, y, psi, dim):
    """exp(-lambda * l1(x, y)) with lambda = log(psi)/dim."""
    return Laplacian(psi, dim)(x, y)


def gaussian(x, y, gamma):
    """exp(-gamma * ||x - y||^2)."""
    return Gaussian(gamma, max(x.dim, y.dim))(x, y)


class Laplacian:
    """Laplacian kernel: a scalar form on sparse points, a scorer of a
    query against the rows of a ``RowStore``, and a dense kernel matrix."""

    name = "laplacian"

    def __init__(self, psi, dim):
        if psi < 2:
            raise ParameterError(f"psi must be >= 2, got {psi}")
        if dim < 1:
            raise ParameterError(f"dim must be >= 1, got {dim}")
        self.psi = psi
        self.dim = int(dim)
        self.lam = math.log(psi) / dim

    def __call__(self, x, y):
        return math.exp(-self.lam * l1_distance(x, y))

    def params(self):
        return {"name": self.name, "psi": self.psi, "dim": self.dim}

    def row_norm(self, values):
        """||z||_1 of a stored row with nonzero ``values``: the ``norms``
        entry that ``sparse_row_scores`` takes for it."""
        return float(np.abs(values).sum())

    def sparse_row_scores(self, x, Z, norms):
        """k(x, z) for every row z of a column-major store Z, whose
        ``row_norm`` values are ``norms``, reading only x's own columns:
        l1(x, z) = ||z||_1 + sum_{j in supp x} (|x_j - z_j| - |z_j|).
        x is ``(columns, values)``: its entries' columns of Z, and their
        values.
        """
        at, values = x
        cols = Z.T[at]
        abs_z = np.abs(cols)
        cols -= values[:, None]
        np.abs(cols, out=cols)
        cols -= abs_z
        d1 = cols.sum(axis=0)
        d1 += norms
        d1 *= -self.lam
        return np.exp(d1, out=d1)

    def matrix(self, X, Z):
        """Kernel matrix between dense row sets X (n x d) and Z (m x d)."""
        n = X.shape[0]
        out = np.empty((n, Z.shape[0]), dtype=np.float64)
        step = max(1, _BLOCK_ELEMS // max(1, Z.shape[0] * Z.shape[1]))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            d1 = np.abs(X[lo:hi, None, :] - Z[None, :, :]).sum(axis=2)
            out[lo:hi] = np.exp(-self.lam * d1)
        return out


class Gaussian:
    """Gaussian (RBF) kernel: a scalar form on sparse points, and a scorer
    of a query against the rows of a ``RowStore``."""

    name = "gaussian"

    def __init__(self, gamma, dim):
        if gamma <= 0:
            raise ParameterError(f"gamma must be > 0, got {gamma}")
        self.gamma = float(gamma)
        self.dim = int(dim)

    def __call__(self, x, y):
        return math.exp(-self.gamma * sq_distance(x, y))

    def params(self):
        return {"name": self.name, "gamma": self.gamma, "dim": self.dim}

    def row_norm(self, values):
        """||z||^2 of a stored row with nonzero ``values``: the ``norms``
        entry that ``sparse_row_scores`` takes for it."""
        return float(values @ values)

    def sparse_row_scores(self, x, Z, norms):
        """k(x, z) for every row z of a column-major store Z, whose
        ``row_norm`` values are ``norms``, reading only x's own columns:
        ||x - z||^2 = ||z||^2 + ||x||^2 - 2 sum_{j in supp x} x_j z_j,
        clamped at 0. x is ``(columns, values)``, as for ``Laplacian``."""
        at, values = x
        sq = values @ Z.T[at]
        sq *= -2.0
        sq += norms
        sq += values @ values
        np.maximum(sq, 0.0, out=sq)
        sq *= -self.gamma
        return np.exp(sq, out=sq)


def make_kernel(params):
    """Rebuild a kernel object from its ``params()`` record."""
    kind = params["name"]
    if kind == "laplacian":
        return Laplacian(params["psi"], params["dim"])
    if kind == "gaussian":
        return Gaussian(params["gamma"], params["dim"])
    raise ParameterError(f"unknown kernel {kind!r}")
