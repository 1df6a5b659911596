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


def _store_entries(x, Z):
    """The columns of a column-major store Z that a sparse query x reads,
    as a ``(nnz, rows)`` copy, with x's values there and x's values past
    Z's width, which meet only zeros.

    ``x.indices`` are 1-based columns of Z; they ascend, as a
    ``SparseVector``'s do, or else all lie within Z's width.
    """
    idx, values = x.indices, x.values
    beyond = values[:0]
    if idx.size and idx[-1] > Z.shape[1]:
        n = np.searchsorted(idx, Z.shape[1], side="right")
        idx, values, beyond = idx[:n], values[:n], values[n:]
    return Z.T[idx - 1], values, beyond


def laplacian(x, y, psi, dim):
    """exp(-lambda * l1(x, y)) with lambda = log(psi)/dim."""
    return Laplacian(psi, dim)(x, y)


def gaussian(x, y, gamma):
    """exp(-gamma * ||x - y||^2)."""
    return Gaussian(gamma, max(x.dim, y.dim))(x, y)


class Laplacian:
    """Laplacian kernel: a scalar form on sparse points, a scorer of a
    sparse point against a column-major store of rows, and dense-row
    reference paths (``point_to_row``, ``row_scores``, ``matrix``)."""

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

    def point_to_row(self, x):
        return x.densify(self.dim)

    def row_scores(self, row, Z):
        """k(row, z) for every row z of the dense matrix Z."""
        diff = Z - row
        np.abs(diff, out=diff)
        return np.exp(-self.lam * diff.sum(axis=1))

    def row_norm(self, values):
        """||z||_1 of a stored row with nonzero ``values``: the ``norms``
        entry that ``sparse_row_scores`` takes for it."""
        return float(np.abs(values).sum())

    def sparse_row_scores(self, x, Z, norms):
        """k(x, z) for every row z of a column-major store Z, whose
        ``row_norm`` values are ``norms``, reading only x's own columns:
        l1(x, z) = ||z||_1 + sum_{j in supp x} (|x_j - z_j| - |z_j|).
        See ``_store_entries`` for how x's entries meet Z's columns.
        """
        cols, values, beyond = _store_entries(x, Z)
        abs_z = np.abs(cols)
        cols -= values[:, None]
        np.abs(cols, out=cols)
        cols -= abs_z
        d1 = cols.sum(axis=0)
        d1 += norms
        if beyond.size:
            d1 += np.abs(beyond).sum()
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
    """Gaussian (RBF) kernel, with the same paths as ``Laplacian``."""

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

    def point_to_row(self, x):
        return x.densify(self.dim)

    def row_norm(self, values):
        """||z||^2 of a stored row with nonzero ``values``: the ``norms``
        entry that ``sparse_row_scores`` takes for it."""
        return float(values @ values)

    def sparse_row_scores(self, x, Z, norms):
        """k(x, z) for every row z of a column-major store Z, whose
        ``row_norm`` values are ``norms``, reading only x's own columns:
        ||x - z||^2 = ||z||^2 + ||x||^2 - 2 sum_{j in supp x} x_j z_j,
        clamped at 0. See ``_store_entries``."""
        cols, values, _ = _store_entries(x, Z)
        sq = values @ cols
        sq *= -2.0
        sq += norms
        sq += x.values @ x.values
        np.maximum(sq, 0.0, out=sq)
        sq *= -self.gamma
        return np.exp(sq, out=sq)

    def row_scores(self, row, Z):
        sq = (Z * Z).sum(axis=1) - 2.0 * (Z @ row) + row @ row
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-self.gamma * sq)

    def matrix(self, X, Z):
        sq = (
            (X * X).sum(axis=1)[:, None]
            - 2.0 * (X @ Z.T)
            + (Z * Z).sum(axis=1)[None, :]
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-self.gamma * sq)


def make_kernel(params):
    """Rebuild a kernel object from its ``params()`` record."""
    kind = params["name"]
    if kind == "laplacian":
        return Laplacian(params["psi"], params["dim"])
    if kind == "gaussian":
        return Gaussian(params["gamma"], params["dim"])
    raise ParameterError(f"unknown kernel {kind!r}")
