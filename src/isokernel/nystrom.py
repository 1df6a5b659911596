"""Low-rank approximate feature map from landmark eigendecomposition.

Pipeline: sample b landmark points, form the b x b kernel Gram matrix, take
the top-r eigenpairs, and project any point's landmark-kernel vector through
diag(lambda)^(-1/2) V^T to get an r-dimensional dense feature. Eigenvalues
at or below ``EIGEN_FLOOR`` are dropped (shrinking the effective rank) since
the inverse square root explodes on them.
"""

import numpy as np

from .dataset import load_npz, pack_ragged, save_npz, unpack_ragged
from .errors import (
    ContractError,
    DegenerateKernelError,
    NumericError,
    ParameterError,
    SampleError,
    ShapeError,
)
from .kernels import make_kernel
from .partition import sample_psi

EIGEN_FLOOR = 1e-10
FORMAT_VERSION = 1


def sym_eigen(M):
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    ``M`` must be symmetric within 1e-10. Eigenvectors are returned as
    columns: ``M @ vecs[:, k] == vals[k] * vecs[:, k]``.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {M.shape}")
    if M.size and np.max(np.abs(M - M.T)) > 1e-10:
        raise ContractError("matrix is not symmetric within 1e-10")
    try:
        vals, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _kernel_matrix(kernel_fn, points_a, points_b):
    """Gram matrix between two point lists via the kernel's batch path, on
    both lists densified at their common dim (which may exceed the
    kernel's: a point wider than the fitted data keeps all its entries)."""
    if hasattr(kernel_fn, "matrix") and hasattr(kernel_fn, "point_to_row"):
        dim = max(p.dim for p in (*points_a, *points_b))
        A = np.stack([p.densify(dim) for p in points_a])
        B = np.stack([p.densify(dim) for p in points_b])
        return kernel_fn.matrix(A, B)
    out = np.empty((len(points_a), len(points_b)))
    for i, a in enumerate(points_a):
        for j, b in enumerate(points_b):
            out[i, j] = kernel_fn(a, b)
    return out


class NystromMap:
    """Fitted landmark map: x -> proj @ (k(x, landmark_1..b))."""

    def __init__(self, landmarks, kernel_fn, proj, b, r, seed):
        self.landmarks = list(landmarks)
        self.kernel = kernel_fn
        self.proj = np.asarray(proj, dtype=np.float64)
        self.b = b
        self.r = r  # requested rank; proj may have fewer rows
        self.seed = seed
        self.encode_ops = 0  # landmark kernel evaluations while mapping

    @property
    def kernel_evals(self):
        """Landmark kernel evaluations spent mapping so far."""
        return self.encode_ops

    @property
    def effective_r(self):
        return self.proj.shape[0]

    def map_point(self, x):
        """Dense feature vector of length effective_r: ``map_many([x])``."""
        return self.map_many([x])[0]

    def map_many(self, points):
        """Feature matrix (n, effective_r) for a list or Dataset of points."""
        xs = [p.x if hasattr(p, "x") else p for p in points]
        K = _kernel_matrix(self.kernel, xs, self.landmarks)
        self.encode_ops += K.size
        return K @ self.proj.T

    def state(self):
        """(meta, arrays) from which ``from_state`` rebuilds this map."""
        meta = {
            "kernel": self.kernel.params(),
            "b": self.b,
            "r": self.r,
            "seed": self.seed,
            "dim": max(z.dim for z in self.landmarks),
        }
        return meta, {"proj": self.proj, **pack_ragged(self.landmarks)}

    @classmethod
    def from_state(cls, meta, arrays):
        return cls(
            unpack_ragged(arrays, meta["dim"]), make_kernel(meta["kernel"]),
            arrays["proj"], meta["b"], meta["r"], meta["seed"],
        )

    def save(self, path):
        save_npz(path, FORMAT_VERSION, *self.state())

    @classmethod
    def load(cls, path):
        return load_npz(path, FORMAT_VERSION, "map", cls.from_state)


def fit_nystrom(dataset, b, r, kernel_fn, seed):
    """Sample b landmarks, eigendecompose their Gram, keep the top r pairs.

    Eigenvalues <= EIGEN_FLOOR are discarded; if that leaves none, the
    kernel is degenerate on the landmark sample and fitting fails.
    """
    if b > len(dataset):
        raise SampleError(f"cannot sample {b} landmarks from {len(dataset)}")
    if not 1 <= r <= b:
        raise ParameterError(f"rank must satisfy 1 <= r <= b, got r={r} b={b}")
    rng = np.random.default_rng(seed)
    landmarks = sample_psi(dataset, b, rng)
    G = _kernel_matrix(kernel_fn, landmarks, landmarks)
    G = 0.5 * (G + G.T)  # scrub asymmetric rounding from the batch path
    vals, vecs = sym_eigen(G)
    vals = vals[:r]
    vecs = vecs[:, :r]
    keep = vals > EIGEN_FLOOR
    if not np.any(keep):
        raise DegenerateKernelError(
            f"all top-{r} Gram eigenvalues are <= {EIGEN_FLOOR}"
        )
    vals = vals[keep]
    vecs = vecs[:, keep]
    proj = (vecs / np.sqrt(vals)).T
    return NystromMap(landmarks, kernel_fn, proj, b, r, seed)
