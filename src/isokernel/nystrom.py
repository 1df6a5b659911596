"""Low-rank approximate feature map from landmark eigendecomposition.

Pipeline: sample b landmark points, form the b x b kernel Gram matrix, take
the top-r eigenpairs, and project any point's landmark-kernel vector through
diag(lambda)^(-1/2) V^T to get an r-dimensional dense feature. Eigenvalues
at or below ``EIGEN_FLOOR`` are dropped (shrinking the effective rank) since
the inverse square root explodes on them.
"""

import numpy as np

from .dataset import (
    Dataset, Rows, _checked, load_npz, pack_ragged, save_npz, unpack_ragged,
)
from .errors import (
    ContractError,
    DegenerateKernelError,
    NumericError,
    ParameterError,
    SampleError,
    ShapeError,
)
from .kernels import RowStore, make_kernel
from .partition import sample_rows

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


class NystromMap:
    """Fitted landmark map: x -> proj @ (k(x, landmark_1..b)).

    The landmarks, SparseVectors or a ``Rows``, are held as one packing of
    the map's own, of which ``landmarks`` makes views when read (a
    selection's rows are gathered once, so the map does not keep its
    dataset's packing), and as the rows of a ``RowStore``, which the
    kernel's ``sparse_row_scores`` scores against a block of points at a
    time, on each point's own columns.
    """

    def __init__(self, landmarks, kernel_fn, proj, b, r, seed):
        rows = Rows.of(landmarks)
        self._rows = Rows(*rows.ragged(), rows.dim)
        self.kernel = kernel_fn
        self.proj = np.asarray(proj, dtype=np.float64)
        self.b = b
        self.r = r  # requested rank; proj may have fewer rows
        self.seed = seed
        self.encode_ops = 0  # landmark kernel evaluations while mapping
        self._store = RowStore(kernel_fn)
        for z in self._rows:
            self._store.append(z.indices, z.values)

    @property
    def landmarks(self):
        return self._rows.vectors()

    @property
    def kernel_evals(self):
        """Landmark kernel evaluations spent mapping so far."""
        return self.encode_ops

    @property
    def effective_r(self):
        return self.proj.shape[0]

    def kernel_row(self, x):
        """k(x, z) for every landmark z, in landmark order."""
        return self._store.scores(*Rows.of([x]).ragged())[0]

    def map_point(self, x):
        """Dense feature vector of length effective_r: ``map_many([x])``."""
        return self.map_many([x])[0]

    def map_many(self, points):
        """Feature matrix (n, effective_r) of a Dataset or a point list."""
        rows = points.rows if isinstance(points, Dataset) else Rows.of(points)
        K = self._store.scores(*rows.ragged())
        self.encode_ops += K.size
        return K @ self.proj.T

    def state(self):
        """(meta, arrays) from which ``from_state`` rebuilds this map."""
        meta = {
            "kernel": self.kernel.params(),
            "b": self.b,
            "r": self.r,
            "seed": self.seed,
            "dim": self._rows.dim,
        }
        return meta, {"proj": self.proj, **pack_ragged(self._rows)}

    @classmethod
    def from_state(cls, meta, arrays):
        return cls(
            unpack_ragged(arrays, meta["dim"]),
            make_kernel(meta["kernel"]), _checked("proj", arrays["proj"]),
            meta["b"], meta["r"], meta["seed"],
        )

    def save(self, path):
        save_npz(path, FORMAT_VERSION, *self.state())

    @classmethod
    def load(cls, path):
        return load_npz(path, FORMAT_VERSION, "map", cls.from_state)


def _landmarks(dataset, b, r, seed):
    """The b rows of ``dataset`` that ``fit_nystrom`` takes as landmarks
    for rank r with ``seed``, once b and r are checked."""
    if b > len(dataset):
        raise SampleError(f"cannot sample {b} landmarks from {len(dataset)}")
    if not 1 <= r <= b:
        raise ParameterError(f"rank must satisfy 1 <= r <= b, got r={r} b={b}")
    rng = np.random.default_rng(seed)
    return dataset.rows.take(sample_rows(len(dataset), b, rng))


def _projection(G, r):
    """``proj`` of the map whose landmarks' kernel Gram is G: the top r
    eigenpairs of G above ``EIGEN_FLOOR``, as diag(lambda)^(-1/2) V^T.

    If no eigenvalue is above the floor, the kernel is degenerate on the
    landmark sample and fitting fails.
    """
    G = 0.5 * (G + G.T)  # scrub asymmetric rounding from the scorer
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
    return (vecs / np.sqrt(vals)).T


def fit_nystrom(dataset, b, r, kernel_fn, seed):
    """Sample b landmarks, eigendecompose their Gram, keep the top r pairs.

    Eigenvalues <= EIGEN_FLOOR are discarded; if that leaves none, the
    kernel is degenerate on the landmark sample and fitting fails.
    """
    # the map scores its own Gram: proj is set once the Gram is known
    nm = NystromMap(_landmarks(dataset, b, r, seed), kernel_fn,
                    np.empty((0, b)), b, r, seed)
    nm.proj = _projection(nm._store.scores(*nm._rows.ragged()), r)
    return nm


def nystrom_features(train, val, kernels, b, r, seed):
    """For each of ``kernels`` in turn, ``(map_many(train),
    map_many(val))`` by the map ``fit_nystrom(train, b, r, kernel, seed)``
    fits, bit for bit.

    The kernels are stationary and differ in scale alone, so the
    landmarks are sampled and stored once, and the distances of the
    landmarks, of train and of val to them are taken once, a block at a
    time as the map's scorer takes them, then scaled per kernel into the
    Gram that ``_projection`` takes and the rows that ``map_many``
    projects.
    """
    landmarks = _landmarks(train, b, r, seed)
    store = RowStore(kernels[0])
    for z in landmarks:
        store.append(z.indices, z.values)
    distances = kernels[0].sparse_row_distances
    dists = [np.concatenate(list(store.blocks(*rows.ragged(), distances)))
             for rows in (landmarks, train.rows, val.rows)]
    K = [np.empty_like(dist) for dist in dists]
    for kernel in kernels:
        G, K_train, K_val = (kernel.of_distances(dist, out=k)
                             for dist, k in zip(dists, K))
        proj = _projection(G, r)
        yield K_train @ proj.T, K_val @ proj.T
