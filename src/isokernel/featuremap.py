"""The exact sparse feature map: t partitionings, index encoding, dot products.

A fitted ``Mapper`` holds t independently built partitionings with psi cells
each. A point maps to a length-t integer vector of cell ids (its "indexed
feature"); conceptually this encodes a binary vector of t*psi slots with
exactly t ones, but that dense form is never materialized outside test
oracles. The kernel value of two points is the fraction of partitionings in
which their ids agree, so it always lies on the grid {0, 1/t, ..., 1} and
k(x, x) = 1.

Weight matrices for primal learners are plain (t, psi) float arrays; the
indexed form makes <w, feature> a sum of t entries of w, independent of psi.
"""

import numpy as np

from .dataset import load_npz, save_npz, strip_prefix
from .errors import ParameterError, ProvenanceError, ShapeError
from .partition import SCHEMES, ITree, sample_psi

FORMAT_VERSION = 1
# elements in one encoding block's (row, tree) pairs or (row, center) scores
_BLOCK = 1 << 14


class OpCounter:
    """Accumulates elementary-operation counts for cost assertions."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n):
        self.count += int(n)


class Mapper:
    """t fitted partitionings sharing one scheme, psi, and fit seed."""

    def __init__(self, parts, psi, t, scheme, seed, dim):
        self.parts = parts
        self.psi = psi
        self.t = t
        self.scheme = scheme
        self.seed = seed
        self.dim = dim
        self.encode_ops = 0  # partitioning assignments performed so far
        self._forest = ITree.join(parts) if scheme == "iforest" else None

    @classmethod
    def fit(cls, dataset, psi, t, scheme, seed):
        """Build t partitionings from t independent psi-samples of dataset.

        Partitioning i draws its sample (and any split randomness) from a
        generator seeded by (seed, i), so fitting is reproducible and the
        partitionings could be built in parallel without changing results.
        """
        if t < 1:
            raise ParameterError(f"t must be >= 1, got {t}")
        if scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {scheme!r}")
        if len(dataset) == 0:
            raise ParameterError("cannot fit on an empty dataset")
        if seed is None:
            seed = int(np.random.default_rng().integers(2**31))
        parts = []
        for i in range(t):
            rng = np.random.default_rng((seed, i))
            sample = sample_psi(dataset, psi, rng)
            if scheme == "iforest":
                parts.append(SCHEMES[scheme].build(sample, rng))
            else:
                parts.append(SCHEMES[scheme].build(sample))
        return cls(parts, psi, t, scheme, seed, dataset.dim)

    def map_point(self, x):
        """Indexed feature of x: entry i is the cell id under partitioning i."""
        return self._encode(x.densify()[None])[0]

    def map_many(self, dataset):
        """Indexed features for a whole dataset as an (n, t) int32 matrix,
        equal to stacking ``map_point`` over all points."""
        return self._encode(dataset.dense())

    def _encode(self, X):
        """Cell ids of the rows of dense X, in blocks of at most ``_BLOCK``
        (row, tree) pairs or (row, center) scores, or of one row when a row
        has more."""
        out = np.empty((X.shape[0], self.t), dtype=np.int32)
        step = max(1, _BLOCK // (self.t if self._forest else self.psi))
        for lo in range(0, X.shape[0], step):
            block = X[lo : lo + step]
            if self._forest:
                forest, roots = self._forest
                out[lo : lo + step] = forest.leaf_id[forest.descend(block, roots)]
            else:
                for i, part in enumerate(self.parts):
                    out[lo : lo + step, i] = part.assign_many(block)
        self.encode_ops += out.size
        return out

    def cell_counts(self):
        """Number of occupied cells per partitioning."""
        return [p.n_cells for p in self.parts]

    def state(self):
        """(meta, arrays) from which ``from_state`` rebuilds this map."""
        arrays = {}
        for i, part in enumerate(self.parts):
            for key, arr in part.state().items():
                arrays[f"part{i}_{key}"] = arr
        meta = {
            "scheme": self.scheme,
            "t": self.t,
            "psi": self.psi,
            "seed": self.seed,
            "dim": self.dim,
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays):
        part_cls = SCHEMES[meta["scheme"]]
        parts = [
            part_cls.from_state(strip_prefix(f"part{i}_", arrays))
            for i in range(meta["t"])
        ]
        return cls(
            parts, meta["psi"], meta["t"], meta["scheme"], meta["seed"],
            meta["dim"],
        )

    def save(self, path):
        """Persist to ``path`` (npz) for bit-identical reload."""
        save_npz(path, FORMAT_VERSION, *self.state())

    @classmethod
    def load(cls, path):
        return load_npz(path, FORMAT_VERSION, "map", cls.from_state)


def kernel(fa, fb):
    """Fraction of partitionings on which two indexed features agree."""
    if fa.shape != fb.shape:
        raise ProvenanceError(
            f"features of length {fa.shape} and {fb.shape} are not comparable"
        )
    return float(np.count_nonzero(fa == fb)) / fa.size


def new_weights(t, psi):
    """Zero-initialized (t, psi) weight matrix."""
    return np.zeros((t, psi), dtype=np.float64)


def _check_shapes(w, f):
    if w.ndim != 2:
        raise ShapeError(f"weight matrix must be 2-d, got {w.ndim}-d")
    if f.size != w.shape[0]:
        raise ShapeError(
            f"feature length {f.size} != weight rows {w.shape[0]}"
        )


def efficient_dot(w, f, counter=None):
    """<w, Phi> as a sum of t entries of w, one per partitioning.

    Cost is t additions regardless of psi; ``counter`` (if given) records
    exactly the number of additions performed.
    """
    _check_shapes(w, f)
    picked = w[np.arange(f.size), f]
    if counter is not None:
        counter.add(picked.size)
    return float(picked.sum())


def dense_feature(f, psi):
    """Materialized binary indicator matrix (t, psi); test-oracle form."""
    if f.size and int(f.max()) >= psi:
        raise ShapeError(f"cell id {int(f.max())} out of range for psi={psi}")
    phi = np.zeros((f.size, psi), dtype=np.float64)
    phi[np.arange(f.size), f] = 1.0
    return phi


def naive_dot(w, f, counter=None):
    """<w, Phi> via the full t*psi elementwise product (reference path)."""
    _check_shapes(w, f)
    phi = dense_feature(f, w.shape[1])
    if counter is not None:
        counter.add(phi.size)
    return float((w * phi).sum())


def accumulate(w, f, coeff):
    """In-place w += coeff * Phi: adds coeff at (i, f[i]) for each row i."""
    _check_shapes(w, f)
    w[np.arange(f.size), f] += coeff
    return w


def write_features_csv(path, features):
    """Export indexed features as integer CSV, one row per point."""
    features = np.asarray(features)
    with open(path, "w", encoding="utf-8") as fh:
        for row in features:
            fh.write(",".join(str(int(v)) for v in row))
            fh.write("\n")
