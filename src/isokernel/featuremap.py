"""The exact sparse feature map: t partitionings, index encoding, the kernel.

A fitted ``Mapper`` holds t independently built partitionings with psi cells
each. A point maps to a length-t integer vector of cell ids (its "indexed
feature"); conceptually this encodes a binary vector of t*psi slots with
exactly t ones, but that dense form is never materialized outside test
oracles. The kernel value of two points is the fraction of partitionings in
which their ids agree, so it always lies on the grid {0, 1/t, ..., 1} and
k(x, x) = 1.

The primal learner ``learner.IKOGDModel`` holds the one dot product and
update: its weights are a (t, psi) array, whose dot with a feature is a sum
of t entries, independent of psi. ``kernel``, ``dense_feature``,
``sparse_feature`` and ``naive_dot`` are the reference forms that it is
tested against.

Encoding reads points as sparse rows and never builds an n x d matrix. The
partitionings are joined once per map into one form, ``SCHEMES[scheme].join``
(``ITree.join``: one flat ``Forest``; ``VoronoiPartition.join``: one scorer
of all centres, a dense ``CentreStack`` where the centres fill their matrix
on the union of their supports to at least ``DENSE_FILL``, a
``CentreIndex`` by column otherwise). Every form gives a block of packed
rows its cells through ``assign_many`` and bounds its widest array per row
by ``width``. The forest and the stack read rows densified onto their own
sorted columns; the index reads the sparse rows as they are. Rows go
through the joined form in blocks; a block holds at most ``_BLOCK``
elements of the widest array it creates, whether (row, tree) pairs, (row,
centre) scores or densified (row, column) entries, or one row when a row
has more. The index's products of row and centre entries that share a
column are not counted. A row of nnz entries whose columns hold as many
centres as the average column has about nnz * fill of them per score, and
the fill is below ``DENSE_FILL`` wherever the index is used.
"""

import numbers

import numpy as np

from .dataset import SparseVector, load_npz, row_blocks, save_npz
from .errors import ParameterError, ProvenanceError, ShapeError
from .partition import SCHEMES, sample_rows

FORMAT_VERSION = 3
# elements in the widest array of one encoding block: its (row, tree)
# pairs, (row, centre) scores or densified (row, column) entries
_BLOCK = 1 << 17


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
        self._joined = SCHEMES[scheme].join(parts)

    @classmethod
    def fit(cls, dataset, psi, t, scheme, seed):
        """Build t partitionings from t independent psi-samples of dataset.

        Partitioning i draws its sample (and any split randomness) from a
        generator seeded by (seed, i), so fitting is reproducible and the
        partitionings could be built in parallel without changing results.
        Each sample is the ids of its rows in the dataset's packing.
        """
        # numpy would take a float psi, and numpy or range a bool as 0 or 1
        for name, value in (("psi", psi), ("t", t)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if t < 1:
            raise ParameterError(f"t must be >= 1, got {t}")
        if scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {scheme!r}")
        if len(dataset) == 0:
            raise ParameterError("cannot fit on an empty dataset")
        if seed is None:
            seed = int(np.random.default_rng().integers(2**31))
        try:
            # numpy takes a bool as 0 or 1; ``ProtocolConfig`` rejects it
            if any(isinstance(s, (bool, np.bool_))
                   for s in np.ravel(np.asarray(seed, dtype=object))):
                raise TypeError("a bool is not a seed")
            np.random.SeedSequence(seed)
        except (TypeError, ValueError) as exc:  # numpy seeds are non-negative
            raise ParameterError(
                f"seed must be a non-negative integer, got {seed!r}") from exc
        parts = SCHEMES[scheme].build_many(
            _draws(dataset.rows, psi, t, seed))
        return cls(parts, psi, t, scheme, seed, dataset.dim)

    def map_point(self, x):
        """Indexed feature of x: entry i is the cell id under partitioning i."""
        row = np.zeros(x.indices.size, dtype=np.int32)
        return self._encode((row, x.indices - 1, x.values), 1)[0]

    def map_many(self, dataset):
        """Indexed features for a whole dataset as an (n, t) int32 matrix,
        equal to stacking ``map_point`` over all points."""
        return self._encode(dataset.rows.entries(), len(dataset))

    def _encode(self, packed, n):
        """Cell ids of the ``n`` rows ``packed`` as ``Rows.entries`` packs
        them, block by block."""
        out = np.empty((n, self.t), dtype=np.int32)
        # at most _BLOCK elements of a width-wide array per row in a
        # block, or one row when a row has more
        step = max(1, _BLOCK // self._joined.width)
        for lo, m, block in row_blocks(packed, n, step):
            out[lo : lo + m] = self._joined.assign_many(block, m)
        self.encode_ops += out.size
        return out

    def cell_counts(self):
        """Number of occupied cells per partitioning."""
        return [p.n_cells for p in self.parts]

    def state(self):
        """(meta, arrays) from which ``from_state`` rebuilds this map: the
        arrays are the scheme's ``pack`` of all partitionings."""
        meta = {
            "scheme": self.scheme,
            "t": self.t,
            "psi": self.psi,
            "seed": self.seed,
            "dim": self.dim,
        }
        return meta, SCHEMES[self.scheme].pack(self.parts)

    @classmethod
    def from_state(cls, meta, arrays):
        parts = SCHEMES[meta["scheme"]].unpack(arrays, meta["dim"])
        if len(parts) != meta["t"]:
            raise ValueError(f"{len(parts)} partitionings, not t={meta['t']}")
        # a cell id of psi or more reads the next partitioning's weight
        if any(p.n_cells > meta["psi"] for p in parts):
            raise ValueError(f"a partitioning of more than psi={meta['psi']} "
                             "cells")
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


def _draws(rows, psi, t, seed):
    """The ``(sample, rng)`` pair of each partitioning i < t, drawn from
    the generator seeded by (seed, i) as the pair is asked for: the sample
    is the ``Rows`` of the rows that ``sample_rows`` draws."""
    for i in range(t):
        rng = np.random.default_rng((seed, i))
        yield rows.take(sample_rows(len(rows), psi, rng)), rng


def kernel(fa, fb):
    """Fraction of partitionings on which two indexed features agree."""
    if fa.shape != fb.shape:
        raise ProvenanceError(
            f"features of length {fa.shape} and {fb.shape} are not comparable"
        )
    return float(np.count_nonzero(fa == fb)) / fa.size


def dense_feature(f, psi):
    """Materialized binary indicator matrix (t, psi); test-oracle form."""
    if f.size and not 0 <= f.min() <= f.max() < psi:
        raise ShapeError(f"a cell id out of range [0, {psi})")
    phi = np.zeros((f.size, psi), dtype=np.float64)
    phi[np.arange(f.size), f] = 1.0
    return phi


def sparse_feature(f, psi):
    """Phi of a feature as a SparseVector at dim t*psi, the nonzeros of
    ``dense_feature(f, psi)`` read row by row: a one at attribute
    ``i*psi + f[i] + 1`` for each partitioning i."""
    phi = dense_feature(f, psi).reshape(-1)
    at = np.flatnonzero(phi)
    return SparseVector(at + 1, phi[at], phi.size)


def naive_dot(w, f):
    """<w, Phi> via the full t*psi elementwise product, ``w.size``
    operations: the reference for ``IKOGDModel``'s t weight reads."""
    if w.ndim != 2 or f.size != w.shape[0]:
        raise ShapeError(f"a feature of length {f.size} against weights of "
                         f"shape {w.shape}")
    return float((w * dense_feature(f, w.shape[1])).sum())


def write_features_csv(path, features):
    """Export indexed features as integer CSV, one row per point."""
    np.savetxt(path, features, fmt="%d", delimiter=",")
