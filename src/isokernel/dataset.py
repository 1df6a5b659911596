"""Sparse vectors, LIBSVM-format ingestion, and dataset slicing.

Points are stored sparsely as (index, value) pairs with 1-based indices, the
convention of the LIBSVM text format. A zero value and an absent index are
semantically identical, so explicit ``idx:0`` tokens are dropped on parse and
never stored. Datasets are immutable after construction and safe to share
across readers; slicing operations reuse the underlying point objects.
"""

import gzip
import io
import json
from zipfile import BadZipFile

import numpy as np

from .errors import FormatError, LoadError, ParseError, SizeError, ParameterError


class SparseVector:
    """A sparse point in R^d: strictly increasing 1-based indices, no zeros.

    Attributes:
        indices: int32 array of 1-based attribute ids, strictly increasing.
        values: float64 array, same length, no entry exactly 0.
        dim: declared dimensionality d (>= max index).
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim):
        indices = np.asarray(indices, dtype=np.int32)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise FormatError("indices and values must be 1-d and equal length")
        if indices.size:
            if indices[0] < 1 or np.any(np.diff(indices) <= 0):
                raise FormatError("indices must be strictly increasing and >= 1")
            if dim < int(indices[-1]):
                raise FormatError(f"dim {dim} smaller than max index {indices[-1]}")
            if np.any(values == 0.0):
                raise FormatError("stored values must be nonzero")
        self.indices = indices
        self.values = values
        self.dim = int(dim)

    def __len__(self):
        return self.indices.size

    def __repr__(self):
        pairs = ", ".join(f"{i}:{v:g}" for i, v in zip(self.indices, self.values))
        return f"SparseVector([{pairs}], dim={self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def get(self, index):
        """Value at 1-based attribute ``index`` (0.0 when absent)."""
        pos = np.searchsorted(self.indices, index)
        if pos < self.indices.size and self.indices[pos] == index:
            return float(self.values[pos])
        return 0.0

    def with_dim(self, dim):
        """Same entries re-declared at dimensionality ``dim``."""
        if dim == self.dim:
            return self
        return SparseVector(self.indices, self.values, dim)

    def densify(self, dim=None):
        """Dense float64 copy of length ``dim`` (defaults to declared dim)."""
        d = self.dim if dim is None else dim
        out = np.zeros(d, dtype=np.float64)
        out[self.indices - 1] = self.values
        return out

    def sq_norm(self):
        return float(np.dot(self.values, self.values))


class LabeledPoint:
    """A point with a binary class label in {+1, -1}."""

    __slots__ = ("x", "c")

    def __init__(self, x, c):
        if c not in (1, -1):
            raise FormatError(f"label must be +1 or -1, got {c}")
        self.x = x
        self.c = int(c)

    def __repr__(self):
        return f"LabeledPoint(c={self.c:+d}, x={self.x!r})"


class Dataset:
    """An immutable sequence of labeled points sharing one dimensionality."""

    def __init__(self, points, dim=None, name=""):
        max_dim = max((p.x.dim for p in points), default=0)
        self.dim = max(max_dim, dim or 0)
        self.points = [
            p if p.x.dim == self.dim else LabeledPoint(p.x.with_dim(self.dim), p.c)
            for p in points
        ]
        self.name = name
        self._dense = None
        self._labels = None

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def labels(self):
        """Labels as an int8 array of +1/-1."""
        if self._labels is None:
            self._labels = np.array([p.c for p in self.points], dtype=np.int8)
        return self._labels

    def dense(self):
        """Dense (n, dim) float64 matrix of all points; cached."""
        if self._dense is None:
            X = np.zeros((len(self.points), self.dim), dtype=np.float64)
            for row, p in enumerate(self.points):
                X[row, p.x.indices - 1] = p.x.values
            self._dense = X
        return self._dense

    def subset(self, indices, name=None):
        """Dataset restricted to ``indices`` (point objects are shared)."""
        idx = np.asarray(indices, dtype=np.intp)
        sub = Dataset.__new__(Dataset)
        sub.dim = self.dim
        sub.points = [self.points[i] for i in idx]
        sub.name = self.name if name is None else name
        sub._dense = None if self._dense is None else self._dense[idx]
        sub._labels = None if self._labels is None else self._labels[idx]
        return sub


# ---------------------------------------------------------------------------
# sparse arithmetic


def _merge_entries(a, b):
    """Iterate (value_in_a, value_in_b) over the union of both index sets."""
    ai, av = a.indices.tolist(), a.values.tolist()
    bi, bv = b.indices.tolist(), b.values.tolist()
    i = j = 0
    na, nb = len(ai), len(bi)
    while i < na and j < nb:
        if ai[i] == bi[j]:
            yield av[i], bv[j]
            i += 1
            j += 1
        elif ai[i] < bi[j]:
            yield av[i], 0.0
            i += 1
        else:
            yield 0.0, bv[j]
            j += 1
    while i < na:
        yield av[i], 0.0
        i += 1
    while j < nb:
        yield 0.0, bv[j]
        j += 1


def sq_distance(a, b):
    """Squared Euclidean distance ||a - b||^2 over the implicit dense view.

    Dims may differ; indices missing from either side count as zeros.
    """
    total = 0.0
    for va, vb in _merge_entries(a, b):
        d = va - vb
        total += d * d
    return total


def l1_distance(a, b):
    """Manhattan distance sum_j |a_j - b_j| over the implicit dense view."""
    total = 0.0
    for va, vb in _merge_entries(a, b):
        total += abs(va - vb)
    return total


def dot(a, b):
    """Sparse dot product <a, b>."""
    ai, av = a.indices.tolist(), a.values.tolist()
    bi, bv = b.indices.tolist(), b.values.tolist()
    i = j = 0
    na, nb = len(ai), len(bi)
    total = 0.0
    while i < na and j < nb:
        if ai[i] == bi[j]:
            total += av[i] * bv[j]
            i += 1
            j += 1
        elif ai[i] < bi[j]:
            i += 1
        else:
            j += 1
    return total


# ---------------------------------------------------------------------------
# persistence: ragged sparse rows and versioned npz files


def pack_ragged(vectors):
    """Sparse vectors as flat arrays: concatenated ``cat_indices`` and
    ``cat_values``, with vector i at ``offsets[i]:offsets[i + 1]``."""
    offsets = np.zeros(len(vectors) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(v) for v in vectors])
    return {
        "cat_indices": np.concatenate(
            [v.indices for v in vectors] or [np.empty(0, dtype=np.int32)]
        ),
        "cat_values": np.concatenate(
            [v.values for v in vectors] or [np.empty(0)]
        ),
        "offsets": offsets,
    }


def unpack_ragged(arrays, dim):
    """The vectors packed by ``pack_ragged``, each declared at ``dim``."""
    offsets = arrays["offsets"]
    return [
        SparseVector(
            arrays["cat_indices"][lo:hi], arrays["cat_values"][lo:hi], dim
        )
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ]


def strip_prefix(prefix, arrays):
    """The entries of ``arrays`` whose key starts with ``prefix``, without it."""
    return {
        key[len(prefix) :]: arr
        for key, arr in arrays.items()
        if key.startswith(prefix)
    }


def save_npz(path, version, meta, arrays):
    """Write ``arrays`` and a JSON ``meta`` header led by ``format_version``."""
    header = json.dumps({"format_version": version, **meta})
    np.savez_compressed(path, meta=header, **arrays)


def load_npz(path, version, what, decode):
    """``decode(meta, arrays)`` of a file written by ``save_npz`` at
    ``version``; an unreadable file or bad meta or arrays raise LoadError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta["format_version"] != version:
                raise ParameterError(
                    f"unsupported {what} format {meta['format_version']}"
                )
            arrays = {key: data[key] for key in data.files if key != "meta"}
        return decode(meta, arrays)
    except (KeyError, IndexError, TypeError, ValueError, BadZipFile) as exc:
        raise LoadError(f"cannot read {what} file {path}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# LIBSVM text format


def _parse_raw_line(line, lineno=None):
    """Parse one LIBSVM line into (raw_label, indices, values, max_index)."""
    tokens = line.split()
    if not tokens:
        raise ParseError("empty line", lineno)
    try:
        raw_label = float(tokens[0])
    except ValueError:
        raise ParseError(f"label {tokens[0]!r} is not a number", lineno) from None
    indices = []
    values = []
    last_index = 0
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise ParseError(f"feature token {tok!r} lacks ':'", lineno)
        try:
            index = int(idx_s)
            value = float(val_s)
        except ValueError:
            raise ParseError(f"malformed feature token {tok!r}", lineno) from None
        if index < 1:
            raise FormatError(f"feature index {index} must be >= 1", lineno)
        if index <= last_index:
            raise FormatError(
                f"feature index {index} not strictly increasing", lineno
            )
        last_index = index
        if value != 0.0:  # explicit zero == absent
            indices.append(index)
            values.append(value)
    return raw_label, indices, values, last_index


def parse_libsvm_line(line, dim_hint=None, lineno=None):
    """Parse one LIBSVM line into a LabeledPoint.

    The standalone label policy maps raw label > 0 to +1 and <= 0 to -1;
    file-level loading may instead rank two observed raw labels (see
    ``load_libsvm``). dim is the max feature index unless ``dim_hint`` is
    larger.
    """
    raw, indices, values, max_index = _parse_raw_line(line, lineno)
    dim = max(max_index, dim_hint or 0)
    c = 1 if raw > 0 else -1
    return LabeledPoint(SparseVector(indices, values, dim), c)


def _map_raw_labels(raws):
    """Fix the file-level label mapping policy. Returns raw -> {+1,-1}."""
    distinct = sorted(set(raws))
    if len(distinct) > 2:
        raise LoadError(
            f"expected at most two distinct raw labels, found {len(distinct)}: "
            f"{distinct[:5]}..."
        )
    if len(distinct) == 2:
        return {distinct[0]: -1, distinct[1]: 1}
    return {raw: (1 if raw > 0 else -1) for raw in distinct}


def _open_text(path):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def load_libsvm(path, dim_hint=None, name=None):
    """Load a LIBSVM-format file (optionally gzipped) into a Dataset.

    Labels are mapped to {+1, -1} with a policy fixed over the whole file:
    with two distinct raw labels the larger maps to +1; with one, sign
    decides. More than two distinct raw labels is a load error.
    """
    raws = []
    parsed = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            raw, indices, values, max_index = _parse_raw_line(line, lineno)
            raws.append(raw)
            parsed.append((indices, values, max_index))
    mapping = _map_raw_labels(raws)
    dim = max((mi for _, _, mi in parsed), default=0)
    dim = max(dim, dim_hint or 0)
    points = [
        LabeledPoint(SparseVector(ind, val, dim), mapping[raw])
        for raw, (ind, val, _) in zip(raws, parsed)
    ]
    return Dataset(points, dim=dim, name=name or str(path))


def format_libsvm_line(point):
    """Serialize a LabeledPoint to one LIBSVM line (round-trip exact)."""
    label = "+1" if point.c > 0 else "-1"
    feats = " ".join(
        f"{int(i)}:{float(v)!r}" for i, v in zip(point.x.indices, point.x.values)
    )
    return f"{label} {feats}".rstrip()


def save_libsvm(dataset, path):
    """Write a Dataset to a LIBSVM text file (gzipped when path ends .gz)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for p in dataset:
            fh.write(format_libsvm_line(p))
            fh.write("\n")


# ---------------------------------------------------------------------------
# shuffling and slicing


def shuffle(dataset, seed):
    """Seeded permutation of the dataset (reproducible)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(dataset))
    return dataset.subset(perm)


def split_head(dataset, n):
    """Split into (first n points, remainder)."""
    if n > len(dataset):
        raise SizeError(f"cannot take {n} points from {len(dataset)}")
    idx = np.arange(len(dataset))
    return dataset.subset(idx[:n]), dataset.subset(idx[n:])


def unify_dims(a, b):
    """Re-declare two datasets at their common (max) dimensionality.

    LIBSVM files carry no header, so a test file whose points happen not to
    touch the last attribute loads with a smaller dim than its training
    counterpart.
    """
    if a.dim == b.dim:
        return a, b
    dim = max(a.dim, b.dim)
    return (
        Dataset(a.points, dim=dim, name=a.name),
        Dataset(b.points, dim=dim, name=b.name),
    )


def kfold(dataset, k, seed):
    """k seeded (train, validate) splits with near-equal disjoint folds.

    Validation folds partition the index set: every index appears in exactly
    one fold.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    n = len(dataset)
    if k > n:
        raise SizeError(f"cannot make {k} folds from {n} points")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    pairs = []
    start = 0
    for size in sizes:
        val = perm[start : start + size]
        train = np.concatenate([perm[:start], perm[start + size :]])
        pairs.append((dataset.subset(train), dataset.subset(val)))
        start += size
    return pairs
