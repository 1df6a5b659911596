"""Sparse vectors, LIBSVM-format ingestion, and dataset slicing.

Points are stored sparsely as (index, value) pairs with 1-based indices, the
convention of the LIBSVM text format. A zero value and an absent index are
semantically identical, so explicit ``idx:0`` tokens are dropped on parse and
never stored. A dataset is one packing of its rows (``Rows``) and its
labels, immutable and safe to share across readers; slicing selects rows of
the same packing, and a point object is built only when one is asked for.

``load_libsvm`` parses a file ``_PARSE_BLOCK`` lines at a time: a block's
lines are split into tokens once, checked and converted together into flat
index and value arrays, and the blocks' arrays are joined into one
packing, which ``Rows.checked`` validates in one pass. So the parse holds
one block's token strings at a time beside the arrays it has built. When a
block holds a bad line, its lines are parsed one at a time
(``_parse_raw_line``), so the first bad line raises the error it raises
when parsed alone: the same class, message and line number.
"""

import gzip
import io
import json
import math
import zlib
from contextlib import nullcontext
from itertools import chain, islice, repeat
from operator import contains
from zipfile import BadZipFile

import numpy as np

from .errors import FormatError, LoadError, ParseError, SizeError, ParameterError


class SparseVector:
    """A sparse point in R^d: strictly increasing 1-based indices, no zeros.

    Attributes:
        indices: int32 array of 1-based attribute ids, strictly increasing.
        values: float64 array, same length, finite, no entry exactly 0.
        dim: declared dimensionality d (>= max index).
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim):
        indices = np.asarray(indices)  # checked before it is cast to int32
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise FormatError("indices and values must be 1-d and equal length")
        if indices.size:
            last = int(indices[-1])
            if (indices[0] < 1 or last >= 2**31
                    or (indices[1:] <= indices[:-1]).any()):
                raise FormatError(
                    "indices must be strictly increasing and in [1, 2^31)")
            if dim < last:
                raise FormatError(f"dim {dim} smaller than max index {last}")
            if (values == 0.0).any():
                raise FormatError("stored values must be nonzero")
            if not np.isfinite(values).all():
                raise FormatError("stored values must be finite")
        self.indices = indices.astype(np.int32, copy=False)
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
    """Labeled points sharing one dimensionality, as one ``Rows`` and an
    int8 label array; ``ds[i]`` and iteration build views of the rows."""

    def __init__(self, points, dim=None, name=""):
        rows = Rows.of([p.x for p in points])
        self.rows = rows.with_dim(max(rows.dim, dim or 0))
        self._labels = np.array([p.c for p in points], dtype=np.int8)
        self.name = name

    @classmethod
    def _of(cls, rows, labels, name):
        """The dataset of ``rows`` labelled by the int8 array ``labels``."""
        ds = cls.__new__(cls)
        ds.rows, ds._labels, ds.name = rows, labels, name
        return ds

    @property
    def dim(self):
        return self.rows.dim

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return LabeledPoint(self.rows[i], self._labels[i])

    def __iter__(self):
        return map(LabeledPoint, self.rows, self._labels.tolist())

    def labels(self):
        """Labels as an int8 array of +1/-1."""
        return self._labels

    def dense(self):
        """Dense (n, dim) float64 matrix of all points."""
        return dense_rows(self.rows.entries(), len(self), np.arange(self.dim))

    def subset(self, indices, name=None):
        """Dataset restricted to ``indices``, selected from this packing."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset._of(self.rows.take(idx), self._labels[idx],
                           self.name if name is None else name)


# ---------------------------------------------------------------------------
# sparse rows to dense blocks and back

_NO_INDICES = np.empty(0, dtype=np.int32)
_NO_VALUES = np.empty(0)


def _runs(*keys):
    """Index of the first element of every run of equal consecutive
    elements of the arrays ``keys``, taken together."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _distinct(a):
    """Sorted distinct entries of a 1-d array; ``np.unique`` without the
    hash pass that makes it ten times slower on small integer arrays."""
    a = np.sort(a)
    return a[_runs(a)]


def _spans(first, count):
    """Positions ``first[i]``, ..., ``first[i] + count[i] - 1`` of every
    run i, run after run."""
    return np.arange(count.sum()) + np.repeat(
        first - np.cumsum(count) + count, count)


def located(packed, cols):
    """The entries packed as ``Rows.entries`` packs them that lie in one of
    the sorted columns ``cols``, as ``(row, position in cols, value)``."""
    row, col, val = packed
    at = np.searchsorted(cols, col)
    if not cols.size:  # as for a forest with no split
        return row[:0], at[:0], val[:0]
    # a column past the last of ``cols`` is clipped onto the last, not it
    hit = cols.take(at, mode="clip") == col
    return row[hit], at[hit], val[hit]


def dense_rows(packed, n, cols):
    """Dense ``(n, len(cols))`` block of rows ``0..n-1`` packed as
    ``Rows.entries`` packs them: X[i, j] is row i's value at column
    ``cols[j]``. ``cols`` is sorted; entries at other columns are
    dropped."""
    row, at, val = located(packed, cols)
    X = np.zeros((n, len(cols)))
    X[row, at] = val
    return X


def row_blocks(packed, n, step):
    """Blocks ``(lo, m, block)`` of ``n`` rows packed as ``Rows.entries``
    packs them, ``step`` rows at a time: block packs the m rows from lo on,
    renumbered from 0; ``packed`` itself when all n > 0 rows fit in one."""
    if 0 < n <= step:
        yield 0, n, packed
        return
    row, col, val = packed
    starts = np.arange(0, n, step, dtype=row.dtype)
    ends = np.append(np.searchsorted(row, starts), row.size)
    for lo, a, b in zip(starts.tolist(), ends[:-1].tolist(), ends[1:].tolist()):
        yield lo, min(step, n - lo), (row[a:b] - lo, col[a:b], val[a:b])


def from_dense(X, labels, name):
    """Dataset of the rows of dense X, labelled ``labels``; each row keeps
    only its nonzeros."""
    n, dim = X.shape
    row, col = np.nonzero(X)  # row by row, each row's in column order
    offsets = np.searchsorted(row, np.arange(n + 1))
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.isin(labels, (1, -1)).all():
        raise FormatError(f"expected {n} labels of +1 or -1")
    return Dataset._of(Rows.checked(col + 1, X[row, col], offsets, dim),
                       labels.astype(np.int8), name)


# ---------------------------------------------------------------------------
# sparse arithmetic


def _difference(a, b):
    """a - b on the union of both supports, as a dense row; dims may
    differ, and indices missing from either side count as zeros."""
    packed = Rows.of([a, b]).entries()
    X = dense_rows(packed, 2, _distinct(packed[1]))
    return X[0] - X[1]


def sq_distance(a, b):
    """Squared Euclidean distance ||a - b||^2 over the implicit dense view."""
    d = _difference(a, b)
    return float(d @ d)


def l1_distance(a, b):
    """Manhattan distance sum_j |a_j - b_j| over the implicit dense view."""
    return float(np.abs(_difference(a, b)).sum())


# ---------------------------------------------------------------------------
# persistence: ragged sparse rows and versioned npz files


class Rows:
    """Sparse rows packed once, or a selection of them. The packing holds
    row r's 1-based ``indices`` (int32) and ``values`` (float64) at
    ``offsets[r]:offsets[r + 1]``, as a map file holds them; a ``Rows`` is
    its rows ``ids`` in that order (all of them, in order, when ``ids`` is
    None), declared at ``dim``. ``take`` selects rows without copying any
    entry, so a dataset, its slices and folds, and a fit's samples are all
    selections of the one packing its rows were loaded into; the selected
    rows' arrays are gathered when asked for. Selections of one packing
    share its squared row norms, each taken at most once. It is the
    sequence of its rows as SparseVector views of the packing.
    """

    __slots__ = ("indices", "values", "offsets", "dim", "ids", "_sq")

    def __init__(self, indices, values, offsets, dim, ids=None, sq=None):
        self.indices, self.values, self.offsets = indices, values, offsets
        self.dim = int(dim)
        self.ids = ids
        # the squared norm of every packed row, NaN until taken
        self._sq = np.full(offsets.size - 1, np.nan) if sq is None else sq

    @classmethod
    def of(cls, vectors):
        """``vectors`` itself if it is a ``Rows``, else the SparseVectors
        ``vectors`` packed in order, at the largest of their dims."""
        if isinstance(vectors, Rows):
            return vectors
        offsets = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum([v.indices.size for v in vectors], out=offsets[1:])
        return cls(np.concatenate([_NO_INDICES, *(v.indices for v in vectors)]),
                   np.concatenate([_NO_VALUES, *(v.values for v in vectors)]),
                   offsets, max((v.dim for v in vectors), default=0))

    @classmethod
    def checked(cls, indices, values, offsets, dim):
        """The packing at ``dim`` of flat ragged arrays: row i holds
        ``indices[lo:hi]`` and ``values[lo:hi]`` for ``lo, hi = offsets[i],
        offsets[i + 1]``. The entries are checked in one pass over the
        arrays; when one is bad, the rows are built one at a time as
        SparseVectors, so the first bad one raises what ``SparseVector``
        raises."""
        indices = np.asarray(indices)  # checked before it is cast to int32
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise FormatError("indices and values must be 1-d and equal length")
        runs = ragged_runs(offsets, indices.size)
        if not (_valid_entries(indices, values, offsets) and values.all()
                and (indices.size == 0 or dim >= indices.max())):
            return cls.of([SparseVector(indices[lo:hi], values[lo:hi], dim)
                           for lo, hi in runs])
        return cls(indices.astype(np.int32, copy=False), values,
                   np.asarray(offsets), dim)

    def __len__(self):
        return self.offsets.size - 1 if self.ids is None else self.ids.size

    def _ids(self):
        return np.arange(len(self)) if self.ids is None else self.ids

    def _extents(self):
        """Where each selected row's entries start, and how many it has."""
        ids = self._ids()
        first = self.offsets[ids]
        return first, self.offsets[ids + 1] - first

    def take(self, ids):
        """The rows at positions ``ids`` of this selection, in that order,
        as a selection of the same packing."""
        ids = np.asarray(ids, dtype=np.intp)
        return Rows(self.indices, self.values, self.offsets, self.dim,
                    ids if self.ids is None else self.ids[ids], self._sq)

    def nnz(self):
        """Stored entries of the selected rows."""
        return int(self._extents()[1].sum())

    def ragged(self):
        """``(indices, values, offsets)`` of the selected rows alone, as
        ``Rows.checked`` reads them, offsets in int64."""
        if self.ids is None:
            return self.indices, self.values, self.offsets
        first, count = self._extents()
        pos = _spans(first, count)
        offsets = np.zeros(count.size + 1, dtype=np.int64)
        np.cumsum(count, out=offsets[1:])
        return self.indices[pos], self.values[pos], offsets

    def entries(self):
        """The selected rows' stored entries as three flat arrays ``(row,
        column, value)``: the i-th row's entries in order, at their 0-based
        columns, with row i. Rows and columns are int32, which halves their
        bytes against numpy's default int64."""
        indices, values, offsets = self.ragged()
        row = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(offsets))
        return row, indices - 1, values

    def __getitem__(self, i):
        """The i-th selected row as a SparseVector view of the packing."""
        r = range(len(self))[i]  # a negative i counts from the end
        if self.ids is not None:
            r = self.ids[r]
        lo, hi = self.offsets[r : r + 2].tolist()
        return _view(self.indices[lo:hi], self.values[lo:hi], self.dim)

    def vectors(self):
        """The selected rows as SparseVectors at ``dim``, views of the
        packing."""
        first, count = self._extents()
        return [_view(self.indices[lo : lo + n], self.values[lo : lo + n],
                      self.dim)
                for lo, n in zip(first.tolist(), count.tolist())]

    def __iter__(self):
        return iter(self.vectors())

    def with_dim(self, dim):
        """The same rows declared at ``dim``, which no index may exceed."""
        if dim == self.dim:
            return self
        indices = self.ragged()[0]
        if indices.size and dim < indices.max():
            raise FormatError(f"dim {dim} smaller than max index {indices.max()}")
        return Rows(self.indices, self.values, self.offsets, dim, self.ids,
                    self._sq)

    def sq_norms(self):
        """The squared norm of each selected row, taken at most once per
        packed row by the ``np.dot`` of ``SparseVector.sq_norm``: a sum of
        squares in any other order may round differently."""
        ids = self._ids()
        sq = self._sq[ids]
        todo = ids[np.isnan(sq)]
        if todo.size:
            todo = _distinct(todo)
            lo, hi = self.offsets[todo].tolist(), self.offsets[todo + 1].tolist()
            rows = [self.values[a:b] for a, b in zip(lo, hi)]
            self._sq[todo] = list(map(np.dot, rows, rows))
            sq = self._sq[ids]
        return sq

    @classmethod
    def concat(cls, selections):
        """The rows of each of ``selections`` in turn, as one ``Rows`` at
        the largest of their dims: a selection of their packing when they
        share one, else a new packing of them."""
        first = selections[0]
        dim = max(rows.dim for rows in selections)
        if all(rows.values is first.values for rows in selections):
            ids = np.concatenate([rows._ids() for rows in selections])
            return cls(first.indices, first.values, first.offsets, dim, ids,
                       first._sq)
        return cls.of([x for rows in selections for x in rows.vectors()])


def _view(indices, values, dim):
    """The SparseVector of checked ``indices`` and ``values``, unchecked."""
    x = SparseVector.__new__(SparseVector)
    x.indices, x.values, x.dim = indices, values, dim
    return x


def pack_ragged(vectors):
    """Sparse vectors, or ``Rows``, as flat arrays: concatenated
    ``cat_indices`` and ``cat_values``, with vector i at ``offsets[i]:
    offsets[i + 1]``."""
    indices, values, offsets = Rows.of(vectors).ragged()
    return {"cat_indices": indices, "cat_values": values, "offsets": offsets}


def unpack_ragged(arrays, dim):
    """The ``Rows`` at ``dim`` of the vectors packed by ``pack_ragged``."""
    return Rows.checked(arrays["cat_indices"], arrays["cat_values"],
                        arrays["offsets"], dim)


def ragged_runs(offsets, size):
    """The runs ``(lo, hi)`` of ``offsets``, which must rise from 0 to
    ``size``, the length of the flat arrays they cut."""
    offsets = np.asarray(offsets)
    if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
            or offsets[-1] != size or (np.diff(offsets) < 0).any()):
        raise FormatError(f"offsets must rise from 0 to {size}")
    bounds = offsets.tolist()
    return zip(bounds[:-1], bounds[1:])


def _valid_entries(indices, values, offsets):
    """Whether each run ``offsets[i]:offsets[i + 1]`` of ``indices`` rises
    strictly within [1, 2^31), and every one of ``values`` is finite."""
    starts = np.zeros(indices.size + 1, dtype=bool)
    starts[offsets] = True  # where a run starts, a rise is not needed
    return indices.size == 0 or bool(
        indices.min() >= 1 and indices.max() < 2**31
        and ((np.diff(indices) > 0) | starts[1:-1]).all()
        and np.isfinite(values).all())


def _checked(name, a, valid=np.isfinite):
    """Loaded array ``a``, or a ValueError naming it if ``valid`` fails."""
    if not np.all(valid(a)):
        raise ValueError(f"array {name!r} holds an invalid entry")
    return a


def by_prefix(arrays):
    """The entries of ``arrays`` grouped in one pass by the part of their
    key before its first ``_``: ``{"a": {"b_c": x}}`` from ``{"a_b_c": x}``."""
    groups = {}
    for key, arr in arrays.items():
        prefix, _, rest = key.partition("_")
        groups.setdefault(prefix, {})[rest] = arr
    return groups


def save_npz(path, version, meta, arrays):
    """Write ``arrays`` and a JSON ``meta`` header led by ``format_version``."""
    header = json.dumps({"format_version": version, **meta})
    np.savez(path, meta=header, **arrays)


def load_npz(path, version, what, decode):
    """``decode(meta, arrays)`` of a file written by ``save_npz`` at
    ``version``; an unreadable file or bad meta or arrays raise LoadError."""
    try:
        # np.load leaves a file it opened itself open when the zip
        # directory is unreadable, so a path is opened here; a file object
        # is the caller's to close
        opened = (nullcontext(path) if hasattr(path, "read")
                  else open(path, "rb"))
        with opened as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta["format_version"] != version:
                raise ParameterError(
                    f"unsupported {what} format {meta['format_version']}"
                )
            arrays = {key: data[key] for key in data.files if key != "meta"}
        return decode(meta, arrays)
    except (KeyError, IndexError, TypeError, ValueError, BadZipFile,
            EOFError) as exc:  # EOFError: an empty file
        raise LoadError(f"cannot read {what} file {path}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# LIBSVM text format


def _parse_raw_line(line, lineno=None):
    """Parse one LIBSVM line into (raw_label, indices, values, max_index),
    with the indices and values as the int32 and float64 arrays a
    SparseVector stores, so a file's lines are held only once."""
    tokens = line.split()
    if not tokens:
        raise ParseError("empty line", lineno)
    try:
        raw_label = float(tokens[0])
    except ValueError:
        raise ParseError(f"label {tokens[0]!r} is not a number", lineno) from None
    if not math.isfinite(raw_label):
        raise ParseError(f"label {tokens[0]!r} is not finite", lineno)
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
        if not math.isfinite(value):
            raise ParseError(f"feature value {tok!r} is not finite", lineno)
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
    if last_index >= 2**31:  # a SparseVector stores int32 indices
        raise FormatError(f"feature index {last_index} must be < 2^31", lineno)
    return (
        raw_label,
        np.array(indices, dtype=np.int32),
        np.array(values, dtype=np.float64),
        last_index,
    )


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


def _open_text(path):
    # an invalid byte decodes to a lone surrogate, which no token converts
    # and ``_parse_reference`` reports with its line
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8",
                                errors="surrogateescape")
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


# Lines that ``load_libsvm`` parses together. Median us/line of 11 loads
# of the generated files, by block size:
#
#   lines per block             32     64    128    256   1024
#   a9a-shaped, 8000 lines    13.6   12.4   10.1   10.4   10.4
#   sparse-hd, 2000 lines     22.9   21.8   21.2   20.9   20.7
#   dense d=20, 10000 lines   24.8   22.7   21.3   21.8   20.2
#
# A block's token strings are all held at once: the sparse-hd load peaks
# at 1.2 MB traced with blocks of 128 lines, 1.9 MB at 256, 6.2 MB at 1024.
_PARSE_BLOCK = 128


def _parse_tokens(lines):
    """(raw labels, indices, values, offsets, max index) of a block of
    LIBSVM lines from the tokens of each nonblank one, or None when some
    line is not a valid LIBSVM line. The entries of the i-th line lie at
    ``offsets[i]:offsets[i + 1]``, explicit zeros dropped, and the max
    index counts them."""
    feats = list(chain.from_iterable(tokens[1:] for tokens in lines))
    text = " ".join(feats)
    parts = text.replace(":", " ").split()
    # every feature token holds one ':' with something on either side
    if not (text.count(":") == len(feats) and len(parts) == 2 * len(feats)
            and all(map(contains, feats, repeat(":")))):
        return None
    try:
        raws = np.fromiter(map(float, [tokens[0] for tokens in lines]),
                           np.float64, len(lines))
        indices = np.fromiter(map(int, parts[0::2]), np.int32, len(feats))
        values = np.fromiter(map(float, parts[1::2]), np.float64, len(feats))
    except (ValueError, OverflowError):  # OverflowError: past int32
        return None
    offsets = np.zeros(len(lines) + 1, dtype=np.intp)
    np.cumsum([len(tokens) - 1 for tokens in lines], out=offsets[1:])
    if not (np.isfinite(raws).all()
            and _valid_entries(indices, values, offsets)):
        return None
    max_index = int(indices.max()) if indices.size else 0
    kept = values != 0.0  # explicit zero == absent
    if not kept.all():
        offsets = np.append(0, np.cumsum(kept))[offsets]
        indices, values = indices[kept], values[kept]
    return raws, indices, values, offsets, max_index


def _parse_reference(block, first):
    """``_parse_tokens``'s result for the lines ``block``, the first of
    which is line ``first`` of its file, by ``_parse_raw_line`` of one line
    at a time, which raises the error of the first bad line."""
    rows = []
    for lineno, line in enumerate(block, start=first):
        if not line.strip():
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError("line is not valid UTF-8", lineno) from None
        rows.append(_parse_raw_line(line, lineno))
    raws, indices, values, lasts = zip(*rows)
    offsets = np.cumsum([0] + [len(ind) for ind in indices])
    return (np.array(raws), np.concatenate(indices), np.concatenate(values),
            offsets, max(lasts))


def load_libsvm(path, dim_hint=None, name=None):
    """Load a LIBSVM-format file (optionally gzipped) into a Dataset.

    Labels are mapped to {+1, -1} with a policy fixed over the whole file:
    with two distinct raw labels the larger maps to +1; with one, sign
    decides. More than two distinct raw labels is a load error.

    Lines are parsed ``_PARSE_BLOCK`` at a time into flat arrays, which
    are joined into one packing and checked once (``Rows.checked``). When a
    block holds a bad line, ``_parse_reference`` parses it line by line, so
    the first bad line raises what ``parse_libsvm_line`` raises for it; a
    line that is not UTF-8 is a ParseError.
    """
    blocks = []
    try:
        with _open_text(path) as fh:
            first = 1
            while block := list(islice(fh, _PARSE_BLOCK)):
                parsed = _parse_tokens(
                    [tokens for tokens in map(str.split, block) if tokens])
                blocks.append(parsed or _parse_reference(block, first))
                first += len(block)
    # a truncated .gz, a corrupted deflate stream, or a damaged header or CRC
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise LoadError(f"cannot read LIBSVM file {path}: {exc!r}") from exc
    raws = np.concatenate([np.empty(0)] + [block[0] for block in blocks])
    distinct, which = np.unique(raws, return_inverse=True)
    if distinct.size > 2:
        raise LoadError(
            f"expected at most two distinct raw labels, found {distinct.size}: "
            f"{distinct[:5].tolist()}...")
    # two raw labels are ranked; one is mapped by its sign
    signs = np.where(distinct > 0, 1, -1) if distinct.size < 2 else [-1, 1]
    labels = np.array(signs, dtype=np.int8)[which]
    dim = max([dim_hint or 0] + [block[4] for block in blocks])
    # each block's offsets, past its leading 0, moved to where it starts
    starts = np.cumsum([0] + [block[1].size for block in blocks])
    offsets = np.concatenate([[0]] + [
        block[3][1:] + start for block, start in zip(blocks, starts)])
    indices = np.concatenate([_NO_INDICES] + [block[1] for block in blocks])
    values = np.concatenate([_NO_VALUES] + [block[2] for block in blocks])
    blocks.clear()  # freed before the check makes its temporaries
    rows = Rows.checked(indices, values, offsets, dim)
    return Dataset._of(rows, labels, name or str(path))


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
    if not 0 <= n <= len(dataset):
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
    return tuple(Dataset._of(ds.rows.with_dim(dim), ds.labels(), ds.name)
                 for ds in (a, b))


def kfold(dataset, k, seed):
    """k seeded (train, validate) splits with near-equal disjoint folds.

    Validation folds partition the index set: every index appears in exactly
    one fold. Fold i's training rows are the other folds' validation rows,
    fold by fold in fold order, so every fold's training order is the
    concatenation of the validation folds with fold i's left out.
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
