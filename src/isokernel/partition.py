"""Isolation mechanisms: build a map's partitionings from small samples.

A partitioning covers all of R^d with at most ``psi`` cells, each carrying a
stable id in [0, n_cells). Each of the two schemes is a class, one object
of which holds all of a map's partitionings and gives a block of rows its
cells under all of them at once (``assign_many``):

* ``ITree`` — binary trees of random axis-parallel splits, each grown until
  every point of its sample is isolated (or points are indistinguishable).
  No height cap: growth stops only at isolation. The trees are one flat
  forest of their breadth-first lists of splits and leaves; their links
  and leaf ids, in node order, follow. Split attributes are renumbered
  onto the sorted columns some split reads, so a block of rows descends
  densified onto those columns alone. Map files of format 1 and
  checkpoints of format 2 numbered leaves depth-first, and are rejected
  rather than read with other cells.
* ``VoronoiPartition`` — the Voronoi diagrams of the samples under
  Euclidean distance; a query's cell is its nearest sample point (ties go
  to the lowest center index). All ``t*psi`` centres are scored at once:
  twice the ``<x, z>`` of each row x with every centre z is subtracted
  from ``||z||^2``, and the argmin taken over ``(rows, t, psi)``. Where
  the centres fill at least ``DENSE_FILL`` of their dense matrix on the
  union of their supports, as dense data does, the scorer is a
  ``CentreStack``: that matrix, scored with one product per block of rows
  densified onto the union. Otherwise, as on sparse high-dimensional
  data, whose partitionings share few columns, it is a ``CentreIndex``:
  the centres' entries indexed by column, scored from the products of row
  and centre entries that share a column. One sort of the centres'
  entries by column (``by_column``) gives both the distinct columns that
  choose the form and the index's order.

``build_many`` builds one partitioning per ``(sample, rng)`` pair, each
from its own generator; it takes the pairs as they come, so a fit need not
hold all its samples at once. ``ITree.build_many`` grows groups of trees together, a level at
a time: every node of every tree in a group takes its columns' ranges from
one segmented reduction, draws its split from its own tree's uniforms, and
routes its members to two children. A group's samples hold at most
``_GROW_BUDGET`` stored entries and points, so the grower's memory does not
grow with the number of trees. They are densified onto the union of their
supports where they fill at least ``GROW_FILL`` of that block, as dense
data does; otherwise, as on sparse high-dimensional data, they stay as
their stored entries. Both forms grow the same trees, and a tree is the
same whichever group it grows in.

Built partitionings are immutable. A scheme's object is the sequence of
its partitionings: item i is partitioning i alone, as an object of one.
"""

import numpy as np

from .errors import SampleError
from .dataset import (
    Rows, _checked, _distinct, _runs, _spans, dense_rows, located, pack_ragged,
    row_blocks, ragged_runs, unpack_ragged,
)

# The least fill, stored centre entries over the cells of the dense
# (t*psi, len(cols)) centre matrix, at which a map scores centres as one
# dense stack rather than through a column index. Measured map_many cost at
# t=100, psi=64, on rows of 20 nonzeros (us per point, one stack / index):
# 71 / 244 at fill 0.10 (d=200), 191 / 54 at fill 0.04 (d=500).
DENSE_FILL = 1 / 16

# stored entries plus points of the samples whose trees ``ITree.build_many``
# grows together: it bounds the grower's transient arrays whatever t is.
# Measured peak RSS rise and fit cost at t=100 on a9a-shaped rows (psi=256,
# stored entries: MB, ms per tree): 29 / 2.6 at 2^18, 11 / 3.1 at 2^16, 6.5
# / 2.9 at 2^15, 6.0 / 3.4 at 2^14; one tree at a time, 4.0 / 4.6.
_GROW_BUDGET = 1 << 15
# The least fill, stored entries over the cells of the dense block of a
# group's samples on the union of their supports, at which the grower
# densifies the samples rather than growing from their stored entries; the
# block then holds at most _GROW_BUDGET / GROW_FILL cells. Each form alone,
# with this constant set to 0 or to inf, on scripts/bench_fit.py's shapes
# (ms per tree at t=100, median of 3, dense / entries):
#
#   dense d=20 (fill 1)      psi 64: 0.64 / 1.40    psi 256: 2.47 / 6.54
#   a9a-shaped (fill 0.114)  psi 16: 0.43 / 0.25    psi 64: 1.64 / 0.95
#                            psi 256: 7.62 / 4.99
#   sparse-hd (t=20)         psi 64: 690 / 4.3
#
# so the entries form alone is 2.2-2.7x slower on dense data, and the
# dense form alone 1.5-1.7x slower on a9a-shaped rows and 160x on
# sparse-hd. The crossover lies between fill 1/8 and 1/4: on rows of 10
# nonzeros, 0.59 / 0.72 and 1.71 / 2.62 at fill 1/4 (d=40, psi 64 and
# 256), 0.71 / 0.64 and 3.57 / 2.97 at fill 1/8 (d=80). Of the benchmark's
# workloads only stream-a9a, which is not gated, takes the entries form.
GROW_FILL = 1 / 4


def sample_rows(n, psi, rng):
    """Draw the ids of psi distinct rows of n uniformly without
    replacement, in draw order."""
    if psi < 1:
        raise SampleError(f"sample size must be >= 1, got {psi}")
    if psi > n:
        raise SampleError(f"cannot sample {psi} points from {n}")
    return rng.choice(n, size=psi, replace=False)


class ITree:
    """Fully grown random axis-parallel splitting trees over samples, as one
    flat forest: the breadth-first lists of their nodes, tree i's at
    ``offsets[i]:offsets[i + 1]``. ``feature[j] >= 0`` marks a split at
    ``threshold[j]`` of attribute ``cols[feature[j]]``, ``cols`` being the
    sorted attributes some split reads, and ``feature[j] == -1`` a leaf.
    Counting in its tree's node order from 0, the k-th split's children
    are its tree's nodes 2k + 1 (at ``left[j]``) and 2k + 2, and the k-th
    leaf is cell ``leaf_id[j] = k`` (-1 marks the other nodes in both) of
    the tree's ``n_cells[i]``. Descent rule: go left iff x[attribute] <
    threshold. A map file holds the arrays ``pack`` gives.
    """

    scheme = "iforest"

    def __init__(self, feature, threshold, offsets):
        """The trees of the arrays ``pack`` gives."""
        feature = np.array(feature, dtype=np.int32)  # renumbered in place
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.offsets = np.asarray(offsets)
        split = feature >= 0
        attrs = feature[split]
        self.cols = _distinct(attrs)
        feature[split] = np.searchsorted(self.cols, attrs)
        self.feature = feature
        # splits up to each node, and splits and leaves before each root
        ups = np.cumsum(split, dtype=np.int32)
        before = np.append(0, ups)[self.offsets]
        leaves = self.offsets - before
        self.n_cells = np.diff(leaves)
        sizes = np.diff(self.offsets)
        # a tree's k-th split links to its node 2k + 1, and its k-th leaf
        # is cell k; -1 marks the other nodes
        self.left = np.repeat(
            (self.offsets[:-1] - 2 * before[:-1]).astype(np.int32), sizes)
        self.left += 2 * ups - 1
        self.left[~split] = -1
        self.leaf_id = np.arange(split.size, dtype=np.int32) - ups
        self.leaf_id -= np.repeat(leaves[:-1].astype(np.int32), sizes)
        self.leaf_id[split] = -1
        self.width = max(len(self), self.cols.size)

    def __len__(self):
        return self.offsets.size - 1

    def __getitem__(self, i):
        """Tree i alone, as a one-tree ``ITree``."""
        lo, hi = self.offsets[range(len(self))[i]:][:2].tolist()
        return ITree(self._attributes()[self.feature[lo:hi]],
                     self.threshold[lo:hi], [0, hi - lo])

    def _attributes(self):
        """Indexed by ``feature``: each split's attribute, -1 at a leaf."""
        return np.append(self.cols, np.int32(-1))

    @classmethod
    def build(cls, sample, rng):
        """Grow a tree isolating every distinguishable point of ``sample``,
        a list of SparseVectors or their ``Rows``: ``build_many`` of one
        sample."""
        return cls.build_many([(Rows.of(sample), rng)])

    @classmethod
    def build_many(cls, pairs):
        """One tree per ``(sample, rng)`` pair, each isolating every
        distinguishable point of its sample, a ``Rows``, and drawing only
        from its own generator.

        Split attributes are drawn uniformly among attributes whose value
        range within the node is non-degenerate; the split value is uniform
        strictly inside that range. Indistinguishable duplicates share a
        leaf, so a tree may have fewer leaves than its sample has points.

        Trees grow in groups whose samples hold at most ``_GROW_BUDGET``
        stored entries and points (or one sample that holds more). Pairs
        are read one at a time, so when ``pairs`` is an iterator the
        transient memory follows that budget, not the number of trees.
        """
        grown, group, size = [], [], 0
        for sample, rng in pairs:
            cost = len(sample) + sample.nnz()
            if group and size + cost > _GROW_BUDGET:
                grown.append(_grow(group))
                group, size = [], 0
            group.append((sample, rng))
            size += cost
        grown.append(_grow(group))
        feature, threshold, sizes = map(np.concatenate, zip(*grown))
        return cls(feature, threshold, np.append(0, np.cumsum(sizes)))

    def assign_many(self, packed, n):
        """(n, k) cell ids of ``n`` rows packed by ``Rows.entries``. All
        (row, tree) pairs go down a level at a time, each to child
        ``left + (x >= threshold)``, and a pair leaves the active set at a
        leaf."""
        X = dense_rows(packed, n, self.cols)
        k = len(self)
        # int32 node ids, as the links are: intp ids would descend one row
        # about 20% faster, which waits until perfbench's peak memory no
        # longer grows with the number of requests it serves
        node = np.tile(self.offsets[:-1].astype(np.int32), n)
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            nd = node[live]
            node[live] = self.left[nd] + (
                X[live // k, self.feature[nd]] >= self.threshold[nd])
            live = live[self.feature[node[live]] >= 0]
        return self.leaf_id[node].reshape(n, k)

    def pack(self):
        """The arrays a map file holds of these trees: ``feature``,
        ``threshold`` and ``offsets``, with each split's attribute in
        ``feature``."""
        return {"feature": self._attributes()[self.feature],
                "threshold": self.threshold, "offsets": self.offsets}

    @classmethod
    def unpack(cls, arrays, dim=2**31):
        """The trees ``pack`` packed into ``arrays``, split within ``dim``."""
        feature = _checked("feature", arrays["feature"],
                           lambda f: (f >= -1) & (f < dim))
        threshold = _checked("threshold", arrays["threshold"])
        if threshold.shape != feature.shape:
            raise ValueError("not the node lists of full binary trees")
        ragged_runs(arrays["offsets"], feature.size)  # rise from 0 to size
        trees = cls(feature, threshold, arrays["offsets"])
        # one leaf more than splits in each tree, or its links run past
        # its last node
        if (np.diff(trees.offsets) != 2 * trees.n_cells - 1).any():
            raise ValueError("not the node list of a full binary tree")
        return trees


def _grow(group):
    """``(feature, threshold, sizes)`` of the trees of the ``(sample,
    rng)`` pairs in ``group``, grown a level at a time: each tree's
    breadth-first list of nodes in turn, as ``ITree`` takes them, and its
    count of nodes.

    At each level, every node of every tree in the group takes the range
    of each column over its members in one segmented reduction, picks its
    split from its own tree's next uniform pair ``(u0, u1)``, and routes
    its members to two children. A tree's pairs are drawn up front, one
    per possible split, and taken in breadth-first order, so each tree
    depends on its own generator alone. Node ids are allotted a level at a
    time, a left child just before its right one, so a tree's nodes in id
    order are the breadth-first list ``ITree`` stores.

    The samples are densified onto the sorted union ``cols`` of their
    supports when their entries fill at least ``GROW_FILL`` of that block.
    Otherwise they stay as their stored entries, sorted by (node, column,
    value), where a column's range at a node is that of its entries there,
    widened to 0 when some member of the node does not store it.
    """
    samples, rngs = zip(*group)
    g = len(samples)
    sizes = np.array([len(sample) for sample in samples])
    uniforms = np.concatenate([np.empty((0, 2))] + [
        rng.random((n - 1, 2)) for rng, n in zip(rngs, sizes)])
    next_pair = np.cumsum(sizes) - sizes - np.arange(g)  # first of each tree
    packed = Rows.concat(samples).entries()
    cols = _distinct(packed[1])
    rows = np.arange(sizes.sum())  # rows at nodes not yet leaves, by node
    members = sizes  # rows at each node of the level
    node_of_row = np.repeat(np.arange(g), sizes)  # the roots are 0..g-1
    dense = packed[1].size >= GROW_FILL * rows.size * cols.size
    if dense:
        S = dense_rows(packed, rows.size, cols)
    else:
        row, at, val = located(packed, cols)
        order = np.lexsort((val, at, node_of_row[row]))
        row, at, val = row[order], at[order], val[order]

    cap = 2 * rows.size - g  # nodes of g full binary trees
    feature = np.full(cap, -1, dtype=np.int32)
    threshold = np.zeros(cap)
    tree_of = np.empty(cap, dtype=np.intp)
    tree_of[:g] = np.arange(g)
    lo, hi = 0, g
    while rows.size:
        node = node_of_row[rows] - lo
        # the range [ca, cb] of every (node, column) group of values, in
        # that order; the candidates are the groups with ca < cb
        if dense:
            starts = _runs(node)
            block = S[rows]
            ca = np.minimum.reduceat(block, starts).ravel()
            cb = np.maximum.reduceat(block, starts).ravel()
            cand = np.flatnonzero(cb > ca)
            cnode = node[starts[cand // cols.size]]
        else:
            enode = node_of_row[row] - lo
            first = _runs(enode, at)
            ends = np.append(first, enode.size)
            gnode = enode[first]
            ca, cb = val[first], val[ends[1:] - 1]
            unstored = np.diff(ends) < members[gnode]
            np.minimum(ca, 0.0, out=ca, where=unstored)
            np.maximum(cb, 0.0, out=cb, where=unstored)
            cand = np.flatnonzero(cb > ca)
            cnode = gnode[cand]
        # the nodes that split, those with candidates, in level order
        pick = _runs(cnode)
        ncand = np.diff(np.append(pick, cnode.size))
        split = cnode[pick]
        tree = tree_of[lo + split]
        # a node's pair: its tree's next, counted in this level's order
        u0, u1 = uniforms[next_pair[tree] + np.arange(split.size)
                          - np.searchsorted(tree, tree)].T
        next_pair += np.bincount(tree, minlength=g)
        pick = cand[pick + (u0 * ncand).astype(np.intp)]
        a, b = ca[pick], cb[pick]
        attr = np.full(hi - lo, -1, dtype=np.intp)
        attr[split] = pick % cols.size if dense else at[first[pick]]
        feature[lo + split] = cols[attr[split]]
        threshold[lo + split] = np.clip(
            a + (b - a) * u1, np.nextafter(a, b), b)
        left = np.empty(hi - lo, dtype=np.intp)
        left[split] = hi + 2 * np.arange(split.size)
        tree_of[hi : hi + 2 * split.size] = np.repeat(tree, 2)

        # every row of a split node goes right iff its value >= the cut
        kept = attr[node] >= 0
        rows, node = rows[kept], node[kept]
        if dense:
            x = S[rows, attr[node]]
        else:
            on = at == attr[enode]
            x = np.zeros(node_of_row.size)
            x[row[on]] = val[on]
            x = x[rows]
        child = left[node] + (x >= threshold[lo + node])
        node_of_row[rows] = child
        # a child of one row is a leaf: its row goes no further
        members = np.bincount(child - hi, minlength=2 * split.size)
        rows = rows[members[child - hi] > 1]
        rows = rows[np.argsort(node_of_row[rows], kind="stable")]
        if not dense:
            # children follow their parents' order: a stable sort keeps
            # each child's entries in (column, value) order
            live = np.zeros(node_of_row.size, dtype=bool)
            live[rows] = True
            kept = np.flatnonzero(live[row])
            kept = kept[np.argsort(node_of_row[row[kept]], kind="stable")]
            row, at, val = row[kept], at[kept], val[kept]
        lo, hi = hi, hi + 2 * split.size

    # each tree's nodes in id order: level by level, in parent order, so
    # breadth-first from its root
    by_tree = np.argsort(tree_of[:hi], kind="stable")
    return (feature[by_tree], threshold[by_tree],
            np.bincount(tree_of[:hi], minlength=g))


class VoronoiPartition:
    """Voronoi cells of ``k`` samples of psi points each: a point's cell in
    partitioning i is its nearest of the i-th psi centres, ties to the
    lowest center index. The centres are held as ``rows``, one ``Rows`` of
    the samples in turn, with their squared norms ``sq_norms``, and scored
    by ``scorer``: a ``CentreStack`` when they fill their dense matrix on
    the union of their supports to at least ``DENSE_FILL``, a
    ``CentreIndex`` otherwise."""

    scheme = "anne"

    def __init__(self, centers, k=1):
        """``centers``: the ``k*psi`` centres, SparseVectors or ``Rows``."""
        self.rows = Rows.of(centers)
        sq = self.sq_norms = self.rows.sq_norms()
        self.n_cells = np.full(k, len(self.rows) // k)
        packed = self.rows.entries()
        order, ptr = by_column(packed[1])
        cols = packed[1][order[ptr[:-1]]]
        if packed[1].size >= DENSE_FILL * sq.size * cols.size:
            self.scorer = CentreStack(packed, cols, sq, k)
        else:
            self.scorer = CentreIndex(packed, cols, sq, k, order, ptr)
        self.width = self.scorer.width

    def __len__(self):
        return self.n_cells.size

    def __getitem__(self, i):
        """Partitioning i alone, as a ``VoronoiPartition`` of one."""
        psi = len(self.rows) // len(self)
        lo = range(len(self))[i] * psi
        return VoronoiPartition(self.rows.take(np.arange(lo, lo + psi)))

    @classmethod
    def build(cls, sample, rng=None):
        """The centres of the Voronoi cells of ``sample``, a list of
        SparseVectors or their ``Rows``: its ``Rows``. ``rng`` is unused."""
        return Rows.of(sample)

    @classmethod
    def build_many(cls, pairs):
        """The cells of the sample of each ``(sample, rng)`` pair, whose
        centres are its ``build``, as one ``VoronoiPartition``."""
        centres = [cls.build(sample, rng) for sample, rng in pairs]
        return cls(Rows.concat(centres), len(centres))

    def assign_many(self, packed, n):
        """(n, k) cell ids of ``n`` rows packed by ``Rows.entries``."""
        return self.scorer.assign_many(packed, n)

    def dense_centers(self):
        """Centers as a dense (k*psi, dim) matrix, built on every call. Only
        the benchmark's tie check reads it (``perfbench/workloads.py``,
        ``_both_nearest``), of one partitioning."""
        return dense_rows(
            self.rows.entries(), len(self.rows), np.arange(self.rows.dim))

    def pack(self):
        """The arrays a map file holds of these partitionings: all their
        centres as one ragged set (``pack_ragged``), partitioning i's the
        i-th run of psi, and each partitioning's ``dim``."""
        return {**pack_ragged(self.rows),
                "dim": np.full(len(self), self.rows.dim, dtype=np.int64)}

    @classmethod
    def unpack(cls, arrays, dim=None):
        """The partitionings ``pack`` packed into ``arrays``, at the one
        ``dim`` they all store."""
        dims = arrays["dim"]
        rows = unpack_ragged(arrays, int(dims.max()))
        if len(rows) % dims.size or (dims != dims[0]).any():
            raise ValueError(f"{len(rows)} centres in {dims.size} parts, or "
                             "parts of different dims")
        return cls(rows, dims.size)


class CentreStack:
    """The centres of ``k`` partitionings as the rows of one dense ``(k*psi,
    len(cols))`` matrix ``Z`` over the sorted columns ``cols`` they use,
    with their squared norms ``sq``. Built from the centres packed as
    ``Rows.entries`` packs them."""

    def __init__(self, packed, cols, sq, k):
        self.cols = cols
        # one partitioning at a time, so that no index array spans them all
        self.Z = np.empty((sq.size, cols.size))
        for lo, m, block in row_blocks(packed, sq.size, sq.size // k):
            self.Z[lo : lo + m] = dense_rows(block, m, cols)
        self.sq = sq
        self.k = k
        self.width = max(sq.size, cols.size)

    def assign_many(self, packed, n):
        """(n, k) cell ids of ``n`` rows packed by ``Rows.entries``."""
        X = dense_rows(packed, n, self.cols)
        twice = X @ self.Z.T
        twice += twice
        return _cells(twice, self.sq, self.k)


def by_column(col):
    """``(order, ptr)`` of the column numbers ``col``: the stable order
    that sorts them, and the bounds of their runs of one column in
    ``col[order]``, the j-th at ``ptr[j]:ptr[j + 1]``."""
    # a stable argsort at the cost of one plain sort, as the keys (column,
    # position) are distinct: 4x faster at t*psi = 6400. In place, since
    # each int64 temporary is the size of the index (1 MB on sparse-hd)
    n = col.size
    order = col.astype(np.int64)
    order *= n
    order += np.arange(n)
    order.sort()
    order %= n
    return order, np.append(_runs(col[order]), n)


class CentreIndex:
    """The same centres as ``CentreStack`` holds, indexed by column: the
    centres' entries sorted by column (``centre``, ``value``), those in
    ``cols[j]`` at ``ptr[j]:ptr[j + 1]``, where ``cols`` are the distinct
    columns of the entries. A row's dot with every centre costs one
    product per (row entry, centre entry) pair sharing a column. Built
    from the centres packed as ``Rows.entries`` packs them and the
    ``by_column`` order and runs of their columns."""

    def __init__(self, packed, cols, sq, k, order, ptr):
        row, _, val = packed
        self.cols = cols
        self.ptr = ptr
        self.centre = row[order]
        self.value = val[order]
        self.sq = sq
        self.k = k
        self.width = sq.size

    def assign_many(self, packed, n):
        """(n, k) cell ids of ``n`` rows packed by ``Rows.entries``."""
        row, at, val = located(packed, self.cols)
        first = self.ptr[at]
        count = self.ptr[at + 1] - first
        # positions in ``centre`` of every centre entry in each row
        # entry's column, run after run
        pos = _spans(first, count)
        terms = np.repeat(val, count) * self.value[pos]
        # doubled terms sum to exactly twice the dots unless a partial sum
        # overflows: none reaches 2^1023 while n terms are each below
        # 2^1022 / n. Past that, sum undoubled, as the dots were summed
        doubled = np.abs(terms).max(initial=0) < 2.0**1022 / max(terms.size, 1)
        if doubled:
            terms += terms
        twice = np.bincount(
            np.repeat(row * np.intp(self.width), count) + self.centre[pos],
            terms, minlength=n * self.width,
        ).astype(np.float64, copy=False)  # int64 when no column is shared
        if not doubled:
            twice += twice
        return _cells(twice.reshape(n, self.width), self.sq, self.k)


def _cells(twice, sq, k):
    """Argmin over each row's ``k`` groups of centres of ||z||^2 - 2<x, z>,
    from twice the dots ``<x, z>`` of every row x with every centre z,
    whose squared norms are ``sq``: the squared distance less ||x||^2,
    which cannot change a row's argmin but, if added, would round away the
    bits that separate near ties. ``twice`` is overwritten."""
    np.subtract(sq, twice, out=twice)
    return twice.reshape(twice.shape[0], k, -1).argmin(axis=2)


SCHEMES = {"iforest": ITree, "anne": VoronoiPartition}
