"""Isolation mechanisms: build one partitioning from a small sample.

A partitioning covers all of R^d with at most ``psi`` cells, each carrying a
stable id in [0, n_cells). Two constructions are provided:

* ``ITree`` — a binary tree of random axis-parallel splits, grown until every
  sample point is isolated (or points are indistinguishable). No height cap:
  the recursion stops only at isolation.
* ``VoronoiPartition`` — the Voronoi diagram of the sample under Euclidean
  distance; a query's cell is its nearest sample point (ties go to the
  lowest center index).

Built partitionings are immutable. A partitioning has no assignment path
of its own: a fitted map encodes through one joined form built once from
all its partitionings:

* ``ITree.join`` — all trees as one flat forest whose split attributes are
  renumbered onto the sorted columns some split reads; it descends blocks
  of rows densified onto those columns.
* ``VoronoiPartition.join`` — all ``t*psi`` centres as one scorer, which
  takes the ``<x, z>`` of each row x with every centre z and an argmin
  over ``(rows, t, psi)``. Where the centres fill at least ``DENSE_FILL``
  of their dense matrix on the union of their supports, as dense data
  does, the scorer is a ``CentreStack``: that matrix, scored with one
  product per block of rows densified onto the union. Otherwise, as on
  sparse high-dimensional data, whose partitionings share few columns, it
  is a ``CentreIndex``: the centres' entries indexed by column, scored
  from the products of row and centre entries that share a column.
"""

import numpy as np

from .errors import SampleError
from .dataset import (
    _distinct, dense_rows, entries, located, pack_ragged, row_blocks,
    unpack_ragged,
)

# The least fill, stored centre entries over the cells of the dense
# (t*psi, len(cols)) centre matrix, at which ``join`` scores centres as one
# dense stack rather than through a column index. Measured map_many cost at
# t=100, psi=64, on rows of 20 nonzeros (us per point, one stack / index):
# 71 / 244 at fill 0.10 (d=200), 191 / 54 at fill 0.04 (d=500).
DENSE_FILL = 1 / 16


def sample_psi(dataset, psi, rng):
    """Draw psi distinct points uniformly without replacement.

    Returns the sampled SparseVectors in draw order.
    """
    n = len(dataset)
    if psi < 1:
        raise SampleError(f"sample size must be >= 1, got {psi}")
    if psi > n:
        raise SampleError(f"cannot sample {psi} points from {n}")
    idx = rng.choice(n, size=psi, replace=False)
    return [dataset[int(i)].x for i in idx]


class ITree:
    """Fully grown random axis-parallel splitting tree over a sample.

    Nodes are stored flat: ``feature[i] >= 0`` marks an internal node with
    children ``left[i]``/``right[i]``; leaves have ``feature[i] == -1`` and a
    dense cell id in ``leaf_id[i]``. Leaf ids follow depth-first, left-first
    order. Descent rule: go left iff x[feature] < threshold.
    """

    scheme = "iforest"

    def __init__(self, feature, threshold, left, right, leaf_id):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.leaf_id = np.asarray(leaf_id, dtype=np.int32)
        self.n_cells = int(self.leaf_id.max()) + 1

    @classmethod
    def build(cls, sample, rng):
        """Grow a tree isolating every distinguishable point of ``sample``.

        Split attributes are drawn uniformly among attributes whose value
        range within the node is non-degenerate; the split value is uniform
        strictly inside that range. Indistinguishable duplicates share a
        leaf, so the tree may have fewer than len(sample) leaves.

        The sample is densified only on the sorted union ``cols`` of its
        supports: every other attribute is 0 in every sample row, so never
        a candidate, and the candidates keep their ascending order.
        """
        packed = entries(sample)
        cols = _distinct(packed[1])
        S = dense_rows(packed, len(sample), cols)
        # a full binary tree with at most len(sample) leaves
        size = 2 * len(sample) - 1
        feature = np.full(size, -1, dtype=np.int32)
        threshold = np.zeros(size)
        left = np.full(size, -1, dtype=np.int32)
        right = np.full(size, -1, dtype=np.int32)
        leaf_id = np.full(size, -1, dtype=np.int32)
        n_nodes = 1
        n_leaves = 0
        # stack of (node slot, row indices); push right child first so the
        # left subtree is finished first (leaf ids in DFS left-first order)
        stack = [(0, np.arange(len(sample)))]
        while stack:
            slot, rows = stack.pop()
            if rows.size > 1:
                block = S[rows]
                mins = block.min(axis=0)
                maxs = block.max(axis=0)
                candidates = np.flatnonzero(maxs > mins)
            else:
                candidates = np.empty(0, dtype=np.intp)
            if candidates.size == 0:
                leaf_id[slot] = n_leaves
                n_leaves += 1
                continue
            attr = int(candidates[rng.integers(candidates.size)])
            lo = mins[attr]
            hi = maxs[attr]
            split = rng.uniform(lo, hi)
            if split <= lo:  # uniform() may return its lower bound
                split = np.nextafter(lo, hi)
            go_left = S[rows, attr] < split
            feature[slot] = cols[attr]
            threshold[slot] = split
            left[slot] = n_nodes
            right[slot] = n_nodes + 1
            stack.append((n_nodes + 1, rows[~go_left]))
            stack.append((n_nodes, rows[go_left]))
            n_nodes += 2
        keep = slice(n_nodes)
        return cls(feature[keep], threshold[keep], left[keep], right[keep],
                   leaf_id[keep])

    @classmethod
    def join(cls, trees):
        """All ``trees`` as one flat forest, the node index of each root, and
        the sorted columns ``cols`` its splits read. Child links are shifted
        by their tree's root, leaf ids are not, and split attributes become
        positions in ``cols``: the forest descends rows densified onto
        ``cols`` alone."""
        roots = np.cumsum([0] + [tree.feature.size for tree in trees[:-1]])
        feature, threshold, left, right, leaf_id = map(np.concatenate, zip(*[
            (tree.feature, tree.threshold, tree.left + root,
             tree.right + root, tree.leaf_id)
            for tree, root in zip(trees, roots)
        ]))
        split = feature >= 0
        cols = _distinct(feature[split])
        feature[split] = np.searchsorted(cols, feature[split])
        return cls(feature, threshold, left, right, leaf_id), roots, cols

    def descend(self, X, roots):
        """Leaf node of every (row of X, tree rooted at ``roots``) pair, as
        an (n, len(roots)) array. X is dense on the columns ``join`` returns,
        which the split attributes index. All pairs go down a level at a
        time, and a pair leaves the active set at a leaf."""
        k = len(roots)
        node = np.tile(np.asarray(roots, dtype=np.int32), X.shape[0])
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            nd = node[live]
            node[live] = np.where(
                X[live // k, self.feature[nd]] < self.threshold[nd],
                self.left[nd], self.right[nd],
            )
            live = live[self.feature[node[live]] >= 0]
        return node.reshape(X.shape[0], k)

    def state(self):
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "leaf_id": self.leaf_id,
        }

    @classmethod
    def from_state(cls, state):
        return cls(
            state["feature"],
            state["threshold"],
            state["left"],
            state["right"],
            state["leaf_id"],
        )


class VoronoiPartition:
    """Voronoi cells of a point sample: a point's cell is its nearest
    center, ties to the lowest center index. The squared center norms are
    precomputed for the scorer ``join`` builds."""

    scheme = "anne"

    def __init__(self, centers):
        self.centers = list(centers)
        self.dim = max(c.dim for c in self.centers)
        self.sq_norms = np.array([c.sq_norm() for c in self.centers])
        self.n_cells = len(self.centers)

    @classmethod
    def build(cls, sample, rng=None):
        """Voronoi cells of ``sample``; ``rng`` is unused."""
        return cls(sample)

    def dense_centers(self):
        """Centers as a dense (psi, dim) matrix, built on every call. Only
        the benchmark's tie check reads it (``perfbench/workloads.py``,
        ``_both_nearest``): a map scores the centres that ``join`` joins."""
        return dense_rows(
            entries(self.centers), self.n_cells, np.arange(self.dim)
        )

    @classmethod
    def join(cls, parts):
        """All centres of ``parts`` (of equal psi), in order, as one scorer:
        a ``CentreStack`` when they fill their dense matrix on the union of
        their supports to at least ``DENSE_FILL``, a ``CentreIndex``
        otherwise."""
        packed = entries([c for part in parts for c in part.centers])
        cols = _distinct(packed[1])
        sq = np.concatenate([part.sq_norms for part in parts])
        dense = packed[1].size >= DENSE_FILL * sq.size * cols.size
        form = CentreStack if dense else CentreIndex
        return form(packed, cols, sq, len(parts))

    def state(self):
        return {
            **pack_ragged(self.centers),
            "dim": np.array([self.dim], dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state):
        return cls(unpack_ragged(state, int(state["dim"][0])))


class CentreStack:
    """The centres of ``k`` partitionings as the rows of one dense ``(k*psi,
    len(cols))`` matrix ``Z`` over the sorted columns ``cols`` they use,
    with their squared norms ``sq``. Built from the centres packed as
    ``entries`` packs them."""

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
        """(n, k) cell ids of ``n`` rows packed as ``entries`` packs them."""
        X = dense_rows(packed, n, self.cols)
        return _cells(X @ self.Z.T, self.sq, self.k)


class CentreIndex:
    """The same centres as ``CentreStack`` holds, indexed by column: the
    centres' entries sorted by column (``centre``, ``value``), those in
    ``cols[j]`` at ``ptr[j]:ptr[j + 1]``. A row's dot with every centre
    costs one product per (row entry, centre entry) pair sharing a
    column."""

    def __init__(self, packed, cols, sq, k):
        row, col, val = packed
        order = np.argsort(col, kind="stable")
        self.cols = cols
        self.ptr = np.append(np.searchsorted(col[order], cols), col.size)
        self.centre = row[order]
        self.value = val[order]
        self.sq = sq
        self.k = k
        self.width = sq.size

    def assign_many(self, packed, n):
        """(n, k) cell ids of ``n`` rows packed as ``entries`` packs them."""
        row, at, val = located(packed, self.cols)
        first = self.ptr[at]
        count = self.ptr[at + 1] - first
        # positions in ``centre`` of every centre entry in each row
        # entry's column, run after run
        pos = np.arange(count.sum()) + np.repeat(
            first - np.cumsum(count) + count, count)
        dots = np.bincount(
            np.repeat(row * np.intp(self.width), count) + self.centre[pos],
            np.repeat(val, count) * self.value[pos],
            minlength=n * self.width,
        ).astype(np.float64, copy=False)  # int64 when no column is shared
        return _cells(dots.reshape(n, self.width), self.sq, self.k)


def _cells(dots, sq, k):
    """Argmin over each row's ``k`` groups of centres of ||z||^2 - 2<x, z>,
    from the dots ``<x, z>`` of every row x with every centre z, whose
    squared norms are ``sq``: the squared distance less ||x||^2, which
    cannot change a row's argmin but, if added, would round away the bits
    that separate near ties."""
    dots *= -2.0
    dots += sq
    return dots.reshape(dots.shape[0], k, -1).argmin(axis=2)


SCHEMES = {"iforest": ITree, "anne": VoronoiPartition}
