"""Isolation mechanisms: build one partitioning from a small sample.

A partitioning covers all of R^d with at most ``psi`` cells, each carrying a
stable id in [0, n_cells). Two constructions are provided:

* ``ITree`` — a binary tree of random axis-parallel splits, grown until every
  sample point is isolated (or points are indistinguishable). No height cap:
  the recursion stops only at isolation.
* ``VoronoiPartition`` — the Voronoi diagram of the sample under Euclidean
  distance; a query is assigned to its nearest sample point (ties go to the
  lowest center index).

Built partitionings are immutable and safe for concurrent assignment.
"""

import numpy as np

from .errors import SampleError
from .dataset import pack_ragged, unpack_ragged

# elements per nearest-center score block; bounds peak memory in assign_many
_SCORE_BLOCK = 32_000_000


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


def _densify_sample(points):
    dim = max(p.dim for p in points)
    S = np.zeros((len(points), dim), dtype=np.float64)
    for row, p in enumerate(points):
        S[row, p.indices - 1] = p.values
    return S


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
        """
        S = _densify_sample(sample)
        feature = [0]
        threshold = [0.0]
        left = [-1]
        right = [-1]
        leaf_id = [-1]
        n_leaves = 0
        # stack of (node slot, row indices); push right child first so the
        # left subtree is finished first (leaf ids in DFS left-first order)
        stack = [(0, np.arange(S.shape[0]))]
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
                feature[slot] = -1
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
            left_slot = len(feature)
            right_slot = left_slot + 1
            for _ in range(2):
                feature.append(0)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_id.append(-1)
            feature[slot] = attr
            threshold[slot] = split
            left[slot] = left_slot
            right[slot] = right_slot
            stack.append((right_slot, rows[~go_left]))
            stack.append((left_slot, rows[go_left]))
        return cls(feature, threshold, left, right, leaf_id)

    def assign(self, x):
        """Cell id of a single SparseVector (deterministic descent)."""
        node = 0
        while self.feature[node] >= 0:
            if x.get(int(self.feature[node]) + 1) < self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return int(self.leaf_id[node])

    def assign_many(self, X):
        """Cell ids for every row of a dense matrix X."""
        node = np.zeros(X.shape[0], dtype=np.int32)
        pending = np.flatnonzero(self.feature[node] >= 0)
        while pending.size:
            nd = node[pending]
            vals = X[pending, self.feature[nd]]
            node[pending] = np.where(
                vals < self.threshold[nd], self.left[nd], self.right[nd]
            )
            pending = pending[self.feature[node[pending]] >= 0]
        return self.leaf_id[node].copy()

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
    """Voronoi cells of a point sample; assignment = nearest center.

    Distances are evaluated through the decomposition
    ||x - z||^2 = ||x||^2 - 2<x, z> + ||z||^2 with precomputed center norms.
    Ties break to the lowest center index.
    """

    scheme = "anne"

    def __init__(self, centers):
        self.centers = list(centers)
        self.dim = max(c.dim for c in self.centers)
        self.sq_norms = np.array([c.sq_norm() for c in self.centers])
        self.n_cells = len(self.centers)
        self._dense = None

    @classmethod
    def build(cls, sample):
        return cls(sample)

    def dense_centers(self):
        """Centers as a dense (psi, dim) matrix; built once, then cached."""
        if self._dense is None:
            self._dense = _densify_sample(
                [c.with_dim(self.dim) for c in self.centers]
            )
        return self._dense

    def cell_distances(self, x):
        """Three-term squared distances from x to every center."""
        Z = self.dense_centers()
        xd = np.zeros(self.dim)
        inside = x.indices <= self.dim
        xd[x.indices[inside] - 1] = x.values[inside]
        return x.sq_norm() - 2.0 * (Z @ xd) + self.sq_norms

    def assign(self, x):
        """Nearest center of one point, scored exactly as ``assign_many``
        scores a row, so both break ties alike."""
        Z = self.dense_centers()
        xd = np.zeros(self.dim)
        inside = x.indices <= self.dim
        xd[x.indices[inside] - 1] = x.values[inside]
        scores = -2.0 * (Z @ xd)
        scores += self.sq_norms
        return int(np.argmin(scores))

    def assign_many(self, X):
        """Cell ids for every row of a dense matrix X.

        The per-row ||x||^2 term is constant within a row and dropped; it
        cannot change the argmin, but adding it would round away the last
        bits that separate nearly equidistant centers. Rows are processed in
        chunks to bound the score-matrix footprint.
        """
        Z = self.dense_centers()
        if X.shape[1] > self.dim:
            X = X[:, : self.dim]
        elif X.shape[1] < self.dim:
            Z = Z[:, : X.shape[1]]
        n = X.shape[0]
        out = np.empty(n, dtype=np.int32)
        step = max(1, _SCORE_BLOCK // max(1, self.n_cells))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            scores = -2.0 * (X[lo:hi] @ Z.T)
            scores += self.sq_norms
            out[lo:hi] = np.argmin(scores, axis=1)
        return out

    def state(self):
        return {
            **pack_ragged(self.centers),
            "dim": np.array([self.dim], dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state):
        return cls(unpack_ragged(state, int(state["dim"][0])))


SCHEMES = {"iforest": ITree, "anne": VoronoiPartition}
