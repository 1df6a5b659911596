"""Isolation mechanisms: sampling, tree growth, joined forms, and the cells
a one-partitioning map gives."""

import tracemalloc

import numpy as np
import pytest

from isokernel.dataset import (
    Rows,
    SparseVector,
    sq_distance,
)
from isokernel.errors import SampleError
from isokernel.partition import (
    DENSE_FILL,
    CentreIndex,
    CentreStack,
    ITree,
    VoronoiPartition,
    sample_rows,
)

from helpers import (
    cell,
    cells_of,
    centre_forms,
    rand_sparse,
    walk_tree,
)


class TestSamplePsi:
    """``sample_rows``: the ids of the psi distinct rows a fit draws."""

    def test_exhaustive_sample_is_permutation(self):
        ids = sample_rows(12, 12, np.random.default_rng(1))
        assert sorted(ids.tolist()) == list(range(12))

    def test_deterministic_given_seed(self):
        s1 = sample_rows(30, 7, np.random.default_rng(42))
        s2 = sample_rows(30, 7, np.random.default_rng(42))
        assert s1.tolist() == s2.tolist()
        assert len(set(s1.tolist())) == 7

    def test_uniform_without_replacement_frequencies(self):
        # psi=2 from 4 rows: each row selected with probability 1/2;
        # 3-sigma binomial band around 0.5 over 10^4 draws
        rng = np.random.default_rng(7)
        n_draws = 10_000
        counts = np.zeros(4)
        for _ in range(n_draws):
            ids = sample_rows(4, 2, rng)
            assert ids[0] != ids[1]
            counts[ids] += 1
        freq = counts / n_draws
        sigma = np.sqrt(0.5 * 0.5 / n_draws)
        assert np.all(np.abs(freq - 0.5) <= 3 * sigma)

    def test_oversample_rejected(self):
        for psi in (0, 6):
            with pytest.raises(SampleError):
                sample_rows(5, psi, np.random.default_rng(0))


class TestITree:
    def test_single_point_single_leaf(self):
        rng = np.random.default_rng(0)
        sample = [rand_sparse(rng, 6)]
        tree = ITree.build(sample, np.random.default_rng(1))
        assert tree.n_cells.tolist() == [1]
        for _ in range(10):
            assert cell(tree, rand_sparse(rng, 6)) == 0

    def test_two_points_forced_split(self):
        a = SparseVector([1], [1.0], 2)
        b = SparseVector([1, 2], [1.0, 5.0], 2)  # differ only on attribute 2
        tree = ITree.build([a, b], np.random.default_rng(3))
        assert tree.n_cells.tolist() == [2]
        assert tree.pack()["feature"][0] == 1  # 0-based: attribute 2
        assert cell(tree, a) != cell(tree, b)

    def test_full_isolation_of_distinct_points(self):
        rng = np.random.default_rng(5)
        sample = [rand_sparse(rng, 8, density=0.9) for _ in range(64)]
        tree = ITree.build(sample, np.random.default_rng(6))
        assert tree.n_cells.tolist() == [64]
        ids = {cell(tree, p) for p in sample}
        assert len(ids) == 64
        assert ids == set(range(64))

    def test_split_values_strictly_inside_node_ranges(self):
        rng = np.random.default_rng(11)
        sample = [rand_sparse(rng, 5, density=1.0) for _ in range(32)]
        tree = ITree.build(sample, np.random.default_rng(12))
        S = np.stack([p.densify(5) for p in sample])
        feature = tree.pack()["feature"]

        def check(node, rows):
            if feature[node] < 0:
                return
            attr = feature[node]
            split = tree.threshold[node]
            vals = S[rows, attr]
            assert vals.min() < split < vals.max()
            go_left = vals < split
            check(tree.left[node], rows[go_left])
            check(tree.left[node] + 1, rows[~go_left])

        check(0, np.arange(32))

    def test_duplicates_share_a_leaf_with_dense_ids(self):
        v = SparseVector([1], [2.0], 3)
        w = SparseVector([2], [1.0], 3)
        tree = ITree.build([v, v, w], np.random.default_rng(0))
        assert tree.n_cells.tolist() == [2]
        assert cell(tree, v) == cell(tree, v)
        assert cell(tree, v) != cell(tree, w)
        assert set(tree.leaf_id[tree.leaf_id >= 0]) == {0, 1}

    def test_assign_total_even_far_outside(self):
        rng = np.random.default_rng(21)
        sample = [rand_sparse(rng, 4, density=1.0) for _ in range(16)]
        tree = ITree.build(sample, np.random.default_rng(22))
        far = SparseVector([1, 2, 3, 4], [1e9, -1e9, 1e9, -1e9], 4)
        assert 0 <= cell(tree, far) < tree.n_cells[0]

    def test_assign_matches_independent_walk(self):
        rng = np.random.default_rng(31)
        sample = [rand_sparse(rng, 6, density=0.8) for _ in range(40)]
        tree = ITree.build(sample, np.random.default_rng(32))
        for _ in range(1000):
            x = rand_sparse(rng, 6, density=rng.uniform(0.1, 1.0))
            assert cell(tree, x) == walk_tree(tree, x.densify(6))

    def test_batch_assign_matches_pointwise(self):
        rng = np.random.default_rng(41)
        sample = [rand_sparse(rng, 7, density=0.9) for _ in range(30)]
        tree = ITree.build(sample, np.random.default_rng(42))
        queries = [rand_sparse(rng, 7, density=0.5) for _ in range(200)]
        X = np.stack([q.densify(7) for q in queries])
        batch = cells_of(tree, X)
        point = np.array([cell(tree, q) for q in queries])
        assert np.array_equal(batch, point)

    def test_sparse_fit_isolates_its_sample_in_memory_of_its_columns(self):
        # 64 points of 10 nonzeros at d=50000: at most 640 columns hold a
        # value, where one dense psi x d sample alone would be 25.6 MB
        rng = np.random.default_rng(53)
        d = 50_000
        sample = [
            SparseVector(np.sort(rng.choice(d, 10, replace=False)) + 1,
                         rng.uniform(0.5, 1.5, 10), d)
            for _ in range(64)
        ]
        tracemalloc.start()
        try:
            tree = ITree.build(sample, np.random.default_rng(54))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert {cell(tree, p) for p in sample} == set(range(64))

    def test_state_round_trip(self):
        rng = np.random.default_rng(51)
        sample = [rand_sparse(rng, 5) for _ in range(20)]
        tree = ITree.build(sample, np.random.default_rng(52))
        clone = ITree.unpack(tree.pack())
        for key, arr in tree.pack().items():
            assert np.array_equal(arr, clone.pack()[key])

    def test_unpack_checks_each_tree_not_only_the_totals(self):
        def unpack(feature, offsets):
            return ITree.unpack({"feature": np.array(feature, dtype=np.int32),
                                 "threshold": np.zeros(len(feature)),
                                 "offsets": np.array(offsets)})

        feature = [0, -1, -1, 0, 0, -1, -1, -1]  # trees of 3 and 5 nodes
        assert unpack(feature, [0, 3, 8]).n_cells.tolist() == [2, 3]
        # cut after 5 nodes, the first tree has two nodes too many and the
        # second two too few; then an empty tree, before a tree of one
        # split and three leaves
        for feature, offsets in [(feature, [0, 5, 8]),
                                 ([0, -1, -1, 0, -1, -1, -1], [0, 3, 3, 7])]:
            # in total, one leaf more than splits per tree
            assert len(feature) == 2 * feature.count(-1) - (len(offsets) - 1)
            with pytest.raises(ValueError, match="full binary tree"):
                unpack(feature, offsets)


class TestJoin:
    """A map's partitionings joined as one object: its flat forest, and
    its centre scorers."""

    def test_forest_reads_only_its_split_columns(self):
        rng = np.random.default_rng(61)
        forest = ITree.build_many(
            (Rows.of([rand_sparse(rng, 40, density=0.1) for _ in range(6)]),
             np.random.default_rng((62, i)))
            for i in range(5)
        )
        splits = forest.pack()["feature"]
        assert forest.cols.tolist() == sorted(
            set(splits[splits >= 0].tolist()))
        queries = [rand_sparse(rng, 40, density=0.5) for _ in range(50)]
        X = np.stack([q.densify(40) for q in queries])
        cells = forest.assign_many(Rows.of(queries).entries(), 50)
        for i, tree in enumerate(forest):
            assert np.array_equal(cells[:, i], cells_of(tree, X))

    def test_dense_centres_form_one_stack(self):
        rng = np.random.default_rng(71)
        parts = VoronoiPartition.build_many(
            ([rand_sparse(rng, 6, density=0.9) for _ in range(8)], None)
            for _ in range(7)
        )
        stack = parts.scorer
        assert isinstance(stack, CentreStack)
        assert (stack.k, stack.Z.shape) == (7, (56, 6))

    def test_disjoint_supports_form_a_column_index(self):
        # partitioning i has its centres on columns 10i .. 10i+9 only
        rng = np.random.default_rng(81)

        def centre(i):
            cols = np.sort(rng.choice(10, 3, replace=False)) + 10 * i
            return SparseVector(cols + 1, rng.uniform(1, 2, 3), 100)

        parts = VoronoiPartition.build_many(
            ([centre(i) for _ in range(4)], None) for i in range(10))
        index = parts.scorer
        assert isinstance(index, CentreIndex)
        support = np.unique(np.concatenate(
            [c.indices for c in parts.rows.vectors()])) - 1
        assert index.cols.tolist() == support.tolist()
        # 120 stored entries fill under DENSE_FILL of a 40 x len(support)
        # dense matrix
        assert 120 < DENSE_FILL * 40 * support.size
        # each column's run lists the centres stored in it, in order
        for j, c in enumerate(index.cols):
            run = slice(index.ptr[j], index.ptr[j + 1])
            held = [g for g, z in enumerate(parts.rows.vectors())
                    if c + 1 in z.indices]
            assert index.centre[run].tolist() == held

    def test_stacks_assign_like_each_partitioning(self):
        # three dense partitionings on columns 1..10, then three whose
        # centres sit on columns 10i+1 .. 10i+10 only, scored by both forms
        rng = np.random.default_rng(91)

        def centre(i):
            cols = np.sort(rng.choice(10, 3 if i else 9, replace=False))
            values = rng.normal(size=cols.size)
            return SparseVector(cols + 10 * i + 1, values, 60)

        parts = VoronoiPartition.build_many(
            ([centre(i) for _ in range(5)], None) for i in (0, 0, 0, 1, 2, 3))
        queries = [rand_sparse(rng, 60, density=0.4) for _ in range(40)]
        X = np.stack([q.densify(60) for q in queries])
        for scorer in centre_forms(parts):
            cells = scorer.assign_many(Rows.of(queries).entries(),
                                       len(queries))
            assert cells.shape == (len(queries), len(parts))
            for j, part in enumerate(parts):
                assert np.array_equal(cells[:, j], cells_of(part, X))

    def test_dots_that_overflow_only_when_doubled_keep_their_cells(self):
        # the row's terms with centre 1 are p, p, -p, for p = 5e307: the
        # dot sums to p through 2p, but doubled terms would reach 4p, past
        # the largest float. So both forms score it as ``_cells`` always
        # has: ||z||^2 - 2 <x, z>, the dot summed undoubled
        s = 0.5e154
        x = SparseVector([1, 2, 3], [1e154] * 3, 3)
        centres = [SparseVector([1], [s], 3),
                   SparseVector([1, 2, 3], [s, s, -s], 3)]
        part = VoronoiPartition(centres)
        scores = []
        for z in centres:
            dot = 0.0
            for a, b in zip(x.densify(3), z.densify(3)):
                dot += a * b
            scores.append(dot * -2.0 + float(z.values @ z.values))
        assert np.isfinite(scores).all()
        want = int(np.argmin(scores))
        assert want == 0  # the doubled sum, inf, would make it 1
        for form in centre_forms(part):
            assert form.assign_many(Rows.of([x]).entries(), 1).tolist() == [
                [want]]
        assert cell(part, x) == want


class TestVoronoi:
    def test_center_maps_to_itself(self):
        rng = np.random.default_rng(1)
        centers = [rand_sparse(rng, 5, density=1.0) for _ in range(12)]
        part = VoronoiPartition(centers)
        for k, z in enumerate(centers):
            assert cell(part, z) == k

    def test_tie_breaks_to_lowest_index(self):
        # centers 2 and 5 equidistant from the query (exact in floats)
        centers = [
            SparseVector([1], [10.0], 2),
            SparseVector([1], [-10.0], 2),
            SparseVector([1, 2], [2.0, 1.0], 2),
            SparseVector([2], [8.0], 2),
            SparseVector([2], [-8.0], 2),
            SparseVector([1, 2], [2.0, -1.0], 2),
        ]
        x = SparseVector([1], [2.0], 2)  # distance 1 to centers 2 and 5
        part = VoronoiPartition(centers)
        assert cell(part, x) == 2

    def test_matches_brute_force_distance_scan(self):
        rng = np.random.default_rng(9)
        centers = [rand_sparse(rng, 6, density=0.8) for _ in range(32)]
        part = VoronoiPartition(centers)
        for _ in range(1000):
            x = rand_sparse(rng, 6, density=rng.uniform(0.1, 1.0))
            dists = [sq_distance(x, z) for z in centers]
            assert cell(part, x) == int(np.argmin(dists))

    def test_batch_assign_matches_pointwise(self):
        rng = np.random.default_rng(29)
        centers = [rand_sparse(rng, 5, density=0.9) for _ in range(20)]
        part = VoronoiPartition(centers)
        queries = [rand_sparse(rng, 5, density=0.6) for _ in range(300)]
        X = np.stack([q.densify(5) for q in queries])
        batch = cells_of(part, X)
        point = np.array([cell(part, q) for q in queries])
        assert np.array_equal(batch, point)

    def test_batch_assign_matches_pointwise_on_disjoint_supports(self):
        # A query sharing no column with any centre is ||x||^2 + ||z||^2
        # from each. Unit-norm centres differ in ||z||^2 only by rounding,
        # so the nearest one is decided by ulps that adding ||x||^2 in one
        # path but not the other would erase.
        rng = np.random.default_rng(3)

        def unit(cols):
            v = rng.standard_normal(cols.size)
            return SparseVector(cols + 1, v / np.linalg.norm(v), 40)

        centers = [
            unit(np.sort(rng.choice(20, 3, replace=False))) for _ in range(8)
        ]
        queries = [
            unit(np.sort(rng.choice(20, 3, replace=False)) + 20)
            for _ in range(20)
        ]
        part = VoronoiPartition(centers)
        batch = cells_of(part, np.stack([q.densify() for q in queries]))
        point = np.array([cell(part, q) for q in queries])
        assert np.array_equal(batch, point)

    def test_totality(self):
        rng = np.random.default_rng(39)
        centers = [rand_sparse(rng, 4) for _ in range(8)]
        part = VoronoiPartition(centers)
        for scale in (1.0, 1e6, 1e-6):
            x = rand_sparse(rng, 4, density=1.0, scale=scale)
            assert 0 <= cell(part, x) < part.n_cells[0]

    def test_distinct_points_get_distinct_cells(self):
        rng = np.random.default_rng(49)
        centers = [rand_sparse(rng, 6, density=1.0) for _ in range(24)]
        part = VoronoiPartition(centers)
        ids = {cell(part, z) for z in centers}
        assert len(ids) == 24

    def test_state_round_trip(self):
        rng = np.random.default_rng(59)
        centers = [rand_sparse(rng, 5, density=0.4) for _ in range(10)]
        part = VoronoiPartition(centers)
        clone = VoronoiPartition.unpack(part.pack())
        assert clone.n_cells.tolist() == part.n_cells.tolist() == [10]
        for _ in range(50):
            x = rand_sparse(rng, 5)
            assert cell(part, x) == cell(clone, x)
