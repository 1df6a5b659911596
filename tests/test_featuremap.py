"""Feature map geometry, kernel estimation, and indexed dot products."""

import json

import numpy as np
import pytest

import isokernel.featuremap as featuremap
from isokernel.errors import (
    LoadError,
    ParameterError,
    ProvenanceError,
    ShapeError,
)
from isokernel.featuremap import (
    Mapper,
    OpCounter,
    accumulate,
    dense_feature,
    efficient_dot,
    kernel,
    naive_dot,
    new_weights,
    write_features_csv,
)

from isokernel.partition import ITree, VoronoiPartition

from helpers import damage_npz, rand_dataset, rand_sparse, unreadable_files


def fit_small(rng_seed=0, n=200, dim=6, psi=8, t=32, scheme="anne"):
    rng = np.random.default_rng(rng_seed)
    ds = rand_dataset(rng, n, dim, density=0.8)
    return ds, Mapper.fit(ds, psi=psi, t=t, scheme=scheme, seed=rng_seed + 1)


class TestFit:
    def test_degenerate_single_cell(self):
        rng = np.random.default_rng(0)
        ds = rand_dataset(rng, 5, 3)
        mapper = Mapper.fit(ds, psi=1, t=1, scheme="anne", seed=0)
        for _ in range(10):
            assert mapper.map_point(rand_sparse(rng, 3)).tolist() == [0]

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_same_seed_same_map(self, scheme):
        rng = np.random.default_rng(1)
        ds = rand_dataset(rng, 100, 5)
        m1 = Mapper.fit(ds, psi=8, t=20, scheme=scheme, seed=99)
        m2 = Mapper.fit(ds, psi=8, t=20, scheme=scheme, seed=99)
        for _ in range(100):
            x = rand_sparse(rng, 5)
            assert np.array_equal(m1.map_point(x), m2.map_point(x))

    def test_propagates_sample_error(self):
        rng = np.random.default_rng(2)
        ds = rand_dataset(rng, 4, 3)
        with pytest.raises(Exception) as err:
            Mapper.fit(ds, psi=8, t=2, scheme="anne", seed=0)
        assert "sample" in str(err.value).lower()

    def test_rejects_bad_params(self):
        rng = np.random.default_rng(3)
        ds = rand_dataset(rng, 10, 3)
        with pytest.raises(ParameterError):
            Mapper.fit(ds, psi=2, t=0, scheme="anne", seed=0)
        with pytest.raises(ParameterError):
            Mapper.fit(ds, psi=2, t=2, scheme="grid", seed=0)


class TestMapPoint:
    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_exactly_t_cells_one_per_partitioning(self, scheme):
        ds, mapper = fit_small(scheme=scheme)
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = mapper.map_point(rand_sparse(rng, 6))
            assert f.shape == (mapper.t,)
            assert np.all(f >= 0) and np.all(f < mapper.psi)
            phi = dense_feature(f, mapper.psi)
            assert phi.sum() == mapper.t  # exactly t ones among t*psi slots
            assert np.linalg.norm(phi.ravel()) == pytest.approx(
                np.sqrt(mapper.t)
            )

    def test_sample_points_get_distinct_ids_per_partitioning(self):
        ds, mapper = fit_small(scheme="anne", psi=8)
        for i, part in enumerate(mapper.parts):
            ids = {mapper.map_point(z)[i] for z in part.centers}
            assert len(ids) == len(part.centers)

    def test_map_many_matches_map_point(self):
        ds, mapper = fit_small(scheme="iforest")
        F = mapper.map_many(ds)
        for row, p in zip(F, ds):
            assert np.array_equal(row, mapper.map_point(p.x))


class TestKernel:
    def test_self_kernel_is_one(self):
        ds, mapper = fit_small()
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = mapper.map_point(rand_sparse(rng, 6))
            assert kernel(f, f) == 1.0

    def test_disjoint_features_give_zero(self):
        fa = np.zeros(10, dtype=np.int32)
        fb = np.ones(10, dtype=np.int32)
        assert kernel(fa, fb) == 0.0

    def test_matches_dense_expansion_oracle(self):
        ds, mapper = fit_small(t=25)
        rng = np.random.default_rng(6)
        for _ in range(200):
            fa = mapper.map_point(rand_sparse(rng, 6))
            fb = mapper.map_point(rand_sparse(rng, 6))
            pa = dense_feature(fa, mapper.psi).ravel()
            pb = dense_feature(fb, mapper.psi).ravel()
            assert kernel(fa, fb) == float(pa @ pb) / mapper.t

    def test_symmetry_and_grid_range(self):
        ds, mapper = fit_small(t=16)
        rng = np.random.default_rng(7)
        grid = {i / mapper.t for i in range(mapper.t + 1)}
        for _ in range(100):
            fa = mapper.map_point(rand_sparse(rng, 6))
            fb = mapper.map_point(rand_sparse(rng, 6))
            k = kernel(fa, fb)
            assert k == kernel(fb, fa)
            assert k in grid

    def test_gram_is_positive_semidefinite(self):
        ds, mapper = fit_small(n=80, t=40)
        F = [mapper.map_point(p.x) for p in ds.points[:50]]
        G = np.array([[kernel(a, b) for b in F] for a in F])
        assert np.linalg.eigvalsh(G).min() >= -1e-8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProvenanceError):
            kernel(np.zeros(5, dtype=np.int32), np.zeros(6, dtype=np.int32))

    def test_monte_carlo_consistency_small_vs_large_t(self):
        # estimates from t and 100t partitionings agree within binomial noise
        rng = np.random.default_rng(8)
        ds = rand_dataset(rng, 300, 4, density=0.9)
        t_small = 100
        m_small = Mapper.fit(ds, psi=8, t=t_small, scheme="anne", seed=11)
        m_large = Mapper.fit(ds, psi=8, t=100 * t_small, scheme="anne", seed=12)
        failures = 0
        for _ in range(20):
            x, y = rand_sparse(rng, 4, 0.9), rand_sparse(rng, 4, 0.9)
            k_small = kernel(m_small.map_point(x), m_small.map_point(y))
            k_large = kernel(m_large.map_point(x), m_large.map_point(y))
            tol = 4 * np.sqrt(max(k_large * (1 - k_large), 1e-12) / t_small)
            if abs(k_small - k_large) > tol:
                failures += 1
        assert failures <= 1


class TestDotProducts:
    def test_all_ones_weight_counts_t(self):
        w = np.ones((12, 5))
        f = np.arange(12, dtype=np.int32) % 5
        assert efficient_dot(w, f) == 12.0

    def test_weight_from_feature_chains_to_kernel(self):
        ds, mapper = fit_small(t=20)
        rng = np.random.default_rng(9)
        fy = mapper.map_point(rand_sparse(rng, 6))
        w = dense_feature(fy, mapper.psi)
        fx = mapper.map_point(rand_sparse(rng, 6))
        assert efficient_dot(w, fx) == mapper.t * kernel(fx, fy)

    def test_efficient_equals_naive_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            t = int(rng.integers(1, 20))
            psi = int(rng.integers(1, 30))
            w = rng.standard_normal((t, psi))
            f = rng.integers(0, psi, size=t).astype(np.int32)
            assert efficient_dot(w, f) == pytest.approx(
                naive_dot(w, f), abs=1e-12
            )

    def test_op_counters(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((16, 64))
        f = rng.integers(0, 64, size=16).astype(np.int32)
        c1, c2 = OpCounter(), OpCounter()
        efficient_dot(w, f, c1)
        naive_dot(w, f, c2)
        assert c1.count == 16
        assert c2.count == 16 * 64

    def test_shape_mismatch_rejected(self):
        w = np.zeros((4, 3))
        with pytest.raises(ShapeError):
            efficient_dot(w, np.zeros(5, dtype=np.int32))
        with pytest.raises(ShapeError):
            naive_dot(w, np.zeros(5, dtype=np.int32))
        with pytest.raises(ShapeError):
            dense_feature(np.array([3], dtype=np.int32), 3)


class TestAccumulate:
    def test_self_dot_after_single_accumulate(self):
        w = new_weights(10, 6)
        f = np.arange(10, dtype=np.int32) % 6
        accumulate(w, f, 1.0)
        assert efficient_dot(w, f) == 10.0

    def test_accumulate_then_inverse_restores_exactly(self):
        # dyadic entries and coefficient keep every add rounding-free, so
        # the inverse accumulate must restore w bit for bit
        rng = np.random.default_rng(12)
        w = rng.integers(-16, 16, size=(8, 5)).astype(np.float64) / 8.0
        before = w.copy()
        f = rng.integers(0, 5, size=8).astype(np.int32)
        accumulate(w, f, 0.375)
        accumulate(w, f, -0.375)
        assert np.array_equal(w, before)

    def test_accumulate_from_zero_inverse_restores_any_coeff(self):
        w = new_weights(6, 4)
        f = np.array([0, 1, 2, 3, 0, 1], dtype=np.int32)
        accumulate(w, f, 0.37)
        accumulate(w, f, -0.37)
        assert np.array_equal(w, new_weights(6, 4))

    def test_accumulated_weights_expand_as_dual_sum(self):
        ds, mapper = fit_small(t=15)
        rng = np.random.default_rng(13)
        w = new_weights(mapper.t, mapper.psi)
        terms = []
        for _ in range(30):
            fj = mapper.map_point(rand_sparse(rng, 6))
            coeff = float(rng.standard_normal())
            accumulate(w, fj, coeff)
            terms.append((fj, coeff))
        for _ in range(20):
            f = mapper.map_point(rand_sparse(rng, 6))
            expected = sum(
                coeff * mapper.t * kernel(fj, f) for fj, coeff in terms
            )
            assert efficient_dot(w, f) == pytest.approx(expected, abs=1e-9)


class TestPersistence:
    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_save_load_bit_identical_assignments(self, tmp_path, scheme):
        ds, mapper = fit_small(scheme=scheme)
        path = tmp_path / "map.npz"
        mapper.save(path)
        clone = Mapper.load(path)
        assert (clone.scheme, clone.t, clone.psi, clone.seed, clone.dim) == (
            mapper.scheme, mapper.t, mapper.psi, mapper.seed, mapper.dim,
        )
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rand_sparse(rng, 6)
            assert np.array_equal(mapper.map_point(x), clone.map_point(x))

    @pytest.mark.parametrize(
        "scheme, part_keys",
        [
            ("iforest", {"feature", "threshold", "left", "right", "leaf_id"}),
            ("anne", {"cat_indices", "cat_values", "offsets", "dim"}),
        ],
    )
    def test_file_layout(self, tmp_path, scheme, part_keys):
        # maps saved by earlier releases must keep loading
        ds, mapper = fit_small(scheme=scheme, t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        with np.load(path) as data:
            files = set(data.files)
            meta = json.loads(str(data["meta"]))
        assert files == {"meta"} | {
            f"part{i}_{key}" for i in range(3) for key in part_keys
        }
        assert set(meta) == {"format_version", "scheme", "t", "psi", "seed",
                             "dim"}
        assert meta["format_version"] == 1

    @pytest.mark.parametrize(
        "scheme, key", [("iforest", "part1_left"), ("anne", "part1_offsets")]
    )
    def test_missing_array_is_a_load_error(self, tmp_path, scheme, key):
        _, mapper = fit_small(scheme=scheme, t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        damage_npz(path, drop=key)
        with pytest.raises(LoadError, match="map file"):
            Mapper.load(path)

    @pytest.mark.parametrize(
        "meta", ["{not json", "[1]", '{"format_version": 1, "t": 3}']
    )
    def test_bad_meta_is_a_load_error(self, tmp_path, meta):
        _, mapper = fit_small(t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        damage_npz(path, meta=meta)
        with pytest.raises(LoadError):
            Mapper.load(path)

    def test_unreadable_file_is_a_load_error(self, tmp_path):
        for path in unreadable_files(tmp_path):
            with pytest.raises(LoadError):
                Mapper.load(path)

    def test_features_csv_row_count(self, tmp_path):
        ds, mapper = fit_small(n=17)
        F = mapper.map_many(ds)
        path = tmp_path / "f.csv"
        write_features_csv(path, F)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 17
        assert all(len(line.split(",")) == mapper.t for line in lines)


class TestBlocks:
    @pytest.mark.parametrize(
        "scheme, t, psi",
        [("iforest", 3, 5), ("iforest", 12, 5), ("anne", 3, 5),
         ("anne", 3, 12)],
    )
    def test_tiny_blocks_encode_alike_within_the_bound(
        self, monkeypatch, scheme, t, psi
    ):
        ds, mapper = fit_small(n=60, scheme=scheme, t=t, psi=psi)
        expected = mapper.map_many(ds)
        sizes = []  # (row, tree) pairs or (row, center) scores per call
        descend = ITree.descend
        assign_many = VoronoiPartition.assign_many

        def spy_descend(self, X, roots):
            sizes.append(X.shape[0] * len(roots))
            return descend(self, X, roots)

        def spy_assign_many(self, X):
            sizes.append(X.shape[0] * self.n_cells)
            return assign_many(self, X)

        monkeypatch.setattr(ITree, "descend", spy_descend)
        monkeypatch.setattr(VoronoiPartition, "assign_many", spy_assign_many)
        monkeypatch.setattr(featuremap, "_BLOCK", 7)
        assert np.array_equal(mapper.map_many(ds), expected)
        # every row is encoded once per forest, or once per partitioning,
        # in calls no larger than a block, or than one row when it is wider
        assert sum(sizes) == len(ds) * t * (1 if scheme == "iforest" else psi)
        assert max(sizes) <= max(7, t if scheme == "iforest" else psi)
        for p, row in zip(ds, expected):
            assert np.array_equal(mapper.map_point(p.x), row)
