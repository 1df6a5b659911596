"""Eigendecomposition contract and the landmark feature map."""

import json
import tracemalloc

import numpy as np
import pytest

from isokernel.dataset import Dataset, LabeledPoint, SparseVector
from isokernel.errors import (
    ContractError,
    DegenerateKernelError,
    LoadError,
    ParameterError,
    SampleError,
)
from isokernel.kernels import Gaussian, Laplacian
from isokernel.nystrom import EIGEN_FLOOR, NystromMap, fit_nystrom, sym_eigen

from helpers import (
    damage_npz, rand_dataset, rand_sparse, sample_psi, unreadable_files,
)


class DeltaKernel:
    """k(x, y) = 1 iff the points hold the same entries; test-only."""

    name = "delta"

    def row_norm(self, values):
        return values.size

    def sparse_row_scores(self, x, Z, norms):
        # z == x iff z holds x's values on x's columns and nothing else
        at, values, offsets = x
        bounds = offsets.tolist()
        same = [(Z.T[at[lo:hi]] == values[lo:hi, None]).all(axis=0)
                & (norms == hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        return np.array(same, dtype=float).reshape(-1, Z.shape[0])

    def params(self):
        return {"name": self.name}


class TestSymEigen:
    def test_identity(self):
        vals, vecs = sym_eigen(np.eye(5))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(5), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        vals, vecs = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert vals.tolist() == [3.0, 2.0, 1.0]
        # eigenvectors are permuted signed unit vectors
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_random_symmetric_reconstruction(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 20))
        M = (A + A.T) / 2
        vals, vecs = sym_eigen(M)
        normM = np.linalg.norm(M)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - M) <= 1e-8 * normM
        assert np.linalg.norm(vecs.T @ vecs - np.eye(20)) <= 1e-8
        for k in range(20):
            assert np.linalg.norm(M @ vecs[:, k] - vals[k] * vecs[:, k]) <= (
                1e-8 * normM
            )

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ContractError):
            sym_eigen(M)


class TestFitNystrom:
    def test_identity_gram_from_delta_kernel(self):
        # identity Gram: eigenvalues all tie, so the eigenbasis is free up
        # to signed permutation; proj must be a signed permutation matrix
        # and each landmark must land on its own signed basis vector
        rng = np.random.default_rng(1)
        ds = rand_dataset(rng, 8, 4, density=1.0)
        nm = fit_nystrom(ds, b=8, r=8, kernel_fn=DeltaKernel(), seed=3)
        P = np.abs(nm.proj)
        assert np.allclose(P @ P.T, np.eye(8), atol=1e-9)
        assert np.allclose(np.sort(P, axis=1)[:, :-1], 0.0, atol=1e-9)
        hit = set()
        for z in nm.landmarks:
            xhat = nm.map_point(z)
            assert np.max(np.abs(xhat)) == pytest.approx(1.0, abs=1e-9)
            hit.add(int(np.argmax(np.abs(xhat))))
        assert hit == set(range(8))
        Xhat = nm.map_many(nm.landmarks)
        assert np.allclose(Xhat @ Xhat.T, np.eye(8), atol=1e-9)

    def test_landmark_products_match_truncated_gram(self):
        rng = np.random.default_rng(2)
        ds = rand_dataset(rng, 30, 5, density=0.9)
        kern = Laplacian(psi=16, dim=5)
        for r in (3, 10, 30):
            nm = fit_nystrom(ds, b=30, r=r, kernel_fn=kern, seed=5)
            lms = nm.landmarks
            G = np.array([[kern(a, b) for b in lms] for a in lms])
            vals, vecs = sym_eigen((G + G.T) / 2)
            k = nm.effective_r
            G_r = vecs[:, :k] @ np.diag(vals[:k]) @ vecs[:, :k].T
            Xhat = nm.map_many(lms)
            assert np.allclose(Xhat @ Xhat.T, G_r, atol=1e-8)

    def test_full_rank_reconstructs_pd_gram(self):
        rng = np.random.default_rng(3)
        ds = rand_dataset(rng, 50, 6, density=1.0)
        kern = Gaussian(gamma=0.3, dim=6)
        nm = fit_nystrom(ds, b=50, r=50, kernel_fn=kern, seed=7)
        lms = nm.landmarks
        G = np.array([[kern(a, b) for b in lms] for a in lms])
        Xhat = nm.map_many(lms)
        assert np.max(np.abs(Xhat @ Xhat.T - G)) <= 1e-6

    def test_heldout_error_non_increasing_in_r(self):
        rng = np.random.default_rng(4)
        ds = rand_dataset(rng, 120, 5, density=1.0)
        kern = Gaussian(gamma=0.25, dim=5)
        held = [p.x for p in list(ds)[60:110]]
        G = np.array([[kern(a, b) for b in held] for a in held])
        errors = []
        for r in (5, 10, 20, 50):
            nm = fit_nystrom(ds, b=50, r=r, kernel_fn=kern, seed=9)
            Xhat = nm.map_many(held)
            errors.append(np.linalg.norm(Xhat @ Xhat.T - G))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_eigen_floor_shrinks_rank(self):
        # identical landmarks make a rank-1 all-ones Gram
        rng = np.random.default_rng(5)
        base = rand_dataset(rng, 1, 3, density=1.0)
        from isokernel.dataset import Dataset

        ds = Dataset([list(base)[0]] * 6, dim=3)
        nm = fit_nystrom(ds, b=6, r=6, kernel_fn=Gaussian(0.5, 3), seed=11)
        assert nm.effective_r == 1
        assert nm.r == 6

    def test_degenerate_kernel_rejected(self):
        class ZeroKernel:
            name = "zero"

            def row_norm(self, values):
                return 0.0

            def sparse_row_scores(self, x, Z, norms):
                return np.zeros((x[2].size - 1, Z.shape[0]))

            def params(self):
                return {"name": self.name}

        rng = np.random.default_rng(6)
        ds = rand_dataset(rng, 10, 3)
        with pytest.raises(DegenerateKernelError):
            fit_nystrom(ds, b=5, r=3, kernel_fn=ZeroKernel(), seed=0)

    def test_bad_sizes_rejected(self):
        rng = np.random.default_rng(7)
        ds = rand_dataset(rng, 10, 3)
        kern = Laplacian(psi=4, dim=3)
        with pytest.raises(SampleError):
            fit_nystrom(ds, b=11, r=2, kernel_fn=kern, seed=0)
        with pytest.raises(ParameterError):
            fit_nystrom(ds, b=5, r=0, kernel_fn=kern, seed=0)
        with pytest.raises(ParameterError):
            fit_nystrom(ds, b=5, r=6, kernel_fn=kern, seed=0)


class TestNystromMap:
    def test_arbitrary_point_maps_to_finite_vector(self):
        rng = np.random.default_rng(8)
        ds = rand_dataset(rng, 25, 4, density=0.8)
        nm = fit_nystrom(ds, b=20, r=5, kernel_fn=Laplacian(8, 4), seed=1)
        from helpers import rand_sparse

        for scale in (1.0, 1e4):
            xhat = nm.map_point(rand_sparse(rng, 4, density=1.0, scale=scale))
            assert xhat.shape == (nm.effective_r,)
            assert np.all(np.isfinite(xhat))

    @pytest.mark.parametrize(
        "kern", [Laplacian(8, 4), Gaussian(0.4, 4)], ids=lambda k: k.name
    )
    def test_points_wider_than_the_fit_get_true_kernel_values(self, kern):
        rng = np.random.default_rng(12)
        ds = rand_dataset(rng, 25, 4, density=0.8)
        nm = fit_nystrom(ds, b=10, r=4, kernel_fn=kern, seed=3)
        wide = [SparseVector([1, 6], [0.5, 1.0], 6),
                SparseVector([2, 9], [-1.0, 2.0], 9)]
        for x, row in zip(wide, nm.map_many(wide)):
            K = np.array([kern(x, z) for z in nm.landmarks])
            assert np.allclose(row, nm.proj @ K, rtol=1e-12, atol=1e-12)
            assert np.allclose(nm.map_point(x), row, rtol=1e-12, atol=1e-12)

    def test_map_many_matches_map_point(self):
        rng = np.random.default_rng(9)
        ds = rand_dataset(rng, 30, 5)
        nm = fit_nystrom(ds, b=15, r=6, kernel_fn=Gaussian(0.4, 5), seed=2)
        Xhat = nm.map_many(ds)
        for row, p in zip(Xhat, ds):
            assert np.allclose(row, nm.map_point(p.x), atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = rand_dataset(rng, 30, 4)
        nm = fit_nystrom(ds, b=12, r=4, kernel_fn=Laplacian(32, 4), seed=3)
        path = tmp_path / "nm.npz"
        nm.save(path)
        clone = NystromMap.load(path)
        assert clone.b == nm.b and clone.r == nm.r
        assert np.array_equal(clone.proj, nm.proj)
        from helpers import rand_sparse

        for _ in range(20):
            x = rand_sparse(rng, 4)
            assert np.allclose(clone.map_point(x), nm.map_point(x), atol=0)

    def test_file_layout(self, tmp_path):
        # landmark maps saved by earlier releases must keep loading
        rng = np.random.default_rng(12)
        ds = rand_dataset(rng, 30, 4)
        nm = fit_nystrom(ds, b=12, r=4, kernel_fn=Laplacian(32, 4), seed=3)
        path = tmp_path / "nm.npz"
        nm.save(path)
        with np.load(path) as data:
            files = set(data.files)
            meta = json.loads(str(data["meta"]))
        assert files == {"meta", "proj", "cat_indices", "cat_values",
                         "offsets"}
        assert set(meta) == {"format_version", "kernel", "b", "r", "seed",
                             "dim"}
        assert meta["format_version"] == 1

    @pytest.mark.parametrize("key", ["offsets", "proj"])
    def test_missing_array_is_a_load_error(self, tmp_path, key):
        rng = np.random.default_rng(13)
        ds = rand_dataset(rng, 20, 4)
        nm = fit_nystrom(ds, b=8, r=3, kernel_fn=Laplacian(8, 4), seed=4)
        path = tmp_path / "nm.npz"
        nm.save(path)
        damage_npz(path, drop=key)
        with pytest.raises(LoadError, match="map file"):
            NystromMap.load(path)

    def test_unreadable_file_is_a_load_error(self, tmp_path):
        for path in unreadable_files(tmp_path):
            with pytest.raises(LoadError):
                NystromMap.load(path)

    def test_eigen_floor_value(self):
        assert EIGEN_FLOOR == 1e-10


class TestCounters:
    @pytest.mark.parametrize(
        "kern", [Laplacian(8, 4), Gaussian(0.4, 4), DeltaKernel()],
        ids=lambda k: k.name,
    )
    def test_kernel_evals_count_landmarks_per_point(self, kern):
        rng = np.random.default_rng(14)
        ds = rand_dataset(rng, 30, 4, density=1.0)
        nm = fit_nystrom(ds, b=12, r=4, kernel_fn=kern, seed=5)
        assert nm.kernel_evals == 0  # the fit's Gram is not mapping
        nm.map_many(ds)
        assert nm.kernel_evals == len(ds) * 12
        nm.map_point(rand_sparse(rng, 6))
        assert nm.kernel_evals == len(ds) * 12 + 12
        nm.map_many([])
        assert nm.kernel_evals == len(ds) * 12 + 12


class TestMemory:
    def test_landmarks_hold_their_own_packing(self):
        # a map that outlives its training set must not keep it alive
        rng = np.random.default_rng(16)
        ds = rand_dataset(rng, 40, 5)
        nm = fit_nystrom(ds, b=10, r=4, kernel_fn=Laplacian(8, 5), seed=2)
        sample = sample_psi(ds, 10, np.random.default_rng(2))
        for z, x in zip(nm.landmarks, sample, strict=True):
            assert np.array_equal(z.indices, x.indices)
            assert np.array_equal(z.values, x.values) and z.dim == x.dim
            assert not np.shares_memory(z.indices, ds.rows.indices)
            assert not np.shares_memory(z.values, ds.rows.values)

    def test_loaded_landmarks_are_views_of_the_given_arrays(self):
        # a load keeps the file's one packing, with no copy of its rows
        ds = rand_dataset(np.random.default_rng(17), 40, 5, density=1.0)
        meta, arrays = fit_nystrom(ds, b=10, r=4, kernel_fn=Laplacian(8, 5),
                                   seed=2).state()
        nm = NystromMap.from_state(meta, arrays)
        assert len(nm.landmarks) == 10
        for z in nm.landmarks:
            assert z.values.size
            assert np.shares_memory(z.values, arrays["cat_values"])
            assert np.shares_memory(z.indices, arrays["cat_indices"])

    def test_fit_and_map_peak_is_independent_of_dim(self):
        # 500 rows of 10 nonzeros at d=50000: 60 kB of sparse input, where
        # one dense n x d copy alone would be 200 MB
        rng = np.random.default_rng(15)
        d = 50_000
        ds = Dataset([
            LabeledPoint(SparseVector(
                np.sort(rng.choice(d, 10, replace=False)) + 1,
                rng.uniform(0.5, 1.5, 10), d), int(rng.choice([-1, 1])))
            for _ in range(500)
        ], dim=d)
        tracemalloc.start()
        try:
            nm = fit_nystrom(ds, b=50, r=10, kernel_fn=Laplacian(16, d),
                             seed=6)
            Xhat = nm.map_many(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Xhat.shape == (500, nm.effective_r)
        assert np.all(np.isfinite(Xhat))
        assert peak < 4 << 20
