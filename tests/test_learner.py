"""Online learners: margin rule, primal-dual agreement, cost counters."""

import gc
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from isokernel.dataset import Dataset, LabeledPoint, SparseVector
from isokernel.errors import (
    DataError,
    LoadError,
    ParameterError,
    ProvenanceError,
    ShapeError,
)
from isokernel.featuremap import (
    Mapper, kernel, sparse_feature, write_features_csv,
)
from isokernel.kernels import Gaussian, Laplacian
from isokernel.learner import (
    FORMAT_VERSION,
    DualModel,
    FeatureMatchKernel,
    IKOGDModel,
    NOGDModel,
    load_checkpoint,
    margin_violated,
    predict_label,
    save_checkpoint,
)

from helpers import (
    as_depth_first_release,
    damage_npz,
    rand_dataset,
    rand_sparse,
    rewrite_npz,
    set_npz_entry,
    unreadable_files,
)


class TestPredictLabel:
    def test_ties_and_signs(self):
        assert predict_label(0.0) == 1
        assert predict_label(0.7) == 1
        assert predict_label(-1e-300) == -1


class TestDualModel:
    def test_empty_model_scores_zero(self):
        m = DualModel(Laplacian(psi=8, dim=4))
        assert m.predict(SparseVector([1], [1.0], 4)) == 0.0

    def test_single_support_vector(self):
        z = SparseVector([1, 2], [1.0, 2.0], 4)
        m = DualModel(Laplacian(psi=8, dim=4))
        m.step(z, 1, eta=0.5)  # cold start: score 0 -> added
        assert m.predict(z) == pytest.approx(0.5, abs=1e-15)

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(0)
        kern = Laplacian(psi=16, dim=6)
        m = DualModel(kern)
        stream = [
            (rand_sparse(rng, 6, density=0.8), int(rng.choice([-1, 1])))
            for _ in range(40)
        ]
        for x, c in stream:
            m.step(x, c, eta=0.5)
        assert len(m) >= 20
        for _ in range(30):
            x = rand_sparse(rng, 6)
            expected = sum(a * c * kern(p, x) for p, c, a in m.svs)
            assert m.predict(x) == pytest.approx(expected, abs=1e-12)

    def test_first_point_always_added(self):
        m = DualModel(Laplacian(psi=8, dim=3))
        m.step(SparseVector([1], [1.0], 3), -1, eta=0.5)
        assert len(m) == 1

    def test_exact_margin_not_added(self):
        z = SparseVector([1], [1.0], 3)
        m = DualModel(Laplacian(psi=8, dim=3))
        m.step(z, 1, eta=1.0)  # added with alpha=1
        score = m.step(z, 1, eta=1.0)  # c*score == 1 exactly: no update
        assert score == 1.0
        assert len(m) == 1

    def test_sv_count_equals_violation_count_replay(self):
        rng = np.random.default_rng(1)
        kern = Laplacian(psi=32, dim=5)
        m = DualModel(kern)
        stream = [
            (rand_sparse(rng, 5, density=0.9), int(rng.choice([-1, 1])))
            for _ in range(200)
        ]
        for x, c in stream:
            m.step(x, c, eta=0.5)
        # independent replay with scalar kernel sums
        svs = []
        violations = 0
        for x, c in stream:
            score = sum(a * cc * kern(p, x) for p, cc, a in svs)
            if c * score < 1.0:
                violations += 1
                svs.append((x, c, 0.5))
        assert len(m) == violations

    def test_empty_feature_match_model_rejects_a_wrong_length_feature(self):
        # an empty support set still scores through the kernel's check
        m = DualModel(FeatureMatchKernel(10))
        short, full = (sparse_feature(np.zeros(t, dtype=np.int32), 4)
                       for t in (9, 10))
        with pytest.raises(ProvenanceError):
            m.predict(short)
        assert m.predict(full) == 0.0


def scalar_score(model, x):
    """sum_i alpha_i c_i k(x, sv_i) through the scalar kernel."""
    return sum(a * c * model.kernel(x, p) for p, c, a in model.svs)


KERNELS = [Laplacian(8, 4), Gaussian(0.4, 4)]


class TestWidePoints:
    """Points with entries past the kernel's dim, or past the widest
    support vector, score every entry."""

    def test_wide_query_counts_its_outside_entries(self):
        m = DualModel(Laplacian(8, 4))
        m.step(SparseVector([1, 2], [0.5, 1.0], 4), 1, eta=1.0)
        x = SparseVector([1, 6], [0.5, 1.0], 6)
        # l1 = 0 + 1 (column 2) + 1 (column 6): k = 8^(-2/4)
        assert m.predict(x) == pytest.approx(8 ** -0.5, rel=1e-14)

    @pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.name)
    def test_wide_queries_match_scalar_sums(self, kern):
        rng = np.random.default_rng(21)
        m = DualModel(kern)
        for _ in range(30):
            m.step(rand_sparse(rng, 4), int(rng.choice([-1, 1])), 0.5)
        wide = [rand_sparse(rng, d, density=0.7) for d in (2, 4, 6, 9, 9)]
        wide.append(SparseVector([1, 6], [0.5, 1.0], 6))
        for x, s in zip(wide, m.predict_many(wide)):
            want = scalar_score(m, x)
            assert m.predict(x) == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert s == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.name)
    def test_wide_support_vector_widens_the_store(self, kern):
        rng = np.random.default_rng(22)
        m = DualModel(kern)
        m.step(SparseVector([1, 2], [0.5, 1.0], 4), 1, eta=0.5)
        m.step(SparseVector([1, 6], [0.5, 1.0], 6), -1, eta=0.5)
        assert len(m) == 2
        for _ in range(20):
            m.step(rand_sparse(rng, 8, density=0.6),
                   int(rng.choice([-1, 1])), 0.5)
        queries = [rand_sparse(rng, d, density=0.6) for d in (3, 6, 8, 12)]
        for x, s in zip(queries, m.predict_many(queries)):
            want = scalar_score(m, x)
            assert m.predict(x) == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert s == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_wide_support_vectors_survive_a_checkpoint(self, tmp_path):
        m = DualModel(Laplacian(8, 4))
        m.step(SparseVector([1, 2], [0.5, 1.0], 4), 1, eta=0.5)
        m.step(SparseVector([1, 6], [0.5, 1.0], 6), -1, eta=0.5)
        path = tmp_path / "ogd.npz"
        save_checkpoint(path, "ogd", m, {})
        _, clone, _ = load_checkpoint(path)
        x = SparseVector([3, 6], [1.0, -2.0], 7)
        assert clone.predict(x) == pytest.approx(m.predict(x), rel=1e-14)


class TestDualMemory:
    def test_store_peak_follows_the_columns_in_use_not_dim(self):
        # 300 support vectors at d=50000 whose supports come from a pool
        # of 200 attributes: a d-wide store of them would take about 200 MB
        rng = np.random.default_rng(24)
        d = 50_000
        pool = rng.choice(d, 200, replace=False) + 1
        points = [
            SparseVector(np.sort(rng.choice(pool, 10, replace=False)),
                         rng.uniform(0.5, 1.5, 10), d)
            for _ in range(300)
        ]
        m = DualModel(Laplacian(16, d))
        tracemalloc.start()
        try:
            # every k(x, sv) is near 1, so alternating labels keep each
            # score near 0 and every step adds a support vector
            for i, x in enumerate(points):
                m.step(x, 1 if i % 2 else -1, eta=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m) == 300
        assert peak < 4 << 20

    def test_support_vectors_keep_no_view_of_their_block(self):
        # a streamed run would otherwise hold every block that gave one
        block = Dataset([LabeledPoint(SparseVector([1, 3], [0.5, 1.0], 4), 1),
                         LabeledPoint(SparseVector([2], [2.0], 4), -1)])
        alive = weakref.ref(block.rows.values)
        m = DualModel(Laplacian(8, 4))
        m.train_pass(m.encode(block), block.labels(), eta=0.5)
        m.predict(SparseVector([4], [1.0], 4))  # past the block's last point
        sv = [(x.indices.tolist(), x.values.tolist(), c) for x, c, _ in m.svs]
        del block
        assert alive() is None
        assert sv == [([1, 3], [0.5, 1.0], 1), ([2], [2.0], -1)]


class TestIKOGD:
    def _mapper(self, seed=3, t=50, psi=8):
        rng = np.random.default_rng(seed)
        ds = rand_dataset(rng, 150, 5, density=0.9)
        return Mapper.fit(ds, psi=psi, t=t, scheme="anne", seed=seed), rng

    def test_cold_start_self_prediction_is_eta(self):
        mapper, rng = self._mapper()
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        f = mapper.map_point(rand_sparse(rng, 5))
        score = m.step(f, 1, eta=0.5)
        assert score == 0.0
        assert m.predict(f) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_stream_equivalence_with_dual_twin(self, scheme):
        # eta=0.55 keeps c*score off the exact margin boundary 1.0 (scores
        # live on the lattice eta*m/t): at an exact hit the two summation
        # orders could legitimately split the strict-inequality decision
        rng = np.random.default_rng(4)
        ds = rand_dataset(rng, 200, 6, density=0.8)
        mapper = Mapper.fit(ds, psi=16, t=40, scheme=scheme, seed=5)
        primal = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        dual = DualModel(FeatureMatchKernel(mapper.t))
        for _ in range(300):
            f = mapper.map_point(rand_sparse(rng, 6, density=0.7))
            c = int(rng.choice([-1, 1]))
            sp = primal.step(f, c, eta=0.55)
            sd = dual.step(sparse_feature(f, mapper.psi), c, eta=0.55)
            assert sp == pytest.approx(sd, abs=1e-9)
        assert primal.updates == dual.updates

    def test_update_touches_at_most_t_cells_each(self):
        mapper, rng = self._mapper(t=20, psi=16)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        for k in range(1, 11):
            f = mapper.map_point(rand_sparse(rng, 5))
            m.step(f, 1, eta=0.5)
            assert np.count_nonzero(m.w) <= k * mapper.t

    def test_weights_reconstruct_from_update_log(self, monkeypatch):
        mapper, rng = self._mapper(t=30)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        update_log = []
        update = IKOGDModel._update

        def spy_update(self, f, c, eta):
            update_log.append((f.copy(), eta * c))
            update(self, f, c, eta)

        monkeypatch.setattr(IKOGDModel, "_update", spy_update)
        for _ in range(60):
            f = mapper.map_point(rand_sparse(rng, 5))
            m.step(f, int(rng.choice([-1, 1])), eta=0.5)
        rebuilt = np.zeros((mapper.t, mapper.psi))
        for f, coeff in update_log:
            rebuilt[np.arange(mapper.t), f] += coeff
        assert np.max(np.abs(rebuilt - m.w)) <= 1e-12

    def test_score_is_normalized_dot(self):
        mapper, rng = self._mapper(t=25)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        f1 = mapper.map_point(rand_sparse(rng, 5))
        m.step(f1, 1, eta=0.5)
        f2 = mapper.map_point(rand_sparse(rng, 5))
        assert m.predict(f2) == pytest.approx(0.5 * kernel(f1, f2), abs=1e-12)

    def test_wrong_length_feature_rejected(self):
        m = IKOGDModel(10, 4)
        with pytest.raises(ProvenanceError):
            m.predict(np.zeros(9, dtype=np.int32))

    def test_non_integer_feature_rejected(self, tmp_path):
        # cell ids read back from ``transform``'s CSV by np.loadtxt are
        # floats, which numpy would not take as indices; bools it would
        # read as cells 0 and 1
        F = np.array([[0, 1, 2], [3, 0, 1]], dtype=np.int32)
        write_features_csv(tmp_path / "f.csv", F)
        floats = np.loadtxt(tmp_path / "f.csv", delimiter=",", ndmin=2)
        m = IKOGDModel(3, 4)
        for bad in (floats, floats.astype(bool)):
            with pytest.raises(ProvenanceError, match="integer cell ids"):
                m.predict_many(bad)
            with pytest.raises(ProvenanceError, match="integer cell ids"):
                m.step(bad[0], 1, eta=0.5)
        assert not m.w.any() and m.updates == 0


class TestNOGD:
    def test_cold_start(self):
        m = NOGDModel(4)
        score = m.step(np.array([1.0, 0.0, 0.0, 0.0]), 1, eta=0.5)
        assert score == 0.0
        assert m.updates == 1

    def test_orthonormal_stream_accumulates_signed_features(self):
        m = NOGDModel(3)
        basis = np.eye(3)
        labels = [1, -1, 1]
        for e, c in zip(basis, labels):
            m.step(e, c, eta=0.5)
        assert np.allclose(m.w, 0.5 * np.array(labels) @ basis)

    def test_matches_hand_rolled_linear_sgd(self):
        rng = np.random.default_rng(6)
        m = NOGDModel(8)
        w_ref = np.zeros(8)
        for _ in range(100):
            xhat = rng.standard_normal(8)
            c = int(rng.choice([-1, 1]))
            score = m.step(xhat, c, eta=0.5)
            ref_score = float(w_ref @ xhat)
            assert score == pytest.approx(ref_score, abs=1e-12)
            if c * ref_score < 1.0:
                w_ref = w_ref + 0.5 * c * xhat
        assert np.allclose(m.w, w_ref, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        m = NOGDModel(4)
        with pytest.raises(ShapeError):
            m.predict(np.zeros(5))


def trained(kind):
    """A model of ``kind`` after 25 steps, 15 queries for it, and an input
    of the wrong width with the error both scoring paths raise for it:
    None for a dual model over raw points, which scores a wider point.
    ``ogd-rows`` queries a Laplacian dual model with a block as the
    protocol encodes it: a ``Rows`` selection of the dataset's packing."""
    rng = np.random.default_rng(2)
    if kind in ("ogd", "ogd-gaussian", "ogd-rows"):
        m = DualModel(Gaussian(0.4, 4) if kind == "ogd-gaussian"
                      else Laplacian(psi=8, dim=4))
        points = [rand_sparse(rng, 4) for _ in range(40)]
        bad, error = SparseVector([1, 6], [0.5, 1.0], 6), None
    elif kind == "nogd":
        m = NOGDModel(6)
        points = rng.standard_normal((40, 6))
        bad, error = np.zeros(7), ShapeError
    else:
        ds = rand_dataset(rng, 150, 5, density=0.9)
        mapper = Mapper.fit(ds, psi=8, t=50, scheme="anne", seed=3)
        points = np.stack(
            [mapper.map_point(rand_sparse(rng, 5)) for _ in range(40)]
        )
        m = (IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
             if kind == "ik-ogd" else DualModel(FeatureMatchKernel(mapper.t)))
        bad, error = np.zeros(mapper.t - 1, dtype=np.int32), ProvenanceError
        if kind == "ogd-feature-match":
            points = [sparse_feature(f, mapper.psi) for f in points]
            bad = sparse_feature(bad, mapper.psi)
    for x in points[:25]:
        m.step(x, int(rng.choice([-1, 1])), 0.5)
    if kind == "ogd-rows":
        ds = Dataset([LabeledPoint(x, 1) for x in points], dim=4)
        rows = m.encode(ds.subset([39, 27, 31, 27, 25, 36]))
        assert rows.ids is not None  # a selection, read through its ids
        return m, rows, bad, error
    return m, points[25:], bad, error


class TestScorer:
    """A point scores as its row in a batch: one scorer per model."""

    @pytest.mark.parametrize(
        "kind", ["ogd", "ogd-gaussian", "ogd-rows", "ogd-feature-match",
                 "ik-ogd", "nogd"])
    def test_predict_many_matches_predict(self, kind):
        m, queries, bad, error = trained(kind)
        scores = m.predict_many(queries)
        assert [m.predict(q) for q in queries] == scores.tolist()
        assert type(m.predict(queries[0])) is float
        assert scores.tobytes() == m.predict_many(list(queries)).tobytes()
        costs = []
        for score in (m.predict, lambda q: m.predict_many([q])):
            before = m.total_ops
            score(queries[0])
            costs.append((m.last_predict_ops, m.total_ops - before))
        assert costs[0] == costs[1] and costs[0][0] > 0
        if error is None:
            assert m.predict(bad) == m.predict_many([bad])[0]
        else:
            with pytest.raises(error):
                m.predict(bad)
            with pytest.raises(error):
                m.predict_many([bad])


class TestCostCounters:
    def test_ik_prediction_cost_constant_dual_cost_grows(self):
        rng = np.random.default_rng(7)
        ds = rand_dataset(rng, 100, 4, density=1.0)
        mapper = Mapper.fit(ds, psi=8, t=16, scheme="anne", seed=8)
        primal = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        dual = DualModel(FeatureMatchKernel(mapper.t))
        ik_costs, dual_costs = [], []
        for i in range(50):
            f = mapper.map_point(rand_sparse(rng, 4))
            # far-apart random labels keep scores small: every step updates
            primal.step(f, int(rng.choice([-1, 1])), eta=0.01)
            dual.step(sparse_feature(f, mapper.psi),
                      int(rng.choice([-1, 1])), eta=0.01)
            ik_costs.append(primal.last_predict_ops)
            dual_costs.append(dual.last_predict_ops)
        assert set(ik_costs) == {mapper.t}
        assert dual_costs == list(range(50))  # one kernel eval per stored SV

    @pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.name)
    def test_dual_prediction_reads_every_support_vector(self, kern):
        rng = np.random.default_rng(23)
        m = DualModel(kern)
        for _ in range(40):
            m.step(rand_sparse(rng, 4), int(rng.choice([-1, 1])), 0.5)
            m.predict(rand_sparse(rng, 4))
            assert m.last_predict_ops == len(m)
        m.predict_many([rand_sparse(rng, 4) for _ in range(5)])
        assert m.last_predict_ops == len(m)

    def test_margin_semantics(self):
        rng = np.random.default_rng(8)
        m = NOGDModel(5)
        for _ in range(200):
            xhat = rng.standard_normal(5)
            c = int(rng.choice([-1, 1]))
            before = m.updates
            score = m.step(xhat, c, eta=0.3)
            updated = m.updates == before + 1
            assert updated == margin_violated(score, c)


class TestCheckpoints:
    def test_ik_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = rand_dataset(rng, 80, 4)
        mapper = Mapper.fit(ds, psi=8, t=12, scheme="iforest", seed=10)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        for p in list(ds)[:30]:
            m.step(mapper.map_point(p.x), p.c, eta=0.5)
        path = tmp_path / "ik.npz"
        save_checkpoint(path, "ik-ogd-iforest", m, {"eta": 0.5})
        kind, clone, hyper = load_checkpoint(path)
        assert kind == "ik-ogd-iforest"
        assert hyper == {"eta": 0.5}
        assert clone.updates == m.updates
        for p in list(ds)[30:50]:
            f = mapper.map_point(p.x)
            assert clone.predict(f) == m.predict(f)

    @pytest.mark.parametrize("cut", [10, "half"])
    def test_a_truncated_file_is_a_load_error_and_is_closed(self, tmp_path,
                                                            cut):
        # numpy leaves a path it opened unclosed when the zip directory is
        # unreadable; ``load_npz`` opens the file itself
        rng = np.random.default_rng(9)
        mapper = Mapper.fit(rand_dataset(rng, 80, 4), psi=8, t=12,
                            scheme="iforest", seed=10)
        mapper.save(tmp_path / "map.npz")
        save_checkpoint(tmp_path / "ik.npz", "ik-ogd-iforest",
                        IKOGDModel(mapper.t, mapper.psi, mapper=mapper), {})
        for name, load in [("map.npz", Mapper.load),
                           ("ik.npz", load_checkpoint)]:
            path = tmp_path / name
            whole = path.read_bytes()
            path.write_bytes(whole[:len(whole) // 2 if cut == "half" else cut])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(LoadError):
                    load(path)
                gc.collect()
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]

    def test_restored_ik_model_steps_on_its_restored_weights(self, tmp_path):
        # the model reads and updates w through a flat view, which must be
        # a view of the w the checkpoint restored, not of the one it built
        rng = np.random.default_rng(11)
        ds = rand_dataset(rng, 80, 4)
        mapper = Mapper.fit(ds, psi=8, t=12, scheme="anne", seed=12)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        for p in list(ds)[:30]:
            m.step(mapper.map_point(p.x), p.c, eta=0.5)
        path = tmp_path / "ik.npz"
        save_checkpoint(path, "ik-ogd-anne", m, {"eta": 0.5})
        _, clone, _ = load_checkpoint(path)
        for p in list(ds)[30:]:
            f = mapper.map_point(p.x)
            assert clone.step(f, p.c, eta=0.5) == m.step(f, p.c, eta=0.5)
        assert clone.updates == m.updates > 0
        assert np.array_equal(clone.w, m.w)
        F = mapper.map_many(ds)
        assert np.array_equal(clone.predict_many(F), m.predict_many(F))

    def test_weights_that_do_not_fit_the_map_are_a_load_error(self, tmp_path):
        rng = np.random.default_rng(13)
        mapper = Mapper.fit(rand_dataset(rng, 30, 4), psi=4, t=3,
                            scheme="anne", seed=1)
        path = tmp_path / "ik.npz"
        save_checkpoint(path, "ik-ogd-anne",
                        IKOGDModel(mapper.t, mapper.psi, mapper=mapper), {})
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["model_w"] = arrays["model_w"][:, :3]
        np.savez_compressed(path, **arrays)
        with pytest.raises(LoadError, match="for a map of t=3, psi=4"):
            load_checkpoint(path)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_a_map_of_more_cells_than_psi_is_a_load_error(self, tmp_path,
                                                          scheme):
        # weights of shape (t, psi) fit the edited psi, so the checkpoint
        # loaded and its predict read cell ids past psi
        ds = rand_dataset(np.random.default_rng(13), 40, 4, density=1.0)
        mapper = Mapper.fit(ds, psi=16, t=3, scheme=scheme, seed=1)
        assert mapper.cell_counts() == [16, 16, 16]
        path = tmp_path / "ik.npz"
        save_checkpoint(path, f"ik-ogd-{scheme}",
                        IKOGDModel(mapper.t, mapper.psi, mapper=mapper), {})

        def edit(meta, arrays):
            meta["encoder"]["psi"] = 4
            arrays["model_w"] = np.zeros((3, 4))

        rewrite_npz(path, edit)
        with pytest.raises(LoadError, match="more than psi=4 cells"):
            load_checkpoint(path)

    def test_nogd_weights_that_do_not_fit_the_map_are_a_load_error(
        self, tmp_path
    ):
        # they would first fail at a predict, with a ShapeError
        from isokernel.nystrom import fit_nystrom

        ds = rand_dataset(np.random.default_rng(13), 40, 4)
        nm = fit_nystrom(ds, b=12, r=10, kernel_fn=Laplacian(8, 4), seed=1)
        path = tmp_path / "nogd.npz"
        save_checkpoint(path, "nogd", NOGDModel(nm.effective_r, nystrom=nm),
                        {})
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["model_w"] = arrays["model_w"][:3]
        np.savez_compressed(path, **arrays)
        with pytest.raises(
            LoadError, match=f"for a map of effective_r={nm.effective_r}"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind, scheme", [
        ("nogd", "iforest"), ("ogd", "anne"), ("ik-ogd-iforest", None),
        ("ik-ogd-anne", "iforest"),
    ])
    def test_kind_must_name_the_model(self, tmp_path, kind, scheme):
        # each would write a checkpoint that fails to load, or loads under
        # the wrong learner
        mapper = None
        if scheme is not None:
            mapper = Mapper.fit(rand_dataset(np.random.default_rng(14), 30, 4),
                                psi=4, t=3, scheme=scheme, seed=1)
        path = tmp_path / "ik.npz"
        with pytest.raises(ParameterError, match=f"not a '{kind}' learner"):
            save_checkpoint(path, kind, IKOGDModel(3, 4, mapper=mapper), {})
        assert not path.exists()

    def test_a_dual_model_whose_kernel_cannot_be_rebuilt_is_not_saved(
            self, tmp_path):
        m, _, _, _ = trained("ogd-feature-match")
        path = tmp_path / "ogd.npz"
        with pytest.raises(ParameterError, match="cannot be checkpointed"):
            save_checkpoint(path, "ogd", m, {})
        assert not path.exists()

    def test_ogd_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        m = DualModel(Laplacian(psi=16, dim=5))
        for _ in range(20):
            m.step(rand_sparse(rng, 5), int(rng.choice([-1, 1])), 0.5)
        path = tmp_path / "ogd.npz"
        save_checkpoint(path, "ogd", m, {"eta": 0.5})
        kind, clone, _ = load_checkpoint(path)
        assert kind == "ogd"
        assert len(clone) == len(m)
        x = rand_sparse(rng, 5)
        assert clone.predict(x) == pytest.approx(m.predict(x), abs=1e-12)

    def test_older_format_rejected(self, tmp_path):
        m = DualModel(Laplacian(psi=16, dim=3))
        path = tmp_path / "ogd.npz"
        save_checkpoint(path, "ogd", m, {})
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        assert meta["format_version"] == FORMAT_VERSION == 4
        meta["format_version"] = 3
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ParameterError, match="format 3"):
            load_checkpoint(path)

    def test_depth_first_format_2_checkpoint_is_rejected(self, tmp_path):
        # its weights index the depth-first leaf ids of its trees, not the
        # node-order ids the same splits give now
        rng = np.random.default_rng(11)
        mapper = Mapper.fit(rand_dataset(rng, 30, 4), psi=4, t=3,
                            scheme="iforest", seed=1)
        path = tmp_path / "ik.npz"
        save_checkpoint(path, "ik-ogd-iforest",
                        IKOGDModel(mapper.t, mapper.psi, mapper=mapper), {})
        as_depth_first_release(path, 2)
        with pytest.raises(DataError, match="unsupported checkpoint format 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "drop, meta",
        [("model_w", None), ("encoder_feature", None),
         (None, '{"format_version": 4}')],
    )
    def test_damaged_checkpoint_is_a_load_error(self, tmp_path, drop, meta):
        rng = np.random.default_rng(12)
        mapper = Mapper.fit(rand_dataset(rng, 30, 4), psi=4, t=3,
                            scheme="iforest", seed=1)
        path = tmp_path / "ik.npz"
        save_checkpoint(path, "ik-ogd-iforest",
                        IKOGDModel(mapper.t, mapper.psi, mapper=mapper), {})
        damage_npz(path, drop=drop, meta=meta)
        with pytest.raises(LoadError, match="checkpoint file"):
            load_checkpoint(path)

    def test_unreadable_file_is_a_load_error(self, tmp_path):
        for path in unreadable_files(tmp_path):
            with pytest.raises(LoadError):
                load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("cs", 2), ("cs", 0), ("cs", -3), ("alphas", np.nan),
        ("alphas", np.inf),
    ])
    def test_bad_dual_arrays_are_a_load_error(self, tmp_path, key, value):
        # a label of 2 used to load and read back from svs as (2, 0.5); a
        # NaN alpha made every score NaN, which predicts -1
        m = DualModel(Laplacian(8, 4))
        m.step(SparseVector([1, 2], [0.5, 1.0], 4), 1, eta=0.5)
        m.step(SparseVector([3], [1.0], 4), -1, eta=0.5)
        assert len(m) == 2
        path = tmp_path / "ogd.npz"
        save_checkpoint(path, "ogd", m, {})
        set_npz_entry(path, f"model_{key}", value)
        with pytest.raises(LoadError, match=f"array '{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["ik-ogd-iforest", "nogd"])
    def test_non_finite_weights_are_a_load_error(self, tmp_path, kind,
                                                 value):
        rng = np.random.default_rng(12)
        ds = rand_dataset(rng, 30, 4)
        if kind == "nogd":
            from isokernel.nystrom import fit_nystrom

            nm = fit_nystrom(ds, b=10, r=4, kernel_fn=Laplacian(8, 4), seed=1)
            m = NOGDModel(nm.effective_r, nystrom=nm)
        else:
            mapper = Mapper.fit(ds, psi=4, t=3, scheme="iforest", seed=1)
            m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        path = tmp_path / "model.npz"
        save_checkpoint(path, kind, m, {})
        set_npz_entry(path, "model_w", value)
        with pytest.raises(LoadError, match="array 'w'"):
            load_checkpoint(path)

    def test_nogd_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = rand_dataset(rng, 40, 4)
        from isokernel.nystrom import fit_nystrom

        nm = fit_nystrom(ds, b=10, r=4, kernel_fn=Laplacian(8, 4), seed=1)
        m = NOGDModel(nm.effective_r, nystrom=nm)
        for p in list(ds)[:20]:
            m.step(nm.map_point(p.x), p.c, eta=0.5)
        path = tmp_path / "nogd.npz"
        save_checkpoint(path, "nogd", m, {"eta": 0.5})
        kind, clone, _ = load_checkpoint(path)
        assert kind == "nogd"
        x = rand_sparse(rng, 4)
        assert clone.predict(clone.encoder.map_point(x)) == pytest.approx(
            m.predict(nm.map_point(x)), abs=1e-12
        )
