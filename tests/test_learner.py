"""Online learners: margin rule, primal-dual agreement, cost counters."""

import json

import numpy as np
import pytest

from isokernel.dataset import SparseVector
from isokernel.errors import (
    LoadError,
    ParameterError,
    ProvenanceError,
    ShapeError,
)
from isokernel.featuremap import (
    Mapper,
    accumulate,
    dense_feature,
    kernel,
    new_weights,
)
from isokernel.kernels import Laplacian
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

from helpers import damage_npz, rand_dataset, rand_sparse, unreadable_files


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

    def test_predict_many_matches_predict(self):
        rng = np.random.default_rng(2)
        m = DualModel(Laplacian(psi=8, dim=4))
        for _ in range(25):
            m.step(rand_sparse(rng, 4), int(rng.choice([-1, 1])), 0.5)
        queries = [rand_sparse(rng, 4) for _ in range(15)]
        batch = m.predict_many(queries)
        for q, s in zip(queries, batch):
            assert m.predict(q) == pytest.approx(float(s), abs=1e-12)


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
            sd = dual.step(f, c, eta=0.55)
            assert sp == pytest.approx(sd, abs=1e-9)
        assert primal.updates == dual.updates

    def test_update_touches_at_most_t_cells_each(self):
        mapper, rng = self._mapper(t=20, psi=16)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        for k in range(1, 11):
            f = mapper.map_point(rand_sparse(rng, 5))
            m.step(f, 1, eta=0.5)
            assert np.count_nonzero(m.w) <= k * mapper.t

    def test_weights_reconstruct_from_update_log(self):
        mapper, rng = self._mapper(t=30)
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper, record_updates=True)
        for _ in range(60):
            f = mapper.map_point(rand_sparse(rng, 5))
            m.step(f, int(rng.choice([-1, 1])), eta=0.5)
        rebuilt = new_weights(mapper.t, mapper.psi)
        for f, coeff in m.update_log:
            accumulate(rebuilt, f, coeff)
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

    def test_predict_many_matches_predict(self):
        mapper, rng = self._mapper()
        m = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        F = np.stack(
            [mapper.map_point(rand_sparse(rng, 5)) for _ in range(30)]
        )
        for f in F[:10]:
            m.step(f, int(rng.choice([-1, 1])), 0.5)
        batch = m.predict_many(F)
        for f, s in zip(F, batch):
            assert m.predict(f) == pytest.approx(float(s), abs=1e-12)


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
            dual.step(f, int(rng.choice([-1, 1])), eta=0.01)
            ik_costs.append(primal.last_predict_ops)
            dual_costs.append(dual.last_predict_ops)
        assert set(ik_costs) == {mapper.t}
        assert dual_costs == list(range(50))  # one kernel eval per stored SV

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
        for p in ds.points[:30]:
            m.step(mapper.map_point(p.x), p.c, eta=0.5)
        path = tmp_path / "ik.npz"
        save_checkpoint(path, "ik-ogd-iforest", m, {"eta": 0.5})
        kind, clone, hyper = load_checkpoint(path)
        assert kind == "ik-ogd-iforest"
        assert hyper == {"eta": 0.5}
        assert clone.updates == m.updates
        for p in ds.points[30:50]:
            f = mapper.map_point(p.x)
            assert clone.predict(f) == m.predict(f)

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
        assert meta["format_version"] == FORMAT_VERSION == 2
        meta["format_version"] = 1
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ParameterError, match="format 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "drop, meta",
        [("model_w", None), ("encoder_part0_feature", None),
         (None, '{"format_version": 2}')],
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

    def test_nogd_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = rand_dataset(rng, 40, 4)
        from isokernel.nystrom import fit_nystrom

        nm = fit_nystrom(ds, b=10, r=4, kernel_fn=Laplacian(8, 4), seed=1)
        m = NOGDModel(nm.effective_r, nystrom=nm)
        for p in ds.points[:20]:
            m.step(nm.map_point(p.x), p.c, eta=0.5)
        path = tmp_path / "nogd.npz"
        save_checkpoint(path, "nogd", m, {"eta": 0.5})
        kind, clone, _ = load_checkpoint(path)
        assert kind == "nogd"
        x = rand_sparse(rng, 4)
        assert clone.predict(clone.nystrom.map_point(x)) == pytest.approx(
            m.predict(nm.map_point(x)), abs=1e-12
        )
