"""Protocol machinery: psi selection, online and batch runs, sweeps."""

import csv
import hashlib
import json
import time

import numpy as np
import pytest

import isokernel.eval as evalmod
from isokernel.dataset import Dataset, kfold, split_head
from isokernel.errors import ConfigError, ParameterError, SampleError
from isokernel.eval import (
    LEARNERS,
    ProtocolConfig,
    cv_select_psi,
    make_two_gaussians,
    run_batch,
    run_online,
    sweep,
    write_blocks_csv,
    write_runs_csv,
)
from isokernel.featuremap import Mapper
from isokernel.kernels import Laplacian
from isokernel.learner import DualModel, IKOGDModel, NOGDModel, predict_label
from isokernel.nystrom import fit_nystrom


def _strip_times(metrics):
    d = metrics.to_dict()
    d.pop("train_time")
    d.pop("test_time")
    return d


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = ProtocolConfig(learner="ik-ogd-anne")
        assert cfg.eta == 0.5
        assert cfg.t == 100
        assert cfg.b == 100
        assert cfg.r == 20
        assert cfg.folds == 5
        assert cfg.block_size == 1000
        assert cfg.psi_grid == tuple(2**m for m in range(2, 13))

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(learner="perceptron")
        with pytest.raises(ConfigError):
            ProtocolConfig(learner="ogd", psi_grid=())
        with pytest.raises(ConfigError):
            ProtocolConfig(learner="ogd", block_size=0)

    @pytest.mark.parametrize("key", ["train_size", "cv_max_points"])
    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_sizes_below_one(self, key, size):
        # a negative size would slice from the end of the stream
        with pytest.raises(ConfigError, match=key):
            ProtocolConfig(learner="ogd", **{key: size})

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_step_sizes_that_are_not_finite_and_positive(self, eta):
        # eta < 0 climbs the hinge loss, and eta = 0 never moves the model
        with pytest.raises(ConfigError, match="eta"):
            ProtocolConfig(learner="ik-ogd-anne", eta=eta)

    @pytest.mark.parametrize("key, value", [
        ("t", 1.5), ("b", "x"), ("r", 2.0), ("block_size", 2.5),
        ("folds", "x"), ("seed", True), ("train_size", 10.5),
        ("cv_max_points", "100"), ("eta", "x"),
    ])
    def test_rejects_values_of_the_wrong_type(self, key, value):
        # a float t fails in range(t) deep inside the fit, a string folds
        # in a comparison, and a bool passes for the integer 0 or 1
        with pytest.raises(ConfigError, match=key):
            ProtocolConfig(learner="ik-ogd-anne", **{key: value})

    @pytest.mark.parametrize("psi", [64.5, 8.0, True, "8", None])
    def test_rejects_a_psi_grid_entry_that_is_not_an_integer(self, psi):
        # a float psi reached numpy's sampler for the IK learners and ran
        # the baselines at psi 64.5; a string failed in the grid's sort
        with pytest.raises(ConfigError, match="psi grid"):
            ProtocolConfig(learner="ogd", psi_grid=(16, psi))

    @pytest.mark.parametrize("folds", [1, 0, -3])
    def test_rejects_too_few_folds_to_select_psi(self, folds):
        # kfold's own error named its parameter k, not the folds field
        with pytest.raises(ConfigError, match="folds must be >= 2"):
            ProtocolConfig(learner="ogd", psi_grid=(4, 8), folds=folds)
        # a grid of one psi, however repeated, runs no folds
        cfg = ProtocolConfig(learner="ogd", psi_grid=(4, 4), folds=folds)
        assert cfg.folds == folds

    def test_rejects_a_negative_seed(self):
        # numpy's generators raise a bare ValueError for one
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ProtocolConfig(learner="ogd", seed=-1)

    @pytest.mark.parametrize("value", [1, "yes", None])
    def test_rejects_a_normalize_flag_that_is_not_a_bool(self, value):
        with pytest.raises(ConfigError, match="normalize"):
            ProtocolConfig(learner="ogd", normalize=value)

    def test_resolved_includes_every_field(self):
        cfg = ProtocolConfig(learner="nogd")
        resolved = cfg.resolved()
        for key in (
            "learner", "eta", "t", "b", "r", "psi_grid", "block_size",
            "folds", "seed", "train_size", "cv_max_points", "normalize",
        ):
            assert key in resolved


class TestCvSelectPsi:
    def test_single_element_grid_is_forced(self):
        ds = make_two_gaussians(20, 4, 3.0, seed=0)
        cfg = ProtocolConfig(learner="ik-ogd-anne", psi_grid=(37,))
        assert cv_select_psi(ds, cfg) == 37

    def test_separable_data_reaches_perfect_validation(self):
        ds = make_two_gaussians(150, 4, 12.0, seed=1)
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(2, 8), t=50, seed=5
        )
        psi = cv_select_psi(ds, cfg)
        assert psi in (2, 8)
        # re-run the folds at the selected psi: validation accuracy is 1.0
        folds = kfold(ds, cfg.folds, (cfg.seed, 223))
        seeds = [(cfg.seed, 227, i) for i in range(len(folds))]
        [row] = evalmod._fold_scores(folds, [psi], cfg, seeds)
        accs = [evalmod._fold_accuracy(s, fv)
                for s, (_, fv) in zip(row, folds)]
        assert np.mean(accs) == 1.0

    @pytest.mark.parametrize("learner", LEARNERS)
    def test_each_fold_model_is_counted_once(self, learner, monkeypatch):
        # every learner's CV scores one model per (psi, fold), and the
        # accuracy of each is taken once, whether the models are fitted
        # one by one or trained in one pass
        ds = make_two_gaussians(90, 4, 3.0, seed=4)
        cfg = ProtocolConfig(learner=learner, psi_grid=(4, 16), folds=3,
                             t=20, b=20, r=10, seed=3)
        unwrapped = cv_select_psi(ds, cfg)
        calls = []
        fold_accuracy = evalmod._fold_accuracy

        def counted(*args):
            calls.append(args)
            return fold_accuracy(*args)

        monkeypatch.setattr(evalmod, "_fold_accuracy", counted)
        assert cv_select_psi(ds, cfg) == unwrapped
        assert len(calls) == 6

    @pytest.mark.parametrize("scheme", ["anne", "iforest"])
    def test_matches_exhaustive_replay_oracle(self, scheme):
        ds = make_two_gaussians(120, 5, 2.0, seed=7)
        cfg = ProtocolConfig(
            learner=f"ik-ogd-{scheme}", psi_grid=(4, 16), t=30, seed=11
        )
        chosen = cv_select_psi(ds, cfg)

        # independent replay via public APIs only
        folds = kfold(ds, cfg.folds, (cfg.seed, 223))
        means = {}
        for psi in (4, 16):
            accs = []
            for i, (ft, fv) in enumerate(folds):
                mapper = Mapper.fit(
                    ft, psi, cfg.t, scheme, (cfg.seed, 227, i)
                )
                model = IKOGDModel(cfg.t, psi, mapper=mapper)
                for f, c in zip(mapper.map_many(ft), ft.labels()):
                    model.step(f, int(c), cfg.eta)
                scores = model.predict_many(mapper.map_many(fv))
                preds = [predict_label(s) for s in scores]
                accs.append(float(np.mean(preds == fv.labels())))
            means[psi] = np.mean(accs)
        expected = 4 if means[4] >= means[16] else 16
        assert chosen == expected

    def test_ogd_matches_exhaustive_replay_oracle(self):
        # dual OGD trains every psi and fold in one pass; the replay fits a
        # model per psi and fold, from an unsorted grid with a repeat
        ds = make_two_gaussians(120, 5, 2.0, seed=7)
        cfg = ProtocolConfig(learner="ogd", psi_grid=(64, 2, 16, 2), eta=1.5,
                             seed=11)
        chosen = cv_select_psi(ds, cfg)

        folds = kfold(ds, cfg.folds, (cfg.seed, 223))
        means = {}
        for psi in (2, 16, 64):
            accs = []
            for ft, fv in folds:
                model = DualModel(Laplacian(psi, ft.dim))
                for p in ft:
                    model.step(p.x, int(p.c), cfg.eta)
                scores = model.predict_many(fv.rows)
                preds = [predict_label(s) for s in scores]
                accs.append(float(np.mean(preds == fv.labels())))
            means[psi] = np.mean(accs)
        assert chosen == max(means, key=means.get)  # the first, smallest max

    def test_nogd_matches_exhaustive_replay_oracle(self):
        # NOGD takes each fold's landmark distances once for every psi; the
        # replay fits a map per psi and fold, from an unsorted grid with a
        # repeat, and the largest psi wins
        ds = make_two_gaussians(120, 5, 3.0, seed=7)
        cfg = ProtocolConfig(learner="nogd", psi_grid=(64, 2, 16, 2), b=30,
                             r=10, eta=1.5, seed=11)
        chosen = cv_select_psi(ds, cfg)

        folds = kfold(ds, cfg.folds, (cfg.seed, 223))
        means = {}
        for psi in (2, 16, 64):
            accs = []
            for i, (ft, fv) in enumerate(folds):
                nm = fit_nystrom(ft, cfg.b, cfg.r, Laplacian(psi, ft.dim),
                                 (cfg.seed, 227, i))
                model = NOGDModel(nm.effective_r, nystrom=nm)
                for f, c in zip(nm.map_many(ft), ft.labels()):
                    model.step(f, int(c), cfg.eta)
                scores = model.predict_many(nm.map_many(fv))
                preds = [predict_label(s) for s in scores]
                accs.append(float(np.mean(preds == fv.labels())))
            means[psi] = np.mean(accs)
        assert chosen == max(means, key=means.get) == 64

    # 22 points in 5 folds: fold 0 validates on 5 and trains on 17, the
    # others train on 18; the fit's checks run on fold 0 first
    @pytest.mark.parametrize("b, r, error, message", [
        (18, 5, SampleError, "cannot sample 18 landmarks from 17"),
        (18, 19, SampleError, "cannot sample 18 landmarks from 17"),
        (17, 18, ParameterError,
         "rank must satisfy 1 <= r <= b, got r=18 b=17"),
    ])
    def test_nogd_fit_errors_are_those_of_fold_0(self, b, r, error, message):
        ds = make_two_gaussians(22, 3, 2.0, seed=5)
        cfg = ProtocolConfig(learner="nogd", psi_grid=(4, 16), b=b, r=r)
        with pytest.raises(error) as caught:
            cv_select_psi(ds, cfg)
        assert str(caught.value) == message

    def test_oversized_psi_skipped_with_warning(self):
        ds = make_two_gaussians(30, 3, 8.0, seed=2)
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(4, 4096), t=10, seed=3
        )
        with pytest.warns(UserWarning, match="skipped"):
            assert cv_select_psi(ds, cfg) == 4

    def test_all_skipped_is_config_error(self):
        ds = make_two_gaussians(30, 3, 8.0, seed=2)
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(512, 4096), t=10
        )
        with pytest.raises(ConfigError):
            with pytest.warns(UserWarning):
                cv_select_psi(ds, cfg)

    def test_too_few_points_rejected(self):
        ds = make_two_gaussians(3, 3, 8.0, seed=2)
        cfg = ProtocolConfig(learner="ogd", psi_grid=(4, 8))
        with pytest.raises(ConfigError):
            cv_select_psi(ds, cfg)

    def test_cv_subsample_cap_respected(self):
        ds = make_two_gaussians(400, 4, 6.0, seed=9)
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(4, 16), t=20, seed=1,
            cv_max_points=60,
        )
        assert cv_select_psi(ds, cfg) in (4, 16)


class TestRunOnline:
    def _config(self, learner="ik-ogd-anne", **kw):
        base = dict(
            learner=learner, psi_grid=(16,), t=60, train_size=300,
            block_size=200, seed=13,
        )
        base.update(kw)
        return ProtocolConfig(**base)

    def test_prediction_conservation(self):
        ds = make_two_gaussians(1100, 5, 3.0, seed=3)
        metrics = run_online(ds, self._config())
        assert metrics.n_predictions == 1100 - 300
        assert len(metrics.block_accuracy) == 4  # 200,200,200,200
        assert not metrics.degenerate

    def test_cumulative_accuracy_bookkeeping(self):
        ds = make_two_gaussians(900, 5, 3.0, seed=4)
        metrics = run_online(ds, self._config())
        sizes = [200, 200, 200]
        correct = np.cumsum(
            [a * s for a, s in zip(metrics.block_accuracy, sizes)]
        )
        seen = np.cumsum(sizes)
        assert np.allclose(metrics.cumulative_accuracy, correct / seen)
        assert metrics.final_accuracy == pytest.approx(
            metrics.n_correct / metrics.n_predictions
        )

    def test_stationary_stream_accuracy_does_not_decay(self):
        # 5 seeds; median final accuracy within 0.02 of the first block's
        finals, firsts = [], []
        for seed in range(5):
            ds = make_two_gaussians(2000, 6, 3.0, seed=100 + seed)
            cfg = self._config(seed=seed, train_size=500, block_size=300)
            m = run_online(ds, cfg)
            finals.append(m.final_accuracy)
            firsts.append(m.block_accuracy[0])
        assert np.median(finals) >= np.median(firsts) - 0.02

    def test_degenerate_stream_flagged(self):
        ds = make_two_gaussians(350, 4, 3.0, seed=5)
        metrics = run_online(ds, self._config(block_size=200, train_size=300))
        assert metrics.degenerate
        assert metrics.n_predictions == 50

    def test_requires_train_size(self):
        ds = make_two_gaussians(100, 4, 3.0, seed=6)
        with pytest.raises(ConfigError):
            run_online(ds, self._config(train_size=None))
        with pytest.raises(ConfigError):
            run_online(ds, self._config(train_size=100))

    def test_learners_share_the_stream_shuffle(self, monkeypatch):
        ds = make_two_gaussians(700, 4, 3.0, seed=7)
        calls = []
        real = evalmod.shuffle

        def spy(dataset, seed):
            calls.append(seed)
            return real(dataset, seed)

        monkeypatch.setattr(evalmod, "shuffle", spy)
        run_online(ds, self._config(learner="ik-ogd-iforest", seed=21))
        run_online(ds, self._config(learner="ogd", seed=21))
        run_online(ds, self._config(learner="nogd", b=50, r=10, seed=21))
        stream_seeds = [s for s in calls if s == 21]
        assert len(stream_seeds) == 3

    def test_normalize_densifies_each_dataset_once(self, monkeypatch):
        ds = make_two_gaussians(400, 4, 3.0, seed=9)
        rows = []
        dense = Dataset.dense

        def spy(self):
            rows.append(len(self))
            return dense(self)

        monkeypatch.setattr(Dataset, "dense", spy)
        run_online(ds, self._config(train_size=100, normalize=True))
        assert sorted(rows) == [100, 300]

    def test_dual_ogd_scores_each_stream_point_in_its_step(self,
                                                              monkeypatch):
        # a forced psi runs no CV folds, which predict_many would score
        ds = make_two_gaussians(700, 4, 3.0, seed=10)
        steps, blocks = [], []
        step, predict_many = DualModel.step, DualModel.predict_many

        def step_spy(model, x, c, eta):
            steps.append(x)
            return step(model, x, c, eta)

        def predict_many_spy(model, points):
            blocks.append(len(points))
            return predict_many(model, points)

        monkeypatch.setattr(DualModel, "step", step_spy)
        monkeypatch.setattr(DualModel, "predict_many", predict_many_spy)
        metrics = run_online(ds, self._config(learner="ogd"))
        assert len(steps) == 700  # 300 head points, then 400 in the stream
        assert metrics.n_predictions == 400
        assert blocks == []

    def test_determinism_except_wall_time(self):
        ds = make_two_gaussians(800, 5, 3.0, seed=8)
        cfg = self._config(seed=17)
        m1 = run_online(ds, cfg)
        m2 = run_online(ds, cfg)
        assert _strip_times(m1) == _strip_times(m2)


class TestRunBatch:
    def test_memorizable_set_reaches_high_accuracy(self):
        ds = make_two_gaussians(30, 5, 1.0, seed=9)  # barely separated
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(16,), t=400, seed=19
        )
        metrics = run_batch(ds, ds, cfg)
        assert metrics.final_accuracy >= 0.95

    def test_all_learners_beat_chance_on_synthetic(self):
        train = make_two_gaussians(400, 6, 4.0, seed=10)
        test = make_two_gaussians(300, 6, 4.0, seed=11)
        for learner in ("ogd", "ik-ogd-iforest", "ik-ogd-anne", "nogd"):
            cfg = ProtocolConfig(
                learner=learner, psi_grid=(16,), t=80, b=60, r=12, seed=23
            )
            metrics = run_batch(train, test, cfg)
            assert metrics.final_accuracy >= 0.9, learner

    def test_determinism_except_wall_time(self):
        train = make_two_gaussians(300, 4, 3.0, seed=12)
        test = make_two_gaussians(200, 4, 3.0, seed=13)
        cfg = ProtocolConfig(learner="ik-ogd-iforest", psi_grid=(8,), t=40)
        m1 = run_batch(train, test, cfg)
        m2 = run_batch(train, test, cfg)
        assert _strip_times(m1) == _strip_times(m2)

    def test_rejects_empty_sets(self):
        ds = make_two_gaussians(50, 4, 3.0, seed=14)
        empty, _ = split_head(ds, 0)
        cfg = ProtocolConfig(learner="ogd", psi_grid=(8,))
        with pytest.raises(ConfigError):
            run_batch(empty, ds, cfg)

    def test_normalize_flag_runs_and_is_deterministic(self):
        train = make_two_gaussians(200, 4, 3.0, seed=15)
        test = make_two_gaussians(150, 4, 3.0, seed=16)
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(8,), t=30, normalize=True
        )
        m1 = run_batch(train, test, cfg)
        m2 = run_batch(train, test, cfg)
        assert _strip_times(m1) == _strip_times(m2)
        assert m1.config["normalize"] is True


class TestSweep:
    def _data(self):
        return (
            make_two_gaussians(300, 5, 3.0, seed=17),
            make_two_gaussians(200, 5, 3.0, seed=18),
        )

    def test_psi_sweep_keeps_prediction_cost_constant(self):
        train, test = self._data()
        cfg = ProtocolConfig(learner="ik-ogd-anne", t=40, seed=29)
        results = sweep("psi", [4, 16, 64], cfg, train, test)
        ops = {m.last_predict_ops for m in results}
        assert ops == {40}  # reads t weights however many cells exist
        assert [m.psi for m in results] == [4, 16, 64]

    def test_b_sweep_encode_cost_grows_linearly(self):
        train, test = self._data()
        cfg = ProtocolConfig(
            learner="nogd", psi_grid=(16,), r=5, seed=29
        )
        results = sweep("b", [10, 20, 40], cfg, train, test)
        costs = [m.encode_ops_per_point for m in results]
        assert costs == [10, 20, 40]

    def test_t_sweep_runs_share_seed(self):
        train, test = self._data()
        cfg = ProtocolConfig(learner="ik-ogd-iforest", psi_grid=(8,), seed=31)
        results = sweep("t", [10, 40], cfg, train, test)
        assert [m.config["t"] for m in results] == [10, 40]
        assert all(m.config["seed"] == 31 for m in results)

    def test_bad_axis_or_empty_values_rejected(self):
        train, test = self._data()
        cfg = ProtocolConfig(learner="ogd", psi_grid=(8,))
        with pytest.raises(ConfigError):
            sweep("gamma", [1], cfg, train, test)
        with pytest.raises(ConfigError):
            sweep("t", [], cfg, train, test)


class TestEmission:
    def test_runs_csv_schema(self, tmp_path):
        train = make_two_gaussians(150, 4, 3.0, seed=20)
        test = make_two_gaussians(100, 4, 3.0, seed=21)
        cfg = ProtocolConfig(learner="ik-ogd-anne", psi_grid=(8,), t=20)
        metrics = run_batch(train, test, cfg)
        path = tmp_path / "runs.csv"
        write_runs_csv(path, [metrics])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["learner"] == "ik-ogd-anne"
        assert rows[0]["schema_version"] == "1"
        assert float(rows[0]["final_accuracy"]) == metrics.final_accuracy

    def test_blocks_csv_one_row_per_block(self, tmp_path):
        ds = make_two_gaussians(900, 4, 3.0, seed=22)
        cfg = ProtocolConfig(
            learner="ik-ogd-iforest", psi_grid=(8,), t=20,
            train_size=300, block_size=200,
        )
        metrics = run_online(ds, cfg)
        path = tmp_path / "blocks.csv"
        write_blocks_csv(path, metrics)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(metrics.block_accuracy)

    def test_json_summary_embeds_resolved_config(self):
        train = make_two_gaussians(150, 4, 3.0, seed=23)
        test = make_two_gaussians(100, 4, 3.0, seed=24)
        cfg = ProtocolConfig(learner="nogd", psi_grid=(8,), b=30, r=6)
        metrics = run_batch(train, test, cfg)
        loaded = json.loads(json.dumps(metrics.to_dict()))
        assert loaded["schema_version"] == 1
        assert loaded["config"]["eta"] == 0.5
        assert loaded["config"]["psi_grid"] == [8]
        assert loaded["config"]["b"] == 30


# sha256 (first 16 hex digits) of each run's Metrics as sorted-key JSON,
# wall times aside, as recorded when the online blocks, the batch test and
# each CV fold were scored by loops of their own and each protocol ran its
# own fit: how a protocol is put together must not move a single metric.
PINNED_RUNS = {
    ("online", "ogd", False): "f83a4ce705f03d53",
    ("online", "ogd", True): "be822de42e7b1bac",
    ("online", "ik-ogd-iforest", False): "e6017c8b46977fad",
    ("online", "ik-ogd-iforest", True): "13f462a222979e04",
    ("online", "ik-ogd-anne", False): "23a30cf6cfe2d568",
    ("online", "ik-ogd-anne", True): "1017d9f20ba58c09",
    ("online", "nogd", False): "130a6fa5617a0f1e",
    ("online", "nogd", True): "32e5fa18f7f4ec6c",
    ("batch", "ogd", False): "b0a6289945ab5e6e",
    ("batch", "ogd", True): "d69cc31f0029f9dc",
    ("batch", "ik-ogd-iforest", False): "84c483403d1a9f86",
    ("batch", "ik-ogd-iforest", True): "f5ae9a1956c627f7",
    ("batch", "ik-ogd-anne", False): "cdf15fee0dc4a0a8",
    ("batch", "ik-ogd-anne", True): "837ee10d1bf3e11f",
    ("batch", "nogd", False): "dda857cf5a06b44c",
    ("batch", "nogd", True): "609ea3797af21dac",
}


@pytest.mark.parametrize("protocol, learner, normalize", sorted(PINNED_RUNS))
def test_metrics_of_fixed_seed_runs_are_pinned(protocol, learner, normalize):
    # a three-value grid, so that every run selects psi by CV
    cfg = ProtocolConfig(
        learner=learner, psi_grid=(4, 8, 16), t=20, b=20, r=8,
        block_size=40, seed=9, train_size=80, normalize=normalize,
    )
    if protocol == "online":
        metrics = run_online(make_two_gaussians(240, 4, 2.0, seed=31), cfg)
    else:
        metrics = run_batch(make_two_gaussians(160, 4, 2.0, seed=32),
                            make_two_gaussians(80, 4, 2.0, seed=33), cfg)
    text = json.dumps(_strip_times(metrics), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest[:16] == PINNED_RUNS[protocol, learner, normalize]


class TestTiming:
    DELAY = 0.05

    def _slow_encoder(self, monkeypatch):
        real = Mapper.map_many

        def slow(mapper, dataset):
            time.sleep(self.DELAY)
            return real(mapper, dataset)

        monkeypatch.setattr(Mapper, "map_many", slow)

    def test_online_test_time_covers_encoding(self, monkeypatch):
        ds = make_two_gaussians(400, 4, 3.0, seed=25)
        cfg = ProtocolConfig(
            learner="ik-ogd-anne", psi_grid=(8,), t=10, train_size=100,
            block_size=100,
        )
        self._slow_encoder(monkeypatch)
        metrics = run_online(ds, cfg)
        blocks = len(metrics.block_accuracy)
        assert blocks == 3
        assert metrics.test_time >= blocks * self.DELAY

    def test_batch_test_time_covers_encoding(self, monkeypatch):
        train = make_two_gaussians(100, 4, 3.0, seed=26)
        test = make_two_gaussians(50, 4, 3.0, seed=27)
        cfg = ProtocolConfig(learner="ik-ogd-anne", psi_grid=(8,), t=10)
        self._slow_encoder(monkeypatch)
        assert run_batch(train, test, cfg).test_time >= self.DELAY
