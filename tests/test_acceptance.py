"""Acceptance suite: one test per release criterion, in order.

Each test prints a ``[PASS] criterion N`` line once its assertions hold
(run with ``pytest -v -s tests/test_acceptance.py`` to see them live).
Criteria 7 and 8 replay published benchmark numbers and need the real a9a
and ijcnn1 files on disk; run ``python scripts/fetch_benchmark_data.py`` first
(they skip, loudly, when the files are absent).
"""

import os
import time

import numpy as np
import pytest

from isokernel.dataset import Dataset, LabeledPoint, SparseVector, load_libsvm
from isokernel.eval import ProtocolConfig, run_batch
from isokernel.featuremap import Mapper, dense_feature, kernel, naive_dot
from isokernel.kernels import Gaussian, Laplacian
from isokernel.learner import DualModel, FeatureMatchKernel, IKOGDModel
from isokernel.nystrom import fit_nystrom

DATA_DIR = os.environ.get(
    "ISOKERNEL_DATA",
    os.path.join(os.path.dirname(__file__), "..", "data"),
)

NEED_DATA = "benchmark files missing; run: python scripts/fetch_benchmark_data.py"


def _have(*names):
    return all(os.path.exists(os.path.join(DATA_DIR, n)) for n in names)


def _report(label):
    print(f"\n[PASS] {label}")


def _mixed_points(rng, n, dim):
    """Half dense, half sparse points from one fixed distribution."""
    pts = []
    for i in range(n):
        density = 1.0 if i % 2 == 0 else 0.25
        nnz = max(1, int(rng.binomial(dim, density)))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False)) + 1
        vals = rng.standard_normal(nnz)
        vals[vals == 0.0] = 1.0
        pts.append(SparseVector(idx, vals, dim))
    return pts


def _as_dataset(points, dim):
    return Dataset([LabeledPoint(p, 1) for p in points], dim=dim)


def test_criterion_1_kernel_validity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    dim, t = 12, 200
    pool = _as_dataset(_mixed_points(rng, 1000, dim), dim)
    queries = _mixed_points(rng, 200, dim)
    for scheme in ("iforest", "anne"):
        for psi in (2, 16, 256):
            mapper = Mapper.fit(pool, psi=psi, t=t, scheme=scheme, seed=7)
            F = mapper.map_many(_as_dataset(queries, dim))
            grid = {i / t for i in range(t + 1)}
            for f in F:
                assert kernel(f, f) == 1.0
            pair_idx = rng.integers(0, 200, size=(200, 2))
            for i, j in pair_idx:
                kij = kernel(F[i], F[j])
                assert kij == kernel(F[j], F[i])
                assert kij in grid
            sub = F[rng.choice(200, size=50, replace=False)]
            G = np.array([[kernel(a, b) for b in sub] for a in sub])
            assert np.linalg.eigvalsh(G).min() >= -1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "criterion 1: kernel validity (self-kernel 1, symmetry, grid range, "
        f"PSD) in {elapsed:.1f}s"
    )


def test_criterion_2_feature_map_geometry():
    rng = np.random.default_rng(1002)
    dim, t, psi = 10, 50, 16
    pool = _as_dataset(_mixed_points(rng, 600, dim), dim)
    mapper = Mapper.fit(pool, psi=psi, t=t, scheme="anne", seed=11)
    pts = _mixed_points(rng, 2000, dim)
    F = mapper.map_many(_as_dataset(pts, dim))
    for f in F:
        phi = dense_feature(f, psi)
        assert np.count_nonzero(phi) == t  # exactly t of t*psi slots
        assert float(np.linalg.norm(phi)) == pytest.approx(np.sqrt(t))
    for k in range(1000):
        fa, fb = F[2 * k], F[2 * k + 1]
        dense_inner = float(
            dense_feature(fa, psi).ravel() @ dense_feature(fb, psi).ravel()
        )
        assert kernel(fa, fb) == dense_inner / t
    _report(
        "criterion 2: feature map geometry (||Phi||=sqrt(t), dense inner "
        "product == scaled match count) on 1000 pairs"
    )


def test_criterion_3_efficient_dot_product():
    rng = np.random.default_rng(1003)
    t = 25
    for psi in (16, 1024, 16384):
        model = IKOGDModel(t, psi)
        for _ in range(1000):
            model.w = rng.standard_normal((t, psi))
            f = rng.integers(0, psi, size=t).astype(np.int32)
            score = model.predict(f)
            assert model.last_predict_ops == t  # reads independent of psi
            assert score * t == pytest.approx(naive_dot(model.w, f),
                                              abs=1e-12)
    _report(
        "criterion 3: IK-OGD's predict * t == naive dot (1e-12) reading "
        "exactly t weights at psi in {16, 1024, 16384}"
    )


@pytest.mark.parametrize("scheme", ["iforest", "anne"])
def test_criterion_4_primal_dual_identity(scheme):
    # eta off the score lattice keeps c*score from ever hitting the strict
    # margin boundary exactly, where float summation order could split the
    # twins' update decisions
    rng = np.random.default_rng(1004)
    dim, t, psi, eta = 8, 50, 16, 0.55
    pool = _as_dataset(_mixed_points(rng, 500, dim), dim)
    mapper = Mapper.fit(pool, psi=psi, t=t, scheme=scheme, seed=13)
    primal = IKOGDModel(t, psi, mapper=mapper)
    dual = DualModel(FeatureMatchKernel(t))
    stream = _mixed_points(rng, 2000, dim)
    for x in stream:
        f = mapper.map_point(x)
        c = int(rng.choice([-1, 1]))
        sp = primal.step(f, c, eta)
        sd = dual.step(f, c, eta)
        assert abs(sp - sd) <= 1e-9
    assert primal.updates == dual.updates
    _report(
        f"criterion 4: primal-dual score identity over 2000 steps ({scheme})"
    )


def test_criterion_5_monte_carlo_convergence():
    rng = np.random.default_rng(1005)
    dim, psi = 4, 16
    pool = _as_dataset(_mixed_points(rng, 500, dim), dim)
    m_small = Mapper.fit(pool, psi=psi, t=500, scheme="anne", seed=101)
    m_large = Mapper.fit(pool, psi=psi, t=50_000, scheme="anne", seed=202)
    pts = _mixed_points(rng, 100, dim)
    both = _as_dataset(pts, dim)
    Fs = m_small.map_many(both)
    Fl = m_large.map_many(both)
    failures = 0
    for k in range(50):
        i, j = 2 * k, 2 * k + 1
        k_small = float(np.count_nonzero(Fs[i] == Fs[j])) / 500
        k_large = float(np.count_nonzero(Fl[i] == Fl[j])) / 50_000
        tol = 4 * np.sqrt(max(k_large * (1 - k_large), 0.0) / 500)
        if abs(k_small - k_large) > tol:
            failures += 1
    assert failures <= 2
    _report(
        f"criterion 5: t=500 vs t=50000 estimates within binomial band "
        f"({failures}/50 outside)"
    )


def test_criterion_6_laplacian_correspondence_uniform_density():
    # pairs are drawn with log-uniform separations so they cover the whole
    # resolvable range of the psi=256 kernel; independent uniform endpoints
    # would leave most pairs in the far field where the estimate ties at 0
    rng = np.random.default_rng(1006)
    from scipy.stats import spearmanr

    n_pool, psi, t, n_pairs = 2000, 256, 10_000, 500
    X = rng.uniform(size=(n_pool, 2))
    pool = _as_dataset(
        [SparseVector([1, 2], row, 2) for row in X + 1e-12], 2
    )
    mapper = Mapper.fit(pool, psi=psi, t=t, scheme="iforest", seed=17)

    a = rng.uniform(0.05, 0.95, size=(n_pairs, 2))
    angle = rng.uniform(0, 2 * np.pi, n_pairs)
    scale = np.exp(rng.uniform(np.log(0.004), np.log(0.7), n_pairs))
    b = np.clip(
        a + scale[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1),
        0.0, 1.0,
    )
    pts = [SparseVector([1, 2], row, 2) for row in np.vstack([a, b]) + 1e-12]
    F = mapper.map_many(_as_dataset(pts, 2))
    ik_vals = [
        float(np.count_nonzero(F[i] == F[i + n_pairs])) / t
        for i in range(n_pairs)
    ]
    laplacian = Laplacian(psi, 2)
    lap_vals = [laplacian(pts[i], pts[i + n_pairs]) for i in range(n_pairs)]
    rho = float(spearmanr(ik_vals, lap_vals).statistic)
    assert rho >= 0.90
    _report(
        f"criterion 6: tree-scheme kernel tracks Laplacian under uniform "
        f"density (spearman {rho:.3f})"
    )


@pytest.mark.skipif(not _have("a9a", "a9a.t"), reason=NEED_DATA)
def test_criterion_7a_benchmark_a9a():
    start = time.perf_counter()
    train = load_libsvm(os.path.join(DATA_DIR, "a9a"), name="a9a")
    test = load_libsvm(os.path.join(DATA_DIR, "a9a.t"), name="a9a.t")
    assert len(train) == 32_561 and len(test) == 16_281
    for learner in ("ik-ogd-iforest", "ik-ogd-anne", "ogd", "nogd"):
        cfg = ProtocolConfig(learner=learner, seed=42, cv_max_points=4000)
        metrics = run_batch(train, test, cfg)
        assert abs(metrics.final_accuracy - 0.84) <= 0.03, (
            learner, metrics.final_accuracy, metrics.psi,
        )
        _report(
            f"criterion 7 [a9a/{learner}]: accuracy "
            f"{metrics.final_accuracy:.3f} (psi={metrics.psi}) in "
            f"{time.perf_counter() - start:.0f}s"
        )


@pytest.mark.skipif(not _have("ijcnn1", "ijcnn1.t"), reason=NEED_DATA)
def test_criterion_7b_benchmark_ijcnn1():
    start = time.perf_counter()
    train = load_libsvm(os.path.join(DATA_DIR, "ijcnn1"), name="ijcnn1")
    test = load_libsvm(os.path.join(DATA_DIR, "ijcnn1.t"), name="ijcnn1.t")
    assert len(train) == 49_990 and len(test) == 91_701
    floors = {"ik-ogd-anne": 0.94, "ogd": 0.91, "nogd": 0.90}
    for learner, floor in floors.items():
        cfg = ProtocolConfig(learner=learner, seed=42, cv_max_points=4000)
        metrics = run_batch(train, test, cfg)
        assert metrics.final_accuracy >= floor, (
            learner, metrics.final_accuracy, metrics.psi,
        )
        _report(
            f"criterion 7 [ijcnn1/{learner}]: accuracy "
            f"{metrics.final_accuracy:.3f} >= {floor} (psi={metrics.psi}) "
            f"in {time.perf_counter() - start:.0f}s"
        )
    assert time.perf_counter() - start <= 1800


@pytest.mark.skipif(not _have("ijcnn1", "ijcnn1.t"), reason=NEED_DATA)
def test_criterion_8_ensemble_size_trend_ijcnn1():
    train = load_libsvm(os.path.join(DATA_DIR, "ijcnn1"), name="ijcnn1")
    test = load_libsvm(os.path.join(DATA_DIR, "ijcnn1.t"), name="ijcnn1.t")
    accs = {10: [], 1000: []}
    for seed in range(5):
        for t in (10, 1000):
            cfg = ProtocolConfig(
                learner="ik-ogd-iforest", psi_grid=(8,), t=t, seed=seed
            )
            accs[t].append(run_batch(train, test, cfg).final_accuracy)
    gain = float(np.median(accs[1000]) - np.median(accs[10]))
    assert gain >= 0.02
    _report(
        f"criterion 8: accuracy gain from t=10 to t=1000 at psi=8 is "
        f"{gain:.3f} (5-seed median)"
    )


def test_criterion_9_low_rank_map_correctness():
    rng = np.random.default_rng(1009)
    dim = 6
    pts = _mixed_points(rng, 150, dim)
    ds = _as_dataset(pts, dim)
    kern = Gaussian(gamma=0.3, dim=dim)

    nm = fit_nystrom(ds, b=50, r=50, kernel_fn=kern, seed=3)
    G = np.array(
        [[kern(a, b) for b in nm.landmarks] for a in nm.landmarks]
    )
    assert np.linalg.eigvalsh((G + G.T) / 2).min() > 1e-8  # strictly PD
    Xhat = nm.map_many(nm.landmarks)
    assert np.max(np.abs(Xhat @ Xhat.T - G)) <= 1e-6

    held = pts[60:110]
    H = np.array([[kern(a, b) for b in held] for a in held])
    errors = []
    for r in (5, 10, 20, 50):
        nm_r = fit_nystrom(ds, b=50, r=r, kernel_fn=kern, seed=3)
        Hr = nm_r.map_many(held)
        errors.append(float(np.linalg.norm(Hr @ Hr.T - H)))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
    _report(
        "criterion 9: full-rank landmark reconstruction within 1e-6; "
        "held-out error non-increasing in r"
    )


def test_criterion_10_prediction_cost_scaling():
    rng = np.random.default_rng(1010)
    dim, t, psi, eta = 6, 40, 32, 0.01
    pool = _as_dataset(_mixed_points(rng, 800, dim), dim)
    mapper = Mapper.fit(pool, psi=psi, t=t, scheme="anne", seed=19)
    primal = IKOGDModel(t, psi, mapper=mapper)
    dual = DualModel(FeatureMatchKernel(t))
    probe = mapper.map_point(_mixed_points(rng, 1, dim)[0])

    def feed(n):
        # tiny eta keeps every score inside the margin: every step updates
        for _ in range(n):
            f = mapper.map_point(_mixed_points(rng, 1, dim)[0])
            c = int(rng.choice([-1, 1]))
            primal.step(f, c, eta)
            dual.step(f, c, eta)

    feed(120)
    assert primal.updates == dual.updates == 120
    primal.predict(probe)
    dual.predict(probe)
    ik_ops_before, dual_ops_before = (
        primal.last_predict_ops, dual.last_predict_ops,
    )

    feed(1080)  # 10x more accepted updates in total
    assert primal.updates == dual.updates == 1200
    primal.predict(probe)
    dual.predict(probe)
    assert primal.last_predict_ops == ik_ops_before == t
    assert dual.last_predict_ops == 10 * dual_ops_before
    _report(
        "criterion 10: 10x more updates leave the indexed model at t ops "
        "per prediction while dual kernel calls grow 10x"
    )
