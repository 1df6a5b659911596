"""Tests of the benchmark itself: generators, span arithmetic, percentiles.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os

import numpy as np
import pytest

import calibrate
import gen
import run
import tracing
import workloads
from stats import beyond, percentile, tail_percentile
from tracing import Tracer, layer_metrics, self_times

import isokernel
from isokernel import eval as ikeval
from isokernel.dataset import Dataset, LabeledPoint, SparseVector
from isokernel.featuremap import Mapper
from isokernel.partition import VoronoiPartition

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GENERATORS = {
    "a9a": lambda seed: gen.a9a_like(300, seed),
    "sparse-hd": lambda seed: gen.sparse_hd(200, seed),
    "gaussians": lambda seed: gen.two_gaussians(200, 20, 3.0, seed),
}


def _write(tmp_path, name, seed):
    path = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}.libsvm"
    gen.write_libsvm(path, *GENERATORS[name](seed))
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_files(tmp_path, name):
    assert _write(tmp_path, name, 5) == _write(tmp_path, name, 5)
    assert _write(tmp_path, name, 5) != _write(tmp_path, name, 6)


def test_generated_rows_have_their_stated_shape(tmp_path):
    labels, rows = gen.a9a_like(300, 1)
    assert all(len(idx) == 14 and np.all(vals == 1.0) for idx, vals in rows)
    assert all(idx.max() <= gen.A9A_DIM for idx, _ in rows)
    assert abs(np.mean(labels == 1) - 0.5) < 0.01
    _, rows = gen.sparse_hd(200, 1)
    assert all(len(idx) == 20 for idx, _ in rows)
    assert all(abs(vals @ vals - 1.0) < 1e-12 for _, vals in rows)
    path = tmp_path / "hd.libsvm"
    gen.write_libsvm(path, *gen.sparse_hd(200, 1))
    ds = isokernel.load_libsvm(str(path))
    assert len(ds) == 200 and all(np.all(np.diff(p.x.indices) > 0) for p in ds)


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps a: together they cover [1, 5]
        ["c", 9.0, 12.0, 0],  # only [9, 10] lies inside root
        ["a.child", 1.5, 2.5, 1],  # counts against a, not against root
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_records_nesting_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    # outer spans ticks 0..5, each inner one tick: 5 - 2 = 3
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_percentile_rule_needs_ten_samples_beyond():
    assert beyond(1000, 99) == 10
    assert tail_percentile(1000) == 99
    assert tail_percentile(999) == 90
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None
    assert tail_percentile(0) is None


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(list(reversed(samples)), 90) == 90
    assert percentile([7.0], 99) == 7.0


def test_install_and_uninstall_restore_every_original():
    before = {
        "fit": Mapper.__dict__["fit"],
        "cv": ikeval.cv_select_psi,
        "load": isokernel.dataset.load_libsvm,
    }
    tracer = Tracer()
    tracer.install()
    assert ikeval.cv_select_psi is not before["cv"]
    tracer.uninstall()
    assert Mapper.__dict__["fit"] is before["fit"]
    assert ikeval.cv_select_psi is before["cv"]
    assert isokernel.dataset.load_libsvm is before["load"]


def test_traced_online_run_reports_t_reads_and_no_map_point():
    ds = ikeval.make_two_gaussians(300, 4, 3.0, seed=1)
    cfg = ikeval.ProtocolConfig(
        learner="ik-ogd-anne", t=10, psi_grid=(4, 8), train_size=100,
        block_size=50, folds=2, seed=1)
    tracer = Tracer()
    tracer.install()
    try:
        ikeval.run_online(ds, cfg)
    finally:
        tracer.uninstall()
    m = {k: v["value"] for k, v in layer_metrics(tracer).items()}
    assert m["learner.predict_ops_per_point"] == 10
    assert m["featuremap.map_point_calls"] == 0
    assert m["eval.cv_fits"] == 4
    assert m["partition.build_calls"] == 10 * 5  # 4 fold fits + final fit
    assert m["learner.steps"] == 4 * 50 + 300
    assert m["eval.cv_s"] > 0 and m["eval.self_s"] > 0


def test_benchmark_json_matches_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == [w for w in run.WORKLOADS if w in names]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)


def test_throughput_is_a_median_over_units_of_work():
    common = {"setup_s": [3.0, 1.0, 2.0], "peak_rss_mb": 1.0, "accuracy": 0.9}
    served = dict(common, requests=True, points=[1] * 5,
                  walls=[0.001, 0.004, 0.002, 0.003, 0.001])
    values, _ = run.end_to_end(served)
    assert values["pts_per_s"] == pytest.approx(500.0)
    assert values["latency_p50_us"] == pytest.approx(2000.0)
    assert values["setup_s"] == 2.0
    calls = dict(common, requests=False, points=[10, 10, 10],
                 walls=[1.0, 4.0, 2.0])
    values, _ = run.end_to_end(calls)
    assert values["pts_per_s"] == pytest.approx(5.0)
    assert values["latency_p50_us"] == values["latency_p99_us"] == (
        pytest.approx(2e5))


def test_traced_map_point_is_reported_per_scheme_and_memory_is_opt_in():
    ds = ikeval.make_two_gaussians(200, 4, 3.0, seed=2)
    mappers = [Mapper.fit(ds, 8, 5, scheme, 2) for scheme in ("iforest", "anne")]
    for memory in (False, True):
        tracer = Tracer(memory=memory)
        tracer.install()
        try:
            for mapper in mappers:
                mapper.map_many(ds)
                for p in list(ds)[:30]:
                    mapper.map_point(p.x)
        finally:
            tracer.uninstall()
        m = {k: v["value"] for k, v in layer_metrics(tracer).items()}
        assert m["featuremap.map_point_calls"] == 60
        for scheme in ("iforest", "anne"):
            assert m[f"featuremap.map_point_{scheme}_us_p50"] > 0
        assert m["featuremap.map_many_points"] == 400
        assert (m["featuremap.map_many_peak_mb"] > 0) == memory


class _Quick(workloads.Workload):
    min_units = 1

    def unit(self, state, i):
        return 1


def test_run_timed_repeats_the_set_up_spread_over_the_run():
    resetups = []
    walls, points, spans, errors = workloads.run_timed(
        _Quick(0), None, 0.05, None, None, lambda: resetups.append(1))
    assert len(resetups) == workloads.SETUP_REPEATS - 1
    assert len(walls) == len(points) == len(spans) > 1 and errors == 0


def test_a_failed_worker_still_prints_a_failing_result_line(
        monkeypatch, tmp_path, capsys):
    def crash(*_):
        raise RuntimeError("worker exited with code 1")

    monkeypatch.setattr(run, "measure", crash)
    args = run.argparse.Namespace(seed=1, seconds=1.0, trace=0)
    run.run_one("serve-point", args, str(tmp_path))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {"correct": False, "attempted": 1,
                                "failed": 1, "metrics": {}}


def test_a_unit_that_raised_is_counted_as_failed(monkeypatch, tmp_path,
                                                 capsys):
    env = {"python": "3", "numpy": "2", "isokernel": "src",
           "ISOKERNEL_THREADS": "unset", "OPENBLAS_NUM_THREADS": "2"}
    res = {"walls": [], "checks": [], "scores": 0, "nonfinite": 0,
           "errors": 1, "psi": [], "env": env}
    monkeypatch.setattr(run, "measure", lambda *_: (res, None, ""))
    args = run.argparse.Namespace(seed=1, seconds=1.0, trace=0)
    run.run_one("stream-a9a", args, str(tmp_path))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {"correct": False, "attempted": 1,
                                "failed": 1, "metrics": {}}


def _unit_basis(lo, hi, dim):
    """Unit basis points lo..hi-1: every pair is the same distance apart."""
    return Dataset([LabeledPoint(SparseVector([i + 1], [1.0], dim),
                                 1 if i % 2 else -1) for i in range(lo, hi)])


@pytest.mark.parametrize("scheme, passes",
                         [("anne", True), ("iforest", False)])
def test_map_check_accepts_only_a_tie_broken_differently(scheme, passes):
    train, test = _unit_basis(0, 30, 60), _unit_basis(30, 60, 60)
    mapper = Mapper.fit(train, 8, 5, scheme, 3)
    map_point = mapper.map_point
    # Another cell than map_many's: under anne an equally near centre, as
    # no test point is a centre; under iforest simply a wrong cell.
    mapper.map_point = lambda x: (map_point(x) + 1) % 8
    differ, ties, cells = workloads.map_agreement(mapper, test, 3)
    assert (differ, ties) == ((0, cells) if passes else (cells, 0))
    mapper.map_point = map_point
    assert workloads.map_agreement(mapper, test, 3)[0] == 0


def test_map_check_rejects_a_cell_that_is_not_nearest():
    part = VoronoiPartition([SparseVector([1], [1.0], 3),
                             SparseVector([2], [1.0], 3)])
    assert workloads._both_nearest(part, SparseVector([3], [1.0], 3), 0, 1)
    assert not workloads._both_nearest(part, SparseVector([1], [0.9], 3), 0, 1)


def test_times_are_scaled_by_the_host_speed_around_them():
    speed = calibrate.SpeedLog(["python"])
    nominal = calibrate.NOMINAL_S["python"]
    speed.times = [0.0, 1.0, 2.0, 3.0]
    speed.refs["python"] = [nominal, 3 * nominal, 2 * nominal, 5 * nominal]
    # The last calibration before, those inside, and the first one after.
    assert speed.scale("python", 0.5, 0.6) == pytest.approx(0.5)
    assert speed.scale("python", 0.5, 2.5) == pytest.approx(1 / 2.75)
    assert speed.scale("python", 3.5, 4.0) == pytest.approx(0.2)
    speed.start()
    try:
        workloads.time.sleep(calibrate.EVERY_S * 1.5)
    finally:
        speed.stop()
    assert len(speed.times) == 5 and speed.paused > 0
    res = {"setup_s": [2.0, 4.0, 6.0], "setup_scale": [0.5, 0.5, 0.5],
           "walls": [1.0, 3.0, 2.0], "wall_scale": [2.0, 1.0, 1.0],
           "points": [10, 10, 10], "requests": False, "peak_rss_mb": 1.0,
           "accuracy": 0.9}
    values, _ = run.end_to_end(res)
    assert values["setup_s"] == pytest.approx(2.0)
    assert values["pts_per_s"] == pytest.approx(10 / 2.0)
