"""The benchmark's workloads, and the worker process that runs one of them.

``run.py`` writes a workload's inputs as LIBSVM files, then starts this
module as a fresh process (so its peak RSS belongs to one run) with a JSON
spec as its only argument:

    {"workload": ..., "seed": ..., "files": {...}, "seconds": ...,
     "mode": "measure" | "fixed" | "traced" | "memory", "units": null | n}

``measure`` runs as many units of work as fit in ``seconds`` and sets up
SETUP_REPEATS times, spread evenly over those seconds: once before the first
unit, the rest between units, each one discarded at once. It also times
reference kernels many times a second (``calibrate.py``), leaves that time
out of the times it reports, and reports the host's speed around each of
them.
``fixed``, ``traced`` and ``memory`` set up once and run ``units`` units;
``traced`` records spans around the package's entry points, and ``memory``
does so as well while it records ``map_many``'s peak memory. The worker
prints one JSON line.

A unit is one protocol call, or one request for ``serve-point``.
"""

import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import isokernel
import isokernel.dataset as ikdata
import isokernel.eval as ikeval
from isokernel.featuremap import Mapper
from isokernel.learner import DualModel, IKOGDModel, NOGDModel, predict_label

import gen
from calibrate import SpeedLog
from tracing import Tracer, layer_metrics, patch

T = 100
ETA = ikeval.ProtocolConfig.eta  # the protocols' default step size
SETUP_REPEATS = 15
# serve-point scores accuracy over its first SCORED_REQUESTS requests and
# always runs that many, which also leaves 20 samples beyond the p99.
SCORED_REQUESTS = 2000
CHECK_SAMPLE = 20  # points on which map_point must match map_many
CHECK_T = 20  # partitionings in the mapper built for that check
TIE_RTOL = 1e-12  # distances this close, relative to their size, are a tie


class ScoreCheck:
    """Counts the scores every learner returns, and those not finite.

    It wraps ``step`` and ``predict_many`` in every mode, traced or not, so
    it is part of the measured program on both sides of any comparison; it
    adds well under 1 us to steps that take 10 us or more.
    """

    def __init__(self):
        self.scores = 0
        self.nonfinite = 0

    def install(self):
        for cls in (IKOGDModel, DualModel, NOGDModel):
            patch(cls, "step", self._step)
            patch(cls, "predict_many", self._many)

    def _step(self, step):
        def checked(model, x, c, eta):
            score = step(model, x, c, eta)
            self.scores += 1
            if not math.isfinite(score):
                self.nonfinite += 1
            return score

        return checked

    def _many(self, predict_many):
        def checked(model, points):
            scores = predict_many(model, points)
            finite = np.isfinite(scores)
            self.scores += finite.size
            self.nonfinite += int(finite.size - np.count_nonzero(finite))
            return scores

        return checked


def map_agreement(mapper, ds, seed):
    """Check map_point against the matching map_many row on a seeded sample.

    Every cell id must match, except where an anne partitioning has two
    centres at the same distance from the point: map_point adds ||x||^2
    before its argmin and map_many does not, so the two round the distances
    differently and may break an exact tie differently. There both cells
    must be nearest centres, to within TIE_RTOL of the distances computed
    directly. Returns the number of cells that differ otherwise, the number
    of ties broken differently, and the number of cells compared.
    """
    rng = np.random.default_rng([seed, 7])
    idx = np.sort(rng.choice(len(ds), size=CHECK_SAMPLE, replace=False))
    sample = ds.subset(idx)
    batch = mapper.map_many(sample)
    differ = ties = 0
    for p, row in zip(sample, batch):
        point = mapper.map_point(p.x)
        for i in np.flatnonzero(point != row):
            part = mapper.parts[i]
            if part.scheme == "anne" and _both_nearest(
                    part, p.x, point[i], row[i]):
                ties += 1
            else:
                differ += 1
    return differ, ties, batch.size


def _both_nearest(part, x, a, b):
    """Whether centres ``a`` and ``b`` of a Voronoi partitioning are both
    nearest to ``x``. Entries of x beyond the centres' dimensionality add
    the same amount to every distance and are left out."""
    Z = part.dense_centers()
    xd = np.zeros(Z.shape[1])
    inside = x.indices <= Z.shape[1]
    xd[x.indices[inside] - 1] = x.values[inside]
    d = ((Z - xd) ** 2).sum(axis=1)
    tol = TIE_RTOL * (x.sq_norm() + part.sq_norms.max())
    return max(d[a], d[b]) <= d.min() + tol


class Workload:
    """Inputs, set-up, one unit of timed work, and the output checks."""

    name = ""
    span = None  # the benchmark's own span around a unit, if any
    reference = "python"  # the calibrate.py kernel that scales a unit
    min_units = 1

    def __init__(self, seed):
        self.seed = seed
        self.checks = []  # (name, passed, detail)
        self.accuracies = []
        self.ops = set()  # last_predict_ops of every protocol call
        self.predicted = set()  # n_predictions of every protocol call
        self.psis = []  # psi chosen by every protocol call
        self.tie_splits = 0  # ties map_point and map_many broke differently

    def record(self, metrics):
        self.psis.append(metrics.psi)
        self.accuracies.append(metrics.final_accuracy)
        self.ops.add(metrics.last_predict_ops)
        self.predicted.add(metrics.n_predictions)

    def check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), str(detail)))

    def check_maps(self, name, mapper, ds):
        differ, ties, cells = map_agreement(mapper, ds, self.seed)
        self.tie_splits += ties
        self.check(name, differ == 0, f"{differ} of {cells} cells differ; "
                   f"{ties} exact ties broken differently")

    def accuracy(self):
        return self.accuracies[0] if self.accuracies else 0.0

    def check_accuracy(self, floor, acc, label="accuracy"):
        self.check(f"{label} >= {floor}", acc >= floor, f"{acc:.4f}")

    def check_repeatable(self):
        if len(self.accuracies) > 1:
            self.check("same accuracy on every repeat",
                       len(set(self.accuracies)) == 1, self.accuracies)


class A9AWorkload(Workload):
    """A protocol workload over one file of ``n`` a9a-shaped rows."""

    n = 0

    def inputs(self, workdir):
        path = os.path.join(workdir, f"{self.name}.libsvm")
        gen.write_libsvm(path, *gen.a9a_like(self.n, self.seed))
        return {"data": path}

    def setup(self, files):
        return ikdata.load_libsvm(files["data"])


class StreamA9A(A9AWorkload):
    """The paper's online protocol on a9a-shaped data: CV psi selection,
    iforest fits, map_many and step; map_point unused."""

    name = "stream-a9a"
    n = 32000
    floor = 0.70

    def config(self):
        return ikeval.ProtocolConfig(
            learner="ik-ogd-iforest", t=T, psi_grid=(16, 64, 256),
            train_size=2000, block_size=1000, seed=self.seed)

    def unit(self, ds, _):
        self.record(ikeval.run_online(ds, self.config()))
        return len(ds)

    def final_checks(self, ds):
        self.check_accuracy(self.floor, self.accuracy())
        self.check_repeatable()
        self.check("prediction reads t weights", self.ops == {T}, self.ops)
        self.check("every stream point predicted",
                   self.predicted == {len(ds) - self.config().train_size},
                   self.predicted)
        head = ds.subset(np.arange(self.config().train_size))
        mapper = Mapper.fit(head, 64, CHECK_T, "iforest", self.seed)
        self.check_maps("map_point equals map_many row", mapper, ds)


class ServePoint(Workload):
    """Closed loop, one client: each request encodes one raw point with
    map_point (iforest or anne), then steps; the constant time per
    prediction claim."""

    name = "serve-point"
    span = "serve.request"
    min_units = SCORED_REQUESTS
    head = 2000
    n = 10000
    psi = 64
    floor = 0.80

    def __init__(self, seed):
        super().__init__(seed)
        self.correct = 0
        self.bad_ops = 0

    def inputs(self, workdir):
        path = os.path.join(workdir, f"{self.name}.libsvm")
        gen.write_libsvm(path, *gen.two_gaussians(self.n, 20, 3.0, self.seed))
        return {"data": path}

    def setup(self, files):
        """Load, fit an iforest and an anne map, and train on the head."""
        ds = ikdata.load_libsvm(files["data"])
        head, pool = ikdata.split_head(ds, self.head)
        maps, models = [], []
        for scheme in ("iforest", "anne"):
            mapper = Mapper.fit(head, self.psi, T, scheme, self.seed)
            model = IKOGDModel(T, self.psi, mapper=mapper)
            for f, c in zip(mapper.map_many(head), head.labels()):
                model.step(f, int(c), ETA)
            maps.append(mapper)
            models.append(model)
        return pool, maps, models

    def unit(self, state, i):
        pool, maps, models = state
        p = pool[i % len(pool)]
        # Two requests in three use iforest, the third anne. The median then
        # lies inside the iforest mode: with an even split it would fall in
        # the gap between the two maps' latency modes, and with anne in the
        # majority in anne's upper tail; both jump with the host's load.
        k = 1 if i % 3 == 2 else 0
        model = models[k]
        score = model.step(maps[k].map_point(p.x), p.c, ETA)
        if model.last_predict_ops != T:
            self.bad_ops += 1
        if i < SCORED_REQUESTS:
            self.correct += predict_label(score) == p.c
        return 1

    def accuracy(self):
        return self.correct / SCORED_REQUESTS

    def final_checks(self, state):
        pool, maps, _ = state
        self.check_accuracy(self.floor, self.accuracy())
        self.check("prediction reads t weights on every request",
                   self.bad_ops == 0, f"{self.bad_ops} requests read != {T}")
        for mapper in maps:
            self.check_maps(f"map_point equals map_many row ({mapper.scheme})",
                            mapper, pool)


class BatchSparseHD(Workload):
    """run_batch with anne on d=20000 sparse rows: memory scales with
    n*d through the dense path; where a CSR data path must show."""

    name = "batch-sparse-hd"
    reference = "blas"  # its units are dense products over d=20000
    n_train = 2000
    n_test = 1000
    floor = 0.75

    def config(self):
        return ikeval.ProtocolConfig(
            learner="ik-ogd-anne", t=T, psi_grid=(64,), seed=self.seed)

    def inputs(self, workdir):
        labels, rows = gen.sparse_hd(self.n_train + self.n_test, self.seed)
        files = {}
        for part, sl in (("train", slice(0, self.n_train)),
                         ("test", slice(self.n_train, None))):
            files[part] = os.path.join(workdir, f"hd-{part}.libsvm")
            gen.write_libsvm(files[part], labels[sl], rows[sl])
        return files

    def setup(self, files):
        return (ikdata.load_libsvm(files["train"]),
                ikdata.load_libsvm(files["test"]))

    def unit(self, state, _):
        train, test = state
        self.record(ikeval.run_batch(train, test, self.config()))
        return len(train) + len(test)

    def final_checks(self, state):
        train, test = state
        self.check_accuracy(self.floor, self.accuracy())
        self.check_repeatable()
        self.check("prediction reads t weights", self.ops == {T}, self.ops)
        self.check("every test point predicted",
                   self.predicted == {len(test)}, self.predicted)
        mapper = Mapper.fit(train, 64, CHECK_T, "anne", self.seed)
        self.check_maps("map_point equals map_many row", mapper, test)


class BaselinesOnline(A9AWorkload):
    """Dual OGD then NOGD through run_online on a9a-shaped data: the
    only workload that measures kernels, nystrom and DualModel."""

    name = "baselines-online"
    n = 8000
    floors = {"ogd": 0.70, "nogd": 0.58}

    def __init__(self, seed):
        super().__init__(seed)
        self.runs = []  # (learner, Metrics)

    def unit(self, ds, _):
        accs = []
        for learner in self.floors:
            cfg = ikeval.ProtocolConfig(
                learner=learner, t=T, b=100, r=20, psi_grid=(16, 64, 256),
                train_size=2000, block_size=1000, seed=self.seed)
            m = ikeval.run_online(ds, cfg)
            self.psis.append(m.psi)
            self.runs.append((learner, m))
            accs.append(m.final_accuracy)
        self.accuracies.append(sum(accs) / len(accs))
        return len(ds) * len(self.floors)

    def final_checks(self, ds):
        first = dict(self.runs[: len(self.floors)])
        for learner, floor in self.floors.items():
            self.check_accuracy(floor, first[learner].final_accuracy,
                                f"{learner} accuracy")
        self.check_repeatable()
        ogd, nogd = first["ogd"], first["nogd"]
        # The last read happens in the last step, before its own update.
        self.check("ogd prediction reads its whole support set",
                   0 <= ogd.updates - ogd.last_predict_ops <= 1,
                   f"{ogd.last_predict_ops} reads, {ogd.updates} SVs")
        self.check("nogd prediction reads at most r weights",
                   1 <= nogd.last_predict_ops <= 20, nogd.last_predict_ops)


WORKLOADS = {w.name: w for w in (StreamA9A, ServePoint, BatchSparseHD,
                                 BaselinesOnline)}


def _start(speed):
    """A start stamp: the clock, and the seconds calibrated so far."""
    return time.perf_counter(), speed.paused if speed else 0.0


def _stop(start, speed):
    """Wall time since ``start`` less the calibrations inside it, and the
    span ``(t0, t1)`` on the clock."""
    t1, paused = _start(speed)
    return t1 - start[0] - (paused - start[1]), (start[0], t1)


def timed_setup(wl, files, setup_s, speed=None, spans=None):
    """Set ``wl`` up from ``files``; append the time taken to ``setup_s``
    and, if given, its span on the clock to ``spans``."""
    start = _start(speed)
    state = wl.setup(files)
    wall, span = _stop(start, speed)
    setup_s.append(wall)
    if spans is not None:
        spans.append(span)
    return state


def run_timed(wl, state, seconds, units, tracer, resetup=None, speed=None):
    """Run ``units`` units, or as many as fit in ``seconds``.

    Without ``units``, no unit starts that would, at the mean unit time so
    far, end after ``seconds``; at least ``wl.min_units`` run. This keeps
    the length of a run predictable when one unit takes several seconds.
    ``resetup``, if given, repeats the set-up; it is called between units,
    so that the time share of the run it has had keeps up with the share of
    ``seconds`` gone, until SETUP_REPEATS set-ups in all (counting the one
    before this call) have run. A set-up slowed by a busy stretch of the
    host then moves the median less than a burst of them would.
    ``speed``, a started SpeedLog, has its calibrations taken out of the
    unit times. Returns per-unit wall times, points and spans on the clock,
    and the number of units that raised. The first exception ends a
    protocol workload; requests go on.
    """
    clock = time.perf_counter
    walls, points, spans, errors = [], [], [], 0
    setups = 1
    start = clock()
    i = 0
    while True:
        idx = tracer.open(wl.span) if tracer and wl.span else None
        t0 = _start(speed)
        try:
            pts = wl.unit(state, i)
        except Exception:  # a failed operation: report it and count it
            errors += 1
            if errors == 1:
                traceback.print_exc()
            if wl.span is None:
                break
        else:
            wall, span = _stop(t0, speed)
            walls.append(wall)
            points.append(pts)
            spans.append(span)
        finally:
            if idx is not None:
                tracer.close(idx)
        i += 1
        if resetup:
            share = min(1.0, (clock() - start) / seconds)
            while setups < SETUP_REPEATS and setups < 1 + (
                    SETUP_REPEATS - 1) * share:
                resetup()
                setups += 1
        if units is not None:
            if i >= units:
                break
        elif i >= wl.min_units:
            elapsed = clock() - start
            if elapsed + elapsed / i > seconds:
                break
    while resetup and setups < SETUP_REPEATS:
        resetup()
        setups += 1
    return walls, points, spans, errors


def work(spec):
    wl = WORKLOADS[spec["workload"]](spec["seed"])
    scores = ScoreCheck()
    scores.install()
    mode, files = spec["mode"], spec["files"]
    tracer = None
    if mode in ("traced", "memory"):
        tracer = Tracer(memory=mode == "memory")
        tracer.install()
    speed = resetup = None
    setup_s, setup_spans = [], []
    if mode == "measure":
        speed = SpeedLog(sorted({"python", wl.reference}))
        speed.calibrate()
        speed.start()

        def resetup():
            timed_setup(wl, files, setup_s, speed, setup_spans)
    try:
        state = timed_setup(wl, files, setup_s, speed, setup_spans)
        walls, points, spans, errors = run_timed(
            wl, state, spec["seconds"], spec["units"], tracer, resetup,
            speed)
    finally:
        if speed:
            speed.stop()
    if speed:
        speed.calibrate()
    layers = None
    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer, wl.span)
    if walls:
        wl.final_checks(state)
    if layers is not None:
        layers["featuremap.map_tie_splits"] = {
            "value": wl.tie_splits, "unit": "count"}
    return {
        "setup_s": setup_s,
        "walls": walls,
        "setup_scale": [speed.scale("python", *sp) for sp in setup_spans]
        if speed else None,
        "wall_scale": [speed.scale(wl.reference, *sp) for sp in spans]
        if speed else None,
        "reference_s": speed.refs if speed else None,
        "points": points,
        "errors": errors,
        "requests": wl.span is not None,
        "accuracy": wl.accuracy(),
        "psi": wl.psis,
        "checks": wl.checks,
        "scores": scores.scores,
        "nonfinite": scores.nonfinite,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "layers": layers,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "isokernel": os.path.dirname(isokernel.__file__),
            "ISOKERNEL_THREADS": os.environ.get("ISOKERNEL_THREADS", "unset"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


if __name__ == "__main__":
    print(json.dumps(work(json.loads(sys.argv[1]))))
