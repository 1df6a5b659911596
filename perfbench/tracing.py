"""Span tracing around the package's public entry points.

A ``Tracer`` replaces each traced callable where its callers look it up (a
module global or a class attribute) with a wrapper that records a span:
name, start, end and the index of the enclosing span. Spans stay in memory
until the run ends. The program itself is not modified; ``uninstall``
puts every original back.

Self time is a span's duration minus the part of its interval that its
child spans cover. The package runs single-threaded when
``ISOKERNEL_THREADS`` is unset, which the benchmark guarantees, so the open
spans form one stack. ``Tracer(memory=True)`` also runs ``Mapper.map_many``
under ``tracemalloc`` for its peak memory; that slows every allocation, so
the benchmark takes the peak from a pass of its own and the timings from a
pass with ``memory=False``.
"""

import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

import isokernel.dataset
import isokernel.eval
import isokernel.featuremap
import isokernel.kernels
import isokernel.learner
import isokernel.nystrom
import isokernel.partition

from stats import percentile

MB = 1 << 20

# Layers reported by the traced run, in the order of ISOKERNEL's modules.
LAYERS = ("dataset", "partition", "featuremap", "learner", "kernels",
          "nystrom", "eval")
# Partitioning schemes whose map_point latency is also reported on its own.
SCHEMES = ("iforest", "anne")

PER_LAYER = (
    # (metric name, unit)
    ("dataset.parse_lines", "count"),
    ("dataset.parse_us_per_line", "us"),
    ("dataset.dense_calls", "count"),
    ("dataset.dense_s", "s"),
    ("dataset.dense_peak_mb", "MB"),
    ("dataset.self_s", "s"),
    ("partition.build_calls", "count"),
    ("partition.build_ms_per_tree", "ms"),
    ("partition.self_s", "s"),
    ("featuremap.fit_s", "s"),
    ("featuremap.fit_self_s", "s"),
    ("featuremap.map_many_points", "count"),
    ("featuremap.map_many_us_per_point", "us"),
    ("featuremap.map_many_peak_mb", "MB"),
    ("featuremap.map_point_calls", "count"),
    ("featuremap.map_point_us_p50", "us"),
    ("featuremap.map_point_us_p99", "us"),
    ("featuremap.map_point_share", "fraction"),
    ("featuremap.map_point_iforest_us_p50", "us"),
    ("featuremap.map_point_iforest_us_p99", "us"),
    ("featuremap.map_point_anne_us_p50", "us"),
    ("featuremap.map_point_anne_us_p99", "us"),
    ("featuremap.self_s", "s"),
    ("learner.steps", "count"),
    ("learner.step_us", "us"),
    ("learner.update_ratio", "fraction"),
    ("learner.predict_many_us_per_point", "us"),
    ("learner.predict_ops_per_point", "count"),
    ("learner.self_s", "s"),
    ("kernels.evals", "count"),
    ("kernels.ns_per_eval", "ns"),
    ("kernels.self_s", "s"),
    ("nystrom.fit_s", "s"),
    ("nystrom.map_many_us_per_point", "us"),
    ("nystrom.kernel_evals", "count"),
    ("nystrom.self_s", "s"),
    ("eval.cv_s", "s"),
    ("eval.cv_fits", "count"),
    ("eval.self_s", "s"),
    # Set by the worker's output check, not by a span: the anne cells on
    # which map_point and map_many broke an exact distance tie differently.
    ("featuremap.map_tie_splits", "count"),
    ("trace.overhead_s", "s"),
)


def patch(owner, attr, make):
    """Set ``owner.attr`` to ``make(original)``; classmethods stay classmethods.

    Returns what ``unpatch`` needs to put the original back.
    """
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return owner, attr, raw


def unpatch(patched):
    """Undo ``patch`` calls, newest first."""
    while patched:
        owner, attr, raw = patched.pop()
        setattr(owner, attr, raw)


class Tracer:
    """In-memory span recorder plus per-span counters.

    With ``memory`` set, ``Mapper.map_many`` also records its peak traced
    memory, at the cost of slowing it down.
    """

    def __init__(self, clock=time.perf_counter, memory=False):
        self.clock = clock
        self.memory = memory
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.peaks = Counter()  # name -> largest value seen
        self._stack = []
        self._patched = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` feeds ``after(state, args, out)``.

        ``name`` is the span's name, or a function of the call's arguments
        that returns it.
        """

        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = self.open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                after(state, args, out)
            return out

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by its traced form."""
        self._patched.append(patch(
            owner, attr, lambda fn: self.wrap(name, fn, before, after)))

    def uninstall(self):
        unpatch(self._patched)

    def install(self):
        """Trace the public entry points of every measured layer."""
        ds, fm, lr = isokernel.dataset, isokernel.featuremap, isokernel.learner
        ev, ny = isokernel.eval, isokernel.nystrom

        def lines(_, __, out):
            self.counts["dataset.parse_lines"] += len(out)

        def dense_before(args):
            return getattr(args[0], "_dense", None) is None

        def dense_after(built, _, out):
            if built:
                self.counts["dataset.dense_calls"] += 1
                self.peaks["dataset.dense_peak_mb"] = max(
                    self.peaks["dataset.dense_peak_mb"], out.nbytes / MB)

        self.patch(ds, "load_libsvm", "dataset.load_libsvm", after=lines)
        self.patch(ds.Dataset, "dense", "dataset.dense", dense_before,
                   dense_after)

        for cls in (isokernel.partition.ITree,
                    isokernel.partition.VoronoiPartition):
            self.patch(cls, "build", "partition.build")

        def mm_before(_):
            if not self.memory:
                return None
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
            return tracing

        def mm_after(was_tracing, args, _):
            self.counts["featuremap.map_many_points"] += len(args[1])
            if not self.memory:
                return
            peak = tracemalloc.get_traced_memory()[1] / MB
            if not was_tracing:
                tracemalloc.stop()
            self.peaks["featuremap.map_many_peak_mb"] = max(
                self.peaks["featuremap.map_many_peak_mb"], peak)

        self.patch(fm.Mapper, "fit", "featuremap.fit")
        self.patch(fm.Mapper, "map_many", "featuremap.map_many", mm_before,
                   mm_after)
        self.patch(fm.Mapper, "map_point",
                   lambda args: f"featuremap.map_point.{args[0].scheme}")

        def updates_before(args):
            return args[0].updates

        def updates_after(before, args, _):
            self.counts["learner.updates"] += args[0].updates - before

        def ops_before(args):
            return args[0].total_ops

        def ops_after(before, args, _):
            self.counts["learner.predict_ops"] += args[0].total_ops - before
            self.counts["learner.predict_points"] += len(args[1])

        for cls in (lr.IKOGDModel, lr.DualModel, lr.NOGDModel):
            self.patch(cls, "step", "learner.step", updates_before,
                       updates_after)
            self.patch(cls, "predict_many", "learner.predict_many",
                       ops_before, ops_after)

        def row_evals(_, args, __):
            self.counts["kernels.evals"] += args[2].shape[0]

        def matrix_evals(_, args, __):
            self.counts["kernels.evals"] += args[1].shape[0] * args[2].shape[0]

        lap = isokernel.kernels.Laplacian
        self.patch(lap, "sparse_row_scores", "kernels.eval", after=row_evals)
        self.patch(lap, "matrix", "kernels.eval", after=matrix_evals)

        def evals_before(args):
            return args[0].kernel_evals

        def evals_after(before, args, _):
            self.counts["nystrom.kernel_evals"] += args[0].kernel_evals - before
            self.counts["nystrom.map_many_points"] += len(args[1])

        self.patch(ev, "fit_nystrom", "nystrom.fit")
        self.patch(ny.NystromMap, "map_many", "nystrom.map_many",
                   evals_before, evals_after)

        self.patch(ev, "run_online", "eval.protocol")
        self.patch(ev, "run_batch", "eval.protocol")
        self.patch(ev, "cv_select_psi", "eval.cv")
        # Private, but it is the one call per fold fit.
        self.patch(ev, "_fold_accuracy", "eval.cv_fold")


def self_times(spans):
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer, request_span=None):
    """Every PER_LAYER metric that spans give, from a finished trace.

    ``request_span`` names the benchmark's own per-request span, if the
    workload has one; ``featuremap.map_point_share`` is the share of its
    time spent inside ``map_point``.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    total = Counter()
    calls = Counter()
    own = Counter()
    durations = defaultdict(list)
    for (name, start, end, _), self_s in zip(spans, selfs):
        total[name] += end - start
        calls[name] += 1
        own[name] += self_s
        if name.startswith("featuremap.map_point."):
            durations[name].append(end - start)
    layer_self = Counter()
    for name, s in own.items():
        layer_self[name.split(".")[0]] += s

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    n = tracer.counts
    mp = [d for name in sorted(durations) for d in durations[name]]

    def p_us(samples, p):
        return percentile(samples, p) * 1e6 if samples else 0.0
    m = {
        "dataset.parse_lines": n["dataset.parse_lines"],
        "dataset.parse_us_per_line": per(
            total["dataset.load_libsvm"], n["dataset.parse_lines"], 1e6),
        "dataset.dense_calls": n["dataset.dense_calls"],
        "dataset.dense_s": total["dataset.dense"],
        "dataset.dense_peak_mb": tracer.peaks["dataset.dense_peak_mb"],
        "partition.build_calls": calls["partition.build"],
        "partition.build_ms_per_tree": per(
            total["partition.build"], calls["partition.build"], 1e3),
        "featuremap.fit_s": total["featuremap.fit"],
        "featuremap.fit_self_s": own["featuremap.fit"],
        "featuremap.map_many_points": n["featuremap.map_many_points"],
        "featuremap.map_many_us_per_point": per(
            total["featuremap.map_many"], n["featuremap.map_many_points"], 1e6),
        "featuremap.map_many_peak_mb":
            tracer.peaks["featuremap.map_many_peak_mb"],
        "featuremap.map_point_calls": len(mp),
        "featuremap.map_point_us_p50": p_us(mp, 50),
        "featuremap.map_point_us_p99": p_us(mp, 99),
        "featuremap.map_point_share": per(
            sum(mp), total[request_span]) if request_span else 0.0,
        "learner.steps": calls["learner.step"],
        "learner.step_us": per(
            total["learner.step"], calls["learner.step"], 1e6),
        "learner.update_ratio": per(n["learner.updates"],
                                    calls["learner.step"]),
        "learner.predict_many_us_per_point": per(
            total["learner.predict_many"], n["learner.predict_points"], 1e6),
        "learner.predict_ops_per_point": per(
            n["learner.predict_ops"], n["learner.predict_points"]),
        "kernels.evals": n["kernels.evals"],
        "kernels.ns_per_eval": per(
            total["kernels.eval"], n["kernels.evals"], 1e9),
        "nystrom.fit_s": total["nystrom.fit"],
        "nystrom.map_many_us_per_point": per(
            total["nystrom.map_many"], n["nystrom.map_many_points"], 1e6),
        "nystrom.kernel_evals": n["nystrom.kernel_evals"],
        "eval.cv_s": total["eval.cv"],
        "eval.cv_fits": calls["eval.cv_fold"],
    }
    for scheme in SCHEMES:
        own_mp = durations[f"featuremap.map_point.{scheme}"]
        for p in (50, 99):
            m[f"featuremap.map_point_{scheme}_us_p{p}"] = p_us(own_mp, p)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return {name: {"value": m[name], "unit": unit}
            for name, unit in PER_LAYER if name in m}
