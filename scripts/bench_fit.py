"""Time ``Mapper.fit`` in process, in ms per partitioning, a map's
encoder, ``load_libsvm``, the baselines' kernel scoring, dual OGD's
online pass, and every learner's cross-validation.

    python3 scripts/bench_fit.py [--repeats 3] [--shapes dense-64,crit6]

Each fit shape fits ``t`` partitionings of its scheme from ``psi``
points on a fixed-seed dataset from ``perfbench/gen.py``; the best of
``--repeats`` fits is reported. iforest shapes: dense d=20 (serve-point's
2000-point head) at psi 64 and 256, sparse-hd (d=20000, 20 nonzeros per
row) at psi 64 and 256, a9a-shaped rows (the stream-a9a workload's data:
123 binary columns, 14 ones per row) at its CV grid's psi 16, 64 and 256,
and acceptance criterion 6's t=1000, psi=256, d=2 uniform pool. The
``anne-`` shapes fit anne maps on the dense and the sparse-hd data at
psi=64, t=100 (batch-sparse-hd's map). An ``encode-`` shape fits one
map and times its encoder instead: the p50 of ``map_point`` over
``ENCODE_POINTS`` points, and ``map_many`` of all of them in us per
point, each the best of ``--repeats``. ``encode-dense-64`` times an
iforest map; ``encode-anne-dense-64`` and ``encode-anne-sparse-hd-64``
time the anne maps of the ``anne-`` shapes, whose centres form a
``CentreStack`` and a ``CentreIndex``. A ``parse-`` shape writes a workload's LIBSVM file with
``perfbench/gen.py`` to a temporary directory and reports the best of
``--repeats`` loads in us per line, and the traced peak of one more load
(serve-point's 10000 dense lines, batch-sparse-hd's 2000 training lines,
baselines-online's 8000 a9a-shaped lines). A ``score-`` shape scores
baselines-online's a9a-shaped rows under its Laplacian kernel (psi=64)
against ``stored`` rows, each figure the best of ``--repeats``: for dual
OGD with that many support vectors, the p50 of ``predict`` (the step
path) over ``ENCODE_POINTS`` points and ``encode`` then ``predict_many``
of a 1000-point block in us per point; for NOGD with that many landmarks
(r=20), the p50 of ``map_point``, ``map_many`` of the block in us per
point, and ``fit_nystrom`` in ms. A ``stream-dual-`` shape times dual
OGD's online pass over one 1000-point block of those rows, ``encode``
then ``test_then_train``, against that many support vectors, in us per
point, the best of ``--repeats`` passes, each from a fresh model. The
``cv-`` shapes time ``cv_select_psi`` for dual OGD, NOGD (b=100, r=20)
and IK-OGD over iforest and over anne maps (t=100) on baselines-online's
head (the first 2000 of its 8000 a9a-shaped rows, seed 301, as
``run_online`` shuffles them), grid (16, 64, 256), 5 folds: the best of
``--repeats`` runs in s, and the traced peak of one more in MB. The
``cv-iforest`` and ``cv-anne`` shapes fit and score one map per psi and
fold, the CV path that no benchmark workload runs. The package and the
generators are imported from the checkout that holds this script, so a
copy of it in another checkout times that checkout's code.

The ``score-``, ``stream-`` and ``cv-`` figures depend on the process's
memory layout as well as on the code: on identical code,
``score-dual-50``'s ``encode`` then ``predict_many`` has read 1.6 us
per point in one process and 3.2 in another, whose only difference was
the other shapes run or the size of the environment, and each reading
repeated from run to run. So compare two commits only with both
packages loaded in one process, or with paired runs over several
layouts (say, environments of different sizes), never by one run of
each.
"""
import argparse
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from isokernel.dataset import (  # noqa: E402
    Dataset, LabeledPoint, SparseVector, load_libsvm, shuffle, split_head,
)
from isokernel.eval import ProtocolConfig, cv_select_psi  # noqa: E402
from isokernel.featuremap import Mapper  # noqa: E402
from isokernel.kernels import Laplacian  # noqa: E402
from isokernel.learner import DualModel  # noqa: E402
from isokernel.nystrom import fit_nystrom  # noqa: E402


def dataset(labels, rows, dim):
    return Dataset([LabeledPoint(SparseVector(idx, vals, dim), int(c))
                    for c, (idx, vals) in zip(labels, rows)], dim=dim)


def dense():
    return dataset(*gen.two_gaussians(2000, 20, 3.0, 301), 20)


def sparse_hd():
    return dataset(*gen.sparse_hd(2000, 221), 20000)


def a9a():
    return dataset(*gen.a9a_like(2000, 301), gen.A9A_DIM)


def uniform_2d():
    X = np.random.default_rng(1006).uniform(size=(2000, 2)) + 1e-12
    return dataset(np.ones(len(X)), [([1, 2], row) for row in X], 2)


# name: (data, psi, t, scheme)
SHAPES = {
    "dense-64": (dense, 64, 100, "iforest"),
    "dense-256": (dense, 256, 100, "iforest"),
    "sparse-hd-64": (sparse_hd, 64, 100, "iforest"),
    "sparse-hd-256": (sparse_hd, 256, 20, "iforest"),
    "a9a-16": (a9a, 16, 100, "iforest"),
    "a9a-64": (a9a, 64, 100, "iforest"),
    "a9a-256": (a9a, 256, 100, "iforest"),
    "crit6": (uniform_2d, 256, 1000, "iforest"),
    "anne-dense-64": (dense, 64, 100, "anne"),
    "anne-sparse-hd-64": (sparse_hd, 64, 100, "anne"),
    "encode-dense-64": (dense, 64, 100, "iforest"),
    "encode-anne-dense-64": (dense, 64, 100, "anne"),
    "encode-anne-sparse-hd-64": (sparse_hd, 64, 100, "anne"),
}
ENCODE_POINTS = 500
# name: the labels and rows of a workload's LIBSVM file
PARSE_SHAPES = {
    "parse-dense": lambda: gen.two_gaussians(10000, 20, 3.0, 221),
    "parse-sparse-hd": lambda: gen.sparse_hd(2000, 221),
    "parse-a9a": lambda: gen.a9a_like(8000, 221),
}
# name: (learner, stored rows: support vectors or landmarks)
SCORE_SHAPES = {
    "score-dual-50": ("ogd", 50),
    "score-dual-1000": ("ogd", 1000),
    "score-nogd": ("nogd", 100),
}
SCORE_BLOCK_POINTS = 1000
# name: support vectors when the block arrives
STREAM_SHAPES = {
    "stream-dual-1000": 1000,
    "stream-dual-4000": 4000,
}
# name: the learner whose cross-validation is timed
CV_SHAPES = {
    "cv-dual": "ogd",
    "cv-nogd": "nogd",
    "cv-iforest": "ik-ogd-iforest",
    "cv-anne": "ik-ogd-anne",
}


def time_fit(ds, psi, t, scheme, repeats):
    """Best wall time of ``repeats`` fits, in ms per partitioning and in
    s."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        Mapper.fit(ds, psi, t, scheme, 7)
        best = min(best, time.perf_counter() - start)
    return best / t * 1e3, best


def time_encode(ds, psi, t, scheme, repeats):
    """Best ``map_point`` p50 and best ``map_many`` cost, both in us per
    point, of one map over the first ``ENCODE_POINTS`` points."""
    mapper = Mapper.fit(ds, psi, t, scheme, 7)
    head = ds.subset(range(ENCODE_POINTS))
    point = many = float("inf")
    for _ in range(repeats):
        walls = []
        for p in head:
            start = time.perf_counter()
            mapper.map_point(p.x)
            walls.append(time.perf_counter() - start)
        point = min(point, float(np.median(walls)) * 1e6)
        start = time.perf_counter()
        mapper.map_many(head)
        many = min(many, (time.perf_counter() - start) / len(head) * 1e6)
    return point, many


def time_parse(labels, rows, repeats):
    """Best ``load_libsvm`` cost in us per line of the file of ``labels``
    and ``rows``, and the traced peak of one more load in MB."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.libsvm")
        gen.write_libsvm(path, labels, rows)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            load_libsvm(path)
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        load_libsvm(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return best / len(labels) * 1e6, peak / 2**20


def best_p50(score, points, repeats):
    """Best over ``repeats`` of the median wall time of ``score(x)`` over
    ``points``, in us."""
    best = float("inf")
    for _ in range(repeats):
        walls = []
        for x in points:
            start = time.perf_counter()
            score(x)
            walls.append(time.perf_counter() - start)
        best = min(best, float(np.median(walls)))
    return best * 1e6


def best_wall(call, repeats):
    """Best wall time of ``repeats`` calls of ``call()``, in s."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def stored_and_block(stored):
    """``stored`` a9a-shaped rows, then a ``SCORE_BLOCK_POINTS``-point
    block of them."""
    ds = dataset(*gen.a9a_like(stored + SCORE_BLOCK_POINTS, 301), gen.A9A_DIM)
    return ds.subset(range(stored)), ds.subset(range(stored, len(ds)))


def dual_model(train):
    """A dual OGD model under the ``score-`` kernel whose support vectors
    are the points of ``train``."""
    model = DualModel(Laplacian(64, train.dim))
    for p in train:
        model._update(p.x, p.c, 0.5)
    return model


def time_score(learner, stored, repeats):
    """``(one point us, block us/pt, fit ms)`` of a ``SCORE_SHAPES``
    shape; the fit is None for dual OGD, which fits nothing."""
    train, block = stored_and_block(stored)
    points = block.rows.vectors()
    if learner == "ogd":
        # as the protocol scores a block: encoded by the model, which gives
        # its Rows, then scored from their packing
        model = dual_model(train)
        one, fit = model.predict, None

        def many(block):
            return model.predict_many(model.encode(block))
    else:
        kernel = Laplacian(64, train.dim)
        nm = fit_nystrom(train, stored, 20, kernel, 7)
        one, many = nm.map_point, nm.map_many
        fit = best_wall(lambda: fit_nystrom(train, stored, 20, kernel, 7),
                        repeats) * 1e3
    point = best_p50(one, points[:ENCODE_POINTS], repeats)
    per_point = best_wall(lambda: many(block), repeats) / len(points) * 1e6
    return point, per_point, fit


def time_stream(stored, repeats):
    """Best cost, in us per point, of ``repeats`` online passes of dual OGD
    over one block, each from a fresh model of ``stored`` support
    vectors."""
    train, block = stored_and_block(stored)
    best = float("inf")
    for _ in range(repeats):
        model = dual_model(train)
        start = time.perf_counter()
        model.test_then_train(model.encode(block), block.labels(), 0.5)
        best = min(best, time.perf_counter() - start)
    return best / len(block) * 1e6


def time_cv(learner, repeats):
    """Best wall time in s of ``repeats`` runs of ``learner``'s
    ``cv_select_psi`` on baselines-online's head, and the traced peak of
    one more in MB."""
    config = ProtocolConfig(learner=learner, t=100, b=100, r=20,
                            psi_grid=(16, 64, 256), folds=5,
                            train_size=2000, seed=301)
    ds = dataset(*gen.a9a_like(8000, config.seed), gen.A9A_DIM)
    head, _ = split_head(shuffle(ds, config.seed), config.train_size)
    best = best_wall(lambda: cv_select_psi(head, config), repeats)
    tracemalloc.start()
    cv_select_psi(head, config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return best, peak / 2**20


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    every = [*SHAPES, *PARSE_SHAPES, *SCORE_SHAPES, *STREAM_SHAPES,
             *CV_SHAPES]
    ap.add_argument("--shapes", default=",".join(every),
                    help="comma list of " + ", ".join(every))
    args = ap.parse_args(argv)
    names = args.shapes.split(",")
    # one table of the fit shapes, then one of the encode shapes
    for timer, columns in ((time_fit, "ms/partitioning | fit s"),
                           (time_encode, "map_point p50 us | map_many us/pt")):
        chosen = [name for name in names if name in SHAPES
                  and name.startswith("encode-") == (timer is time_encode)]
        if chosen:
            print(f"| shape | psi | t | {columns} |\n|---|---|---|---|---|")
        for name in chosen:
            data, psi, t, scheme = SHAPES[name]
            a, b = timer(data(), psi, t, scheme, args.repeats)
            print(f"| {name} | {psi} | {t} | {a:.3f} | {b:.3f} |", flush=True)
    parse = [name for name in names if name in PARSE_SHAPES]
    if parse:
        print("| shape | lines | load us/line | peak MB |\n|---|---|---|---|")
    for name in parse:
        labels, rows = PARSE_SHAPES[name]()
        us, mb = time_parse(labels, rows, args.repeats)
        print(f"| {name} | {len(labels)} | {us:.2f} | {mb:.2f} |", flush=True)
    score = [name for name in names if name in SCORE_SHAPES]
    if score:
        print("| shape | stored | one point p50 us | block us/pt | fit ms |"
              "\n|---|---|---|---|---|")
    for name in score:
        learner, stored = SCORE_SHAPES[name]
        one, many, fit = time_score(learner, stored, args.repeats)
        fit = "-" if fit is None else f"{fit:.2f}"
        print(f"| {name} | {stored} | {one:.2f} | {many:.2f} | {fit} |",
              flush=True)
    stream = [name for name in names if name in STREAM_SHAPES]
    if stream:
        print("| shape | stored | test-then-train us/pt |\n|---|---|---|")
    for name in stream:
        stored = STREAM_SHAPES[name]
        us = time_stream(stored, args.repeats)
        print(f"| {name} | {stored} | {us:.2f} |", flush=True)
    cv = [name for name in names if name in CV_SHAPES]
    if cv:
        print("| shape | points | CV s | peak MB |\n|---|---|---|---|")
    for name in cv:
        s, mb = time_cv(CV_SHAPES[name], args.repeats)
        print(f"| {name} | 2000 | {s:.3f} | {mb:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
