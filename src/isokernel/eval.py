"""Experimental protocols: cross-validated sharpness selection, online
test-then-train simulation in fixed-size blocks, single-epoch batch runs,
and parameter sweeps.

All randomness flows from ``ProtocolConfig.seed``; two runs with the same
config and data produce identical Metrics except for wall times. Learners
compared under one seed consume the same shuffled stream.
"""

import csv
import json
import numbers
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate

import numpy as np

from .dataset import from_dense, kfold, shuffle, split_head, unify_dims
from .errors import ConfigError
from .featuremap import Mapper
from .kernels import Laplacian
from .learner import (
    _KINDS,
    DualModel,
    IKOGDModel,
    NOGDModel,
    dual_fold_scores,
    nystrom_fold_scores,
)
from .nystrom import fit_nystrom

SCHEMA_VERSION = 1

LEARNERS = tuple(_KINDS)

# psi search range: powers of two from 2^2 to 2^12
DEFAULT_GRID = tuple(2**m for m in range(2, 13))

# config fields that must be integers; the optional sizes may also be None
_INT_FIELDS = ("t", "b", "r", "folds", "seed", "block_size")
_OPTIONAL_SIZES = ("train_size", "cv_max_points")


@dataclass
class ProtocolConfig:
    """Everything a protocol run needs besides the data itself."""

    learner: str
    eta: float = 0.5
    t: int = 100
    b: int = 100
    r: int = 20
    psi_grid: tuple = DEFAULT_GRID
    block_size: int = 1000
    folds: int = 5
    seed: int = 0
    train_size: int | None = None  # online protocol: initial training head
    cv_max_points: int | None = None  # cap on points used for psi selection
    normalize: bool = False

    def __post_init__(self):
        if self.learner not in LEARNERS:
            raise ConfigError(
                f"unknown learner {self.learner!r}; choose from {LEARNERS}"
            )
        eta = self.eta
        if not (isinstance(eta, numbers.Real) and not isinstance(eta, bool)
                and eta > 0 and np.isfinite(eta)):
            raise ConfigError(f"eta must be a finite number > 0, got {eta!r}")
        if not isinstance(self.normalize, bool):
            raise ConfigError(f"normalize must be a bool, got {self.normalize!r}")
        if not self.psi_grid:
            raise ConfigError("psi grid must be nonempty")
        for psi in self.psi_grid:
            if isinstance(psi, bool) or not isinstance(psi, numbers.Integral):
                raise ConfigError(f"psi grid entries must be integers, got {psi!r}")
        for name in _INT_FIELDS + _OPTIONAL_SIZES:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_SIZES:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name in ("block_size",) + _OPTIONAL_SIZES:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            if value < 0 and name == "seed":  # numpy seeds are non-negative
                raise ConfigError(f"seed must be >= 0, got {value}")
        # a grid of one psi runs no folds
        if self.folds < 2 and len(set(self.psi_grid)) > 1:
            raise ConfigError("folds must be >= 2 to select psi by "
                              f"cross-validation, got {self.folds}")

    def resolved(self):
        """Full config as a plain dict (defaults included)."""
        out = asdict(self)
        out["psi_grid"] = list(self.psi_grid)
        return out


@dataclass
class Metrics:
    """Everything recorded about one protocol run.

    ``test_time`` is the seconds spent encoding the scored points and, in
    a batch run, scoring them. ``train_time`` is the seconds spent in
    ``select_and_fit`` and, in an online run, in each stream block's
    ``model.test_then_train``, which scores the block and trains on it,
    for dual OGD in one pass: an online run's ``test_time`` covers
    encoding only.
    """

    learner: str
    dataset: str
    protocol: str
    psi: int
    config: dict
    block_accuracy: list = field(default_factory=list)
    cumulative_accuracy: list = field(default_factory=list)
    final_accuracy: float | None = None
    n_predictions: int = 0
    n_correct: int = 0
    updates: int = 0
    last_predict_ops: int = 0
    total_predict_ops: int = 0
    encode_ops_per_point: int = 0
    train_time: float = 0.0
    test_time: float = 0.0
    degenerate: bool = False
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return asdict(self)

    def write_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# learner pipeline


def fit_learner(train, psi, config, seed):
    """Fit ``config.learner`` on ``train`` and train it with one pass.

    The model holds its fitted encoder (indexed features for IK-OGD,
    landmark features for NOGD, none for dual OGD, which learns on the raw
    sparse points), so it encodes its own input and a checkpoint of it
    stands alone.
    """
    if config.learner == "ogd":
        model = DualModel(Laplacian(psi, train.dim))
    elif config.learner == "nogd":
        kernel = Laplacian(psi, train.dim)
        nystrom = fit_nystrom(train, config.b, config.r, kernel, seed)
        model = NOGDModel(nystrom.effective_r, nystrom=nystrom)
    else:
        scheme = _KINDS[config.learner][2]
        mapper = Mapper.fit(train, psi, config.t, scheme, seed)
        model = IKOGDModel(config.t, psi, mapper=mapper)
    model.train_pass(model.encode(train), train.labels(), config.eta)
    return model


def select_and_fit(cv_set, train, config):
    """``(psi, model, seconds)``: psi selected by cross-validation on
    ``cv_set``, the model ``fit_learner`` fits and trains on ``train`` at
    that psi, and the seconds both took."""
    t0 = time.perf_counter()
    psi = cv_select_psi(cv_set, config)
    model = fit_learner(train, psi, config, (config.seed, 229))
    return psi, model, time.perf_counter() - t0


def _needs_psi_sample(learner):
    return _KINDS[learner][2] is not None  # an IK scheme samples psi points


# ---------------------------------------------------------------------------
# optional per-attribute min-max scaling (off by default)


def minmax_scale(train, other):
    """``train`` and ``other`` with each attribute mapped by train's range
    onto [0, 1] (a constant attribute only shifts); each is densified
    once."""
    X, Y = train.dense(), other.dense()
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return (from_dense((X - lo) / span, train.labels(), train.name),
            from_dense((Y - lo) / span, other.labels(), other.name))


# ---------------------------------------------------------------------------
# protocols


def _n_correct(scores, labels):
    """How many scores predict their label (ties at zero predict +1)."""
    return int(np.count_nonzero((scores >= 0) == (labels > 0)))


def _frozen_scores(model, dataset):
    """Scores of ``dataset``'s points by the frozen ``model``."""
    return model.predict_many(model.encode(dataset))


def _test_then_train(model, blocks, eta):
    """Score each of ``blocks``, Datasets, with the latest model, then
    train on it, by ``model.test_then_train``, which may score and train in
    one pass (dual OGD's test scores are prefix dots of its steps' kernel
    rows).

    Returns ``(counts, test_time, train_time)``: the ``(correct, points)``
    of each block, and the seconds spent encoding and those spent in
    ``test_then_train``.
    """
    counts, test_time, train_time = [], 0.0, 0.0
    for block in blocks:
        t0 = time.perf_counter()
        encoded = model.encode(block)
        t1 = time.perf_counter()
        test_time += t1 - t0
        scores = model.test_then_train(encoded, block.labels(), eta)
        train_time += time.perf_counter() - t1
        counts.append((_n_correct(scores, block.labels()), len(block)))
    return counts, test_time, train_time


def _metrics(config, model, encoded_points, **fields):
    """Metrics of a finished run: ``fields`` plus the model's counters."""
    encoder = model.encoder
    return Metrics(
        learner=config.learner,
        config=config.resolved(),
        updates=model.updates,
        last_predict_ops=model.last_predict_ops,
        total_predict_ops=model.total_ops,
        encode_ops_per_point=(
            0 if encoder is None else encoder.encode_ops // encoded_points
        ),
        **fields,
    )


def _fold_scores(folds, psis, config, seeds):
    """``scores[g][i]``: validation fold i's scores by the model
    ``fit_learner`` fits on fold i's training rows at ``psis[g]`` with
    ``seeds[i]``, bit for bit. Dual OGD trains every psi and fold in one
    pass, by ``dual_fold_scores``, and NOGD takes each fold's landmark
    distances once for every psi, by ``nystrom_fold_scores``; the IK
    learners fit and score one model at a time, psi by psi."""
    if _needs_psi_sample(config.learner):
        return [[_frozen_scores(fit_learner(ft, psi, config, seed), fv)
                 for seed, (ft, fv) in zip(seeds, folds)] for psi in psis]
    kernels = [Laplacian(psi, folds[0][1].dim) for psi in psis]
    if config.learner == "ogd":
        return dual_fold_scores([fv for _, fv in folds], kernels, config.eta)
    return nystrom_fold_scores(folds, kernels, config.b, config.r, config.eta,
                               seeds)


def _fold_accuracy(scores, fold):
    """Accuracy of one (psi, fold) model's ``scores`` of ``fold``."""
    return _n_correct(scores, fold.labels()) / len(fold)


def cv_select_psi(train, config):
    """Mean validation accuracy over k folds for each grid psi; argmax.

    Ties break to the smallest psi. Grid values demanding a larger sample
    than a training fold provides are skipped with a warning; if that skips
    everything the configuration is unusable. With a single-element grid the
    choice is forced and no folds are run. Every learner's folds are scored
    by ``_fold_scores``, as one model per psi and fold.
    """
    grid = sorted(set(config.psi_grid))
    if len(grid) == 1:
        return grid[0]
    folds = _cv_folds(train, config)
    min_fold_train = min(len(ft) for ft, _ in folds)

    usable = []
    for psi in grid:
        if _needs_psi_sample(config.learner) and psi > min_fold_train:
            warnings.warn(
                f"psi={psi} exceeds fold-train size {min_fold_train}; skipped"
            )
            continue
        usable.append(psi)
    if not usable:
        raise ConfigError("every grid psi exceeds the fold-train size")

    seeds = [(config.seed, 227, i) for i in range(len(folds))]
    scores = _fold_scores(folds, usable, config, seeds)
    accs = [np.mean([_fold_accuracy(s, fv) for s, (_, fv) in zip(row, folds)])
            for row in scores]
    return usable[int(np.argmax(accs))]  # the first max: the smallest psi


def _cv_folds(train, config):
    """The ``kfold`` pairs ``cv_select_psi`` validates on: of ``train``,
    or of a seeded sample of ``config.cv_max_points`` of its points."""
    if len(train) < config.folds:
        raise ConfigError(
            f"need at least {config.folds} points for {config.folds}-fold CV"
        )
    cv_ds = train
    if config.cv_max_points is not None and len(train) > config.cv_max_points:
        cv_ds, _ = split_head(
            shuffle(train, (config.seed, 211)), config.cv_max_points
        )
    return kfold(cv_ds, config.folds, (config.seed, 223))


def run_online(dataset, config):
    """Test-then-train simulation over a shuffled stream.

    The head of the stream (``config.train_size`` points) selects psi by
    cross-validation, fits the feature map or landmarks, and trains the
    initial model. The rest arrives in blocks: every block is first
    predicted with the latest model, then used to update it. Cumulative
    accuracy is recorded after each block.
    """
    if config.train_size is None:
        raise ConfigError("online protocol requires train_size")
    if config.train_size >= len(dataset):
        raise ConfigError(
            f"train_size {config.train_size} leaves no stream "
            f"(dataset has {len(dataset)} points)"
        )
    ds = shuffle(dataset, config.seed)
    head, tail = split_head(ds, config.train_size)
    if config.normalize:
        head, tail = minmax_scale(head, tail)

    psi, model, train_time = select_and_fit(head, head, config)
    size = config.block_size
    blocks = (tail.subset(np.arange(lo, min(lo + size, len(tail))))
              for lo in range(0, len(tail), size))
    counts, test_time, stream_time = _test_then_train(model, blocks,
                                                      config.eta)
    correct, seen = (list(accumulate(column)) for column in zip(*counts))

    return _metrics(
        config,
        model,
        len(ds),
        dataset=dataset.name,
        protocol="online",
        psi=psi,
        block_accuracy=[c / n for c, n in counts],
        cumulative_accuracy=[c / n for c, n in zip(correct, seen)],
        final_accuracy=correct[-1] / seen[-1],
        n_predictions=seen[-1],
        n_correct=correct[-1],
        train_time=train_time + stream_time,
        test_time=test_time,
        degenerate=len(tail) < size,
    )


def run_batch(train, test, config):
    """Single train-and-test trial: one online epoch, then a frozen test.

    psi is selected by cross-validation on the training set, the model is
    trained in one pass over a seeded shuffle of it, and accuracy is
    measured on the untouched test set.
    """
    if len(train) == 0 or len(test) == 0:
        raise ConfigError("batch protocol needs nonempty train and test sets")
    train, test = unify_dims(train, test)
    if config.normalize:
        train, test = minmax_scale(train, test)

    psi, model, train_time = select_and_fit(
        train, shuffle(train, config.seed), config)
    t0 = time.perf_counter()
    scores = _frozen_scores(model, test)
    test_time = time.perf_counter() - t0
    correct, n = _n_correct(scores, test.labels()), len(test)

    return _metrics(
        config,
        model,
        len(train) + n,
        dataset=f"{train.name}->{test.name}",
        protocol="batch",
        psi=psi,
        final_accuracy=correct / n,
        n_predictions=n,
        n_correct=correct,
        train_time=train_time,
        test_time=test_time,
    )


SWEEP_AXES = ("t", "psi", "b")


def sweep(axis, values, config, train, test):
    """One batch run per value of the swept parameter, sharing all seeds."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one value")

    runs = []
    for value in values:
        value = int(value)
        change = {"psi_grid": (value,)} if axis == "psi" else {axis: value}
        runs.append(run_batch(train, test, replace(config, **change)))
    return runs


# ---------------------------------------------------------------------------
# metric emission


RUN_CSV_FIELDS = [
    "schema_version",
    "learner",
    "dataset",
    "protocol",
    "psi",
    "t",
    "b",
    "final_accuracy",
    "n_predictions",
    "updates",
    "last_predict_ops",
    "total_predict_ops",
    "encode_ops_per_point",
    "train_time",
    "test_time",
    "degenerate",
]


def write_runs_csv(path, metrics_list):
    """One CSV row per run."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_CSV_FIELDS)
        writer.writeheader()
        for m in metrics_list:
            row = {k: getattr(m, k) for k in RUN_CSV_FIELDS if hasattr(m, k)}
            row["t"] = m.config["t"]
            row["b"] = m.config["b"]
            writer.writerow(row)


def write_blocks_csv(path, metrics):
    """One CSV row per stream block of an online run."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["schema_version", "block", "block_accuracy", "cumulative_accuracy"]
        )
        for i, (ba, ca) in enumerate(
            zip(metrics.block_accuracy, metrics.cumulative_accuracy)
        ):
            writer.writerow([metrics.schema_version, i, ba, ca])


# ---------------------------------------------------------------------------
# synthetic task used by tests and bundled sample data


def make_two_gaussians(n, dim, separation, seed, name="two-gaussians"):
    """Balanced two-class dataset: spherical Gaussians ``separation`` apart."""
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1, 1], size=n)
    offset = separation / (2.0 * np.sqrt(dim))
    X = rng.standard_normal((n, dim)) + labels[:, None] * offset
    return from_dense(X, labels, name)
