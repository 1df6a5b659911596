"""Online learners: dual-form OGD, primal IK-OGD, and NOGD.

All three use the hinge loss: a point with label c and score f violates the
margin when c*f < 1, and only then is the model updated with step size eta
(the update coefficient applied per support vector is eta * c). Scores tie
at zero predict +1.

Models track operation counters so prediction cost can be asserted without
wall clocks: the dual model counts kernel evaluations (grows with the
support set), the primal models count weight reads (constant per
prediction).
"""

import numpy as np

from .dataset import (
    Rows,
    _checked,
    by_prefix,
    load_npz,
    pack_ragged,
    save_npz,
    unpack_ragged,
)
from .errors import ParameterError, ProvenanceError, ShapeError
from .featuremap import Mapper
from .kernels import RowStore, make_kernel
from .nystrom import NystromMap, nystrom_features

FORMAT_VERSION = 4


def predict_label(score):
    """Class decision from a real score; ties at zero go to +1."""
    return 1 if score >= 0 else -1


def margin_violated(score, c):
    """Hinge-loss subgradient is nonzero iff c*score < 1 (strict)."""
    return c * score < 1.0


class FeatureMatchKernel:
    """The linear kernel <Phi f, Phi g> / t on the exact feature map: the
    fraction of partitionings on which two indexed features agree, each
    given as its ``featuremap.sparse_feature``, t ones.

    Lets a dual model run on mapped features, mirroring the primal model's
    kernel exactly. It only scores a block against a ``RowStore``; the
    value of one pair is ``featuremap.kernel``.
    """

    name = "feature-match"

    def __init__(self, t):
        self.t = self.dim = t  # a feature's largest attribute is at least t

    def row_norm(self, values):
        """Unused by the scorer; checks the length of a stored feature."""
        if values.size != self.t:
            raise ProvenanceError("feature length does not match kernel t")
        return 0.0

    def sparse_row_scores(self, x, F, norms):
        """k(f, g) for every feature f of a block and every stored feature
        g, a row of the column-major store F, as an (m, n) array: the sum of
        g's entries at f's t columns, over t. x is ``(columns, values,
        offsets)``, feature i's at ``offsets[i]:offsets[i + 1]``, and every
        value is 1; ``norms`` is unused."""
        at, _, offsets = x
        if (np.diff(offsets) != self.t).any():
            raise ProvenanceError("feature length does not match kernel t")
        cols = F.T[at].reshape(offsets.size - 1, self.t, F.shape[0])
        return cols.sum(axis=1) / self.t


class _Model:
    """The hinge step, the counters every model keeps, and persistence for
    a model whose whole state is its weight array ``w``. A model scores one
    point and a batch through its one ``_scores``.

    ``last_predict_ops`` and ``total_ops`` count kernel evaluations (dual)
    or weight reads (primal). ``encoder`` is the fitted map that turns raw
    points into the model's features, or None when it learns on raw points.
    """

    encoder = None

    def __init__(self):
        self.updates = 0
        self.last_predict_ops = 0
        self.total_ops = 0

    def _count(self, points, ops):
        """Record ``points`` predictions costing ``ops`` operations each."""
        self.last_predict_ops = ops
        self.total_ops += ops * points

    def encode(self, dataset):
        """What ``step`` and ``predict_many`` take of ``dataset``'s points:
        the encoder's ``map_many`` of them, or their ``Rows``, a sequence of
        SparseVector views, when the model learns on raw points."""
        if self.encoder is None:
            return dataset.rows
        return self.encoder.map_many(dataset)

    def predict(self, x):
        """Score of one point."""
        return float(self._scores(x))

    def predict_many(self, points):
        """Scores of many points against the frozen model."""
        return self._scores(points)

    def step(self, x, c, eta):
        """Predict, then on a margin violation apply the model's own
        ``_update(x, c, eta)``; returns the score."""
        score = self.predict(x)
        if margin_violated(score, c):
            self._update(x, c, eta)
            self.updates += 1
        return score

    def train_pass(self, points, labels, eta):
        """One ``step`` on each of ``points``, with its label in
        ``labels``, in order."""
        for x, c in zip(points, labels):
            self.step(x, int(c), eta)

    def test_then_train(self, points, labels, eta):
        """Scores of ``points`` against the model as it stands, then a
        ``train_pass`` over them."""
        scores = self.predict_many(points)
        self.train_pass(points, labels, eta)
        return scores

    def state(self):
        """(meta, arrays) from which ``from_state`` rebuilds the model."""
        return {"updates": self.updates}, {"w": self.w}

    @classmethod
    def from_state(cls, meta, arrays, encoder):
        # a primal model is sized by its encoder's ``_dims``, and its saved
        # weights must fit them: at a flat offset, IK-OGD would read a cell
        # past psi from the next partitioning
        dims = {name: getattr(encoder, name) for name in cls._dims}
        model = cls(*dims.values(), encoder)
        if arrays["w"].shape != model.w.shape:
            sizes = ", ".join(f"{name}={n}" for name, n in dims.items())
            raise ValueError(f"weights of shape {arrays['w'].shape} for a "
                             f"map of {sizes}")
        # contiguous, so that IKOGDModel's flat view of w is no copy
        model.w = np.ascontiguousarray(_checked("w", arrays["w"]))
        model.updates = meta["updates"]
        return model


class DualModel(_Model):
    """Support-vector model with f(x) = sum_i alpha_i c_i k(x_i, x).

    The support set grows without budget; prediction cost is one kernel
    evaluation per support vector. A point is a SparseVector, and a batch
    a ``Rows`` or a list of them. The support vectors are ascending rows
    ``_ids`` of a ``RowStore``, the model's own or ``store``, shared by
    models whose kernels differ from its kernel in scale alone.
    """

    def __init__(self, kernel_fn, store=None):
        super().__init__()
        self.kernel = kernel_fn
        self._store = RowStore(kernel_fn) if store is None else store
        self._own = store is None  # then the ids are 0, 1, 2, ...
        self._cs = []  # the support vectors' labels
        # their store rows and alpha_i * c_i, the first len(self) entries
        self._ids, self._coeffs = np.empty(0, dtype=np.intp), np.empty(0)
        self._last = None  # the point last predicted, and its kernel row

    def __len__(self):
        return len(self._cs)

    @property
    def svs(self):
        """``(point, c, alpha)`` of each support vector in arrival order."""
        points = self._store.rows(self._ids[:len(self)], self.kernel.dim)
        return list(zip(points, self._cs,
                        (self._coeffs[:len(self)] * self._cs).tolist()))

    def _add(self, at, c, alpha):
        """Take the store's row ``at`` with label c and weight alpha."""
        n = len(self._cs)
        if n == self._ids.size:
            self._ids = np.resize(self._ids, max(256, 2 * n))
            self._coeffs = np.resize(self._coeffs, max(256, 2 * n))
        self._ids[n], self._coeffs[n] = at, alpha * c
        self._cs.append(c)

    def _update(self, point, c, alpha):
        """Add ``point`` as a support vector with label c and weight alpha."""
        self._add(self._store.n, c, alpha)
        self._store.append(point.indices, point.values)

    def _scores_by(self, n, x, K=None):
        """Scores of the flat ragged rows x by the first n support vectors,
        as a store of just those rows sums them: the dots of their columns
        of K, x's kernel rows against the whole store, with their weights;
        but a single row sums a point's terms pairwise, so at one support
        vector, and without K, x is scored against the n rows themselves."""
        if K is None or n <= 1 < K.shape[1]:
            rows = None if n == self._store.n else self._ids[:n]
            return self._store.scores(*x, self._coeffs[:n], rows,
                                      self.kernel.sparse_row_scores)
        if n < K.shape[1]:
            K = K[:, :n] if self._own else K.take(self._ids[:n], 1)
        return np.vecdot(K, self._coeffs[:n])

    def predict(self, x):
        """Score of one point, as a block of one."""
        n = len(self)
        x = x.indices, x.values, np.array([0, x.values.size])
        self._count(1, n)
        [K] = self._store.blocks(*x, self.kernel.sparse_row_scores)
        self._last = x, K
        return float(self._scores_by(n, x, K)[0])

    def _scores(self, points):
        """Scores of points, each costing len(self) kernel evaluations."""
        x = Rows.of(points).ragged()
        self._count(x[2].size - 1, len(self))
        return self._scores_by(len(self), x)

    def test_then_train(self, points, labels, eta):
        """As ``_Model.test_then_train``, but each point is scored once:
        its test score is ``_scores_by`` the block's first ``mark`` support
        vectors of the kernel row its ``step`` keeps."""
        mark = len(self)
        self._count(len(points), mark)
        scores = np.empty(len(points))
        for i, (x, c) in enumerate(zip(points, labels)):
            self.step(x, int(c), eta)
            scores[i] = self._scores_by(mark, *self._last)[0]
        return scores

    def state(self):
        if not hasattr(self.kernel, "params"):  # make_kernel cannot rebuild it
            raise ParameterError(f"a dual model over a {self.kernel.name} "
                                 "kernel cannot be checkpointed")
        rows = self._store.rows(self._ids[:len(self)], self.kernel.dim)
        meta = {"kernel": self.kernel.params(), "dim": rows.dim,
                "updates": self.updates}
        arrays = pack_ragged(rows)
        arrays["cs"] = np.array(self._cs)
        arrays["alphas"] = self._coeffs[:len(self)] * arrays["cs"]
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays, encoder=None):
        model = cls(make_kernel(meta["kernel"]))
        cs = _checked("cs", arrays["cs"], lambda c: np.abs(c) == 1)
        for point, c, alpha in zip(unpack_ragged(arrays, meta["dim"]), cs,
                                   _checked("alphas", arrays["alphas"])):
            model._update(point, int(c), float(alpha))
        model.updates = meta["updates"]
        return model


def dual_fold_scores(folds, kernels, eta):
    """Validation scores of dual OGD over each of ``kernels`` for each of
    k ``folds``, datasets of raw points: ``scores[g][i]`` are fold i's
    points' scores by ``DualModel(kernels[g])`` after ``train_pass`` over
    the other folds' points in fold order (the training rows ``kfold``
    gives fold i), then ``predict_many``, bit for bit.

    The kernels are stationary and differ in scale alone, so every model
    shares one ``RowStore`` and trains in one walk over the folds' points.
    Each point's distances to the store are taken once and scaled once
    per kernel, and each model whose fold trains on the point scores it
    from them. A row is stored once, when the first model takes it. Each
    fold is then scored the same way, a block at a time.
    """
    store = RowStore(kernels[0])
    distances = store.kernel.sparse_row_distances
    models = [[DualModel(kernel, store) for _ in folds] for kernel in kernels]
    indices, values, offsets = Rows.concat([f.rows for f in folds]).ragged()
    bounds = offsets.tolist()
    labels = np.concatenate([f.labels() for f in folds]).tolist()
    fold_of = np.repeat(np.arange(len(folds)), [len(f) for f in folds])
    for p, (c, i) in enumerate(zip(labels, fold_of.tolist())):
        lo, hi = bounds[p], bounds[p + 1]
        x = indices[lo:hi], values[lo:hi], np.array([0, hi - lo])
        [dist] = store.blocks(*x, distances)
        K = np.empty_like(dist)
        taken = False
        for kernel, row in zip(kernels, models):
            kernel.of_distances(dist, out=K)
            for j, model in enumerate(row):  # ``step`` from K
                if j != i and margin_violated(
                        float(model._scores_by(len(model._cs), x, K)[0]), c):
                    model._add(store.n, c, eta)
                    model.updates += 1
                    taken = True
        if taken:
            store.append(*x[:2])

    scores = [[np.empty(len(f)) for f in folds] for _ in kernels]
    for i, fold in enumerate(folds):
        indices, values, offsets = fold.rows.ragged()
        bounds, lo = offsets.tolist(), 0
        for dist in store.blocks(indices, values, offsets, distances):
            hi = lo + dist.shape[0]
            a, b = bounds[lo], bounds[hi]
            x = indices[a:b], values[a:b], offsets[lo:hi + 1] - a
            K = np.empty_like(dist)
            for kernel, row, out in zip(kernels, models, scores):
                out[i][lo:hi] = row[i]._scores_by(
                    len(row[i]._cs), x, kernel.of_distances(dist, out=K))
            lo = hi
    return scores


class IKOGDModel(_Model):
    """Primal model over indexed features: f = <w, Phi> / t.

    The weight update on violation adds eta*c at the t cells the feature
    indexes, which is exactly the dual update expressed through the feature
    map; prediction reads t weights regardless of psi or update count.
    Both read the weights through their flat offsets in ``w``: the
    package's one dot product and update on indexed features.

    A feature that is not t integer cell ids raises ``ProvenanceError``.
    That each id lies in ``[0, psi)`` is not checked, since the check
    costs half a ``predict`` at t=100: an id of psi or more, or below 0,
    reads or updates another partitioning's weight (or, past either end of
    ``w``, raises numpy's ``IndexError``). A feature of the model's own
    map always lies in range.
    """

    _dims = ("t", "psi")

    def __init__(self, t, psi, mapper=None):
        super().__init__()
        self.t = t
        self.psi = psi
        self.encoder = mapper
        self.w = np.zeros((t, psi))
        # the flat offset in w of partitioning i's cell 0
        self._at = np.arange(t) * psi

    def _scores(self, F):
        """Score of a feature, or scores of an (n, t) feature matrix."""
        F = np.asarray(F)
        if F.dtype.kind not in "iu":  # a bool would read as cell 0 or 1
            raise ProvenanceError(f"features of dtype {F.dtype} are not "
                                  "integer cell ids")
        if F.shape[-1] != self.t:
            raise ProvenanceError(
                f"feature length {F.shape[-1]} does not match model t={self.t}"
            )
        self._count(F.size // self.t, self.t)
        return self.w.reshape(-1)[self._at + F].sum(-1) / self.t

    def _update(self, f, c, eta):
        self.w.reshape(-1)[self._at + f] += eta * c


class NOGDModel(_Model):
    """Linear model over dense approximate features: f = <w, xhat>."""

    _dims = ("effective_r",)

    def __init__(self, r, nystrom=None):
        super().__init__()
        self.r = r
        self.encoder = nystrom
        self.w = np.zeros(r)

    def _scores(self, X):
        """Score of a feature, or scores of an (n, r) feature matrix."""
        X = np.asarray(X)
        if X.shape[-1] != self.r:
            raise ShapeError(
                f"feature width {X.shape[-1]} does not match model r={self.r}"
            )
        self._count(X.size // self.r, self.r)
        # not X @ w: a matrix-vector product sums in another order than a
        # dot, and one point must score as its row in a batch
        return np.vecdot(X, self.w)

    def _update(self, xhat, c, eta):
        self.w += (eta * c) * xhat


def nystrom_fold_scores(folds, kernels, b, r, eta, seeds):
    """Validation scores of NOGD over each of ``kernels`` for each of k
    ``folds``, ``(train, validation)`` dataset pairs: ``scores[g][i]`` are
    fold i's validation points' scores by a ``NOGDModel`` on the map that
    ``fit_nystrom`` fits with ``kernels[g]``, b, r and ``seeds[i]``, after
    ``train_pass`` over fold i's training points, then ``predict_many``,
    bit for bit. Each fold's features come from ``nystrom_features``, so
    only one fold's landmark distances are held at a time.
    """
    scores = [[None] * len(folds) for _ in kernels]
    for i, ((train, val), seed) in enumerate(zip(folds, seeds)):
        features = nystrom_features(train, val, kernels, b, r, seed)
        for out, (F_train, F_val) in zip(scores, features):
            model = NOGDModel(F_train.shape[1])
            model.train_pass(F_train, train.labels(), eta)
            out[i] = model.predict_many(F_val)
    return scores


# ---------------------------------------------------------------------------
# checkpointing

# learner kind -> (model class, encoder class, IK scheme); the encoder is
# None for a model that learns on raw points, the scheme None without a map
_KINDS = {
    "ogd": (DualModel, None, None),
    "ik-ogd-iforest": (IKOGDModel, Mapper, "iforest"),
    "ik-ogd-anne": (IKOGDModel, Mapper, "anne"),
    "nogd": (NOGDModel, NystromMap, None),
}


def _classes(kind):
    if kind not in _KINDS:
        raise ParameterError(f"unknown learner kind {kind!r}")
    return _KINDS[kind]


def save_checkpoint(path, kind, model, hyper):
    """Write a self-contained model checkpoint (npz).

    ``kind`` is one of ogd | ik-ogd-iforest | ik-ogd-anne | nogd, and must
    name what ``model`` and its encoder are. The checkpoint is the state of
    the model's encoder (its feature map or landmark map; ogd has none),
    with arrays under ``encoder_``, plus the model's own state, with arrays
    under ``model_``.
    """
    encoder = model.encoder
    got = (type(model), encoder if encoder is None else type(encoder),
           getattr(encoder, "scheme", None))
    if got != _classes(kind):
        raise ParameterError(
            f"a {type(model).__name__} with encoder {type(encoder).__name__}"
            f" and scheme {got[2]} is not a {kind!r} learner")
    encoder_meta, encoder_arrays = (
        (None, {}) if encoder is None else encoder.state()
    )
    model_meta, model_arrays = model.state()
    arrays = {f"encoder_{key}": arr for key, arr in encoder_arrays.items()}
    arrays.update({f"model_{key}": arr for key, arr in model_arrays.items()})
    meta = {
        "kind": kind,
        "hyper": hyper,
        "encoder": encoder_meta,
        "model": model_meta,
    }
    save_npz(path, FORMAT_VERSION, meta, arrays)


def load_checkpoint(path):
    """Rebuild (kind, model, hyper) from a checkpoint written above."""
    return load_npz(path, FORMAT_VERSION, "checkpoint", _decode_checkpoint)


def _decode_checkpoint(meta, arrays):
    model_cls, encoder_cls, _ = _classes(meta["kind"])
    groups = by_prefix(arrays)
    encoder = None
    if encoder_cls is not None:
        encoder = encoder_cls.from_state(meta["encoder"], groups["encoder"])
    model = model_cls.from_state(meta["model"], groups["model"], encoder)
    return meta["kind"], model, meta["hyper"]
