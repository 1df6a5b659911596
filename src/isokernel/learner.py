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
    SparseVector,
    load_npz,
    pack_ragged,
    save_npz,
    strip_prefix,
    unpack_ragged,
)
from .errors import ParameterError, ProvenanceError, ShapeError
from .featuremap import (
    Mapper,
    accumulate,
    efficient_dot,
    kernel,
    new_weights,
)
from .kernels import make_kernel
from .nystrom import NystromMap

FORMAT_VERSION = 2


def predict_label(score):
    """Class decision from a real score; ties at zero go to +1."""
    return 1 if score >= 0 else -1


def margin_violated(score, c):
    """Hinge-loss subgradient is nonzero iff c*score < 1 (strict)."""
    return c * score < 1.0


class FeatureMatchKernel:
    """Kernel over indexed features: fraction of agreeing positions.

    Lets a dual model run on mapped features, mirroring the primal model's
    kernel exactly.
    """

    name = "feature-match"

    def __init__(self, t):
        self.t = t

    def __call__(self, fa, fb):
        if fa.size != self.t or fb.size != self.t:
            raise ProvenanceError("feature length does not match kernel t")
        return kernel(fa, fb)

    def point_to_row(self, f):
        return np.asarray(f, dtype=np.int32)

    def row_scores(self, row, F):
        return np.count_nonzero(F == row, axis=1) / self.t

    def matrix(self, A, B):
        out = np.empty((A.shape[0], B.shape[0]))
        for i in range(A.shape[0]):
            out[i] = np.count_nonzero(B == A[i], axis=1)
        return out / self.t


class _Model:
    """Counters every model keeps, and persistence for a model whose whole
    state is its weight array ``w``.

    ``last_predict_ops`` and ``total_ops`` count kernel evaluations (dual)
    or weight reads (primal). ``encoder`` is the fitted map that turns raw
    points into the model's features, or None when it learns on raw points.
    """

    encoder = None

    def __init__(self):
        self.updates = 0
        self.predictions = 0
        self.last_predict_ops = 0
        self.total_ops = 0

    def _count(self, points, ops):
        """Record ``points`` predictions costing ``ops`` operations each."""
        self.predictions += points
        self.last_predict_ops = ops
        self.total_ops += ops * points

    def state(self):
        """(meta, arrays) from which ``from_state`` rebuilds the model."""
        return {"updates": self.updates}, {"w": self.w}

    @classmethod
    def from_state(cls, meta, arrays, encoder):
        # primal models take the shape of w, then their encoder
        model = cls(*arrays["w"].shape, encoder)
        model.w = arrays["w"]
        model.updates = meta["updates"]
        return model


class DualModel(_Model):
    """Support-vector model with f(x) = sum_i alpha_i c_i k(x_i, x).

    The support set grows without budget; prediction cost is one kernel
    evaluation per stored vector. Rows of the stored vectors are kept in a
    dense buffer so the kernel's vectorized scoring path can be used.
    """

    def __init__(self, kernel_fn):
        super().__init__()
        self.kernel = kernel_fn
        self.svs = []  # (point, c, alpha) in arrival order
        self._rows = None
        self._coeffs = np.empty(0)  # alpha_i * c_i, precombined
        self._l1 = np.empty(0)  # ||row||_1, kept for sparse scoring paths
        self._use_sparse = hasattr(kernel_fn, "sparse_row_scores")

    def __len__(self):
        return len(self.svs)

    def _append(self, point, c, alpha):
        row = self.kernel.point_to_row(point)
        n = len(self.svs)
        if self._rows is None:
            cap = 256
            self._rows = np.zeros((cap,) + row.shape, dtype=row.dtype)
            self._coeffs = np.zeros(cap)
            self._l1 = np.zeros(cap)
        elif n == self._rows.shape[0]:
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
            self._coeffs = np.concatenate([self._coeffs, np.zeros_like(self._coeffs)])
            self._l1 = np.concatenate([self._l1, np.zeros_like(self._l1)])
        self._rows[n] = row
        self._coeffs[n] = alpha * c
        if self._use_sparse:
            self._l1[n] = np.abs(row).sum()
        self.svs.append((point, c, alpha))
        self.updates += 1

    def predict(self, x):
        """Score of one point; costs len(self) kernel evaluations."""
        s = len(self.svs)
        self._count(1, s)
        if s == 0:
            return 0.0
        if self._use_sparse and isinstance(x, SparseVector):
            scores = self.kernel.sparse_row_scores(
                x, self._rows[:s], self._l1[:s]
            )
        else:
            scores = self.kernel.row_scores(
                self.kernel.point_to_row(x), self._rows[:s]
            )
        return float(self._coeffs[:s] @ scores)

    def predict_many(self, points):
        """Scores for many points against the frozen support set."""
        s = len(self.svs)
        self._count(len(points), s)
        if s == 0:
            return np.zeros(len(points))
        if self._use_sparse and all(
            isinstance(p, SparseVector) for p in points
        ):
            coeffs = self._coeffs[:s]
            return np.array([
                float(coeffs @ self.kernel.sparse_row_scores(
                    p, self._rows[:s], self._l1[:s]
                ))
                for p in points
            ])
        rows = np.stack([self.kernel.point_to_row(p) for p in points])
        K = self.kernel.matrix(rows, self._rows[:s])
        return K @ self._coeffs[:s]

    def step(self, x, c, eta):
        """Predict, then add x as a support vector on margin violation."""
        score = self.predict(x)
        if margin_violated(score, c):
            self._append(x, c, eta)
        return score

    def state(self):
        meta = {
            "kernel": self.kernel.params(),
            "dim": self.kernel.dim,
            "updates": self.updates,
        }
        arrays = pack_ragged([p for p, _, _ in self.svs])
        arrays["cs"] = np.array([c for _, c, _ in self.svs])
        arrays["alphas"] = np.array([a for _, _, a in self.svs])
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays, encoder=None):
        model = cls(make_kernel(meta["kernel"]))
        points = unpack_ragged(arrays, meta["dim"])
        for point, c, alpha in zip(points, arrays["cs"], arrays["alphas"]):
            model._append(point, int(c), float(alpha))
        model.updates = meta["updates"]
        return model


class IKOGDModel(_Model):
    """Primal model over indexed features: f = <w, Phi> / t.

    The weight update on violation adds eta*c at the t cells the feature
    indexes, which is exactly the dual update expressed through the feature
    map; prediction reads t weights regardless of psi or update count.
    """

    def __init__(self, t, psi, mapper=None, record_updates=False):
        super().__init__()
        self.t = t
        self.psi = psi
        self.mapper = mapper
        self.w = new_weights(t, psi)
        self.update_log = [] if record_updates else None

    @property
    def encoder(self):
        return self.mapper

    def _check(self, f):
        if f.size != self.t:
            raise ProvenanceError(
                f"feature length {f.size} does not match model t={self.t}"
            )

    def predict(self, f):
        self._check(f)
        score = efficient_dot(self.w, f) / self.t
        self._count(1, self.t)
        return score

    def predict_many(self, F):
        """Scores for an (n, t) feature matrix against frozen weights."""
        F = np.asarray(F)
        if F.shape[1] != self.t:
            raise ProvenanceError(
                f"feature length {F.shape[1]} does not match model t={self.t}"
            )
        self._count(F.shape[0], self.t)
        return self.w[np.arange(self.t), F].sum(axis=1) / self.t

    def step(self, f, c, eta):
        score = self.predict(f)
        if margin_violated(score, c):
            accumulate(self.w, f, eta * c)
            self.updates += 1
            if self.update_log is not None:
                self.update_log.append((f.copy(), eta * c))
        return score


class NOGDModel(_Model):
    """Linear model over dense approximate features: f = <w, xhat>."""

    def __init__(self, r, nystrom=None):
        super().__init__()
        self.r = r
        self.nystrom = nystrom
        self.w = np.zeros(r)

    @property
    def encoder(self):
        return self.nystrom

    def _check(self, xhat):
        if xhat.shape != (self.r,):
            raise ShapeError(
                f"feature shape {xhat.shape} does not match model r={self.r}"
            )

    def predict(self, xhat):
        self._check(xhat)
        self._count(1, self.r)
        return float(self.w @ xhat)

    def predict_many(self, Xhat):
        Xhat = np.asarray(Xhat)
        if Xhat.shape[1] != self.r:
            raise ShapeError(
                f"feature width {Xhat.shape[1]} does not match model r={self.r}"
            )
        self._count(Xhat.shape[0], self.r)
        return Xhat @ self.w

    def step(self, xhat, c, eta):
        score = self.predict(xhat)
        if margin_violated(score, c):
            self.w += (eta * c) * xhat
            self.updates += 1
        return score


# ---------------------------------------------------------------------------
# checkpointing

# checkpoint kind -> (model class, encoder class or None for raw points)
_KINDS = {
    "ogd": (DualModel, None),
    "ik-ogd-iforest": (IKOGDModel, Mapper),
    "ik-ogd-anne": (IKOGDModel, Mapper),
    "nogd": (NOGDModel, NystromMap),
}


def _classes(kind):
    if kind not in _KINDS:
        raise ParameterError(f"unknown learner kind {kind!r}")
    return _KINDS[kind]


def save_checkpoint(path, kind, model, hyper):
    """Write a self-contained model checkpoint (npz).

    ``kind`` is one of ogd | ik-ogd-iforest | ik-ogd-anne | nogd. The
    checkpoint is the state of the model's encoder (its feature map or
    landmark map; ogd has none), with arrays under ``encoder_``, plus the
    model's own state, with arrays under ``model_``.
    """
    _classes(kind)
    encoder_meta, encoder_arrays = (
        (None, {}) if model.encoder is None else model.encoder.state()
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
    model_cls, encoder_cls = _classes(meta["kind"])
    encoder = None
    if encoder_cls is not None:
        encoder = encoder_cls.from_state(
            meta["encoder"], strip_prefix("encoder_", arrays)
        )
    model = model_cls.from_state(
        meta["model"], strip_prefix("model_", arrays), encoder
    )
    return meta["kind"], model, meta["hyper"]
