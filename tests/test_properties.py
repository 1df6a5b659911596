"""Property tests for the contracts every refactor must keep.

Save -> load is bit-identical for feature maps, landmark maps and all four
checkpoint kinds; ``map_point`` equals the matching ``map_many`` row, and
column i of ``map_many`` equals partitioning i's ``assign``, whatever dim
the points are declared at; the indexed kernel is symmetric, lies on the
grid {0, 1/t, ..., 1} and has k(x, x) = 1.

Point values are multiples of 1/4 in [-4, 4], so every distance and dot
product is exact in float64 and no result depends on summation order.
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isokernel.dataset import Dataset, LabeledPoint, SparseVector
from isokernel.featuremap import Mapper, kernel
from isokernel.kernels import Laplacian
from isokernel.learner import (
    DualModel,
    FeatureMatchKernel,
    IKOGDModel,
    NOGDModel,
    load_checkpoint,
    save_checkpoint,
)
from isokernel.nystrom import NystromMap, fit_nystrom

ETA = 0.5
SCHEMES = st.sampled_from(["iforest", "anne"])
VALUES = st.integers(-16, 16).map(lambda k: k / 4)

bounded = settings(max_examples=25, deadline=None)


@st.composite
def datasets(draw, min_size=2, max_size=20, dims=st.integers(1, 5)):
    dim = draw(dims)
    n = draw(st.integers(min_size, max_size))
    rows = draw(st.lists(
        st.lists(VALUES, min_size=dim, max_size=dim), min_size=n, max_size=n
    ))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    points = []
    for row, c in zip(rows, labels):
        row = np.array(row)
        nz = np.flatnonzero(row)
        points.append(LabeledPoint(SparseVector(nz + 1, row[nz], dim), c))
    return Dataset(points, dim=dim)


@st.composite
def fitted_maps(draw):
    """(dataset, Mapper fitted on it)."""
    ds = draw(datasets())
    psi = draw(st.integers(1, len(ds)))
    t = draw(st.integers(1, 8))
    mapper = Mapper.fit(ds, psi, t, draw(SCHEMES), draw(st.integers(0, 2**16)))
    return ds, mapper


@st.composite
def maps_and_queries(draw):
    """(Mapper, [training set, queries]). The training rows repeat a few
    distinct points, so some samples hold one point and their tree is a
    single leaf; the queries are declared at a dim below, at or above the
    map's."""
    pool = draw(datasets(min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                          max_size=20))
    train = Dataset([pool[i] for i in picks], dim=pool.dim)
    psi = draw(st.integers(1, len(train)))
    t = draw(st.integers(1, 8))
    mapper = Mapper.fit(train, psi, t, draw(SCHEMES),
                        draw(st.integers(0, 2**16)))
    queries = draw(datasets(min_size=1, dims=st.integers(1, pool.dim + 2)))
    return mapper, [train, queries]


def round_trip(save, load):
    """Write with ``save`` to an in-memory file and read it back."""
    buf = io.BytesIO()
    save(buf)
    buf.seek(0)
    return load(buf)


def assert_same_points(a, b):
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert p == q


def train(model, encoded, ds):
    for f, c in zip(encoded, ds.labels()):
        model.step(f, int(c), ETA)


class TestSaveLoad:
    @bounded
    @given(fitted_maps())
    def test_mapper(self, case):
        ds, mapper = case
        clone = round_trip(mapper.save, Mapper.load)
        assert (clone.scheme, clone.t, clone.psi, clone.dim) == (
            mapper.scheme, mapper.t, mapper.psi, mapper.dim,
        )
        for part, copy in zip(mapper.parts, clone.parts):
            state, copied = part.state(), copy.state()
            assert state.keys() == copied.keys()
            for key, arr in state.items():
                assert arr.dtype == copied[key].dtype
                assert np.array_equal(arr, copied[key])
        assert np.array_equal(clone.map_many(ds), mapper.map_many(ds))

    @bounded
    @given(datasets(), st.data())
    def test_nystrom_map(self, ds, data):
        b = data.draw(st.integers(1, len(ds)))
        r = data.draw(st.integers(1, b))
        nm = fit_nystrom(ds, b, r, Laplacian(4, ds.dim), seed=b)
        clone = round_trip(nm.save, NystromMap.load)
        assert (clone.b, clone.r, clone.seed) == (nm.b, nm.r, nm.seed)
        assert np.array_equal(clone.proj, nm.proj)
        assert_same_points(clone.landmarks, nm.landmarks)
        assert np.array_equal(clone.map_many(ds), nm.map_many(ds))

    @bounded
    @given(fitted_maps())
    def test_ik_ogd_checkpoint(self, case):
        ds, mapper = case
        model = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        train(model, mapper.map_many(ds), ds)
        kind = f"ik-ogd-{mapper.scheme}"
        save = lambda f: save_checkpoint(f, kind, model, {"eta": ETA})
        got, clone, hyper = round_trip(save, load_checkpoint)
        assert (got, hyper, clone.updates) == (kind, {"eta": ETA}, model.updates)
        assert np.array_equal(clone.w, model.w)
        encoded = clone.mapper.map_many(ds)
        assert np.array_equal(encoded, mapper.map_many(ds))
        assert np.array_equal(
            clone.predict_many(encoded), model.predict_many(encoded)
        )

    @bounded
    @given(datasets())
    def test_ogd_checkpoint(self, ds):
        model = DualModel(Laplacian(4, ds.dim))
        train(model, [p.x for p in ds], ds)
        save = lambda f: save_checkpoint(f, "ogd", model, {"eta": ETA})
        got, clone, _ = round_trip(save, load_checkpoint)
        assert (got, clone.updates) == ("ogd", model.updates)
        assert_same_points([p for p, _, _ in clone.svs],
                           [p for p, _, _ in model.svs])
        assert [sv[1:] for sv in clone.svs] == [sv[1:] for sv in model.svs]
        points = [p.x for p in ds]
        assert np.array_equal(
            clone.predict_many(points), model.predict_many(points)
        )

    @bounded
    @given(datasets(), st.data())
    def test_nogd_checkpoint(self, ds, data):
        b = data.draw(st.integers(1, len(ds)))
        nm = fit_nystrom(ds, b, data.draw(st.integers(1, b)),
                         Laplacian(4, ds.dim), seed=b)
        model = NOGDModel(nm.effective_r, nystrom=nm)
        train(model, nm.map_many(ds), ds)
        save = lambda f: save_checkpoint(f, "nogd", model, {"eta": ETA})
        got, clone, _ = round_trip(save, load_checkpoint)
        assert (got, clone.updates) == ("nogd", model.updates)
        assert np.array_equal(clone.w, model.w)
        assert np.array_equal(clone.nystrom.proj, nm.proj)
        encoded = clone.nystrom.map_many(ds)
        assert np.array_equal(encoded, nm.map_many(ds))
        assert np.array_equal(
            clone.predict_many(encoded), model.predict_many(encoded)
        )


class TestEncoding:
    @bounded
    @given(fitted_maps())
    def test_map_point_equals_map_many_row(self, case):
        ds, mapper = case
        batch = mapper.map_many(ds)
        for p, row in zip(ds, batch):
            assert np.array_equal(mapper.map_point(p.x), row)

    @bounded
    @given(maps_and_queries())
    def test_map_many_column_equals_single_point_assign(self, case):
        mapper, sets = case
        for ds in sets:
            batch = mapper.map_many(ds)
            for i, part in enumerate(mapper.parts):
                assert batch[:, i].tolist() == [part.assign(p.x) for p in ds]
            for p, row in zip(ds, batch):
                assert np.array_equal(mapper.map_point(p.x), row)

    @bounded
    @given(fitted_maps(), st.data())
    def test_kernel_is_symmetric_on_grid_with_unit_diagonal(self, case, data):
        ds, mapper = case
        F = mapper.map_many(ds)
        i = data.draw(st.integers(0, len(ds) - 1))
        j = data.draw(st.integers(0, len(ds) - 1))
        k = kernel(F[i], F[j])
        assert k == kernel(F[j], F[i])
        assert k in [c / mapper.t for c in range(mapper.t + 1)]
        assert kernel(F[i], F[i]) == 1.0
        assert FeatureMatchKernel(mapper.t)(F[i], F[j]) == k
