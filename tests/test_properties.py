"""Property tests for the contracts every refactor must keep.

Save -> load is bit-identical for feature maps, landmark maps and all four
checkpoint kinds; ``map_point`` equals the matching ``map_many`` row, and
column i of ``map_many`` equals the cells of a map of partitioning i
alone (and, for an isolation tree, an independent walk down it), whatever dim
the points are declared at, on dense low-dimensional data and on sparse
high-dimensional data (whose anne centres mostly join into a column index
rather than a dense stack), and the two forms give the same cells from
the same centres; the indexed kernel is symmetric, lies on the
grid {0, 1/t, ..., 1} and has k(x, x) = 1. The baselines' sparse
scorers (dual OGD and the Nystrom landmark map) agree with the scalar
kernels on points of any dim, and the landmark Gram is positive
semidefinite. On random streams the dual model over the indexed kernel
and the primal IK-OGD model give the same score and make the same
update at every step, and a LIBSVM line formats and parses back to the
same point. A LIBSVM file, valid or holding bad lines, loads in blocks
of any size to the points, dim and labels, or the first bad line's
error, of parsing it line by line, and flat ragged arrays give the
vectors, or the error, of building each ``SparseVector`` alone. Sparse
rows of any dims densify onto any sorted columns as their dense stack
restricted to those columns. An iforest fit grows the
same trees whatever t, the grouping of trees and the grower's form, and
every grown tree isolates each distinguishable sample point, is a
breadth-first list whose links reach every node once, numbers its leaves
densely in node order, and cuts strictly inside its node's range. Every
partitioning of a fit, which samples row ids of its data packed once, is
the one built from the list of points ``helpers.sample_psi`` draws with
the same generator, and its centres' squared norms are
``SparseVector.sq_norm``'s. A ``RowStore`` scores a block of rows, split
by its budget or not, as it scores each row alone, bit for bit, under
the Laplacian (where both equal the one-row scorer that block scoring
replaced), the Gaussian and the feature-match kernel, and its weighted
scores are each row's dot with the weights. Dual OGD's test-then-train
pass, which takes its test scores from its steps' kernel rows, gives the
scores, counters and support set of ``predict_many`` then the steps, bit
for bit, whatever the support set a block starts at. Dual OGD's CV,
which trains every psi and fold in one pass over one shared store,
scores each fold as a model trained and scored alone on its ``kfold``
pair does, bit for bit, and so does NOGD's, which takes each fold's
landmark distances once for every psi.
Every point view of a dataset, which packs its rows once, and of its
subsets, shuffles, heads, folds and dim-unified copies, is the point it
came from at the dataset's dim; ``from_dense`` keeps each row's nonzeros,
or raises what the first bad row's ``SparseVector`` raises.

Point values are multiples of 1/4 in [-4, 4], so every distance and dot
product is exact in float64 and no result depends on summation order;
the baseline scorers and the packed fits are tested on values that round
as well.
"""

import gzip
import io
import os
import tempfile
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import isokernel.dataset as dataset
import isokernel.eval as evalmod
import isokernel.kernels as kernels
from isokernel.dataset import (
    Dataset,
    LabeledPoint,
    Rows,
    SparseVector,
    dense_rows,
    format_libsvm_line,
    from_dense,
    kfold,
    load_libsvm,
    parse_libsvm_line,
    shuffle,
    split_head,
    unify_dims,
)
import isokernel.partition as partition
from isokernel.featuremap import Mapper, kernel, sparse_feature
from isokernel.kernels import Gaussian, Laplacian, RowStore
from isokernel.learner import (
    DualModel,
    FeatureMatchKernel,
    IKOGDModel,
    NOGDModel,
    _Model,
    dual_fold_scores,
    load_checkpoint,
    nystrom_fold_scores,
    save_checkpoint,
)
from isokernel.nystrom import NystromMap, fit_nystrom
from isokernel.partition import SCHEMES as BUILDERS, VoronoiPartition

from helpers import (
    cell, centre_forms, one_row_laplacian, sample_psi, walk_tree,
)

ETA = 0.5
SCHEMES = st.sampled_from(["iforest", "anne"])
VALUES = st.integers(-16, 16).map(lambda k: k / 4)

# multiples of 1/1000 in [-4, 4]: most are not exact in binary
ROUNDING = st.integers(-4000, 4000).filter(bool).map(lambda k: k / 1000)

bounded = settings(max_examples=25, deadline=None)


@st.composite
def datasets(draw, min_size=2, max_size=20, dims=st.integers(1, 5),
             values=VALUES):
    dim = draw(dims)
    n = draw(st.integers(min_size, max_size))
    rows = draw(st.lists(
        st.lists(values, min_size=dim, max_size=dim), min_size=n, max_size=n
    ))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    points = []
    for row, c in zip(rows, labels):
        row = np.array(row)
        nz = np.flatnonzero(row)
        points.append(LabeledPoint(SparseVector(nz + 1, row[nz], dim), c))
    return Dataset(points, dim=dim)


@st.composite
def sparse_datasets(draw, min_size=1, max_size=12, dims=st.integers(30, 3000),
                    values=VALUES):
    """Points of one to three nonzeros at a high dim, so that distinct
    points rarely share a column."""
    dim = draw(dims)
    n = draw(st.integers(min_size, max_size))
    points = []
    for _ in range(n):
        entries = draw(st.dictionaries(
            st.integers(1, dim), values.filter(bool), min_size=1, max_size=3))
        idx = sorted(entries)
        x = SparseVector(idx, [entries[i] for i in idx], dim)
        points.append(LabeledPoint(x, draw(st.sampled_from([-1, 1]))))
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
def maps_and_queries(draw, schemes=SCHEMES):
    """(Mapper, [training set, queries]). The training rows repeat a few
    distinct points, so some samples hold one point and their tree is a
    single leaf. Half the draws are sparse at a high dim, trained on every
    point of a pool of 12 to 40 as well, whose anne centres mostly share no
    column: most of those join into a column index, the rest into a dense
    stack. The queries are declared at a dim below, at or above the
    map's."""
    sparse = draw(st.booleans())
    if sparse:
        pool = draw(sparse_datasets(min_size=12, max_size=40))
    else:
        pool = draw(datasets(min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                          max_size=20))
    if sparse:
        picks = list(range(len(pool))) + picks
    train = Dataset([pool[i] for i in picks], dim=pool.dim)
    psi = draw(st.integers(1, len(train)))
    t = draw(st.integers(1, 8))
    mapper = Mapper.fit(train, psi, t, draw(schemes),
                        draw(st.integers(0, 2**16)))
    query_dims = st.integers(1, pool.dim + 2)
    if sparse:
        queries = draw(sparse_datasets(dims=query_dims))
    else:
        queries = draw(datasets(min_size=1, dims=query_dims))
    return mapper, [train, queries]


@st.composite
def sparse_points(draw, dims):
    dim = draw(dims)
    entries = draw(st.dictionaries(st.integers(1, dim), ROUNDING,
                                   max_size=dim))
    idx = sorted(entries)
    return SparseVector(idx, [entries[i] for i in idx], dim)


@st.composite
def kernels_points_queries(draw):
    """(kernel, stored points, queries): stored points at dims 1..D, and
    queries declared at dims below, at and above every stored point's."""
    top = draw(st.integers(1, 6))
    if draw(st.booleans()):
        kern = Laplacian(draw(st.integers(2, 256)), top)
    else:
        kern = Gaussian(draw(st.sampled_from([0.05, 0.4, 2.0])), top)
    points = draw(st.lists(sparse_points(st.integers(1, top)), min_size=1,
                           max_size=12))
    queries = draw(st.lists(sparse_points(st.integers(1, top + 3)),
                            min_size=1, max_size=6))
    return kern, points, queries


@st.composite
def labeled_points(draw):
    """Points with any finite nonzero float64 values, at dims up to 10^6."""
    dim = draw(st.integers(1, 10**6))
    entries = draw(st.dictionaries(
        st.integers(1, dim),
        st.floats(allow_nan=False, allow_infinity=False).filter(bool),
        max_size=8))
    idx = sorted(entries)
    x = SparseVector(idx, [entries[i] for i in idx], dim)
    return LabeledPoint(x, draw(st.sampled_from([-1, 1])))


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
            state, copied = type(part).pack([part]), type(copy).pack([copy])
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
        encoded = clone.encoder.map_many(ds)
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
        assert np.array_equal(clone.encoder.proj, nm.proj)
        encoded = clone.encoder.map_many(ds)
        assert np.array_equal(encoded, nm.map_many(ds))
        assert np.array_equal(
            clone.predict_many(encoded), model.predict_many(encoded)
        )


@st.composite
def centres_and_rows(draw):
    """(parts, rows): one to four Voronoi partitionings of one to six
    centres each, and one to eight query rows, all on at most eight
    columns with values k/4, so that a row shares several columns with
    most centres."""
    dim = draw(st.integers(1, 8))
    points = st.lists(st.just(0.0) | VALUES, min_size=dim, max_size=dim).map(
        lambda v: SparseVector(np.flatnonzero(v) + 1, [a for a in v if a],
                               dim))
    psi = draw(st.integers(1, 6))
    parts = [VoronoiPartition.build(draw(
                 st.lists(points, min_size=psi, max_size=psi)))
             for _ in range(draw(st.integers(1, 4)))]
    return parts, draw(st.lists(points, min_size=1, max_size=8))


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
                assert batch[:, i].tolist() == [cell(part, p.x) for p in ds]
                if part.scheme == "iforest":
                    assert batch[:, i].tolist() == [
                        walk_tree(part, p.x.densify()) for p in ds]
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
        # the dual model's scorer gives the same value
        store = RowStore(FeatureMatchKernel(mapper.t))
        fi, fj = (sparse_feature(f, mapper.psi) for f in (F[i], F[j]))
        store.append(fj.indices, fj.values)
        assert store.scores(fi.indices, fi.values,
                            np.array([0, mapper.t]))[0, 0] == k


    @bounded
    @given(maps_and_queries(schemes=st.just("anne")))
    def test_centre_stack_and_index_give_the_same_cells(self, case):
        mapper, sets = case
        stack, index = centre_forms(mapper.parts)
        for ds in sets:
            rows = Rows.of([p.x for p in ds]).entries()
            cells = stack.assign_many(rows, len(ds))
            assert np.array_equal(index.assign_many(rows, len(ds)), cells)
            assert np.array_equal(mapper.map_many(ds), cells)

    @bounded
    @given(centres_and_rows())
    def test_both_centre_forms_give_the_dense_argmin(self, case):
        # exact values, so every dot sums exactly in any order: both forms'
        # doubled dots must give the dense oracle's cells, ties included
        parts, rows = case
        dim = rows[0].dim
        Z = np.stack([z.densify(dim) for part in parts for z in part.centers])
        X = np.stack([x.densify(dim) for x in rows])
        sq = (Z * Z).sum(axis=1)
        want = (sq - 2 * X @ Z.T).reshape(len(rows), len(parts), -1).argmin(2)
        for form in centre_forms(parts):
            got = form.assign_many(Rows.of(rows).entries(), len(rows))
            assert np.array_equal(got, want)


@st.composite
def iforest_fits(draw):
    """(dataset, psi, seed) of an iforest fit: dense points of one to five
    dims, where repeated points are common, or sparse points at a high
    dim. The dense samples fill their block and are densified, the sparse
    ones stay as their entries."""
    if draw(st.booleans()):
        ds = draw(sparse_datasets(min_size=2, max_size=30))
    else:
        ds = draw(datasets(min_size=2, max_size=30))
    return ds, draw(st.integers(1, len(ds))), draw(st.integers(0, 2**16))


def iforest_states(ds, psi, t, seed):
    return [partition.ITree.pack([part])
            for part in Mapper.fit(ds, psi, t, "iforest", seed).parts]


def assert_same_trees(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.keys() == y.keys()
        for key in x:
            assert x[key].dtype == y[key].dtype
            assert np.array_equal(x[key], y[key])


def grown_trees(ds, psi, seed, t=4):
    """(tree, its sample as dense rows) for each tree of a fit: tree i's
    sample is the first draw of the generator ``(seed, i)``."""
    mapper = Mapper.fit(ds, psi, t, "iforest", seed)
    for i, tree in enumerate(mapper.parts):
        sample = sample_psi(ds, psi, np.random.default_rng((seed, i)))
        yield tree, np.array([x.densify(ds.dim) for x in sample])


class TestGrowth:
    @bounded
    @given(iforest_fits())
    def test_a_tree_depends_on_its_own_generator_alone(self, case):
        ds, psi, seed = case
        ten = iforest_states(ds, psi, 10, seed)
        assert_same_trees(iforest_states(ds, psi, 3, seed), ten[:3])
        with patch.object(partition, "_GROW_BUDGET", 1):  # one per group
            assert_same_trees(iforest_states(ds, psi, 10, seed), ten)

    @bounded
    @given(iforest_fits())
    def test_dense_and_entry_growth_give_the_same_trees(self, case):
        ds, psi, seed = case
        with patch.object(partition, "GROW_FILL", 0.0):
            dense = iforest_states(ds, psi, 6, seed)
        with patch.object(partition, "GROW_FILL", np.inf):
            assert_same_trees(iforest_states(ds, psi, 6, seed), dense)

    @bounded
    @given(iforest_fits())
    def test_trees_isolate_each_distinguishable_sample_point(self, case):
        for tree, S in grown_trees(*case):
            leaves = [walk_tree(tree, x) for x in S]
            points = [tuple(x) for x in S]
            # equal points share a leaf, and distinct ones never do
            assert (len(set(zip(points, leaves))) == len(set(points))
                    == len(set(leaves)) == tree.n_cells)

    @bounded
    @given(iforest_fits())
    def test_leaf_ids_are_dense_in_node_order(self, case):
        for tree, _ in grown_trees(*case):
            # the links reach every node once, each after its parent
            met, stack = [], [0]
            while stack:
                node = stack.pop()
                met.append(node)
                if tree.feature[node] >= 0:
                    assert tree.left[node] > node
                    stack += [tree.left[node], tree.left[node] + 1]
            assert sorted(met) == list(range(tree.feature.size))
            leaves = tree.feature < 0
            assert tree.leaf_id[leaves].tolist() == list(range(tree.n_cells))

    @bounded
    @given(iforest_fits())
    def test_thresholds_lie_strictly_inside_their_node_ranges(self, case):
        for tree, S in grown_trees(*case):
            stack = [(0, np.arange(len(S)))]
            while stack:
                node, members = stack.pop()
                if tree.feature[node] < 0:
                    continue
                vals = S[members, tree.feature[node]]
                assert vals.min() < tree.threshold[node] < vals.max()
                go_left = vals < tree.threshold[node]
                stack += [(tree.left[node], members[go_left]),
                          (tree.left[node] + 1, members[~go_left])]


@st.composite
def packed_fits(draw, schemes=SCHEMES):
    """(sparse, (dataset, psi, t, scheme, seed)) of a fit on values that
    round: dense points of up to 40 dims, so that a norm sums enough
    squares for its order to matter, or sparse points at a high dim."""
    sparse = draw(st.booleans())
    if sparse:
        ds = draw(sparse_datasets(min_size=2, max_size=30, values=ROUNDING))
    else:
        ds = draw(datasets(min_size=2, max_size=30, dims=st.integers(1, 40),
                           values=ROUNDING))
    psi = draw(st.integers(1, len(ds)))
    t = draw(st.integers(1, 6))
    return sparse, (ds, psi, t, draw(schemes), draw(st.integers(0, 2**16)))


def fit_forms(ds, psi, t, scheme, seed):
    """The forms a fit took: for iforest, "dense" if the grower densified
    a group's samples and "entries" if it grew one from stored entries;
    for anne, the name of the scorer the map joined its centres into."""
    with patch.object(partition, "dense_rows", wraps=partition.dense_rows
                      ) as dense, patch.object(
            partition, "located", wraps=partition.located) as located:
        mapper = Mapper.fit(ds, psi, t, scheme, seed)
    if scheme == "anne":
        return {type(mapper._joined).__name__}
    return {form for form, spy in (("dense", dense), ("entries", located))
            if spy.called}


class TestPackedFit:
    @bounded
    @given(packed_fits())
    def test_a_partitioning_is_the_one_built_from_its_sample(self, case):
        ds, psi, t, scheme, seed = case[1]
        mapper = Mapper.fit(ds, psi, t, scheme, seed)
        for i, part in enumerate(mapper.parts):
            rng = np.random.default_rng((seed, i))
            sample = sample_psi(ds, psi, rng)
            built = BUILDERS[scheme].build(sample, rng)
            if scheme == "iforest":
                assert_same_trees([partition.ITree.pack([part])],
                                  [partition.ITree.pack([built])])
                continue
            assert part.centers == built.centers == sample
            assert part.sq_norms.tolist() == built.sq_norms.tolist() == [
                x.sq_norm() for x in sample]

    @pytest.mark.parametrize("scheme, sparse, form", [
        ("iforest", False, "dense"), ("iforest", True, "entries"),
        ("anne", False, "CentreStack"), ("anne", True, "CentreIndex"),
    ])
    def test_the_draws_reach_every_form(self, scheme, sparse, form):
        # any example will do, so none is shrunk
        find(packed_fits(schemes=st.just(scheme)),
             lambda case: case[0] == sparse and form in fit_forms(*case[1]),
             settings=settings(max_examples=200, database=None,
                               phases=[Phase.generate], derandomize=True))


class TestBaselineKernels:
    @bounded
    @given(kernels_points_queries(), st.data())
    def test_dual_scores_equal_scalar_kernel_sums(self, case, data):
        kern, points, queries = case
        model = DualModel(kern)
        for x in points:
            model.step(x, data.draw(st.sampled_from([-1, 1])), ETA)
        for x, many in zip(queries, model.predict_many(queries)):
            terms = [a * c * kern(x, sv) for sv, c, a in model.svs]
            # relative to the size of the terms, which may cancel
            tol = 1e-12 * sum(abs(v) for v in terms)
            assert abs(model.predict(x) - sum(terms)) <= tol
            assert abs(many - sum(terms)) <= tol

    @bounded
    @given(kernels_points_queries(), st.data())
    def test_landmark_rows_equal_scalar_kernel(self, case, data):
        kern, points, queries = case
        ds = Dataset([LabeledPoint(x, 1) for x in points])
        b = data.draw(st.integers(1, len(ds)))
        nm = fit_nystrom(ds, b, 1, kern, seed=b)
        for x in queries + nm.landmarks:
            want = [kern(x, z) for z in nm.landmarks]
            assert np.allclose(nm.kernel_row(x), want, rtol=1e-12, atol=0)

    @bounded
    @given(kernels_points_queries(), st.data())
    def test_landmark_gram_is_psd(self, case, data):
        kern, points, _ = case
        ds = Dataset([LabeledPoint(x, 1) for x in points])
        b = data.draw(st.integers(1, len(ds)))
        nm = fit_nystrom(ds, b, 1, kern, seed=b)
        G = np.array([nm.kernel_row(z) for z in nm.landmarks])
        G = 0.5 * (G + G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10 * b


def feature_rows(t, psi=4):
    """The ``sparse_feature`` rows of features of length t."""
    return st.lists(st.integers(0, psi - 1), min_size=t, max_size=t).map(
        lambda f: sparse_feature(np.array(f), psi))


@st.composite
def stores_and_blocks(draw):
    """(kernel, stored rows, query rows, budget): sparse rows under a
    Laplacian or a Gaussian, whose queries may be empty, of unequal length
    and hold attributes past every stored one, or the ``sparse_feature``
    rows of features of length t under the feature-match kernel; the
    budget stands in for ``SCORE_BLOCK``, small enough to split a block."""
    budget = draw(st.integers(1, 300))
    if draw(st.booleans()):
        t = draw(st.integers(1, 5))
        features = feature_rows(t)
        return (FeatureMatchKernel(t), draw(st.lists(features, max_size=12)),
                draw(st.lists(features, max_size=10)), budget)
    top = draw(st.integers(1, 24))
    kern = draw(st.sampled_from([Laplacian(draw(st.integers(2, 256)), top),
                                 Gaussian(0.4, top)]))
    stored = draw(st.lists(sparse_points(st.integers(1, top)), max_size=12))
    queries = draw(st.lists(sparse_points(st.integers(1, top + 3)),
                            max_size=10))
    return kern, stored, queries, budget


def ragged_of(kern, rows):
    """The flat ragged arrays of ``rows``, under any kernel, as
    ``RowStore.scores`` takes a block."""
    return Rows.of(rows).ragged()


def scored_blocks(case):
    """The store of a ``stores_and_blocks`` case, its block scores, each
    query's scores as a block of one, and the sizes of the blocks the
    kernel was given for the first."""
    kern, stored, queries, budget = case
    store = RowStore(kern)
    for i in range(len(stored)):
        store.append(*ragged_of(kern, stored[i:i + 1])[:2])
    sizes = []
    score = kern.sparse_row_scores

    def spy(x, Z, norms):
        sizes.append(x[2].size - 1)
        return score(x, Z, norms)

    with patch.object(kernels, "SCORE_BLOCK", budget):
        with patch.object(kern, "sparse_row_scores", spy):
            K = store.scores(*ragged_of(kern, queries))
        rows = [store.scores(*ragged_of(kern, queries[i:i + 1]))
                for i in range(len(queries))]
    return store, K, rows, sizes


def block_traits(case):
    """What a ``stores_and_blocks`` case reaches: an empty query, queries
    of unequal length, a query attribute past the end of ``slot``, and a
    block split in two or more."""
    store, _, _, sizes = scored_blocks(case)
    _, _, queries, _ = case
    traits = set()
    if len(sizes) > 1:
        traits.add("split")
    if isinstance(case[0], FeatureMatchKernel):
        return traits
    lengths = {x.indices.size for x in queries}
    if 0 in lengths:
        traits.add("empty")
    if len(lengths) > 1:
        traits.add("unequal")
    if any(x.indices.size and x.indices[-1] >= store.slot.size
           for x in queries):
        traits.add("past slot")
    return traits


class TestBlockScores:
    @settings(max_examples=60, deadline=None)
    @given(stores_and_blocks())
    def test_block_scores_equal_one_row_scores(self, case):
        store, K, rows, _ = scored_blocks(case)
        kern, stored, queries, _ = case
        assert K.shape == (len(queries), len(stored))
        for i, x in enumerate(queries):
            assert rows[i].shape == (1, len(stored))
            assert K[i].tobytes() == rows[i][0].tobytes()
            if isinstance(kern, Laplacian):
                assert K[i].tobytes() == one_row_laplacian(store, x).tobytes()
        # weighted, each row's dot as the one-row dual scorer took it
        weights = np.linspace(-1.0, 2.0, len(stored))
        with patch.object(kernels, "SCORE_BLOCK", case[3]):
            dots = store.scores(*ragged_of(kern, queries), weights)
        assert dots.tobytes() == np.array(
            [weights @ row for row in K]).reshape(-1).tobytes()

    def test_a_store_of_one_row_scores_row_by_row(self):
        # against one stored row numpy sums each query's terms pairwise,
        # where a padded row of 9 or more terms would round otherwise
        rng = np.random.default_rng(11)
        kern = Laplacian(64, 40)
        store = RowStore(kern)
        store.append(np.arange(1, 41), rng.standard_normal(40))
        queries = []
        for size in rng.integers(0, 41, 30):
            idx = np.sort(rng.choice(40, size, replace=False)) + 1
            queries.append(SparseVector(idx, rng.standard_normal(size)
                                        * 10.0 ** rng.uniform(-3, 3, size),
                                        40))
        K = store.scores(*Rows.of(queries).ragged())
        for x, row in zip(queries, K, strict=True):
            assert row.tobytes() == one_row_laplacian(store, x).tobytes()

    @pytest.mark.parametrize("trait",
                             ["empty", "unequal", "past slot", "split"])
    def test_the_draws_reach_every_trait(self, trait):
        # any example will do, so none is shrunk
        find(stores_and_blocks(), lambda case: trait in block_traits(case),
             settings=settings(max_examples=200, database=None,
                               phases=[Phase.generate], derandomize=True))


class TestStoreReadBack:
    @settings(max_examples=60, deadline=None)
    @given(stores_and_blocks(), st.data())
    def test_rows_read_back_every_appended_row(self, case, data):
        # ``DualModel.svs`` and ``state`` read support vectors back this way
        kern, stored, _, _ = case
        store = RowStore(kern)
        for x in stored:
            store.append(x.indices, x.values)
        ids = data.draw(st.lists(st.integers(0, len(stored) - 1)
                                 if stored else st.nothing()))
        dim = max((x.dim for x in stored), default=0)
        rows = store.rows(np.array(ids, dtype=np.intp), dim)
        assert (len(rows), rows.dim) == (len(ids), dim)
        for i, x in zip(ids, rows):
            assert x.indices.tobytes() == stored[i].indices.tobytes()
            assert x.values.tobytes() == stored[i].values.tobytes()


@st.composite
def dual_streams(draw):
    """(kernel, stream, labels, block sizes, eta): sparse rows under a
    Laplacian or a Gaussian, or the ``sparse_feature`` rows of features of
    length t under the feature-match kernel, cut into blocks of one to six
    points, so that blocks start at 0, 1, 2 and more support vectors."""
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        t = draw(st.integers(1, 5))
        kern = FeatureMatchKernel(t)
        stream = draw(st.lists(feature_rows(t), min_size=n, max_size=n))
    else:
        top = draw(st.integers(1, 40))
        kern = draw(st.sampled_from([Laplacian(draw(st.integers(2, 256)),
                                               top), Gaussian(0.4, top)]))
        rows = [draw(st.lists(st.just(0.0) | ROUNDING, min_size=width,
                              max_size=width))
                for width in draw(st.lists(st.integers(1, top + 3),
                                           min_size=n, max_size=n))]
        stream = [SparseVector(np.flatnonzero(row) + 1,
                               [v for v in row if v], len(row))
                  for row in rows]
    labels = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                    max_size=n)))
    # a first block of one point leaves the next to start at one
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=n)
                 | st.lists(st.integers(1, 6), max_size=n).map(
                     lambda rest: [1, *rest]))
    eta = draw(st.sampled_from([0.1, 0.5, 1.3]))
    return kern, stream, labels, sizes, eta


def blocks_of(case):
    """The ``dual_streams`` case's blocks, each as the protocol gives it
    to a dual model, a ``Rows``, with its labels; the points left after
    the drawn sizes make one last block."""
    _, stream, labels, sizes, _ = case
    edges = [0, *accumulate(sizes)]
    edges = [lo for lo in edges if lo < len(labels)] + [len(labels)]
    for lo, hi in zip(edges, edges[1:]):
        yield Rows.of(stream[lo:hi]), labels[lo:hi]


def fused_and_default(case):
    """Twin dual models taken through the case's blocks, one by
    ``DualModel.test_then_train`` and one by ``_Model.test_then_train``,
    with the scores each gave and the support-set size each block
    started at."""
    kern, _, _, _, eta = case
    fused, default = DualModel(kern), DualModel(kern)
    marks, fused_scores, default_scores = [], [], []
    for points, labels in blocks_of(case):
        marks.append(len(fused))
        fused_scores.append(fused.test_then_train(points, labels, eta))
        default_scores.append(
            _Model.test_then_train(default, points, labels, eta))
    return fused, default, fused_scores, default_scores, marks


def mark_traits(case):
    """Which block starts a ``dual_streams`` case reaches: at 0, 1, 2 and
    more support vectors, and at 1 with a row of 9 or more entries, whose
    terms numpy sums pairwise against one stored row."""
    marks = fused_and_default(case)[4]
    traits = {str(mark) if mark < 3 else "more" for mark in marks}
    for mark, (points, _) in zip(marks, blocks_of(case)):
        if mark == 1 and isinstance(points, Rows) and any(
                x.indices.size >= 9 for x in points):
            traits.add("1, wide")
    return traits


class TestFusedDualPass:
    # about one draw in twenty starts a block of rows wide enough to round
    # otherwise at one support vector
    @settings(max_examples=150, deadline=None)
    @given(dual_streams())
    def test_fused_pass_scores_and_counts_as_the_default(self, case):
        fused, default, got, want, _ = fused_and_default(case)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        for name in ("updates", "total_ops", "last_predict_ops"):
            assert getattr(fused, name) == getattr(default, name)
        if isinstance(case[0], FeatureMatchKernel):  # has no state()
            assert len(fused) == len(default)
            for (p, c, a), (q, d, b) in zip(fused.svs, default.svs):
                assert (p.indices.tobytes(), p.values.tobytes(), c, a) == (
                    q.indices.tobytes(), q.values.tobytes(), d, b)
            return
        (fused_meta, fused_arrays), (meta, arrays) = (
            fused.state(), default.state())
        assert fused_meta == meta
        assert fused_arrays.keys() == arrays.keys()
        for key, arr in arrays.items():
            assert fused_arrays[key].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("mark", ["0", "1", "2", "more", "1, wide"])
    def test_the_draws_reach_every_block_start(self, mark):
        # any example will do, so none is shrunk
        find(dual_streams(), lambda case: mark in mark_traits(case),
             settings=settings(max_examples=200, database=None,
                               phases=[Phase.generate], derandomize=True))


def rescaled(kern):
    """A kernel of ``kern``'s kind and dim at another scale."""
    if isinstance(kern, Laplacian):
        return Laplacian(3 * kern.psi + 1, kern.dim)
    return Gaussian(1.7, kern.dim)


def shared_and_own(case):
    """Two dual models whose kernels differ in scale alone, over one
    ``RowStore``, and a twin of each over its own store, taken through
    the case's blocks alike: odd blocks by ``test_then_train``, each
    model's in turn, and even ones by ``predict_many``, then ``step`` on
    each point by each model in turn. Returns the shared models, the
    twins, each model's scores per block, and, per block, the support
    set size each shared model started at and the size of the store."""
    kern, _, _, _, eta = case
    kerns = (kern, rescaled(kern))
    store = RowStore(kern)
    shared = [DualModel(k, store) for k in kerns]
    own = [DualModel(k) for k in kerns]
    scores = {id(m): [] for m in shared + own}
    starts = []
    for b, (points, labels) in enumerate(blocks_of(case)):
        starts.append(([len(m) for m in shared], store.n))
        for models in (shared, own):
            if b % 2:
                for m in models:
                    scores[id(m)].append(
                        m.test_then_train(points, labels, eta))
                continue
            for m in models:
                scores[id(m)].append(m.predict_many(points))
            for x, c in zip(points, labels):
                for m in models:
                    m.step(x, int(c), eta)
    return shared, own, scores, starts


def stationary_streams():
    """``dual_streams`` cases under the Laplacian or the Gaussian."""
    return dual_streams().filter(
        lambda case: not isinstance(case[0], FeatureMatchKernel))


def shared_traits(case):
    """Whether a block of ``test_then_train`` starts a shared model at one
    support vector of a store of more rows, with a row of 9 or more
    entries, which a prefix of its kernel row would round otherwise."""
    starts = shared_and_own(case)[3]
    traits = set()
    for b, ((sizes, rows), (points, _)) in enumerate(
            zip(starts, blocks_of(case))):
        if (b % 2 and 1 in sizes and rows > 1
                and any(x.indices.size >= 9 for x in points)):
            traits.add("1 of more, wide")
    return traits


class TestSharedStore:
    @settings(max_examples=100, deadline=None)
    @given(stationary_streams())
    def test_models_over_one_store_act_as_over_their_own(self, case):
        shared, own, scores, _ = shared_and_own(case)
        for m, twin in zip(shared, own):
            for a, b in zip(scores[id(m)], scores[id(twin)], strict=True):
                assert a.tobytes() == b.tobytes()
            for name in ("updates", "total_ops", "last_predict_ops"):
                assert getattr(m, name) == getattr(twin, name)
            (meta, arrays), (twin_meta, twin_arrays) = m.state(), twin.state()
            assert meta == twin_meta
            assert arrays.keys() == twin_arrays.keys()
            for key, arr in twin_arrays.items():
                assert arrays[key].tobytes() == arr.tobytes()
        assert shared[0]._store.n == len(own[0]) + len(own[1])

    def test_the_draws_reach_one_support_vector_of_a_larger_store(self):
        # any example will do, so none is shrunk
        find(stationary_streams(),
             lambda case: "1 of more, wide" in shared_traits(case),
             settings=settings(max_examples=200, database=None,
                               phases=[Phase.generate], derandomize=True))


@st.composite
def dual_cv_cases(draw):
    """(dataset, config) of dual OGD's CV: dense rows of up to 20 values in
    [-1, 1] that round, near enough that a model may keep one support
    vector for several steps at eta > 1 (at eta 8 even at psi 16), labels
    of one class or two; a grid of one to four psi, which may repeat and
    be unsorted; 2 to 5 folds, of all the points or of ``cv_max_points``
    of them."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 20))
    X = draw(st.lists(st.lists(ROUNDING.map(lambda v: v / 4), min_size=d,
                               max_size=d), min_size=n, max_size=n))
    # one class leaves a model at one support vector to the end
    labels = draw(st.lists(st.sampled_from(draw(st.sampled_from(
        [[-1, 1], [1]]))), min_size=n, max_size=n))
    k = draw(st.integers(2, min(5, n)))
    config = evalmod.ProtocolConfig(
        learner="ogd", folds=k, seed=draw(st.integers(0, 99)),
        psi_grid=tuple(draw(st.lists(st.sampled_from([2, 3, 16, 64, 300]),
                                     min_size=1, max_size=4))),
        cv_max_points=draw(st.none() | st.integers(k, n)),
        eta=draw(st.sampled_from([0.5, 1.3, 4.0, 8.0])))
    return from_dense(np.array(X), np.array(labels), "cv"), config


def dual_cv_kernels(case):
    """The case's folds, as ``cv_select_psi`` makes them, and a Laplacian
    per grid entry, in the grid's order."""
    ds, config = case
    return (evalmod._cv_folds(ds, config),
            [Laplacian(psi, ds.dim) for psi in config.psi_grid])


def grid_traits(case):
    """Whether a CV case's grid repeats a psi ("repeat") or is unsorted
    ("unsorted"), and whether it validates on a ``cv_max_points`` sample
    ("cap")."""
    ds, config = case
    grid = list(config.psi_grid)
    traits = set()
    if len(set(grid)) < len(grid):
        traits.add("repeat")
    if grid != sorted(grid):
        traits.add("unsorted")
    if config.cv_max_points is not None and len(ds) > config.cv_max_points:
        traits.add("cap")
    return traits


def cv_traits(case):
    """What a ``dual_cv_cases`` case reaches: a repeated and an unsorted
    grid, a ``cv_max_points`` sample, a model that keeps one support
    vector for two steps or more, and one that is left with one support
    vector to score rows of 9 entries or more, whose terms numpy sums
    pairwise on a one-row store."""
    ds, config = case
    traits = grid_traits(case)
    folds, kerns = dual_cv_kernels(case)
    for kern in kerns:
        for ft, _ in folds:
            model, at_one = DualModel(kern), 0
            for x, c in zip(ft.rows, ft.labels()):
                at_one += len(model) == 1
                model.step(x, int(c), config.eta)
            if at_one >= 2:
                traits.add("one SV twice")
            if len(model) == 1 and ds.dim >= 9:
                traits.add("ends at one SV, wide")
    return traits


class TestDualFoldScores:
    # about one draw in ten leaves a model at one support vector to score
    # rows wide enough to round otherwise on the shared store
    @settings(max_examples=150, deadline=None)
    @given(dual_cv_cases())
    def test_lockstep_scores_as_a_model_per_psi_and_fold(self, case):
        ds, config = case
        folds, kerns = dual_cv_kernels(case)
        got = dual_fold_scores([fv for _, fv in folds], kerns, config.eta)
        for kern, row in zip(kerns, got, strict=True):
            for (ft, fv), scores in zip(folds, row, strict=True):
                model = DualModel(kern)
                model.train_pass(ft.rows, ft.labels(), config.eta)
                want = model.predict_many(fv.rows)
                assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trait", ["repeat", "unsorted", "cap",
                                       "one SV twice",
                                       "ends at one SV, wide"])
    def test_the_draws_reach_every_trait(self, trait):
        # any example will do, so none is shrunk
        find(dual_cv_cases(), lambda case: trait in cv_traits(case),
             settings=settings(max_examples=200, database=None,
                               phases=[Phase.generate], derandomize=True))


@st.composite
def nystrom_cv_cases(draw):
    """(dataset, config) of NOGD's CV: dense rows of up to 20 values in
    [-1, 1] that round, drawn from a pool of rows, so that rows may repeat
    and a landmark Gram lose rank; labels of one class or two; a grid of
    one to four psi, which may repeat and be unsorted; 2 to 5 folds, of
    all the points or of ``cv_max_points`` of them; b up to the smallest
    fold's training size, often equal to it, and r up to b, often equal
    to it."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 20))
    pool = draw(st.lists(st.lists(ROUNDING.map(lambda v: v / 4), min_size=d,
                                  max_size=d), min_size=1, max_size=n))
    X = [pool[j] for j in draw(st.lists(st.integers(0, len(pool) - 1),
                                        min_size=n, max_size=n))]
    labels = draw(st.lists(st.sampled_from(draw(st.sampled_from(
        [[-1, 1], [1]]))), min_size=n, max_size=n))
    k = draw(st.integers(2, min(5, n)))
    cap = draw(st.none() | st.integers(k, n))
    m = n if cap is None else cap
    smallest = m - -(-m // k)  # fold 0 validates on the most points
    b = draw(st.just(smallest) | st.integers(1, smallest))
    config = evalmod.ProtocolConfig(
        learner="nogd", folds=k, seed=draw(st.integers(0, 99)),
        psi_grid=tuple(draw(st.lists(st.sampled_from([2, 3, 16, 64, 300]),
                                     min_size=1, max_size=4))),
        cv_max_points=cap, b=b, r=draw(st.just(b) | st.integers(1, b)),
        eta=draw(st.sampled_from([0.5, 1.3, 4.0, 8.0])))
    return from_dense(np.array(X), np.array(labels), "cv"), config


def nystrom_cv_folds(case):
    """The case's folds, as ``cv_select_psi`` makes them, and the landmark
    seed of each."""
    ds, config = case
    folds = evalmod._cv_folds(ds, config)
    return folds, [(config.seed, 227, i) for i in range(len(folds))]


def nystrom_cv_traits(case):
    """What a ``nystrom_cv_cases`` case reaches: ``grid_traits``, a b of
    the smallest fold's training size, and a fold whose landmarks repeat
    rows so that the map keeps fewer than r eigenpairs."""
    ds, config = case
    traits = grid_traits(case)
    folds, seeds = nystrom_cv_folds(case)
    if config.b == min(len(ft) for ft, _ in folds):
        traits.add("b = smallest fold")
    for psi in config.psi_grid:
        for seed, (ft, _) in zip(seeds, folds):
            nm = fit_nystrom(ft, config.b, config.r, Laplacian(psi, ds.dim),
                             seed)
            if nm.effective_r < config.r:
                traits.add("effective_r < r")
    return traits


class TestNystromFoldScores:
    @settings(max_examples=100, deadline=None)
    @given(nystrom_cv_cases())
    def test_one_pass_scores_as_a_map_per_psi_and_fold(self, case):
        ds, config = case
        folds, seeds = nystrom_cv_folds(case)
        kerns = [Laplacian(psi, ds.dim) for psi in config.psi_grid]
        got = nystrom_fold_scores(folds, kerns, config.b, config.r,
                                  config.eta, seeds)
        for psi, row in zip(config.psi_grid, got, strict=True):
            for seed, (ft, fv), scores in zip(seeds, folds, row, strict=True):
                model = evalmod.fit_learner(ft, psi, config, seed)
                want = model.predict_many(model.encode(fv))
                assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trait", ["repeat", "unsorted", "cap",
                                       "effective_r < r",
                                       "b = smallest fold"])
    def test_the_draws_reach_every_trait(self, trait):
        # any example will do, so none is shrunk
        find(nystrom_cv_cases(), lambda case: trait in nystrom_cv_traits(case),
             settings=settings(max_examples=200, database=None,
                               phases=[Phase.generate], derandomize=True))


class TestPrimalDual:
    @bounded
    @given(fitted_maps(), st.data())
    def test_dual_twin_scores_and_updates_as_the_primal(self, case, data):
        # scores lie on the lattice eta * k / t; with eta = 0.55 and t <= 8
        # c * score misses the margin 1 by at least 1 / (20 t), so rounding
        # in the two summation orders cannot split an update decision
        eta = 0.55
        ds, mapper = case
        F = mapper.map_many(ds)
        primal = IKOGDModel(mapper.t, mapper.psi, mapper=mapper)
        dual = DualModel(FeatureMatchKernel(mapper.t))
        stream = data.draw(st.lists(st.tuples(
            st.integers(0, len(ds) - 1), st.sampled_from([-1, 1])),
            max_size=40))
        for i, c in stream:
            sp = primal.step(F[i], c, eta)
            sd = dual.step(sparse_feature(F[i], mapper.psi), c, eta)
            assert abs(sp - sd) <= 1e-12
            assert primal.updates == dual.updates


class TestLibsvm:
    @bounded
    @given(labeled_points())
    def test_format_then_parse_round_trips(self, p):
        q = parse_libsvm_line(format_libsvm_line(p), dim_hint=p.x.dim)
        assert q.c == p.c
        assert q.x == p.x


# labels of raw value +1 or -1, for which the file's label policy and a
# line's own sign policy agree, and labels no line may hold
LABELS = ["+1", "-1", "1", "-1.0"]
ODD_LABELS = ["junk", "nan", "1e400", "+5:1", "3:4:"]
FEATURE_VALUES = ["1", "-2.5", "0", "0.0", "-0.0", "1e-3", "0.1"]
# feature tokens that are malformed, non-finite, out of range or merely
# unusual; each is accepted or rejected by ``parse_libsvm_line``
ODD_TOKENS = [
    "3:4:", ":5", "3:", "1:2:3", "1:2:3 4", "junk", "+5:1", "1_0:2", "nan",
    "2:nan", "2:1e400", "0:1", "-4:1", "2147483648:1", "2147483647:0",
    "12345678901234567890:1", "7:0", "3:4",
]


@st.composite
def libsvm_lines(draw, odd):
    """One LIBSVM line with its LF or CRLF ending. An odd line has an odd
    label or an odd token, or repeats an index; any other line is a valid
    line of increasing indices, some of them explicit zeros, or a blank or
    whitespace-only line."""
    kind = draw(st.sampled_from(["odd label", "odd token", "repeat"] if odd
                                else ["valid"] * 3 + ["blank"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t ", "  "])) + end
    feats = [f"{i}:{draw(st.sampled_from(FEATURE_VALUES))}"
             for i in sorted(draw(st.sets(st.integers(1, 40), max_size=5)))]
    label = draw(st.sampled_from(
        ODD_LABELS if kind == "odd label" else LABELS))
    if kind == "odd token":
        feats.insert(draw(st.integers(0, len(feats))),
                     draw(st.sampled_from(ODD_TOKENS)))
    elif kind == "repeat" and feats:
        at = draw(st.integers(0, len(feats) - 1))
        feats.insert(at, feats[at])
    return draw(st.sampled_from([" ", "\t", "  "])).join([label, *feats]) + end


@st.composite
def libsvm_texts(draw):
    """Up to ten lines that are not odd, with up to two odd lines among
    them."""
    lines = draw(st.lists(libsvm_lines(odd=False), max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(libsvm_lines(odd=True)))
    return "".join(lines)


def outcome(fn):
    """``fn()``, or the class and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def load_line_by_line(text):
    """(dim, [(label, point)]) of LIBSVM ``text`` by ``parse_libsvm_line``
    of each nonblank line in turn, every point at the file's dim."""
    lines = text.replace("\r\n", "\n").split("\n")
    points = [parse_libsvm_line(line, lineno=lineno)
              for lineno, line in enumerate(lines, start=1) if line.strip()]
    dim = max([p.x.dim for p in points], default=0)
    return dim, [(p.c, p.x.with_dim(dim)) for p in points]


def load_in_blocks(text, block, gz):
    """(dim, [(label, point)]) of LIBSVM ``text`` by ``load_libsvm`` of a
    file holding it, gzipped or not, parsed ``block`` lines at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.libsvm.gz" if gz else "d.libsvm")
        with (gzip.open if gz else open)(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        with patch.object(dataset, "_PARSE_BLOCK", block):
            ds = load_libsvm(path)
    for p in ds:
        assert p.x.indices.dtype == np.int32
        assert p.x.values.dtype == np.float64
    return ds.dim, [(p.c, p.x) for p in ds]


@st.composite
def ragged_arrays(draw):
    """(indices, values, offsets, dim) of up to six vectors, which are
    valid or hold one bad kind of entry: indices out of order or repeated,
    below 1 or past int32, values zero or not finite, or a dim below the
    largest index."""
    dim = draw(st.integers(1, 30))
    runs = draw(st.lists(
        st.sets(st.integers(1, dim), max_size=5).map(sorted), max_size=6))
    indices = [i for run in runs for i in run]
    values = draw(st.lists(VALUES.filter(bool), min_size=len(indices),
                           max_size=len(indices)))
    kind = draw(st.sampled_from(["valid", "valid", "order", "below 1",
                                 "past int32", "zero", "nan", "inf", "dim"]))
    if indices and kind != "valid":
        at = draw(st.integers(0, len(indices) - 1))
        if kind == "order":
            indices[at] = draw(st.integers(1, dim))
        elif kind == "below 1":
            indices[at] = draw(st.integers(-3, 0))
        elif kind == "past int32":
            indices[at] = 2**31 + draw(st.integers(0, 2))
        elif kind == "dim":
            dim = draw(st.integers(0, dim))
        else:
            values[at] = {"zero": 0.0, "nan": np.nan, "inf": -np.inf}[kind]
    offsets = np.cumsum([0] + [len(run) for run in runs])
    return (np.array(indices, dtype=np.int64), np.array(values), offsets,
            dim)


class TestBlockParse:
    @settings(max_examples=300, deadline=None)
    @given(libsvm_texts(), st.sampled_from([1, 2, 3, 128]), st.booleans())
    def test_load_equals_parsing_line_by_line(self, text, block, gz):
        # the same points, dim and labels, or the first bad line's error,
        # whichever block it lies in
        assert outcome(lambda: load_in_blocks(text, block, gz)) == outcome(
            lambda: load_line_by_line(text))

    @pytest.mark.parametrize(
        "line", [f"+1 2:1 {token}" for token in ODD_TOKENS]
        + [f"{label} 1:1" for label in ODD_LABELS])
    def test_each_odd_line_loads_as_parsed_line_by_line(self, line):
        # in a block of valid lines, and in a block of its own
        text = f"+1 1:1 2:2\n-1 3:1\n{line}\n+1 2:1\n"
        for block in (1, 128):
            assert outcome(lambda: load_in_blocks(text, block, False)) == (
                outcome(lambda: load_line_by_line(text)))

    @settings(max_examples=200, deadline=None)
    @given(ragged_arrays())
    def test_ragged_vectors_equal_sparse_vectors(self, case):
        indices, values, offsets, dim = case
        expected = outcome(lambda: [
            SparseVector(indices[lo:hi], values[lo:hi], dim)
            for lo, hi in zip(offsets[:-1], offsets[1:])])
        got = outcome(
            lambda: Rows.checked(indices, values, offsets, dim).vectors())
        assert got == expected
        if isinstance(got, list):
            for x in got:
                assert x.indices.dtype == np.int32
                assert x.values.dtype == np.float64
                assert type(x.dim) is int


class TestDenseRows:
    @bounded
    @given(
        st.lists(sparse_points(st.integers(1, 8)), max_size=6),
        st.sets(st.integers(0, 11)),
    )
    def test_equals_the_dense_stack_on_the_chosen_columns(self, xs, picked):
        # columns run past every row's dim, and may be none at all
        cols = np.array(sorted(picked), dtype=np.intp)
        stack = np.array([x.densify(12) for x in xs]).reshape(len(xs), 12)
        X = dense_rows(Rows.of(xs).entries(), len(xs), cols)
        assert X.shape == (len(xs), cols.size)
        assert np.array_equal(X, stack[:, cols])


@st.composite
def point_lists(draw):
    """(points, declared dim): up to eight labeled points of mixed dims,
    some of them empty, and a dim to declare that may lie above every
    point's index or be None."""
    xs = draw(st.lists(sparse_points(st.integers(1, 8)), max_size=8))
    points = [LabeledPoint(x, draw(st.sampled_from([-1, 1]))) for x in xs]
    return points, draw(st.one_of(st.none(), st.integers(1, 12)))


def tags(n):
    """A dataset whose row i holds its own id, i + 1, so that a slice of it
    names the rows that the same slice of another n-row dataset takes."""
    return Dataset([LabeledPoint(SparseVector([i + 1], [1.0], n), 1)
                    for i in range(n)])


def assert_views_of(ds, points, dim):
    """Every view of ``ds``, by iteration and by index, is the point of
    ``points`` it came from, declared at ``dim``."""
    assert len(ds) == len(points) and ds.dim == dim
    for i, (view, p) in enumerate(zip(ds, points)):
        for got in (view, ds[i], ds[i - len(ds)]):
            assert got.x == SparseVector(p.x.indices, p.x.values, dim)
            assert got.c == p.c and got.x.dim == dim
    assert ds.labels().tolist() == [p.c for p in points]


class TestPackedDataset:
    @bounded
    @given(point_lists(), st.data())
    def test_every_slice_views_the_points_it_came_from(self, case, data):
        points, declared = case
        n = len(points)
        ds = Dataset(points, dim=declared)
        dim = max([declared or 0] + [p.x.dim for p in points])
        assert_views_of(ds, points, dim)

        def came_from(tagged):
            return [points[int(tag.x.indices[0]) - 1] for tag in tagged]

        ids = data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                 max_size=2 * n if n else 0))
        assert_views_of(ds.subset(ids), [points[i] for i in ids], dim)
        seed = data.draw(st.integers(0, 2**16))
        shuffled = shuffle(ds, seed)
        assert_views_of(shuffled, came_from(shuffle(tags(n), seed)), dim)
        k = data.draw(st.integers(0, n))
        head, rest = split_head(ds, k)
        assert_views_of(head, points[:k], dim)
        assert_views_of(rest, points[k:], dim)
        if n >= 2:
            folds = data.draw(st.integers(2, n))
            for pair, tag_pair in zip(kfold(ds, folds, seed),
                                      kfold(tags(n), folds, seed)):
                for part, tagged in zip(pair, tag_pair):
                    assert_views_of(part, came_from(tagged), dim)
        other = Dataset(points[:1], dim=data.draw(st.integers(1, 14)))
        wide = max(dim, other.dim)
        for unified, ps in zip(unify_dims(ds, other), [points, points[:1]]):
            assert_views_of(unified, ps, wide)

    @bounded
    @given(st.integers(0, 6), st.integers(1, 6), st.data())
    def test_from_dense_keeps_each_rows_nonzeros(self, n, dim, data):
        X = np.array(data.draw(st.lists(
            st.lists(VALUES, min_size=dim, max_size=dim),
            min_size=n, max_size=n)), dtype=np.float64).reshape(n, dim)
        labels = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                                    max_size=n))
        if n and data.draw(st.booleans()):
            X[data.draw(st.integers(0, n - 1)),
              data.draw(st.integers(0, dim - 1))] = np.nan
        expected = outcome(lambda: [
            LabeledPoint(SparseVector(np.flatnonzero(row) + 1,
                                      row[np.flatnonzero(row)], dim), c)
            for row, c in zip(X, labels)])
        got = outcome(lambda: from_dense(X, labels, "dense"))
        if isinstance(expected, tuple):  # the error of the first bad row
            assert got == expected
        else:
            assert_views_of(got, expected, dim)
