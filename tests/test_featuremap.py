"""Feature map geometry, kernel estimation, and indexed dot products."""

import hashlib
import json
import tracemalloc
import zipfile
from collections.abc import Mapping
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import isokernel.featuremap as featuremap
from isokernel.dataset import (
    Dataset,
    LabeledPoint,
    Rows,
    SparseVector,
    load_libsvm,
    row_blocks,
    save_npz,
)
from isokernel.errors import (
    DataError,
    LoadError,
    ParameterError,
    ProvenanceError,
    ShapeError,
)
from isokernel.featuremap import (
    Mapper,
    dense_feature,
    kernel,
    naive_dot,
    sparse_feature,
    write_features_csv,
)
from isokernel.learner import IKOGDModel

from isokernel.partition import (
    DENSE_FILL, SCHEMES, CentreIndex, CentreStack, ITree, sample_rows,
)

from helpers import (
    as_depth_first_release,
    damage_npz,
    rand_dataset,
    rand_sparse,
    rewrite_npz,
    set_npz_entry,
    unreadable_files,
)


def fit_small(rng_seed=0, n=200, dim=6, psi=8, t=32, scheme="anne"):
    rng = np.random.default_rng(rng_seed)
    ds = rand_dataset(rng, n, dim, density=0.8)
    return ds, Mapper.fit(ds, psi=psi, t=t, scheme=scheme, seed=rng_seed + 1)


class TestFit:
    def test_degenerate_single_cell(self):
        rng = np.random.default_rng(0)
        ds = rand_dataset(rng, 5, 3)
        mapper = Mapper.fit(ds, psi=1, t=1, scheme="anne", seed=0)
        for _ in range(10):
            assert mapper.map_point(rand_sparse(rng, 3)).tolist() == [0]

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_same_seed_same_map(self, scheme):
        rng = np.random.default_rng(1)
        ds = rand_dataset(rng, 100, 5)
        m1 = Mapper.fit(ds, psi=8, t=20, scheme=scheme, seed=99)
        m2 = Mapper.fit(ds, psi=8, t=20, scheme=scheme, seed=99)
        for _ in range(100):
            x = rand_sparse(rng, 5)
            assert np.array_equal(m1.map_point(x), m2.map_point(x))

    def test_propagates_sample_error(self):
        rng = np.random.default_rng(2)
        ds = rand_dataset(rng, 4, 3)
        with pytest.raises(Exception) as err:
            Mapper.fit(ds, psi=8, t=2, scheme="anne", seed=0)
        assert "sample" in str(err.value).lower()

    def test_rejects_bad_params(self):
        rng = np.random.default_rng(3)
        ds = rand_dataset(rng, 10, 3)
        with pytest.raises(ParameterError):
            Mapper.fit(ds, psi=2, t=0, scheme="anne", seed=0)
        with pytest.raises(ParameterError):
            Mapper.fit(ds, psi=2, t=2, scheme="grid", seed=0)

    @pytest.mark.parametrize("psi", [4.0, 4.5, True, np.bool_(True), "4"])
    def test_rejects_a_psi_that_is_not_an_integer(self, psi):
        ds = rand_dataset(np.random.default_rng(3), 10, 3)
        with pytest.raises(ParameterError, match="psi"):
            Mapper.fit(ds, psi=psi, t=2, scheme="anne", seed=0)

    @pytest.mark.parametrize("t", [2.5, np.float64(3.0), True, "3"])
    def test_rejects_a_t_that_is_not_an_integer(self, t):
        # range(t) would raise a TypeError, or take a bool as 1
        ds = rand_dataset(np.random.default_rng(3), 10, 3)
        with pytest.raises(ParameterError, match="t must be an integer"):
            Mapper.fit(ds, psi=2, t=t, scheme="anne", seed=0)

    def test_takes_a_numpy_integer_psi(self):
        ds = rand_dataset(np.random.default_rng(3), 10, 3)
        assert Mapper.fit(ds, psi=np.int64(4), t=2, scheme="anne",
                          seed=0).cell_counts() == [4, 4]

    @pytest.mark.parametrize("seed", [True, np.bool_(True), (3, False)])
    def test_rejects_a_bool_seed(self, seed):
        # numpy would take it as the integer 1 (or 0)
        ds = rand_dataset(np.random.default_rng(3), 10, 3)
        with pytest.raises(ParameterError, match="seed"):
            Mapper.fit(ds, psi=2, t=2, scheme="iforest", seed=seed)


# sha256 (first 16 hex digits) of the int32 map_many cells of each fitted
# set under fits at psi=16, t=50, seed=7, as recorded when each
# partitioning was still built from a list of its sampled points: how a fit
# packs and samples its data must not move a cell. The dense file takes the
# grower's dense form and a CentreStack, the sparse set the entries form
# and a CentreIndex.
PINNED_CELLS = {
    ("sample_train", "iforest"): "47012cc6f58e9836",
    ("sample_train", "anne"): "d0952e9fc12649a7",
    ("sparse", "iforest"): "3036357d8d9986b0",
    ("sparse", "anne"): "884a76a8eef19f13",
}


@pytest.mark.parametrize("name, scheme", sorted(PINNED_CELLS))
def test_cells_of_fixed_seed_fits_are_pinned(name, scheme):
    if name == "sample_train":
        root = Path(__file__).resolve().parent.parent
        ds = load_libsvm(root / "data" / "sample_train.libsvm")
    else:
        ds = rand_dataset(np.random.default_rng(15), 300, 2000, density=0.01)
    cells = Mapper.fit(ds, 16, 50, scheme, 7).map_many(ds)
    digest = hashlib.sha256(cells.astype("<i4").tobytes()).hexdigest()
    assert digest[:16] == PINNED_CELLS[name, scheme]


class TestMapPoint:
    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_exactly_t_cells_one_per_partitioning(self, scheme):
        ds, mapper = fit_small(scheme=scheme)
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = mapper.map_point(rand_sparse(rng, 6))
            assert f.shape == (mapper.t,)
            assert np.all(f >= 0) and np.all(f < mapper.psi)
            phi = dense_feature(f, mapper.psi)
            assert phi.sum() == mapper.t  # exactly t ones among t*psi slots
            assert np.linalg.norm(phi.ravel()) == pytest.approx(
                np.sqrt(mapper.t)
            )

    def test_sample_points_get_distinct_ids_per_partitioning(self):
        ds, mapper = fit_small(scheme="anne", psi=8)
        for i, part in enumerate(mapper.parts):
            ids = {mapper.map_point(z)[i] for z in part.rows.vectors()}
            assert len(ids) == len(part.rows.vectors())

    def test_map_many_matches_map_point(self):
        ds, mapper = fit_small(scheme="iforest")
        F = mapper.map_many(ds)
        for row, p in zip(F, ds):
            assert np.array_equal(row, mapper.map_point(p.x))


@pytest.mark.parametrize("scheme", ["iforest", "anne"])
def test_parts_are_the_sequence_of_partitionings(scheme):
    # as the benchmark's map check reads them: item i, at a numpy index,
    # is partitioning i alone, as build_many builds it from pair i
    ds, mapper = fit_small(scheme=scheme, t=5)
    parts = mapper.parts
    assert len(parts) == len(list(parts)) == 5
    with pytest.raises(IndexError):
        parts[5]
    for i in range(5):
        part = parts[np.int64(i)]
        assert part.scheme == scheme
        rng = np.random.default_rng((mapper.seed, i))
        sample = ds.rows.take(sample_rows(len(ds), mapper.psi, rng))
        alone = SCHEMES[scheme].build_many([(sample, rng)]).pack()
        assert part.pack().keys() == alone.keys()
        for key, arr in part.pack().items():
            assert arr.dtype == alone[key].dtype
            assert np.array_equal(arr, alone[key])


class TestKernel:
    def test_self_kernel_is_one(self):
        ds, mapper = fit_small()
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = mapper.map_point(rand_sparse(rng, 6))
            assert kernel(f, f) == 1.0

    def test_disjoint_features_give_zero(self):
        fa = np.zeros(10, dtype=np.int32)
        fb = np.ones(10, dtype=np.int32)
        assert kernel(fa, fb) == 0.0

    def test_matches_dense_expansion_oracle(self):
        ds, mapper = fit_small(t=25)
        rng = np.random.default_rng(6)
        for _ in range(200):
            fa = mapper.map_point(rand_sparse(rng, 6))
            fb = mapper.map_point(rand_sparse(rng, 6))
            pa = dense_feature(fa, mapper.psi).ravel()
            pb = dense_feature(fb, mapper.psi).ravel()
            assert kernel(fa, fb) == float(pa @ pb) / mapper.t

    def test_symmetry_and_grid_range(self):
        ds, mapper = fit_small(t=16)
        rng = np.random.default_rng(7)
        grid = {i / mapper.t for i in range(mapper.t + 1)}
        for _ in range(100):
            fa = mapper.map_point(rand_sparse(rng, 6))
            fb = mapper.map_point(rand_sparse(rng, 6))
            k = kernel(fa, fb)
            assert k == kernel(fb, fa)
            assert k in grid

    def test_gram_is_positive_semidefinite(self):
        ds, mapper = fit_small(n=80, t=40)
        F = [mapper.map_point(p.x) for p in list(ds)[:50]]
        G = np.array([[kernel(a, b) for b in F] for a in F])
        assert np.linalg.eigvalsh(G).min() >= -1e-8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProvenanceError):
            kernel(np.zeros(5, dtype=np.int32), np.zeros(6, dtype=np.int32))

    def test_monte_carlo_consistency_small_vs_large_t(self):
        # estimates from t and 100t partitionings agree within binomial noise
        rng = np.random.default_rng(8)
        ds = rand_dataset(rng, 300, 4, density=0.9)
        t_small = 100
        m_small = Mapper.fit(ds, psi=8, t=t_small, scheme="anne", seed=11)
        m_large = Mapper.fit(ds, psi=8, t=100 * t_small, scheme="anne", seed=12)
        failures = 0
        for _ in range(20):
            x, y = rand_sparse(rng, 4, 0.9), rand_sparse(rng, 4, 0.9)
            k_small = kernel(m_small.map_point(x), m_small.map_point(y))
            k_large = kernel(m_large.map_point(x), m_large.map_point(y))
            tol = 4 * np.sqrt(max(k_large * (1 - k_large), 1e-12) / t_small)
            if abs(k_small - k_large) > tol:
                failures += 1
        assert failures <= 1


class TestDotProducts:
    """``IKOGDModel``'s t weight reads against the reference forms."""

    def test_all_ones_weight_counts_t(self):
        model = IKOGDModel(12, 5)
        model.w[:] = 1.0
        f = np.arange(12, dtype=np.int32) % 5
        assert model.predict(f) * 12 == 12.0

    def test_weight_from_feature_chains_to_kernel(self):
        ds, mapper = fit_small(t=20)
        rng = np.random.default_rng(9)
        fy = mapper.map_point(rand_sparse(rng, 6))
        model = IKOGDModel(mapper.t, mapper.psi)
        model.w = dense_feature(fy, mapper.psi)
        fx = mapper.map_point(rand_sparse(rng, 6))
        assert model.predict(fx) == kernel(fx, fy)

    def test_efficient_equals_naive_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            t = int(rng.integers(1, 20))
            psi = int(rng.integers(1, 30))
            model = IKOGDModel(t, psi)
            model.w = rng.standard_normal((t, psi))
            f = rng.integers(0, psi, size=t).astype(np.int32)
            assert model.predict(f) * t == pytest.approx(
                naive_dot(model.w, f), abs=1e-12
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProvenanceError):
            IKOGDModel(4, 3).predict(np.zeros(5, dtype=np.int32))
        with pytest.raises(ShapeError):
            naive_dot(np.zeros((4, 3)), np.zeros(5, dtype=np.int32))
        for form in (dense_feature, sparse_feature):
            for f in ([3], [0, -1]):
                with pytest.raises(ShapeError):
                    form(np.array(f, dtype=np.int32), 3)


class TestAccumulate:
    """``IKOGDModel._update`` adds eta * c at the t cells of a feature."""

    def test_self_dot_after_single_accumulate(self):
        model = IKOGDModel(10, 6)
        f = np.arange(10, dtype=np.int32) % 6
        model._update(f, 1, 1.0)
        assert model.predict(f) == 1.0

    def test_accumulate_then_inverse_restores_exactly(self):
        # dyadic entries and coefficient keep every add rounding-free, so
        # the inverse update must restore w bit for bit
        rng = np.random.default_rng(12)
        model = IKOGDModel(8, 5)
        model.w = rng.integers(-16, 16, size=(8, 5)).astype(np.float64) / 8.0
        before = model.w.copy()
        f = rng.integers(0, 5, size=8).astype(np.int32)
        model._update(f, 1, 0.375)
        model._update(f, -1, 0.375)
        assert np.array_equal(model.w, before)

    def test_accumulate_from_zero_inverse_restores_any_coeff(self):
        model = IKOGDModel(6, 4)
        f = np.array([0, 1, 2, 3, 0, 1], dtype=np.int32)
        model._update(f, 1, 0.37)
        model._update(f, -1, 0.37)
        assert np.array_equal(model.w, np.zeros((6, 4)))

    def test_accumulated_weights_expand_as_dual_sum(self):
        ds, mapper = fit_small(t=15)
        rng = np.random.default_rng(13)
        model = IKOGDModel(mapper.t, mapper.psi)
        terms = []
        for _ in range(30):
            fj = mapper.map_point(rand_sparse(rng, 6))
            coeff = float(rng.standard_normal())
            model._update(fj, 1, coeff)
            terms.append((fj, coeff))
        for _ in range(20):
            f = mapper.map_point(rand_sparse(rng, 6))
            expected = sum(coeff * kernel(fj, f) for fj, coeff in terms)
            assert model.predict(f) == pytest.approx(expected, abs=1e-9)


class TestPersistence:
    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_save_load_bit_identical_assignments(self, tmp_path, scheme):
        ds, mapper = fit_small(scheme=scheme)
        path = tmp_path / "map.npz"
        mapper.save(path)
        clone = Mapper.load(path)
        assert (clone.scheme, clone.t, clone.psi, clone.seed, clone.dim) == (
            mapper.scheme, mapper.t, mapper.psi, mapper.seed, mapper.dim,
        )
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rand_sparse(rng, 6)
            assert np.array_equal(mapper.map_point(x), clone.map_point(x))

    @pytest.mark.parametrize(
        "scheme, part_keys",
        [
            ("iforest", {"feature", "threshold", "offsets"}),
            ("anne", {"cat_indices", "cat_values", "offsets", "dim"}),
        ],
    )
    def test_file_layout(self, tmp_path, scheme, part_keys):
        # one ragged set per map, whatever t is
        ds, mapper = fit_small(scheme=scheme, t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        with np.load(path) as data:
            files = set(data.files)
            meta = json.loads(str(data["meta"]))
        assert files == {"meta"} | part_keys
        assert set(meta) == {"format_version", "scheme", "t", "psi", "seed",
                             "dim"}
        assert meta["format_version"] == 3

    @pytest.mark.parametrize(
        "scheme, key",
        [("iforest", "threshold"), ("anne", "offsets")],
    )
    def test_missing_array_is_a_load_error(self, tmp_path, scheme, key):
        _, mapper = fit_small(scheme=scheme, t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        damage_npz(path, drop=key)
        with pytest.raises(LoadError, match="map file"):
            Mapper.load(path)

    @pytest.mark.parametrize(
        "meta", ["{not json", "[1]", '{"format_version": 3, "t": 3}']
    )
    def test_bad_meta_is_a_load_error(self, tmp_path, meta):
        _, mapper = fit_small(t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        damage_npz(path, meta=meta)
        with pytest.raises(LoadError):
            Mapper.load(path)

    def test_unreadable_file_is_a_load_error(self, tmp_path):
        for path in unreadable_files(tmp_path):
            with pytest.raises(LoadError):
                Mapper.load(path)

    @pytest.mark.parametrize("key, value", [
        ("threshold", np.nan), ("threshold", np.inf), ("feature", -2),
        ("feature", 6), ("feature", 2**31 - 1),
    ])
    def test_bad_tree_arrays_are_a_load_error(self, tmp_path, key, value):
        # a fitted map stores -1 and 0.0 at leaves; the root of tree 0 is
        # a split of one of the map's dim=6 attributes
        _, mapper = fit_small(scheme="iforest", t=3)
        assert mapper.dim == 6 and mapper.parts[0].feature[0] >= 0
        path = tmp_path / "map.npz"
        mapper.save(path)
        set_npz_entry(path, key, value)
        with pytest.raises(LoadError, match=f"array '{key}'"):
            Mapper.load(path)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_more_cells_than_psi_is_a_load_error(self, tmp_path, scheme):
        # it loaded, and a model over it read a cell id past psi from the
        # next partitioning's weights, or past w's end with an IndexError
        _, mapper = fit_small(scheme=scheme, t=3, psi=16)
        assert mapper.cell_counts() == [16, 16, 16]
        path = tmp_path / "map.npz"
        mapper.save(path)
        rewrite_npz(path, lambda meta, _: meta.update(psi=4))
        with pytest.raises(LoadError, match="more than psi=4 cells"):
            Mapper.load(path)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_load_reads_each_array_a_bounded_number_of_times(self, scheme):
        # a pass over every array per partitioning would make 2t reads of
        # each array here, and a load quadratic in t
        _, mapper = fit_small(scheme=scheme, t=40)
        meta, arrays = mapper.state()

        class Counted(Mapping):
            reads = 0

            def __getitem__(self, key):
                Counted.reads += 1
                return arrays[key]

            def __iter__(self):
                for key in arrays:
                    Counted.reads += 1
                    yield key

            def __len__(self):
                return len(arrays)

        clone = Mapper.from_state(meta, Counted())
        assert Counted.reads <= 2 * len(arrays)
        for key, arr in clone.parts.pack().items():
            assert np.array_equal(arr, mapper.parts.pack()[key])

    def test_anne_load_builds_no_vector_per_centre(self, tmp_path):
        _, mapper = fit_small(scheme="anne", t=40)
        path = tmp_path / "map.npz"
        mapper.save(path)
        with patch.object(Rows, "vectors", side_effect=AssertionError):
            clone = Mapper.load(path)
        for mine, theirs in zip(clone.parts, mapper.parts):
            assert mine.rows.vectors() == theirs.rows.vectors()
            assert np.array_equal(mine.sq_norms, theirs.sq_norms)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_compressed_map_file_loads_to_the_same_cells(self, tmp_path,
                                                         scheme):
        # maps are saved uncompressed, as np.savez writes them; files that
        # np.savez_compressed wrote, as earlier releases did, still load
        ds, mapper = fit_small(scheme=scheme, t=10)
        path = tmp_path / "map.npz"
        mapper.save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED}
        np.savez_compressed(path, **arrays)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_DEFLATED}
        assert np.array_equal(Mapper.load(path).map_many(ds),
                              mapper.map_many(ds))

    @pytest.mark.parametrize("damage", ["all splits", "short thresholds"])
    def test_tree_that_is_not_full_is_a_load_error(self, tmp_path, damage):
        # a tree of splits alone links past its last node, and every node
        # needs its threshold
        _, mapper = fit_small(scheme="iforest", t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        lo, hi = arrays["offsets"][1:3]  # tree 1
        if damage == "all splits":
            arrays["feature"][lo:hi] = 0
        else:
            arrays["threshold"] = np.delete(arrays["threshold"], hi - 1)
        np.savez_compressed(path, **arrays)
        with pytest.raises(LoadError, match="full binary tree"):
            Mapper.load(path)

    def test_depth_first_format_1_map_is_rejected(self, tmp_path):
        # its trees number their leaves depth-first, so its cells are not
        # those of the same splits read in node order
        _, mapper = fit_small(scheme="iforest", t=3)
        path = tmp_path / "map.npz"
        mapper.save(path)
        as_depth_first_release(path, 1)
        with pytest.raises(DataError, match="unsupported map format 1"):
            Mapper.load(path)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_format_2_map_is_rejected(self, tmp_path, scheme):
        # it holds each partitioning under its own keys, not one ragged set
        _, mapper = fit_small(scheme=scheme, t=3)
        arrays = {f"part{i}_{key}": arr
                  for i, part in enumerate(mapper.parts)
                  for key, arr in part.pack().items()}
        path = tmp_path / "map.npz"
        save_npz(path, 2, mapper.state()[0], arrays)
        with pytest.raises(DataError, match="unsupported map format 2"):
            Mapper.load(path)

    def test_features_csv_row_count(self, tmp_path):
        ds, mapper = fit_small(n=17)
        F = mapper.map_many(ds)
        path = tmp_path / "f.csv"
        write_features_csv(path, F)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 17
        assert all(len(line.split(",")) == mapper.t for line in lines)


class TestBlocks:
    @pytest.mark.parametrize(
        "scheme, t, psi",
        [("iforest", 3, 5), ("iforest", 12, 5), ("anne", 3, 5),
         ("anne", 3, 12)],
    )
    def test_tiny_blocks_encode_alike_within_the_bound(
        self, monkeypatch, scheme, t, psi
    ):
        calls = []  # per call: rows, and elements per row of each array
        forms = {}  # each joined form: its unpatched assign_many
        default = featuremap._BLOCK

        def spy_assign_many(self, packed, n):
            # the forest and the stack densify the block onto their
            # columns; the index reads the packed entries as they are
            if isinstance(self, ITree):
                per_row, columns = len(self), self.cols.size
            else:
                per_row = self.sq.size
                columns = self.Z.shape[1] if isinstance(self, CentreStack) else 0
            calls.append((n, per_row, columns))
            return forms[type(self)](self, packed, n)

        for form in (ITree, CentreStack, CentreIndex):
            forms[form] = form.assign_many
            monkeypatch.setattr(form, "assign_many", spy_assign_many)
        # dense low-dimensional points, then sparse points at a high dim,
        # whose centres fill their dense matrix to about one over their
        # number, so they form an index where that is below DENSE_FILL
        for dim, density in ((6, 0.8), (600, 0.01)):
            rng = np.random.default_rng(dim)
            ds = rand_dataset(rng, 60, dim, density=density)
            mapper = Mapper.fit(ds, psi=psi, t=t, scheme=scheme, seed=1)
            monkeypatch.setattr(featuremap, "_BLOCK", default)
            if scheme == "anne":
                sparse = dim > 6 and t * psi * DENSE_FILL > 1
                form = CentreIndex if sparse else CentreStack
                assert type(mapper.parts.scorer) is form
            expected = mapper.map_many(ds)
            for block in (7, 100, 1 << 30):
                calls.clear()
                monkeypatch.setattr(featuremap, "_BLOCK", block)
                assert np.array_equal(mapper.map_many(ds), expected)
                # every row is encoded once per partitioning, in calls
                # whose (row, tree) pairs, (row, centre) scores and (row,
                # column) entries each fit in a block, or of one row when
                # a row has more
                cells = sum(rows * per_row for rows, per_row, _ in calls)
                assert cells == len(ds) * t * (
                    1 if scheme == "iforest" else psi)
                for rows, per_row, columns in calls:
                    assert rows == 1 or rows * max(per_row, columns) <= block
                for p, row in zip(ds, expected):
                    assert np.array_equal(mapper.map_point(p.x), row)

    def test_rows_that_fit_one_block_are_the_packing_itself(self):
        xs = [rand_sparse(np.random.default_rng(i), 9) for i in range(5)]
        packed = Rows.of(xs).entries()
        (lo, n, block), = row_blocks(packed, 5, 5)
        assert (lo, n) == (0, 5) and block is packed
        pieces = list(row_blocks(packed, 5, 2))
        assert [(lo, n) for lo, n, _ in pieces] == [(0, 2), (2, 2), (4, 1)]
        for key, whole in zip(range(3), packed):
            joined = np.concatenate([block[key] + (lo if key == 0 else 0)
                                     for lo, _, block in pieces])
            assert np.array_equal(joined, whole)


class TestMemory:
    def test_fit_memory_follows_the_group_budget_not_t(self, monkeypatch):
        # samples of 8 dense points at d=200, two samples per group: one
        # group of all 120 trees would hold 60 times the entries of one
        ds = rand_dataset(np.random.default_rng(71), 100, 200, density=1.0)
        monkeypatch.setattr("isokernel.partition._GROW_BUDGET", 2 * 1608)

        def peak(t):
            tracemalloc.start()
            try:
                Mapper.fit(ds, psi=8, t=t, scheme="iforest", seed=72)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(120) < 2 * peak(12)

    @pytest.mark.parametrize("scheme", ["iforest", "anne"])
    def test_map_many_peak_is_independent_of_dim(self, scheme):
        # 500 rows of 10 nonzeros at d=50000: 60 kB of sparse input, where
        # one dense n x d copy alone would be 200 MB
        rng = np.random.default_rng(5)
        d = 50_000
        ds = Dataset([
            LabeledPoint(SparseVector(
                np.sort(rng.choice(d, 10, replace=False)) + 1,
                rng.uniform(0.5, 1.5, 10), d), 1)
            for _ in range(500)
        ], dim=d)
        mapper = Mapper.fit(ds, psi=16, t=5, scheme=scheme, seed=6)
        tracemalloc.start()
        try:
            F = mapper.map_many(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert F.shape == (500, 5)
        assert peak < 4 << 20
