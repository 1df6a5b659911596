"""Parsing, sparse arithmetic, and slicing of LIBSVM-style datasets."""

import gzip
import importlib.util
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import isokernel.dataset as dataset
from isokernel.dataset import (
    Dataset,
    LabeledPoint,
    Rows,
    SparseVector,
    format_libsvm_line,
    kfold,
    l1_distance,
    load_libsvm,
    parse_libsvm_line,
    save_libsvm,
    shuffle,
    split_head,
    sq_distance,
    unify_dims,
)
from isokernel.errors import (
    FormatError,
    LoadError,
    ParameterError,
    ParseError,
    SizeError,
)

from helpers import GZIP_DAMAGE, damaged_gzip, rand_sparse


class TestParseLine:
    def test_basic_line(self):
        p = parse_libsvm_line("+1 3:0.5 7:1.0")
        assert p.c == 1
        assert p.x.indices.tolist() == [3, 7]
        assert p.x.values.tolist() == [0.5, 1.0]
        assert p.x.dim == 7

    def test_label_only_line_is_all_zero_vector(self):
        p = parse_libsvm_line("-1")
        assert p.c == -1
        assert len(p.x) == 0
        assert p.x.dim == 0

    def test_explicit_zero_dropped_but_dim_kept(self):
        p = parse_libsvm_line("1 2:0 4:3")
        assert p.x.indices.tolist() == [4]
        assert p.x.values.tolist() == [3.0]
        assert p.x.dim == 4

    def test_dim_hint_extends(self):
        p = parse_libsvm_line("+1 3:1", dim_hint=10)
        assert p.x.dim == 10

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 17"):
            parse_libsvm_line("+1 3:abc", lineno=17)
        with pytest.raises(ParseError):
            parse_libsvm_line("+1 junk")
        with pytest.raises(ParseError):
            parse_libsvm_line("notalabel 1:2")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_reports_line(self, token):
        with pytest.raises(ParseError, match="line 4"):
            parse_libsvm_line(f"+1 1:0.5 2:{token}", lineno=4)
        with pytest.raises(ParseError, match="line 4"):
            parse_libsvm_line(f"{token} 1:0.5", lineno=4)

    def test_non_increasing_index_rejected(self):
        with pytest.raises(FormatError):
            parse_libsvm_line("+1 3:1 3:2")
        with pytest.raises(FormatError):
            parse_libsvm_line("+1 5:1 2:2")

    @pytest.mark.parametrize("token", ["2147483648:2", "3000000000:2",
                                       "3000000000:0"])
    def test_index_past_int32_reports_line(self, token):
        # indices are stored as int32; an explicit zero still sets the dim
        with pytest.raises(FormatError, match=r"line 6: .* must be < 2\^31"):
            parse_libsvm_line(f"-1 1:1 {token}", lineno=6)

    def test_zero_storage_never_changes_math(self):
        # brute force: vectors serialized with and without explicit zeros
        # must give identical distances
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rand_sparse(rng, 12, density=0.5)
            b = rand_sparse(rng, 12, density=0.5)
            zeros = " ".join(
                f"{j}:0" for j in range(1, 13) if j not in a.indices
            )
            line_plain = format_libsvm_line(LabeledPoint(a, 1))
            tokens = sorted(
                (line_plain.split()[1:] + zeros.split()),
                key=lambda tok: int(tok.split(":")[0]),
            )
            line_padded = "+1 " + " ".join(tokens)
            a2 = parse_libsvm_line(line_padded, dim_hint=12).x
            assert sq_distance(a, b) == sq_distance(a2, b)


class TestSparseVector:
    def test_invariants_enforced(self):
        with pytest.raises(FormatError):
            SparseVector([2, 1], [1.0, 1.0], 5)
        with pytest.raises(FormatError):
            SparseVector([0], [1.0], 5)
        with pytest.raises(FormatError):
            SparseVector([1], [0.0], 5)
        with pytest.raises(FormatError):
            SparseVector([9], [1.0], 5)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(FormatError, match="finite"):
                SparseVector([1, 3], [1.0, bad], 5)

    def test_index_past_int32_rejected(self):
        # as a Python int it cannot be cast; as an int64 it would wrap, to
        # a valid index in the second case
        for indices in ([3_000_000_000], np.array([2**32 + 1])):
            with pytest.raises(FormatError, match=r"\[1, 2\^31\)"):
                SparseVector(indices, [1.0], 2**33)
        v = SparseVector(np.array([2**31 - 1]), [1.0], 2**31 - 1)
        assert v.indices.dtype == np.int32 and v.indices[0] == 2**31 - 1

    def test_densify(self):
        v = SparseVector([2, 5], [1.5, -2.0], 6)
        assert v.densify().tolist() == [0, 1.5, 0, 0, -2.0, 0]


class TestDistances:
    def test_single_coordinate(self):
        a = SparseVector([1], [3.0], 1)
        b = SparseVector([], [], 1)
        assert sq_distance(a, b) == 9.0

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rand_sparse(rng, 20)
        assert sq_distance(a, a) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 30))
            a = rand_sparse(rng, dim, density=rng.uniform(0, 1))
            b = rand_sparse(rng, dim, density=rng.uniform(0, 1))
            da, db = a.densify(dim), b.densify(dim)
            assert sq_distance(a, b) == pytest.approx(
                float(((da - db) ** 2).sum()), abs=1e-12
            )
            assert l1_distance(a, b) == pytest.approx(
                float(np.abs(da - db).sum()), abs=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rand_sparse(rng, 15), rand_sparse(rng, 15)
            assert sq_distance(a, b) == sq_distance(b, a)

    def test_triangle_inequality_after_sqrt(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (rand_sparse(rng, 10) for _ in range(3))
            dab = np.sqrt(sq_distance(a, b))
            dbc = np.sqrt(sq_distance(b, c))
            dac = np.sqrt(sq_distance(a, c))
            assert dac <= dab + dbc + 1e-9

    def test_differing_dims_treated_as_zeros(self):
        a = SparseVector([1, 4], [1.0, 2.0], 4)
        b = SparseVector([1], [1.0], 2)
        assert sq_distance(a, b) == 4.0


class TestFileRoundTrip:
    def test_parse_serialize_parse(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = LabeledPoint(rand_sparse(rng, 25, 0.4), int(rng.choice([-1, 1])))
            q = parse_libsvm_line(format_libsvm_line(p), dim_hint=p.x.dim)
            assert q.c == p.c
            assert q.x == p.x

    def test_save_load_file(self, tmp_path):
        rng = np.random.default_rng(6)
        points = [
            LabeledPoint(rand_sparse(rng, 12, 0.6), int(rng.choice([-1, 1])))
            for _ in range(40)
        ]
        ds = Dataset(points, dim=12, name="orig")
        path = tmp_path / "d.libsvm"
        save_libsvm(ds, path)
        ds2 = load_libsvm(path, dim_hint=12)
        assert len(ds2) == len(ds)
        for p, q in zip(ds, ds2):
            assert p.c == q.c
            assert p.x == q.x

    def test_gzip_transparency(self, tmp_path):
        path = tmp_path / "d.libsvm.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("+1 1:2.5\n-1 2:1\n")
        ds = load_libsvm(path)
        assert len(ds) == 2
        assert ds[0].x.indices.tolist() == [1]
        assert ds[0].x.values.tolist() == [2.5]

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_damaged_gzip_is_a_load_error(self, tmp_path, damage):
        path = tmp_path / "d.libsvm.gz"
        path.write_bytes(damaged_gzip(b"+1 1:1\n-1 2:3\n" * 200, damage))
        with pytest.raises(LoadError,
                           match=r"cannot read LIBSVM file .*d\.libsvm\.gz"):
            load_libsvm(path)


class TestLabelPolicy:
    def test_two_raw_labels_ranked(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2 1:1\n1 1:2\n2 1:3\n")
        ds = load_libsvm(path)
        assert [p.c for p in ds] == [1, -1, 1]

    def test_zero_one_labels(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0 1:1\n1 1:2\n")
        ds = load_libsvm(path)
        assert [p.c for p in ds] == [-1, 1]

    def test_single_label_uses_sign(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("-3 1:1\n-3 1:2\n")
        ds = load_libsvm(path)
        assert [p.c for p in ds] == [-1, -1]

    def test_more_than_two_labels_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 1:1\n2 1:1\n3 1:1\n")
        with pytest.raises(LoadError):
            load_libsvm(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1\n+1 bad\n")
        with pytest.raises(ParseError, match="line 2"):
            load_libsvm(path)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_value_is_a_parse_error(self, tmp_path, token):
        path = tmp_path / "d.txt"
        path.write_text(f"+1 1:1\n-1 1:2\n+1 1:{token}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_libsvm(path)


class TestBlockLoad:
    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_non_utf8_line_is_a_parse_error(self, tmp_path, suffix):
        path = tmp_path / f"d.txt{suffix}"
        with (gzip.open if suffix else open)(path, "wb") as fh:
            fh.write(b"+1 1:2\n-1 1:3\n+1 2:\xc3\n")
        with pytest.raises(ParseError, match="line 3: .* not valid UTF-8"):
            load_libsvm(path)

    def test_first_bad_line_wins_across_blocks(self, tmp_path):
        # lines 3 and 6 are bad, in the second and third blocks of two
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1\n-1 2:1\n+1 3:1 2:1\n-1 1:1\n+1 1:1\n"
                        "-1 junk\n")
        with patch.object(dataset, "_PARSE_BLOCK", 2):
            with pytest.raises(FormatError, match="line 3: .* increasing"):
                load_libsvm(path)
        path.write_text("+1 1:1\n-1 2:nan\n+1 3:\n")
        with pytest.raises(ParseError, match="line 2: .* not finite"):
            load_libsvm(path)

    def test_points_are_views_of_one_packing(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+1 1:1 3:2\n\n-1 2:0 4:1\n+1 5:1\n")
        with patch.object(dataset, "_PARSE_BLOCK", 2):
            ds = load_libsvm(path)
        assert [p.x.indices.tolist() for p in ds] == [[1, 3], [4], [5]]
        assert ds.dim == 5 and all(p.x.dim == 5 for p in ds)
        # blocks of two lines, the blank line ending the first, are joined
        # into one packing
        first, second, third = (p.x.indices.base for p in ds)
        assert first is second is third and first is not None

    @pytest.mark.parametrize("offsets", [[1, 2], [0, 1], [0, 2, 1, 2], []])
    def test_ragged_offsets_must_cover_the_entries(self, offsets):
        with pytest.raises(FormatError, match="offsets"):
            Rows.checked([1, 2], [1.0, 1.0], offsets, 5).vectors()


class TestSampleData:
    def test_script_reproduces_the_committed_files(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "make_sample_data", root / "scripts" / "make_sample_data.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.main(str(tmp_path))
        for name in ("sample_train.libsvm", "sample_test.libsvm"):
            fresh = (tmp_path / name).read_bytes()
            assert fresh == (root / "data" / name).read_bytes(), name


class TestSlicing:
    def _dataset(self, n=10):
        points = [
            LabeledPoint(SparseVector([1], [float(i + 1)], 2), 1 if i % 2 else -1)
            for i in range(n)
        ]
        return Dataset(points, dim=2)

    def test_shuffle_deterministic(self):
        ds = self._dataset(50)
        s1 = shuffle(ds, 123)
        s2 = shuffle(ds, 123)
        assert [p.x.values[0] for p in s1] == [p.x.values[0] for p in s2]
        s3 = shuffle(ds, 124)
        assert [p.x.values[0] for p in s1] != [p.x.values[0] for p in s3]

    def test_split_head_boundary(self):
        ds = self._dataset(8)
        head, tail = split_head(ds, len(ds))
        assert len(head) == 8 and len(tail) == 0
        with pytest.raises(SizeError):
            split_head(ds, 9)
        with pytest.raises(SizeError):
            split_head(ds, -1)

    def test_kfold_partition_laws(self):
        ds = self._dataset(10)
        pairs = kfold(ds, 5, seed=1)
        assert len(pairs) == 5
        seen = []
        for train, val in pairs:
            assert len(val) == 2
            assert len(train) == 8
            seen.extend(p.x.values[0] for p in val)
        assert sorted(seen) == [float(i + 1) for i in range(10)]

    def test_kfold_uneven_covers_every_index_once(self):
        ds = self._dataset(23)
        pairs = kfold(ds, 5, seed=2)
        seen = []
        for _, val in pairs:
            seen.extend(p.x.values[0] for p in val)
        assert sorted(seen) == [float(i + 1) for i in range(23)]

    @pytest.mark.parametrize("n, k", [(10, 5), (23, 5), (7, 2), (9, 9)])
    def test_kfold_trains_on_the_other_folds_in_fold_order(self, n, k):
        # dual OGD's CV trains every fold's model in one walk of the
        # validation folds in order, which relies on this layout
        pairs = kfold(self._dataset(n), k, seed=3)
        vals = [[p.x.values[0] for p in val] for _, val in pairs]
        for i, (train, _) in enumerate(pairs):
            others = [v for j, fold in enumerate(vals) if j != i for v in fold]
            assert [p.x.values[0] for p in train] == others

    def test_kfold_validates_k(self):
        ds = self._dataset(4)
        with pytest.raises(ParameterError):
            kfold(ds, 1, seed=0)
        with pytest.raises(SizeError):
            kfold(ds, 5, seed=0)

    def test_unify_dims(self):
        a = Dataset([LabeledPoint(SparseVector([3], [1.0], 3), 1)])
        b = Dataset([LabeledPoint(SparseVector([5], [1.0], 5), 1)])
        a2, b2 = unify_dims(a, b)
        assert a2.dim == b2.dim == 5
