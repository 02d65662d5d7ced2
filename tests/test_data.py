import numpy as np
import pytest

from mlsvm.data import (DataFormatError, Dataset, apply_normalization,
                        binary_view, fit_normalization, inject_missing,
                        load_dataset, take_rows, write_dataset)
from mlsvm.imputation import MeanImputer, RemImputer
from mlsvm.knn import KnnConfig, build_knn_graph
from mlsvm.svm import fit_pipeline


def make(features, labels, missing=None):
    features = np.asarray(features, dtype=float)
    if missing is not None:
        features = np.where(missing, np.nan, features)
    labels = np.asarray(labels)
    names = tuple(dict.fromkeys(int(v) for v in labels))
    return Dataset(features, labels, names)


class TestLoadDelimited:
    def test_missing_token_sets_mask(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,1\n3.0,?,1\n5.0,6.0,2\n")
        ds = load_dataset(p)
        assert ds.n_rows == 3 and ds.n_features == 2
        assert ds.missing.sum() == 1
        assert ds.missing[1, 1]
        assert np.isnan(ds.features[1, 1])
        assert ds.labels.tolist() == [1, 1, 2]
        assert ds.class_names == (1, 2)

    def test_header_and_named_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,target\n1,2,1\n3,4,2\n")
        ds = load_dataset(p, label_column="target")
        assert ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [1, 2]

    def test_inconsistent_arity_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,1\n3,4\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_dataset(p)

    def test_unknown_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,1\n")
        with pytest.raises(DataFormatError, match="unknown label column"):
            load_dataset(p, label_column="nope")


    def test_integral_float_labels_accepted(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,1.0\n2,2\n3,-1.0\n")
        assert load_dataset(p).labels.tolist() == [1, 2, -1]

    @pytest.mark.parametrize("fmt, text, where", [
        ("delimited", "1,1\n2,1.9\n3,2\n4,2.5\n", "line 2 column 2"),
        ("sparse", "1 1:1\n2.5 1:2\n", "line 2 column 1"),
    ], ids=["delimited", "sparse"])
    def test_fractional_label_rejected(self, fmt, text, where, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=where + " has non-integral"):
            load_dataset(p, fmt)

    @pytest.mark.parametrize("text, label_column, message", [
        ("a,b,y\n", -1, "no data rows after header"),
        ("a,b,y\n\n", "y", "no data rows after header"),
        ("1,2,1\n", 3, "label column index 3 out of range"),
        ("1,2,1\n", -4, "label column index -4 out of range"),
        ("1,2,1\n3,4,abc\n", -1, "line 2 has unparseable label 'abc'"),
        ("1,2,1\n3,4,?\n", -1, r"line 2 has unparseable label '\?'"),
        ("1,2,1\nx,4,2\n", -1, "line 2 column 1 has unparseable value 'x'"),
    ], ids=["header-only", "named-header-only", "index-past-end",
            "negative-index-past-start", "label-word", "label-missing",
            "value-word"])
    def test_error_wording(self, text, label_column, message, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            load_dataset(p, label_column=label_column)

    def test_float_syntax_is_pythons(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1_000, 2.5e1 ,1\n-0,+3,2\n")
        ds = load_dataset(p)
        assert ds.features.tolist() == [[1000.0, 25.0], [0.0, 3.0]]
        assert np.signbit(ds.features[1, 0])

    @pytest.mark.parametrize("first, where", [
        ("1,,1", "line 1 column 2 has unparseable value ''"),
        ("1.5.2,2,1", "line 1 column 1 has unparseable value '1.5.2'"),
        ("1,2,?", r"line 1 has unparseable label '\?'"),
        ("1,2,nan", "line 1 column 3 has non-finite label 'nan'"),
    ], ids=["empty-field", "typo", "missing-label", "nan-label"])
    def test_malformed_first_row_is_not_a_header(self, first, where, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(first + "\n3,4,2\n5,6,1\n")
        with pytest.raises(DataFormatError, match=where):
            load_dataset(p)

    def test_bom_before_a_data_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2,1\n3,4,2\n5,?,1\n")
        ds = load_dataset(p)
        assert ds.n_rows == 3 and ds.feature_names is None
        assert ds.features[0].tolist() == [1.0, 2.0]
        assert ds.missing[2].tolist() == [False, True]

    def test_bom_before_a_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfa,y\n1,1\n2,2\n")
        ds = load_dataset(p, label_column="a")
        assert ds.feature_names == ("y",)
        assert ds.labels.tolist() == [1, 2]

    def test_numeric_feature_names_still_a_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3,class\n4,5,6,1\n7,8,9,2\n")
        ds = load_dataset(p)
        assert ds.feature_names == ("1", "2", "3")
        assert ds.features.tolist() == [[4, 5, 6], [7, 8, 9]]

    def test_named_label_column_in_the_middle(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y,b\n1,2,?\n3,1,4\n")
        ds = load_dataset(p, label_column="y")
        assert ds.feature_names == ("a", "b")
        assert ds.labels.tolist() == [2, 1]
        assert ds.missing.tolist() == [[False, True], [False, False]]

    @pytest.mark.parametrize("text, where", [
        ("1,2,1\n3,inf,2\n4,x,1\n", "line 2 column 2 has non-finite value 'inf'"),
        ("1,2,1\n3,4,nan\n4,x,1\n", "line 2 column 3 has non-finite label"),
        ("1,2,1\nx,4,1\n3,4\n", "line 2 column 1 has unparseable value 'x'"),
        ("1,2,1\n3,4,1.5\n4\n", "line 2 column 3 has non-integral label"),
        ("1,2,1\nx,4,y\n", "line 2 column 1 has unparseable value 'x'"),
        ("1,2,1\n3,4\nx,4,1\n", "line 2 has 2 fields, expected 3"),
    ], ids=["non-finite-before-unparseable", "label-before-unparseable",
            "value-before-short-row", "label-before-short-row",
            "value-before-label", "short-row-before-value"])
    def test_first_fault_in_file_order(self, text, where, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=where):
            load_dataset(p)

    def test_label_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,1\n2,1e19\n")
        with pytest.raises(DataFormatError,
                           match="line 2 column 2 has out-of-range label '1e19'"):
            load_dataset(p)


class TestLoadSparse:
    def test_absent_indices_are_zero_not_missing(self, tmp_path):
        p = tmp_path / "d.sp"
        p.write_text("-1 1:0.5 3:2.0\n")
        ds = load_dataset(p, "sparse", n_features=3)
        assert ds.features.tolist() == [[0.5, 0.0, 2.0]]
        assert not ds.missing.any()
        assert ds.labels.tolist() == [-1]

    def test_infers_feature_count(self, tmp_path):
        p = tmp_path / "d.sp"
        p.write_text("1 2:1.0\n-1 4:2.0\n")
        ds = load_dataset(p, "sparse")
        assert ds.n_features == 4

    def test_malformed_pair(self, tmp_path):
        p = tmp_path / "d.sp"
        p.write_text("1 2:1.0\n1 nope\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dataset(p, "sparse")

    @pytest.mark.parametrize("text, n_features, message", [
        ("1 2:1.0\n1 2:abc\n", None, "line 2 has malformed pair '2:abc'"),
        ("1 x:1.0\n", None, "line 1 has malformed pair 'x:1.0'"),
        ("1 1:1 0:2\n", None, "line 1 index 0 is not 1-based"),
        ("1 1:1\n-1 2:1 2:3\n", None, "line 2 repeats index 2"),
        ("1 1:1\n-1 4:1\n", 3, "index 4 exceeds n_features=3"),
        ("x 1:1\n", None, "line 1 has unparseable label 'x'"),
        ("1 1:inf\n", None, "line 1 index 1 has non-finite value inf"),
    ], ids=["non-numeric-value", "non-numeric-index", "zero-index",
            "repeated-index", "index-past-n-features", "label-word",
            "non-finite-value"])
    def test_error_wording(self, text, n_features, message, tmp_path):
        p = tmp_path / "d.sp"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            load_dataset(p, "sparse", n_features=n_features)

    def test_first_fault_in_file_order(self, tmp_path):
        p = tmp_path / "d.sp"
        p.write_text("1 1:1\n1 2:1e999\n1 x\n")
        with pytest.raises(DataFormatError, match="line 2 index 2 has non-finite"):
            load_dataset(p, "sparse")

    def test_bom_before_first_label(self, tmp_path):
        p = tmp_path / "d.sp"
        p.write_bytes(b"\xef\xbb\xbf1 1:2\n-1 2:3\n")
        ds = load_dataset(p, "sparse")
        assert ds.labels.tolist() == [1, -1]
        assert ds.features.tolist() == [[2.0, 0.0], [0.0, 3.0]]


class TestRoundTrip:
    def test_delimited_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, 4)) * 1e3
        missing = rng.random((20, 4)) < 0.2
        labels = rng.integers(0, 3, size=20)
        ds = Dataset(np.where(missing, np.nan, feats), labels,
                     tuple(dict.fromkeys(labels.tolist())))
        p = tmp_path / "out.csv"
        write_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.missing, ds.missing)
        obs = ~ds.missing
        assert np.array_equal(back.features[obs], ds.features[obs])
        assert np.array_equal(back.labels, ds.labels)

    def test_header_round_trip(self, tmp_path):
        ds = Dataset([[0.1, np.nan], [-2.5e-300, 7.0], [np.nan, 1e300]],
                     [3, -1, 3], (3, -1), feature_names=("age", "bp"))
        p = tmp_path / "out.csv"
        write_dataset(ds, p)
        assert p.read_text().splitlines()[0] == "age,bp,label"
        back = load_dataset(p)
        assert back.feature_names == ds.feature_names
        assert back.class_names == ds.class_names
        assert np.array_equal(back.missing, ds.missing)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_sparse_round_trip(self, tmp_path):
        ds = make([[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]], [1, -1])
        p = tmp_path / "out.sp"
        write_dataset(ds, p, "sparse")
        back = load_dataset(p, "sparse", n_features=3)
        assert np.array_equal(back.features, ds.features)


class TestNormalization:
    def test_simple_column(self):
        ds = make([[1.0], [2.0], [3.0]], [1, 1, 1])
        stats = fit_normalization(ds, [0, 1, 2])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(1.0)
        out = apply_normalization(ds, stats)
        assert out.features[:, 0].tolist() == pytest.approx([-1.0, 0.0, 1.0])

    def test_constant_column_flagged_and_zeroed(self):
        ds = make([[5.0], [5.0], [5.0]], [1, 1, 1])
        stats = fit_normalization(ds, [0, 1, 2])
        assert stats.constant[0]
        out = apply_normalization(ds, stats)
        assert (out.features[:, 0] == 0.0).all()

    def test_masked_cell_excluded_from_stats(self):
        ds = make([[1.0], [99.0], [3.0]], [1, 1, 1],
                  missing=np.array([[False], [True], [False]]))
        stats = fit_normalization(ds, [0, 1, 2])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0))
        out = apply_normalization(ds, stats)
        assert out.missing[1, 0]
        assert np.isnan(out.features[1, 0])

    def test_all_missing_column_errors(self):
        ds = make([[1.0, 1.0], [2.0, 2.0]], [1, 1],
                  missing=np.array([[False, True], [False, True]]))
        with pytest.raises(ValueError, match="1"):
            fit_normalization(ds, [0, 1])

    def test_self_normalization_invariant(self):
        rng = np.random.default_rng(3)
        ds = make(rng.normal(5, 3, size=(50, 6)), np.ones(50, dtype=int))
        stats = fit_normalization(ds, np.arange(50))
        out = apply_normalization(ds, stats)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-10
        assert np.abs(out.features.std(axis=0, ddof=1) - 1).max() < 1e-10

    def test_no_leakage_from_unused_rows(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(30, 3))
        ds = make(feats, np.ones(30, dtype=int))
        corrupted = feats.copy()
        corrupted[20:] += 1e6
        ds2 = make(corrupted, np.ones(30, dtype=int))
        train = np.arange(20)
        s1 = fit_normalization(ds, train)
        s2 = fit_normalization(ds2, train)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.std, s2.std)


class TestInjectMissing:
    def test_rate_zero_is_identity(self):
        ds = make(np.arange(12.0).reshape(4, 3), [1, 1, 2, 2])
        out = inject_missing(ds, 0.0, seed=1)
        assert out is ds

    def test_exact_count_100x10_at_40_percent(self):
        rng = np.random.default_rng(0)
        ds = make(rng.normal(size=(100, 10)), np.ones(100, dtype=int))
        out = inject_missing(ds, 0.4, seed=7)
        assert out.missing.sum() == 400
        assert np.array_equal(out.labels, ds.labels)

    def test_deterministic_and_seed_sensitive(self):
        ds = make(np.random.default_rng(1).normal(size=(40, 5)),
                  np.ones(40, dtype=int))
        a = inject_missing(ds, 0.2, seed=3)
        b = inject_missing(ds, 0.2, seed=3)
        c = inject_missing(ds, 0.2, seed=4)
        assert np.array_equal(a.missing, b.missing)
        assert not np.array_equal(a.missing, c.missing)

    def test_rate_one_rejected(self):
        ds = make([[1.0]], [1])
        with pytest.raises(ValueError):
            inject_missing(ds, 1.0, seed=0)


class TestBinaryView:
    def test_one_against_all_split(self):
        ds = make([[0.0]] * 4, [1, 2, 3, 1])
        v = binary_view(ds, 1)
        assert v.rows_positive.tolist() == [0, 3]
        assert v.rows_negative.tolist() == [1, 2]
        assert v.y().tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_signed_labels_match(self):
        ds = make([[0.0]] * 4, [-1, 1, 1, -1])
        v = binary_view(ds, 1)
        assert v.y().tolist() == [-1.0, 1.0, 1.0, -1.0]

    def test_unknown_class(self):
        ds = make([[0.0]], [1])
        with pytest.raises(ValueError):
            binary_view(ds, 9)


def test_take_rows_subsets_everything():
    ds = make([[1.0], [2.0], [3.0]], [1, 2, 1],
              missing=np.array([[False], [True], [False]]))
    sub = take_rows(ds, [2, 1])
    assert sub.features[0, 0] == 3.0
    assert sub.missing[1, 0]
    assert sub.labels.tolist() == [1, 2]


def test_dataset_is_immutable():
    ds = make([[1.0, 2.0]], [1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0


class TestNanIsMissing:
    """A NaN cell is a missing cell: the mask is derived, never given."""

    X = [[1.0, 2.0, 0.5], [np.nan, 3.0, 1.5], [2.0, 1.0, -0.5], [0.0, 0.5, 2.5],
         [1.5, np.nan, 1.0], [-1.0, 2.5, 0.0]]
    Y = [1, 1, 2, 2, 1, 2]

    def test_nan_cell_is_missing(self):
        ds = make(self.X, self.Y)
        assert ds.has_missing()
        assert np.argwhere(ds.missing).tolist() == [[1, 0], [4, 1]]
        with pytest.raises(ValueError):
            ds.missing[0, 0] = True

    def test_imputers_complete_the_cell(self):
        ds = make(self.X, self.Y)
        observed = ~ds.missing
        rem = RemImputer().fit(ds)
        mean = MeanImputer().fit(ds)
        for done in (rem.completed_, rem.transform(ds), mean.transform(ds)):
            assert not done.has_missing() and np.isfinite(done.features).all()
            assert np.array_equal(done.features[observed], ds.features[observed])
        assert np.isfinite(rem.mean_).all() and np.isfinite(mean.mean_).all()

    @pytest.mark.parametrize("imputer", ["rem", "mean"])
    def test_fit_pipeline_completes_the_cell(self, imputer):
        _, done = fit_pipeline(make(self.X, self.Y), imputer)
        assert not done.has_missing() and np.isfinite(done.features).all()

    def test_knn_graph_refuses_the_cell(self):
        with pytest.raises(ValueError, match="rows contain missing cells"):
            build_knn_graph(make(self.X, self.Y), np.arange(6), KnnConfig(k=2))

    @pytest.mark.parametrize("value, text", [(np.inf, "inf"), (-np.inf, "-inf")])
    def test_infinity_names_its_cell(self, value, text):
        x = np.zeros((4, 3))
        x[2, 1] = value
        x[3, 2] = np.inf
        with pytest.raises(ValueError, match="row 2 column 1 is %s;" % text):
            make(x, [1, 1, 1, 1])

    def test_old_form_with_a_mask_says_missing_cells_are_nan(self):
        x = np.array(self.X)
        with pytest.raises(ValueError, match="missing cells are now NaN in features"):
            Dataset(x, np.isnan(x), np.array(self.Y), (1, 2))
