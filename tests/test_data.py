import numpy as np
import pytest

from mlsvm.data import (DataFormatError, Dataset, apply_normalization,
                        binary_view, fit_normalization, inject_missing,
                        load_dataset, take_rows, write_dataset)


def make(features, labels, missing=None):
    features = np.asarray(features, dtype=float)
    if missing is None:
        missing = np.zeros_like(features, dtype=bool)
    labels = np.asarray(labels)
    names = tuple(dict.fromkeys(int(v) for v in labels))
    return Dataset(features, missing, labels, names)


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


class TestRoundTrip:
    def test_delimited_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(20, 4)) * 1e3
        missing = rng.random((20, 4)) < 0.2
        labels = rng.integers(0, 3, size=20)
        ds = Dataset(feats, missing, labels, tuple(dict.fromkeys(labels.tolist())))
        p = tmp_path / "out.csv"
        write_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.missing, ds.missing)
        obs = ~ds.missing
        assert np.array_equal(back.features[obs], ds.features[obs])
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
