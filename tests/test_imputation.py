import numpy as np
import pytest

from mlsvm.data import Dataset, inject_missing
from mlsvm.imputation import (MeanImputer, RemConfig, RemImputer, mean_impute,
                              rem_impute)
from mlsvm.synth import make_correlated_gaussian


def make(features, missing=None):
    features = np.asarray(features, dtype=float)
    if missing is None:
        missing = np.isnan(features)
    labels = np.ones(features.shape[0], dtype=int)
    return Dataset(features, missing, labels, (1,))


class TestMeanImpute:
    def test_column_mean(self):
        ds = make([[1.0], [np.nan], [3.0]])
        out = mean_impute(ds)
        assert out.features[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert not out.missing.any()

    def test_identity_without_missing(self):
        ds = make([[1.0], [2.0]])
        assert mean_impute(ds) is ds

    def test_single_observed_value(self):
        ds = make([[np.nan], [5.0]])
        out = mean_impute(ds)
        assert out.features[:, 0].tolist() == [5.0, 5.0]

    def test_all_missing_column_errors(self):
        ds = make([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="no observed"):
            mean_impute(ds)

    def test_transform_uses_training_means(self):
        train = make([[2.0, 0.0], [4.0, 0.0]])
        imp = MeanImputer().fit(train)
        test = make([[np.nan, 1.0]])
        out = imp.transform(test)
        assert out.features[0, 0] == 3.0


class TestRemImpute:
    def test_identity_without_missing(self):
        ds = make(np.random.default_rng(0).normal(size=(30, 4)))
        out, diag = rem_impute(ds)
        assert np.array_equal(out.features, ds.features)
        assert diag.iterations == 0

    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(1)
        f1 = rng.normal(size=50)
        f2 = 3.0 * f1 + 1.0
        feats = np.stack([f1, f2], axis=1)
        missing = np.zeros_like(feats, dtype=bool)
        missing[17, 1] = True
        ds = make(feats, missing)
        out, _ = rem_impute(ds, RemConfig(stagnation_tol=1e-9))
        expected = 3.0 * f1[17] + 1.0
        assert abs(out.features[17, 1] - expected) < 1e-6

    def test_beats_mean_imputation_on_correlated_data(self):
        truth = make_correlated_gaussian(n=200, p=5, rho=0.8, seed=2)
        noisy = inject_missing(truth, 0.10, seed=3)
        rem_out, _ = rem_impute(noisy)
        mean_out = mean_impute(noisy)
        mask = noisy.missing
        rem_err = ((rem_out.features[mask] - truth.features[mask]) ** 2).mean()
        mean_err = ((mean_out.features[mask] - truth.features[mask]) ** 2).mean()
        assert rem_err < mean_err

    def test_observed_cells_untouched_bit_for_bit(self):
        truth = make_correlated_gaussian(n=100, p=4, rho=0.6, seed=5)
        noisy = inject_missing(truth, 0.2, seed=6)
        out, _ = rem_impute(noisy)
        obs = ~noisy.missing
        assert np.array_equal(out.features[obs], noisy.features[obs])

    def test_stop_conditions(self):
        truth = make_correlated_gaussian(n=120, p=4, rho=0.7, seed=7)
        noisy = inject_missing(truth, 0.15, seed=8)
        cfg = RemConfig(max_iters=50, stagnation_tol=1e-2)
        _, diag = rem_impute(noisy, cfg)
        assert diag.iterations <= cfg.max_iters
        if diag.iterations < cfg.max_iters:
            assert diag.final_change < cfg.stagnation_tol

    def test_huge_regularization_recovers_means(self):
        truth = make_correlated_gaussian(n=80, p=4, rho=0.8, seed=9)
        noisy = inject_missing(truth, 0.1, seed=10)
        out, _ = rem_impute(noisy, RemConfig(regularization=1e12))
        baseline = mean_impute(noisy)
        mask = noisy.missing
        assert np.abs(out.features[mask] - baseline.features[mask]).max() < 1e-3

    def test_permutation_within_cv_blocks_commutes(self):
        truth = make_correlated_gaussian(n=40, p=4, rho=0.7, seed=11)
        noisy = inject_missing(truth, 0.15, seed=12)
        cfg = RemConfig(cv_folds=5)
        out, _ = rem_impute(noisy, cfg)
        # permute rows inside each contiguous CV block (blocks of 8)
        perm = np.concatenate([np.random.default_rng(13).permutation(8) + 8 * b
                               for b in range(5)])
        shuffled = Dataset(noisy.features[perm], noisy.missing[perm],
                           noisy.labels[perm], noisy.class_names)
        out_p, _ = rem_impute(shuffled, cfg)
        assert np.allclose(out_p.features, out.features[perm], atol=1e-12)

    def test_transform_completes_unseen_rows(self):
        truth = make_correlated_gaussian(n=150, p=5, rho=0.8, seed=14)
        noisy = inject_missing(truth, 0.1, seed=15)
        imp = RemImputer().fit(noisy)
        test = make_correlated_gaussian(n=30, p=5, rho=0.8, seed=16)
        test_noisy = inject_missing(test, 0.2, seed=17)
        out = imp.transform(test_noisy)
        assert not out.missing.any()
        mask = test_noisy.missing
        err_rem = ((out.features[mask] - test.features[mask]) ** 2).mean()
        err_mean = (test.features[mask] ** 2).mean()   # columns have mean ~0
        assert err_rem < err_mean

    def test_all_missing_feature_errors(self):
        feats = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        ds = make(feats)
        with pytest.raises(ValueError, match="no observed"):
            rem_impute(ds)

    def test_covariance_state_is_symmetric(self):
        truth = make_correlated_gaussian(n=60, p=4, rho=0.5, seed=18)
        noisy = inject_missing(truth, 0.1, seed=19)
        imp = RemImputer().fit(noisy)
        cov = imp.covariance_
        assert np.array_equal(cov, cov.T)
        assert (np.diag(cov) >= 0).all()
