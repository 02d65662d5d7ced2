import numpy as np
import pytest

from mlsvm.data import Dataset, inject_missing
from mlsvm.imputation import (_DEFAULT_GRID, MeanImputer, RemConfig,
                              RemImputer, _group_patterns, _ridge_coefficients,
                              fit_imputer)
from mlsvm.synth import make_correlated_gaussian
from oracles import covariance


def make(features, missing=None):
    features = np.asarray(features, dtype=float)
    if missing is not None:
        features = np.where(missing, np.nan, features)
    labels = np.ones(features.shape[0], dtype=int)
    return Dataset(features, labels, (1,))


class TestMeanImpute:
    def test_column_mean(self):
        ds = make([[1.0], [np.nan], [3.0]])
        _, out = fit_imputer("mean", ds)
        assert out.features[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert not out.missing.any()

    def test_identity_without_missing(self):
        ds = make([[1.0], [2.0]])
        assert fit_imputer("mean", ds)[1] is ds

    def test_single_observed_value(self):
        ds = make([[np.nan], [5.0]])
        _, out = fit_imputer("mean", ds)
        assert out.features[:, 0].tolist() == [5.0, 5.0]

    def test_all_missing_column_errors(self):
        ds = make([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="no observed"):
            fit_imputer("mean", ds)

    def test_transform_uses_training_means(self):
        train = make([[2.0, 0.0], [4.0, 0.0]])
        imp = MeanImputer().fit(train)
        test = make([[np.nan, 1.0]])
        out = imp.transform(test)
        assert out.features[0, 0] == 3.0


class TestRemImpute:
    def test_identity_without_missing(self):
        ds = make(np.random.default_rng(0).normal(size=(30, 4)))
        imp, out = fit_imputer("rem", ds)
        diag = imp.diagnostics_
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
        _, out = fit_imputer("rem", ds, RemConfig(stagnation_tol=1e-9))
        expected = 3.0 * f1[17] + 1.0
        assert abs(out.features[17, 1] - expected) < 1e-6

    def test_beats_mean_imputation_on_correlated_data(self):
        truth = make_correlated_gaussian(n=200, p=5, rho=0.8, seed=2)
        noisy = inject_missing(truth, 0.10, seed=3)
        _, rem_out = fit_imputer("rem", noisy)
        _, mean_out = fit_imputer("mean", noisy)
        mask = noisy.missing
        rem_err = ((rem_out.features[mask] - truth.features[mask]) ** 2).mean()
        mean_err = ((mean_out.features[mask] - truth.features[mask]) ** 2).mean()
        assert rem_err < mean_err

    def test_observed_cells_untouched_bit_for_bit(self):
        truth = make_correlated_gaussian(n=100, p=4, rho=0.6, seed=5)
        noisy = inject_missing(truth, 0.2, seed=6)
        _, out = fit_imputer("rem", noisy)
        obs = ~noisy.missing
        assert np.array_equal(out.features[obs], noisy.features[obs])

    def test_stop_conditions(self):
        truth = make_correlated_gaussian(n=120, p=4, rho=0.7, seed=7)
        noisy = inject_missing(truth, 0.15, seed=8)
        cfg = RemConfig(max_iters=50, stagnation_tol=1e-2)
        imp, _ = fit_imputer("rem", noisy, cfg)
        diag = imp.diagnostics_
        assert diag.iterations <= cfg.max_iters
        if diag.iterations < cfg.max_iters:
            assert diag.final_change < cfg.stagnation_tol

    def test_huge_regularization_recovers_means(self):
        truth = make_correlated_gaussian(n=80, p=4, rho=0.8, seed=9)
        noisy = inject_missing(truth, 0.1, seed=10)
        _, out = fit_imputer("rem", noisy, RemConfig(regularization=1e12))
        _, baseline = fit_imputer("mean", noisy)
        mask = noisy.missing
        assert np.abs(out.features[mask] - baseline.features[mask]).max() < 1e-3

    def test_row_permutation_commutes(self):
        truth = make_correlated_gaussian(n=40, p=4, rho=0.7, seed=11)
        noisy = inject_missing(truth, 0.15, seed=12)
        _, out = fit_imputer("rem", noisy)
        perm = np.random.default_rng(13).permutation(40)
        shuffled = Dataset(noisy.features[perm], noisy.labels[perm],
                           noisy.class_names)
        _, out_p = fit_imputer("rem", shuffled)
        assert np.allclose(out_p.features, out.features[perm], atol=1e-12)

    def test_ridge_counts_cover_patterns_in_grid_order(self):
        truth = make_correlated_gaussian(n=200, p=6, rho=0.7, seed=20)
        noisy = inject_missing(truth, 0.3, seed=21)
        imp, _ = fit_imputer("rem", noisy)
        diag = imp.diagnostics_
        assert tuple(diag.ridge_counts) == _DEFAULT_GRID
        incomplete = noisy.missing[noisy.missing.any(axis=1)]
        assert sum(diag.ridge_counts.values()) == len(np.unique(incomplete, axis=0))
        fixed = fit_imputer("rem", noisy, RemConfig(regularization=0.5))[0].diagnostics_
        assert fixed.ridge_counts == {0.5: sum(diag.ridge_counts.values())}

    def test_zero_regularization_on_collinear_pattern_raises(self):
        rng = np.random.default_rng(22)
        f1 = rng.normal(size=30)
        feats = np.stack([f1, 2.0 * f1, rng.normal(size=30)], axis=1)
        missing = np.zeros_like(feats, dtype=bool)
        missing[5, 2] = True
        with pytest.raises(ValueError, match="set a nonzero regularization"):
            fit_imputer("rem", make(feats, missing), RemConfig(regularization=0.0))

    @pytest.mark.parametrize("value", [-1e-3, -2.0, float("nan")])
    def test_negative_regularization_rejected(self, value):
        with pytest.raises(ValueError, match="regularization must be nonnegative"):
            RemConfig(regularization=value)

    def test_constant_observed_column_imputes_finite(self):
        truth = make_correlated_gaussian(n=60, p=4, rho=0.7, seed=23)
        feats = truth.features.copy()
        feats[:, 1] = 2.0
        noisy = inject_missing(make(feats), 0.2, seed=24)
        for cfg in (RemConfig(), RemConfig(regularization=0.1)):
            _, out = fit_imputer("rem", noisy, cfg)
            assert np.isfinite(out.features).all()
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
            fit_imputer("rem", ds)

    def test_covariance_state_is_symmetric(self):
        truth = make_correlated_gaussian(n=60, p=4, rho=0.5, seed=18)
        noisy = inject_missing(truth, 0.1, seed=19)
        imp = RemImputer().fit(noisy)
        cov = covariance(imp)
        assert np.array_equal(cov, cov.T)
        assert (np.diag(cov) >= 0).all()


def scatter(x):
    xc = x - x.mean(axis=0)
    return xc.T @ xc


class TestRidgeClosedForm:
    def test_eigen_coefficients_match_direct_solve(self):
        rng = np.random.default_rng(30)
        n, p = 50, 7
        x = rng.normal(size=(n, p)) @ rng.normal(size=(p, p))
        x[:, 3] = 2.0                     # constant column: zero scatter
        S = scatter(x)
        masks = rng.random((12, p)) < 0.4
        masks[:, 0] = True
        masks[:, 3] = False               # every pattern observes column 3
        masks[0, 1:] = False
        for reg in (None, 0.0, 1e-3, 0.7):
            for o in np.unique(p - masks.sum(axis=1)):
                pats = masks[p - masks.sum(axis=1) == o]
                obs = np.stack([np.flatnonzero(~m) for m in pats])
                mis = np.stack([np.flatnonzero(m) for m in pats])
                if reg == 0.0:            # column 3 makes every block singular
                    with pytest.raises(ValueError, match="nonzero"):
                        _ridge_coefficients(S, obs, mis, n, reg)
                    continue
                B, gammas = _ridge_coefficients(S, obs, mis, n, reg)
                assert gammas.shape == (len(pats),)
                for i in range(len(pats)):
                    A = S[np.ix_(obs[i], obs[i])]
                    D = np.diag(A)
                    floor = 1e-10 * (np.abs(D).mean() + 1.0)
                    jitter = floor if reg is None else 0.0
                    system = (A + gammas[i] * np.diag(np.maximum(D, floor))
                              + jitter * np.eye(o))
                    ref = np.linalg.solve(system, S[np.ix_(obs[i], mis[i])])
                    live = obs[i] != 3
                    scale = np.abs(ref).max()
                    assert np.allclose(B[i][live], ref[live], rtol=1e-9,
                                       atol=1e-12 * scale)
                    # the constant column's coefficients are exactly 0 in
                    # `ref`; scaling by its floored D leaves rounding noise,
                    # which multiplies a centred value that is exactly 0
                    assert np.abs(B[i][~live]).max() <= 1e-6 * scale
                    if reg is not None:
                        assert gammas[i] == reg

    def test_gcv_small_ridge_when_well_determined(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(2000, 5))
            x[:, 4] = x[:, :4] @ [1.0, -0.5, 0.3, 0.2] + 0.5 * rng.normal(size=2000)
            _, gammas = _ridge_coefficients(scatter(x), np.array([[0, 1, 2, 3]]),
                                            np.array([[4]]), 2000, None)
            assert gammas[0] <= 1e-4

    def test_gcv_large_ridge_when_collinear_and_noisy(self):
        picks = []
        for seed in range(21):
            rng = np.random.default_rng(seed)
            z = rng.normal(size=12)
            cols = [z + 1e-3 * rng.normal(size=12) for _ in range(6)]
            x = np.stack(cols + [z + 2.0 * rng.normal(size=12)], axis=1)
            _, gammas = _ridge_coefficients(scatter(x), np.arange(6)[None],
                                            np.array([[6]]), 12, None)
            picks.append(gammas[0])
        assert np.median(picks) >= 1e-1

    def test_non_positive_gcv_denominator_never_wins(self):
        rng = np.random.default_rng(31)
        obs, mis = np.array([[0, 1, 2, 3]]), np.array([[4]])
        # 3 rows, 4 observed columns: n - 1 - dof <= 0 at the smallest ridge
        _, gammas = _ridge_coefficients(scatter(rng.normal(size=(3, 5))),
                                        obs, mis, 3, None)
        assert gammas[0] == _DEFAULT_GRID[-1]
        # n = 2 against a full-rank block: no grid value has a positive
        # denominator, so the largest is taken
        _, gammas = _ridge_coefficients(scatter(rng.normal(size=(50, 5))),
                                        obs, mis, 2, None)
        assert gammas[0] == _DEFAULT_GRID[-1]

    def test_grouping_matches_brute_force_unique(self):
        rng = np.random.default_rng(32)
        mask = rng.random((400, 13)) < 0.15
        mask[:5] = False                  # complete rows belong to no group
        mask[5] = True                    # a row with nothing observed
        patterns, inverse = np.unique(mask, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        seen = np.zeros(400, dtype=int)
        for g in _group_patterns(mask):
            assert g.obs_idx.shape[1] + g.mis_idx.shape[1] == 13
            for row, k in zip(g.rows, g.row_pattern):
                seen[row] += 1
                pat = patterns[inverse[row]]
                assert np.array_equal(g.obs_idx[k], np.flatnonzero(~pat))
                assert np.array_equal(g.mis_idx[k], np.flatnonzero(pat))
            assert len(np.unique(inverse[g.rows])) == len(g.obs_idx)
        assert np.array_equal(seen, mask.any(axis=1).astype(int))
