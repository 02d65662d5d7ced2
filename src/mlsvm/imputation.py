"""Missing-value imputation: feature-mean baseline and regularized EM.

The EM imputer alternates between (a) estimating the data mean and scatter
from the current completed matrix and (b) re-imputing each missing cell by
ridge regression of its missing features on its observed features. Rows
sharing a missingness pattern share one regression problem, so the ridge
strength is chosen once per pattern (per-record selection, deduplicated): by
generalized cross-validation over a fixed grid, from one eigendecomposition
of the pattern's scaled observed block, as in RegEM (Schneider 2001).
Iteration stops when the imputed cells stagnate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mlsvm.data import Dataset

_DEFAULT_GRID = (1e-8, 1e-4, 1e-2, 1e-1, 1.0)
IMPUTERS = ("rem", "mean", "none")


@dataclass(frozen=True)
class RemConfig:
    max_iters: int = 50
    stagnation_tol: float = 1e-2
    regularization: float | None = None   # None = choose per pattern by GCV

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stagnation_tol <= 0:
            raise ValueError("stagnation_tol must be positive")
        if self.regularization is not None and not self.regularization >= 0:
            raise ValueError("regularization must be nonnegative")


@dataclass
class RemDiagnostics:
    iterations: int
    final_change: float
    missing_per_feature: np.ndarray
    ridge_counts: dict    # ridge strength -> patterns using it in the last iteration


def _check_observed(data: Dataset) -> None:
    counts = (~data.missing).sum(axis=0)
    if (counts == 0).any():
        col = int(np.argmax(counts == 0))
        name = data.feature_names[col] if data.feature_names else str(col)
        raise ValueError("feature %r has no observed values; cannot impute" % name)


class MeanImputer:
    """Replace each missing cell by its feature's observed training mean."""

    def __init__(self):
        self.mean_ = None

    def fit(self, data: Dataset) -> "MeanImputer":
        _check_observed(data)
        obs = ~data.missing
        filled = np.where(obs, data.features, 0.0)
        self.mean_ = filled.sum(axis=0) / obs.sum(axis=0)
        return self

    def transform(self, data: Dataset) -> Dataset:
        if self.mean_ is None:
            raise RuntimeError("imputer is not fitted")
        if data.n_features != self.mean_.shape[0]:
            raise ValueError("feature count mismatch")
        if not data.has_missing():
            return data
        x = data.features.copy()
        rows, cols = np.nonzero(data.missing)
        x[rows, cols] = self.mean_[cols]
        mask = np.zeros_like(data.missing)
        return Dataset(x, mask, data.labels, data.class_names, data.feature_names)


def mean_impute(data: Dataset) -> Dataset:
    return MeanImputer().fit(data).transform(data)


class _PatternGroup:
    """Missingness patterns sharing the same observed-set size, with their rows."""

    def __init__(self, obs_idx, mis_idx, rows, row_pattern):
        self.obs_idx = obs_idx            # (P, o) observed columns per pattern
        self.mis_idx = mis_idx            # (P, m) missing columns per pattern
        self.rows = rows                  # (r,) rows with one of these patterns
        self.row_pattern = row_pattern    # (r,) each row's index into the P patterns


def _group_patterns(mask: np.ndarray) -> list:
    """Group incomplete rows by pattern, and patterns by observed-set size."""
    p = mask.shape[1]
    keys, inverse = np.unique(np.packbits(mask, axis=1), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    patterns = np.unpackbits(keys, axis=1, count=p).astype(bool)
    n_obs = p - patterns.sum(axis=1)
    row_obs = n_obs[inverse]
    local = np.zeros(patterns.shape[0], dtype=np.int64)
    groups = []
    for o in np.unique(n_obs[n_obs < p]):
        pids = np.flatnonzero(n_obs == o)
        local[pids] = np.arange(pids.size)
        rows = np.flatnonzero(row_obs == o)
        pats = patterns[pids]
        groups.append(_PatternGroup(np.nonzero(~pats)[1].reshape(pids.size, o),
                                    np.nonzero(pats)[1].reshape(pids.size, p - o),
                                    rows, local[inverse[rows]]))
    return groups


def _ridge_grid(regularization: float | None) -> tuple:
    return _DEFAULT_GRID if regularization is None else (float(regularization),)


def _ridge_coefficients(scatter, obs_idx, mis_idx, n, regularization):
    """Ridge coefficients of each pattern's missing columns on its observed ones.

    With A = S[O,O], R = S[O,M] and D = diag(A) floored, the system
    (A + gamma*D) B = R is scaled to C = D^-1/2 A D^-1/2 and decomposed once,
    C = V diag(lam) V'. With F = V' D^-1/2 R, B = D^-1/2 V diag(1/(lam+gamma)) F
    for every gamma, and the residual sum of squares and effective degrees of
    freedom are closed-form in (lam, F). Each pattern takes the grid value with
    the least generalized cross-validation score RSS / (n - 1 - dof)^2 (Golub,
    Heath & Wahba 1979); a non-positive denominator never wins. D is floored at
    1e-10 of its mean so constant observed columns stay solvable; when gamma
    is chosen, that floor is also added to the diagonal of A.

    Returns B (P, o, m) and each pattern's ridge strength (P,).
    """
    o = obs_idx.shape[1]
    A = scatter[obs_idx[:, :, None], obs_idx[:, None, :]]
    R = scatter[obs_idx[:, :, None], mis_idx[:, None, :]]
    D = np.einsum("pii->pi", A)
    floor = 1e-10 * (np.abs(D).sum(axis=1) / max(o, 1) + 1.0)
    d = np.sqrt(np.maximum(D, floor[:, None]))
    if regularization is None:
        A[:, np.arange(o), np.arange(o)] += floor[:, None]
    grid = np.asarray(_ridge_grid(regularization))
    lam, V = np.linalg.eigh(A / (d[:, :, None] * d[:, None, :]))
    tol = max(o, 1) * np.finfo(np.float64).eps * np.abs(lam).max(axis=1, initial=0.0)
    if (lam.min(axis=1, initial=np.inf) + grid.max() <= tol).any():
        raise ValueError("regression system is singular; set a nonzero regularization")
    F = np.swapaxes(V, 1, 2) @ (R / d[:, :, None])
    lam_g = lam[:, :, None] + grid
    fit = (np.einsum("pjm,pjm->pj", F, F)[:, :, None]
           * (lam_g + grid) / lam_g ** 2).sum(axis=1)
    rss = np.diag(scatter)[mis_idx].sum(axis=1)[:, None] - fit
    denom = n - 1 - (lam[:, :, None] / lam_g).sum(axis=1)
    gcv = np.where(denom > 0, rss / np.where(denom > 0, denom, 1.0) ** 2, np.inf)
    pick = np.argmin(gcv, axis=1)
    pick[np.isinf(gcv).all(axis=1)] = grid.size - 1
    gamma = grid[pick]
    return (V / d[:, :, None]) @ (F / (lam + gamma[:, None])[:, :, None]), gamma


class RemImputer:
    """Regularized-EM imputer: iterated per-pattern ridge regression.

    fit() completes the training matrix in place of its missing cells and
    stores the final mean/scatter state; transform() completes further rows
    (e.g. a held-out fold) in a single pass using only training statistics.
    """

    def __init__(self, config: RemConfig | None = None):
        self.config = config or RemConfig()
        self.n_ = None                # training rows behind mean_ and scatter_
        self.mean_ = None
        self.scatter_ = None          # centered cross-product matrix (p x p)
        self.completed_ = None
        self.diagnostics_ = None

    # -- fitting ------------------------------------------------------------

    def fit(self, data: Dataset) -> "RemImputer":
        _check_observed(data)
        cfg = self.config
        mask = data.missing
        x = np.where(mask, 0.0, data.features)
        obs_counts = (~mask).sum(axis=0)
        col_means = np.where(mask, 0.0, data.features).sum(axis=0) / obs_counts
        rows_mis, cols_mis = np.nonzero(mask)
        x[rows_mis, cols_mis] = col_means[cols_mis]

        if data.n_rows < 2:
            raise ValueError("need at least 2 rows to fit the EM imputer")
        iterations = 0
        final_change = 0.0
        gammas = np.empty(0)
        if mask.any():
            groups = _group_patterns(mask)
            prev = x[rows_mis, cols_mis].copy()
            for it in range(cfg.max_iters):
                self._estimate(x)
                gammas = self._impute_into(x, groups)
                iterations = it + 1
                cur = x[rows_mis, cols_mis]
                denom = max(float(np.linalg.norm(cur)), 1e-300)
                final_change = float(np.linalg.norm(cur - prev)) / denom
                prev = cur.copy()
                if final_change < cfg.stagnation_tol:
                    break
        self._estimate(x)
        out = data.features.copy()
        out[rows_mis, cols_mis] = x[rows_mis, cols_mis]
        self.completed_ = Dataset(out, np.zeros_like(mask), data.labels,
                                  data.class_names, data.feature_names)
        self.diagnostics_ = RemDiagnostics(
            iterations=iterations,
            final_change=final_change,
            missing_per_feature=mask.sum(axis=0),
            ridge_counts={g: int(np.count_nonzero(gammas == g))
                          for g in _ridge_grid(cfg.regularization)},
        )
        return self

    def transform(self, data: Dataset) -> Dataset:
        """Complete rows using the fitted training statistics (single pass)."""
        if self.mean_ is None:
            raise RuntimeError("imputer is not fitted")
        if data.n_features != self.mean_.shape[0]:
            raise ValueError("feature count mismatch")
        if not data.has_missing():
            return data
        mask = data.missing
        x = np.where(mask, 0.0, data.features)
        self._impute_into(x, _group_patterns(mask))
        out = data.features.copy()
        rows_mis, cols_mis = np.nonzero(mask)
        out[rows_mis, cols_mis] = x[rows_mis, cols_mis]
        return Dataset(out, np.zeros_like(mask), data.labels, data.class_names,
                       data.feature_names)

    # -- internals ----------------------------------------------------------

    def _estimate(self, x: np.ndarray) -> None:
        self.n_ = x.shape[0]
        self.mean_ = x.mean(axis=0)
        xc = x - self.mean_
        self.scatter_ = xc.T @ xc

    @property
    def covariance_(self) -> np.ndarray:
        return self.scatter_ / (self.n_ - 1)

    def _impute_into(self, x: np.ndarray, groups: list) -> np.ndarray:
        """Regress every incomplete row's missing cells; return the ridge strengths."""
        mu = self.mean_
        gammas = []
        for g in groups:
            B, gamma = _ridge_coefficients(self.scatter_, g.obs_idx, g.mis_idx,
                                           self.n_, self.config.regularization)
            O = g.obs_idx[g.row_pattern]
            M = g.mis_idx[g.row_pattern]
            rows = g.rows[:, None]
            xo = (x[rows, O] - mu[O])[:, None, :]
            x[rows, M] = mu[M] + (xo @ B[g.row_pattern])[:, 0, :]
            gammas.append(gamma)
        return np.concatenate(gammas) if gammas else np.empty(0)


def fit_imputer(kind: str, data: Dataset, config: RemConfig | None = None):
    """Fit the named imputer on data; return it and data completed by it.

    REM completes the training rows by its EM iterations, the mean imputer
    by transform. Kind "none" returns (None, data) and raises ValueError if
    data has missing cells.
    """
    if kind == "none":
        if data.has_missing():
            raise ValueError("input has missing cells; impute first or pick "
                             "the rem or mean imputer")
        return None, data
    if kind == "rem":
        imp = RemImputer(config).fit(data)
        return imp, imp.completed_
    if kind == "mean":
        imp = MeanImputer().fit(data)
        return imp, imp.transform(data)
    raise ValueError("unknown imputer %r; expected one of %s" % (kind, IMPUTERS))


def rem_impute(data: Dataset, config: RemConfig | None = None):
    """Complete a dataset with the regularized-EM imputer.

    Returns the completed dataset and convergence diagnostics. Observed cells
    are passed through bit-for-bit.
    """
    imp = RemImputer(config)
    imp.fit(data)
    return imp.completed_, imp.diagnostics_
