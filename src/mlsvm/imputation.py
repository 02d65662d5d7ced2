"""Missing-value imputation: feature-mean baseline and regularized EM.

The EM imputer alternates between (a) estimating the data mean and scatter
from the current completed matrix and (b) re-imputing each missing cell by
ridge regression of its missing features on its observed features. The ridge
strength is chosen per missingness pattern by K-fold cross-validation over
contiguous row blocks (rows sharing a pattern share the same regression
problem, so per-pattern selection is exactly per-record selection,
deduplicated). Iteration stops when the imputed cells stagnate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mlsvm.data import Dataset

_DEFAULT_GRID = (1e-8, 1e-4, 1e-2, 1e-1, 1.0)
_RESELECT_THRESHOLD = 0.1   # refresh ridge choices while imputations still move


@dataclass(frozen=True)
class RemConfig:
    max_iters: int = 50
    stagnation_tol: float = 1e-2
    cv_folds: int = 5
    regularization: float | None = None   # None = choose per pattern by CV

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stagnation_tol <= 0:
            raise ValueError("stagnation_tol must be positive")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")


@dataclass
class RemDiagnostics:
    iterations: int
    final_change: float
    missing_per_feature: np.ndarray


def _check_observed(data: Dataset) -> None:
    counts = (~data.missing).sum(axis=0)
    if (counts == 0).any():
        col = int(np.argmax(counts == 0))
        name = data.feature_names[col] if data.feature_names else str(col)
        raise ValueError("feature %r has no observed values; cannot impute" % name)


def _fold_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """Contiguous, seed-free row blocks: sizes differ by at most one."""
    k = max(2, min(k, n))
    edges = np.linspace(0, n, k + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(k)]


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
    """Missingness patterns sharing the same observed-set size, stacked."""

    def __init__(self, obs_idx: np.ndarray, mis_idx: np.ndarray, pattern_ids: list):
        self.obs_idx = obs_idx      # (P, o)
        self.mis_idx = mis_idx      # (P, m)
        self.pattern_ids = pattern_ids


class RemImputer:
    """Regularized-EM imputer: iterated per-pattern ridge regression.

    fit() completes the training matrix in place of its missing cells and
    stores the final mean/scatter state; transform() completes further rows
    (e.g. a held-out fold) in a single pass using only training statistics.
    """

    def __init__(self, config: RemConfig | None = None):
        self.config = config or RemConfig()
        self.mean_ = None
        self.scatter_ = None          # centered cross-product matrix (p x p)
        self.fold_scatters_ = None    # per-CV-block scatter pieces
        self.completed_ = None
        self.diagnostics_ = None
        self._fold_rows = None
        self._gamma_cache = {}

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

        n = data.n_rows
        if n < 2:
            raise ValueError("need at least 2 rows to fit the EM imputer")
        iterations = 0
        final_change = 0.0
        if mask.any():
            groups = self._group_patterns(mask)
            prev = x[rows_mis, cols_mis].copy()
            last_change = np.inf
            for it in range(cfg.max_iters):
                self._estimate(x)
                self._impute_into(x, mask, groups,
                                  reuse_gammas=last_change < _RESELECT_THRESHOLD)
                iterations = it + 1
                cur = x[rows_mis, cols_mis]
                denom = max(float(np.linalg.norm(cur)), 1e-300)
                final_change = float(np.linalg.norm(cur - prev)) / denom
                last_change = final_change
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
        groups = self._group_patterns(mask)
        self._impute_into(x, mask, groups)
        out = data.features.copy()
        rows_mis, cols_mis = np.nonzero(mask)
        out[rows_mis, cols_mis] = x[rows_mis, cols_mis]
        return Dataset(out, np.zeros_like(mask), data.labels, data.class_names,
                       data.feature_names)

    # -- internals ----------------------------------------------------------

    def _estimate(self, x: np.ndarray) -> None:
        n = x.shape[0]
        self.mean_ = x.mean(axis=0)
        xc = x - self.mean_
        self.scatter_ = xc.T @ xc
        self._fold_rows = _fold_bounds(n, self.config.cv_folds)
        self.fold_scatters_ = [xc[a:b].T @ xc[a:b] for a, b in self._fold_rows]

    @property
    def covariance_(self) -> np.ndarray:
        n_eff = max(sum(b - a for a, b in self._fold_rows), 2)
        return self.scatter_ / (n_eff - 1)

    @staticmethod
    def _group_patterns(mask: np.ndarray):
        patterns, inverse = np.unique(mask, axis=0, return_inverse=True)
        p = mask.shape[1]
        by_size: dict[int, list] = {}
        row_lists: dict[int, np.ndarray] = {}
        for pid in range(patterns.shape[0]):
            pat = patterns[pid]
            if not pat.any():
                continue
            row_lists[pid] = np.flatnonzero(inverse == pid)
            o = np.flatnonzero(~pat)
            by_size.setdefault(o.size, []).append(pid)
        groups = []
        for osize, pids in sorted(by_size.items()):
            obs = np.stack([np.flatnonzero(~patterns[pid]) for pid in pids]) \
                if osize else np.zeros((len(pids), 0), dtype=np.int64)
            mis = np.stack([np.flatnonzero(patterns[pid]) for pid in pids])
            groups.append(_PatternGroup(obs.astype(np.int64), mis.astype(np.int64),
                                        pids))
        return groups, row_lists, inverse

    def _select_gammas(self, group: _PatternGroup) -> np.ndarray:
        """CV error per ridge strength, accumulated over folds; argmin per pattern."""
        cfg = self.config
        if cfg.regularization is not None:
            return np.full(len(group.pattern_ids), float(cfg.regularization))
        grid = np.asarray(_DEFAULT_GRID, dtype=np.float64)
        P, o = group.obs_idx.shape
        if o == 0:
            return np.full(P, grid[0])
        O, M = group.obs_idx, group.mis_idx
        errs = np.zeros((P, grid.size))
        for s_f in self.fold_scatters_:
            s_tr = self.scatter_ - s_f
            A = s_tr[O[:, :, None], O[:, None, :]]
            R = s_tr[O[:, :, None], M[:, None, :]]
            Smm = s_f[M[:, :, None], M[:, None, :]]
            Som = s_f[O[:, :, None], M[:, None, :]]
            Soo = s_f[O[:, :, None], O[:, None, :]]
            D = np.einsum("pii->pi", A)
            floor = 1e-10 * (np.abs(D).mean(axis=1) + 1.0)
            tr_mm = np.einsum("pii->p", Smm)
            for gi, g in enumerate(grid):
                B = self._ridge_solve(A, D, R, g, floor)
                SooB = Soo @ B
                errs[:, gi] += (tr_mm
                                - 2.0 * np.einsum("pom,pom->p", B, Som)
                                + np.einsum("pom,pom->p", B, SooB))
        return grid[np.argmin(errs, axis=1)]

    def _ridge_solve(self, A, D, R, gamma, floor):
        o = A.shape[1]
        Ag = A.copy()
        idx = np.arange(o)
        Ag[:, idx, idx] += gamma * D + floor[:, None]
        try:
            return np.linalg.solve(Ag, R)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "regression system is singular; set a nonzero regularization"
            ) from exc

    def _impute_into(self, x, mask, grouped, reuse_gammas: bool = False) -> None:
        groups, row_lists, _ = grouped
        mu = self.mean_
        if not reuse_gammas:
            self._gamma_cache = {}
        for gi, group in enumerate(groups):
            if gi in self._gamma_cache:
                gammas = self._gamma_cache[gi]
            else:
                gammas = self._select_gammas(group)
                self._gamma_cache[gi] = gammas
            P, o = group.obs_idx.shape
            if o == 0:
                for i, pid in enumerate(group.pattern_ids):
                    m_idx = group.mis_idx[i]
                    x[np.ix_(row_lists[pid], m_idx)] = mu[m_idx]
                continue
            O, M = group.obs_idx, group.mis_idx
            A = self.scatter_[O[:, :, None], O[:, None, :]]
            R = self.scatter_[O[:, :, None], M[:, None, :]]
            D = np.einsum("pii->pi", A)
            floor = np.zeros(P) if self.config.regularization is not None \
                else 1e-10 * (np.abs(D).mean(axis=1) + 1.0)
            B = np.empty_like(R)
            for g in np.unique(gammas):
                sel = gammas == g
                B[sel] = self._ridge_solve(A[sel], D[sel], R[sel], g, floor[sel])
            for i, pid in enumerate(group.pattern_ids):
                rows = row_lists[pid]
                m_idx = M[i]
                o_idx = O[i]
                x[np.ix_(rows, m_idx)] = mu[m_idx] + (x[np.ix_(rows, o_idx)] - mu[o_idx]) @ B[i]


def rem_impute(data: Dataset, config: RemConfig | None = None):
    """Complete a dataset with the regularized-EM imputer.

    Returns the completed dataset and convergence diagnostics. Observed cells
    are passed through bit-for-bit.
    """
    imp = RemImputer(config)
    imp.fit(data)
    return imp.completed_, imp.diagnostics_
