"""Seeded synthetic datasets for benchmarks and tests."""

from __future__ import annotations

import numpy as np

from mlsvm.data import Dataset


def _finish(x, labels, rng) -> Dataset:
    order = rng.permutation(x.shape[0])
    x, labels = x[order], labels[order]
    names = tuple(dict.fromkeys(int(v) for v in labels))
    return Dataset(x, labels, names)


def make_twonorm(n: int = 7400, d: int = 20, seed: int = 0) -> Dataset:
    """Two unit-covariance Gaussians at +/- (2/sqrt(d)) * 1, balanced classes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A0]))
    a = 2.0 / np.sqrt(d)
    n_pos = n // 2
    x = np.vstack([
        rng.standard_normal((n_pos, d)) + a,
        rng.standard_normal((n - n_pos, d)) - a,
    ])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             -np.ones(n - n_pos, dtype=np.int64)])
    return _finish(x, labels, rng)


def make_imbalanced_gaussians(n: int = 10_000, d: int = 10,
                              minority_frac: float = 0.05,
                              separation: float = 2.0, seed: int = 0) -> Dataset:
    """Majority at the origin, minority (+1) offset by `separation` overall."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1B1]))
    n_min = max(2, int(round(n * minority_frac)))
    offset = separation / np.sqrt(d)
    x = np.vstack([
        rng.standard_normal((n_min, d)) + offset,
        rng.standard_normal((n - n_min, d)),
    ])
    labels = np.concatenate([np.ones(n_min, dtype=np.int64),
                             -np.ones(n - n_min, dtype=np.int64)])
    return _finish(x, labels, rng)


def make_separable_blobs(n: int = 400, d: int = 5, separation: float = 8.0,
                         seed: int = 0) -> Dataset:
    """Two well-separated Gaussians; any sensible classifier is near-perfect."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EB]))
    n_pos = n // 2
    offset = separation / np.sqrt(d)
    x = np.vstack([
        rng.standard_normal((n_pos, d)) + offset,
        rng.standard_normal((n - n_pos, d)) - offset,
    ])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             -np.ones(n - n_pos, dtype=np.int64)])
    return _finish(x, labels, rng)


def make_correlated_gaussian(n: int = 1000, p: int = 10, rho: float = 0.8,
                             seed: int = 0) -> Dataset:
    """Zero-mean equicorrelated Gaussian rows (single dummy class)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0E]))
    cov = np.full((p, p), rho)
    np.fill_diagonal(cov, 1.0)
    chol = np.linalg.cholesky(cov)
    x = rng.standard_normal((n, p)) @ chol.T
    labels = np.ones(n, dtype=np.int64)
    return Dataset(x, labels, (1,))
