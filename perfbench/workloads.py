"""Workload definitions and seeded input generation.

Every workload draws two Gaussian classes with a shared covariance, masks
cells completely at random, and writes a training file and a held-out file in
the delimited format the program reads (``?`` marks a missing cell, the label
is the last column). The training split comes from its own seed, which also
seeds the program; the held-out split comes from the run's seed. The
generating parameters are kept so that the checks can compare the program's
outputs against closed forms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

POSITIVE = 1
NEGATIVE = -1


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int                 # mixes into the seed so workloads draw apart
    n_train: int
    n_test: int
    d: int
    rho: float               # equicorrelation of the shared covariance
    minority_frac: float     # share of the positive class
    delta: float             # Mahalanobis distance between the class means
    missing_rate: float
    multilevel: bool         # mlwsvm when true, flat wsvm otherwise
    gmean_floor_gap: float   # accepted distance below the Bayes G-mean


WORKLOADS = {
    w.name: w for w in (
        Workload("ml-imbalanced-large", tag=0xB16, n_train=24_000, n_test=15_000,
                 d=10, rho=0.0, minority_frac=0.05, delta=2.6,
                 missing_rate=0.05, multilevel=True, gmean_floor_gap=0.10),
        Workload("missing-correlated", tag=0xC0E, n_train=7_400, n_test=6_000,
                 d=20, rho=0.8, minority_frac=0.5, delta=2.6,
                 missing_rate=0.30, multilevel=True, gmean_floor_gap=0.12),
        Workload("flat-wsvm", tag=0xF1A, n_train=3_000, n_test=20_000,
                 d=10, rho=0.0, minority_frac=0.10, delta=2.6,
                 missing_rate=0.05, multilevel=False, gmean_floor_gap=0.06),
    )
}


@dataclass
class Split:
    truth: np.ndarray        # complete feature values, (n, d)
    missing: np.ndarray      # (n, d) bool
    labels: np.ndarray       # (n,) +1 / -1


@dataclass
class Inputs:
    mean_pos: np.ndarray
    mean_neg: np.ndarray
    cov: np.ndarray
    train: Split
    test: Split
    train_path: str
    test_path: str


def class_means(w: Workload):
    """Means at +/- delta/2 along a direction with Mahalanobis length delta.

    The direction alternates in sign, which makes it orthogonal to the
    all-ones vector that carries the shared correlation.
    """
    u = np.where(np.arange(w.d) % 2 == 0, 1.0, -1.0)
    if w.d % 2:
        u[-1] = 0.0
    u /= np.linalg.norm(u)
    # u is an eigenvector of the equicorrelated covariance with eigenvalue 1 - rho
    step = w.delta * math.sqrt(1.0 - w.rho) * u
    return 0.5 * step, -0.5 * step


def shared_cov(w: Workload) -> np.ndarray:
    cov = np.full((w.d, w.d), w.rho)
    np.fill_diagonal(cov, 1.0)
    return cov


def _draw(rng, w: Workload, n: int, mean_pos, mean_neg, chol) -> Split:
    n_pos = int(round(n * w.minority_frac))
    labels = np.concatenate([np.full(n_pos, POSITIVE), np.full(n - n_pos, NEGATIVE)])
    labels = labels[rng.permutation(n)]
    z = rng.standard_normal((n, w.d)) @ chol.T
    x = z + np.where(labels[:, None] > 0, mean_pos, mean_neg)
    missing = rng.random((n, w.d)) < w.missing_rate
    return Split(truth=x, missing=missing, labels=labels)


def _write(path: str, split: Split) -> None:
    n, d = split.truth.shape
    cells = list(map(repr, split.truth.ravel().tolist()))   # round-trips exactly
    for i in np.flatnonzero(split.missing.ravel()).tolist():
        cells[i] = "?"
    labels = list(map(str, split.labels.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(cells[r * d:(r + 1) * d]) + "," + labels[r] + "\n"
                         for r in range(n)))


def make_inputs(w: Workload, seed: int, train_seed: int, workdir: str) -> Inputs:
    """Draw the training split from train_seed and the held-out split from
    seed, and write both as delimited files."""
    mean_pos, mean_neg = class_means(w)
    cov = shared_cov(w)
    chol = np.linalg.cholesky(cov)
    train = _draw(np.random.default_rng(np.random.SeedSequence([train_seed, w.tag, 0])),
                  w, w.n_train, mean_pos, mean_neg, chol)
    test = _draw(np.random.default_rng(np.random.SeedSequence([seed, w.tag, 1])),
                 w, w.n_test, mean_pos, mean_neg, chol)
    os.makedirs(workdir, exist_ok=True)
    train_path = os.path.join(workdir, "train.csv")
    test_path = os.path.join(workdir, "test.csv")
    _write(train_path, train)
    _write(test_path, test)
    return Inputs(mean_pos, mean_neg, cov, train, test, train_path, test_path)
