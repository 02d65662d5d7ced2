"""Lloyd's k-means with kmeans++ seeding, restarts, and empty-cluster reseeding."""

from __future__ import annotations

import numpy as np

_RESTARTS = 3      # k-means++ seedings per call
_MAX_ITER = 100    # Lloyd iterations per seeding


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, n - 1)
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def _lloyd(x, centroids):
    k = centroids.shape[0]
    assign = np.full(x.shape[0], -1, dtype=np.int64)
    for _ in range(_MAX_ITER):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            members = new_assign == c
            if not members.any():
                # reseed an empty cluster at the point farthest from its centroid
                far = int(np.argmax(np.min(d2, axis=1)))
                centroids[c] = x[far]
                new_assign[far] = c
                members = new_assign == c
            centroids[c] = x[members].mean(axis=0)
        if (new_assign == assign).all():
            break
        assign = new_assign
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(x.shape[0]), assign].sum())
    return centroids, assign, inertia


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Cluster points into k groups; returns (centroids, assignment).

    Deterministic for a fixed generator state; the best restart by inertia
    wins (first restart on ties). k is clamped to the number of points.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-d array")
    k = max(1, min(k, x.shape[0]))
    best = None
    for _ in range(_RESTARTS):
        centroids = _kmeanspp_init(x, k, rng)
        centroids, assign, inertia = _lloyd(x, centroids.copy())
        if best is None or inertia < best[2]:
            best = (centroids, assign, inertia)
    return best[0], best[1]
