"""Independent reference computations used to check the library.

Everything here is deliberately written against the math, not against the
library's internals: dense projected-gradient ascent for the dual QP, the
dual objective and KKT conditions of a trained model, naive nearest-neighbor
search (also restricted to a subset through a fine graph's lists, and one
refinement pass over given lists) and neighbor recall, and the covariance
behind an imputer's scatter.
"""

from __future__ import annotations

import numpy as np

from mlsvm.svm import decision_values


def rbf_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2)


def linear_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b.T


def project_dual(v: np.ndarray, y: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= caps, y.a = 0}.

    h(nu) = y . clip(v - nu*y, 0, caps) is piecewise linear and nonincreasing
    in nu; the crossing is found exactly from the breakpoints.
    """
    def h(nu):
        return float(np.dot(y, np.clip(v - nu * y, 0.0, caps)))

    bps = np.sort(np.concatenate([y * v, y * (v - caps)]))
    vals = np.array([h(b) for b in bps])
    idx = int(np.searchsorted(-vals, 0.0))
    if idx == 0:
        nu = bps[0]
    elif idx >= bps.size:
        nu = bps[-1]
    else:
        b0, h0 = bps[idx - 1], vals[idx - 1]
        b1, h1 = bps[idx], vals[idx]
        nu = b0 if h1 == h0 else b0 - h0 * (b1 - b0) / (h1 - h0)
    return np.clip(v - nu * y, 0.0, caps)


def qp_dual_oracle(K: np.ndarray, y: np.ndarray, caps: np.ndarray,
                   max_iters: int = 200_000):
    """Projected-gradient ascent on the SVM dual; returns (alpha, objective)."""
    Q = (y[:, None] * y[None, :]) * K
    lip = float(np.linalg.eigvalsh(Q)[-1])
    eta = 1.0 / max(lip, 1e-12)
    a = np.zeros(len(y))
    prev = -np.inf
    for t in range(max_iters):
        a = project_dual(a + eta * (1.0 - Q @ a), y, caps)
        if t % 200 == 199:
            obj = float(a.sum() - 0.5 * a @ Q @ a)
            if abs(obj - prev) < 1e-13 * max(1.0, abs(obj)):
                break
            prev = obj
    return a, float(a.sum() - 0.5 * a @ Q @ a)


def brute_knn(x: np.ndarray, k: int):
    """Naive exact k-NN with explicit (distance, index) ordering."""
    return np.array([_nearest(x, i, range(x.shape[0]), k)
                     for i in range(x.shape[0])], dtype=np.int64).reshape(x.shape[0], k)


def _nearest(x, i, candidates, k):
    """The k candidates other than i nearest to x[i], ties to the lower index."""
    d2 = {j: float(((x[j] - x[i]) ** 2).sum()) for j in candidates if j != i}
    return sorted(d2, key=lambda j: (d2[j], j))[:k]


def restricted_knn(x: np.ndarray, fine_ids: np.ndarray, picked: np.ndarray):
    """Neighbor lists of the picked points drawn from a fine graph's lists.

    x holds the fine points and fine_ids their directed k-NN lists. Point i
    of the result is picked[i]; its candidates are the picked points among
    its fine neighbors and theirs, other than itself. It keeps its min(k,
    m-1) nearest of them, or of every picked point when it has fewer
    candidates than that.
    """
    m = picked.size
    k = min(fine_ids.shape[1], m - 1)
    local = {int(p): i for i, p in enumerate(picked)}
    xc = x[picked]
    out = []
    for i, p in enumerate(picked):
        hops = set(fine_ids[p].tolist())
        for j in fine_ids[p]:
            hops.update(fine_ids[j].tolist())
        cand = {local[j] for j in hops if j in local} - {i}
        out.append(_nearest(xc, i, cand if len(cand) >= k else range(m), k))
    return np.array(out, dtype=np.int64).reshape(m, k)


def refined_knn(x: np.ndarray, ids: np.ndarray):
    """One refinement pass over the directed lists ids of the points x.

    Point i's candidates are its own list, its neighbors' lists and every
    point whose list holds i, all as given, other than i itself. It keeps
    its k nearest of them, ties to the lower index.
    """
    n, k = ids.shape
    reverse = [set() for _ in range(n)]
    for i in range(n):
        for j in ids[i]:
            reverse[j].add(i)
    out = []
    for i in range(n):
        cand = set(ids[i].tolist()) | reverse[i]
        for j in ids[i]:
            cand.update(ids[j].tolist())
        out.append(_nearest(x, i, cand, k))
    return np.array(out, dtype=np.int64).reshape(n, k)


def dual_objective(model) -> float:
    """sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j k(x_i, x_j)."""
    if model.n_sv == 0:
        return 0.0
    k = rbf_matrix(model.sv_features, model.sv_features, model.kernel.gamma)
    coef = model.sv_alphas * model.sv_labels
    return float(model.sv_alphas.sum() - 0.5 * coef @ k @ coef)


def kkt_violation(model, view) -> float:
    """Largest dual-optimality violation over every row of view.

    Zero means every point satisfies its condition exactly: margin >= 1 at
    alpha = 0, margin <= 1 at the class cap, margin = 1 in between. Needs a
    model trained in-process on all of view's rows (sv_rows intact).
    """
    y = view.y()
    yf = y * decision_values(model, view.base.features)
    caps = np.where(y > 0, model.weights.c_plus, model.weights.c_minus)
    alpha = np.zeros(y.size)
    alpha[model.sv_rows] = model.sv_alphas
    at_zero = alpha == 0
    at_cap = alpha >= caps
    free = ~at_zero & ~at_cap
    return max(np.max(1.0 - yf[at_zero], initial=0.0),
               np.max(yf[at_cap] - 1.0, initial=0.0),
               np.max(np.abs(yf[free] - 1.0), initial=0.0))


def knn_recall(approx, exact) -> float:
    """Mean fraction of exact neighbors recovered by the approximate lists."""
    if approx.n_nodes != exact.n_nodes or (approx.node_ids != exact.node_ids).any():
        raise ValueError("graphs are over different node sets")
    if approx.k != exact.k:
        raise ValueError("graphs have different k (%d vs %d)" % (approx.k, exact.k))
    if exact.k == 0:
        return 1.0
    hits = sum(np.intersect1d(a, e).size
               for a, e in zip(approx.neighbor_ids, exact.neighbor_ids))
    return hits / (exact.n_nodes * exact.k)


def covariance(imputer) -> np.ndarray:
    """Sample covariance from a fitted RemImputer's scatter matrix."""
    return imputer.scatter_ / (imputer.n_ - 1)
