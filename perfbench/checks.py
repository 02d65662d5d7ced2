"""Output checks computed apart from the program under test.

Each check compares a program output against a closed form, a reference
computation written here, or a property the method must have. A check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# recomputed margins may differ from the program's only by rounding
MARGIN_RTOL = 1e-8
# a z-score this far above the Bayes G-mean is sampling luck no classifier gets
GMEAN_SLACK_Z = 4.0
# EM imputation error relative to the population linear-MMSE imputation
RMSE_RATIO_RANGE = (0.97, 1.05)


def phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bayes_gmean(delta: float) -> float:
    """Largest G-mean any classifier reaches on two equal-covariance Gaussians.

    Thresholds on the discriminant trace the ROC; sqrt(TPR * TNR) peaks where
    both rates equal Phi(delta / 2). Missing cells can only lower it.
    """
    return phi(delta / 2.0)


def gmean(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    pos = y_true > 0
    sn = float(np.mean(y_pred[pos] > 0))
    sp = float(np.mean(y_pred[~pos] <= 0))
    return math.sqrt(sn * sp)


def check_gmean(value: float, y_true: np.ndarray, delta: float, floor_gap: float):
    bayes = bayes_gmean(delta)
    n_pos = int(np.count_nonzero(y_true > 0))
    n_neg = y_true.size - n_pos
    var = bayes * (1.0 - bayes)
    se = 0.5 * math.sqrt(var / n_pos + var / n_neg)   # delta method at sn = sp
    ceiling = bayes + GMEAN_SLACK_Z * se
    floor = bayes - floor_gap
    if value > ceiling:
        return ["test G-mean %.4f above the Bayes bound %.4f + slack" % (value, bayes)]
    if value < floor:
        return ["test G-mean %.4f below the floor %.4f (Bayes %.4f)" % (value, floor, bayes)]
    return []


def check_pass_through(completed: np.ndarray, truth: np.ndarray, missing: np.ndarray,
                       what: str):
    """Observed cells must come back bit-for-bit; imputed ones must be finite."""
    obs = ~missing
    errors = []
    if not np.array_equal(completed[obs], truth[obs]):
        bad = int(np.count_nonzero(completed[obs] != truth[obs]))
        errors.append("%s: %d observed cells changed" % (what, bad))
    if not np.isfinite(completed).all():
        errors.append("%s: non-finite values after imputation" % what)
    return errors


def mixture_moments(mean_pos, mean_neg, cov, frac_pos: float):
    """Mean and covariance of the two-class mixture the imputer sees."""
    step = mean_pos - mean_neg
    mean = frac_pos * mean_pos + (1.0 - frac_pos) * mean_neg
    return mean, cov + frac_pos * (1.0 - frac_pos) * np.outer(step, step)


def oracle_impute(observed: np.ndarray, missing: np.ndarray, mean: np.ndarray,
                  cov: np.ndarray) -> np.ndarray:
    """Best linear prediction of each missing cell from the row's observed
    cells under the population moments, one regression per pattern."""
    out = np.where(missing, 0.0, observed)
    incomplete = np.flatnonzero(missing.any(axis=1))
    patterns, inverse = np.unique(missing[incomplete], axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(patterns.shape[0] + 1))
    for pid, pat in enumerate(patterns):
        rows = incomplete[order[starts[pid]:starts[pid + 1]]]
        m = np.flatnonzero(pat)
        o = np.flatnonzero(~pat)
        if o.size == 0:
            out[np.ix_(rows, m)] = mean[m]
            continue
        coef = np.linalg.solve(cov[np.ix_(o, o)], cov[np.ix_(o, m)])
        out[np.ix_(rows, m)] = mean[m] + (observed[np.ix_(rows, o)] - mean[o]) @ coef
    return out


def rmse(estimate: np.ndarray, truth: np.ndarray, missing: np.ndarray) -> float:
    diff = estimate[missing] - truth[missing]
    return math.sqrt(float(np.mean(diff * diff)))


def check_imputation_error(value: float, oracle_value: float):
    ratio = (value / oracle_value) ** 2
    lo, hi = RMSE_RATIO_RANGE
    if not lo <= ratio <= hi:
        return ["imputation MSE is %.4fx the linear-MMSE oracle (allowed %.2f..%.2f)"
                % (ratio, lo, hi)]
    return []


def rbf_margins(points, sv, coef, gamma: float, bias: float, block: int = 64):
    """sum_i coef_i exp(-gamma ||x - sv_i||^2) + bias, from explicit differences."""
    out = np.empty(points.shape[0])
    for a in range(0, points.shape[0], block):
        diff = points[a:a + block, None, :] - sv[None, :, :]
        out[a:a + block] = np.exp(-gamma * np.einsum("psd,psd->ps", diff, diff)) @ coef
    return out + bias


def check_margins(model, points, labels, margins, sample):
    coef = model.sv_alphas * model.sv_labels
    mine = rbf_margins(points[sample], model.sv_features, coef,
                       model.kernel.gamma, model.bias)
    scale = float(np.abs(coef).sum() + abs(model.bias) + 1.0)
    worst = float(np.max(np.abs(mine - margins[sample])))
    errors = []
    if worst > MARGIN_RTOL * scale:
        errors.append("recomputed margins differ by %.3g (scale %.3g)" % (worst, scale))
    if not np.array_equal(labels, np.where(margins > 0, 1.0, -1.0)):
        errors.append("predicted labels disagree with the sign of the margins")
    return errors


def check_dual_solution(model, x, y, tolerance: float):
    """Box and equality constraints, and the largest KKT violation.

    Every training row gets its dual coefficient from the support-vector
    bookkeeping (zero elsewhere); y_i f(x_i) must be >= 1 at zero, <= 1 at
    the cap and = 1 in between, up to the solver's stopping tolerance.
    """
    errors = []
    alpha = np.zeros(x.shape[0])
    alpha[model.sv_rows] = model.sv_alphas
    caps = np.where(y > 0, model.weights.c_plus, model.weights.c_minus)
    if (alpha < 0).any() or (alpha > caps * (1.0 + 1e-12)).any():
        errors.append("dual coefficients leave the box [0, cap]")
    balance = abs(float(np.dot(alpha, y)))
    if balance > 1e-9 * max(1.0, float(alpha.sum())):
        errors.append("sum(alpha * y) = %.3g, not 0" % balance)
    sv = alpha > 0
    yf = y * rbf_margins(x, x[sv], alpha[sv] * y[sv], model.kernel.gamma, model.bias)
    at_zero = alpha == 0
    at_cap = alpha >= caps
    free = ~at_zero & ~at_cap
    worst = max(float(np.max(1.0 - yf[at_zero], initial=0.0)),
                float(np.max(yf[at_cap] - 1.0, initial=0.0)),
                float(np.max(np.abs(yf[free] - 1.0), initial=0.0)))
    if worst > tolerance + 1e-9:
        errors.append("largest KKT violation %.3g exceeds the tolerance %.3g"
                      % (worst, tolerance))
    return errors, worst


def check_hierarchy(level_sizes, n_train: int, coarsest_max: int):
    """Level sizes from finest to coarsest: start at the training set, shrink
    strictly, and end at or below the coarsest bound."""
    errors = []
    if level_sizes[0] != n_train:
        errors.append("level 0 has %d rows, training set %d" % (level_sizes[0], n_train))
    if any(b >= a for a, b in zip(level_sizes, level_sizes[1:])):
        errors.append("level sizes do not strictly decrease: %s" % level_sizes)
    if level_sizes[-1] > coarsest_max:
        errors.append("coarsest level has %d rows, bound %d"
                      % (level_sizes[-1], coarsest_max))
    return errors


def graph_recall(builds: list, sample: int, rng) -> float:
    """Share of exact k nearest neighbours the program's graphs found, over
    sampled nodes; the exact lists come from brute force here.

    builds holds one dict per graph built ("graph", "data", "approx").
    Nodes come from the approximate graphs when there are any (the exact
    graphs are sampled otherwise, where recall must read 1). Zero when no
    graph was built.
    """
    pool = [b for b in builds if b["approx"]] or builds
    if not pool:
        return 0.0
    ends = np.cumsum([b["graph"].n_nodes for b in pool])
    picks = rng.choice(int(ends[-1]), size=min(sample, int(ends[-1])), replace=False)
    owner = np.searchsorted(ends, picks, side="right")
    hits = total = 0
    for g in np.unique(owner):
        graph = pool[g]["graph"]
        x = pool[g]["data"].features[graph.node_ids]
        nodes = picks[owner == g] - (ends[g] - graph.n_nodes)
        for node in nodes:
            d2 = np.einsum("nd,nd->n", x - x[node], x - x[node])
            d2[node] = np.inf
            exact = np.argpartition(d2, graph.k)[:graph.k]
            hits += np.intersect1d(graph.neighbor_ids[node], exact).size
            total += graph.k
    return hits / total
