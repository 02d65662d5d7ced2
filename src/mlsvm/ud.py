"""Two-stage uniform-design hyperparameter search over (C, gamma).

Stage 1 places a fixed low-discrepancy lattice over the log-scaled ranges
(re-centered on an inherited optimum when one is supplied). Stage 2 places a
smaller lattice around the stage-1 winner with half-width equal to one
stage-1 lattice step per axis; the stage-2 center coincides with the winner
and reuses its score, so a search scores at most 9 + 5 - 1 = 13 distinct
candidates. Each candidate is scored by stratified k-fold cross-validation
on the geometric mean of sensitivity and specificity, pooled over the folds.

After each fold, a candidate's pooled G-mean is bounded from above by
counting every held-out row of its remaining folds as correct. Once that
bound falls strictly below the best fully scored candidate so far, the
candidate's remaining folds are skipped and the bound is recorded as its
score (a deterministic form of racing, Maron & Moore, NIPS 1993). Such a
candidate can neither win nor tie, so the winner and its score are those of
the exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mlsvm.data import BinaryView
from mlsvm.metrics import ConfusionMatrix, compute_metrics, stratified_folds
from mlsvm.svm import (ClassWeights, KernelParams, SolverConfig, class_weights,
                       predict, train_svm)

# shifted good-lattice-point designs; each level appears once per axis
_STAGE1 = ((1, 3), (2, 7), (3, 2), (4, 6), (5, 1), (6, 5), (7, 9), (8, 4), (9, 8))
_STAGE2 = ((1, 2), (2, 5), (3, 3), (4, 1), (5, 4))


@dataclass(frozen=True)
class UdConfig:
    c_range: tuple = (0.01, 100.0)
    gamma_range: tuple = (0.005, 3.000078)
    internal_cv_folds: int = 5

    def __post_init__(self):
        for lo, hi in (self.c_range, self.gamma_range):
            if not (0 < lo <= hi):
                raise ValueError("ranges must be positive and ordered")
        if self.internal_cv_folds < 2:
            raise ValueError("internal_cv_folds must be >= 2")


@dataclass
class UdOutcome:
    c: float
    gamma: float
    score: float
    weights: ClassWeights
    # (C, gamma, score, folds_trained) per candidate; a candidate stopped
    # before its last fold holds its upper bound as score, and folds_trained
    # counts its SVM solves (1 when scored by training fit)
    trace: list
    evaluations: int     # number of distinct scored candidates

    def format_table(self) -> str:
        return "".join("%.17g\t%.17g\t%.6f\t%d\n" % t for t in self.trace)


def _levels(pattern_size: int, lo: float, hi: float, level) -> float:
    return lo + (level - 1) * (hi - lo) / (pattern_size - 1)


def _stage1_window(lo, hi, center):
    """Full range by default; a half-span window around an inherited center,
    translated to stay inside the range, when a center is given."""
    if center is None:
        return lo, hi
    width = (hi - lo) / 2.0
    c = min(max(center, lo + width / 2.0), hi - width / 2.0)
    return c - width / 2.0, c + width / 2.0


def ud_search(view: BinaryView, rows, weights_mode: bool,
              config: UdConfig | None = None,
              solver: SolverConfig | None = None,
              center: tuple | None = None, seed: int = 0) -> UdOutcome:
    """Pick (C, gamma) maximizing the CV G-mean over the nested lattice.

    In weighted mode the per-class caps are tied to the searched C by the
    inverse class-size ratio, keeping the search two-dimensional. Ties break
    toward smaller C, then smaller gamma.
    """
    config = config or UdConfig()
    solver = solver or SolverConfig()
    rows = np.asarray(rows, dtype=np.int64)
    y = view.y()[rows]
    n_pos = int((y > 0).sum())
    n_neg = int((y < 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("rows contain a single class; cannot run model selection")

    folds = min(config.internal_cv_folds, n_pos, n_neg)
    if folds >= 2:
        assign = stratified_folds(y, folds, seed)
    else:
        assign = None     # degenerate data: score by training fit

    def evaluate(candidate, best):
        """(score, folds trained); stops once the score cannot reach best."""
        c, gamma = candidate
        weights = class_weights(c, weights_mode, y)
        kernel = KernelParams(gamma)
        if assign is None:
            model = train_svm(view, weights, kernel, solver, rows)
            pred, _ = predict(model, view.base.features[rows])
            return compute_metrics(ConfusionMatrix.from_predictions(y, pred)).gmean, 1
        # folds <= each class's size, so every training part keeps both classes
        cm = ConfusionMatrix()
        for f in range(folds):
            tr = rows[assign != f]
            te = rows[assign == f]
            model = train_svm(view, weights, kernel, solver, tr)
            pred, _ = predict(model, view.base.features[te])
            cm = cm + ConfusionMatrix.from_predictions(view.y()[te], pred)
            # rows of the folds still to run count as correct; after the last
            # fold none are left and the bound is the pooled G-mean itself
            rest = y[assign > f]
            n_rest_pos = int((rest > 0).sum())
            bound = compute_metrics(cm + ConfusionMatrix(
                tp=n_rest_pos, tn=rest.size - n_rest_pos)).gmean
            if bound < best:
                break
        return bound, f + 1

    log_c_lo, log_c_hi = np.log10(config.c_range[0]), np.log10(config.c_range[1])
    log_g_lo, log_g_hi = np.log10(config.gamma_range[0]), np.log10(config.gamma_range[1])
    c_center = None if center is None else np.log10(center[0])
    g_center = None if center is None else np.log10(center[1])

    w_c = _stage1_window(log_c_lo, log_c_hi, c_center)
    w_g = _stage1_window(log_g_lo, log_g_hi, g_center)
    runs1 = len(_STAGE1)
    stage1 = [
        (10.0 ** _levels(runs1, w_c[0], w_c[1], lc),
         10.0 ** _levels(runs1, w_g[0], w_g[1], lg))
        for lc, lg in _STAGE1
    ]

    scores: dict[tuple, tuple] = {}     # (score, folds) in evaluation order
    best = -np.inf                      # best fully scored G-mean so far

    def run_batch(cands):
        nonlocal best
        for cand in cands:
            if cand not in scores:
                scores[cand] = evaluate(cand, best)
                # a stopped candidate's bound is below best, so never raises it
                best = max(best, scores[cand][0])

    run_batch(stage1)
    winner1 = min(stage1, key=lambda cand: (-scores[cand][0], cand[0], cand[1]))

    step_c = (w_c[1] - w_c[0]) / (runs1 - 1)
    step_g = (w_g[1] - w_g[0]) / (runs1 - 1)
    half = (len(_STAGE2) - 1) / 2.0
    wc_log, wg_log = np.log10(winner1[0]), np.log10(winner1[1])
    stage2 = []
    for lc, lg in _STAGE2:
        off_c = (lc - (half + 1)) / half * step_c
        off_g = (lg - (half + 1)) / half * step_g
        if off_c == 0.0 and off_g == 0.0:
            stage2.append(winner1)
            continue
        cc = float(np.clip(wc_log + off_c, log_c_lo, log_c_hi))
        gg = float(np.clip(wg_log + off_g, log_g_lo, log_g_hi))
        stage2.append((10.0 ** cc, 10.0 ** gg))
    # the lattice center duplicates the stage-1 winner and reuses its score
    run_batch(stage2)

    win = min(scores, key=lambda cand: (-scores[cand][0], cand[0], cand[1]))
    return UdOutcome(
        c=win[0], gamma=win[1], score=scores[win][0],
        weights=class_weights(win[0], weights_mode, y),
        trace=[(c, gamma, score, n) for (c, gamma), (score, n) in scores.items()],
        evaluations=len(scores),
    )
