import numpy as np
import pytest

from mlsvm.data import binary_view
from mlsvm.evaluation import train_method
from mlsvm.metrics import ConfusionMatrix, compute_metrics, stratified_folds
from mlsvm.svm import ClassWeights, KernelParams, SolverConfig, predict, train_svm
from mlsvm.synth import make_separable_blobs
from mlsvm.ud import UdConfig, ud_search


def overlapping_blobs(n=200, seed=0, n_pos=None):
    rng = np.random.default_rng(seed)
    half = n // 2 if n_pos is None else n_pos
    x = np.vstack([rng.normal(size=(half, 3)) + 0.9,
                   rng.normal(size=(n - half, 3)) - 0.9])
    labels = np.concatenate([np.ones(half, dtype=int),
                             2 * np.ones(n - half, dtype=int)])
    from mlsvm.data import Dataset
    return Dataset(x, labels, (1, 2))


def cv_gmean(view, rows, c, gamma, folds, seed, weights_mode=False):
    """Same pooled-confusion CV scoring rule, applied to every fold.

    Weighted caps follow the class sizes of all rows, as in the search.
    """
    rows = np.asarray(rows)
    y = view.y()[rows]
    assign = stratified_folds(y, folds, seed)
    n_pos = int((y > 0).sum())
    w = ClassWeights.inverse_size(c, n_pos, y.size - n_pos) if weights_mode \
        else ClassWeights.uniform(c)
    cm = ConfusionMatrix()
    for f in range(folds):
        tr = rows[assign != f]
        te = rows[assign == f]
        model = train_svm(view, w, KernelParams(gamma), SolverConfig(), tr)
        pred, _ = predict(model, view.base.features[te])
        cm = cm + ConfusionMatrix.from_predictions(view.y()[te], pred)
    return compute_metrics(cm).gmean


def exhaustive(view, rows, out, folds, seed, weights_mode):
    """Score every candidate of out.trace on all folds.

    Returns (scores, stage-1 winner, winner) under the search's tie-break.
    Stage 1 is fixed by the ranges and stage 2 by the stage-1 winner, so
    once the two searches agree on that winner, out.trace holds every
    candidate the exhaustive search scores.
    """
    scores = {(c, g): cv_gmean(view, rows, c, g, folds, seed, weights_mode)
              for c, g, _, _ in out.trace}

    def best(cands):
        return min(cands, key=lambda cg: (-scores[cg], cg[0], cg[1]))
    return scores, best([t[:2] for t in out.trace[:9]]), best(scores)


class TestBudget:
    def test_default_budget_trains_exactly_13(self):
        ds = overlapping_blobs(120, seed=1)
        view = binary_view(ds, 1)
        out = ud_search(view, np.arange(120), False, UdConfig(), seed=0)
        assert out.evaluations == 13
        assert len(out.trace) == 13

    def test_all_candidates_inside_ranges(self):
        ds = overlapping_blobs(80, seed=3)
        view = binary_view(ds, 1)
        cfg = UdConfig()
        out = ud_search(view, np.arange(80), False, cfg, seed=0)
        for c, g, _, _ in out.trace:
            assert cfg.c_range[0] * (1 - 1e-12) <= c <= cfg.c_range[1] * (1 + 1e-12)
            assert cfg.gamma_range[0] * (1 - 1e-12) <= g <= cfg.gamma_range[1] * (1 + 1e-12)

    def test_center_rerun_stays_inside_and_on_budget(self):
        ds = overlapping_blobs(80, seed=4)
        view = binary_view(ds, 1)
        cfg = UdConfig()
        out = ud_search(view, np.arange(80), False, cfg, center=(1.0, 0.1), seed=0)
        assert out.evaluations <= 13
        for c, g, _, _ in out.trace:
            assert cfg.c_range[0] * (1 - 1e-12) <= c <= cfg.c_range[1] * (1 + 1e-12)
            assert cfg.gamma_range[0] * (1 - 1e-12) <= g <= cfg.gamma_range[1] * (1 + 1e-12)

    def test_degenerate_ranges_train_one_candidate_once(self):
        ds = overlapping_blobs(60, seed=5)
        view = binary_view(ds, 1)
        cfg = UdConfig(c_range=(1, 1), gamma_range=(0.5, 0.5), internal_cv_folds=3)
        out = ud_search(view, np.arange(60), False, cfg, seed=0)
        assert out.evaluations == 1
        assert len(out.trace) == 1
        assert out.c == pytest.approx(1.0) and out.gamma == pytest.approx(0.5)
        assert out.score == cv_gmean(view, np.arange(60), out.c, out.gamma, 3, 0)


class TestWinner:
    def test_tie_break_smallest_c_then_gamma(self):
        # perfectly separable: every candidate scores 1.0
        ds = make_separable_blobs(n=80, d=3, separation=10.0, seed=5)
        view = binary_view(ds, 1)
        out = ud_search(view, np.arange(80), False, UdConfig(), seed=0)
        best = min(((c, g) for c, g, s, _ in out.trace
                    if s == max(t[2] for t in out.trace)))
        assert (out.c, out.gamma) == best

    def test_winner_score_is_max(self):
        ds = overlapping_blobs(100, seed=6)
        view = binary_view(ds, 1)
        out = ud_search(view, np.arange(100), False, UdConfig(), seed=0)
        assert out.score == max(t[2] for t in out.trace)

    def test_determinism(self):
        ds = overlapping_blobs(100, seed=7)
        view = binary_view(ds, 1)
        a = ud_search(view, np.arange(100), False, UdConfig(), seed=3)
        b = ud_search(view, np.arange(100), False, UdConfig(), seed=3)
        assert (a.c, a.gamma, a.score) == (b.c, b.gamma, b.score)
        assert a.trace == b.trace

    def test_weighted_mode_ties_caps_to_class_ratio(self):
        ds = overlapping_blobs(90, seed=9)
        view = binary_view(ds, 1)
        out = ud_search(view, np.arange(90), True, UdConfig(), seed=0)
        n_pos = view.rows_positive.size
        n_neg = view.rows_negative.size
        assert out.weights.c_plus / out.weights.c_minus == pytest.approx(n_neg / n_pos)

    def test_single_class_rows_rejected(self):
        ds = overlapping_blobs(40, seed=10)
        view = binary_view(ds, 1)
        rows = view.rows_positive
        with pytest.raises(ValueError, match="single class"):
            ud_search(view, rows, False, UdConfig(), seed=0)


class TestCvFolds:
    def test_every_training_part_keeps_both_classes(self):
        # ud_search runs min(folds, n_pos, n_neg) folds and trains on every
        # training part, so none may lose a class
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(400):
            n = int(rng.integers(4, 60))
            y = np.where(rng.random(n) < rng.random(), 1.0, -1.0)
            folds = min(5, int((y > 0).sum()), int((y < 0).sum()))
            if folds < 2:
                continue
            assign = stratified_folds(y, folds, seed=trial)
            for f in range(folds):
                train = y[assign != f]
                assert (train > 0).any() and (train < 0).any(), (trial, f)
            checked += 1
        assert checked >= 200


class TestAgainstGridOracle:
    def test_ud_winner_close_to_exhaustive_grid(self):
        ds = overlapping_blobs(200, seed=11)
        view = binary_view(ds, 1)
        cfg = UdConfig()
        out = ud_search(view, np.arange(200), False, cfg, seed=1)
        grid_c = np.logspace(np.log10(cfg.c_range[0]), np.log10(cfg.c_range[1]), 9)
        grid_g = np.logspace(np.log10(cfg.gamma_range[0]),
                             np.log10(cfg.gamma_range[1]), 9)
        best_grid = max(cv_gmean(view, np.arange(200), c, g, 5, 1)
                        for c in grid_c for g in grid_g)
        assert out.score >= best_grid - 0.05


class TestStageGeometry:
    def test_stage2_contained_in_stage1_step_neighborhood(self):
        ds = overlapping_blobs(80, seed=12)
        view = binary_view(ds, 1)
        cfg = UdConfig()
        out = ud_search(view, np.arange(80), False, cfg, seed=0)
        stage1 = out.trace[:9]
        stage2 = out.trace[9:]
        win = max(stage1, key=lambda t: (t[2], -t[0], -t[1]))
        step_c = (np.log10(cfg.c_range[1]) - np.log10(cfg.c_range[0])) / 8
        step_g = (np.log10(cfg.gamma_range[1]) - np.log10(cfg.gamma_range[0])) / 8
        for c, g, _, _ in stage2:
            assert abs(np.log10(c) - np.log10(win[0])) <= step_c + 1e-9
            assert abs(np.log10(g) - np.log10(win[1])) <= step_g + 1e-9


class TestEarlyStop:
    @pytest.mark.parametrize("seed, n, n_pos, weighted, center, folds", [
        (0, 70, None, False, None, 2),
        (1, 70, None, True, None, 3),
        (2, 80, 20, False, (1.0, 0.1), 4),
        (3, 80, 20, True, (1.0, 0.1), 5),
        (4, 90, 15, True, None, 5),
        (5, 60, 3, False, None, 5),
        (6, 60, 3, True, (3.0, 0.5), 4),
        (7, 60, None, False, (0.1, 1.0), 3),
    ])
    def test_same_winner_as_exhaustive_search(self, seed, n, n_pos, weighted,
                                              center, folds):
        view = binary_view(overlapping_blobs(n, seed, n_pos), 1)
        rows = np.arange(n)
        out = ud_search(view, rows, weighted, UdConfig(internal_cv_folds=folds),
                        center=center, seed=seed)
        k = min(folds, view.rows_positive.size, view.rows_negative.size)
        full, win1, win = exhaustive(view, rows, out, k, seed, weighted)
        recorded = {t[:2]: t[2] for t in out.trace}
        assert min(list(recorded)[:9],     # the stage-2 centre
                   key=lambda cg: (-recorded[cg], cg[0], cg[1])) == win1
        n_pos_all = view.rows_positive.size
        weights = ClassWeights.inverse_size(win[0], n_pos_all, n - n_pos_all) \
            if weighted else ClassWeights.uniform(win[0])
        assert (out.c, out.gamma, out.score, out.weights) == \
            (win[0], win[1], full[win], weights)
        assert out.evaluations == len(out.trace)
        for c, g, score, trained in out.trace:
            assert 1 <= trained <= k
            if trained == k:
                assert score == full[(c, g)]
            else:
                assert full[(c, g)] <= score < out.score

    def test_losing_candidates_stop_early(self):
        view = binary_view(overlapping_blobs(120, seed=1), 1)
        out = ud_search(view, np.arange(120), False, UdConfig(), seed=0)
        trained = [t[3] for t in out.trace]
        assert min(trained) < 5 and max(trained) == 5
        assert out.format_table().splitlines()[0].split("\t")[3] == str(trained[0])

    def test_folds_trained_count_every_solve(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return train_svm(*args, **kwargs)
        monkeypatch.setattr("mlsvm.ud.train_svm", counted)
        monkeypatch.setattr("mlsvm.evaluation.train_svm", counted)
        view = binary_view(overlapping_blobs(80, seed=2, n_pos=25), 1)
        _, out = train_method(view, "wsvm", 0, ud_config=UdConfig(internal_cv_folds=4))
        assert len(calls) == sum(t[3] for t in out.trace) + 1
        assert len(calls) < 13 * 4 + 1

    def test_training_fit_path_trains_once_per_candidate(self):
        # a one-row minority leaves no room for two folds
        view = binary_view(overlapping_blobs(30, seed=3, n_pos=1), 1)
        out = ud_search(view, np.arange(30), True, UdConfig(), seed=0)
        assert [t[3] for t in out.trace] == [1] * out.evaluations
