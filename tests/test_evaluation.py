import numpy as np
import pytest

from mlsvm.data import Dataset, binary_view, fit_normalization, inject_missing
from mlsvm.evaluation import (BenchmarkPlan, default_positive_class,
                              format_one_vs_all_table, one_against_all,
                              run_benchmark, run_cv, train_method)
from mlsvm.imputation import RemImputer
from mlsvm.metrics import ConfusionMatrix, compute_metrics, stratified_folds
from mlsvm.multilevel import FrameworkConfig, train_multilevel
from mlsvm.svm import KernelParams, train_svm
from mlsvm.synth import make_separable_blobs
from mlsvm.ud import UdConfig, ud_search

FAST_UD = UdConfig(internal_cv_folds=3)


class TestMetrics:
    def test_zero_negative_denominator_flags(self):
        m = compute_metrics(ConfusionMatrix(tp=9, fn=1, tn=0, fp=0))
        assert m.sn == pytest.approx(0.9)
        assert m.sp == 0.0
        assert m.gmean == 0.0
        assert m.degenerate

    def test_published_sensitivity_specificity_pair(self):
        # SN 0.8903 and SP 0.6345 must combine to G-mean 0.7516
        cm = ConfusionMatrix(tp=8903, fn=1097, tn=6345, fp=3655)
        m = compute_metrics(cm)
        assert m.sn == pytest.approx(0.8903)
        assert m.sp == pytest.approx(0.6345)
        assert abs(m.gmean - 0.7516) <= 1e-4

    def test_perfect_classifier(self):
        m = compute_metrics(ConfusionMatrix(tp=10, tn=20, fp=0, fn=0))
        assert (m.sn, m.sp, m.gmean, m.acc) == (1.0, 1.0, 1.0, 1.0)
        assert not m.degenerate

    def test_gmean_squared_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cm = ConfusionMatrix(*[int(v) for v in rng.integers(0, 50, 4)])
            m = compute_metrics(cm)
            assert abs(m.gmean ** 2 - m.sn * m.sp) <= 1e-15

    def test_accuracy_identity(self):
        cm = ConfusionMatrix(tp=3, fp=2, fn=1, tn=4)
        m = compute_metrics(cm)
        assert m.acc == pytest.approx(1 - (2 + 1) / 10)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


class TestStratifiedFolds:
    def test_even_split(self):
        labels = np.repeat([0, 1], 50)
        assign = stratified_folds(labels, 10, seed=0)
        counts = np.bincount(assign)
        assert (counts == 10).all()

    def test_per_class_balance(self):
        labels = np.array([1] * 90 + [2] * 10)
        assign = stratified_folds(labels, 10, seed=1)
        for f in range(10):
            assert (assign[:90] == f).sum() == 9
            assert (assign[90:] == f).sum() == 1

    def test_deterministic(self):
        labels = np.random.default_rng(2).integers(0, 3, 60)
        a = stratified_folds(labels, 5, seed=7)
        b = stratified_folds(labels, 5, seed=7)
        assert np.array_equal(a, b)

    def test_small_class_warns(self):
        labels = np.array([1] * 20 + [2] * 3)
        with pytest.warns(UserWarning, match="spreading"):
            stratified_folds(labels, 5, seed=0)

    def test_partition_exact(self):
        labels = np.random.default_rng(3).integers(0, 2, 47)
        assign = stratified_folds(labels, 5, seed=0)
        assert assign.min() >= 0 and assign.max() < 5
        assert assign.size == 47

    @pytest.mark.filterwarnings("ignore:class .* points for .* folds")
    def test_every_fold_filled_up_to_one_row_each(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, int(rng.integers(1, 5)), n)
            labels[: int(rng.integers(0, n))] = 0      # often one large class
            k = int(rng.integers(2, n + 1))
            counts = np.bincount(stratified_folds(labels, k, seed=int(n)),
                                 minlength=k)
            assert counts.size == k and counts.min() >= 1, (labels, k)


class TestRunCv:
    def test_separable_near_perfect(self):
        ds = make_separable_blobs(n=200, d=3, separation=8.0, seed=0)
        rep = run_cv(ds, 1, "svm", imputer="none", folds=5, seed=0,
                     ud_config=FAST_UD)
        assert rep.mean.gmean >= 0.99
        assert len(rep.folds) == 5

    def test_fold_partition_covers_everything(self):
        ds = make_separable_blobs(n=120, d=3, seed=1)
        rep = run_cv(ds, 1, "svm", imputer="none", folds=4, seed=0,
                     ud_config=FAST_UD)
        assert sum(f.cm.total for f in rep.folds) == 120

    def test_missing_needs_imputer(self):
        ds = inject_missing(make_separable_blobs(n=100, d=3, seed=2), 0.1, seed=0)
        with pytest.raises(ValueError, match="missing"):
            run_cv(ds, 1, "svm", imputer="none", folds=3, seed=0,
                   ud_config=FAST_UD)

    def test_rem_imputation_path(self):
        ds = inject_missing(make_separable_blobs(n=150, d=3, separation=8.0,
                                                 seed=3), 0.1, seed=0)
        rep = run_cv(ds, 1, "svm", imputer="rem", folds=3, seed=0,
                     ud_config=FAST_UD)
        assert rep.mean.gmean >= 0.95

    def test_multilevel_method_runs(self):
        from mlsvm.multilevel import FrameworkConfig
        ds = make_separable_blobs(n=700, d=3, separation=8.0, seed=4)
        rep = run_cv(ds, 1, "mlsvm", imputer="none", folds=3, seed=0,
                     ud_config=FAST_UD,
                     fw_config=FrameworkConfig(coarsest_max=80, q_dt=300))
        assert rep.mean.gmean >= 0.97
        assert rep.seconds_total() > 0

    @pytest.mark.parametrize("folds", [121, 200])
    def test_more_folds_than_rows_rejected(self, folds):
        ds = make_separable_blobs(n=120, d=3, seed=1)
        with pytest.raises(ValueError, match="%d folds for 120 rows" % folds):
            run_cv(ds, 1, "svm", imputer="none", folds=folds, seed=0,
                   ud_config=FAST_UD)

    def test_report_format(self):
        ds = make_separable_blobs(n=90, d=3, seed=6)
        rep = run_cv(ds, 1, "wsvm", imputer="none", folds=3, seed=0,
                     ud_config=FAST_UD)
        text = rep.format_report()
        assert text.splitlines()[0].startswith("fold")
        assert "mean" in text


class TestLeakage:
    def corrupt_rows(self, ds, rows):
        feats = ds.features.copy()
        feats[rows] = feats[rows] + 1e9
        return Dataset(feats, ds.missing, ds.labels, ds.class_names)

    def test_normalization_ignores_test_rows(self):
        ds = make_separable_blobs(n=100, d=4, seed=7)
        assign = stratified_folds(np.where(ds.labels == 1, 1, -1), 5, seed=0)
        train_rows = np.flatnonzero(assign != 0)
        test_rows = np.flatnonzero(assign == 0)
        bad = self.corrupt_rows(ds, test_rows)
        s1 = fit_normalization(ds, train_rows)
        s2 = fit_normalization(bad, train_rows)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.std, s2.std)

    def test_imputer_state_ignores_test_rows(self):
        from mlsvm.data import take_rows
        ds = inject_missing(make_separable_blobs(n=120, d=4, seed=8), 0.1, seed=1)
        assign = stratified_folds(np.where(ds.labels == 1, 1, -1), 4, seed=0)
        train_rows = np.flatnonzero(assign != 0)
        test_rows = np.flatnonzero(assign == 0)
        bad = self.corrupt_rows(ds, test_rows)
        i1 = RemImputer().fit(take_rows(ds, train_rows))
        i2 = RemImputer().fit(take_rows(bad, train_rows))
        assert np.array_equal(i1.mean_, i2.mean_)
        assert np.array_equal(i1.scatter_, i2.scatter_)

    def test_ud_winner_ignores_test_rows(self):
        ds = make_separable_blobs(n=120, d=3, seed=9)
        assign = stratified_folds(np.where(ds.labels == 1, 1, -1), 4, seed=0)
        train_rows = np.flatnonzero(assign != 0)
        test_rows = np.flatnonzero(assign == 0)
        bad = self.corrupt_rows(ds, test_rows)
        o1 = ud_search(binary_view(ds, 1), train_rows, False, FAST_UD, seed=1)
        o2 = ud_search(binary_view(bad, 1), train_rows, False, FAST_UD, seed=1)
        assert (o1.c, o1.gamma, o1.score) == (o2.c, o2.gamma, o2.score)


class TestOneAgainstAll:
    def make_multiclass(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = {1: (0, 0), 2: (3, 0), 3: (0, 3), 4: (3, 3), 5: (30, 30)}
        feats, labels = [], []
        for cls, (cx, cy) in centers.items():
            feats.append(rng.normal(size=(30, 2)) * 0.8 + (cx, cy))
            labels.extend([cls] * 30)
        x = np.vstack(feats)
        labels = np.array(labels)
        return Dataset(x, np.zeros_like(x, dtype=bool), labels, (1, 2, 3, 4, 5))

    def test_two_class_symmetry(self):
        ds = make_separable_blobs(n=100, d=3, separation=8.0, seed=10)
        reports = one_against_all(ds, "svm", imputer="none", folds=4, seed=0,
                                  ud_config=FAST_UD)
        r_pos, r_neg = reports[1], reports[-1]
        assert r_pos.mean.sn == pytest.approx(r_neg.mean.sp)
        assert r_pos.mean.sp == pytest.approx(r_neg.mean.sn)

    def test_separable_class_dominates(self):
        ds = self.make_multiclass()
        reports = one_against_all(ds, "svm", imputer="none", folds=3, seed=0,
                                  ud_config=FAST_UD)
        accs = {cls: rep.mean.acc for cls, rep in reports.items()}
        assert accs[5] >= max(v for c, v in accs.items() if c != 5)

    def test_table_has_one_row_per_class(self):
        ds = self.make_multiclass()
        reports = one_against_all(ds, "svm", imputer="none", folds=3, seed=0,
                                  ud_config=FAST_UD)
        table = format_one_vs_all_table(reports)
        assert len(table.strip().splitlines()) == 1 + 5


class TestBenchmark:
    def test_zero_ratio_single_method_matches_run_cv(self):
        ds = make_separable_blobs(n=120, d=3, seed=11)
        plan = BenchmarkPlan(ratios=(0.0,), methods=("svm",), imputer="none",
                             folds=3, seed=4)
        result = run_benchmark(ds, plan, ud_config=FAST_UD)
        assert len(result.cells) == 1
        direct = run_cv(ds, 1, "svm", imputer="none", folds=3, seed=4,
                        ud_config=FAST_UD)
        assert result.cells[0].report.mean.gmean == pytest.approx(direct.mean.gmean)

    def test_grid_cardinality(self):
        ds = make_separable_blobs(n=100, d=3, seed=12)
        plan = BenchmarkPlan(ratios=(0.05, 0.10), methods=("svm", "wsvm"),
                             imputer="mean", folds=2, seed=0)
        result = run_benchmark(ds, plan, ud_config=FAST_UD)
        assert len(result.cells) == 4
        table = result.format_table()
        assert len(table.strip().splitlines()) == 1 + 4

    def test_failed_cell_recorded_not_raised(self):
        ds = inject_missing(make_separable_blobs(n=60, d=3, seed=13), 0.05, seed=0)
        plan = BenchmarkPlan(ratios=(0.05,), methods=("svm",), imputer="none",
                             folds=3, seed=0)
        with pytest.warns(UserWarning, match="failed"):
            result = run_benchmark(ds, plan, ud_config=FAST_UD)
        assert result.cells[0].error is not None
        assert "ERROR" in result.format_table()

    def test_default_plan_shape(self):
        plan = BenchmarkPlan()
        assert plan.ratios == (0.05, 0.10, 0.20, 0.40)
        assert plan.methods == ("svm", "wsvm", "mlsvm", "mlwsvm")
        assert plan.folds == 10

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(ratios=(1.0,))
        with pytest.raises(ValueError):
            BenchmarkPlan(methods=("nope",))
        with pytest.raises(ValueError):
            BenchmarkPlan(folds=1)


def test_default_positive_class_is_minority():
    x = np.zeros((10, 1))
    labels = np.array([1] * 7 + [2] * 3)
    ds = Dataset(x, np.zeros_like(x, dtype=bool), labels, (1, 2))
    assert default_positive_class(ds) == 2
    assert default_positive_class(ds, 1) == 1


class TestTrainMethod:
    @pytest.fixture()
    def view(self):
        return binary_view(make_separable_blobs(n=300, d=3, separation=3.0,
                                                seed=8), 1)

    def assert_same_model(self, a, b):
        assert np.array_equal(a.sv_rows, b.sv_rows)
        assert np.array_equal(a.sv_alphas, b.sv_alphas)
        assert (a.bias, a.kernel, a.weights) == (b.bias, b.kernel, b.weights)

    @pytest.mark.parametrize("method, weighted", [("svm", False), ("wsvm", True)])
    def test_flat_is_search_then_train_on_every_row(self, view, method, weighted):
        model, outcome = train_method(view, method, 5, ud_config=FAST_UD)
        rows = np.arange(view.base.n_rows)
        want = ud_search(view, rows, weighted, FAST_UD, seed=5)
        assert outcome.trace == want.trace
        self.assert_same_model(model, train_svm(view, want.weights,
                                                KernelParams(want.gamma)))

    @pytest.mark.parametrize("method, weighted", [("mlsvm", False),
                                                  ("mlwsvm", True)])
    def test_multilevel_takes_the_given_seed(self, view, method, weighted):
        fw = FrameworkConfig(coarsest_max=60, q_dt=200)
        model, report = train_method(view, method, 3, ud_config=FAST_UD,
                                     fw_config=fw)
        want, want_report = train_multilevel(
            view.base, view, weighted, None, FAST_UD, None,
            FrameworkConfig(coarsest_max=60, q_dt=200, seed=3))
        self.assert_same_model(model, want)
        assert len(report.levels) > 1
        assert [r.level for r in report.levels] == \
            [r.level for r in want_report.levels]

    def test_unknown_method_rejected(self, view):
        with pytest.raises(ValueError, match="unknown method 'lssvm'"):
            train_method(view, "lssvm", 0)
