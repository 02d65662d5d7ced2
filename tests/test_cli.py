import numpy as np
import pytest

from mlsvm.cli import _config, build_parser, main
from mlsvm.data import (Dataset, binary_view, inject_missing, load_dataset,
                        take_rows, write_dataset)
from mlsvm.evaluation import default_positive_class, run_cv
from mlsvm.imputation import RemConfig, fit_imputer
from mlsvm.knn import KnnConfig
from mlsvm.metrics import ConfusionMatrix, stratified_folds
from mlsvm.multilevel import FrameworkConfig
from mlsvm.rng import child_seed
from mlsvm.svm import SolverConfig, fit_pipeline
from mlsvm.synth import make_separable_blobs
from mlsvm.ud import UdConfig, ud_search

CONFIGS = (RemConfig, UdConfig, SolverConfig, KnnConfig, FrameworkConfig)
MODEL = ("mlsvm-model v1\nkernel rbf\ngamma 0.5\nc_plus 1\nc_minus 1\nbias 0\n"
         "n_features 3\nn_sv 1\nsv 1 0.5 0 0 0\n")
PIPELINE = MODEL.replace("v1", "v2") + (
    "norm_mean 0 0 0\nnorm_std 1 1 1\nnorm_constant 0 0 0\n"
    "imputer mean\nimputer_mean 0 0 0\n")
FLAGS = [   # config flag, its text, the config it sets, the field, the value
    ("--c-range", "0.1,10", UdConfig, "c_range", (0.1, 10.0)),
    ("--gamma-range", "0.01,2", UdConfig, "gamma_range", (0.01, 2.0)),
    ("--ud-folds", "3", UdConfig, "internal_cv_folds", 3),
    ("--Q", "0.4", FrameworkConfig, "q", 0.4),
    ("--Qdt", "800", FrameworkConfig, "q_dt", 800),
    ("--coarsest-max", "300", FrameworkConfig, "coarsest_max", 300),
    ("--neighbor-expansion", "2", FrameworkConfig, "neighbor_expansion", 2),
    ("--p-fraction", "0.3", FrameworkConfig, "p_fraction", 0.3),
    ("--seed", "7", FrameworkConfig, "seed", 7),
    ("--k", "4", KnnConfig, "k", 4),
    ("--knn-mode", "exact", KnnConfig, "mode", "exact"),
    ("--kkt-tol", "0.01", SolverConfig, "kkt_tolerance", 0.01),
    ("--cache-mb", "8", SolverConfig, "cache_bytes", 8 * 1024 * 1024),
    ("--max-iters", "7", RemConfig, "max_iters", 7),
    ("--stagnation-tol", "0.001", RemConfig, "stagnation_tol", 0.001),
    ("--regularization", "0.5", RemConfig, "regularization", 0.5),
    ("--regularization", "auto", RemConfig, "regularization", None),
]


@pytest.fixture()
def clean_csv(tmp_path):
    ds = make_separable_blobs(n=160, d=3, separation=8.0, seed=0)
    p = tmp_path / "clean.csv"
    write_dataset(ds, p)
    return str(p)


@pytest.fixture()
def noisy_csv(tmp_path):
    ds = inject_missing(make_separable_blobs(n=160, d=3, separation=8.0, seed=0),
                        0.1, seed=1)
    p = tmp_path / "noisy.csv"
    write_dataset(ds, p)
    return str(p)


class TestImpute:
    def test_rem_output_complete(self, noisy_csv, tmp_path):
        out = str(tmp_path / "full.csv")
        rc = main(["impute", "--in", noisy_csv, "--out", out, "--method", "rem",
                   "--report", str(tmp_path / "rep.txt")])
        assert rc == 0
        with open(out) as fh:
            assert "?" not in fh.read()
        assert "iterations" in (tmp_path / "rep.txt").read_text()

    def test_mean_matches_library_oracle(self, noisy_csv, tmp_path):
        out = str(tmp_path / "full.csv")
        assert main(["impute", "--in", noisy_csv, "--out", out,
                     "--method", "mean"]) == 0
        got = load_dataset(out)
        _, expected = fit_imputer("mean", load_dataset(noisy_csv))
        assert np.allclose(got.features, expected.features)

    def test_imputer_flag_is_usage_error(self, noisy_csv, tmp_path, capsys):
        out = tmp_path / "full.csv"
        rc = main(["impute", "--in", noisy_csv, "--out", str(out),
                   "--imputer", "mean"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_path_exits_1_no_partial_output(self, tmp_path):
        out = tmp_path / "never.csv"
        rc = main(["impute", "--in", str(tmp_path / "absent.csv"),
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt, text, where", [
        ("delimited", "1,2,1\nnan,3,2\n1,?,1\n", "line 2 column 1"),
        ("delimited", "1,2,1\n4,3,2\n1,-inf,1\n", "line 3 column 2"),
        ("delimited", "1,2,1\n4,3,inf\n", "line 2 column 3"),
        ("delimited", "1,2,nan\n4,3,2\n", "line 1 column 3"),
        ("sparse", "1 1:2 2:1\n2 1:3 2:1e999\n", "line 2 index 2"),
        ("sparse", "1 1:2\nnan 1:3\n", "line 2 column 1"),
    ], ids=["nan-cell", "minus-inf-cell", "inf-label", "nan-label",
            "sparse-overflow-cell", "sparse-nan-label"])
    def test_non_finite_input_exits_1(self, fmt, text, where, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text(text)
        out = tmp_path / "out.txt"
        rc = main(["impute", "--in", str(src), "--out", str(out),
                   "--format", fmt, "--method", "mean"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(src) in err and where in err and "non-finite" in err
        assert not out.exists() or "nan" not in out.read_text()

    def test_fractional_label_exits_1_no_output(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1,1\n2,1.9\n3,2\n4,2.5\n")
        out = tmp_path / "out.csv"
        rc = main(["impute", "--in", str(src), "--out", str(out),
                   "--method", "mean"])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(src) in err and "line 2 column 2" in err
        assert "non-integral" in err
        assert not out.exists()

    @pytest.mark.parametrize("first, where", [
        ("1,,1", "line 1 column 2 has unparseable value ''"),
        ("1.5.2,2,1", "line 1 column 1 has unparseable value '1.5.2'"),
    ], ids=["empty-field", "typo"])
    def test_malformed_first_row_exits_1(self, first, where, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(first + "\n3,4,2\n5,6,1\n7,8,2\n")
        out = tmp_path / "out.csv"
        rc = main(["impute", "--in", str(src), "--out", str(out),
                   "--method", "mean"])
        assert rc == 1
        assert "error: %s: %s" % (src, where) in capsys.readouterr().err
        assert not out.exists()

    def test_named_label_column(self, tmp_path):
        src = tmp_path / "named.csv"
        src.write_text("a,target,b\n1,2,?\n3,1,5\n5,2,7\n")
        out = tmp_path / "out.csv"
        assert main(["impute", "--in", str(src), "--out", str(out),
                     "--method", "mean", "--label-column", "target"]) == 0
        assert out.read_text() == "a,b,label\n1,6,2\n3,5,1\n5,7,2\n"

    def test_rem_report_lists_ridge_counts_in_grid_order(self, noisy_csv,
                                                         tmp_path):
        rep = tmp_path / "rep.txt"
        assert main(["impute", "--in", noisy_csv, "--out",
                     str(tmp_path / "full.csv"), "--report", str(rep)]) == 0
        lines = [ln.split() for ln in rep.read_text().splitlines()]
        ridge = [ln[1:] for ln in lines if ln[0] == "ridge_counts"]
        assert len(ridge) == 1
        pairs = [kv.split(":") for kv in ridge[0]]
        assert [float(g) for g, _ in pairs] == [1e-8, 1e-4, 1e-2, 1e-1, 1.0]
        ds = load_dataset(noisy_csv)
        patterns = np.unique(ds.missing[ds.missing.any(axis=1)], axis=0)
        assert sum(int(c) for _, c in pairs) == len(patterns)


class TestTrain:
    def test_train_then_predict_training_data(self, clean_csv, tmp_path):
        model = str(tmp_path / "m.model")
        preds = str(tmp_path / "p.txt")
        assert main(["train", "--in", clean_csv, "--model", model,
                     "--method", "svm", "--ud-folds", "3", "--seed", "1",
                     "--positive-class", "1"]) == 0
        assert main(["predict", "--model", model, "--in", clean_csv,
                     "--out", preds]) == 0
        ds = load_dataset(clean_csv)
        want = np.where(ds.labels == 1, 1, -1)
        with open(preds) as fh:
            got = np.array([int(ln.split()[0]) for ln in fh])
        assert (got == want).mean() >= 0.99

    def test_multilevel_report_lists_levels(self, tmp_path):
        ds = make_separable_blobs(n=900, d=3, separation=8.0, seed=2)
        data = str(tmp_path / "big.csv")
        write_dataset(ds, data)
        report = tmp_path / "report.txt"
        rc = main(["train", "--in", data, "--model", str(tmp_path / "m.model"),
                   "--method", "mlsvm", "--coarsest-max", "80", "--Qdt", "300",
                   "--ud-folds", "3", "--seed", "0", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert len(lines) >= 3    # header plus at least two levels
        assert lines[0].split("\t")[3:8] == ["mode", "train_rows", "n_sv",
                                             "n_clusters", "n_pairs"]
        rows = [ln.split("\t") for ln in lines[1:] if not ln.startswith("#")]
        levels = [int(cells[0]) for cells in rows]
        assert levels == list(range(len(levels) - 1, -1, -1))
        assert [cells[3] for cells in rows][0] == "coarsest"
        assert {cells[3] for cells in rows[1:]} <= {"direct", "cluster"}
        assert all(int(cells[4]) >= int(cells[5]) for cells in rows)

    def test_flat_report_lists_search_trace(self, clean_csv, tmp_path):
        report = tmp_path / "report.txt"
        rc = main(["train", "--in", clean_csv, "--model", str(tmp_path / "m.model"),
                   "--method", "wsvm", "--ud-folds", "3", "--seed", "4",
                   "--report", str(report)])
        assert rc == 0
        _, ds = fit_pipeline(load_dataset(clean_csv))   # the rows train fits on
        outcome = ud_search(binary_view(ds, default_positive_class(ds)),
                            np.arange(ds.n_rows), True,
                            UdConfig(internal_cv_folds=3), SolverConfig(), seed=4)
        lines = report.read_text().splitlines()
        assert len(lines) == len(outcome.trace) == 13
        for ln, (c, gamma, score, folds) in zip(lines, outcome.trace):
            got_c, got_gamma, got_score, got_folds = ln.split("\t")
            assert (float(got_c), float(got_gamma)) == (c, gamma)
            assert abs(float(got_score) - score) <= 5e-7
            assert int(got_folds) == folds

    def test_same_seed_byte_identical_models(self, clean_csv, tmp_path):
        m1 = str(tmp_path / "m1.model")
        m2 = str(tmp_path / "m2.model")
        args = ["train", "--in", clean_csv, "--method", "wsvm",
                "--ud-folds", "3", "--seed", "9"]
        assert main(args + ["--model", m1]) == 0
        assert main(args + ["--model", m2]) == 0
        with open(m1) as f1, open(m2) as f2:
            assert f1.read() == f2.read()

    def test_fixed_hyperparameters_skip_search(self, clean_csv, tmp_path):
        model = str(tmp_path / "m.model")
        rc = main(["train", "--in", clean_csv, "--model", model,
                   "--method", "svm", "--C", "5.0", "--gamma", "0.3"])
        assert rc == 0
        with open(model) as fh:
            gamma_line = [ln for ln in fh if ln.startswith("gamma")][0]
        assert float(gamma_line.split()[1]) == 0.3

    def test_fixed_hyperparameters_refuse_report(self, clean_csv, tmp_path, capsys):
        model, report = tmp_path / "m.model", tmp_path / "r.txt"
        rc = main(["train", "--in", clean_csv, "--model", str(model),
                   "--method", "svm", "--C", "5", "--gamma", "0.3",
                   "--report", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--report" in err
        assert not model.exists() and not report.exists()

    def test_fixed_hyperparameters_rejected_for_multilevel(self, clean_csv, tmp_path):
        rc = main(["train", "--in", clean_csv, "--model",
                   str(tmp_path / "m.model"), "--method", "mlsvm",
                   "--C", "5.0", "--gamma", "0.3"])
        assert rc == 1

    @pytest.mark.parametrize("given, missing", [
        (["--C", "5.0"], "--gamma"),
        (["--gamma", "0.3"], "--C"),
        (["--C", "5.0", "--method", "mlsvm"], "--gamma"),
    ], ids=["C-alone", "gamma-alone", "C-alone-multilevel"])
    def test_fixed_hyperparameters_need_both(self, given, missing, clean_csv,
                                             tmp_path, capsys):
        model = tmp_path / "m.model"
        rc = main(["train", "--in", clean_csv, "--model", str(model),
                   "--method", "svm", "--ud-folds", "3"] + given)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "%s is missing" % missing in err
        assert not model.exists()

    @pytest.mark.parametrize("command, extra", [
        ("evaluate", ["--method", "svm"]),
        ("benchmark", ["--methods", "svm", "--ratios", "0"]),
    ], ids=["evaluate", "benchmark"])
    @pytest.mark.parametrize("flag", ["--C", "--gamma"])
    def test_fixed_hyperparameters_are_train_only(self, command, extra, flag,
                                                  clean_csv, tmp_path, capsys):
        out = tmp_path / "out.txt"
        rc = main([command, "--in", clean_csv, "--imputer", "none", "--folds",
                   "2", "--ud-folds", "2", "--out", str(out), flag, "0.5"] + extra)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err
        assert not out.exists()


class TestPredict:
    @pytest.mark.parametrize("text, where", [
        ("mlsvm-ensemble v1\n", "not an mlsvm-model v1 file"),
        ("mlsvm-model v1\nkernel rbf\ngamma 0.5\nc_plus 1\nc_minus 1\n"
         "bias 0\nn_sv 0\n", "lacks n_features"),
        (MODEL.replace("sv 1 0.5 0 0 0", "sv 1"), "line 9: sv needs"),
        ("mlsvm-ensemble v1\nn_features 3\nn_centroids 2\n"
         "centroid 1 0 0 0\ncentroid -1 1 1 1\nn_models 1\npair 0 0\n" + MODEL
         + "end-model\n", "not an mlsvm-model v1 file"),
        (MODEL.replace("bias 0", "bias nan"), "line 6: bias"),
        (MODEL.replace("bias 0", "bias"), "line 6: bias"),
        (MODEL.replace("gamma 0.5", "gamma inf"), "line 3: gamma"),
        (MODEL.replace("c_plus 1", "c_plus nan"), "line 4: c_plus"),
        (MODEL.replace("c_minus 1", "c_minus -inf"), "line 5: c_minus"),
        (MODEL.replace("sv 1 0.5", "sv 1 nan"), "line 9: sv alpha"),
        (MODEL.replace("sv 1 0.5 0 0 0", "sv 1 0.5 0 inf 0"),
         "line 9: sv feature has invalid value 'inf'"),
        (MODEL.replace("sv 1 0.5", "sv 7 0.5"), "line 9: sv label"),
        (MODEL.replace("sv 1 0.5 0 0 0", "sv 1 0.5 0 0"), "line 9: sv needs"),
        (MODEL.replace("n_features 3", "n_features 2").replace(
            "sv 1 0.5 0 0 0", "sv 1 0.5 0 0"), "{data} has 3 features but model"),
        (PIPELINE.replace("n_features 3", "n_features 2").replace(
            " 0 0 0\n", " 0 0\n").replace(" 1 1 1\n", " 1 1\n"),
         "{data} has 3 features but model"),
        (PIPELINE.replace("norm_mean 0 0 0", "norm_mean 0 0"),
         "line 10: norm_mean needs 3 values"),
        (PIPELINE.replace("norm_mean 0 0 0", "norm_mean 0 nan 0"),
         "line 10: norm_mean has invalid value 'nan'"),
        (PIPELINE.replace("norm_std 1 1 1", "norm_std 1 0 1"),
         "norm_std must be positive"),
        (PIPELINE.replace("norm_constant 0 0 0", "norm_constant 0 2 0"),
         "norm_constant 0 or 1"),
        (PIPELINE.replace("imputer mean", "imputer knn"),
         "imputer 'knn' is not rem, mean or none"),
        (PIPELINE.replace("imputer_mean 0 0 0\n", ""), "lacks imputer_mean"),
        (PIPELINE.replace("imputer mean\nimputer_mean 0 0 0",
                          "imputer rem\nrem_n 9\nrem_mean 0 0 0\n"
                          "rem_regularization auto"), "lacks rem_scatter"),
    ], ids=["ensemble-header-only", "no-n-features", "short-sv-line",
            "ensemble-file", "nan-bias", "bias-without-value", "inf-gamma",
            "nan-c-plus", "minus-inf-c-minus", "nan-alpha", "inf-sv-feature",
            "sv-label-7", "sv-line-one-feature-short", "data-model-feature-count",
            "v2-data-model-feature-count", "v2-short-norm-mean",
            "v2-nan-norm-mean", "v2-zero-std", "v2-constant-flag-2",
            "v2-unknown-imputer", "v2-no-imputer-mean", "v2-no-rem-scatter"])
    def test_malformed_model_file_exits_1(self, text, where, clean_csv,
                                          tmp_path, capsys):
        model = tmp_path / "bad.model"
        model.write_text(text)
        out = tmp_path / "p.txt"
        rc = main(["predict", "--model", str(model), "--in", clean_csv,
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model) in err
        assert where.format(data=clean_csv) in err
        assert not out.exists() or "nan" not in out.read_text()


def scaled_incomplete(n=400, seed=0):
    """?-celled rows on feature scales 0.02 to 200, 15% of them class 1."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.15, 1, 2)
    x = rng.standard_normal((n, 4)) + np.where(y[:, None] == 1, 1.0, -0.2)
    mask = rng.random(x.shape) < 0.1
    mask[mask.all(axis=1), 0] = False
    return Dataset(x * [0.02, 1.0, 20.0, 200.0], mask, y,
                   tuple(dict.fromkeys(y.tolist())))


class TestPipeline:
    @pytest.mark.parametrize("method", ["wsvm", "mlwsvm"])
    def test_train_then_predict_matches_run_cv(self, method, tmp_path):
        data, seed = scaled_incomplete(), 5
        report = run_cv(data, 1, method, folds=2, seed=seed,
                        ud_config=UdConfig(internal_cv_folds=3),
                        fw_config=FrameworkConfig(coarsest_max=60, q_dt=150))
        assign = stratified_folds(np.where(data.labels == 1, 1, -1), 2, seed)
        model, preds = str(tmp_path / "m.model"), str(tmp_path / "p.txt")
        for f, fold in enumerate(report.folds):
            train, test = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
            write_dataset(take_rows(data, np.flatnonzero(assign != f)), train)
            write_dataset(take_rows(data, np.flatnonzero(assign == f)), test)
            assert main(["train", "--in", train, "--model", model,
                         "--method", method, "--positive-class", "1",
                         "--seed", str(child_seed(seed, "fold", f)),
                         "--ud-folds", "3", "--coarsest-max", "60",
                         "--Qdt", "150"]) == 0
            assert main(["predict", "--in", test, "--model", model,
                         "--out", preds]) == 0
            got = np.loadtxt(preds)[:, 0]
            want = np.where(load_dataset(test).labels == 1, 1, -1)
            assert ConfusionMatrix.from_predictions(want, got) == fold.cm, f


class TestEvaluate:
    def test_evaluate_writes_report(self, clean_csv, tmp_path):
        out = tmp_path / "eval.txt"
        rc = main(["evaluate", "--in", clean_csv, "--method", "svm",
                   "--imputer", "none", "--folds", "3", "--ud-folds", "3",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("fold")

    def test_all_classes_table(self, clean_csv, tmp_path, capsys):
        rc = main(["evaluate", "--in", clean_csv, "--method", "svm",
                   "--imputer", "none", "--folds", "3", "--ud-folds", "3",
                   "--all-classes"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("class")
        assert len(out.strip().splitlines()) == 3

    def test_all_classes_excludes_positive_class(self, clean_csv, tmp_path,
                                                 capsys):
        out = tmp_path / "eval.txt"
        rc = main(["evaluate", "--in", clean_csv, "--method", "svm",
                   "--imputer", "none", "--folds", "2", "--ud-folds", "2",
                   "--all-classes", "--positive-class", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "not allowed with" in err
        assert not out.exists()


class TestBenchmark:
    def test_header_and_rows(self, noisy_csv, tmp_path, capsys):
        rc = main(["benchmark", "--in", noisy_csv, "--ratios", "0.05,0.10",
                   "--methods", "svm", "--imputer", "mean", "--folds", "2",
                   "--ud-folds", "3", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[:3] == ["dataset", "r_mv", "method"]
        assert len(lines) == 3

    def test_method_filter(self, clean_csv, capsys):
        rc = main(["benchmark", "--in", clean_csv, "--ratios", "0",
                   "--methods", "svm,wsvm", "--imputer", "none", "--folds", "2",
                   "--ud-folds", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        methods = [ln.split("\t")[2] for ln in out.strip().splitlines()[1:]]
        assert methods == ["svm", "wsvm"]

    def test_small_fold_warning_still_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(size=(3, 2)) + 6, rng.normal(size=(27, 2)) - 6])
        from mlsvm.data import Dataset
        ds = Dataset(x, np.zeros_like(x, dtype=bool),
                     np.array([1] * 3 + [2] * 27), (1, 2))
        p = tmp_path / "tiny.csv"
        write_dataset(ds, p)
        with pytest.warns(UserWarning):
            rc = main(["benchmark", "--in", str(p), "--ratios", "0",
                       "--methods", "svm", "--imputer", "none", "--folds", "4",
                       "--ud-folds", "2"])
        assert rc == 0


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, clean_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=svm\nud-folds=3\nseed=3\n")
        m1 = str(tmp_path / "m1.model")
        m2 = str(tmp_path / "m2.model")
        assert main(["train", "--in", clean_csv, "--model", m1,
                     "--config", str(cfg)]) == 0
        assert main(["train", "--in", clean_csv, "--model", m2,
                     "--config", str(cfg), "--seed", "4"]) == 0
        ds = load_dataset(clean_csv)   # both models valid; seeds differ
        for m in (m1, m2):
            with open(m) as fh:
                assert fh.read().startswith("mlsvm-model")

    def test_malformed_config_is_usage_error(self, clean_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        rc = main(["train", "--in", clean_csv, "--model",
                   str(tmp_path / "m.model"), "--config", str(cfg)])
        assert rc == 1

    def test_config_line_naming_another_config_is_usage_error(
            self, clean_csv, tmp_path, capsys):
        cfg = tmp_path / "nested.cfg"
        cfg.write_text("config = other.cfg\n")
        rc = main(["train", "--in", clean_csv, "--model",
                   str(tmp_path / "m.model"), "--config", str(cfg)])
        assert rc == 1
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists()

    def test_config_without_path_is_usage_error(self, capsys):
        assert main(["train", "--config"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", [
        ["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
        ids=["separate", "equals", "abbreviated"])
    def test_every_config_spelling_reads_the_file(self, spelling, clean_csv,
                                                  tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = nosuchmethod\n")
        model = tmp_path / "m.model"
        rc = main(["train", "--in", clean_csv, "--model", str(model)]
                  + [tok.format(cfg) for tok in spelling])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not model.exists()


    @pytest.mark.parametrize("spelling", [["--c", "1,10"], ["--co", "x"]],
                             ids=["c", "co"])
    def test_prefix_of_another_flag_is_not_config(self, spelling, clean_csv,
                                                  tmp_path, capsys):
        model = tmp_path / "m.model"
        rc = main(["train", "--in", clean_csv, "--model", str(model)] + spelling)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "unrecognized arguments: %s" % " ".join(spelling) in err
        assert not model.exists()


class TestConfigFlags:
    @pytest.mark.parametrize("flag, text, cls, field, value", FLAGS,
                             ids=["%s=%s" % row[:2] for row in FLAGS])
    def test_flag_sets_config_field(self, flag, text, cls, field, value):
        args = build_parser().parse_args(
            ["train", "--in", "d.csv", "--model", "m.model", flag, text])
        for other in CONFIGS:
            want = other(**{field: value}) if other is cls else other()
            assert _config(other, args) == want, other

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "--method", "svm", "--folds", "2", "--gamma", "0.1,1"],
         "--gamma"),
        (["benchmark", "--methods", "svm", "--ratios", "0", "--folds", "2",
          "--gamma", "0.1,1"], "--gamma"),
        (["train", "--method", "svm", "--coarsest", "300"], "--coarsest"),
    ], ids=["evaluate-gamma", "benchmark-gamma", "train-coarsest"])
    def test_abbreviated_flag_is_usage_error(self, argv, flag, clean_csv,
                                             tmp_path, capsys):
        out = tmp_path / "out.txt"
        rc = main(argv + ["--in", clean_csv, "--imputer", "none", "--ud-folds", "2",
                          "--model" if argv[0] == "train" else "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "unrecognized arguments: %s" % flag in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, text, field", [
        ("--neighbor-expansion", "-2", "neighbor_expansion"),
        ("--cache-mb", "-5", "cache_bytes"),
    ])
    def test_negative_count_is_rejected(self, flag, text, field, clean_csv,
                                        tmp_path, capsys):
        model = tmp_path / "m.model"
        rc = main(["train", "--in", clean_csv, "--model", str(model),
                   "--method", "mlsvm", flag, text])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not model.exists()

    @pytest.mark.parametrize("text", ["1", "1,2,3"])
    def test_c_range_needs_two_values(self, text, clean_csv, tmp_path, capsys):
        model = tmp_path / "m.model"
        rc = main(["train", "--in", clean_csv, "--model", str(model),
                   "--method", "svm", "--c-range", text])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not model.exists()


class TestSolverFlags:
    def test_removed_solver_flag_is_usage_error(self, clean_csv, tmp_path,
                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("final = ensemble\n")
        train = ["train", "--in", clean_csv, "--model", str(tmp_path / "m.model")]
        for argv in (train + ["--no-shrinking"], train + ["--workers", "2"],
                     train + ["--error-norm", "1"], train + ["--final", "retrain"],
                     train + ["--config", str(cfg)],
                     ["impute", "--in", clean_csv, "--out",
                      str(tmp_path / "full.csv"), "--seed", "1"],
                     ["predict", "--in", clean_csv, "--model",
                      str(tmp_path / "m.model"), "--out",
                      str(tmp_path / "p.txt"), "--seed", "1"],
                     ["evaluate", "--in", clean_csv, "--imputer", "none",
                      "--normalize-scope", "fold"],
                     ["benchmark", "--in", clean_csv, "--imputer", "none",
                      "--normalize-scope", "global"]):
            assert main(argv) == 1, argv
            assert "usage error" in capsys.readouterr().err

    def test_removed_imputer_cv_folds_is_usage_error(self, noisy_csv, tmp_path,
                                                     capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cv_folds = 5\n")
        for argv in (["impute", "--in", noisy_csv, "--out",
                      str(tmp_path / "full.csv"), "--cv-folds", "5"],
                     ["train", "--in", noisy_csv, "--model",
                      str(tmp_path / "m.model"), "--cv-folds", "5"],
                     ["impute", "--in", noisy_csv, "--out",
                      str(tmp_path / "full.csv"), "--config", str(cfg)]):
            assert main(argv) == 1, argv
            assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "full.csv").exists()
        assert not (tmp_path / "m.model").exists()


def robustness_inputs(folder):
    """Input files, by name, for the robustness table."""
    ds = make_separable_blobs(n=60, d=3, seed=4)
    rows = [x + [lab] for x, lab in zip(ds.features.tolist(), ds.labels.tolist())]
    tables = {
        "clean": rows,
        "all-missing-column": [r[:1] + ["?"] + r[2:] for r in rows],
        "single-class": [r[:3] + [1] for r in rows],
        "constant-column": [r[:2] + [5.0, r[3]] for r in rows],
        "duplicate-rows": rows + rows,
        "two-row-minority": ([r for r in rows if r[3] == -1]
                             + [r for r in rows if r[3] == 1][:2]),
        "missing-cells": [["?" if (i + j) % 7 == 0 else v for j, v in
                           enumerate(r[:3])] + r[3:] for i, r in enumerate(rows)],
    }
    paths = {}
    for name, table in tables.items():
        paths[name] = folder / (name + ".csv")
        paths[name].write_text("".join(",".join(map(str, r)) + "\n" for r in table))
    paths["v1"] = folder / "v1.model"
    paths["v1"].write_text(MODEL)
    return paths


TRAIN = ["train", "--model", "{out}/m.model", "--ud-folds", "2", "--in"]
PREDICT = ["predict", "--model", "{out}/m.model", "--out", "{out}/p.txt", "--in"]
ROBUSTNESS = [   # id, commands in order, last command's exit code (None: 0 or 1)
    ("all-missing-column", [TRAIN + ["{all-missing-column}"],
                            PREDICT + ["{all-missing-column}"]], None),
    ("single-class", [TRAIN + ["{single-class}"]], 1),
    ("single-class-flat", [TRAIN + ["{single-class}", "--method", "wsvm"]], 1),
    ("constant-column", [TRAIN + ["{constant-column}", "--method", "mlwsvm"],
                         PREDICT + ["{constant-column}"]], None),
    ("duplicate-rows", [TRAIN + ["{duplicate-rows}", "--method", "mlwsvm",
                                 "--coarsest-max", "30"],
                        PREDICT + ["{duplicate-rows}"]], None),
    ("two-row-minority", [TRAIN + ["{two-row-minority}", "--method", "mlwsvm"],
                          PREDICT + ["{two-row-minority}"]], None),
    ("k-100", [TRAIN + ["{clean}", "--method", "mlwsvm", "--k", "100",
                        "--coarsest-max", "20"], PREDICT + ["{clean}"]], None),
    ("evaluate-two-row-minority-3-folds",
     [["evaluate", "--in", "{two-row-minority}", "--method", "wsvm", "--folds",
       "3", "--ud-folds", "2", "--out", "{out}/e.txt"]], None),
    ("predict-missing-no-imputer", [TRAIN + ["{clean}", "--imputer", "none"],
                                    PREDICT + ["{missing-cells}"]], 1),
    ("train-missing-no-imputer",
     [TRAIN + ["{missing-cells}", "--imputer", "none"]], 1),
    ("predict-missing-v1-model",
     [PREDICT[:2] + ["{v1}"] + PREDICT[3:] + ["{missing-cells}"]], 1),
]


class TestRobustness:
    @pytest.mark.parametrize("commands, last_rc", [c[1:] for c in ROBUSTNESS],
                             ids=[c[0] for c in ROBUSTNESS])
    def test_exit_code_and_no_nan(self, commands, last_rc, tmp_path, capsys):
        (tmp_path / "in").mkdir()
        (tmp_path / "out").mkdir()
        paths = {k: str(v) for k, v in robustness_inputs(tmp_path / "in").items()}
        paths["out"] = str(tmp_path / "out")
        for argv in commands:
            capsys.readouterr()
            rc = main([tok.format(**paths) for tok in argv])
            assert rc in (0, 1), argv
        if last_rc is not None:
            assert rc == last_rc
            infile = argv[argv.index("--in") + 1].format(**paths)
            assert "error: %s: " % infile in capsys.readouterr().err
        for out in (tmp_path / "out").iterdir():
            assert "nan" not in out.read_text().lower(), out.name


BAD_VALUES = [   # id, command, what the error names
    ("C-inf", TRAIN + ["{clean}", "--method", "svm", "--C", "inf", "--gamma", "1"],
     "c_plus=inf"),
    ("gamma-inf", TRAIN + ["{clean}", "--method", "svm", "--C", "1", "--gamma", "inf"],
     "gamma must be positive and finite, got inf"),
    ("gamma-nan", TRAIN + ["{clean}", "--method", "wsvm", "--C", "1", "--gamma", "nan"],
     "gamma must be positive and finite, got nan"),
    ("kkt-tol-inf", TRAIN + ["{clean}", "--method", "svm", "--kkt-tol", "inf"],
     "kkt_tolerance must be positive and finite, got inf"),
    ("c-range-inf", TRAIN + ["{clean}", "--method", "svm", "--c-range", "1,inf"],
     "c_range must be positive, finite and ordered, got (1.0, inf)"),
    ("gamma-range-nan", TRAIN + ["{clean}", "--method", "mlwsvm", "--gamma-range",
                                 "nan,1"], "gamma_range must be positive"),
    ("evaluate-folds-past-rows",
     ["evaluate", "--in", "{clean}", "--method", "svm", "--folds", "61",
      "--out", "{out}/e.txt"], "61 folds for 60 rows"),
]


class TestBadValues:
    @pytest.mark.parametrize("argv, names", [c[1:] for c in BAD_VALUES],
                             ids=[c[0] for c in BAD_VALUES])
    def test_exits_1_naming_the_value_and_writes_nothing(self, argv, names,
                                                         tmp_path, capsys):
        (tmp_path / "in").mkdir()
        (tmp_path / "out").mkdir()
        paths = {k: str(v) for k, v in robustness_inputs(tmp_path / "in").items()}
        paths["out"] = str(tmp_path / "out")
        assert main([tok.format(**paths) for tok in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err, err
        assert list((tmp_path / "out").iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize("sub,flags", [
        ("train", ["--method", "--Q", "--Qdt", "--coarsest-max", "--k",
                    "--seed"]),
        ("impute", ["--method", "--max-iters", "--stagnation-tol"]),
        ("evaluate", ["--folds", "--imputer"]),
        ("benchmark", ["--ratios", "--methods"]),
        ("predict", ["--model", "--out"]),
    ])
    def test_subcommand_help_documents_flags(self, sub, flags, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text

    def test_unknown_flag_exit_code_1(self, clean_csv):
        assert main(["train", "--in", clean_csv, "--nope"]) == 1
