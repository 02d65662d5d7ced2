import numpy as np
import pytest

from mlsvm.cli import _solver_config, build_parser, main
from mlsvm.data import inject_missing, load_dataset, write_dataset
from mlsvm.imputation import mean_impute
from mlsvm.svm import SolverConfig
from mlsvm.synth import make_separable_blobs


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
        expected = mean_impute(load_dataset(noisy_csv))
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

    def test_fixed_hyperparameters_rejected_for_multilevel(self, clean_csv, tmp_path):
        rc = main(["train", "--in", clean_csv, "--model",
                   str(tmp_path / "m.model"), "--method", "mlsvm",
                   "--C", "5.0", "--gamma", "0.3"])
        assert rc == 1


class TestPredict:
    @pytest.mark.parametrize("text", [
        "mlsvm-ensemble v1\n",
        "mlsvm-model v1\nkernel rbf\ngamma 0.5\nc_plus 1\nc_minus 1\n"
        "bias 0\nn_sv 0\n",
        "mlsvm-model v1\nkernel rbf\ngamma 0.5\nc_plus 1\nc_minus 1\n"
        "bias 0\nn_features 3\nn_sv 1\nsv 1\n",
        "mlsvm-ensemble v1\nn_features 3\nn_centroids 2\n"
        "centroid 1 0 0 0\ncentroid -1 1 1 1\nn_models 1\npair 0 0\n"
        "mlsvm-model v1\nkernel rbf\ngamma 0.5\nc_plus 1\nc_minus 1\n"
        "bias 0\nn_features 3\nn_sv 1\nsv 1 0.5 0 0 0\nend-model\n",
    ], ids=["ensemble-header-only", "no-n-features", "short-sv-line",
            "ensemble-file"])
    def test_malformed_model_file_exits_1(self, text, clean_csv, tmp_path,
                                          capsys):
        model = tmp_path / "bad.model"
        model.write_text(text)
        rc = main(["predict", "--model", str(model), "--in", clean_csv,
                   "--out", str(tmp_path / "p.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(model) in err


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

    def test_config_without_path_is_usage_error(self, capsys):
        assert main(["train", "--config"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestSolverFlags:
    def test_flags_set_solver_config(self):
        args = build_parser().parse_args(
            ["train", "--in", "d.csv", "--model", "m.model",
             "--kkt-tol", "0.01", "--cache-mb", "8"])
        assert _solver_config(args) == SolverConfig(kkt_tolerance=0.01,
                                                    cache_bytes=8 * 1024 * 1024)

    def test_removed_solver_flag_is_usage_error(self, clean_csv, tmp_path,
                                                capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("final = ensemble\n")
        for removed in (["--no-shrinking"], ["--workers", "2"],
                        ["--error-norm", "1"], ["--final", "retrain"],
                        ["--config", str(cfg)]):
            rc = main(["train", "--in", clean_csv, "--model",
                       str(tmp_path / "m.model")] + removed)
            assert rc == 1, removed
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


class TestHelp:
    @pytest.mark.parametrize("sub,flags", [
        ("train", ["--method", "--Q", "--Qdt", "--coarsest-max", "--k",
                    "--seed"]),
        ("impute", ["--method", "--max-iters", "--stagnation-tol"]),
        ("evaluate", ["--folds", "--imputer", "--normalize-scope"]),
        ("benchmark", ["--ratios", "--methods", "--include-impute-time"]),
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
