"""Command-line interface: impute, train, predict, evaluate, benchmark.

Flags may also come from a ``--config`` file of ``key=value`` lines (keys are
the long flag names); explicit flags override config values. Exit codes:
0 success, 1 user or data error, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from mlsvm.data import (DataFormatError, binary_view, load_dataset,
                        write_dataset)
from mlsvm.evaluation import (METHODS, BenchmarkPlan, default_positive_class,
                              format_one_vs_all_table, one_against_all,
                              run_benchmark, run_cv)
from mlsvm.imputation import IMPUTERS, RemConfig, fit_imputer
from mlsvm.knn import KnnConfig
from mlsvm.multilevel import FrameworkConfig, train_multilevel
from mlsvm.svm import (KernelParams, SolverConfig, class_weights, load_any_model,
                       predict, save_any_model, train_svm)
from mlsvm.ud import UdConfig, ud_search


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_io_flags(p):
    p.add_argument("--in", dest="infile", required=True, help="input dataset path")
    p.add_argument("--format", choices=("delimited", "sparse"), default="delimited")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--label-column", default="-1",
                   help="label column name or index (default: last)")
    p.add_argument("--missing-token", default="?")
    p.add_argument("--n-features", type=int, default=None,
                   help="feature count for sparse files (default: max index)")


def _add_method_flags(p):
    p.add_argument("--method", choices=METHODS, default="mlwsvm")
    p.add_argument("--C", dest="c_fixed", type=float, default=None,
                   help="fixed penalty (flat methods only; skips model selection)")
    p.add_argument("--gamma", type=float, default=None,
                   help="fixed RBF bandwidth (with --C skips model selection)")
    p.add_argument("--c-range", default=None, help="model-selection C range lo,hi")
    p.add_argument("--gamma-range", default=None, help="gamma range lo,hi")
    p.add_argument("--ud-folds", type=int, default=None,
                   help="internal CV folds for model selection")
    p.add_argument("--Q", dest="q", type=float, default=None,
                   help="per-class coarse-size ratio lower bound")
    p.add_argument("--Qdt", dest="q_dt", type=int, default=None,
                   help="direct-retrain threshold during refinement")
    p.add_argument("--coarsest-max", type=int, default=None,
                   help="combined size bound for the coarsest level")
    p.add_argument("--k", type=int, default=None, help="neighbors per point")
    p.add_argument("--knn-mode", choices=("auto", "exact", "approximate"),
                   default=None)
    p.add_argument("--neighbor-expansion", type=int, default=None)
    p.add_argument("--p-fraction", type=float, default=None,
                   help="fraction of opposite clusters each cluster pairs with")
    p.add_argument("--kkt-tol", type=float, default=None)
    p.add_argument("--cache-mb", type=int, default=None, help="kernel cache budget")


def _add_imputer_flags(p):
    p.add_argument("--imputer", choices=IMPUTERS, default="rem")
    _add_rem_flags(p)


def _add_rem_flags(p):
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--stagnation-tol", type=float, default=None)
    p.add_argument("--regularization", default=None,
                   help="'auto' (ridge strength chosen per missingness pattern "
                        "by generalized cross-validation) or a fixed "
                        "nonnegative value")


def build_parser() -> _Parser:
    parser = _Parser(prog="mlsvm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impute", help="fill missing values and write a complete file")
    _add_io_flags(p)
    _add_rem_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("rem", "mean"), default="rem")
    p.add_argument("--report", default=None, help="diagnostics output path")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("train", help="train a model and write it to a file")
    _add_io_flags(p)
    _add_method_flags(p)
    _add_imputer_flags(p)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--positive-class", type=int, default=None,
                   help="class mapped to +1 (default: smallest class)")
    p.add_argument("--report", default=None, help="per-level report path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label points with a saved model")
    _add_io_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="predictions output path")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="cross-validated evaluation of one method")
    _add_io_flags(p)
    _add_method_flags(p)
    _add_imputer_flags(p)
    p.add_argument("--positive-class", type=int, default=None)
    p.add_argument("--all-classes", action="store_true",
                   help="one-against-all over every class")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--normalize-scope", choices=("fold", "global"), default="fold")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="missing-ratio sweep over methods")
    _add_io_flags(p)
    _add_method_flags(p)
    _add_imputer_flags(p)
    p.add_argument("--ratios", default="0.05,0.10,0.20,0.40")
    p.add_argument("--methods", default="svm,wsvm,mlsvm,mlwsvm")
    p.add_argument("--positive-class", type=int, default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--normalize-scope", choices=("fold", "global"), default="fold")
    p.add_argument("--include-impute-time", action="store_true")
    p.add_argument("--name", default=None, help="dataset label in the table")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_benchmark)
    return parser


def _config_tokens(path: str) -> list[str]:
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise UsageError("%s: line %d is not key=value" % (path, no))
            key, value = (part.strip() for part in ln.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    tokens.append(flag)
            else:
                tokens.extend([flag, value])
    return tokens


def _load(args):
    label_column = args.label_column
    try:
        label_column = int(label_column)
    except (TypeError, ValueError):
        pass
    return load_dataset(args.infile, args.format, label_column=label_column,
                        missing_token=args.missing_token,
                        delimiter=args.delimiter, n_features=args.n_features)


def _rem_config(args) -> RemConfig:
    kwargs = {}
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    if args.stagnation_tol is not None:
        kwargs["stagnation_tol"] = args.stagnation_tol
    if args.regularization is not None and args.regularization != "auto":
        kwargs["regularization"] = float(args.regularization)
    return RemConfig(**kwargs)


def _parse_pair(text: str) -> tuple:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise UsageError("expected lo,hi but got %r" % text)
    return (parts[0], parts[1])


def _ud_config(args) -> UdConfig:
    kwargs = {}
    if args.c_range is not None:
        kwargs["c_range"] = _parse_pair(args.c_range)
    if args.gamma_range is not None:
        kwargs["gamma_range"] = _parse_pair(args.gamma_range)
    if args.ud_folds is not None:
        kwargs["internal_cv_folds"] = args.ud_folds
    return UdConfig(**kwargs)


def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if args.kkt_tol is not None:
        kwargs["kkt_tolerance"] = args.kkt_tol
    if args.cache_mb is not None:
        kwargs["cache_bytes"] = args.cache_mb * 1024 * 1024
    return SolverConfig(**kwargs)


def _knn_config(args) -> KnnConfig:
    kwargs = {}
    if args.k is not None:
        kwargs["k"] = args.k
    if args.knn_mode is not None:
        kwargs["mode"] = args.knn_mode
    return KnnConfig(**kwargs)


def _fw_config(args) -> FrameworkConfig:
    kwargs = {"seed": args.seed}
    if args.q is not None:
        kwargs["q"] = args.q
    if args.q_dt is not None:
        kwargs["q_dt"] = args.q_dt
    if args.coarsest_max is not None:
        kwargs["coarsest_max"] = args.coarsest_max
    if args.neighbor_expansion is not None:
        kwargs["neighbor_expansion"] = args.neighbor_expansion
    if args.p_fraction is not None:
        kwargs["p_fraction"] = args.p_fraction
    return FrameworkConfig(**kwargs)


def cmd_impute(args) -> int:
    data = _load(args)
    imp, completed = fit_imputer(args.method, data, _rem_config(args))
    diag = imp.diagnostics_ if args.method == "rem" else None
    write_dataset(completed, args.out, args.format, delimiter=args.delimiter,
                  missing_token=args.missing_token)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            if diag is not None:
                fh.write("iterations %d\n" % diag.iterations)
                fh.write("final_change %.17g\n" % diag.final_change)
                fh.write("ridge_counts %s\n" % " ".join(
                    "%g:%d" % kv for kv in diag.ridge_counts.items()))
                counts = " ".join(str(int(c)) for c in diag.missing_per_feature)
            else:
                fh.write("iterations 0\nfinal_change 0\n")
                counts = " ".join(str(int(c)) for c in data.missing.sum(axis=0))
            fh.write("missing_per_feature %s\n" % counts)
    return 0


def cmd_train(args) -> int:
    data = _load(args)
    if data.has_missing():
        data = fit_imputer(args.imputer, data, _rem_config(args))[1]
    positive = args.positive_class
    if positive is None:
        positive = default_positive_class(data)
    view = binary_view(data, positive)
    solver = _solver_config(args)
    rows = np.arange(data.n_rows)
    report_text = None
    if args.method in ("svm", "wsvm"):
        weighted = args.method == "wsvm"
        if args.c_fixed is not None and args.gamma is not None:
            weights = class_weights(args.c_fixed, weighted, view.y())
            model = train_svm(view, weights, KernelParams(args.gamma), solver, rows)
        else:
            outcome = ud_search(view, rows, weighted, _ud_config(args), solver,
                                seed=args.seed)
            model = train_svm(view, outcome.weights, KernelParams(outcome.gamma),
                              solver, rows)
            report_text = "".join("%.17g\t%.17g\t%.6f\n" % t for t in outcome.trace)
    else:
        if args.c_fixed is not None or args.gamma is not None:
            raise ValueError("--C/--gamma are only for flat methods; multilevel "
                             "training selects hyperparameters internally")
        weighted = args.method == "mlwsvm"
        model, report = train_multilevel(data, view, weighted, _knn_config(args),
                                         _ud_config(args), solver,
                                         _fw_config(args))
        report_text = report.format_table()
    save_any_model(model, args.model)
    if args.report and report_text is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_text)
    return 0


def cmd_predict(args) -> int:
    model = load_any_model(args.model)
    data = _load(args)
    if data.has_missing():
        raise ValueError("prediction input has missing cells; impute first")
    labels, margins = predict(model, data.features)
    with open(args.out, "w", encoding="utf-8") as fh:
        for lab, marg in zip(labels, margins):
            fh.write("%d %.17g\n" % (int(lab), marg))
    return 0


def _cv_kwargs(args):
    return dict(
        knn_config=_knn_config(args),
        ud_config=_ud_config(args),
        solver_config=_solver_config(args),
        fw_config=_fw_config(args),
        rem_config=_rem_config(args),
        normalize_scope=args.normalize_scope,
    )


def cmd_evaluate(args) -> int:
    data = _load(args)
    kwargs = _cv_kwargs(args)
    if args.all_classes:
        reports = one_against_all(data, args.method, imputer=args.imputer,
                                  folds=args.folds, seed=args.seed, **kwargs)
        text = format_one_vs_all_table(reports)
    else:
        positive = args.positive_class
        if positive is None:
            positive = default_positive_class(data)
        report = run_cv(data, positive, args.method, imputer=args.imputer,
                        folds=args.folds, seed=args.seed, **kwargs)
        text = report.format_report()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_benchmark(args) -> int:
    data = _load(args)
    ratios = tuple(float(r) for r in args.ratios.split(","))
    methods = tuple(m.strip() for m in args.methods.split(","))
    plan = BenchmarkPlan(ratios=ratios, methods=methods, imputer=args.imputer,
                         folds=args.folds, seed=args.seed,
                         positive_class=args.positive_class)
    name = args.name or args.infile.rsplit("/", 1)[-1]
    result = run_benchmark(data, plan, name=name,
                           include_impute_time=args.include_impute_time,
                           **_cv_kwargs(args))
    text = result.format_table()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if "--config" in argv:
            at = argv.index("--config") + 1
            if at >= len(argv):
                raise UsageError("--config needs a path")
            tokens = _config_tokens(argv[at])
            head = argv[:1]
            argv = head + tokens + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, DataFormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:   # pragma: no cover - invariant violations
        print("internal error: %r" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
