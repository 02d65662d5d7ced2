"""Command-line interface: impute, train, predict, evaluate, benchmark.

``train`` writes normalization, imputer and model as one v2 pipeline file,
and ``predict`` applies it to raw rows, ``?`` cells included, as ``evaluate``
does to each held-out fold. A v1 model file is applied to rows as given.

Flags may also come from a ``--config`` file of ``key=value`` lines (keys are
the long flag names); explicit flags override config values. Exit codes:
0 success, 1 user or data error, 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from mlsvm.data import NormalizationStats, binary_view, load_dataset, write_dataset
from mlsvm.evaluation import (METHODS, BenchmarkPlan, default_positive_class,
                              format_one_vs_all_table, one_against_all,
                              run_benchmark, run_cv, train_method)
from mlsvm.imputation import IMPUTERS, RemConfig, fit_imputer
from mlsvm.knn import KnnConfig
from mlsvm.multilevel import FrameworkConfig
from mlsvm.svm import (KernelParams, Pipeline, SolverConfig, SvmModel,
                       class_weights, fit_pipeline, load_any_model,
                       save_any_model, train_svm)
from mlsvm.ud import UdConfig


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected lo,hi but got %r" % text)
    return (float(parts[0]), float(parts[1]))


def _megabytes(text: str) -> int:
    return int(text) * 1024 * 1024


def _auto_or_float(text: str) -> float | None:
    return None if text == "auto" else float(text)


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
    p.add_argument("--c-range", type=_pair, help="model-selection C range lo,hi")
    p.add_argument("--gamma-range", type=_pair, help="gamma range lo,hi")
    p.add_argument("--ud-folds", dest="internal_cv_folds", metavar="UD_FOLDS",
                   type=int, help="internal CV folds for model selection")
    p.add_argument("--Q", dest="q", type=float, default=None,
                   help="per-class coarse-size ratio lower bound")
    p.add_argument("--Qdt", dest="q_dt", type=int, default=None,
                   help="direct-retrain threshold during refinement")
    p.add_argument("--coarsest-max", type=int, default=None,
                   help="combined size bound for the coarsest level")
    p.add_argument("--k", type=int, default=None, help="neighbors per point")
    p.add_argument("--knn-mode", dest="mode",
                   choices=("auto", "exact", "approximate"))
    p.add_argument("--neighbor-expansion", type=int, default=None)
    p.add_argument("--p-fraction", type=float, default=None,
                   help="fraction of opposite clusters each cluster pairs with")
    p.add_argument("--kkt-tol", dest="kkt_tolerance", metavar="KKT_TOL",
                   type=float)
    p.add_argument("--cache-mb", dest="cache_bytes", metavar="CACHE_MB",
                   type=_megabytes,
                   help="kernel cache budget; 0 keeps only the two kernel rows "
                        "of the current SMO step")


def _add_imputer_flags(p):
    p.add_argument("--imputer", choices=IMPUTERS, default="rem")
    _add_rem_flags(p)


def _add_rem_flags(p):
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--stagnation-tol", type=float, default=None)
    p.add_argument("--regularization", type=_auto_or_float,
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
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("train", help="train a model and write it to a file")
    _add_io_flags(p)
    _add_method_flags(p)
    _add_imputer_flags(p)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--C", dest="c_fixed", type=float, default=None,
                   help="fixed penalty; with --gamma, trains a flat method "
                        "without model selection")
    p.add_argument("--gamma", type=float, default=None,
                   help="fixed RBF bandwidth; given together with --C")
    p.add_argument("--positive-class", type=int, default=None,
                   help="class mapped to +1 (default: smallest class)")
    p.add_argument("--report", default=None,
                   help="per-level (flat: per-search-candidate) report path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label points with a saved model")
    _add_io_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="predictions output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="cross-validated evaluation of one method")
    _add_io_flags(p)
    _add_method_flags(p)
    _add_imputer_flags(p)
    one_or_all = p.add_mutually_exclusive_group()
    one_or_all.add_argument("--positive-class", type=int, default=None)
    one_or_all.add_argument("--all-classes", action="store_true",
                            help="one-against-all over every class")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="missing-ratio sweep over methods")
    _add_io_flags(p)
    _add_method_flags(p)
    _add_imputer_flags(p)
    p.add_argument("--ratios", default="0.05,0.10,0.20,0.40")
    p.add_argument("--methods", default="svm,wsvm,mlsvm,mlwsvm")
    p.add_argument("--positive-class", type=int, default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--name", default=None, help="dataset label in the table")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_benchmark)
    for p in sub.choices.values():
        p.allow_abbrev = False     # "--gamma" must not match "--gamma-range"
    parser.commands = sub.choices
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
            if value.lower() == "true":
                tokens.append(flag)
            elif value.lower() != "false":
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


def _about(path, fn, *args):
    """fn(*args), with path put before the message of a ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc


def _config(cls, args):
    """Build cls from every field whose flag was set (flag dest = field name)."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if getattr(args, f.name, None) is not None})


def cmd_impute(args) -> int:
    data = _load(args)
    imp, completed = fit_imputer(args.method, data, _config(RemConfig, args))
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
            else:
                fh.write("iterations 0\nfinal_change 0\n")
            fh.write("missing_per_feature %s\n" % " ".join(
                str(int(c)) for c in data.missing.sum(axis=0)))
    return 0


def cmd_train(args) -> int:
    if (args.c_fixed is None) != (args.gamma is None):
        raise UsageError("--C and --gamma go together; %s is missing"
                         % ("--C" if args.c_fixed is None else "--gamma"))
    if args.c_fixed is not None and args.report:
        raise UsageError("--report lists the search that --C/--gamma skip")
    if args.c_fixed is not None and args.method not in ("svm", "wsvm"):
        raise ValueError("--C/--gamma are only for flat methods; multilevel "
                         "training selects hyperparameters internally")
    kwargs = _train_kwargs(args)    # a bad config value fails before any work
    rem_config = _config(RemConfig, args)
    pipe, data = _about(args.infile, fit_pipeline, _load(args), args.imputer,
                        rem_config)
    view = binary_view(data, default_positive_class(data, args.positive_class))
    if args.c_fixed is None:
        pipe.model, report = _about(args.infile, lambda: train_method(
            view, args.method, args.seed, **kwargs))
    else:
        weights = class_weights(args.c_fixed, args.method == "wsvm", view.y())
        pipe.model = _about(args.infile, train_svm, view, weights,
                            KernelParams(args.gamma), kwargs["solver_config"])
    save_any_model(pipe, args.model)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.format_table())
    return 0


def cmd_predict(args) -> int:
    pipe = load_any_model(args.model)
    if isinstance(pipe, SvmModel):     # v1: rows as given, no imputer
        n = pipe.n_features
        pipe = Pipeline(NormalizationStats(np.zeros(n), np.ones(n),
                                           np.zeros(n, dtype=bool)), None, pipe)
    data = _load(args)
    if data.n_features != pipe.model.n_features:
        raise ValueError("%s has %d features but model %s has %d" % (
            args.infile, data.n_features, args.model, pipe.model.n_features))
    labels, margins = _about(args.infile, pipe.predict, data)
    with open(args.out, "w", encoding="utf-8") as fh:
        for lab, marg in zip(labels, margins):
            fh.write("%d %.17g\n" % (int(lab), marg))
    return 0


def _train_kwargs(args):
    return dict(
        knn_config=_config(KnnConfig, args),
        ud_config=_config(UdConfig, args),
        solver_config=_config(SolverConfig, args),
        fw_config=_config(FrameworkConfig, args),
    )


def _cv_kwargs(args):
    return dict(_train_kwargs(args), rem_config=_config(RemConfig, args))


def _emit(text: str, out) -> int:
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_evaluate(args) -> int:
    data = _load(args)
    kwargs = _cv_kwargs(args)
    if args.all_classes:
        reports = one_against_all(data, args.method, imputer=args.imputer,
                                  folds=args.folds, seed=args.seed, **kwargs)
        text = format_one_vs_all_table(reports)
    else:
        report = run_cv(data, default_positive_class(data, args.positive_class),
                        args.method, imputer=args.imputer, folds=args.folds,
                        seed=args.seed, **kwargs)
        text = report.format_report()
    return _emit(text, args.out)


def cmd_benchmark(args) -> int:
    data = _load(args)
    ratios = tuple(float(r) for r in args.ratios.split(","))
    methods = tuple(m.strip() for m in args.methods.split(","))
    plan = BenchmarkPlan(ratios=ratios, methods=methods, imputer=args.imputer,
                         folds=args.folds, seed=args.seed,
                         positive_class=args.positive_class)
    name = args.name or args.infile.rsplit("/", 1)[-1]
    result = run_benchmark(data, plan, name=name, **_cv_kwargs(args))
    return _emit(result.format_table(), args.out)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # --config in full or as a prefix that abbreviates no other flag of the
    # command: on train, --c and --co could be --c-range or --coarsest-max
    sub = parser.commands.get(argv[0] if argv else None)
    flags = sub._option_string_actions if sub is not None else ()
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument(*[s for s in ("--config"[:n] for n in range(3, 9))
                       if not any(f.startswith(s) for f in flags)], dest="config")
    try:
        known, argv = pre.parse_known_args(argv)
        if known.config is not None:
            # after the subcommand and before the explicit flags, which win
            argv = argv[:1] + _config_tokens(known.config) + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:   # pragma: no cover - invariant violations
        print("internal error: %r" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
