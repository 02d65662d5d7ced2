"""Cross-validated evaluation, one-against-all orchestration, and benchmarks.

Every fold fits normalization and imputation on its training rows only and
applies the fitted transforms to the held-out rows, so no statistic ever
travels from test to train.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from mlsvm.data import (Dataset, apply_normalization, binary_view,
                        fit_normalization, inject_missing, take_rows)
from mlsvm.imputation import IMPUTERS, RemConfig, fit_imputer
from mlsvm.knn import KnnConfig
from mlsvm.metrics import ConfusionMatrix, Metrics, compute_metrics, stratified_folds
from mlsvm.multilevel import FrameworkConfig, train_multilevel
from mlsvm.rng import child_rng
from mlsvm.svm import KernelParams, SolverConfig, predict, train_svm
from mlsvm.ud import UdConfig, ud_search

METHODS = ("svm", "wsvm", "mlsvm", "mlwsvm")


@dataclass
class FoldResult:
    cm: ConfusionMatrix
    metrics: Metrics
    seconds: dict


@dataclass
class EvalReport:
    method: str
    positive_class: int
    folds: list = field(default_factory=list)

    def metric_arrays(self):
        return {
            "sn": np.array([f.metrics.sn for f in self.folds]),
            "sp": np.array([f.metrics.sp for f in self.folds]),
            "gmean": np.array([f.metrics.gmean for f in self.folds]),
            "acc": np.array([f.metrics.acc for f in self.folds]),
        }

    @property
    def mean(self) -> Metrics:
        arrs = self.metric_arrays()
        return Metrics(sn=float(arrs["sn"].mean()), sp=float(arrs["sp"].mean()),
                       gmean=float(arrs["gmean"].mean()), acc=float(arrs["acc"].mean()),
                       degenerate=any(f.metrics.degenerate for f in self.folds))

    @property
    def gmean_std(self) -> float:
        g = self.metric_arrays()["gmean"]
        return float(g.std(ddof=1)) if g.size > 1 else 0.0

    def seconds_total(self, phases=("hierarchy", "train", "predict")) -> float:
        return float(sum(sum(f.seconds.get(p, 0.0) for p in phases)
                         for f in self.folds))

    def format_report(self) -> str:
        lines = ["fold\tTP\tFP\tFN\tTN\tSN\tSP\tGmean\tACC"]
        for i, f in enumerate(self.folds):
            lines.append("%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f"
                         % (i, f.cm.tp, f.cm.fp, f.cm.fn, f.cm.tn,
                            f.metrics.sn, f.metrics.sp, f.metrics.gmean,
                            f.metrics.acc))
        m = self.mean
        lines.append("mean\t-\t-\t-\t-\t%.4f\t%.4f\t%.4f\t%.4f"
                     % (m.sn, m.sp, m.gmean, m.acc))
        lines.append("gmean_std\t%.4f" % self.gmean_std)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BenchmarkPlan:
    ratios: tuple = (0.05, 0.10, 0.20, 0.40)
    methods: tuple = METHODS
    imputer: str = "rem"
    folds: int = 10
    seed: int = 0
    positive_class: int | None = None

    def __post_init__(self):
        if any(not 0 <= r < 1 for r in self.ratios):
            raise ValueError("ratios must be in [0, 1)")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError("unknown methods: %s" % sorted(unknown))
        if self.imputer not in IMPUTERS:
            raise ValueError("imputer must be one of %s" % (IMPUTERS,))
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


def default_positive_class(data: Dataset) -> int:
    """Smallest class (first-seen order breaks ties): the usual +1 convention."""
    counts = [(int((data.labels == c).sum()), i) for i, c in enumerate(data.class_names)]
    counts.sort()
    return data.class_names[counts[0][1]]


def run_cv(data: Dataset, positive_class: int, method: str,
           imputer: str = "rem", folds: int = 10, seed: int = 0, *,
           knn_config: KnnConfig | None = None,
           ud_config: UdConfig | None = None,
           solver_config: SolverConfig | None = None,
           fw_config: FrameworkConfig | None = None,
           rem_config: RemConfig | None = None,
           normalize_scope: str = "fold") -> EvalReport:
    """Stratified k-fold evaluation of one method on one binary view."""
    if method not in METHODS:
        raise ValueError("unknown method %r" % method)
    if imputer not in IMPUTERS:
        raise ValueError("unknown imputer %r" % imputer)
    if imputer == "none" and data.has_missing():
        raise ValueError("imputer='none' but the data has missing cells")
    if normalize_scope not in ("fold", "global"):
        raise ValueError("normalize_scope must be 'fold' or 'global'")
    if positive_class not in data.class_names:
        raise ValueError("class %r not in dataset" % positive_class)
    solver_config = solver_config or SolverConfig()
    y_signed = np.where(data.labels == positive_class, 1, -1)
    assign = stratified_folds(y_signed, folds, seed)
    global_stats = fit_normalization(data, np.arange(data.n_rows)) \
        if normalize_scope == "global" else None

    def one_fold(f: int) -> FoldResult:
        train_rows = np.flatnonzero(assign != f)
        test_rows = np.flatnonzero(assign == f)
        stats = global_stats if global_stats is not None \
            else fit_normalization(data, train_rows)
        normed = apply_normalization(data, stats)
        train_ds = take_rows(normed, train_rows)
        test_ds = take_rows(normed, test_rows)
        seconds = {"impute": 0.0, "hierarchy": 0.0, "train": 0.0, "predict": 0.0}

        t0 = time.perf_counter()
        imp, train_ds = fit_imputer(imputer, train_ds, rem_config)
        if imp is not None:
            test_ds = imp.transform(test_ds)
        seconds["impute"] = time.perf_counter() - t0

        fold_seed = int(child_rng(seed, "fold", f).integers(0, 2**31 - 1))
        view = binary_view(train_ds, positive_class)
        t0 = time.perf_counter()
        if method in ("svm", "wsvm"):
            weighted = method == "wsvm"
            outcome = ud_search(view, np.arange(train_ds.n_rows), weighted,
                                ud_config, solver_config, seed=fold_seed)
            model = train_svm(view, outcome.weights, KernelParams(outcome.gamma),
                              solver_config, np.arange(train_ds.n_rows))
        else:
            weighted = method == "mlwsvm"
            fw = dataclasses.replace(fw_config or FrameworkConfig(), seed=fold_seed)
            model, report = train_multilevel(train_ds, view, weighted,
                                             knn_config, ud_config,
                                             solver_config, fw)
            seconds["hierarchy"] = report.hierarchy_seconds
        seconds["train"] = time.perf_counter() - t0 - seconds["hierarchy"]

        t0 = time.perf_counter()
        pred, _ = predict(model, test_ds.features)
        seconds["predict"] = time.perf_counter() - t0
        y_test = np.where(test_ds.labels == positive_class, 1, -1)
        cm = ConfusionMatrix.from_predictions(y_test, pred)
        return FoldResult(cm=cm, metrics=compute_metrics(cm), seconds=seconds)

    report = EvalReport(method=method, positive_class=positive_class)
    report.folds = [one_fold(f) for f in range(folds)]
    return report


def one_against_all(data: Dataset, method: str, **kwargs) -> dict:
    """One binary cross-validated run per class; returns {class: EvalReport}."""
    if len(data.class_names) < 2:
        raise ValueError("need at least 2 classes")
    out = {}
    for cls in data.class_names:
        out[cls] = run_cv(data, cls, method, **kwargs)
    return out


def format_one_vs_all_table(reports: dict) -> str:
    lines = ["class\tSN\tSP\tGmean\tACC"]
    for cls, rep in reports.items():
        m = rep.mean
        lines.append("%s\t%.4f\t%.4f\t%.4f\t%.4f" % (cls, m.sn, m.sp, m.gmean, m.acc))
    return "\n".join(lines) + "\n"


@dataclass
class BenchmarkCell:
    ratio: float
    method: str
    report: EvalReport | None
    error: str | None = None


@dataclass
class BenchmarkResult:
    name: str
    plan: BenchmarkPlan
    cells: list = field(default_factory=list)
    include_impute_time: bool = False

    def format_table(self) -> str:
        lines = ["dataset\tr_mv\tmethod\tSN\tSP\tGmean\tACC\tseconds\tGmean_std"]
        phases = ("hierarchy", "train", "predict")
        if self.include_impute_time:
            phases = ("impute",) + phases
        for cell in self.cells:
            if cell.error is not None:
                lines.append("%s\t%.2f\t%s\tERROR: %s"
                             % (self.name, cell.ratio, cell.method, cell.error))
                continue
            m = cell.report.mean
            lines.append("%s\t%.2f\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\t%.4f"
                         % (self.name, cell.ratio, cell.method, m.sn, m.sp,
                            m.gmean, m.acc, cell.report.seconds_total(phases),
                            cell.report.gmean_std))
        return "\n".join(lines) + "\n"


def run_benchmark(data: Dataset, plan: BenchmarkPlan, *, name: str = "data",
                  include_impute_time: bool = False, **kwargs) -> BenchmarkResult:
    """Missing-ratio sweep: inject, cross-validate each method, tabulate.

    Cell failures are recorded in place and do not stop the sweep.
    """
    positive = plan.positive_class
    if positive is None:
        positive = default_positive_class(data)
    result = BenchmarkResult(name=name, plan=plan,
                             include_impute_time=include_impute_time)
    for ratio in plan.ratios:
        injected = inject_missing(data, ratio, seed=plan.seed) if ratio > 0 else data
        for method in plan.methods:
            try:
                rep = run_cv(injected, positive, method, imputer=plan.imputer,
                             folds=plan.folds, seed=plan.seed, **kwargs)
                result.cells.append(BenchmarkCell(ratio, method, rep))
            except Exception as exc:   # keep sweeping; flush partial results
                warnings.warn("benchmark cell (%.2f, %s) failed: %s"
                              % (ratio, method, exc))
                result.cells.append(BenchmarkCell(ratio, method, None, str(exc)))
    return result
