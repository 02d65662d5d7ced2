"""Cross-validated evaluation, one-against-all orchestration, and benchmarks.

Every fold fits a Pipeline (normalization, then imputation) on its training
rows only, trains on them, and applies the pipeline to its raw held-out rows,
as ``mlsvm train`` and ``mlsvm predict`` do, so no statistic ever travels
from test to train.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from mlsvm.data import BinaryView, Dataset, binary_view, inject_missing, take_rows
from mlsvm.imputation import IMPUTERS, RemConfig
from mlsvm.knn import KnnConfig
from mlsvm.metrics import ConfusionMatrix, Metrics, compute_metrics, stratified_folds
from mlsvm.multilevel import FrameworkConfig, train_multilevel
from mlsvm.rng import child_seed
from mlsvm.svm import KernelParams, SolverConfig, fit_pipeline, predict, train_svm
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

    def seconds_total(self) -> float:
        """Train plus predict seconds over every fold."""
        return float(sum(f.seconds["train"] + f.seconds["predict"] for f in self.folds))

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


def default_positive_class(data: Dataset, positive: int | None = None) -> int:
    """positive if given, else the smallest class (first-seen order breaks ties)."""
    if positive is not None:
        return positive
    counts = [(int((data.labels == c).sum()), i) for i, c in enumerate(data.class_names)]
    counts.sort()
    return data.class_names[counts[0][1]]


def train_method(view: BinaryView, method: str, seed: int, *,
                 knn_config: KnnConfig | None = None,
                 ud_config: UdConfig | None = None,
                 solver_config: SolverConfig | None = None,
                 fw_config: FrameworkConfig | None = None):
    """Train one of METHODS on every row of view; return (model, report).

    svm/wsvm select (C, gamma) on all rows and train once, reporting the
    UdOutcome; mlsvm/mlwsvm run the V-cycle with fw_config's seed set to
    seed, reporting the MultilevelReport. Both reports have format_table().
    """
    if method not in METHODS:
        raise ValueError("unknown method %r" % method)
    weighted = method in ("wsvm", "mlwsvm")
    if method in ("mlsvm", "mlwsvm"):
        fw = dataclasses.replace(fw_config or FrameworkConfig(), seed=seed)
        return train_multilevel(view.base, view, weighted, knn_config, ud_config,
                                solver_config, fw)
    rows = np.arange(view.base.n_rows)
    outcome = ud_search(view, rows, weighted, ud_config, solver_config, seed=seed)
    model = train_svm(view, outcome.weights, KernelParams(outcome.gamma),
                      solver_config, rows)
    return model, outcome


def run_cv(data: Dataset, positive_class: int, method: str,
           imputer: str = "rem", folds: int = 10, seed: int = 0, *,
           knn_config: KnnConfig | None = None,
           ud_config: UdConfig | None = None,
           solver_config: SolverConfig | None = None,
           fw_config: FrameworkConfig | None = None,
           rem_config: RemConfig | None = None) -> EvalReport:
    """Stratified k-fold evaluation of one method on one binary view."""
    if method not in METHODS:
        raise ValueError("unknown method %r" % method)
    if positive_class not in data.class_names:
        raise ValueError("class %r not in dataset" % positive_class)
    y_signed = np.where(data.labels == positive_class, 1, -1)
    assign = stratified_folds(y_signed, folds, seed)

    def one_fold(f: int) -> FoldResult:
        t0 = time.perf_counter()
        pipe, train_ds = fit_pipeline(take_rows(data, np.flatnonzero(assign != f)),
                                      imputer, rem_config)
        test_ds = pipe.transform(take_rows(data, np.flatnonzero(assign == f)))
        t1 = time.perf_counter()
        model, _ = train_method(binary_view(train_ds, positive_class), method,
                                child_seed(seed, "fold", f),
                                knn_config=knn_config, ud_config=ud_config,
                                solver_config=solver_config, fw_config=fw_config)
        t2 = time.perf_counter()
        pred, _ = predict(model, test_ds.features)
        t3 = time.perf_counter()
        y_test = np.where(test_ds.labels == positive_class, 1, -1)
        cm = ConfusionMatrix.from_predictions(y_test, pred)
        return FoldResult(cm=cm, metrics=compute_metrics(cm), seconds={
            "impute": t1 - t0, "train": t2 - t1, "predict": t3 - t2})

    return EvalReport(method, positive_class, [one_fold(f) for f in range(folds)])


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
    cells: list = field(default_factory=list)

    def format_table(self) -> str:
        lines = ["dataset\tr_mv\tmethod\tSN\tSP\tGmean\tACC\tseconds\tGmean_std"]
        for cell in self.cells:
            if cell.error is not None:
                lines.append("%s\t%.2f\t%s\tERROR: %s"
                             % (self.name, cell.ratio, cell.method, cell.error))
                continue
            m = cell.report.mean
            lines.append("%s\t%.2f\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\t%.4f"
                         % (self.name, cell.ratio, cell.method, m.sn, m.sp,
                            m.gmean, m.acc, cell.report.seconds_total(),
                            cell.report.gmean_std))
        return "\n".join(lines) + "\n"


def run_benchmark(data: Dataset, plan: BenchmarkPlan, *, name: str = "data",
                  **kwargs) -> BenchmarkResult:
    """Missing-ratio sweep: inject, cross-validate each method, tabulate.

    Cell failures are recorded in place and do not stop the sweep.
    """
    positive = default_positive_class(data, plan.positive_class)
    result = BenchmarkResult(name=name)
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
