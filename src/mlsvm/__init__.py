"""Multilevel (weighted) SVM classification for large, imbalanced, incomplete data."""

from mlsvm.data import (
    BinaryView,
    Dataset,
    NormalizationStats,
    apply_normalization,
    binary_view,
    fit_normalization,
    inject_missing,
    load_dataset,
    take_rows,
    write_dataset,
)
from mlsvm.evaluation import (
    BenchmarkPlan,
    EvalReport,
    one_against_all,
    run_benchmark,
    run_cv,
)
from mlsvm.imputation import MeanImputer, RemConfig, RemImputer, mean_impute, rem_impute
from mlsvm.knn import KnnConfig, KnnGraph, build_knn_graph, knn_recall
from mlsvm.metrics import ConfusionMatrix, Metrics, compute_metrics, stratified_folds
from mlsvm.multilevel import (
    EnsembleModel,
    FrameworkConfig,
    Hierarchy,
    load_any_model,
    predict_model,
    save_any_model,
    train_multilevel,
)
from mlsvm.svm import (
    ClassWeights,
    KernelParams,
    SolverConfig,
    SvmModel,
    dual_objective,
    predict,
    train_svm,
)
from mlsvm.ud import UdConfig, UdOutcome, ud_search

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "BinaryView",
    "ClassWeights",
    "ConfusionMatrix",
    "Dataset",
    "EnsembleModel",
    "EvalReport",
    "FrameworkConfig",
    "Hierarchy",
    "KernelParams",
    "KnnConfig",
    "KnnGraph",
    "MeanImputer",
    "Metrics",
    "NormalizationStats",
    "RemConfig",
    "RemImputer",
    "SolverConfig",
    "SvmModel",
    "UdConfig",
    "UdOutcome",
    "apply_normalization",
    "binary_view",
    "build_knn_graph",
    "compute_metrics",
    "dual_objective",
    "fit_normalization",
    "inject_missing",
    "knn_recall",
    "load_any_model",
    "load_dataset",
    "mean_impute",
    "one_against_all",
    "predict",
    "predict_model",
    "rem_impute",
    "run_benchmark",
    "run_cv",
    "save_any_model",
    "stratified_folds",
    "take_rows",
    "train_multilevel",
    "train_svm",
    "ud_search",
    "write_dataset",
]
