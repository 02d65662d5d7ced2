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
    train_method,
)
from mlsvm.imputation import MeanImputer, RemConfig, RemImputer, fit_imputer
from mlsvm.knn import KnnConfig, KnnGraph, build_knn_graph
from mlsvm.metrics import ConfusionMatrix, Metrics, compute_metrics, stratified_folds
from mlsvm.multilevel import FrameworkConfig, Hierarchy, train_multilevel
from mlsvm.svm import (
    ClassWeights,
    KernelParams,
    Pipeline,
    SolverConfig,
    SvmModel,
    fit_pipeline,
    load_any_model,
    predict,
    save_any_model,
    train_svm,
)
from mlsvm.ud import UdConfig, UdOutcome, ud_search

# Older name kept for existing callers: the same object as predict, not a wrapper.
predict_model = predict

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "BinaryView",
    "ClassWeights",
    "ConfusionMatrix",
    "Dataset",
    "EvalReport",
    "FrameworkConfig",
    "Hierarchy",
    "KernelParams",
    "KnnConfig",
    "KnnGraph",
    "MeanImputer",
    "Metrics",
    "NormalizationStats",
    "Pipeline",
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
    "fit_imputer",
    "fit_normalization",
    "fit_pipeline",
    "inject_missing",
    "load_any_model",
    "load_dataset",
    "one_against_all",
    "predict",
    "predict_model",
    "run_benchmark",
    "run_cv",
    "save_any_model",
    "stratified_folds",
    "take_rows",
    "train_method",
    "train_multilevel",
    "train_svm",
    "ud_search",
    "write_dataset",
]
