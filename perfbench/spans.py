"""In-memory span tracing around the program's public functions.

The tracer replaces each traced function at every place it was imported to
(``mlsvm.svm.train_svm`` and the ``train_svm`` names bound in ``mlsvm.ud``
and ``mlsvm.multilevel`` are the same object and all get the wrapper), and
the fit/transform methods on the imputer class. A span records name, start,
end and parent. Wrappers store only references and sizes while the program
runs; counts that need computing are derived after the traced round.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "info")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None


def _is_approximate(knn_module, bound) -> bool:
    config = bound.arguments.get("config") or knn_module.KnnConfig()
    n = len(bound.arguments["rows"])
    if config.mode == "auto":
        return n > knn_module.EXACT_DEFAULT_LIMIT
    return config.mode == "approximate"


def _layer_table(mlsvm):
    """(layer, owner, attribute, info) for every traced function.

    info(bound arguments, result) returns what the counts need; it runs
    after the span has closed and must stay cheap.
    """
    imp, knn = mlsvm.imputation, mlsvm.knn
    return [
        ("data.load", mlsvm.data, "load_dataset",
         lambda b, r: {"cells": r.n_rows * r.n_features}),
        ("imputation.fit", imp.RemImputer, "fit",
         lambda b, r: {"em_iters": r.diagnostics_.iterations}),
        ("imputation.transform", imp.RemImputer, "transform",
         lambda b, r: {"mask": b.arguments["data"].missing}),
        ("knn.build", knn, "build_knn_graph",
         lambda b, r: {"graph": r, "data": b.arguments["data"],
                       "approx": _is_approximate(knn, b)}),
        ("multilevel.hierarchy", mlsvm.multilevel, "build_hierarchy",
         lambda b, r: {"levels": r.n_levels, "coarsest_rows": r.levels[-1].size}),
        ("multilevel.coarsen", mlsvm.multilevel, "coarsen_class", None),
        ("multilevel.refine", mlsvm.multilevel, "refine_level", None),
        ("clustering.kmeans", mlsvm.clustering, "kmeans",
         lambda b, r: {"points": len(b.arguments["points"])}),
        ("ud.search", mlsvm.ud, "ud_search",
         lambda b, r: {"rows": len(b.arguments["rows"]), "candidates": r.evaluations}),
        ("svm.train", mlsvm.svm, "train_svm",
         lambda b, r: {"rows": (b.arguments["view"].base.n_rows
                                if b.arguments.get("rows") is None
                                else len(b.arguments["rows"]))}),
        ("svm.predict", mlsvm.svm, "predict",
         lambda b, r: {"evals": len(b.arguments["points"]) * b.arguments["model"].n_sv,
                       "n_sv": b.arguments["model"].n_sv}),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name, fn, info):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if info is not None:
                s.info = info(sig.bind(*args, **kwargs), result)
            return result
        return wrapper

    def install(self, mlsvm) -> None:
        """Wrap every traced function wherever the package bound it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "mlsvm" or key.startswith("mlsvm.")]
        for name, owner, attr, info in _layer_table(mlsvm):
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            sites = [owner] if inspect.isclass(owner) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._patches.append((site, key, original))

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches = []

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover.

        Calls run on one thread, so children nest inside their parent and do
        not overlap one another.
        """
        out = np.array([s.end - s.start for s in self.spans])
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            counts = {k: v for k, v in (s.info or {}).items()
                      if isinstance(v, (int, float, bool))}
            rows.append({"id": s.id, "name": s.name, "parent": s.parent,
                         "start": s.start - t0, "end": s.end - t0, "counts": counts})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _pattern_count(mask: np.ndarray) -> int:
    incomplete = mask[mask.any(axis=1)]
    return int(np.unique(incomplete, axis=0).shape[0]) if incomplete.size else 0


def layer_metrics(spans: list, self_time: np.ndarray) -> dict:
    """Per-layer self times and counts over the given spans (one round)."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return float(sum(self_time[s.id] for s in by_name.get(name, [])))

    def info(name):
        return [s.info for s in by_name.get(name, [])]

    knn_infos = info("knn.build")
    ud_spans = by_name.get("ud.search", [])
    refine_ids = {s.id for s in by_name.get("multilevel.refine", [])}
    # refinement training sets: the rows a direct retrain searches over, or
    # the rows k-means splits into clusters
    refine_rows = sum(s.info["rows"] for s in ud_spans if s.parent in refine_ids)
    refine_rows += sum(s.info["points"] for s in by_name.get("clustering.kmeans", [])
                       if s.parent in refine_ids)
    hierarchy = info("multilevel.hierarchy")
    predicts = info("svm.predict")
    evals = sum(i["evals"] for i in predicts)
    predict_s = busy("svm.predict")
    return {
        "data.load_s": busy("data.load"),
        "data.cells": sum(i["cells"] for i in info("data.load")),
        "imputation.fit_s": busy("imputation.fit"),
        "imputation.em_iters": sum(i["em_iters"] for i in info("imputation.fit")),
        "imputation.transform_s": busy("imputation.transform"),
        "imputation.patterns": sum(_pattern_count(i["mask"])
                                   for i in info("imputation.transform")),
        "knn.build_s": busy("knn.build"),
        "knn.graphs": len(knn_infos),
        "knn.nodes": sum(i["graph"].n_nodes for i in knn_infos),
        "knn.approx_nodes": sum(i["graph"].n_nodes for i in knn_infos if i["approx"]),
        "multilevel.hierarchy_s": busy("multilevel.hierarchy"),
        "multilevel.coarsen_s": busy("multilevel.coarsen"),
        "multilevel.levels": sum(i["levels"] for i in hierarchy),
        "multilevel.coarsest_rows": sum(i["coarsest_rows"] for i in hierarchy),
        "multilevel.refine_s": busy("multilevel.refine"),
        "multilevel.refine_train_rows": refine_rows,
        "clustering.kmeans_s": busy("clustering.kmeans"),
        "clustering.calls": len(by_name.get("clustering.kmeans", [])),
        "ud.search_s": busy("ud.search"),
        "ud.searches": len(ud_spans),
        "ud.candidates": sum(s.info["candidates"] for s in ud_spans),
        "svm.train_s": busy("svm.train"),
        "svm.trains": len(by_name.get("svm.train", [])),
        "svm.train_rows": sum(i["rows"] for i in info("svm.train")),
        "svm.predict_s": predict_s,
        "svm.model_sv": predicts[-1]["n_sv"] if predicts else 0,
        "svm.predict_kernel_evals": evals,
        "svm.predict_kernel_evals_per_s": evals / predict_s if predict_s > 0 else 0.0,
    }
