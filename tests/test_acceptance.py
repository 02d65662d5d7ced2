"""End-to-end acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The twonorm-scale checks dominate the runtime.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mlsvm.data import (Dataset, binary_view, fit_normalization, inject_missing,
                        take_rows, write_dataset)
from mlsvm.evaluation import run_cv
from mlsvm.imputation import RemImputer, mean_impute, rem_impute
from mlsvm.knn import KnnConfig, build_knn_graph
from mlsvm.metrics import ConfusionMatrix, compute_metrics, stratified_folds
from mlsvm.multilevel import FrameworkConfig, coarsen_class, train_multilevel
from mlsvm.rng import child_rng
from mlsvm.svm import (ClassWeights, KernelParams, dual_objective,
                       kkt_violation, predict, train_svm)
from mlsvm.synth import (make_correlated_gaussian, make_imbalanced_gaussians,
                         make_twonorm)
from mlsvm.ud import UdConfig, ud_search
from oracles import qp_dual_oracle, rbf_matrix


def record(num: int, ok: bool, desc: str, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    print("\nACCEPTANCE %02d %s - %s%s" % (num, tag, desc, extra))
    assert ok, "criterion %d failed: %s%s" % (num, desc, extra)


def random_instance(rng):
    n = int(rng.integers(4, 13))
    x = rng.normal(size=(n, 3))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if (y > 0).all() or (y < 0).all():
        y[0] = -y[0]
    cp = float(rng.uniform(0.5, 20.0))
    cm = float(rng.uniform(0.5, 20.0))
    gamma = float(rng.uniform(0.2, 2.0))
    labels = np.where(y > 0, 1, 2).astype(int)
    ds = Dataset(x, np.zeros_like(x, dtype=bool), labels,
                 tuple(dict.fromkeys(labels.tolist())))
    return ds, x, y, cp, cm, gamma


def test_criterion_01_solver_matches_dense_qp_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_kkt = 0.0
    for _ in range(50):
        ds, x, y, cp, cm, gamma = random_instance(rng)
        view = binary_view(ds, 1)
        model = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
        caps = np.where(y > 0, cp, cm)
        _, obj_star = qp_dual_oracle(rbf_matrix(x, x, gamma), y, caps)
        rel = abs(dual_objective(model) - obj_star) / max(1.0, abs(obj_star))
        worst_rel = max(worst_rel, rel)
        worst_kkt = max(worst_kkt, kkt_violation(model, view))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-4 and worst_kkt <= 1e-3 + 1e-9 and elapsed < 10.0
    record(1, ok, "solver vs dense projected-gradient QP oracle (50 instances)",
           " [max rel %.2e, max KKT %.2e, %.1fs]" % (worst_rel, worst_kkt, elapsed))


def test_criterion_02_equal_caps_reduce_to_unweighted():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(20):
        ds, x, y, _, _, gamma = random_instance(rng)
        view = binary_view(ds, 1)
        c = float(rng.uniform(0.5, 10.0))
        weighted = train_svm(view, ClassWeights(c, c), KernelParams(gamma))
        plain = train_svm(view, ClassWeights.uniform(c), KernelParams(gamma))
        if weighted.n_sv != plain.n_sv:
            worst = np.inf
            break
        worst = max(worst,
                    float(np.max(np.abs(weighted.sv_alphas - plain.sv_alphas),
                                 initial=0.0)),
                    abs(weighted.bias - plain.bias))
    ok = worst <= 1e-8
    record(2, ok, "equal class caps reproduce the unweighted model (20 instances)",
           " [max deviation %.2e]" % worst)


def test_criterion_03_published_metrics_row():
    cm = ConfusionMatrix(tp=8903, fn=1097, tn=6345, fp=3655)
    m = compute_metrics(cm)
    ok = (abs(m.sn - 0.8903) < 1e-12 and abs(m.sp - 0.6345) < 1e-12
          and abs(m.gmean - 0.7516) <= 1e-4)
    record(3, ok, "SN 0.8903 / SP 0.6345 combine to G-mean 0.7516",
           " [got %.6f]" % m.gmean)


def test_criterion_04_default_search_budget_is_13():
    rng = np.random.default_rng(1004)
    x = np.vstack([rng.normal(size=(75, 3)) + 0.9, rng.normal(size=(75, 3)) - 0.9])
    labels = np.array([1] * 75 + [2] * 75)
    ds = Dataset(x, np.zeros_like(x, dtype=bool), labels, (1, 2))
    out = ud_search(binary_view(ds, 1), np.arange(150), False, UdConfig(), seed=0)
    ok = out.evaluations == 13 and len(out.trace) == 13
    record(4, ok, "default nested design trains exactly 13 distinct candidates",
           " [trained %d]" % out.evaluations)


def _dominating(graph, sel_mask):
    deg = np.diff(graph.und_indptr)
    if graph.und_indices.size == 0:
        return bool(sel_mask.all())
    covered = np.add.reduceat(sel_mask[graph.und_indices],
                              np.minimum(graph.und_indptr[:-1],
                                         graph.und_indices.size - 1))
    covered = np.where(deg > 0, covered, 0)
    return bool(np.all(sel_mask | (covered > 0)))


def _rounds_independent(graph, rounds):
    for rnd in rounds:
        mask = np.zeros(graph.n_nodes, dtype=bool)
        mask[rnd] = True
        if graph.und_indices.size:
            inner = np.add.reduceat(mask[graph.und_indices],
                                    np.minimum(graph.und_indptr[:-1],
                                               graph.und_indices.size - 1))
            inner = np.where(np.diff(graph.und_indptr) > 0, inner, 0)
            if np.any(mask & (inner > 0)):
                return False
    return True


def test_criterion_05_coarsening_structure_on_100_graphs():
    rng = np.random.default_rng(1005)
    cfg = KnnConfig(k=10, mode="approximate", n_trees=4, leaf_size=24,
                    search_checks=128, refine_iters=1)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(100):
        n = int(rng.integers(500, 5001))
        x = rng.normal(size=(n, 5))
        ds = Dataset(x, np.zeros_like(x, dtype=bool), np.ones(n, dtype=int), (1,))
        graph = build_knn_graph(ds, np.arange(n), cfg, seed=trial)
        res = coarsen_class(graph, 0.5, child_rng(trial, "acc5"))
        sel_mask = np.zeros(n, dtype=bool)
        sel_mask[res.selected] = True
        assert res.selected.size >= 0.5 * n, "coverage failed at trial %d" % trial
        assert _dominating(graph, sel_mask), "domination failed at trial %d" % trial
        assert _rounds_independent(graph, res.rounds), \
            "round independence failed at trial %d" % trial
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 30.0
    record(5, ok, "dominating/independent/covering coarsening on 100 graphs",
           " [%.1fs]" % elapsed)


TWONORM_FW = FrameworkConfig(coarsest_max=500, q_dt=1000, seed=0)
TWONORM_UD = UdConfig(internal_cv_folds=3)


def test_criterion_06_twonorm_scale_gmean():
    t0 = time.perf_counter()
    base = make_twonorm(7400, 20, seed=2026)
    results = {}
    for ratio in (0.05, 0.20):
        noisy = inject_missing(base, ratio, seed=17)
        for method in ("mlsvm", "mlwsvm"):
            rep = run_cv(noisy, 1, method, imputer="rem", folds=10, seed=5,
                         ud_config=TWONORM_UD, fw_config=TWONORM_FW)
            results[(ratio, method)] = rep.mean.gmean
    elapsed = time.perf_counter() - t0
    ok = all(g >= 0.95 for g in results.values())
    detail = ", ".join("%s@%d%%=%.3f" % (m, int(r * 100), g)
                       for (r, m), g in results.items())
    if elapsed > 600:
        print("\n(note: %.0fs exceeded the 10-minute desktop target on this "
              "machine)" % elapsed)
    record(6, ok, "twonorm-scale multilevel G-mean with EM imputation >= 0.95",
           " [%s; %.0fs]" % (detail, elapsed))


def test_criterion_07_multilevel_speedup():
    base = make_twonorm(7400, 20, seed=2026)
    stats = fit_normalization(base, np.arange(base.n_rows))
    from mlsvm.data import apply_normalization
    data = apply_normalization(base, stats)
    view = binary_view(data, 1)
    rows = np.arange(data.n_rows)

    t0 = time.perf_counter()
    out = ud_search(view, rows, False, TWONORM_UD, seed=3)
    flat = train_svm(view, out.weights, KernelParams(out.gamma), rows=rows)
    t_flat = time.perf_counter() - t0

    t0 = time.perf_counter()
    model, report = train_multilevel(data, view, False, KnnConfig(),
                                     TWONORM_UD, None, TWONORM_FW)
    t_ml = time.perf_counter() - t0
    ok = t_ml <= 0.5 * t_flat
    record(7, ok, "end-to-end multilevel training at least 2x faster than flat",
           " [flat %.1fs, multilevel %.1fs, ratio %.2f]"
           % (t_flat, t_ml, t_ml / t_flat))


def test_criterion_08_weighted_multilevel_helps_minority():
    data = make_imbalanced_gaussians(n=10_000, d=10, minority_frac=0.05,
                                     separation=2.6, seed=77)
    y = np.where(data.labels == 1, 1, -1)
    assign = stratified_folds(y, 4, seed=0)
    train_rows = np.flatnonzero(assign != 0)
    test_rows = np.flatnonzero(assign == 0)
    stats = fit_normalization(data, train_rows)
    from mlsvm.data import apply_normalization
    normed = apply_normalization(data, stats)
    train_ds = take_rows(normed, train_rows)
    test_ds = take_rows(normed, test_rows)
    view = binary_view(train_ds, 1)
    fw = FrameworkConfig(coarsest_max=500, q_dt=1000, seed=11)
    scores = {}
    for method, weighted in (("mlsvm", False), ("mlwsvm", True)):
        model, _ = train_multilevel(train_ds, view, weighted, KnnConfig(),
                                    TWONORM_UD, None, fw)
        pred, _ = predict(model, test_ds.features)
        y_test = np.where(test_ds.labels == 1, 1, -1)
        m = compute_metrics(ConfusionMatrix.from_predictions(y_test, pred))
        scores[method] = m
    sn_ok = scores["mlwsvm"].sn >= scores["mlsvm"].sn
    g_best = max(scores["mlsvm"].gmean, scores["mlwsvm"].gmean)
    g_ok = scores["mlwsvm"].gmean >= g_best - 0.01
    record(8, sn_ok and g_ok,
           "weighted multilevel lifts sensitivity without losing G-mean",
           " [SN %.3f vs %.3f, G %.3f vs %.3f]"
           % (scores["mlwsvm"].sn, scores["mlsvm"].sn,
              scores["mlwsvm"].gmean, scores["mlsvm"].gmean))


def test_criterion_09_em_imputation_beats_mean_by_30_percent():
    truth = make_correlated_gaussian(n=1000, p=10, rho=0.8, seed=9)
    noisy = inject_missing(truth, 0.20, seed=10)
    rem_out, _ = rem_impute(noisy)
    mean_out = mean_impute(noisy)
    mask = noisy.missing
    err_rem = float(((rem_out.features[mask] - truth.features[mask]) ** 2).mean())
    err_mean = float(((mean_out.features[mask] - truth.features[mask]) ** 2).mean())
    obs = ~mask
    untouched = np.array_equal(rem_out.features[obs], noisy.features[obs])
    ok = err_rem <= 0.7 * err_mean and untouched
    record(9, ok, "EM imputation error at most 0.7x the mean-imputation error",
           " [ratio %.3f, observed untouched %s]" % (err_rem / err_mean, untouched))


def test_criterion_10_no_train_test_leakage():
    data = inject_missing(make_twonorm(600, 8, seed=4), 0.10, seed=5)
    y = np.where(data.labels == 1, 1, -1)
    assign = stratified_folds(y, 5, seed=0)
    train_rows = np.flatnonzero(assign != 0)
    test_rows = np.flatnonzero(assign == 0)
    feats = data.features.copy()
    feats[test_rows] = feats[test_rows] * 3.7 + 100.0
    corrupted = Dataset(feats, data.missing, data.labels, data.class_names)

    s1 = fit_normalization(data, train_rows)
    s2 = fit_normalization(corrupted, train_rows)
    norm_ok = (np.array_equal(s1.mean, s2.mean)
               and np.array_equal(s1.std, s2.std))

    i1 = RemImputer().fit(take_rows(data, train_rows))
    i2 = RemImputer().fit(take_rows(corrupted, train_rows))
    imp_ok = (np.array_equal(i1.mean_, i2.mean_)
              and np.array_equal(i1.scatter_, i2.scatter_))

    clean_train = i1.completed_
    o1 = ud_search(binary_view(clean_train, 1), np.arange(clean_train.n_rows),
                   False, TWONORM_UD, seed=2)
    clean_train2 = i2.completed_
    o2 = ud_search(binary_view(clean_train2, 1), np.arange(clean_train2.n_rows),
                   False, TWONORM_UD, seed=2)
    ud_ok = (o1.c, o1.gamma, o1.score) == (o2.c, o2.gamma, o2.score)

    ok = norm_ok and imp_ok and ud_ok
    record(10, ok, "test-fold mutations change no train-fitted statistic",
           " [normalization %s, imputer %s, model selection %s]"
           % (norm_ok, imp_ok, ud_ok))


def test_criterion_11_cli_byte_reproducibility(tmp_path):
    data = inject_missing(make_twonorm(400, 6, seed=6), 0.08, seed=7)
    src = tmp_path / "data.csv"
    write_dataset(data, src)

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "mlsvm.cli"] + args,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    pairs = []
    for tag in ("a", "b", "c"):
        full = tmp_path / ("full_%s.csv" % tag)
        model = tmp_path / ("m_%s.model" % tag)
        preds = tmp_path / ("p_%s.txt" % tag)
        run(["impute", "--in", str(src), "--out", str(full), "--method", "rem"])
        run(["train", "--in", str(full), "--model", str(model),
             "--method", "mlsvm", "--coarsest-max", "120", "--Qdt", "240",
             "--ud-folds", "3", "--seed", "21", "--positive-class", "1"])
        run(["predict", "--model", str(model), "--in", str(full),
             "--out", str(preds)])
        bench = run(["benchmark", "--in", str(full), "--ratios", "0.05",
                     "--methods", "svm", "--imputer", "mean", "--folds", "2",
                     "--ud-folds", "2", "--seed", "3", "--name", "data"])
        # wall-clock seconds are the one column that cannot reproduce
        bench_stable = "\n".join(
            "\t".join(tok for i, tok in enumerate(ln.split("\t")) if i != 7)
            for ln in bench.splitlines())
        pairs.append((full.read_bytes(), model.read_bytes(),
                      preds.read_bytes(), bench_stable))
    ok = pairs[0] == pairs[1] == pairs[2]
    record(11, ok, "CLI outputs byte-identical across reruns")
