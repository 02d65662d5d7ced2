import numpy as np
import pytest

from mlsvm import multilevel
from mlsvm.clustering import kmeans
from mlsvm.data import Dataset, binary_view
from mlsvm.knn import KnnConfig, KnnGraph, build_knn_graph, restrict_graph
from mlsvm.multilevel import (FrameworkConfig, LevelSolution, build_hierarchy,
                              coarsen_class, pair_clusters, refine_level,
                              train_coarsest, train_multilevel)
from mlsvm.rng import child_rng
from mlsvm.svm import predict
from mlsvm.synth import make_imbalanced_gaussians, make_separable_blobs
from mlsvm.ud import UdConfig


def graph_from_edges(n, edges):
    """Undirected test graph; directed neighbor lists left empty."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = []
    for i in range(n):
        nbrs = sorted(set(adj[i]))
        indices.extend(nbrs)
        indptr[i + 1] = len(indices)
    return KnnGraph(node_ids=np.arange(n), neighbor_ids=np.zeros((n, 0), dtype=np.int64),
                    neighbor_dists=np.zeros((n, 0)), k=0,
                    und_indptr=indptr, und_indices=np.array(indices, dtype=np.int64))


def is_dominating(graph, selected):
    chosen = set(int(v) for v in selected)
    for v in range(graph.n_nodes):
        if v in chosen:
            continue
        if not any(int(u) in chosen for u in graph.undirected_neighbors(v)):
            return False
    return True


def rounds_independent(graph, rounds):
    for rnd in rounds:
        members = set(int(v) for v in rnd)
        for v in members:
            for u in graph.undirected_neighbors(v):
                if int(u) in members:
                    return False
    return True


class TestCoarsenClass:
    def test_edgeless_graph_selects_everything(self):
        g = graph_from_edges(4, [])
        res = coarsen_class(g, 0.5, child_rng(0, "t"))
        assert sorted(res.selected.tolist()) == [0, 1, 2, 3]
        assert len(res.rounds) == 1

    def test_complete_graph_two_rounds(self):
        g = graph_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        res = coarsen_class(g, 0.5, child_rng(1, "t"))
        assert res.selected.size == 2
        assert [r.size for r in res.rounds] == [1, 1]

    def test_path_graph_properties(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = coarsen_class(g, 0.5, child_rng(2, "t"))
        assert res.selected.size >= 3          # >= ceil(0.5 * 5)
        assert is_dominating(g, res.selected)
        assert rounds_independent(g, res.rounds)

    def test_random_knn_graphs_dominating_and_covered(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(100, 400))
            x = rng.normal(size=(n, 4))
            ds = Dataset(x, np.zeros_like(x, dtype=bool),
                         np.ones(n, dtype=int), (1,))
            g = build_knn_graph(ds, np.arange(n), KnnConfig(k=6, mode="exact"))
            res = coarsen_class(g, 0.5, child_rng(4, "t", trial))
            assert res.selected.size >= 0.5 * n
            assert is_dominating(g, res.selected)
            assert rounds_independent(g, res.rounds)

    def test_deterministic_for_fixed_seed(self):
        g = graph_from_edges(6, [(0, 1), (2, 3), (4, 5)])
        a = coarsen_class(g, 0.8, child_rng(5, "t"))
        b = coarsen_class(g, 0.8, child_rng(5, "t"))
        assert np.array_equal(a.selected, b.selected)


class TestHierarchy:
    def test_small_dataset_single_level(self):
        ds = make_separable_blobs(n=300, d=3, seed=0)
        view = binary_view(ds, 1)
        h = build_hierarchy(view, KnnConfig(k=5),
                            FrameworkConfig(coarsest_max=500))
        assert h.n_levels == 1
        assert not h.stalled

    def test_balanced_shrink_until_bound(self):
        ds = make_separable_blobs(n=3000, d=4, seed=1)
        view = binary_view(ds, 1)
        h = build_hierarchy(view, KnnConfig(k=5),
                            FrameworkConfig(coarsest_max=200, q_dt=5000))
        sizes = [lvl.size for lvl in h.levels]
        assert sizes[-1] <= 200
        assert all(s2 < s1 for s1, s2 in zip(sizes, sizes[1:]))
        for lv1, lv2 in zip(h.levels, h.levels[1:]):
            assert lv2.pos_rows.size >= 0.5 * lv1.pos_rows.size
            assert lv2.neg_rows.size >= 0.5 * lv1.neg_rows.size
            assert np.isin(lv2.pos_rows, lv1.pos_rows).all()
            assert np.isin(lv2.neg_rows, lv1.neg_rows).all()

    def test_minority_replicated_and_skew_reduced(self):
        ds = make_imbalanced_gaussians(n=2080, d=4, minority_frac=80 / 2080.0,
                                       separation=3.0, seed=2)
        view = binary_view(ds, 1)
        h = build_hierarchy(view, KnnConfig(k=5),
                            FrameworkConfig(coarsest_max=160, q_dt=5000))
        assert h.n_levels >= 2
        minority_sets = [lvl.pos_rows for lvl in h.levels]
        for a, b in zip(minority_sets, minority_sets[1:]):
            assert np.array_equal(np.sort(a), np.sort(b))
        first, last = h.levels[0], h.levels[-1]
        ratio0 = first.neg_rows.size / first.pos_rows.size
        ratio_r = last.neg_rows.size / last.pos_rows.size
        assert ratio_r < ratio0

    def test_stall_guard_flags_and_stops(self):
        ds = make_separable_blobs(n=400, d=3, seed=3)
        view = binary_view(ds, 1)
        h = build_hierarchy(view, KnnConfig(k=5),
                            FrameworkConfig(coarsest_max=100, q=0.99))
        assert h.stalled
        assert h.n_levels == 1

    def test_only_level_zero_is_searched(self, monkeypatch):
        calls = []

        def counting(data, rows, *args, **kwargs):
            calls.append(len(rows))
            return build_knn_graph(data, rows, *args, **kwargs)

        monkeypatch.setattr(multilevel, "build_knn_graph", counting)
        ds = make_separable_blobs(n=3000, d=4, seed=1)
        view = binary_view(ds, 1)
        h = build_hierarchy(view, KnnConfig(k=5),
                            FrameworkConfig(coarsest_max=200, q_dt=5000))
        assert h.n_levels >= 3
        assert sorted(calls) == sorted([h.levels[0].pos_rows.size,
                                        h.levels[0].neg_rows.size])

    def test_coarse_graphs_restrict_the_level_below(self):
        ds = make_imbalanced_gaussians(n=2080, d=4, minority_frac=80 / 2080.0,
                                       separation=3.0, seed=2)
        h = build_hierarchy(binary_view(ds, 1), KnnConfig(k=5),
                            FrameworkConfig(coarsest_max=160, q_dt=5000))
        assert h.n_levels >= 3
        for fine, coarse in zip(h.levels, h.levels[1:]):
            for fg, cg in ((fine.pos_graph, coarse.pos_graph),
                           (fine.neg_graph, coarse.neg_graph)):
                if cg is fg:                    # a replicated class
                    continue
                want = restrict_graph(ds, fg, fg.positions_of(cg.node_ids))
                assert np.array_equal(cg.node_ids, want.node_ids)
                assert np.array_equal(cg.neighbor_ids, want.neighbor_ids)
                assert np.array_equal(cg.und_indices, want.und_indices)
        assert h.levels[-1].pos_graph is h.levels[0].pos_graph

    def test_missing_data_rejected(self):
        ds = make_separable_blobs(n=100, d=3, seed=4)
        from mlsvm.data import inject_missing
        noisy = inject_missing(ds, 0.1, seed=0)
        with pytest.raises(ValueError, match="impute"):
            build_hierarchy(binary_view(noisy, 1))

    def test_tiny_class_rejected(self):
        x = np.random.default_rng(5).normal(size=(10, 2))
        labels = np.array([1] + [2] * 9)
        ds = Dataset(x, np.zeros_like(x, dtype=bool), labels, (1, 2))
        with pytest.raises(ValueError, match="at least 2"):
            build_hierarchy(binary_view(ds, 1))


class TestPairing:
    def test_spec_arithmetic_five_vs_twenty(self):
        rng = np.random.default_rng(6)
        dist = rng.random((5, 20))
        pairs = pair_clusters(dist, 0.10)
        # every minority cluster pairs with its 2 nearest opposite clusters
        for ci in range(5):
            nearest_two = set(np.argsort(dist[ci], kind="stable")[:2].tolist())
            got = {cj for (a, cj) in pairs if a == ci}
            assert nearest_two <= got
        # every majority cluster is paired with at least 1 minority cluster
        for cj in range(20):
            assert any(b == cj for (_, b) in pairs)

    def test_minimum_one_pair_each_side(self):
        dist = np.array([[1.0, 2.0], [2.0, 1.0]])
        pairs = pair_clusters(dist, 0.01)
        assert ({a for a, _ in pairs} == {0, 1}) and ({b for _, b in pairs} == {0, 1})


class TestRefinement:
    def build(self, n=600, seed=7, coarsest_max=60, q_dt=200, overlap=1.2):
        rng = np.random.default_rng(seed)
        half = n // 2
        x = np.vstack([rng.normal(size=(half, 3)) + overlap,
                       rng.normal(size=(n - half, 3)) - overlap])
        labels = np.concatenate([np.ones(half, dtype=int),
                                 2 * np.ones(n - half, dtype=int)])
        ds = Dataset(x, np.zeros_like(x, dtype=bool), labels, (1, 2))
        view = binary_view(ds, 1)
        fw = FrameworkConfig(coarsest_max=coarsest_max, q_dt=q_dt, seed=seed)
        h = build_hierarchy(view, KnnConfig(k=5), fw)
        ud = UdConfig(internal_cv_folds=3)
        sol = train_coarsest(view, h, False, ud, None, fw)
        return ds, view, fw, h, ud, sol

    def test_direct_branch_reruns_model_selection(self):
        ds, view, fw, h, ud, sol = self.build(q_dt=100000)
        assert h.n_levels >= 2
        refined = refine_level(view, h, h.n_levels - 2, sol, False, ud, None, fw)
        assert refined.n_pairs is None
        assert refined.model is not None
        level_rows = np.concatenate([h.levels[h.n_levels - 2].pos_rows,
                                     h.levels[h.n_levels - 2].neg_rows])
        assert np.isin(refined.support_rows, level_rows).all()

    def cluster_case(self):
        """A refinement that enters cluster mode by construction.

        The coarse solution's support rows are all of level 1, more than
        q_dt, and the training set holds at least those.
        """
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal(size=(450, 3)) + 0.6,
                       rng.normal(size=(450, 3)) - 0.6])
        labels = np.repeat([1, 2], 450)
        ds = Dataset(x, np.zeros_like(x, dtype=bool), labels, (1, 2))
        view = binary_view(ds, 1)
        fw = FrameworkConfig(coarsest_max=60, q_dt=80, seed=7)
        h = build_hierarchy(view, KnnConfig(k=5), fw)
        rows = np.sort(np.concatenate([h.levels[1].pos_rows, h.levels[1].neg_rows]))
        assert rows.size > fw.q_dt
        coarse = LevelSolution(support_rows=rows, c=2.0, gamma=0.5, train_rows=rows.size)
        return view, h, fw, coarse, refine_level(view, h, 0, coarse, False, None, None, fw)

    def test_cluster_branch_inherits_hyperparameters(self):
        view, h, fw, coarse, refined = self.cluster_case()
        assert refined.n_pairs is not None
        assert (refined.c, refined.gamma) == (coarse.c, coarse.gamma)
        assert refined.n_pairs >= max(refined.n_clusters)
        assert refined.support_rows.size > 0
        assert refined.train_rows >= coarse.support_rows.size
        # level 0 retrains the merged support vectors as one model
        assert refined.model is not None
        assert np.array_equal(np.sort(refined.model.sv_rows), refined.support_rows)

    def test_cluster_count_follows_size_ratio(self):
        view, h, fw, coarse, refined = self.cluster_case()
        k_pos, k_neg = refined.n_clusters
        k_total = int(np.ceil(refined.train_rows / fw.q_dt))
        assert k_pos >= 1 and k_neg >= 1
        assert abs(k_pos + k_neg - k_total) <= 1

    def test_empty_coarse_solution_rejected(self):
        ds, view, fw, h, ud, sol = self.build()
        empty = LevelSolution(support_rows=np.array([], dtype=np.int64),
                              c=1.0, gamma=0.1, train_rows=0)
        with pytest.raises(ValueError, match="no support vectors"):
            refine_level(view, h, 0, empty, False, ud, None, fw)


class TestTrainMultilevel:
    def test_degenerate_hierarchy_matches_flat(self):
        train = make_separable_blobs(n=240, d=3, separation=7.0, seed=8)
        test = make_separable_blobs(n=200, d=3, separation=7.0, seed=9)
        view = binary_view(train, 1)
        ud = UdConfig(internal_cv_folds=3)
        model, report = train_multilevel(train, view, False, KnnConfig(k=5), ud,
                                         None, FrameworkConfig(coarsest_max=500))
        assert len(report.levels) == 1
        from mlsvm.ud import ud_search
        from mlsvm.svm import KernelParams, train_svm
        out = ud_search(view, np.arange(train.n_rows), False, ud, seed=0)
        flat = train_svm(view, out.weights, KernelParams(out.gamma))
        y_test = np.where(test.labels == 1, 1, -1)
        acc_ml = (predict(model, test.features)[0] == y_test).mean()
        acc_flat = (predict(flat, test.features)[0] == y_test).mean()
        assert abs(acc_ml - acc_flat) <= 0.02

    def test_matches_flat_quality_at_scale(self):
        rng = np.random.default_rng(20)
        n = 2000
        x = np.vstack([rng.normal(size=(n // 2, 6)) + 0.85,
                       rng.normal(size=(n // 2, 6)) - 0.85])
        labels = np.concatenate([np.ones(n // 2, dtype=int),
                                 2 * np.ones(n // 2, dtype=int)])
        order = rng.permutation(n)
        ds = Dataset(x[order], np.zeros((n, 6), dtype=bool), labels[order], (1, 2))
        holdout = np.arange(0, n, 5)
        train = np.setdiff1d(np.arange(n), holdout)
        from mlsvm.data import take_rows
        from mlsvm.metrics import ConfusionMatrix, compute_metrics
        from mlsvm.svm import KernelParams, train_svm
        from mlsvm.ud import ud_search
        train_ds = take_rows(ds, train)
        view = binary_view(train_ds, 1)
        ud = UdConfig(internal_cv_folds=3)

        out = ud_search(view, np.arange(train_ds.n_rows), False, ud, seed=0)
        flat = train_svm(view, out.weights, KernelParams(out.gamma))
        model, _ = train_multilevel(train_ds, view, False, KnnConfig(k=5), ud,
                                    None, FrameworkConfig(coarsest_max=300,
                                                          q_dt=600, seed=0))
        y_hold = np.where(ds.labels[holdout] == 1, 1, -1)

        def gmean(mod):
            pred, _ = predict(mod, ds.features[holdout])
            return compute_metrics(
                ConfusionMatrix.from_predictions(y_hold, pred)).gmean

        assert abs(gmean(model) - gmean(flat)) <= 0.02

    def test_multilevel_report_shape(self):
        ds = make_separable_blobs(n=1500, d=4, seed=10)
        view = binary_view(ds, 1)
        model, report = train_multilevel(
            ds, view, False, KnnConfig(k=5), UdConfig(internal_cv_folds=3),
            None, FrameworkConfig(coarsest_max=120, q_dt=400, seed=1))
        assert report.levels[0].level == len(report.levels) - 1
        assert report.levels[-1].level == 0
        first = report.levels[0]
        assert first.mode == "coarsest"
        assert first.train_rows == first.n_pos + first.n_neg
        for row in report.levels:
            assert row.n_sv <= row.train_rows
            assert (row.mode == "cluster") == (row.n_pairs is not None) \
                == (row.n_clusters is not None)
        assert {row.mode for row in report.levels[1:]} == {"direct", "cluster"}
        lines = report.format_table().splitlines()
        assert lines[0].split("\t") == ["level", "n_pos", "n_neg", "mode", "train_rows",
                                        "n_sv", "n_clusters", "n_pairs", "C", "gamma",
                                        "seconds"]
        assert len(lines) == len(report.levels) + 1
        for line, row in zip(lines[1:], report.levels):
            cells = line.split("\t")
            assert cells[3] == row.mode and int(cells[4]) == row.train_rows
            if row.mode == "cluster":
                assert cells[6] == "%d/%d" % row.n_clusters
                assert cells[7] == str(row.n_pairs)
            else:
                assert cells[6] == cells[7] == "-"

    def test_support_monotone_containment_per_level(self):
        ds = make_separable_blobs(n=1200, d=4, seed=11)
        view = binary_view(ds, 1)
        fw = FrameworkConfig(coarsest_max=100, q_dt=300, seed=2)
        h = build_hierarchy(view, KnnConfig(k=5), fw)
        ud = UdConfig(internal_cv_folds=3)
        sol = train_coarsest(view, h, False, ud, None, fw)
        for level in range(h.n_levels - 2, -1, -1):
            sol = refine_level(view, h, level, sol, False, ud, None, fw)
            lvl_rows = np.concatenate([h.levels[level].pos_rows,
                                       h.levels[level].neg_rows])
            assert np.isin(sol.support_rows, lvl_rows).all()

    def test_view_of_another_dataset_rejected(self):
        ds = make_separable_blobs(n=200, d=3, seed=14)
        other = make_separable_blobs(n=200, d=3, seed=15)
        with pytest.raises(ValueError, match="not a view of data"):
            train_multilevel(other, binary_view(ds, 1))

    def test_deterministic_given_seed(self):
        ds = make_separable_blobs(n=800, d=3, seed=13)
        view = binary_view(ds, 1)
        fw = FrameworkConfig(coarsest_max=80, q_dt=300, seed=9)
        ud = UdConfig(internal_cv_folds=3)
        m1, _ = train_multilevel(ds, view, False, KnnConfig(k=5), ud, None, fw)
        m2, _ = train_multilevel(ds, view, False, KnnConfig(k=5), ud, None, fw)
        assert np.array_equal(m1.sv_alphas, m2.sv_alphas)
        assert m1.bias == m2.bias


class TestKmeans:
    def test_two_obvious_clusters(self):
        rng = np.random.default_rng(15)
        x = np.vstack([rng.normal(size=(30, 2)) + 10, rng.normal(size=(30, 2))])
        cents, assign = kmeans(x, 2, child_rng(0, "km"))
        assert len(set(assign[:30])) == 1
        assert len(set(assign[30:])) == 1
        assert assign[0] != assign[-1]

    def test_duplicate_points_do_not_crash(self):
        x = np.zeros((10, 2))
        cents, assign = kmeans(x, 3, child_rng(1, "km"))
        assert cents.shape[0] == 3
        assert assign.shape == (10,)

    def test_k_clamped_to_point_count(self):
        x = np.random.default_rng(16).normal(size=(3, 2))
        cents, assign = kmeans(x, 10, child_rng(2, "km"))
        assert cents.shape[0] == 3

    def test_deterministic(self):
        x = np.random.default_rng(17).normal(size=(40, 3))
        c1, a1 = kmeans(x, 4, child_rng(3, "km"))
        c2, a2 = kmeans(x, 4, child_rng(3, "km"))
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)
