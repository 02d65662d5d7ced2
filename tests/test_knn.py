import numpy as np
import pytest

from mlsvm import knn
from mlsvm.data import Dataset
from mlsvm.knn import KnnConfig, _exact_knn, _median, build_knn_graph, restrict_graph
from oracles import brute_knn, knn_recall, refined_knn, restricted_knn


def set_forest(monkeypatch, n_trees, leaf_size, refine_iters):
    """Give the approximate index these constants for one test."""
    monkeypatch.setattr(knn, "_N_TREES", n_trees)
    monkeypatch.setattr(knn, "_LEAF_SIZE", leaf_size)
    monkeypatch.setattr(knn, "_REFINE_ITERS", refine_iters)


def points_dataset(x):
    x = np.asarray(x, dtype=float)
    return Dataset(x, np.zeros_like(x, dtype=bool),
                   np.ones(x.shape[0], dtype=int), (1,))


def integer_points(name):
    """Points whose squared distances every summation order gets exactly.

    Small integer coordinates make ties at every distance, so these inputs
    exercise the (distance, index) tie-break.
    """
    rng = np.random.default_rng(17)
    if name == "random":
        return rng.integers(-6, 7, size=(45, 3)).astype(float)
    if name == "duplicated":
        return np.repeat(rng.integers(-3, 4, size=(12, 2)), 4, axis=0).astype(float)
    if name == "grid":
        return np.array([[i, j] for i in range(7) for j in range(6)], dtype=float)
    return np.full((20, 4), 3.0)        # every point equal


class TestExact:
    def test_three_points_on_a_line(self):
        ds = points_dataset([[0.0], [1.0], [10.0]])
        g = build_knn_graph(ds, np.arange(3), KnnConfig(k=1, mode="exact"))
        assert g.neighbor_ids[:, 0].tolist() == [1, 0, 1]
        edges = {tuple(sorted((i, int(j)))) for i in range(3)
                 for j in g.undirected_neighbors(i)}
        assert edges == {(0, 1), (1, 2)}

    def test_k_equal_n_minus_one_is_complete(self):
        ds = points_dataset(np.random.default_rng(0).normal(size=(6, 2)))
        g = build_knn_graph(ds, np.arange(6), KnnConfig(k=5, mode="exact"))
        for i in range(6):
            assert len(g.undirected_neighbors(i)) == 5

    def test_duplicates_no_self_loop(self):
        ds = points_dataset([[0.0], [0.0], [5.0]])
        g = build_knn_graph(ds, np.arange(3), KnnConfig(k=1, mode="exact"))
        assert g.neighbor_ids[0, 0] == 1
        assert g.neighbor_ids[1, 0] == 0
        assert g.neighbor_dists[0, 0] == 0.0
        for i in range(3):
            assert i not in g.undirected_neighbors(i)

    def test_matches_brute_force_oracle(self):
        x = np.random.default_rng(5).normal(size=(120, 4))
        ds = points_dataset(x)
        g = build_knn_graph(ds, np.arange(120), KnnConfig(k=7, mode="exact"))
        assert np.array_equal(g.neighbor_ids, brute_knn(x, 7))

    def test_row_order_invariance_up_to_tiebreak(self):
        x = np.random.default_rng(6).normal(size=(40, 3))
        ds = points_dataset(x)
        g1 = build_knn_graph(ds, np.arange(40), KnnConfig(k=4, mode="exact"))
        perm = np.random.default_rng(7).permutation(40)
        xp = x[perm]
        dsp = points_dataset(xp)
        g2 = build_knn_graph(dsp, np.arange(40), KnnConfig(k=4, mode="exact"))
        # map no-tie rows back: neighbor sets must agree through the permutation
        inv = np.empty(40, dtype=int)
        inv[perm] = np.arange(40)
        for new_pos in range(40):
            orig = perm[new_pos]
            assert set(perm[g2.neighbor_ids[new_pos]]) == set(g1.neighbor_ids[orig])

    def test_stored_distances_recompute(self):
        x = np.random.default_rng(8).normal(size=(50, 3))
        ds = points_dataset(x)
        g = build_knn_graph(ds, np.arange(50), KnnConfig(k=5, mode="exact"))
        for i in range(50):
            for j, d in zip(g.neighbor_ids[i], g.neighbor_dists[i]):
                true = np.sqrt(((x[i] - x[j]) ** 2).sum())
                assert abs(d - true) <= 1e-12 * max(true, 1.0)

    def test_neighbor_lists_sorted_by_distance(self):
        x = np.random.default_rng(9).normal(size=(30, 2))
        ds = points_dataset(x)
        g = build_knn_graph(ds, np.arange(30), KnnConfig(k=6, mode="exact"))
        assert (np.diff(g.neighbor_dists, axis=1) >= 0).all()

    @pytest.mark.parametrize("name", ["random", "duplicated", "grid", "equal"])
    def test_every_k_matches_brute_force_ids_and_distances(self, name):
        x = integer_points(name)
        n = x.shape[0]
        full = brute_knn(x, n - 1)      # each k's lists are prefixes of these
        for k in range(1, n):
            ids, d2 = _exact_knn(x, k)
            assert np.array_equal(ids, full[:, :k]), k
            assert np.array_equal(d2, ((x[ids] - x[:, None, :]) ** 2).sum(axis=2)), k

    def test_query_subset_matches_full_search(self):
        x = integer_points("duplicated")
        queries = np.array([40, 3, 17, 0])
        for k in (1, 4, x.shape[0] - 1):
            sub_ids, sub_d2 = _exact_knn(x, k, queries)
            ids, d2 = _exact_knn(x, k)
            assert np.array_equal(sub_ids, ids[queries])
            assert np.array_equal(sub_d2, d2[queries])

    def test_degree_at_least_one(self):
        x = np.random.default_rng(10).normal(size=(15, 2))
        ds = points_dataset(x)
        g = build_knn_graph(ds, np.arange(15), KnnConfig(k=3, mode="exact"))
        assert (np.diff(g.und_indptr) >= 1).all()


class TestKLeast:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_k_matches_full_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        d2 = rng.integers(0, 4, size=(40, 11)).astype(float)
        d2[rng.random(d2.shape) < 0.25] = np.inf
        d2[0] = np.inf
        d2[1] = 2.0
        full = np.lexsort((np.broadcast_to(np.arange(11), d2.shape), d2), axis=1)
        for k in range(12):
            assert np.array_equal(knn._k_least(d2, k), full[:, :k]), k


def lists_with_hub(n, k, seed):
    """Distinct directed lists without self, point 0 listed by 3k+1 rows."""
    rng = np.random.default_rng(seed)
    ids = np.array([rng.choice(np.delete(np.arange(n), i), k, replace=False)
                    for i in range(n)])
    for i in range(1, 3 * k + 2):
        if 0 not in ids[i]:
            ids[i, 0] = 0
    return ids


class TestRefine:
    @pytest.mark.parametrize("name", ["random", "duplicated", "grid", "equal"])
    def test_pass_matches_oracle(self, name):
        x = integer_points(name)
        ids = lists_with_hub(x.shape[0], 3, seed=30)
        new, d2 = knn._refine_pass(x, ids)
        assert np.array_equal(new, refined_knn(x, ids))
        assert np.array_equal(d2, ((x[new] - x[:, None, :]) ** 2).sum(axis=2))

    def test_pass_never_raises_kth_distance(self):
        x = np.random.default_rng(31).integers(-20, 21, size=(400, 4)).astype(float)
        ids = lists_with_hub(400, 5, seed=32)
        for _ in range(3):
            before = ((x[ids] - x[:, None, :]) ** 2).sum(axis=2).max(axis=1)
            ids, d2 = knn._refine_pass(x, ids)
            assert (d2[:, -1] <= before).all()
            assert (d2[:, -1] < before).any()


def restrict(x, k, picked, mode="exact"):
    ds = points_dataset(x)
    fine = build_knn_graph(ds, np.arange(x.shape[0]), KnnConfig(k=k, mode=mode), seed=4)
    return fine, restrict_graph(ds, fine, picked)


class TestRestrict:
    def test_lists_sorted_distinct_recomputed_and_sized(self):
        x = np.random.default_rng(20).normal(size=(300, 4))
        picked = np.sort(np.random.default_rng(21).choice(300, 140, replace=False))
        fine, g = restrict(x, 6, picked)
        assert np.array_equal(g.node_ids, picked)
        assert g.k == 6 and g.neighbor_ids.shape == (140, 6)
        xc = x[picked]
        for i in range(140):
            ids, d = g.neighbor_ids[i], g.neighbor_dists[i]
            assert i not in ids and len(set(ids.tolist())) == 6
            assert ((ids >= 0) & (ids < 140)).all()
            assert (np.lexsort((ids, d)) == np.arange(6)).all()
            true = np.sqrt(((xc[ids] - xc[i]) ** 2).sum(axis=1))
            assert np.allclose(d, true, rtol=1e-12, atol=1e-12)
        assert np.array_equal(g.neighbor_ids, restricted_knn(x, fine.neighbor_ids, picked))

    @pytest.mark.parametrize("name", ["random", "duplicated", "grid", "equal"])
    def test_matches_oracle_with_ties(self, name):
        x = integer_points(name)
        picked = np.arange(0, x.shape[0], 2)
        fine, g = restrict(x, 3, picked)
        assert np.array_equal(g.neighbor_ids, restricted_knn(x, fine.neighbor_ids, picked))
        d2 = ((x[picked][g.neighbor_ids] - x[picked][:, None, :]) ** 2).sum(axis=2)
        assert np.array_equal(g.neighbor_dists, np.sqrt(d2))

    def test_short_rows_equal_exact_search_of_picked_set(self):
        # on a line with k=1 each point's neighbor is the one below it, so
        # point 0 reaches no other even point and must be searched
        x = np.arange(30.0)[:, None]
        picked = np.arange(0, 30, 2)
        fine, g = restrict(x, 1, picked)
        exact = build_knn_graph(points_dataset(x), picked, KnnConfig(k=1, mode="exact"))
        assert g.neighbor_ids[0, 0] == 1 == exact.neighbor_ids[0, 0]
        assert np.array_equal(g.neighbor_ids, exact.neighbor_ids)

    def test_few_picked_keep_all_others(self):
        x = np.random.default_rng(22).normal(size=(40, 2))
        picked = np.array([3, 17, 31])
        fine, g = restrict(x, 5, picked)
        assert g.k == 2
        assert [sorted(r) for r in g.neighbor_ids.tolist()] == [[1, 2], [0, 2], [0, 1]]
        one = restrict_graph(points_dataset(x), fine, picked[:1])
        assert one.k == 0 and one.neighbor_ids.shape == (1, 0)
        assert one.und_indptr.tolist() == [0, 0]

    @pytest.mark.parametrize("n_picked", [3, 7, 60])
    def test_deterministic_with_duplicates(self, n_picked):
        x = np.repeat(np.random.default_rng(23).normal(size=(25, 3)), 3, axis=0)
        picked = np.sort(np.random.default_rng(24).choice(75, n_picked, replace=False))
        fine, g1 = restrict(x, 6, picked, mode="approximate")
        _, g2 = restrict(x, 6, picked, mode="approximate")
        for a in ("node_ids", "neighbor_ids", "neighbor_dists", "und_indptr", "und_indices"):
            assert getattr(g1, a).tobytes() == getattr(g2, a).tobytes()
        assert g1.k == min(6, n_picked - 1)

    def test_undirected_edges_are_the_symmetric_closure(self):
        x = np.random.default_rng(25).normal(size=(120, 3))
        picked = np.arange(1, 120, 3)
        _, g = restrict(x, 4, picked)
        edges = {(i, int(j)) for i in range(g.n_nodes) for j in g.neighbor_ids[i]}
        closure = edges | {(j, i) for i, j in edges}
        got = {(i, int(j)) for i in range(g.n_nodes) for j in g.undirected_neighbors(i)}
        assert got == closure


class TestClampAndErrors:
    def test_k_clamped_with_warning(self):
        ds = points_dataset([[0.0], [1.0], [2.0]])
        with pytest.warns(UserWarning, match="clamping"):
            g = build_knn_graph(ds, np.arange(3), KnnConfig(k=10, mode="exact"))
        assert g.k == 2

    def test_empty_rows_error(self):
        ds = points_dataset([[0.0]])
        with pytest.raises(ValueError, match="nonempty"):
            build_knn_graph(ds, [], KnnConfig(k=1))

    def test_missing_cells_rejected(self):
        x = np.array([[1.0], [2.0]])
        ds = Dataset(x, np.array([[True], [False]]), np.ones(2, dtype=int), (1,))
        with pytest.raises(ValueError, match="missing"):
            build_knn_graph(ds, np.arange(2), KnnConfig(k=1))


class TestRecall:
    def test_identity_recall_is_one(self):
        ds = points_dataset(np.random.default_rng(1).normal(size=(60, 3)))
        g = build_knn_graph(ds, np.arange(60), KnnConfig(k=5, mode="exact"))
        assert knn_recall(g, g) == 1.0

    def test_disjoint_lists_recall_zero(self):
        ds = points_dataset(np.arange(8.0)[:, None])
        g1 = build_knn_graph(ds, np.arange(8), KnnConfig(k=1, mode="exact"))
        g2 = build_knn_graph(ds, np.arange(8), KnnConfig(k=1, mode="exact"))
        g2 = type(g2)(g2.node_ids, (g2.neighbor_ids + 4) % 8, g2.neighbor_dists,
                      g2.k, g2.und_indptr, g2.und_indices)
        overlap = (g1.neighbor_ids == g2.neighbor_ids).mean()
        assert knn_recall(g2, g1) == pytest.approx(overlap)

    def test_gaussian_cloud_recall_at_least_090(self):
        x = np.random.default_rng(42).normal(size=(1000, 10))
        ds = points_dataset(x)
        approx = build_knn_graph(ds, np.arange(1000),
                                 KnnConfig(k=10, mode="approximate"), seed=0)
        exact = build_knn_graph(ds, np.arange(1000), KnnConfig(k=10, mode="exact"))
        assert knn_recall(approx, exact) >= 0.9

    def test_node_set_mismatch(self):
        ds = points_dataset(np.random.default_rng(2).normal(size=(10, 2)))
        g1 = build_knn_graph(ds, np.arange(10), KnnConfig(k=2, mode="exact"))
        g2 = build_knn_graph(ds, np.arange(8), KnnConfig(k=2, mode="exact"))
        with pytest.raises(ValueError):
            knn_recall(g1, g2)


class TestApproximate:
    def test_one_leaf_holding_every_point_is_exact(self, monkeypatch):
        x = np.random.default_rng(11).normal(size=(90, 3))
        set_forest(monkeypatch, n_trees=2, leaf_size=100, refine_iters=0)
        cfg = KnnConfig(k=6, mode="approximate")
        g = build_knn_graph(points_dataset(x), np.arange(90), cfg, seed=1)
        assert np.array_equal(g.neighbor_ids, brute_knn(x, 6))

    @pytest.mark.parametrize("name", ["random", "duplicated", "grid", "equal"])
    def test_one_leaf_breaks_ties_by_index(self, monkeypatch, name):
        x = integer_points(name)
        set_forest(monkeypatch, n_trees=2, leaf_size=100, refine_iters=1)
        cfg = KnnConfig(k=6, mode="approximate")
        g = build_knn_graph(points_dataset(x), np.arange(x.shape[0]), cfg, seed=1)
        assert np.array_equal(g.neighbor_ids, brute_knn(x, 6))

    def test_too_few_candidates_falls_back_to_full_search(self, monkeypatch):
        x = np.random.default_rng(12).normal(size=(80, 3))
        set_forest(monkeypatch, n_trees=1, leaf_size=4, refine_iters=0)
        cfg = KnnConfig(k=5, mode="approximate")
        g = build_knn_graph(points_dataset(x), np.arange(80), cfg, seed=2)
        assert np.array_equal(g.neighbor_ids, brute_knn(x, 5))

    def test_lists_are_sorted_distinct_and_recompute(self, monkeypatch):
        x = np.random.default_rng(13).normal(size=(700, 4))
        set_forest(monkeypatch, n_trees=3, leaf_size=20, refine_iters=2)
        cfg = KnnConfig(k=8, mode="approximate")
        g = build_knn_graph(points_dataset(x), np.arange(700), cfg, seed=3)
        assert (np.diff(g.neighbor_dists, axis=1) >= 0).all()
        for i in range(700):
            ids = g.neighbor_ids[i]
            assert i not in ids and len(set(ids.tolist())) == 8
            true = np.sqrt(((x[ids] - x[i]) ** 2).sum(axis=1))
            assert np.allclose(g.neighbor_dists[i], true, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [2.0, 2.0, 2.0, 5.0],
        [7.0], [1.0, np.nan, 0.5, 2.0], [-0.0, 0.0],
    ])
    def test_median_matches_numpy(self, values):
        v = np.array(values)
        assert np.array_equal(_median(v), np.median(v), equal_nan=True)


def test_positions_of_maps_rows_to_nodes():
    ds = points_dataset(np.random.default_rng(3).normal(size=(10, 2)))
    rows = np.array([7, 3, 9, 1])
    g = build_knn_graph(ds, rows, KnnConfig(k=2, mode="exact"))
    pos = g.positions_of([9, 7])
    assert g.node_ids[pos].tolist() == [9, 7]
    with pytest.raises(ValueError):
        g.positions_of([4])

