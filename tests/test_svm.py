import numpy as np
import pytest

import mlsvm.svm as svm_module
from mlsvm.data import Dataset, binary_view
from mlsvm.svm import (ClassWeights, KernelParams, SolverConfig, SvmModel,
                       decision_values, dual_objective, kkt_violation,
                       load_any_model, predict, save_any_model, train_svm)
from oracles import linear_matrix, qp_dual_oracle, rbf_matrix


def dataset_from(x, y):
    x = np.asarray(x, dtype=float)
    labels = np.where(np.asarray(y) > 0, 1, 2).astype(int)
    names = tuple(dict.fromkeys(labels.tolist()))
    return Dataset(x, np.zeros_like(x, dtype=bool), labels, names)


def random_instance(rng, n_max=12):
    n = int(rng.integers(4, n_max + 1))
    x = rng.normal(size=(n, 3))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if (y > 0).all() or (y < 0).all():
        y[0] = -y[0]
    cp = float(rng.uniform(0.5, 20.0))
    cm = float(rng.uniform(0.5, 20.0))
    gamma = float(rng.uniform(0.2, 2.0))
    return x, y, cp, cm, gamma


class TestOracleClosedForm:
    def test_two_point_linear_kernel_maximal_margin(self):
        # (0,0) labeled +1 and (2,0) labeled -1: boundary x=1, alpha=0.5 each
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([1.0, -1.0])
        caps = np.array([100.0, 100.0])
        K = linear_matrix(x, x)
        alpha, obj = qp_dual_oracle(K, y, caps)
        assert alpha == pytest.approx([0.5, 0.5], abs=1e-8)
        assert obj == pytest.approx(0.5, abs=1e-8)
        # bias from the positive support vector: y - w.x with w = (-1, 0)
        w = (alpha * y) @ x
        assert w == pytest.approx([-1.0, 0.0], abs=1e-7)
        assert 1.0 - w @ x[0] == pytest.approx(1.0, abs=1e-7)

    def test_degenerate_all_zero_alpha_objective(self):
        model = SvmModel(sv_features=np.zeros((0, 2)), sv_labels=np.zeros(0),
                         sv_alphas=np.zeros(0), bias=0.0,
                         kernel=KernelParams(1.0), weights=ClassWeights(1.0, 1.0))
        assert dual_objective(model) == 0.0


class TestSolverAgainstOracle:
    def test_six_point_toy_matches_oracle(self):
        x = np.array([[0.0, 0.0], [1.0, 0.2], [0.2, 1.0],
                      [3.0, 3.0], [4.0, 2.8], [2.8, 4.0]])
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        model = train_svm(view, ClassWeights(10.0, 10.0), KernelParams(1.0),
                          SolverConfig())
        caps = np.full(6, 10.0)
        _, obj_star = qp_dual_oracle(rbf_matrix(x, x, 1.0), y, caps)
        assert dual_objective(model) == pytest.approx(obj_star, rel=1e-4, abs=1e-6)

    def test_objective_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y, cp, cm, gamma = random_instance(rng)
            ds = dataset_from(x, y)
            view = binary_view(ds, 1)
            model = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
            caps = np.where(y > 0, cp, cm)
            _, obj_star = qp_dual_oracle(rbf_matrix(x, x, gamma), y, caps)
            obj = dual_objective(model)
            assert abs(obj - obj_star) <= 1e-4 * max(1.0, abs(obj_star))
            assert kkt_violation(model, view) <= 1e-3 + 1e-9


class TestModelInvariants:
    def test_box_constraints_and_equality(self):
        rng = np.random.default_rng(21)
        x, y, cp, cm, gamma = random_instance(rng)
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        model = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
        pos = model.sv_labels > 0
        assert (model.sv_alphas[pos] <= cp + 1e-12).all()
        assert (model.sv_alphas[~pos] <= cm + 1e-12).all()
        assert (model.sv_alphas > 0).all()
        assert abs(np.sum(model.sv_alphas * model.sv_labels)) < 1e-8

    def test_weighted_equal_caps_reduces_to_unweighted(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            x, y, _, _, gamma = random_instance(rng)
            ds = dataset_from(x, y)
            view = binary_view(ds, 1)
            c = float(rng.uniform(0.5, 10.0))
            m1 = train_svm(view, ClassWeights(c, c), KernelParams(gamma))
            m2 = train_svm(view, ClassWeights.uniform(c), KernelParams(gamma))
            assert np.array_equal(m1.sv_alphas, m2.sv_alphas)
            assert m1.bias == m2.bias

    def test_determinism(self):
        rng = np.random.default_rng(23)
        x, y, cp, cm, gamma = random_instance(rng)
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        m1 = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
        m2 = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
        assert np.array_equal(m1.sv_alphas, m2.sv_alphas)
        assert np.array_equal(m1.sv_features, m2.sv_features)
        assert m1.bias == m2.bias

    def test_cache_toggle_changes_no_bit(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(80, 4))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        m1 = train_svm(view, ClassWeights(5.0, 5.0), KernelParams(0.5),
                       SolverConfig(cache_bytes=0))
        m2 = train_svm(view, ClassWeights(5.0, 5.0), KernelParams(0.5),
                       SolverConfig(cache_bytes=1 << 20))
        assert np.array_equal(m1.sv_alphas, m2.sv_alphas)
        assert m1.bias == m2.bias

    def test_iteration_cap_warns_and_keeps_feasibility(self, monkeypatch):
        monkeypatch.setattr(svm_module, "_MAX_ITERATIONS", 20)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(300, 5))
        y = np.where(x[:, :2].sum(axis=1) > 0, 1.0, -1.0)
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        with pytest.warns(UserWarning, match="iteration cap"):
            model = train_svm(view, ClassWeights(3.0, 2.0), KernelParams(0.5))
        caps = np.where(model.sv_labels > 0, 3.0, 2.0)
        assert (model.sv_alphas > 0).all()
        assert (model.sv_alphas <= caps).all()
        assert model.sv_alphas @ model.sv_labels == pytest.approx(0.0, abs=1e-9)
        assert kkt_violation(model, view) > 1e-3

    def test_single_class_rejected(self):
        ds = dataset_from([[0.0], [1.0]], [1, 1])
        ds = Dataset(ds.features, ds.missing, np.array([1, 1]), (1,))
        view = type(binary_view(ds, 1))(base=ds, positive_class=1,
                                        rows_positive=np.array([0, 1]),
                                        rows_negative=np.array([], dtype=int))
        with pytest.raises(ValueError, match="single class"):
            train_svm(view, ClassWeights(1.0, 1.0), KernelParams(1.0))

    def test_non_finite_rejected(self):
        x = np.array([[0.0], [np.nan]])
        ds = Dataset(x, np.array([[False], [True]]), np.array([1, 2]), (1, 2))
        view = binary_view(ds, 1)
        with pytest.raises(ValueError, match="non-finite"):
            train_svm(view, ClassWeights(1.0, 1.0), KernelParams(1.0))


def _reference_smo(x, y, caps, gamma, config):
    """The solver with explicit up/low/candidate masks: the formulation that
    svm._smo_solve must reproduce bit for bit."""
    n = x.shape[0]
    tol = config.kkt_tolerance
    cache = svm_module._RowCache(x, gamma, config.cache_bytes)
    tau = svm_module._TAU
    alpha = np.zeros(n)
    v = y.copy()
    up = y > 0
    low = y < 0
    sel = np.empty(n)
    quad = np.empty(n)
    cand = np.empty(n, dtype=bool)
    while True:
        sel.fill(-np.inf)
        np.copyto(sel, v, where=up)
        ii = int(np.argmax(sel))
        m = sel[ii]
        M = float(np.min(v, initial=np.inf, where=low))
        if m - M <= tol:
            break
        ki = cache.row(ii)
        np.multiply(ki, -2.0, out=quad)
        quad += 2.0
        np.maximum(quad, tau, out=quad)
        np.less(v, m, out=cand)
        cand &= low
        np.subtract(m, v, out=sel)
        np.square(sel, out=sel)
        sel /= quad
        np.logical_not(cand, out=cand)
        sel[cand] = -np.inf
        jj = int(np.argmax(sel))
        kj = cache.row(jj)
        a_quad = max(2.0 - 2.0 * ki[jj], tau)
        delta = (m - v[jj]) / a_quad
        yi, yj = y[ii], y[jj]
        bound_i = (caps[ii] - alpha[ii]) if yi > 0 else alpha[ii]
        bound_j = alpha[jj] if yj > 0 else (caps[jj] - alpha[jj])
        delta = min(delta, bound_i, bound_j)
        alpha[ii] += yi * delta
        alpha[jj] -= yj * delta
        if delta == bound_i:
            alpha[ii] = caps[ii] if yi > 0 else 0.0
        if delta == bound_j:
            alpha[jj] = 0.0 if yj > 0 else caps[jj]
        np.subtract(ki, kj, out=quad)
        quad *= delta
        v -= quad
        for t in (ii, jj):
            pos = y[t] > 0
            up[t] = (pos and alpha[t] < caps[t]) or (not pos and alpha[t] > 0)
            low[t] = (pos and alpha[t] > 0) or (not pos and alpha[t] < caps[t])
    free = (alpha > 0) & (alpha < caps)
    if free.any():
        bias = float(np.mean(v[free]))
    else:
        hi = np.max(np.where(up, v, -np.inf))
        lo = np.min(np.where(low, v, np.inf))
        if not np.isfinite(hi):
            hi = lo
        if not np.isfinite(lo):
            lo = hi
        bias = float((hi + lo) / 2.0)
    return alpha, bias


# rows, duplicated rows (argmax ties), balanced labels, (C+, C-), gamma;
# tiny C with balanced labels puts every alpha at its cap (no free SV)
REFERENCE_PROBLEMS = {
    "duplicates": (60, True, False, (1.0, 1.0), 1.3),
    "weighted": (150, False, False, (7.3, 0.9), 1.3),
    "tiny-c": (80, False, True, (1e-4, 1e-4), 0.5),
    "weighted-duplicates": (240, True, False, (7.3, 0.9), 0.2),
}


class TestReferenceSolver:
    @pytest.mark.parametrize("cache_rows", [0, 3, None],
                             ids=["no-cache", "3-row-cache", "default-cache"])
    @pytest.mark.parametrize("kind", list(REFERENCE_PROBLEMS))
    def test_bit_identical_to_reference(self, kind, cache_rows):
        n, duplicated, balanced, (cp, cm), gamma = REFERENCE_PROBLEMS[kind]
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        if duplicated:
            x[n // 2:] = x[:n - n // 2]
        if balanced:
            y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        else:
            y = np.where(x[:, 0] + 0.7 * rng.normal(size=n) > 0.4, 1.0, -1.0)
        caps = np.where(y > 0, cp, cm)
        config = SolverConfig() if cache_rows is None \
            else SolverConfig(cache_bytes=8 * n * cache_rows)
        alpha, bias = svm_module._smo_solve(x, y, caps, gamma, config)
        ref_alpha, ref_bias = _reference_smo(x, y, caps, gamma, config)
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert np.float64(bias).tobytes() == np.float64(ref_bias).tobytes()
        free = (alpha > 0) & (alpha < caps)
        assert free.any() != (kind == "tiny-c")


class TestPredict:
    def test_margins_match_direct_recomputation(self):
        rng = np.random.default_rng(31)
        x, y, cp, cm, gamma = random_instance(rng)
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        model = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
        pts = rng.normal(size=(7, 3))
        _, margins = predict(model, pts)
        k = rbf_matrix(pts, model.sv_features, gamma)
        direct = k @ (model.sv_alphas * model.sv_labels) + model.bias
        assert np.abs(margins - direct).max() < 1e-10

    def test_training_margins_respect_kkt_on_separable_data(self):
        rng = np.random.default_rng(32)
        x = np.vstack([rng.normal(size=(20, 2)) + 4, rng.normal(size=(20, 2)) - 4])
        y = np.concatenate([np.ones(20), -np.ones(20)])
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        model = train_svm(view, ClassWeights(10.0, 10.0), KernelParams(0.5))
        _, margins = predict(model, x)
        assert (y * margins >= 1.0 - 1e-3 - 1e-9).all()

    def test_tie_resolves_to_negative(self):
        model = SvmModel(sv_features=np.array([[1.0]]), sv_labels=np.array([1.0]),
                         sv_alphas=np.array([1.0]), bias=-np.exp(0.0),
                         kernel=KernelParams(1.0), weights=ClassWeights(1.0, 1.0))
        labels, margins = predict(model, np.array([[1.0]]))
        assert margins[0] == 0.0
        assert labels[0] == -1.0

    def test_lone_positive_sv_labels_positive_nearby(self):
        model = SvmModel(sv_features=np.array([[0.0, 0.0]]),
                         sv_labels=np.array([1.0]), sv_alphas=np.array([2.0]),
                         bias=0.5, kernel=KernelParams(1.0),
                         weights=ClassWeights(1.0, 1.0))
        labels, _ = predict(model, np.array([[0.0, 0.0]]))
        assert labels[0] == 1.0

    def test_dimension_mismatch(self):
        model = SvmModel(sv_features=np.array([[0.0, 1.0]]),
                         sv_labels=np.array([1.0]), sv_alphas=np.array([1.0]),
                         bias=0.0, kernel=KernelParams(1.0),
                         weights=ClassWeights(1.0, 1.0))
        with pytest.raises(ValueError):
            predict(model, np.zeros((3, 5)))


class TestWeightedImbalance:
    def test_inverse_size_weights_lift_sensitivity(self):
        rng = np.random.default_rng(41)
        n_min, n_maj = 60, 1140
        x = np.vstack([rng.normal(size=(n_min, 4)) + 1.1,
                       rng.normal(size=(n_maj, 4))])
        y = np.concatenate([np.ones(n_min), -np.ones(n_maj)])
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        test_x = np.vstack([rng.normal(size=(200, 4)) + 1.1,
                            rng.normal(size=(200, 4))])
        test_y = np.concatenate([np.ones(200), -np.ones(200)])
        gamma = KernelParams(0.25)
        plain = train_svm(view, ClassWeights.uniform(1.0), gamma)
        weighted = train_svm(view, ClassWeights.inverse_size(1.0, n_min, n_maj),
                             gamma)
        def sensitivity(model):
            pred, _ = predict(model, test_x)
            return (pred[test_y > 0] > 0).mean()
        assert sensitivity(weighted) >= sensitivity(plain)


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(51)
        x, y, cp, cm, gamma = random_instance(rng)
        ds = dataset_from(x, y)
        view = binary_view(ds, 1)
        model = train_svm(view, ClassWeights(cp, cm), KernelParams(gamma))
        path = tmp_path / "m.model"
        save_any_model(model, path)
        back = load_any_model(path)
        assert np.array_equal(back.sv_features, model.sv_features)
        assert np.array_equal(back.sv_alphas, model.sv_alphas)
        assert back.bias == model.bias
        assert back.kernel.gamma == model.kernel.gamma
        pts = rng.normal(size=(5, 3))
        assert np.array_equal(decision_values(back, pts),
                              decision_values(model, pts))

    def test_reject_garbage(self, tmp_path):
        p = tmp_path / "bad.model"
        p.write_text("not a model\n")
        with pytest.raises(ValueError, match="bad.model"):
            load_any_model(p)
