"""Soft-margin and class-weighted SVM training in the dual, with an RBF kernel.

The solver is sequential minimal optimization over the dual box/equality
constraints: the maximal violator as the first working-set index, second-order
selection of the second (Fan, Chen & Lin, JMLR 2005), and an LRU kernel-row
cache with a byte budget. The scaled gradient is kept as two copies masked
with infinities outside the up and low sets, so each selection pass is a
plain argmax or min. Training is fully deterministic for fixed inputs and
configuration.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from mlsvm.data import BinaryView

_TAU = 1e-12
_MAX_ITERATIONS = 1_000_000   # SMO steps before giving up on the tolerance


@dataclass(frozen=True)
class KernelParams:
    """RBF bandwidth: k(u, v) = exp(-gamma * ||u - v||^2)."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class ClassWeights:
    """Penalty caps per class; equal caps reduce to the standard SVM at C."""

    c_plus: float
    c_minus: float

    def __post_init__(self):
        if not (self.c_plus > 0 and self.c_minus > 0):
            raise ValueError("class penalties must be strictly positive")

    @staticmethod
    def uniform(c: float) -> "ClassWeights":
        return ClassWeights(c, c)

    @staticmethod
    def inverse_size(c: float, n_pos: int, n_neg: int) -> "ClassWeights":
        """Caps inversely proportional to class size: C+/C- = n-/n+."""
        if n_pos <= 0 or n_neg <= 0:
            raise ValueError("both classes must be nonempty")
        return ClassWeights(c_plus=c * n_neg / n_pos, c_minus=c)


def class_weights(c: float, weighted: bool, y: np.ndarray) -> ClassWeights:
    """Inverse-size caps for the signed labels y when weighted, else uniform."""
    if not weighted:
        return ClassWeights.uniform(c)
    return ClassWeights.inverse_size(c, int((y > 0).sum()), int((y < 0).sum()))


@dataclass(frozen=True)
class SolverConfig:
    kkt_tolerance: float = 1e-3
    cache_bytes: int = 512 * 1024 * 1024

    def __post_init__(self):
        if not self.kkt_tolerance > 0:
            raise ValueError("kkt_tolerance must be positive")


@dataclass
class SvmModel:
    """Support vectors with dual coefficients and bias.

    Decision function: f(x) = sum_i alpha_i y_i k(sv_i, x) + bias; the
    predicted label is +1 when f(x) > 0, else -1.
    """

    sv_features: np.ndarray
    sv_labels: np.ndarray
    sv_alphas: np.ndarray
    bias: float
    kernel: KernelParams
    weights: ClassWeights
    sv_rows: np.ndarray | None = None   # original dataset rows (not serialized)

    def __post_init__(self):
        if self.sv_features.ndim != 2:
            raise ValueError("sv_features must be 2-d")
        m = self.sv_features.shape[0]
        if self.sv_labels.shape != (m,) or self.sv_alphas.shape != (m,):
            raise ValueError("support vector arrays have inconsistent lengths")
        if m and (self.sv_alphas <= 0).any():
            raise ValueError("stored dual coefficients must be strictly positive")

    @property
    def n_sv(self) -> int:
        return self.sv_features.shape[0]

    @property
    def n_features(self) -> int:
        return self.sv_features.shape[1]


def _rbf_block(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel matrix exp(-gamma ||a_i - b_j||^2), shape (len(a), len(b))."""
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-gamma * d2)


class _RowCache:
    """LRU cache of kernel rows under a byte budget (0 disables caching)."""

    def __init__(self, x: np.ndarray, gamma: float, budget_bytes: int):
        self.x = x
        self.gamma = gamma
        self.sq = np.einsum("ij,ij->i", x, x)
        n = x.shape[0]
        self.max_rows = max(2, int(budget_bytes // (8 * max(n, 1)))) if budget_bytes > 0 else 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()

    def row(self, i: int) -> np.ndarray:
        r = self._rows.get(i) if self.max_rows else None
        if r is None:
            d2 = self.sq + self.sq[i] - 2.0 * (self.x @ self.x[i])
            np.maximum(d2, 0.0, out=d2)
            r = np.exp(-self.gamma * d2)
            if self.max_rows:
                self._rows[i] = r
                if len(self._rows) > self.max_rows:
                    self._rows.popitem(last=False)
        elif self.max_rows:
            self._rows.move_to_end(i)
        return r


def _smo_solve(x, y, caps, gamma, config: SolverConfig):
    """Minimize 0.5 a'Qa - e'a s.t. y'a = 0, 0 <= a <= caps (Q = yy' * K).

    v = -(y * gradient) is kept as two masked copies: vu holds v on the up
    set and -inf elsewhere, vl holds v on the low set and +inf elsewhere, so
    each selection pass is one plain argmax or min. Both are updated in place
    (v -= delta * (K_i - K_j), since y^2 = 1; the infinities stay infinite).
    The up/low memberships change only at the two touched coordinates per
    step, so only those two entries of each copy are masked again.
    """
    n = x.shape[0]
    tol = config.kkt_tolerance
    cache = _RowCache(x, gamma, config.cache_bytes)
    alpha = np.zeros(n)
    vu = np.where(y > 0, y, -np.inf)    # -(y * grad) at alpha = 0 is y
    vl = np.where(y < 0, y, np.inf)
    quad = np.empty(n)
    gain = np.empty(n)

    for _ in range(_MAX_ITERATIONS):
        ii = int(np.argmax(vu))
        m = vu[ii]
        if m - vl.min() <= tol:
            break
        ki = cache.row(ii)
        np.multiply(ki, -2.0, out=quad)
        quad += 2.0
        np.maximum(quad, _TAU, out=quad)
        # second-order gain (m - v_j)^2 / quad_j of each low j with v_j < m;
        # every other j clips to 0, below the best candidate's gain
        np.subtract(m, vl, out=gain)
        np.maximum(gain, 0.0, out=gain)
        np.square(gain, out=gain)
        gain /= quad
        jj = int(np.argmax(gain))
        kj = cache.row(jj)
        a_quad = max(2.0 - 2.0 * ki[jj], _TAU)
        delta = (m - vl[jj]) / a_quad
        yi, yj = y[ii], y[jj]
        bound_i = (caps[ii] - alpha[ii]) if yi > 0 else alpha[ii]
        bound_j = alpha[jj] if yj > 0 else (caps[jj] - alpha[jj])
        delta = min(delta, bound_i, bound_j)
        alpha[ii] += yi * delta
        alpha[jj] -= yj * delta
        # snap exactly onto the binding box face
        if delta == bound_i:
            alpha[ii] = caps[ii] if yi > 0 else 0.0
        if delta == bound_j:
            alpha[jj] = 0.0 if yj > 0 else caps[jj]
        np.subtract(ki, kj, out=quad)
        quad *= delta
        vu -= quad
        vl -= quad
        for t, vt in ((ii, vu[ii]), (jj, vl[jj])):
            pos = y[t] > 0
            up = (pos and alpha[t] < caps[t]) or (not pos and alpha[t] > 0)
            low = (pos and alpha[t] > 0) or (not pos and alpha[t] < caps[t])
            vu[t] = vt if up else -np.inf
            vl[t] = vt if low else np.inf
    else:
        warnings.warn("SMO hit the iteration cap (%d) before reaching tolerance"
                      % _MAX_ITERATIONS)
    free = (alpha > 0) & (alpha < caps)
    if free.any():
        bias = float(np.mean(vu[free]))
    else:
        hi = vu.max()
        lo = vl.min()
        if not np.isfinite(hi):
            hi = lo
        if not np.isfinite(lo):
            lo = hi
        bias = float((hi + lo) / 2.0)
    return alpha, bias


def train_svm(view: BinaryView, weights: ClassWeights, kernel: KernelParams,
              config: SolverConfig | None = None, rows=None) -> SvmModel:
    """Train a (class-weighted) soft-margin SVM on rows of the view's dataset."""
    config = config or SolverConfig()
    if rows is None:
        rows = np.arange(view.base.n_rows)
    rows = np.asarray(rows, dtype=np.int64)
    x = view.base.features[rows]
    if not np.isfinite(x).all():
        raise ValueError("training rows contain non-finite values (impute first)")
    y = view.y()[rows]
    if (y > 0).all() or (y < 0).all():
        raise ValueError("training subset contains a single class")
    caps = np.where(y > 0, weights.c_plus, weights.c_minus)
    alpha, bias = _smo_solve(x, y, caps, kernel.gamma, config)
    sv = np.flatnonzero(alpha > 0)
    return SvmModel(
        sv_features=x[sv].copy(),
        sv_labels=y[sv].copy(),
        sv_alphas=alpha[sv].copy(),
        bias=bias,
        kernel=kernel,
        weights=weights,
        sv_rows=rows[sv].copy(),
    )


def decision_values(model: SvmModel, points: np.ndarray, block: int = 2048) -> np.ndarray:
    """f(x) for each row of points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.n_features:
        raise ValueError("points must be (n, %d)" % model.n_features)
    coef = model.sv_alphas * model.sv_labels
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], block):
        stop = min(start + block, points.shape[0])
        k = _rbf_block(points[start:stop], model.sv_features, model.kernel.gamma)
        out[start:stop] = k @ coef
    return out + model.bias


def predict(model: SvmModel, points: np.ndarray):
    """Labels (+1/-1; f(x)=0 resolves to -1) and raw margins for each point."""
    margins = decision_values(model, points)
    labels = np.where(margins > 0, 1.0, -1.0)
    return labels, margins


def dual_objective(model: SvmModel) -> float:
    """sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j k(x_i, x_j)."""
    if model.n_sv == 0:
        return 0.0
    k = _rbf_block(model.sv_features, model.sv_features, model.kernel.gamma)
    coef = model.sv_alphas * model.sv_labels
    return float(model.sv_alphas.sum() - 0.5 * coef @ k @ coef)


def kkt_violation(model: SvmModel, view: BinaryView, rows=None) -> float:
    """Largest dual-optimality violation over the model's training rows.

    Zero means every point satisfies its condition exactly: margin >= 1 at
    alpha = 0, margin <= 1 at the class cap, margin = 1 in between. Requires
    a model trained in-process (sv_rows intact).
    """
    if model.sv_rows is None:
        raise ValueError("model has no training-row bookkeeping")
    if rows is None:
        rows = np.arange(view.base.n_rows)
    rows = np.asarray(rows, dtype=np.int64)
    x = view.base.features[rows]
    y = view.y()[rows]
    f = decision_values(model, x)
    yf = y * f
    caps = np.where(y > 0, model.weights.c_plus, model.weights.c_minus)
    alpha = np.zeros(rows.size)
    pos_of = {int(r): i for i, r in enumerate(rows)}
    for i in range(model.n_sv):
        alpha[pos_of[int(model.sv_rows[i])]] = model.sv_alphas[i]
    worst = 0.0
    at_zero = alpha == 0
    at_cap = alpha >= caps
    free = ~at_zero & ~at_cap
    if at_zero.any():
        worst = max(worst, float(np.max(1.0 - yf[at_zero], initial=0.0)))
    if at_cap.any():
        worst = max(worst, float(np.max(yf[at_cap] - 1.0, initial=0.0)))
    if free.any():
        worst = max(worst, float(np.max(np.abs(yf[free] - 1.0), initial=0.0)))
    return worst


def save_any_model(model: SvmModel, path) -> None:
    """Write the model as structured text lines (17 significant digits)."""
    lines = [
        "mlsvm-model v1",
        "kernel rbf",
        "gamma %.17g" % model.kernel.gamma,
        "c_plus %.17g" % model.weights.c_plus,
        "c_minus %.17g" % model.weights.c_minus,
        "bias %.17g" % model.bias,
        "n_features %d" % model.n_features,
        "n_sv %d" % model.n_sv,
    ]
    for i in range(model.n_sv):
        feats = " ".join("%.17g" % v for v in model.sv_features[i])
        lines.append("sv %d %.17g %s" % (int(model.sv_labels[i]),
                                         model.sv_alphas[i], feats))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_any_model(path) -> SvmModel:
    """Read a file written by save_any_model; a malformed file, or any header
    other than mlsvm-model v1, raises ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        return _model_from_lines(lines)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc


def _model_from_lines(lines: list[str]) -> SvmModel:
    if not lines or lines[0] != "mlsvm-model v1":
        raise ValueError("not an mlsvm-model v1 file")
    header = {}
    sv_lines = []
    for ln in lines[1:]:
        if ln.startswith("sv "):
            if len(ln.split()) < 3:
                raise ValueError("support-vector line needs a label and an "
                                 "alpha: %r" % ln)
            sv_lines.append(ln)
        elif ln.strip():
            k, v = ln.split(None, 1)
            header[k] = v
    absent = [k for k in ("gamma", "c_plus", "c_minus", "bias", "n_features", "n_sv")
              if k not in header]
    if absent:
        raise ValueError("model file lacks %s" % ", ".join(absent))
    n_features = int(header["n_features"])
    n_sv = int(header["n_sv"])
    if len(sv_lines) != n_sv:
        raise ValueError("expected %d support vectors, found %d"
                         % (n_sv, len(sv_lines)))
    feats = np.zeros((n_sv, n_features))
    labels = np.zeros(n_sv)
    alphas = np.zeros(n_sv)
    for i, ln in enumerate(sv_lines):
        toks = ln.split()
        labels[i] = float(toks[1])
        alphas[i] = float(toks[2])
        feats[i] = [float(t) for t in toks[3:]]
    return SvmModel(
        sv_features=feats,
        sv_labels=labels,
        sv_alphas=alphas,
        bias=float(header["bias"]),
        kernel=KernelParams(float(header["gamma"])),
        weights=ClassWeights(float(header["c_plus"]), float(header["c_minus"])),
    )
