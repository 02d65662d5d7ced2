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

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from mlsvm.data import (BinaryView, Dataset, NormalizationStats,
                        apply_normalization, fit_normalization)
from mlsvm.imputation import MeanImputer, RemConfig, RemImputer, fit_imputer

_TAU = 1e-12
_MAX_ITERATIONS = 1_000_000   # SMO steps before giving up on the tolerance
_PREDICT_BLOCK = 2048         # points per kernel block in decision_values


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
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be >= 0")


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
    """Kernel matrix exp(-gamma ||a_i - b_j||^2), shape (len(a), len(b)).

    Holds at most two matrices of that shape at once: the steps after the
    product run in place on the distance matrix.
    """
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    ab = a @ b.T
    ab *= 2.0
    d2 = np.add.outer(sq_a, sq_b)
    d2 -= ab
    del ab
    np.maximum(d2, 0.0, out=d2)
    d2 *= -gamma
    return np.exp(d2, out=d2)


class _RowCache:
    """LRU cache of kernel rows under a byte budget (0 disables caching).

    The rows live in one buffer allocated per solve, a fixed slot each; a
    missed row takes the next free slot, or the least recently used row's
    once all are taken. A returned row stays valid until two more rows have
    been fetched. One buffer instead of one array per row leaves no freed
    rows behind in the heap when the solve ends.
    """

    def __init__(self, x: np.ndarray, gamma: float, budget_bytes: int):
        self.x = x
        self.gamma = gamma
        self.sq = np.einsum("ij,ij->i", x, x)
        n = x.shape[0]
        slots = min(n, max(2, int(budget_bytes // (8 * max(n, 1))))) if budget_bytes > 0 else 0
        self._slab = np.empty((slots, n))
        self._slot: OrderedDict[int, int] = OrderedDict()   # row -> slot, oldest first

    def row(self, i: int) -> np.ndarray:
        slot = self._slot.get(i)
        if slot is not None:
            self._slot.move_to_end(i)
            return self._slab[slot]
        out = None
        if len(self._slab):
            if len(self._slot) < len(self._slab):
                slot = len(self._slot)
            else:
                _, slot = self._slot.popitem(last=False)
            self._slot[i] = slot
            out = self._slab[slot]
        d2 = self.sq + self.sq[i] - 2.0 * (self.x @ self.x[i])
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-self.gamma * d2, out=out)


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


def decision_values(model: SvmModel, points: np.ndarray) -> np.ndarray:
    """f(x) for each row of points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.n_features:
        raise ValueError("points must be (n, %d)" % model.n_features)
    coef = model.sv_alphas * model.sv_labels
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _PREDICT_BLOCK):
        stop = min(start + _PREDICT_BLOCK, points.shape[0])
        k = _rbf_block(points[start:stop], model.sv_features, model.kernel.gamma)
        out[start:stop] = k @ coef
    return out + model.bias


def predict(model: SvmModel, points: np.ndarray):
    """Labels (+1/-1; f(x)=0 resolves to -1) and raw margins for each point."""
    margins = decision_values(model, points)
    labels = np.where(margins > 0, 1.0, -1.0)
    return labels, margins


@dataclass
class Pipeline:
    """Normalization and imputer fitted on training rows, and the model:
    transform() z-scores raw rows with the training statistics and completes
    their missing cells with the imputer; predict() classifies the result."""

    stats: NormalizationStats
    imputer: RemImputer | MeanImputer | None
    model: SvmModel | None = None     # set once trained

    def transform(self, data: Dataset) -> Dataset:
        data = apply_normalization(data, self.stats)
        if self.imputer is None and data.has_missing():
            raise ValueError("input has missing cells and the model has no imputer")
        return data if self.imputer is None else self.imputer.transform(data)

    def predict(self, data: Dataset):
        """Labels and margins, as predict() gives them, for raw rows of data."""
        return predict(self.model, self.transform(data).features)


def fit_pipeline(data: Dataset, imputer: str = "rem",
                 config: RemConfig | None = None):
    """Fit normalization on every row of data, then the named imputer (see
    fit_imputer) on the normalized rows; return the Pipeline, with no model
    yet, and data normalized and completed by it."""
    stats = fit_normalization(data, np.arange(data.n_rows))
    imp, done = fit_imputer(imputer, apply_normalization(data, stats), config)
    return Pipeline(stats, imp), done


def _vector(key: str, values) -> str:
    return " ".join([key] + ["%.17g" % v for v in np.ravel(values)])


def _pipeline_lines(pipe: Pipeline) -> list[str]:
    imp, stats = pipe.imputer, pipe.stats
    lines = [_vector("norm_mean", stats.mean), _vector("norm_std", stats.std),
             _vector("norm_constant", stats.constant.astype(int))]
    if imp is None:
        return lines + ["imputer none"]
    if isinstance(imp, MeanImputer):
        return lines + ["imputer mean", _vector("imputer_mean", imp.mean_)]
    reg = imp.config.regularization
    return lines + ["imputer rem", "rem_n %d" % imp.n_, _vector("rem_mean", imp.mean_),
                    _vector("rem_scatter", imp.scatter_), "rem_regularization "
                    + ("auto" if reg is None else "%.17g" % reg)]


def save_any_model(model: SvmModel | Pipeline, path) -> None:
    """Write an SvmModel as an mlsvm-model v1 file, or a Pipeline as v2 (v1's
    lines plus its normalization and imputer state), at 17 significant digits."""
    pipe = model if isinstance(model, Pipeline) else None
    model = model.model if pipe else model
    lines = [
        "mlsvm-model v2" if pipe else "mlsvm-model v1",
        "kernel rbf",
        "gamma %.17g" % model.kernel.gamma,
        "c_plus %.17g" % model.weights.c_plus,
        "c_minus %.17g" % model.weights.c_minus,
        "bias %.17g" % model.bias,
        "n_features %d" % model.n_features,
        "n_sv %d" % model.n_sv,
    ] + (_pipeline_lines(pipe) if pipe else [])
    for i in range(model.n_sv):
        lines.append(_vector("sv %d" % model.sv_labels[i],
                             np.r_[model.sv_alphas[i], model.sv_features[i]]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_any_model(path) -> SvmModel | Pipeline:
    """Read a file written by save_any_model (v1: SvmModel, v2: Pipeline); a
    malformed file, or any other header, raises ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        return _model_from_lines(lines)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc


def _number(no: int, key: str, tok: str, kind=float):
    """tok as a finite float, or as a nonnegative int when kind is int; else
    ValueError naming the line and key."""
    try:
        value = kind(tok)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (kind is float or value >= 0)):
        raise ValueError("line %d: %s has invalid value %r" % (no, key, tok))
    return value


def _field(header: dict, key: str, count: int | None = None, kind=float):
    """The one value of header key, an array of its count values, or (kind
    None) its tokens; a missing key, count or bad value raises ValueError."""
    if key not in header:
        raise ValueError("model file lacks %s" % key)
    no, toks = header[key]
    if kind is None:
        return toks
    if len(toks) != (count or 1):
        raise ValueError("line %d: %s needs %s" % (no, key, "exactly one value"
                         if count is None else "%d values" % count))
    values = [_number(no, key, tok, kind) for tok in toks]
    return values[0] if count is None else np.array(values)


def _model_from_lines(lines: list[str]) -> SvmModel | Pipeline:
    version = lines[0] if lines else ""
    if version not in ("mlsvm-model v1", "mlsvm-model v2"):
        raise ValueError("not an mlsvm-model v1 file or v2 pipeline")
    header, svs = {}, []
    for no, ln in enumerate(lines[1:], 2):
        toks = ln.split()
        if toks[:1] == ["sv"]:
            svs.append((no, toks[1:]))
        elif toks:
            header[toks[0]] = (no, toks[1:])
    gamma, c_plus, c_minus, bias = (_field(header, k)
                                    for k in ("gamma", "c_plus", "c_minus", "bias"))
    n_features, n_sv = (_field(header, k, kind=int) for k in ("n_features", "n_sv"))
    if len(svs) != n_sv:
        raise ValueError("expected %d support vectors, found %d" % (n_sv, len(svs)))
    table = np.zeros((n_sv, 2 + n_features))
    for i, (no, toks) in enumerate(svs):
        if len(toks) != 2 + n_features:
            raise ValueError("line %d: sv needs a label, an alpha and %d features"
                             % (no, n_features))
        label = _number(no, "sv label", toks[0])
        if abs(label) != 1:
            raise ValueError("line %d: sv label %r is not +1 or -1" % (no, toks[0]))
        table[i] = [label, _number(no, "sv alpha", toks[1])] + [
            _number(no, "sv feature", tok) for tok in toks[2:]]
    model = SvmModel(
        sv_features=np.ascontiguousarray(table[:, 2:]),
        sv_labels=table[:, 0].copy(),
        sv_alphas=table[:, 1].copy(),
        bias=bias,
        kernel=KernelParams(gamma),
        weights=ClassWeights(c_plus, c_minus),
    )
    return model if version.endswith("v1") else _pipeline_from(header, model)


def _pipeline_from(header: dict, model: SvmModel) -> Pipeline:
    p = model.n_features
    std = _field(header, "norm_std", p)
    constant = _field(header, "norm_constant", p, kind=int)
    if (std <= 0).any() or (constant > 1).any():
        raise ValueError("norm_std must be positive and norm_constant 0 or 1")
    stats = NormalizationStats(_field(header, "norm_mean", p), std, constant == 1)
    imp, kind = None, _field(header, "imputer", kind=None)
    if kind == ["mean"]:
        imp = MeanImputer()
        imp.mean_ = _field(header, "imputer_mean", p)
    elif kind == ["rem"]:
        reg = _field(header, "rem_regularization", kind=None)
        imp = RemImputer(RemConfig(regularization=None if reg == ["auto"] else
                                   _field(header, "rem_regularization")))
        imp.n_ = _field(header, "rem_n", kind=int)
        imp.mean_ = _field(header, "rem_mean", p)
        imp.scatter_ = _field(header, "rem_scatter", p * p).reshape(p, p)
    elif kind != ["none"]:
        raise ValueError("imputer %r is not rem, mean or none" % " ".join(kind))
    return Pipeline(stats, imp, model)
