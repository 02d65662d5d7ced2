"""Dataset model: file I/O, z-score normalization, missing-value injection.

The missingness mask is the single source of truth: masked cells hold NaN
sentinels so that any unguarded arithmetic surfaces immediately, and every
fitting routine excludes masked cells explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed."""


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with per-cell missingness mask and integer labels.

    features : (n_rows, n_features) float64, NaN where missing is True
    missing  : (n_rows, n_features) bool
    labels   : (n_rows,) int
    class_names : distinct label values, in order of first appearance
    feature_names : optional column names
    """

    features: np.ndarray
    missing: np.ndarray
    labels: np.ndarray
    class_names: tuple
    feature_names: tuple | None = None

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        missing = np.ascontiguousarray(self.missing, dtype=bool)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if missing.shape != features.shape:
            raise ValueError("missing mask shape %s != features shape %s"
                             % (missing.shape, features.shape))
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length %d != row count %d"
                             % (labels.shape[0], features.shape[0]))
        present = set(np.unique(labels).tolist())
        names = tuple(self.class_names)
        if set(names) != present or len(names) != len(present):
            raise ValueError("class_names must list every label value exactly once")
        if missing.any():
            features = features.copy()
            features[missing] = np.nan
        for arr in (features, missing, labels):
            arr.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", names)
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def has_missing(self) -> bool:
        return bool(self.missing.any())


@dataclass(frozen=True)
class BinaryView:
    """One-against-all view of a dataset: positive_class vs. everything else."""

    base: Dataset
    positive_class: int
    rows_positive: np.ndarray
    rows_negative: np.ndarray

    def y(self) -> np.ndarray:
        """Signed labels (+1 / -1) for every row of the base dataset."""
        out = np.full(self.base.n_rows, -1.0)
        out[self.rows_positive] = 1.0
        return out


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature mean/std fitted on observed cells of a row subset.

    Constant features (zero or undefined sample std) are flagged and map to 0.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray


def load_dataset(path, fmt: str = "delimited", *, label_column=-1,
                 missing_token: str = "?", delimiter: str = ",",
                 n_features: int | None = None) -> Dataset:
    """Load a dataset from delimited text or sparse index:value format.

    Delimited: optional header line, one label column, missing_token marks
    absent cells. Sparse: ``<label> <index>:<value> ...`` with 1-based indices;
    absent indices mean 0.0 and are NOT treated as missing.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = [(no + 1, ln) for no, ln in enumerate(raw.splitlines()) if ln.strip()]
    if not lines:
        raise DataFormatError("%s: empty file" % path)
    if fmt == "delimited":
        return _load_delimited(path, lines, label_column, missing_token,
                               delimiter)
    if fmt == "sparse":
        return _load_sparse(path, lines, n_features)
    raise ValueError("unknown format %r (expected 'delimited' or 'sparse')" % fmt)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _finite_label(path, no, column, tok):
    value = float(tok)
    if not math.isfinite(value):
        raise DataFormatError("%s: line %d column %d has non-finite label %r"
                              % (path, no, column, tok))
    if not value.is_integer():
        raise DataFormatError("%s: line %d column %d has non-integral label %r"
                              % (path, no, column, tok))
    return int(value)


def _load_delimited(path, lines, label_column, missing_token, delimiter):
    rows = [(no, [c.strip() for c in ln.split(delimiter)]) for no, ln in lines]
    arity = len(rows[0][1])
    feature_names = None
    first = rows[0][1]
    if isinstance(label_column, str) or any(
            not _is_float(tok) and tok != missing_token for tok in first):
        columns = first
        rows = rows[1:]
        if not rows:
            raise DataFormatError("%s: no data rows after header" % path)
    else:
        columns = None
    for no, cells in rows:
        if len(cells) != arity:
            raise DataFormatError("%s: line %d has %d fields, expected %d"
                                  % (path, no, len(cells), arity))
    if isinstance(label_column, str):
        if columns is None or label_column not in columns:
            raise DataFormatError("%s: unknown label column %r" % (path, label_column))
        label_idx = columns.index(label_column)
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += arity
        if not 0 <= label_idx < arity:
            raise DataFormatError("%s: label column index %s out of range"
                                  % (path, label_column))
    if columns is not None:
        feature_names = tuple(c for i, c in enumerate(columns) if i != label_idx)
    n_f = arity - 1
    l = len(rows)
    features = np.zeros((l, n_f))
    mask = np.zeros((l, n_f), dtype=bool)
    labels = np.zeros(l, dtype=np.int64)
    for r, (no, cells) in enumerate(rows):
        lab_tok = cells[label_idx]
        if lab_tok == missing_token or not _is_float(lab_tok):
            raise DataFormatError("%s: line %d has unparseable label %r"
                                  % (path, no, lab_tok))
        labels[r] = _finite_label(path, no, label_idx + 1, lab_tok)
        c = 0
        for i, tok in enumerate(cells):
            if i == label_idx:
                continue
            if tok == missing_token:
                mask[r, c] = True
                features[r, c] = np.nan
            elif _is_float(tok):
                features[r, c] = float(tok)
            else:
                raise DataFormatError("%s: line %d column %d has unparseable value %r"
                                      % (path, no, i + 1, tok))
            c += 1
    bad = ~(np.isfinite(features) | mask)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        i = c + (c >= label_idx)
        no, cells = rows[r]
        raise DataFormatError("%s: line %d column %d has non-finite value %r"
                              % (path, no, i + 1, cells[i]))
    return Dataset(features, mask, labels, _class_order(labels), feature_names)


def _load_sparse(path, lines, n_features):
    parsed = []
    max_idx = 0
    for no, ln in lines:
        toks = ln.split()
        if not _is_float(toks[0]):
            raise DataFormatError("%s: line %d has unparseable label %r"
                                  % (path, no, toks[0]))
        label = _finite_label(path, no, 1, toks[0])
        pairs = []
        seen = set()
        for tok in toks[1:]:
            if ":" not in tok:
                raise DataFormatError("%s: line %d has malformed pair %r"
                                      % (path, no, tok))
            idx_s, val_s = tok.split(":", 1)
            if not idx_s.isdigit() or not _is_float(val_s):
                raise DataFormatError("%s: line %d has malformed pair %r"
                                      % (path, no, tok))
            idx = int(idx_s)
            if idx < 1:
                raise DataFormatError("%s: line %d index %d is not 1-based"
                                      % (path, no, idx))
            if idx in seen:
                raise DataFormatError("%s: line %d repeats index %d" % (path, no, idx))
            seen.add(idx)
            pairs.append((idx, float(val_s)))
            max_idx = max(max_idx, idx)
        parsed.append((no, label, pairs))
    n_f = n_features if n_features is not None else max_idx
    if max_idx > n_f:
        raise DataFormatError("%s: index %d exceeds n_features=%d" % (path, max_idx, n_f))
    l = len(parsed)
    features = np.zeros((l, n_f))
    labels = np.zeros(l, dtype=np.int64)
    for r, (_, label, pairs) in enumerate(parsed):
        labels[r] = label
        for idx, val in pairs:
            features[r, idx - 1] = val
    bad = ~np.isfinite(features)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataFormatError("%s: line %d index %d has non-finite value %r"
                              % (path, parsed[r][0], c + 1, float(features[r, c])))
    mask = np.zeros((l, n_f), dtype=bool)
    return Dataset(features, mask, labels, _class_order(labels))


def _class_order(labels: np.ndarray) -> tuple:
    _, first = np.unique(labels, return_index=True)
    return tuple(int(labels[i]) for i in np.sort(first))


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_dataset(data: Dataset, path, fmt: str = "delimited", *,
                  delimiter: str = ",", missing_token: str = "?") -> None:
    """Write a dataset in canonical form (17 significant digits per value)."""
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "delimited":
            if data.feature_names is not None:
                fh.write(delimiter.join(list(data.feature_names) + ["label"]) + "\n")
            for r in range(data.n_rows):
                cells = [missing_token if data.missing[r, c] else _fmt(data.features[r, c])
                         for c in range(data.n_features)]
                cells.append(str(int(data.labels[r])))
                fh.write(delimiter.join(cells) + "\n")
        elif fmt == "sparse":
            if data.has_missing():
                raise ValueError("sparse format cannot express missing cells")
            for r in range(data.n_rows):
                toks = [str(int(data.labels[r]))]
                for c in range(data.n_features):
                    v = data.features[r, c]
                    if v != 0.0:
                        toks.append("%d:%s" % (c + 1, _fmt(v)))
                fh.write(" ".join(toks) + "\n")
        else:
            raise ValueError("unknown format %r" % fmt)


def observed_mean(x: np.ndarray, missing: np.ndarray, feature_names) -> np.ndarray:
    """Per-column mean of x's unmasked cells; a column with none raises ValueError."""
    counts = (~missing).sum(axis=0)
    if (counts == 0).any():
        col = int(np.argmax(counts == 0))
        name = feature_names[col] if feature_names else str(col)
        raise ValueError("feature %r has no observed values" % name)
    return np.where(missing, 0.0, x).sum(axis=0) / counts


def fit_normalization(data: Dataset, rows) -> NormalizationStats:
    """Fit per-feature mean and sample (n-1) std on the observed cells of rows."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("rows must be nonempty")
    x = data.features[rows]
    missing = data.missing[rows]
    mean = observed_mean(x, missing, data.feature_names)
    counts = (~missing).sum(axis=0)
    dev = np.where(missing, 0.0, x - mean)
    sq = (dev * dev).sum(axis=0)
    std = np.zeros_like(mean)
    ok = counts > 1
    std[ok] = np.sqrt(sq[ok] / (counts[ok] - 1))
    constant = (std == 0.0) | ~ok
    std = np.where(constant, 1.0, std)
    return NormalizationStats(mean=mean, std=std, constant=constant)


def apply_normalization(data: Dataset, stats: NormalizationStats) -> Dataset:
    """Shift/scale observed cells by the fitted stats; constant features map to 0.

    Missing cells stay missing. Applying twice rescales twice (not idempotent).
    """
    if stats.mean.shape[0] != data.n_features:
        raise ValueError("stats fitted on %d features, dataset has %d"
                         % (stats.mean.shape[0], data.n_features))
    x = (data.features - stats.mean) / stats.std
    x[:, stats.constant] = 0.0
    x[data.missing] = np.nan
    return Dataset(x, data.missing, data.labels, data.class_names, data.feature_names)


def inject_missing(data: Dataset, rate: float, seed: int) -> Dataset:
    """Mask exactly floor(rate * n_rows * n_features) distinct cells, seeded.

    Cells are drawn uniformly over the whole matrix; labels are untouched.
    Any pre-existing mask is unioned with the new one.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1), got %r" % rate)
    size = data.n_rows * data.n_features
    count = int(math.floor(rate * size + 1e-9))
    if count == 0:
        return data
    rng = np.random.default_rng(seed)
    flat = rng.choice(size, size=count, replace=False)
    mask = data.missing.copy()
    mask.flags.writeable = True
    mask[np.unravel_index(flat, mask.shape)] = True
    return Dataset(data.features, mask, data.labels, data.class_names,
                   data.feature_names)


def binary_view(data: Dataset, positive_class: int) -> BinaryView:
    """Split rows into positive (label == positive_class) and the rest."""
    if positive_class not in data.class_names:
        raise ValueError("class %r not present in dataset (classes: %s)"
                         % (positive_class, list(data.class_names)))
    pos = np.flatnonzero(data.labels == positive_class)
    neg = np.flatnonzero(data.labels != positive_class)
    return BinaryView(base=data, positive_class=positive_class,
                      rows_positive=pos, rows_negative=neg)


def take_rows(data: Dataset, rows) -> Dataset:
    """Dataset restricted to the given rows (class_names recomputed)."""
    rows = np.asarray(rows, dtype=np.int64)
    labels = data.labels[rows]
    return Dataset(data.features[rows], data.missing[rows], labels,
                   _class_order(labels), data.feature_names)
