"""Dataset model: file I/O, z-score normalization, missing-value injection.

A missing cell is NaN and a NaN is a missing cell: a Dataset derives its
mask from its features, so the two cannot disagree, and refuses infinities.
Unguarded arithmetic on a missing cell surfaces as NaN; every fitting
routine excludes masked cells explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed."""


@dataclass(frozen=True)
class Dataset:
    """Dense feature matrix with integer labels; NaN marks a missing cell.

    features : (n_rows, n_features) float64, NaN where missing, no infinities
    labels   : (n_rows,) int
    class_names : distinct label values, in order of first appearance
    feature_names : optional column names
    missing  : (n_rows, n_features) bool, np.isnan(features) (derived, read-only)
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple
    feature_names: tuple | None = None
    missing: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if labels.ndim != 1:        # a mask passed where the labels go
            raise ValueError("labels must be 1-d; missing cells are now NaN in "
                             "features, not a mask argument")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels length %d != row count %d"
                             % (labels.shape[0], features.shape[0]))
        present = set(np.unique(labels).tolist())
        names = tuple(self.class_names)
        if set(names) != present or len(names) != len(present):
            raise ValueError("class_names must list every label value exactly once")
        if np.isinf(features).any():
            r, c = np.argwhere(np.isinf(features))[0]
            raise ValueError("row %d column %d is %r; a cell is finite, or NaN when "
                             "missing" % (r, c, float(features[r, c])))
        missing = np.isnan(features)
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
    """Load a delimited or sparse (``<label> <index>:<value> ...``, 1-based,
    absent indices 0.0, not missing) UTF-8 file; a leading BOM is dropped.
    Each cell is read once, as float() reads it, and must be finite; a label
    must be an integer within int64; the first bad cell in file order raises
    DataFormatError. A delimited first row is a header only when label_column
    is a name or its label cell is not a number (nor missing_token)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def _value(tok, missing_token):
    """The cell rule: NaN for missing_token, else float(tok) when finite;
    ValueError("unparseable") or ValueError("non-finite") otherwise."""
    if tok == missing_token:
        return math.nan
    try:
        value = float(tok)
    except ValueError:
        raise ValueError("unparseable") from None
    if math.isfinite(value):
        return value
    raise ValueError("non-finite")


def _label_fault(value, tok, missing_token):
    """None when value, tok read by the cell rule, is a class label: not
    missing, and an integer within int64; else what is wrong with it."""
    if value.is_integer() and abs(value) < 2.0 ** 63:     # NaN fails
        return None
    return ("unparseable" if tok == missing_token else
            "out-of-range" if value.is_integer() else "non-integral")


def _row(path, no, cells, label_idx, missing_token):
    """(label, feature values) of one row's cells, read by the cell rule; a
    bad row raises DataFormatError naming its first bad cell."""
    try:
        values = [_value(tok, missing_token) for tok in cells]
        label = values.pop(label_idx)
        if _label_fault(label, cells[label_idx], missing_token) is None:
            return int(label), values
    except ValueError:
        pass
    for i, tok in enumerate(cells):
        try:
            value = _value(tok, missing_token)
            fault = _label_fault(value, tok, missing_token) if i == label_idx else None
        except ValueError as exc:
            fault = str(exc)
        what = "label" if i == label_idx else "value"
        if fault == "unparseable" and what == "label":
            raise DataFormatError("%s: line %d has unparseable label %r" % (path, no, tok))
        if fault is not None:
            raise DataFormatError("%s: line %d column %d has %s %s %r"
                                  % (path, no, i + 1, fault, what, tok))


def _load_delimited(path, lines, label_column, missing_token, delimiter):
    first = [c.strip() for c in lines[0][1].split(delimiter)]
    arity = len(first)
    if isinstance(label_column, str):
        if label_column not in first:
            raise DataFormatError("%s: unknown label column %r" % (path, label_column))
        label_idx = first.index(label_column)
        header = True
    else:
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += arity
        if not 0 <= label_idx < arity:
            raise DataFormatError("%s: label column index %s out of range"
                                  % (path, label_column))
        try:
            _value(first[label_idx], missing_token)
            header = False
        except ValueError as exc:       # a header's label cell is a name
            header = str(exc) == "unparseable"
    feature_names = None
    if header:
        feature_names = tuple(first[:label_idx] + first[label_idx + 1:])
        lines = lines[1:]
        if not lines:
            raise DataFormatError("%s: no data rows after header" % path)
    labels, features = [], []
    for no, ln in lines:    # split here, so one row's tokens are held at a time
        cells = [c.strip() for c in ln.split(delimiter)]
        if len(cells) != arity:
            raise DataFormatError("%s: line %d has %d fields, expected %d"
                                  % (path, no, len(cells), arity))
        label, values = _row(path, no, cells, label_idx, missing_token)
        labels.append(label)
        features.append(values)
    features, labels = np.array(features), np.array(labels, dtype=np.int64)
    return Dataset(features, labels, _class_order(labels), feature_names)


def _load_sparse(path, lines, n_features):
    labels, rows, cols, values = [], [], [], []
    for r, (no, ln) in enumerate(lines):
        toks = ln.split()
        labels.append(_row(path, no, toks[:1], 0, None)[0])
        seen = set()
        for tok in toks[1:]:
            idx_s, colon, val_s = tok.partition(":")
            try:
                value, fault = _value(val_s, None), None
            except ValueError as exc:
                value, fault = None, str(exc)
            if not (colon and idx_s.isdigit()) or fault == "unparseable":
                raise DataFormatError("%s: line %d has malformed pair %r"
                                      % (path, no, tok))
            idx = int(idx_s)
            if idx < 1:
                raise DataFormatError("%s: line %d index %d is not 1-based"
                                      % (path, no, idx))
            if idx in seen:
                raise DataFormatError("%s: line %d repeats index %d" % (path, no, idx))
            if fault is not None:
                raise DataFormatError("%s: line %d index %d has non-finite value %r"
                                      % (path, no, idx, float(val_s)))
            seen.add(idx)
            rows.append(r)
            cols.append(idx - 1)
            values.append(value)
    max_idx = max(cols, default=-1) + 1
    n_f = n_features if n_features is not None else max_idx
    if max_idx > n_f:
        raise DataFormatError("%s: index %d exceeds n_features=%d" % (path, max_idx, n_f))
    features = np.zeros((len(lines), n_f))
    features[rows, cols] = values
    return Dataset(features, labels, _class_order(np.array(labels)))


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
    return Dataset(x, data.labels, data.class_names, data.feature_names)


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
    x = data.features.copy()
    x[np.unravel_index(flat, x.shape)] = np.nan
    return Dataset(x, data.labels, data.class_names, data.feature_names)


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
    return Dataset(data.features[rows], labels, _class_order(labels),
                   data.feature_names)
