"""Tabular ingestion: CSV loading, encoding, normalization, splits.

A DatasetSpec (JSON, human-editable) names the feature columns and
their kinds, the label column with its favorable value, and the
sensitive column with the predicate that defines the privileged group.
Encoding expands categoricals one-hot, min-max scales numerics into
[0, 1], and replaces the sensitive column by a single 0/1 column
(1 = privileged) whose position is the sensitive index the selector
masks. Min/max statistics can be fitted on a subset of rows (the
training split) and reused, so validation and test never leak into the
normalizer; out-of-range values are clipped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError

MISSING_TOKENS = {"", "?", "NA"}

COLUMN_KINDS = ("numeric", "categorical")

_PREDICATE_OPS = ("eq", "in", "ge", "gt", "le", "lt")


@dataclass
class Predicate:
    """Membership test for the privileged group, evaluated on raw cells.

    eq/in compare the raw string; ge/gt/le/lt parse the cell as a number.
    """

    op: str
    value: object = None
    values: tuple = ()

    def __post_init__(self):
        if self.op not in _PREDICATE_OPS:
            raise DataError(f"unknown predicate op {self.op!r}")
        if self.op == "in":
            if not self.values:
                raise DataError("'in' predicate needs a nonempty values list")
            self.values = tuple(str(v) for v in self.values)
        elif self.value is None:
            raise DataError(f"predicate op {self.op!r} needs a value")

    def matches(self, cell):
        if self.op == "eq":
            return str(cell) == str(self.value)
        if self.op == "in":
            return str(cell) in self.values
        x = float(cell)
        ref = float(self.value)
        if self.op == "ge":
            return x >= ref
        if self.op == "gt":
            return x > ref
        if self.op == "le":
            return x <= ref
        return x < ref

    def to_dict(self):
        if self.op == "in":
            return {"op": "in", "values": list(self.values)}
        return {"op": self.op, "value": self.value}

    @classmethod
    def from_dict(cls, d):
        return cls(op=d.get("op"), value=d.get("value"),
                   values=tuple(d.get("values", ())))


@dataclass
class ColumnSpec:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")


@dataclass
class DatasetSpec:
    """Schema of one tabular dataset, loadable from JSON."""

    columns: list
    label_column: str
    favorable_value: str
    sensitive_column: str
    privileged: Predicate
    drop_columns: tuple = ()
    name: str = ""

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in spec")
        if self.sensitive_column not in names:
            raise DataError(f"sensitive column {self.sensitive_column!r} "
                            "is not among the feature columns")
        if self.label_column in names:
            raise DataError(f"label column {self.label_column!r} must not be "
                            "listed as a feature column")
        overlap = set(self.drop_columns) & (set(names) | {self.label_column})
        if overlap:
            raise DataError(f"drop columns overlap used columns: {sorted(overlap)}")
        kind = next(c.kind for c in self.columns if c.name == self.sensitive_column)
        if self.privileged.op in ("ge", "gt", "le", "lt") and kind != "numeric":
            raise DataError("numeric predicate on a categorical sensitive column")

    @classmethod
    def from_dict(cls, d):
        try:
            columns = [ColumnSpec(c["name"], c["kind"]) for c in d["columns"]]
            return cls(
                columns=columns,
                label_column=d["label"]["column"],
                favorable_value=str(d["label"]["favorable"]),
                sensitive_column=d["sensitive"]["column"],
                privileged=Predicate.from_dict(d["sensitive"]["privileged"]),
                drop_columns=tuple(d.get("drop", ())),
                name=d.get("name", ""),
            )
        except KeyError as exc:
            raise DataError(f"dataset spec is missing field {exc}") from None

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read dataset spec {path}: {exc}") from None

    def to_dict(self):
        return {
            "name": self.name,
            "columns": [{"name": c.name, "kind": c.kind} for c in self.columns],
            "label": {"column": self.label_column, "favorable": self.favorable_value},
            "sensitive": {"column": self.sensitive_column,
                          "privileged": self.privileged.to_dict()},
            "drop": list(self.drop_columns),
        }


@dataclass
class RawTable:
    """Typed column-major view of one CSV file."""

    spec: DatasetSpec
    feature_values: dict           # column name -> list (float or str)
    label_values: list             # raw label strings
    n_rejected: int = 0            # rows dropped for missing cells

    @property
    def n_rows(self):
        return len(self.label_values)


def load_csv(path, spec):
    """Parse a headered RFC-4180 CSV against a DatasetSpec.

    Rows with missing cells in any used column are rejected (counted in
    the result, never imputed). Numeric cells that do not parse as a
    finite number (including nan and inf) raise a DataError naming the
    data row (1-based, header excluded) and column.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}

        used = [c.name for c in spec.columns] + [spec.label_column]
        missing = [name for name in used if name not in col_index]
        if missing:
            raise DataError(f"{path}: header is missing column(s) {missing}")

        feature_values = {c.name: [] for c in spec.columns}
        label_values = []
        n_rejected = 0
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            cells = {}
            skip = False
            for name in used:
                i = col_index[name]
                cell = row[i].strip() if i < len(row) else ""
                if cell in MISSING_TOKENS:
                    skip = True
                    break
                cells[name] = cell
            if skip:
                n_rejected += 1
                continue
            for c in spec.columns:
                cell = cells[c.name]
                if c.kind == "numeric":
                    try:
                        cell = float(cell)
                    except ValueError:
                        cell = math.nan
                    if not math.isfinite(cell):
                        raise DataError(
                            f"{path}: row {row_no}, column {c.name!r}: "
                            f"cannot parse {cells[c.name]!r} as a finite number")
                feature_values[c.name].append(cell)
            label_values.append(cells[spec.label_column])
    return RawTable(spec, feature_values, label_values, n_rejected)


@dataclass
class Dataset:
    """Encoded, normalized matrix form ready for training."""

    features: np.ndarray           # (n, d) in [0, 1]
    labels: np.ndarray             # (n, c) one-hot, class 1 = favorable
    sensitive_index: int
    group_tags: np.ndarray         # (n,) bool, True = privileged
    column_names: list
    encoder: "Encoder" = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.group_tags = np.asarray(self.group_tags, dtype=bool)
        n, d = self.features.shape
        if not ((self.features >= 0) & (self.features <= 1)).all():
            raise DataError("features must lie in [0, 1]")
        if self.labels.shape[0] != n or self.group_tags.shape != (n,):
            raise DimensionError("dataset rows", n,
                                 (self.labels.shape[0], self.group_tags.shape))
        if n and not np.allclose(self.labels.sum(axis=1), 1.0):
            raise DataError("label rows must be one-hot")
        if not 0 <= self.sensitive_index < d:
            raise DataError(f"sensitive index {self.sensitive_index} out of range")
        if len(self.column_names) != d:
            raise DimensionError("column names", d, len(self.column_names))

    @property
    def n(self):
        return self.features.shape[0]

    def subset(self, idx):
        return Dataset(self.features[idx], self.labels[idx],
                       self.sensitive_index, self.group_tags[idx],
                       self.column_names, self.encoder)

    def label_indices(self):
        return self.labels.argmax(axis=1)


@dataclass
class Encoder:
    """Fitted column transforms: one-hot vocabularies, min-max ranges,
    and the sensitive-column binarization. Serializable so checkpoints
    can re-encode new data exactly as at training time."""

    spec: DatasetSpec
    layout: list = field(default_factory=list)   # per spec column: dict
    sensitive_index: int = -1
    column_names: list = field(default_factory=list)

    @classmethod
    def fit(cls, raw, spec, stat_rows=None):
        """Fit transforms from a RawTable.

        stat_rows restricts min/max fitting to those row indices (pass
        the training-split rows to avoid leakage). One-hot vocabularies
        use every row: the category set is schema, not statistics.
        """
        if raw.n_rows == 0:
            raise DataError("cannot encode a table with zero rows")
        enc = cls(spec=spec)
        out_pos = 0
        for c in spec.columns:
            vals = raw.feature_values[c.name]
            if c.name == spec.sensitive_column:
                enc.layout.append({"name": c.name, "role": "sensitive"})
                enc.sensitive_index = out_pos
                enc.column_names.append(c.name)
                out_pos += 1
            elif c.kind == "numeric":
                pool = vals if stat_rows is None else [vals[i] for i in stat_rows]
                vmin, vmax = float(min(pool)), float(max(pool))
                enc.layout.append({"name": c.name, "role": "numeric",
                                   "min": vmin, "max": vmax})
                enc.column_names.append(c.name)
                out_pos += 1
            else:
                cats = sorted(set(vals))
                enc.layout.append({"name": c.name, "role": "categorical",
                                   "categories": cats})
                enc.column_names.extend(f"{c.name}={cat}" for cat in cats)
                out_pos += len(cats)
        return enc

    @property
    def dim(self):
        return len(self.column_names)

    def transform(self, raw, rows=None):
        """Encode (a subset of) a RawTable into a Dataset."""
        if raw.n_rows == 0:
            raise DataError("cannot encode a table with zero rows")
        idx = list(range(raw.n_rows)) if rows is None else list(rows)
        n = len(idx)
        features = np.zeros((n, self.dim))
        pos = 0
        spec = self.spec
        for item in self.layout:
            vals = raw.feature_values[item["name"]]
            cells = [vals[i] for i in idx]
            if item["role"] == "sensitive":
                features[:, pos] = [1.0 if spec.privileged.matches(v) else 0.0
                                    for v in cells]
                pos += 1
            elif item["role"] == "numeric":
                lo, hi = item["min"], item["max"]
                col = np.asarray(cells, dtype=np.float64)
                if hi > lo:
                    col = (col - lo) / (hi - lo)
                else:
                    col = np.zeros(n)
                # train-fitted range: out-of-range validation/test values clip
                features[:, pos] = np.clip(col, 0.0, 1.0)
                pos += 1
            else:
                lookup = {cat: j for j, cat in enumerate(item["categories"])}
                for r, v in enumerate(cells):
                    j = lookup.get(v)
                    if j is not None:
                        features[r, pos + j] = 1.0
                pos += len(item["categories"])

        raw_labels = [raw.label_values[i] for i in idx]
        fav = np.array([v == spec.favorable_value for v in raw_labels])
        labels = np.zeros((n, 2))
        labels[np.arange(n), fav.astype(int)] = 1.0

        tags = features[:, self.sensitive_index] == 1.0
        return Dataset(features, labels, self.sensitive_index, tags,
                       list(self.column_names), self)

    def to_payload(self):
        return {"spec": self.spec.to_dict(), "layout": self.layout,
                "sensitive_index": self.sensitive_index,
                "column_names": list(self.column_names)}

    @classmethod
    def from_payload(cls, payload):
        try:
            return cls(spec=DatasetSpec.from_dict(payload["spec"]),
                       layout=payload["layout"],
                       sensitive_index=payload["sensitive_index"],
                       column_names=list(payload["column_names"]))
        except KeyError as exc:
            raise DataError(f"encoder payload missing field {exc}") from None


def split_indices(n, seed):
    """Seeded shuffle, then 60/20/20 row indices (remainder to train)."""
    if n < 5:
        raise DataError(f"need at least 5 rows to split, got {n}")
    n_val = n // 5
    n_test = n // 5
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)
    return (perm[:n_train], perm[n_train:n_train + n_val],
            perm[n_train + n_val:])


def split(dataset, seed):
    """60/20/20 split of an encoded Dataset; deterministic per seed."""
    tr, va, te = split_indices(dataset.n, seed)
    return dataset.subset(tr), dataset.subset(va), dataset.subset(te)


def prepare_splits(raw, spec, seed):
    """Split raw rows 60/20/20, fit the encoder's statistics on the
    training rows only, and encode all three splits with it."""
    tr, va, te = split_indices(raw.n_rows, seed)
    enc = Encoder.fit(raw, spec, stat_rows=tr)
    return enc.transform(raw, tr), enc.transform(raw, va), enc.transform(raw, te)


SYNTH_COLUMNS = ["sensitive", "proxy", "informative", "noise_0", "noise_1"]


def _synth_encoder():
    spec = DatasetSpec(
        columns=[ColumnSpec(name, "numeric") for name in SYNTH_COLUMNS],
        label_column="outcome",
        favorable_value="1",
        sensitive_column="sensitive",
        privileged=Predicate(op="ge", value=0.5),
        name="synthetic-proxy",
    )
    enc = Encoder(spec=spec)
    for i, name in enumerate(SYNTH_COLUMNS):
        if name == "sensitive":
            enc.layout.append({"name": name, "role": "sensitive"})
            enc.sensitive_index = i
        else:
            enc.layout.append({"name": name, "role": "numeric",
                               "min": 0.0, "max": 1.0})
        enc.column_names.append(name)
    return enc


def synth_proxy(n, proxy_correlation, seed, label_shift=1.5, signal=4.0):
    """Synthetic binary dataset with a controllable sensitive proxy.

    Columns: a sensitive bit (privileged = 1), a proxy equal to the
    sensitive bit with probability proxy_correlation (otherwise a fresh
    fair coin), one informative feature that drives the label, and two
    pure-noise features. The label leans on the sensitive bit
    (label_shift) on top of the informative signal, so a classifier
    trained on all features shows a true-positive-rate gap between the
    groups.
    """
    if n < 100:
        raise DataError(f"synthetic dataset needs n >= 100, got {n}")
    if not 0.0 <= proxy_correlation <= 1.0:
        raise DataError("proxy correlation must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < 0.5).astype(np.float64)
    copy_mask = rng.random(n) < proxy_correlation
    proxy = np.where(copy_mask, a, (rng.random(n) < 0.5).astype(np.float64))
    info = rng.random(n)
    noise = rng.random((n, 2))

    logits = signal * (info - 0.5) + label_shift * (a - 0.5)
    p_pos = 1.0 / (1.0 + np.exp(-logits))
    y = (rng.random(n) < p_pos).astype(int)

    features = np.column_stack([a, proxy, info, noise])
    labels = np.zeros((n, 2))
    labels[np.arange(n), y] = 1.0
    return Dataset(features, labels, 0, a.astype(bool),
                   list(SYNTH_COLUMNS), _synth_encoder())
