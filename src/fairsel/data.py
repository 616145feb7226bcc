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

A Dataset holds the encoded features, one 0/1 label per row and its
encoder; its column names, sensitive index and group tags are read off
those, and `Dataset.outcomes` gives every score its GroupedOutcomes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .metrics import GroupedOutcomes

MISSING_TOKENS = {"", "?", "NA"}

COLUMN_KINDS = ("numeric", "categorical")

_PREDICATE_OPS = ("eq", "in", "ge", "gt", "le", "lt")


def _strings(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


_SCALAR = (str, int, float)

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               _SCALAR: "a string or a number"}


def _typed(value, kinds, what):
    """value, if it is of type kinds (never a JSON true or false, though
    bool is an int); a DataError naming what otherwise."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DataError(f"{what} must be {_JSON_TYPES[kinds]}, "
                        f"got {reprlib.repr(value)}")
    return value


def _field(obj, path, kinds, default=None):
    """The field at path (dotted, from the spec's root) of the spec JSON
    object obj that holds it, of type kinds; a DataError naming the path
    if it is of another type, or missing and has no default."""
    key = path.rpartition(".")[2]
    if key not in obj and default is None:
        raise DataError(f"dataset spec is missing field {path!r}")
    return _typed(obj.get(key, default), kinds, f"dataset spec field {path!r}")


def _finite(v):
    """v (a number or a string) parses to a finite float."""
    try:
        return math.isfinite(float(v))
    except (TypeError, ValueError, OverflowError):
        return False


def _layout_entry_fits(item, name, role):
    """item is the layout entry of column name in that role: a numeric entry
    holds finite min <= max a finite span apart (min-max scaling divides
    by it), a categorical one a list of distinct strings."""
    if not (isinstance(item, dict) and item.get("name") == name
            and item.get("role") == role):
        return False
    if role == "numeric":
        lo, hi = item.get("min"), item.get("max")
        return (all(type(v) in (int, float) and math.isfinite(v) for v in (lo, hi))
                and 0 <= hi - lo < math.inf)
    cats = item.get("categories")
    return role == "sensitive" or (_strings(cats) and len(set(cats)) == len(cats))


@dataclass
class Predicate:
    """Membership test for the privileged group, evaluated on raw cells.

    A numeric column's cells compare as numbers, others (eq/in) as strings.
    """

    op: str
    value: object = None
    values: tuple = ()

    def __post_init__(self):
        if self.op not in _PREDICATE_OPS:
            raise DataError(f"unknown predicate op {self.op!r}")
        if self.op == "in":
            if not self.values:
                raise DataError("dataset spec field 'sensitive.privileged.values' "
                                "must be a nonempty list for op 'in'")
            self.values = tuple(str(v) for v in self.values)
        elif self.value is None:
            raise DataError(f"predicate op {self.op!r} needs a value")

    def matches(self, cell):
        if self.op in ("eq", "in"):
            wanted = self.values if self.op == "in" else (str(self.value),)
            if isinstance(cell, float):
                return any(cell == float(v) for v in wanted)
            return str(cell) in wanted
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
        """A predicate from its spec JSON; value and values hold strings or numbers."""
        if d.get("value") is not None:
            _field(d, "sensitive.privileged.value", _SCALAR)
        values = _field(d, "sensitive.privileged.values", list, [])
        for i, v in enumerate(values):
            _typed(v, _SCALAR, f"dataset spec field 'sensitive.privileged.values[{i}]'")
        pred = cls(op=d.get("op"), value=d.get("value"), values=tuple(values))
        unread = "value" if pred.op == "in" else "values"
        if unread in d:
            raise DataError(f"dataset spec field 'sensitive.privileged.{unread}' "
                            f"is not read by op {pred.op!r}")
        return pred


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
        kind = next(c.kind for c in self.columns if c.name == self.sensitive_column)
        pred = self.privileged
        if pred.op in ("ge", "gt", "le", "lt") and kind != "numeric":
            raise DataError("numeric predicate on a categorical sensitive column")
        # matches compares a numeric column's cells as numbers
        bad = [v for v in pred.values or (pred.value,) if not _finite(v)]
        if kind == "numeric" and bad:
            field = "values" if pred.op == "in" else "value"
            raise DataError(f"dataset spec field 'sensitive.privileged.{field}' "
                            f"on numeric column {self.sensitive_column!r} is not "
                            f"a number or not finite, got {reprlib.repr(bad[0])}")

    @classmethod
    def from_dict(cls, d):
        """A spec from its parsed JSON; a field that is missing or of
        another JSON type is a DataError that names it."""
        _typed(d, dict, "dataset spec")
        columns = []
        for i, c in enumerate(_field(d, "columns", list)):
            _typed(c, dict, f"dataset spec field 'columns[{i}]'")
            columns.append(ColumnSpec(_field(c, f"columns[{i}].name", str),
                                      _field(c, f"columns[{i}].kind", str)))
        label, sensitive = _field(d, "label", dict), _field(d, "sensitive", dict)
        return cls(
            columns=columns,
            label_column=_field(label, "label.column", str),
            favorable_value=str(_field(label, "label.favorable", _SCALAR)),
            sensitive_column=_field(sensitive, "sensitive.column", str),
            privileged=Predicate.from_dict(
                _field(sensitive, "sensitive.privileged", dict)),
            name=_field(d, "name", str, ""),
        )

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read dataset spec {path}: {exc}") from None

    def to_dict(self):
        return {
            "name": self.name,
            "columns": [{"name": c.name, "kind": c.kind} for c in self.columns],
            "label": {"column": self.label_column, "favorable": self.favorable_value},
            "sensitive": {"column": self.sensitive_column,
                          "privileged": self.privileged.to_dict()},
        }


@dataclass
class RawTable:
    """Typed column-major view of one CSV file."""

    feature_values: dict           # column name -> list (float or str)
    label_values: list             # raw label strings
    data_rows: list                # CSV data row of each kept row (1-based)
    n_rejected: int = 0            # rows dropped for missing cells

    @property
    def n_rows(self):
        return len(self.label_values)


def load_csv(path, spec):
    """Parse a headered RFC-4180 CSV against a DatasetSpec.

    Rows with missing cells in any used column are rejected (counted in
    the result, never imputed). Numeric cells that do not parse as a
    finite number (including nan and inf) raise a DataError naming the
    data row (1-based, header excluded) and column; so do a row with more
    cells than the header and a used column that the header names twice.
    Bytes that are not UTF-8 (a leading byte-order mark is dropped) and
    text the csv module rejects raise a DataError naming the file line.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    try:   # decoded whole, an error's offset gives its line; parsed in chunks
        data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line} is not UTF-8: {exc}") from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline=""))
    try:
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
        repeated = [name for name in used if header.count(name) > 1]
        if repeated:
            raise DataError(f"{path}: header repeats column(s) {repeated}")

        feature_values = {c.name: [] for c in spec.columns}
        label_values = []
        data_rows = []
        n_rejected = 0
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) > len(header):
                raise DataError(f"{path}: row {row_no} has {len(row)} cells, "
                                f"more than the header's {len(header)}")
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
            data_rows.append(row_no)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return RawTable(feature_values, label_values, data_rows, n_rejected)


@dataclass
class Dataset:
    """Encoded features, their labels and the encoder that made them; the
    group tags are read off the sensitive column (1 = privileged)."""

    features: np.ndarray           # (n, d) in [0, 1]
    labels: np.ndarray             # (n,) 0/1, 1 = favorable
    encoder: "Encoder"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        n, d = self.features.shape
        if not ((self.features >= 0) & (self.features <= 1)).all():
            raise DataError("features must lie in [0, 1]")
        if labels.shape != (n,) or not ((labels == 0) | (labels == 1)).all():
            raise DataError(f"labels must be {n} values of 0 or 1")
        if d != self.encoder.dim:
            raise DimensionError("feature columns", self.encoder.dim, d)
        self.labels = labels.astype(np.int64, copy=False)
        self.group_tags = self.features[:, self.sensitive_index] == 1.0

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def sensitive_index(self):
        return self.encoder.sensitive_index

    @property
    def column_names(self):
        return self.encoder.column_names

    def subset(self, idx):
        return Dataset(self.features[idx], self.labels[idx], self.encoder)

    def outcomes(self, y_pred):
        """These labels and group tags next to predicted classes y_pred."""
        return GroupedOutcomes(self.labels, y_pred, self.group_tags)


class Encoder:
    """Fitted column transforms: one-hot vocabularies, min-max ranges,
    and the sensitive-column binarization. Serializable so checkpoints
    can re-encode new data exactly as at training time. The layout (one
    entry per spec column) and the label vocabulary are stored; the column
    names, sensitive index and width are derived from them here, and a
    layout or vocabulary that does not fit the spec is a DataError."""

    def __init__(self, spec, layout, labels):
        if not (_strings(labels) and len(set(labels)) == len(labels) == 2
                and spec.favorable_value in labels):
            raise DataError(f"label column {spec.label_column!r} must hold the "
                            f"favorable value {spec.favorable_value!r} and one other "
                            f"value, saw {reprlib.repr(labels)}")
        if not (isinstance(layout, list) and len(layout) == len(spec.columns)):
            raise DataError(f"encoder layout must list the {len(spec.columns)} spec "
                            f"columns in order, got {reprlib.repr(layout)}")
        self.spec, self.layout, self.labels = spec, layout, labels
        self.column_names = []
        for c, item in zip(spec.columns, layout):
            role = "sensitive" if c.name == spec.sensitive_column else c.kind
            if not _layout_entry_fits(item, c.name, role):
                raise DataError(f"encoder layout entry {reprlib.repr(item)} does not "
                                f"fit the {role} column {c.name!r}")
            if role == "sensitive":
                self.sensitive_index = len(self.column_names)
            if role == "categorical":
                self.column_names.extend(f"{c.name}={cat}" for cat in item["categories"])
            else:
                self.column_names.append(c.name)
        self.dim = len(self.column_names)

    @classmethod
    def fit(cls, raw, spec, stat_rows=None):
        """Fit transforms from a RawTable.

        stat_rows restricts min/max fitting to those row indices (pass
        the training-split rows to avoid leakage). One-hot vocabularies
        use every row: the category set is schema, not statistics. The
        label column must hold the favorable value and exactly one other.
        """
        if raw.n_rows == 0:
            raise DataError("cannot encode a table with zero rows")
        layout = []
        for c in spec.columns:
            vals = raw.feature_values[c.name]
            if c.name == spec.sensitive_column:
                layout.append({"name": c.name, "role": "sensitive"})
            elif c.kind == "numeric":
                pool = vals if stat_rows is None else [vals[i] for i in stat_rows]
                layout.append({"name": c.name, "role": "numeric",
                               "min": float(min(pool)), "max": float(max(pool))})
            else:
                layout.append({"name": c.name, "role": "categorical",
                               "categories": sorted(set(vals))})
        return cls(spec, layout, sorted(set(raw.label_values)))

    def transform(self, raw):
        """Encode a RawTable into a Dataset. A label or category that fit
        did not see is a DataError naming its CSV data row, column and value."""
        if raw.n_rows == 0:
            raise DataError("cannot encode a table with zero rows")
        spec = self.spec
        label_codes = _codes(raw, raw.label_values, self.labels, spec.label_column)
        n = raw.n_rows
        features = np.zeros((n, self.dim))
        pos = 0
        for item in self.layout:
            cells = raw.feature_values[item["name"]]
            if item["role"] == "sensitive":
                features[:, pos] = [1.0 if spec.privileged.matches(v) else 0.0
                                    for v in cells]
                pos += 1
            elif item["role"] == "numeric":
                lo, hi = item["min"], item["max"]
                col = np.asarray(cells, dtype=np.float64)
                col = (col - lo) / (hi - lo) if hi > lo else np.zeros(n)
                # train-fitted range: out-of-range validation/test values clip
                features[:, pos] = np.clip(col, 0.0, 1.0)
                pos += 1
            else:
                cats = item["categories"]
                features[np.arange(n), pos + _codes(raw, cells, cats, item["name"])] = 1.0
                pos += len(cats)

        favorable = label_codes == self.labels.index(spec.favorable_value)
        return Dataset(features, favorable.astype(np.int64), self)

    def to_payload(self):
        return {"spec": self.spec.to_dict(), "layout": self.layout,
                "labels": self.labels}

    @classmethod
    def from_payload(cls, payload):
        try:
            return cls(DatasetSpec.from_dict(payload["spec"]), payload["layout"],
                       payload["labels"])
        except KeyError as exc:
            raise DataError(f"encoder payload missing field {exc}") from None


def _codes(raw, cells, values, column):
    """The index in values of each cell of a RawTable column; a cell
    outside values is a DataError naming its CSV data row."""
    lookup = {v: j for j, v in enumerate(values)}
    try:
        return np.array([lookup[v] for v in cells])
    except KeyError as exc:
        raise DataError(f"row {raw.data_rows[cells.index(exc.args[0])]}, column "
                        f"{column!r}: {exc.args[0]!r} is not one of the values the "
                        f"encoder was fitted on, {reprlib.repr(values)}") from None


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
    training rows only, and encode the table once with it to split."""
    tr, va, te = split_indices(raw.n_rows, seed)
    dataset = Encoder.fit(raw, spec, stat_rows=tr).transform(raw)
    return dataset.subset(tr), dataset.subset(va), dataset.subset(te)


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
    layout = [{"name": name, "role": "sensitive"} if name == "sensitive" else
              {"name": name, "role": "numeric", "min": 0.0, "max": 1.0}
              for name in SYNTH_COLUMNS]
    return Encoder(spec, layout, ["0", "1"])


def synth_proxy(n, proxy_correlation, seed):
    """Synthetic binary dataset with a controllable sensitive proxy.

    Columns: a sensitive bit (privileged = 1), a proxy equal to the
    sensitive bit with probability proxy_correlation (otherwise a fresh
    fair coin), one informative feature that drives the label, and two
    pure-noise features. The label's logit is 4.0 * (informative - 0.5)
    + 1.5 * (sensitive - 0.5): it leans on the sensitive bit on top of
    the informative signal, so a classifier trained on all features
    shows a true-positive-rate gap between the groups.
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

    logits = 4.0 * (info - 0.5) + 1.5 * (a - 0.5)
    p_pos = 1.0 / (1.0 + np.exp(-logits))
    y = (rng.random(n) < p_pos).astype(int)

    features = np.column_stack([a, proxy, info, noise])
    return Dataset(features, y, _synth_encoder())
