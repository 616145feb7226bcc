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

Every file fairsel reads goes through `read_text` (UTF-8, a leading
byte-order mark dropped, a bad byte named by its line), and a spec or
checkpoint through `read_json` on top of it. `json_fields` reads each
JSON object of either: a key missing, unknown or of another JSON type
is a DataError that names it by its dotted path from the file's root.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import reprlib
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DataError, DimensionError
from .metrics import GroupedOutcomes

MISSING_TOKENS = {"", "?", "NA"}

COLUMN_KINDS = ("numeric", "categorical")

_PREDICATE_OPS = ("eq", "in", "ge", "gt", "le", "lt")


_SCALAR = (str, int, float)
_NUMBER = (int, float)

_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               _NUMBER: "a number", _SCALAR: "a string or a number"}


def read_text(path):
    """The text of the file at path, decoded as UTF-8 with a leading
    byte-order mark dropped; a DataError naming the file, and the line of
    a byte that is not UTF-8, otherwise."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line} is not UTF-8: {exc}") from None


def read_json(path):
    """The JSON object in the file at path, read by read_text; a DataError
    naming the file, and the line of a syntax error, the key that an
    object repeats (json would keep its last value) or a NaN, Infinity or
    number past a float's range (json would read them), otherwise."""
    def unique_keys(pairs):
        body = {}
        for key, value in pairs:
            if key in body:
                raise DataError(f"{path}: key {key!r} repeated in one object")
            body[key] = value
        return body
    def finite(text):   # a JSON float, or NaN, Infinity or -Infinity
        value = float(text)
        if not math.isfinite(value):
            raise DataError(f"{path}: {text} is not a finite JSON number")
        return value
    try:
        body = json.loads(read_text(path), object_pairs_hook=unique_keys,
                          parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise DataError(f"{path}: not a JSON object, got {reprlib.repr(body)}")
    return body


def _typed(value, kinds, path):
    """value, if it is of type kinds, or for [kinds] a list of values of
    that type (never a JSON true or false, though bool is an int); a
    DataError naming its dotted path, or its first other item's, otherwise."""
    if isinstance(kinds, list):
        for i, item in enumerate(_typed(value, list, path)):
            _typed(item, kinds[0], f"{path}[{i}]")
    elif isinstance(value, bool) or not isinstance(value, kinds):
        raise DataError(f"field {path!r} must be {_JSON_TYPES[kinds]}, "
                        f"got {reprlib.repr(value)}")
    return value


def json_fields(value, path, fields, optional=()):
    """The values under the keys of fields (key -> type, as `_typed` reads
    it) of value, the JSON object at the dotted path path ("" for its
    file's root), with None for a key of optional that it lacks. A key of
    fields that it lacks and needs, or holds with a value of another type,
    or else a key that fields lacks, is a DataError naming the first such
    key by its path."""
    at = f"{path}." if path else ""
    values = []
    _typed(value, dict, path)
    for key, kinds in fields.items():
        if key in value:
            values.append(_typed(value[key], kinds, at + key))
        elif key in optional:
            values.append(None)
        else:
            raise DataError(f"missing field {at + key!r}")
    for key in value:
        if key not in fields:
            raise DataError(f"unknown field {at + key!r}")
    return values


def _number(v):
    """v, a spec value, as a builtin float if it is a finite number, and
    if a string, written as a CSV number cell must be (`_numbers`); else
    None."""
    try:
        values = _numbers([v]) if isinstance(v, str) else [float(v)]
    except (TypeError, ValueError, OverflowError):
        return None
    return values[0] if values and math.isfinite(values[0]) else None


# the fields of an encoder layout entry, by its role
_LAYOUT_FIELDS = {"sensitive": {"name": str, "role": str},
                  "numeric": {"name": str, "role": str, "min": _NUMBER, "max": _NUMBER},
                  "categorical": {"name": str, "role": str, "categories": [str]}}


def _layout_entry_fits(item, name, role):
    """item, a layout entry with the fields of role, is that of column name
    in that role: a numeric entry holds finite min <= max a finite span
    apart (min-max scaling divides by it), a categorical one distinct
    categories."""
    if (item["name"], item["role"]) != (name, role):
        return False
    if role == "numeric":
        lo, hi = item["min"], item["max"]
        return math.isfinite(lo) and math.isfinite(hi) and 0 <= hi - lo < math.inf
    cats = item.get("categories", ())
    return len(set(cats)) == len(cats)


@dataclass
class Predicate:
    """Membership test for the privileged group, evaluated on raw cells.

    A numeric column's cells compare as numbers, others (eq/in) as strings.
    """

    op: str
    value: object = None
    values: tuple = ()
    # "encoder.spec." in a checkpoint: the prefix of the paths its faults name
    at: InitVar[str] = ""

    def __post_init__(self, at):
        if self.op not in _PREDICATE_OPS:
            raise DataError(f"field '{at}sensitive.privileged.op' must be one of "
                            f"{', '.join(_PREDICATE_OPS)}, got {self.op!r}")
        if self.op == "in":
            if not self.values:
                raise DataError(f"field '{at}sensitive.privileged.values' must be a "
                                "nonempty list for op 'in'")
            self.values = tuple(str(v) for v in self.values)
        elif self.value is None:
            raise DataError(f"predicate op {self.op!r} needs a value")
        if isinstance(self.value, np.generic):  # stored as the builtin json encodes
            self.value = self.value.item()

    def mask(self, cells):
        """Which cells of a RawTable column are privileged, as a bool array."""
        if self.op in ("eq", "in"):
            wanted = self.values if self.op == "in" else (str(self.value),)
            # a float cell equals only the floats, a string cell only the strings
            hits = {*wanted, *(x for x in map(_number, wanted) if x is not None)}
            return np.fromiter(map(hits.__contains__, cells), bool, len(cells))
        return getattr(operator, self.op)(np.asarray(cells, dtype=np.float64),
                                          _number(self.value))

    def to_dict(self):
        if self.op == "in":
            return {"op": "in", "values": list(self.values)}
        return {"op": self.op, "value": self.value}


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
    # "encoder.spec." in a checkpoint: the prefix of the paths its faults name
    at: InitVar[str] = ""

    def __post_init__(self, at):
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
            raise DataError(f"field '{at}sensitive.privileged.op' on categorical column "
                            f"{self.sensitive_column!r} must be 'eq' or 'in', got {pred.op!r}")
        # mask compares a numeric column's cells as numbers
        bad = [v for v in pred.values or (pred.value,) if _number(v) is None]
        if kind == "numeric" and bad:
            field = "values" if pred.op == "in" else "value"
            raise DataError(f"field '{at}sensitive.privileged.{field}' "
                            f"on numeric column {self.sensitive_column!r} is not "
                            f"a number or not finite, got {reprlib.repr(bad[0])}")

    @classmethod
    def from_dict(cls, d, path=""):
        """A spec from its JSON object d at the dotted path path of its file
        ("" for a spec file); a field that is missing, unknown or of another
        JSON type is a DataError that names its path."""
        at = f"{path}." if path else ""
        name, columns, label, sensitive = json_fields(
            d, path, {"name": str, "columns": list, "label": dict, "sensitive": dict},
            optional=("name",))
        columns = [ColumnSpec(*json_fields(c, f"{at}columns[{i}]",
                                           {"name": str, "kind": str}))
                   for i, c in enumerate(columns)]
        label_column, favorable = json_fields(label, at + "label",
                                              {"column": str, "favorable": _SCALAR})
        sensitive_column, privileged = json_fields(sensitive, at + "sensitive",
                                                   {"column": str, "privileged": dict})
        # op `in` reads values, a list of strings or numbers, the others value
        in_op = privileged.get("op") == "in"
        field = "values" if in_op else "value"
        op, value = json_fields(privileged, at + "sensitive.privileged",
                                {"op": str, field: [_SCALAR] if in_op else _SCALAR})
        return cls(columns, label_column, str(favorable), sensitive_column,
                   Predicate(op, **{field: value}, at=at), name or "", at)

    @classmethod
    def from_json(cls, path):
        """A spec from its JSON file; a fault is a DataError naming the file."""
        body = read_json(path)
        try:
            return cls.from_dict(body)
        except DataError as exc:
            raise DataError(f"malformed dataset spec {path}: {exc}") from None

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


def _numbers(cells):
    """cells (stripped strings) as builtin floats, or None if one is not a
    finite number written in plain ASCII: float also reads 1_000 and
    full-width or Arabic-Indic digits, which a CSV number never holds."""
    joined = "".join(cells)
    if "_" in joined or not joined.isascii():
        return None
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def load_csv(path, spec):
    """Parse a headered RFC-4180 CSV against a DatasetSpec.

    Rows with missing cells in any used column are rejected (counted in
    the result, never imputed). Bytes that are not UTF-8 (a leading
    byte-order mark is dropped) and a header that lacks a used column or
    names one twice raise a DataError. Else the fault at the earliest data
    row (1-based, header excluded) is raised, the first found on a tie:
    a row with more cells than the header (rows after it are read but
    never returned), then each numeric cell, in spec order, that is not a
    finite number in plain ASCII (nan, inf, 1_000 and non-ASCII digits
    included), and text the csv module rejects, named by its file line.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    rows, faults = [], []   # faults: (data row, DataError), in the order found
    try:
        rows.extend(reader)
    except csv.Error as exc:   # at the data row after the last one read
        faults.append((len(rows), DataError(f"{path}: line {reader.line_num}: {exc}")))
    if not rows:
        raise faults[0][1] if faults else DataError(f"{path}: empty file")
    header = [h.strip() for h in rows.pop(0)]
    col_index = {name: i for i, name in enumerate(header)}
    used = [c.name for c in spec.columns] + [spec.label_column]
    missing = [name for name in used if name not in col_index]
    if missing:
        raise DataError(f"{path}: header is missing column(s) {missing}")
    repeated = [name for name in used if header.count(name) > 1]
    if repeated:
        raise DataError(f"{path}: header repeats column(s) {repeated}")

    width = len(header)
    lengths = list(map(len, rows))
    if rows and max(lengths) > width:
        at = next(i for i, n in enumerate(lengths) if n > width)
        faults.append((at + 1, DataError(f"{path}: row {at + 1} has {lengths[at]} "
                                         f"cells, more than the header's {width}")))
    if rows and min(lengths) < width:   # drop blank rows, pad short ones as missing
        data_rows = [i for i, n in enumerate(lengths, start=1) if n]
        rows = [row + [""] * (width - len(row)) for row in rows if row]
    else:
        data_rows = list(range(1, len(rows) + 1))
    columns = list(zip(*rows)) or [()] * width
    del rows

    cells = {}
    rejected = set()
    for name in used:
        col = list(map(str.strip, columns[col_index[name]]))
        if not MISSING_TOKENS.isdisjoint(col):
            rejected.update(j for j, cell in enumerate(col) if cell in MISSING_TOKENS)
        cells[name] = col
    del columns
    if rejected:
        kept = [j for j in range(len(data_rows)) if j not in rejected]
        data_rows = [data_rows[j] for j in kept]
        cells = {name: [col[j] for j in kept] for name, col in cells.items()}

    for c in spec.columns:
        if c.kind == "numeric":
            values = _numbers(cells[c.name])
            if values is None:
                j = next(j for j, cell in enumerate(cells[c.name])
                         if _numbers([cell]) is None)
                faults.append((data_rows[j], DataError(
                    f"{path}: row {data_rows[j]}, column {c.name!r}: "
                    f"cannot parse {cells[c.name][j]!r} as a finite number")))
            cells[c.name] = values
    if faults:
        raise min(faults, key=operator.itemgetter(0))[1]
    return RawTable({c.name: cells[c.name] for c in spec.columns},
                    cells[spec.label_column], data_rows, len(rejected))


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
        if not (len(set(labels)) == len(labels) == 2
                and spec.favorable_value in labels):
            raise DataError(f"label column {spec.label_column!r} must hold the "
                            f"favorable value {spec.favorable_value!r} and one other "
                            f"value, saw {reprlib.repr(labels)}")
        if not (isinstance(layout, list) and len(layout) == len(spec.columns)):
            raise DataError(f"encoder layout must list the {len(spec.columns)} spec "
                            f"columns in order, got {reprlib.repr(layout)}")
        self.spec, self.layout, self.labels = spec, layout, labels
        self.column_names = []
        for i, (c, item) in enumerate(zip(spec.columns, layout)):
            role = "sensitive" if c.name == spec.sensitive_column else c.kind
            json_fields(item, f"encoder.layout[{i}]", _LAYOUT_FIELDS[role])
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
                features[:, pos] = spec.privileged.mask(cells)
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
        """The encoder of to_payload's object, stored as a checkpoint's
        field 'encoder'."""
        spec, layout, labels = json_fields(payload, "encoder",
                                           {"spec": dict, "layout": list, "labels": [str]})
        return cls(DatasetSpec.from_dict(spec, "encoder.spec"), layout, labels)


def _codes(raw, cells, values, column):
    """The index in values of each cell of a RawTable column; a cell
    outside values is a DataError naming its CSV data row."""
    lookup = {v: j for j, v in enumerate(values)}
    try:
        return np.fromiter(map(lookup.__getitem__, cells), np.intp, len(cells))
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
