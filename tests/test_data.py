import csv
import io
import json
import math
import re
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ANY_JSON, GERMAN_CATEGORIES, GERMAN_HEADER, GERMAN_NUMERIC,
                      json_edits, write_german_csv)
from fairsel.checkpoint import load_model
from fairsel.data import (MISSING_TOKENS, ColumnSpec, Dataset, DatasetSpec,
                          Encoder, Predicate, RawTable, load_csv, prepare_splits,
                          split, split_indices, synth_proxy)
from fairsel.errors import DataError, DimensionError


def encode_and_normalize(raw, spec):
    """Fit the encoder on every row and transform the whole table."""
    return Encoder.fit(raw, spec).transform(raw)


def tiny_spec():
    return DatasetSpec(
        columns=[ColumnSpec("color", "categorical"),
                 ColumnSpec("size", "numeric"),
                 ColumnSpec("group", "categorical")],
        label_column="label",
        favorable_value="yes",
        sensitive_column="group",
        privileged=Predicate(op="eq", value="a"),
    )


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


@pytest.fixture
def tiny_csv(tmp_path):
    return write_csv(tmp_path / "tiny.csv",
                     ["color", "size", "group", "label"],
                     [["red", "2", "a", "yes"],
                      ["blue", "4", "b", "no"],
                      ["red", "6", "a", "yes"]])


class TestLoadCsv:
    def test_german_shaped_file(self, german_csv, german_spec_path):
        spec = DatasetSpec.from_json(german_spec_path)
        raw = load_csv(german_csv, spec)
        assert raw.n_rows == 1000
        assert len(raw.feature_values) == 20

    def test_bank_shaped_file(self, tmp_path):
        from importlib.resources import files
        spec = DatasetSpec.from_json(str(files("fairsel") / "specs" / "bank.json"))
        rng = np.random.default_rng(0)
        header = [c.name for c in spec.columns] + ["y"]
        months = ["jan", "may", "nov"]
        jobs = ["admin.", "technician", "services"]
        rows = []
        for _ in range(45211):
            rows.append([
                str(rng.integers(18, 90)), jobs[rng.integers(0, 3)],
                "married", "secondary", "no", str(rng.integers(-500, 5000)),
                "yes", "no", "cellular", str(rng.integers(1, 31)),
                months[rng.integers(0, 3)], str(rng.integers(10, 800)),
                str(rng.integers(1, 10)), "-1", "0", "unknown",
                "yes" if rng.random() < 0.12 else "no"])
        path = write_csv(tmp_path / "bank.csv", header, rows)
        raw = load_csv(path, spec)
        assert raw.n_rows == 45211
        assert len(raw.feature_values) + 1 == 17  # 16 features + label

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["color", "size", "group"],
                         [["red", "1", "a"]])
        with pytest.raises(DataError) as exc:
            load_csv(path, tiny_spec())
        assert "label" in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError) as exc:
            load_csv(path, tiny_spec())
        assert "empty" in str(exc.value)

    def test_missing_cells_rejected_and_counted(self, tmp_path):
        path = write_csv(tmp_path / "m.csv",
                         ["color", "size", "group", "label"],
                         [["red", "2", "a", "yes"],
                          ["blue", "", "b", "no"],
                          ["red", "?", "a", "yes"],
                          ["blue", "4", "b", "no"]])
        raw = load_csv(path, tiny_spec())
        assert raw.n_rows == 2
        assert raw.n_rejected == 2
        assert raw.data_rows == [1, 4]

    def test_repeated_header_column_names_it(self, tmp_path):
        path = write_csv(tmp_path / "twice.csv",
                         ["color", "size", "group", "size", "label"],
                         [["red", "2", "a", "9", "yes"],
                          ["blue", "3", "b", "8", "no"],
                          ["red", "4", "a", "7", "yes"]])
        with pytest.raises(DataError) as exc:
            load_csv(path, tiny_spec())
        msg = str(exc.value)
        assert "repeats" in msg and "'size'" in msg
        assert "color" not in msg and "group" not in msg

    def test_row_longer_than_header_names_it(self, tmp_path):
        # the extra cell used to be dropped and the row kept
        path = write_csv(tmp_path / "long.csv",
                         ["color", "size", "group", "label"],
                         [["red", "2", "a", "yes"],
                          ["blue", "", "b", "no"],
                          ["red", "2", "F", "no", "EXTRA"],
                          ["blue", "4", "b", "no"],
                          ["red", "6", "a", "yes"]])
        with pytest.raises(DataError, match=re.escape(
                "row 3 has 5 cells, more than the header's 4")):
            load_csv(path, tiny_spec())

    def test_unparseable_numeric_names_coordinates(self, tmp_path):
        path = write_csv(tmp_path / "p.csv",
                         ["color", "size", "group", "label"],
                         [["red", "2", "a", "yes"],
                          ["blue", "huge", "b", "no"]])
        with pytest.raises(DataError) as exc:
            load_csv(path, tiny_spec())
        msg = str(exc.value)
        assert "row 2" in msg and "size" in msg and "huge" in msg

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_sensitive_cell_names_coordinates(self, tmp_path, cell):
        # a nan age would otherwise fail the `ge 25` predicate and put the
        # row in the unprivileged group without a word
        from importlib.resources import files
        spec = DatasetSpec.from_json(str(files("fairsel") / "specs" / "bank.json"))
        header = [c.name for c in spec.columns] + ["y"]
        row = ["41", "admin.", "married", "secondary", "no", "120", "yes", "no",
               "cellular", "5", "may", "300", "1", "-1", "0", "unknown", "no"]
        bad = list(row)
        bad[header.index("age")] = cell
        path = write_csv(tmp_path / "bank.csv", header, [row, row, bad, row])
        with pytest.raises(DataError) as exc:
            load_csv(path, spec)
        msg = str(exc.value)
        assert "row 3" in msg and "'age'" in msg and cell in msg

    @pytest.mark.parametrize("cell", ["1_000", "\uff11\uff12", "\u0661\u0662"])
    def test_numeric_cell_must_be_plain_ascii(self, tmp_path, cell):
        # float reads 1_000, full-width and Arabic-Indic digits (1000.0,
        # 12.0, 12.0), so these cells used to load without a word
        path = write_csv(tmp_path / "u.csv", ["color", "size", "group", "label"],
                         [["red", "2", "a", "yes"], ["blue", cell, "b", "no"]])
        with pytest.raises(DataError, match=re.escape(
                f"row 2, column 'size': cannot parse {cell!r} as a finite number")):
            load_csv(path, tiny_spec())

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(tmp_path / "x.csv",
                         ["junk", "color", "size", "group", "label"],
                         [["z", "red", "2", "a", "yes"],
                          ["z", "blue", "4", "b", "no"]])
        raw = load_csv(path, tiny_spec())
        assert raw.n_rows == 2


def _german_cell(name):
    if name in GERMAN_CATEGORIES:
        return st.sampled_from(GERMAN_CATEGORIES[name])
    if name in GERMAN_NUMERIC:
        return st.integers(*GERMAN_NUMERIC[name]).map(str)
    return st.sampled_from(["1", "2"])   # credit_risk


# what breaks a CSV or its cells: quotes, separators, line ends, NUL, a
# byte that is not UTF-8, a byte-order mark, the missing tokens, non-ASCII
# text, numbers at and past float range, and a field past the csv
# module's 131,072-character limit
_TOKENS = st.sampled_from([
    '"', ",", "\n", "\r\n", "\r", "\x00", b"\xff", "\ufeff", "", "?", "NA",
    " ", "é", "名前", "nan", "1e308", "-1e308", "1e999", "9" * 131_073])
_GARBAGE = st.lists(_TOKENS, min_size=1, max_size=4).map(
    lambda ts: b"".join(t if isinstance(t, bytes) else t.encode() for t in ts))
# a valid German row, cut short or run long by `extra` cells, with one
# cell (if `splice` is given) prefixed by garbage
_ROW = st.tuples(st.tuples(*map(_german_cell, GERMAN_HEADER)),
                 st.just(0) | st.integers(-len(GERMAN_HEADER), 3),
                 st.none() | st.tuples(st.integers(0, 23), _GARBAGE))


def _row_bytes(row):
    cells, extra, splice = row
    cells = [c.encode() for c in cells]
    cells = cells[:len(cells) + extra] if extra < 0 else cells + [b"1"] * extra
    if splice is not None and splice[0] < len(cells):
        cells[splice[0]] = splice[1] + cells[splice[0]]
    return b",".join(cells) + b"\n"


_BODY = st.lists(st.one_of(_ROW.map(_row_bytes), _ROW.map(_row_bytes), _GARBAGE),
                 max_size=12).map(b"".join)


def reference_load_csv(path, spec):
    """load_csv as it was written row by row, the oracle for the
    column-at-a-time one. Unlike that original, a numeric cell must be
    plain ASCII without "_", as load_csv now requires."""
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
                    if not (cells[c.name].isascii() and "_" not in cells[c.name]):
                        cell = math.nan   # the plain-ASCII rule
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


def _loaded(load, path, spec):
    """What load gives for the file: its RawTable or its DataError's text."""
    try:
        return load(path, spec)
    except DataError as exc:
        return str(exc)


def _german_row(extra=b"", **cells):
    """A valid German data row, with cells replaced and extra appended."""
    row = {name: GERMAN_CATEGORIES.get(name, ["1"])[0] for name in GERMAN_HEADER}
    row.update({name: str(GERMAN_NUMERIC[name][0]) for name in GERMAN_NUMERIC})
    row.update(cells)
    return ",".join(row.values()).encode() + extra + b"\n"


_LONG = _german_row(extra=b",1")
_FIELD_PAST_LIMIT = b"9" * 131_073 + b"\n"


@pytest.fixture(scope="module")
def ingest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "german.csv"


class TestIngestProperty:
    @settings(max_examples=150, deadline=None)
    @given(body=_BODY)
    def test_bytes_give_a_dataset_or_a_data_error(self, ingest_path,
                                                   german_spec_path, body):
        spec = DatasetSpec.from_json(german_spec_path)
        ingest_path.write_bytes(",".join(GERMAN_HEADER).encode() + b"\n" + body)
        try:
            raw = load_csv(ingest_path, spec)
            dataset = Encoder.fit(raw, spec).transform(raw)
        except DataError:
            return
        assert isinstance(raw, RawTable) and isinstance(dataset, Dataset)
        assert dataset.n == raw.n_rows
        assert np.isfinite(dataset.features).all()
        assert ((0 <= dataset.features) & (dataset.features <= 1)).all()

    @settings(max_examples=300, deadline=None)
    @given(body=_BODY)
    @example(body=_german_row() + _german_row(age="x") + _german_row() + _LONG)
    @example(body=_german_row() + _LONG + _german_row() + _german_row(age="x"))
    @example(body=_german_row(age="x") + _german_row() + _FIELD_PAST_LIMIT)
    @example(body=_german_row() + _LONG + _FIELD_PAST_LIMIT)
    @example(body=b"\n" + _german_row() + _LONG + _german_row(age="x"))
    @example(body=_FIELD_PAST_LIMIT + _german_row(age="x"))
    @example(body=b"\n" + _german_row(age="x") + _LONG)
    @example(body=_german_row(extra=b",1", age="x"))
    @example(body=_german_row(age="x") + _german_row(duration_months="y"))
    @example(body=_german_row() + _german_row(age="x", housing="?"))
    @example(body=b"\n" + _german_row() + b"\r\n\n" + _german_row(job="?")
             + _german_row())
    def test_load_csv_matches_the_row_by_row_reference(self, ingest_path,
                                                        german_spec_path, body):
        spec = DatasetSpec.from_json(german_spec_path)
        ingest_path.write_bytes(",".join(GERMAN_HEADER).encode() + b"\n" + body)
        raw = _loaded(load_csv, ingest_path, spec)
        assert raw == _loaded(reference_load_csv, ingest_path, spec)
        if isinstance(raw, RawTable):
            for c in spec.columns:
                kind = float if c.kind == "numeric" else str
                assert all(type(v) is kind for v in raw.feature_values[c.name])
            assert all(type(v) is str for v in raw.label_values)


class TestEncode:
    def test_min_max_endpoints(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        size_col = ds.column_names.index("size")
        assert np.allclose(ds.features[:, size_col], [0.0, 0.5, 1.0])

    def test_range_wider_than_float_is_a_data_error(self, tmp_path):
        # each end is finite, but max - min overflows: scaling would give NaN
        path = write_csv(tmp_path / "wide.csv",
                         ["color", "size", "group", "label"],
                         [["red", "1e308", "a", "yes"],
                          ["blue", "-1e308", "b", "no"]])
        with pytest.raises(DataError, match="numeric column 'size'"):
            encode_and_normalize(load_csv(path, tiny_spec()), tiny_spec())

    def test_constant_column_maps_to_zero(self, tmp_path):
        path = write_csv(tmp_path / "c.csv",
                         ["color", "size", "group", "label"],
                         [["red", "5", "a", "yes"],
                          ["blue", "5", "b", "no"]])
        ds = encode_and_normalize(load_csv(path, tiny_spec()), tiny_spec())
        size_col = ds.column_names.index("size")
        assert np.all(ds.features[:, size_col] == 0.0)

    def test_one_hot_exactly_one(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        cols = [i for i, n in enumerate(ds.column_names)
                if n.startswith("color=")]
        assert len(cols) == 2
        assert np.allclose(ds.features[:, cols].sum(axis=1), 1.0)

    def test_sensitive_column_binarized_at_k(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        k = ds.sensitive_index
        assert ds.column_names[k] == "group"
        assert np.array_equal(ds.features[:, k], [1.0, 0.0, 1.0])

    def test_group_tags_match_predicate(self, tiny_csv):
        raw = load_csv(tiny_csv, tiny_spec())
        ds = encode_and_normalize(raw, tiny_spec())
        expected = tiny_spec().privileged.mask(raw.feature_values["group"])
        assert np.array_equal(ds.group_tags, expected)
        assert list(expected) == [v == "a" for v in raw.feature_values["group"]]

    @pytest.mark.parametrize("labels", [["yes", "no", "YES", "no"],
                                        ["no", "NO", "no", "no"],
                                        ["yes", "yes", "yes", "yes"]])
    def test_label_column_must_hold_favorable_and_one_other(self, tmp_path, labels):
        # a YES among yes/no would otherwise be read as unfavorable
        path = write_csv(tmp_path / "labels.csv", ["color", "size", "group", "label"],
                         [["red", str(i), "a", v] for i, v in enumerate(labels)])
        with pytest.raises(DataError) as exc:
            Encoder.fit(load_csv(path, tiny_spec()), tiny_spec())
        msg = str(exc.value)
        assert "'label'" in msg and str(sorted(set(labels))) in msg

    def test_transform_rejects_label_outside_vocabulary(self, tiny_csv, tmp_path):
        enc = Encoder.fit(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        assert enc.labels == ["no", "yes"]
        path = write_csv(tmp_path / "new.csv", ["color", "size", "group", "label"],
                         [["red", "2", "a", "yes"], ["blue", "", "b", "no"],
                          ["red", "3", "a", "no"], ["blue", "4", "b", "YES"]])
        raw = load_csv(path, tiny_spec())   # the row with no size is rejected
        with pytest.raises(DataError) as exc:
            enc.transform(raw)
        msg = str(exc.value)
        # the CSV data row, counting the rejected one, as load_csv names rows
        assert "row 4," in msg and "'label'" in msg and "'YES'" in msg

    def test_encoder_derives_columns_and_sensitive_index(self, tiny_csv):
        fitted = Encoder.fit(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        enc = Encoder(tiny_spec(), fitted.layout, ["no", "yes"])
        assert enc.column_names == ["color=blue", "color=red", "size", "group"]
        assert (enc.sensitive_index, enc.dim) == (3, 4)
        assert enc.to_payload() == fitted.to_payload()
        assert set(enc.to_payload()) == {"spec", "layout", "labels"}

    def test_labels_are_one_for_the_favorable_value(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        assert ds.labels.shape == (3,)
        assert np.array_equal(ds.labels, [1, 0, 1])

    def test_round_trip_denormalize(self, german_csv, german_spec_path):
        spec = DatasetSpec.from_json(german_spec_path)
        raw = load_csv(german_csv, spec)
        ds = encode_and_normalize(raw, spec)
        ranges = {item["name"]: (item["min"], item["max"])
                  for item in ds.encoder.layout if item["role"] == "numeric"}
        for name in ("duration_months", "credit_amount", "age"):
            lo, hi = ranges[name]
            recovered = ds.features[:, ds.column_names.index(name)] * (hi - lo) + lo
            original = np.asarray(raw.feature_values[name])
            assert np.allclose(recovered, original, atol=1e-9)

    def test_transform_clips_out_of_range(self, tiny_csv):
        raw = load_csv(tiny_csv, tiny_spec())
        enc = Encoder.fit(raw, tiny_spec(), stat_rows=[0, 1])  # size in [2, 4]
        ds = enc.transform(raw)
        size_col = enc.column_names.index("size")
        assert ds.features[2, size_col] == 1.0  # raw 6 clipped to the fit max


class TestSplit:
    def test_thousand_rows(self):
        tr, va, te = split_indices(1000, seed=0)
        assert (len(tr), len(va), len(te)) == (600, 200, 200)

    def test_ten_rows(self):
        tr, va, te = split_indices(10, seed=0)
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_remainder_to_train(self):
        tr, va, te = split_indices(13, seed=1)
        assert (len(tr), len(va), len(te)) == (9, 2, 2)

    def test_deterministic(self):
        a = split_indices(500, seed=7)
        b = split_indices(500, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_disjoint_exhaustive(self):
        tr, va, te = split_indices(101, seed=3)
        combined = np.concatenate([tr, va, te])
        assert sorted(combined.tolist()) == list(range(101))

    def test_too_small(self):
        with pytest.raises(DataError):
            split_indices(4, seed=0)

    def test_dataset_split(self):
        ds = synth_proxy(200, 0.5, seed=0)
        tr, va, te = split(ds, seed=5)
        assert (tr.n, va.n, te.n) == (120, 40, 40)
        assert tr.sensitive_index == ds.sensitive_index

    def test_prepare_splits_uses_train_statistics(self, tmp_path):
        rows = [["red", str(v), "a" if v % 2 else "b",
                 "yes" if v > 10 else "no"] for v in range(1, 21)]
        path = write_csv(tmp_path / "t.csv",
                         ["color", "size", "group", "label"], rows)
        raw = load_csv(path, tiny_spec())
        tr, va, te = prepare_splits(raw, tiny_spec(), seed=0)
        size_col = tr.column_names.index("size")
        # train rows themselves hit 0 and 1 after min-max on train stats
        assert tr.features[:, size_col].min() == 0.0
        assert tr.features[:, size_col].max() == 1.0
        assert tr.n + va.n + te.n == 20


class TestSynthProxy:
    def test_rho_zero_independent(self):
        ds = synth_proxy(10_000, 0.0, seed=0)
        a = ds.features[:, 0]
        proxy = ds.features[:, 1]
        corr = np.corrcoef(a, proxy)[0, 1]
        assert abs(corr) < 0.05

    def test_rho_one_equal(self):
        ds = synth_proxy(500, 1.0, seed=1)
        assert np.array_equal(ds.features[:, 0], ds.features[:, 1])

    def test_dataset_invariants(self):
        ds = synth_proxy(300, 0.8, seed=2)
        assert ds.features.shape == (300, 5)
        assert ((ds.features >= 0) & (ds.features <= 1)).all()
        assert set(ds.labels.tolist()) == {0, 1}
        assert ds.sensitive_index == 0
        assert np.array_equal(ds.group_tags, ds.features[:, 0] == 1.0)

    def test_validation(self):
        with pytest.raises(DataError):
            synth_proxy(50, 0.5, seed=0)
        with pytest.raises(DataError):
            synth_proxy(200, 1.5, seed=0)

    def test_deterministic(self):
        a = synth_proxy(150, 0.4, seed=9)
        b = synth_proxy(150, 0.4, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def _from_each_constructor(tiny_csv):
    ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
    proxy = synth_proxy(200, 0.5, seed=0)
    return [ds, ds.subset([2, 0]), proxy, split(proxy, seed=1)[1]]


class TestDataset:
    def test_facts_are_read_off_features_and_encoder(self, tiny_csv):
        for ds in _from_each_constructor(tiny_csv):
            k = ds.encoder.sensitive_index
            assert (ds.sensitive_index, ds.column_names) == (
                k, ds.encoder.column_names)
            assert np.array_equal(ds.group_tags, ds.features[:, k] == 1.0)

    def test_outcomes_pair_labels_and_groups_with_predictions(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        out = ds.outcomes(np.array([0, 0, 1]))
        assert np.array_equal(out.y_true, [1, 0, 1])
        assert np.array_equal(out.y_pred, [0, 0, 1])
        assert np.array_equal(out.privileged, [True, False, True])

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1.0, 0.5, 0.0], [[0, 1], [1, 0], [0, 1]],
                                        [1, 0]])
    def test_labels_must_be_one_zero_or_one_per_row(self, tiny_csv, labels):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        with pytest.raises(DataError, match="labels"):
            Dataset(ds.features, np.array(labels), ds.encoder)

    def test_width_must_match_the_encoder(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        with pytest.raises(DimensionError):
            Dataset(ds.features[:, :3], ds.labels, ds.encoder)

    def test_features_outside_unit_interval_rejected(self):
        ds = synth_proxy(100, 0.5, seed=0)
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            Dataset(ds.features * 2, ds.labels, ds.encoder)


_SPECS = {name: json.loads((files("fairsel") / "specs" / f"{name}.json").read_text())
          for name in ("german", "compas", "bank")}
# values a spec holds, so that edits also load, integers past float
# range, non-finite numbers and their spellings, and any JSON value
_SPEC_VALUES = (st.sampled_from([
    "numeric", "categorical", "eq", "in", "ge", "lt", "age", "sex",
    "personal_status_sex", "credit_risk", "A91", "1", 25, ["A91", "A93"],
    {"name": "age", "kind": "numeric"}, 10**400, float("nan"), float("inf"),
    float("-inf"), "nan", "1e999", "1_000", "\uff12\uff15", "\u0662\u0665"])
    | ANY_JSON)
# the keys of a spec's objects and near misses of them, for edits that
# insert a key
_SPEC_KEYS = ["name", "columns", "kind", "label", "column", "favorable", "sensitive",
              "privileged", "op", "value", "values", "favourable", "drop", "junk"]


def json_objects(node, path=""):
    """(dotted path, object) for each JSON object in the parsed JSON node,
    node's own first if it is one."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from json_objects(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_objects(value, f"{path}[{i}]")


@pytest.fixture(scope="module")
def small_german_csv(tmp_path_factory):
    return write_german_csv(tmp_path_factory.mktemp("spec_edit") / "german.csv",
                            n=60, seed=3)


class TestSpecEditProperty:
    @settings(max_examples=300, deadline=None)
    @given(edited=st.sampled_from(sorted(_SPECS)).flatmap(
        lambda name: st.tuples(st.just(name),
                               json_edits(_SPECS[name], _SPEC_VALUES, _SPEC_KEYS))))
    # an integer past float range as the privileged value, which the
    # derandomized examples do not reach
    @example(edited=("bank", {**_SPECS["bank"], "sensitive": {
        "column": "age", "privileged": {"op": "ge", "value": 10**400}}}))
    def test_spec_edits_load_or_are_a_data_error(self, small_german_csv, edited):
        # one or two edits anywhere in a shipped spec, or a key set in any
        # object; the German one also loads and splits a German-shaped file
        name, body = edited
        try:
            spec = DatasetSpec.from_dict(body)
            splits = (prepare_splits(load_csv(small_german_csv, spec), spec, 0)
                      if name == "german" else ())
        except DataError:
            return
        assert isinstance(spec, DatasetSpec)
        assert all(isinstance(part, Dataset) for part in splits)
        # a spec that loads holds no key that the loader did not read
        read = dict(json_objects(spec.to_dict()))
        for path, obj in json_objects(body):
            assert set(obj) <= set(read[path])

    @pytest.mark.parametrize("value", ["1_000", "\uff12\uff15", "\u0662\u0665"],
                             ids=["underscore", "full-width", "arabic-indic"])
    def test_numeric_privileged_value_is_read_as_a_csv_cell(self, value):
        # float reads these as 1000, 25 and 25; load_csv rejects each of
        # them in a numeric cell, so the spec must too
        body = {**_SPECS["bank"], "sensitive": {
            "column": "age", "privileged": {"op": "ge", "value": value}}}
        with pytest.raises(DataError, match=r"'sensitive\.privileged\.value' on numeric"):
            DatasetSpec.from_dict(body)


# every JSON file fairsel ships or reads in the tests, and the keys of
# their objects, by dotted path, that a file may lack
_JSON_FILES = {**{f"{name}.json": files("fairsel") / "specs" / f"{name}.json"
                  for name in ("german", "compas", "bank")},
               "v7_toy_checkpoint.json": Path(__file__).parent / "data"
               / "v7_toy_checkpoint.json"}
_OPTIONAL = {"name", "selector", "encoder.spec.name"}


def _walk_cases():
    """(file, dotted path of one of its objects, one of that object's keys
    to delete or None to insert one) for every object of every file."""
    for file, source in _JSON_FILES.items():
        for path, obj in json_objects(json.loads(source.read_text())):
            yield from ((file, path, key) for key in (None, *obj))


class TestJsonObjects:
    @pytest.mark.parametrize("file,path,key", list(_walk_cases()),
                             ids=lambda v: "insert" if v is None else str(v))
    def test_each_key_is_named_by_its_path(self, tmp_path, file, path, key):
        # an inserted key, and a deleted one that is not optional, is a
        # data error that names its dotted path; every object of a spec
        # and of a checkpoint holds exactly the keys it is read for
        body = json.loads(_JSON_FILES[file].read_text())
        obj = dict(json_objects(body))[path]
        dotted = f"{path}.{key or 'junk'}" if path else key or "junk"
        if key is None:
            obj["junk"] = 1
        else:
            del obj[key]
        edited = tmp_path / file
        edited.write_text(json.dumps(body))
        load = load_model if "checkpoint" in file else DatasetSpec.from_json
        if dotted in _OPTIONAL:
            load(edited)
            return
        with pytest.raises(DataError) as exc:
            load(edited)
        word = "unknown" if key is None else "missing"
        assert f"{word} field {dotted!r}" in str(exc.value)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_number_json_lacks_is_named_with_the_file(self, tmp_path, token):
        # json reads each as a float: a favorable value 'nan' or 'inf', and
        # a privileged value that matches such cells
        spec = json.loads(_JSON_FILES["german.json"].read_text())
        spec["label"]["favorable"] = "TOKEN"
        model = json.loads(_JSON_FILES["v7_toy_checkpoint.json"].read_text())
        model["encoder"]["spec"]["columns"][0]["kind"] = "categorical"   # 'sens'
        model["encoder"]["spec"]["sensitive"]["privileged"] = {"op": "eq", "value": "TOKEN"}
        for load, body in ((DatasetSpec.from_json, spec), (load_model, model)):
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(body).replace('"TOKEN"', token))
            with pytest.raises(DataError, match=re.escape(
                    f"{path}: {token} is not a finite JSON number") + "$"):
                load(path)


class TestSpecValidation:
    def test_label_and_sensitive_distinct(self):
        with pytest.raises(DataError):
            DatasetSpec(columns=[ColumnSpec("g", "categorical")],
                        label_column="g", favorable_value="1",
                        sensitive_column="g",
                        privileged=Predicate(op="eq", value="x"))

    def test_sensitive_must_be_feature(self):
        with pytest.raises(DataError):
            DatasetSpec(columns=[ColumnSpec("a", "numeric")],
                        label_column="y", favorable_value="1",
                        sensitive_column="b",
                        privileged=Predicate(op="eq", value="x"))

    def test_numeric_predicate_on_categorical_rejected(self):
        with pytest.raises(DataError):
            DatasetSpec(columns=[ColumnSpec("g", "categorical")],
                        label_column="y", favorable_value="1",
                        sensitive_column="g",
                        privileged=Predicate(op="ge", value=3))

    def test_bundled_specs_parse(self):
        from importlib.resources import files
        for name in ("german", "compas", "bank"):
            spec = DatasetSpec.from_json(str(files("fairsel") / "specs" / f"{name}.json"))
            assert spec.name == name

    @pytest.mark.parametrize("name", ["german", "compas", "bank"])
    def test_bundled_spec_holds_no_ignored_key(self, name):
        # a key the loader ignores, such as a drop list, reads as if obeyed
        from importlib.resources import files
        path = str(files("fairsel") / "specs" / f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            shipped = json.load(fh)
        assert shipped == DatasetSpec.from_json(path).to_dict()

    def test_json_round_trip(self, tmp_path, german_spec_path):
        spec = DatasetSpec.from_json(german_spec_path)
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(spec.to_dict()))
        again = DatasetSpec.from_json(path)
        assert again.to_dict() == spec.to_dict()

    def test_numeric_eq_and_in_compare_numbers(self, tmp_path):
        rows = [[str(i), str(i % 2), "yes" if i < 5 else "no"] for i in range(10)]
        path = write_csv(tmp_path / "sex.csv", ["x", "sex", "label"], rows)
        for privileged in ({"op": "eq", "value": 1}, {"op": "in", "values": [1]},
                           {"op": "eq", "value": "1"}):
            spec = DatasetSpec.from_dict({
                "columns": [{"name": "x", "kind": "numeric"},
                            {"name": "sex", "kind": "numeric"}],
                "label": {"column": "label", "favorable": "yes"},
                "sensitive": {"column": "sex", "privileged": privileged}})
            ds = encode_and_normalize(load_csv(path, spec), spec)
            assert np.array_equal(ds.group_tags, [i % 2 == 1 for i in range(10)])

    @pytest.mark.parametrize("privileged", [{"op": "eq", "value": "Female"},
                                            {"op": "in", "values": [1, "F"]},
                                            {"op": "ge", "value": "old"}])
    def test_non_number_on_numeric_sensitive_column_rejected(self, privileged):
        with pytest.raises(DataError, match="not a number"):
            DatasetSpec.from_dict({
                "columns": [{"name": "sex", "kind": "numeric"}],
                "label": {"column": "label", "favorable": "yes"},
                "sensitive": {"column": "sex", "privileged": privileged}})

    def test_in_predicate_values_must_be_a_list(self, tmp_path):
        # a string would be read as its characters: "MX" as "M" or "X"
        rows = [["MF"[i % 2], str(i), "yes" if i % 3 else "no"] for i in range(40)]
        path = write_csv(tmp_path / "sex.csv", ["sex", "x", "label"], rows)
        spec = {"columns": [{"name": "sex", "kind": "categorical"},
                            {"name": "x", "kind": "numeric"}],
                "label": {"column": "label", "favorable": "yes"},
                "sensitive": {"column": "sex",
                              "privileged": {"op": "in", "values": ["MX"]}}}
        ds = encode_and_normalize(load_csv(path, DatasetSpec.from_dict(spec)),
                                  DatasetSpec.from_dict(spec))
        assert not ds.group_tags.any()
        spec["sensitive"]["privileged"]["values"] = "MX"
        with pytest.raises(DataError, match=r"'sensitive.privileged.values' must be "
                                            r"a list, got 'MX'"):
            DatasetSpec.from_dict(spec)

    @pytest.mark.parametrize("privileged,field", [
        ({"op": "eq", "value": ["Female"]}, "'sensitive.privileged.value'"),
        ({"op": "eq", "value": {"a": 1}}, "'sensitive.privileged.value'"),
        ({"op": "eq", "value": True}, "'sensitive.privileged.value'"),
        ({"op": "in", "values": [1, None, ["x"]]}, "'sensitive.privileged.values[1]'"),
        ({"op": "in", "values": [["A91"], ["A93"]]}, "'sensitive.privileged.values[0]'"),
        ({"op": "in", "values": ["A91", False]}, "'sensitive.privileged.values[1]'"),
    ])
    def test_privileged_value_must_be_a_string_or_number(self, privileged, field):
        # str() of a list, an object, null or a bool matches no cell as written
        with pytest.raises(DataError, match=re.escape(field)):
            DatasetSpec.from_dict({
                "columns": [{"name": "sex", "kind": "categorical"}],
                "label": {"column": "label", "favorable": "yes"},
                "sensitive": {"column": "sex", "privileged": privileged}})

    @pytest.mark.parametrize("privileged,field", [
        ({"op": "eq", "value": "F", "values": ["M"]}, "values"),
        ({"op": "in", "value": "F", "values": ["M"]}, "value"),
    ])
    def test_privileged_field_its_op_does_not_read_is_rejected(self, privileged,
                                                              field):
        # it used to load, and the group matched one of the two fields only
        with pytest.raises(DataError, match=re.escape(
                f"unknown field 'sensitive.privileged.{field}'")):
            DatasetSpec.from_dict({
                "columns": [{"name": "sex", "kind": "categorical"}],
                "label": {"column": "label", "favorable": "yes"},
                "sensitive": {"column": "sex", "privileged": privileged}})

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("sensitive"), "missing field 'sensitive'"),
        (lambda d: d["label"].pop("favorable"), "missing field 'label.favorable'"),
        (lambda d: d["label"].update(favorable=["yes"]),
         "'label.favorable' must be a string or a number"),
        (lambda d: d["columns"][0].update(kind=None), "'columns[0].kind' must be a string"),
        (lambda d: d["sensitive"].update(privileged="ge"),
         "'sensitive.privileged' must be an object"),
        (lambda d: d.update(name=7), "'name' must be a string"),
        (lambda d: d["label"].update(favorable=True),   # was read as "True"
         "'label.favorable' must be a string or a number, got True"),
        (lambda d: d["sensitive"].update(privileged={"op": "in", "values": []}),
         "'sensitive.privileged.values' must be a nonempty list"),
    ])
    def test_field_of_wrong_shape_is_named(self, edit, message):
        spec = {"columns": [{"name": "x", "kind": "numeric"}],
                "label": {"column": "label", "favorable": "yes"},
                "sensitive": {"column": "x", "privileged": {"op": "ge", "value": 1}}}
        edit(spec)
        with pytest.raises(DataError, match=re.escape(message)):
            DatasetSpec.from_dict(spec)

    def test_predicate_ops(self):
        assert list(Predicate(op="ge", value=25).mask([30.0, 20.0, 25.0])) == [
            True, False, True]
        assert list(Predicate(op="in", values=["a", "b"]).mask(["a", "c"])) == [
            True, False]
        assert list(Predicate(op="lt", value=5).mask([4.5, 5.0])) == [True, False]
        with pytest.raises(DataError):
            Predicate(op="between", value=1)

    @pytest.mark.parametrize("predicate,cells,expected", [
        # a numeric column's float cells compare as numbers, so -0.0 is 0.0
        (Predicate(op="eq", value=0), [-0.0, 0.0, 1.0], [True, True, False]),
        (Predicate(op="eq", value=-0.0), [0.0, -0.0], [True, True]),
        (Predicate(op="in", values=[-0.0, 3]), [0.0, -0.0, 3.0, 2.0],
         [True, True, True, False]),
        (Predicate(op="eq", value="25"), [25.0, 250.0], [True, False]),
        # a categorical column's cells compare as written
        (Predicate(op="eq", value=25), ["25", "25.0"], [True, False]),
        (Predicate(op="in", values=[1, "F", 2.5]), ["1", "F", "2.5", "1.0", "M"],
         [True, True, True, False, False]),
    ])
    def test_predicate_mask_compares_numbers_and_strings(self, predicate, cells,
                                                          expected):
        mask = predicate.mask(cells)
        assert mask.dtype == bool and list(mask) == expected
