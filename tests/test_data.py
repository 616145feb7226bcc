import csv
import json

import numpy as np
import pytest

from fairsel.data import (ColumnSpec, Dataset, DatasetSpec, Encoder,
                          Predicate, load_csv, prepare_splits, split,
                          split_indices, synth_proxy)
from fairsel.errors import DataError


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

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(tmp_path / "x.csv",
                         ["junk", "color", "size", "group", "label"],
                         [["z", "red", "2", "a", "yes"],
                          ["z", "blue", "4", "b", "no"]])
        raw = load_csv(path, tiny_spec())
        assert raw.n_rows == 2


class TestEncode:
    def test_min_max_endpoints(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        size_col = ds.column_names.index("size")
        assert np.allclose(ds.features[:, size_col], [0.0, 0.5, 1.0])

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
        expected = [tiny_spec().privileged.matches(v)
                    for v in raw.feature_values["group"]]
        assert np.array_equal(ds.group_tags, expected)

    def test_labels_one_hot_favorable_is_class_one(self, tiny_csv):
        ds = encode_and_normalize(load_csv(tiny_csv, tiny_spec()), tiny_spec())
        assert np.array_equal(ds.labels.argmax(axis=1), [1, 0, 1])
        assert np.allclose(ds.labels.sum(axis=1), 1.0)

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
        assert np.allclose(ds.labels.sum(axis=1), 1.0)
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

    def test_json_round_trip(self, tmp_path, german_spec_path):
        spec = DatasetSpec.from_json(german_spec_path)
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(spec.to_dict()))
        again = DatasetSpec.from_json(path)
        assert again.to_dict() == spec.to_dict()

    def test_predicate_ops(self):
        assert Predicate(op="ge", value=25).matches("30")
        assert not Predicate(op="ge", value=25).matches("20")
        assert Predicate(op="in", values=["a", "b"]).matches("a")
        assert Predicate(op="lt", value=5).matches("4.5")
        with pytest.raises(DataError):
            Predicate(op="between", value=1)
