from __future__ import annotations

import math
import re

import numpy as np
import pytest

from synthaudit import (
    AttributeSchema,
    ConfigError,
    DataError,
    Dataset,
    Kind,
    MissingPolicy,
    Role,
    category_set,
    column_stats,
    load_dataset,
    save_dataset,
)

SCHEMA3 = (
    AttributeSchema("a", Kind.NUMERICAL, Role.QI),
    AttributeSchema("b", Kind.NUMERICAL),
    AttributeSchema("c", Kind.CATEGORICAL, Role.QI),
)


def rows10():
    return [[i, i * 2, f"cat{i % 3}"] for i in range(10)]


def test_load_complete_file(write_csv):
    path = write_csv("ok.csv", ["a", "b", "c"], rows10())
    ds = load_dataset(path, SCHEMA3)
    assert ds.row_count == 10
    assert list(ds.column("a")) == list(range(10))
    assert ds.column("c")[4] == "cat1"


def test_drop_row_removes_exactly_incomplete_rows(write_csv):
    rows = rows10()
    rows[2][0] = ""
    rows[7][1] = "NA"
    path = write_csv("missing.csv", ["a", "b", "c"], rows)
    ds = load_dataset(path, SCHEMA3, MissingPolicy.DROP_ROW)
    assert ds.row_count == 8
    # survivors keep their relative order
    assert list(ds.column("a")) == [0, 1, 3, 4, 5, 6, 8, 9]


def test_drop_row_warns_once_per_file(write_csv, caplog):
    rows = rows10()
    rows[2][0] = ""
    rows[7][1] = "NA"
    path = write_csv("missing.csv", ["a", "b", "c"], rows)
    with caplog.at_level("WARNING", logger="synthaudit.dataset"):
        load_dataset(path, SCHEMA3, MissingPolicy.DROP_ROW)
        load_dataset(write_csv("ok.csv", ["a", "b", "c"], rows10()), SCHEMA3)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: dropped 2 of 10 data rows with missing cells"
    ]


def test_utf8_bom_is_skipped(write_csv, tmp_path):
    plain = write_csv("plain.csv", ["a", "b", "c"], rows10())
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_dataset(bom, SCHEMA3) == load_dataset(plain, SCHEMA3)
    # files are written back without one
    save_dataset(load_dataset(bom, SCHEMA3), tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes()[:1] == b"a"


def test_error_policy_rejects_missing(write_csv):
    rows = rows10()
    rows[0][2] = ""
    path = write_csv("missing.csv", ["a", "b", "c"], rows)
    with pytest.raises(DataError, match="missing value"):
        load_dataset(path, SCHEMA3, MissingPolicy.ERROR)


def test_missing_marker_na_in_categorical(write_csv):
    rows = rows10()
    rows[3][2] = "NA"
    path = write_csv("na.csv", ["a", "b", "c"], rows)
    assert load_dataset(path, SCHEMA3).row_count == 9


def test_non_numeric_token_is_error_not_missing(write_csv):
    rows = rows10()
    rows[1][0] = "twelve"
    path = write_csv("bad.csv", ["a", "b", "c"], rows)
    with pytest.raises(DataError, match="non-numeric"):
        load_dataset(path, SCHEMA3)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
def test_non_finite_tokens_rejected(write_csv, token):
    rows = rows10()
    rows[5][1] = token
    path = write_csv("nonfinite.csv", ["a", "b", "c"], rows)
    with pytest.raises(DataError, match="non-finite"):
        load_dataset(path, SCHEMA3)


def test_header_must_match_schema_as_set(write_csv):
    path = write_csv("wrong.csv", ["a", "b", "x"], rows10())
    with pytest.raises(DataError, match="header"):
        load_dataset(path, SCHEMA3)


def test_column_order_follows_schema_not_file(write_csv):
    path = write_csv("shuffled.csv", ["c", "a", "b"], [["cat0", 1, 2], ["cat1", 3, 4]])
    ds = load_dataset(path, SCHEMA3)
    assert [attr.name for attr in ds.schema] == ["a", "b", "c"]
    assert list(ds.column("a")) == [1, 3]
    assert list(ds.column("c")) == ["cat0", "cat1"]


def test_duplicate_header_rejected(write_csv):
    path = write_csv("dup.csv", ["a", "a", "c"], [[1, 2, "x"]])
    with pytest.raises(DataError, match="duplicate"):
        load_dataset(path, SCHEMA3)


def test_unreadable_file():
    with pytest.raises(DataError, match="cannot read"):
        load_dataset("/nonexistent/nope.csv", SCHEMA3)


def test_non_utf8_file_is_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b,c\n1,2,café\n".encode("latin-1"))
    with pytest.raises(DataError, match=re.escape(f"{path}: not readable as UTF-8 CSV")):
        load_dataset(path, SCHEMA3)


def test_oversize_field_is_data_error(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"a,b,c\n1,2,{'x' * 200_000}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: not readable as UTF-8 CSV: field larger")):
        load_dataset(path, SCHEMA3)


def test_ragged_row_rejected(write_csv, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,c\n1,2,x\n1,2\n", encoding="utf-8")
    with pytest.raises(DataError, match="cells"):
        load_dataset(path, SCHEMA3)


def test_schema_rejects_duplicate_names():
    with pytest.raises(ConfigError, match="duplicate"):
        Dataset.from_columns(
            (AttributeSchema("a", Kind.NUMERICAL), AttributeSchema("a", Kind.NUMERICAL)),
            {"a": [1.0]},
        )


def test_columns_are_read_only(toy_dataset):
    with pytest.raises(ValueError):
        toy_dataset.column("age")[0] = 99


def num_ds(values):
    return Dataset.from_columns((AttributeSchema("x", Kind.NUMERICAL, Role.QI),), {"x": values})


def test_column_stats_basic():
    stats = column_stats(num_ds([1, 2, 3]), "x")
    assert stats.mean == 2
    assert stats.stddev == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    assert (stats.min, stats.max, stats.median) == (1, 3, 2)


def test_column_stats_single_and_constant():
    single = column_stats(num_ds([5]), "x")
    assert (single.mean, single.stddev, single.median) == (5, 0, 5)
    assert column_stats(num_ds([1, 1, 1, 1]), "x").stddev == 0


def test_even_length_median_is_mean_of_middles():
    assert column_stats(num_ds([1, 2, 10, 20]), "x").median == 6.0


def test_sample_convention_switch():
    assert column_stats(num_ds([1, 2, 3]), "x", ddof=1).stddev == pytest.approx(1.0)


def test_column_stats_errors(toy_dataset):
    with pytest.raises(DataError):
        column_stats(toy_dataset, "home")
    empty = Dataset.from_columns((AttributeSchema("x", Kind.NUMERICAL),), {"x": []})
    with pytest.raises(DataError):
        column_stats(empty, "x")


def test_min_median_max_ordering():
    rng = np.random.default_rng(7)
    for _ in range(25):
        ds = num_ds(rng.normal(0, 10, size=rng.integers(1, 40)))
        stats = column_stats(ds, "x")
        assert stats.min <= stats.median <= stats.max


def test_stddev_invariant_under_repetition():
    rng = np.random.default_rng(11)
    values = list(rng.normal(5, 3, size=17))
    base = column_stats(num_ds(values), "x").stddev
    repeated = column_stats(num_ds(values * 4), "x").stddev
    assert repeated == pytest.approx(base, rel=1e-12)


def test_category_set_contract(toy_dataset):
    ds = Dataset.from_columns(
        (AttributeSchema("c", Kind.CATEGORICAL),), {"c": ["MORTGAGE", "RENT", "MORTGAGE"]}
    )
    assert category_set(ds, "c") == {"MORTGAGE", "RENT"}
    one = Dataset.from_columns((AttributeSchema("c", Kind.CATEGORICAL),), {"c": ["A"]})
    assert category_set(one, "c") == {"A"}
    mixed = Dataset.from_columns((AttributeSchema("c", Kind.CATEGORICAL),), {"c": ["a", "A"]})
    assert category_set(mixed, "c") == {"a", "A"}
    with pytest.raises(DataError):
        category_set(toy_dataset, "age")


def test_round_trip_reproduces_equal_dataset(toy_dataset, tmp_path):
    path = tmp_path / "roundtrip.csv"
    save_dataset(toy_dataset, path)
    assert load_dataset(path, toy_dataset.schema) == toy_dataset


def test_round_trip_with_awkward_categories(tmp_path):
    schema = (
        AttributeSchema("x", Kind.NUMERICAL),
        AttributeSchema("c", Kind.CATEGORICAL),
    )
    ds = Dataset.from_columns(
        schema, {"x": [0.1, 2.5e-8, -3.0], "c": ['with,comma', 'with "quote"', "plain"]}
    )
    path = tmp_path / "awkward.csv"
    save_dataset(ds, path)
    assert load_dataset(path, schema) == ds


def test_dataset_equality_semantics(toy_dataset, toy_schema):
    other = Dataset.from_columns(
        toy_schema, {name: list(toy_dataset.column(name)) for name in toy_dataset.columns}
    )
    assert other == toy_dataset
    changed = {name: list(toy_dataset.column(name)) for name in toy_dataset.columns}
    changed["age"][0] = 26
    assert Dataset.from_columns(toy_schema, changed) != toy_dataset
