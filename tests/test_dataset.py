from __future__ import annotations

import csv
import gc
import io
import os
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from synthaudit import (
    AttributeSchema,
    ConfigError,
    DataError,
    Dataset,
    Kind,
    MissingPolicy,
    OutlierConfig,
    Role,
    detect_outliers,
    load_dataset,
    save_dataset,
    synthesize,
)
from synthaudit import dataset
from synthaudit.dp_synth import count_marginals
from synthaudit.utility import compute_utility, utility_reference

from dataset_reference import reference_load

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


def test_a_nul_in_the_path_is_a_data_error_that_names_it():
    with pytest.raises(DataError) as caught:
        load_dataset("x\0y.csv", SCHEMA3)
    assert str(caught.value) == "cannot read x\0y.csv: embedded null byte"


def test_empty_file_is_data_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(DataError) as caught:
        load_dataset(path, SCHEMA3)
    assert str(caught.value) == f"{path}: empty file, header row required"


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


@pytest.mark.parametrize(
    "kind, column, dtype",
    [
        (Kind.NUMERICAL, [1.0, 2.0], "float64"),
        (Kind.NUMERICAL, np.array([1.0, 2.0], dtype=object), "float64"),
        # accepted once, and then save_dataset failed on it
        (Kind.CATEGORICAL, np.array([1.0, 2.0]), "object"),
        # accepted once, and then save_dataset wrote each row as one "[0.0, 0.0]" cell
        (Kind.NUMERICAL, np.zeros((2, 2)), "float64"),
    ],
    ids=["list", "object-under-numerical", "float64-under-categorical", "two-dimensional"],
)
def test_constructor_refuses_a_column_of_the_wrong_type(kind, column, dtype):
    with pytest.raises(DataError) as caught:
        Dataset((AttributeSchema("x", kind),), {"x": column}, 2)
    assert str(caught.value) == f"column 'x' is not a 1-D ndarray of dtype {dtype}"


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"y": np.array([1.0, 2.0])}, "columns do not match schema attribute names"),
        ({"x": np.array([1.0, 2.0]), "y": np.array([1.0, 2.0])}, "columns do not match schema attribute names"),
        ({"x": np.array([1.0, 2.0, 3.0])}, "column 'x' has 3 values, expected 2"),
        ({"x": np.array([1.0, np.nan])}, "non-finite value in numeric column 'x'"),
        ({"x": np.array([-np.inf, 1.0])}, "non-finite value in numeric column 'x'"),
    ],
    ids=["other-name", "extra-column", "length", "nan", "infinity"],
)
def test_constructor_refuses_columns_that_do_not_fit_the_schema(columns, message):
    with pytest.raises(DataError) as caught:
        Dataset((AttributeSchema("x", Kind.NUMERICAL),), columns, 2)
    assert str(caught.value) == message


def test_from_columns_names_a_missing_column():
    with pytest.raises(DataError) as caught:
        Dataset.from_columns(SCHEMA3, {"a": [1.0], "c": ["x"]})
    assert str(caught.value) == "missing column 'b'"


def test_from_columns_leaves_the_callers_array_alone():
    base = np.array([0.0] * 9 + [100.0])
    ds = Dataset.from_columns((AttributeSchema("x", Kind.NUMERICAL, Role.QI),), {"x": base})
    cfg = OutlierConfig(k=2.0, attributes=("x",))
    assert detect_outliers(ds, cfg).index.tolist() == [9]
    assert base.flags.writeable
    base[:] = base[::-1].copy()
    assert ds.column("x").tolist() == [0.0] * 9 + [100.0]
    assert detect_outliers(ds, cfg).index.tolist() == [9]


def num_ds(values):
    return Dataset.from_columns((AttributeSchema("x", Kind.NUMERICAL, Role.QI),), {"x": values})


def test_even_length_median_is_mean_of_middles():
    assert utility_reference(num_ds([1, 2, 10, 20]))["x"].tolist() == [1.0, 6.0, 20.0]


def test_sample_convention_switch():
    found = detect_outliers(num_ds([1, 2, 3]), OutlierConfig(k=0.5, attributes=("x",), ddof=1))
    assert found.index.tolist() == [0, 2]
    assert found.z["x"][1] == pytest.approx(1.0)


def twin(ds):
    """An equal dataset that is another object, so nothing derived from ``ds`` is reused."""
    return Dataset(schema=ds.schema, columns=dict(ds.columns), row_count=ds.row_count)


class TestDerived:
    def test_built_once_per_dataset_object_and_arguments(self):
        calls = []

        def build(ds, k):
            calls.append(k)
            return [k, ds.row_count]

        ds = num_ds([1.0, 2.0])
        first = ds.derived(build, 1)
        assert ds.derived(build, 1) is first
        assert ds.derived(build, 2) == [2, 2]
        assert calls == [1, 2]
        assert twin(ds).derived(build, 1) == first  # an equal dataset builds its own
        assert calls == [1, 2, 1]

    def test_a_build_that_raises_caches_nothing(self):
        calls = []

        def build(ds):
            calls.append(ds.row_count)
            if len(calls) == 1:
                raise DataError("first build fails")
            return "built"

        ds = num_ds([1.0])
        with pytest.raises(DataError, match="first build fails"):
            ds.derived(build)
        assert ds.derived(build) == "built"
        assert ds.derived(build) == "built"
        assert calls == [1, 1]

    def test_utility_reference_is_read_only(self):
        schema = (AttributeSchema("x", Kind.NUMERICAL, Role.QI), AttributeSchema("c", Kind.CATEGORICAL))
        ds = Dataset.from_columns(schema, {"x": [1.0, 2.0, 3.0], "c": ["a", "b", "a"]})
        before = compute_utility(ds, ds)
        reference = utility_reference(ds)
        with pytest.raises(ValueError, match="read-only"):
            reference["x"][0] = 2.5
        with pytest.raises(ValueError, match="read-only"):
            reference["c"][0] = "z"
        with pytest.raises(TypeError):
            reference["x"] = np.array([2.5, 2.5, 2.5])
        after = compute_utility(ds, ds)
        assert after == before
        assert after.aggregate["BoundaryAdherence"]["mean"] == 1.0
        assert after.aggregate["StatisticSimilarity"]["mean"] == 1.0

    def test_empty_column_reference_is_read_only(self):
        reference = utility_reference(Dataset.from_columns(SCHEMA3, {"a": [], "b": [], "c": []}))
        assert not any(col.flags.writeable for col in reference.values())
        with pytest.raises(TypeError):
            del reference["c"]

    def test_marginal_counts_are_read_only(self):
        schema = (AttributeSchema("x", Kind.NUMERICAL, Role.QI), AttributeSchema("c", Kind.CATEGORICAL))
        ds = Dataset.from_columns(schema, {"x": [1.0, 2.0, 3.0], "c": ["a", "b", "a"]})
        marginals = count_marginals(ds, 4)
        with pytest.raises(TypeError):
            marginals["c"] = (("a",), np.array([3.0]))
        with pytest.raises(TypeError):
            del marginals["x"]
        with pytest.raises(ValueError, match="read-only"):
            marginals["c"][1][0] = 99.0
        assert count_marginals(ds, 4)["c"][1].tolist() == [2.0, 1.0]

    def test_outlier_z_scores_are_read_only(self):
        found = detect_outliers(num_ds([1.0, 2.0, 3.0, 50.0]), OutlierConfig(k=1.0, attributes=("x",)))
        with pytest.raises(ValueError, match="read-only"):
            found.z["x"][0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            found.index[0] = 0
        with pytest.raises(TypeError):
            found.z["y"] = np.zeros(1)
        with pytest.raises(TypeError):
            del found.z["x"]
        assert found.z["x"][0] > 1.0
        assert found.index.tolist() == [3] and list(found.z) == ["x"] and found.z["x"].shape == (1,)

    def test_dataset_with_derived_values_is_freed_by_reference_counting(self):
        schema = (AttributeSchema("x", Kind.NUMERICAL, Role.QI), AttributeSchema("c", Kind.CATEGORICAL))
        enabled = gc.isenabled()
        gc.disable()  # only reference counting may free it
        try:
            ds = Dataset.from_columns(schema, {"x": [1.0, 2.0, 3.0, 50.0], "c": ["a", "b", "a", "c"]})
            assert len(detect_outliers(ds, OutlierConfig(k=1.0, attributes=("x",)))) == 1
            assert count_marginals(ds, 4)["c"][0] == ("a", "b", "c")
            assert sorted(utility_reference(ds)["c"].tolist()) == ["a", "b", "c"]
            ref = weakref.ref(ds)
            del ds
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


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


# A data row a few blocks in, so its error is found by rescanning a later block.
LATE = dataset.BLOCK_ROWS + 476


def long_rows(n=dataset.BLOCK_ROWS + 600):
    return [[str(i), str(i * 2), f"cat{i % 3}"] for i in range(n)]


def load_error(path, policy=MissingPolicy.DROP_ROW) -> str:
    with pytest.raises(DataError) as excinfo:
        load_dataset(path, SCHEMA3, policy)
    return str(excinfo.value)


@pytest.mark.parametrize(
    "cells, message",
    [
        (["1", "2"], "{path}: data row {line} has 2 cells, expected 3"),
        (["1", "2", "x", "4"], "{path}: data row {line} has 4 cells, expected 3"),
        (["twelve", "2", "x"], "non-numeric token 'twelve' in numeric column 'a' (data row {line})"),
        (["1", " 1e3x", "x"], "non-numeric token ' 1e3x' in numeric column 'b' (data row {line})"),
        (["1", "-inf", "x"], "non-finite value '-inf' in numeric column 'b' (data row {line})"),
        (["nan", "2", "x"], "non-finite value 'nan' in numeric column 'a' (data row {line})"),
    ],
)
def test_error_past_first_block_names_its_data_row(write_csv, cells, message):
    rows = long_rows()
    rows[LATE - 1] = cells
    path = write_csv("late.csv", ["a", "b", "c"], rows)
    assert load_error(path) == message.format(path=path, line=LATE)


def test_missing_past_first_block_under_error_policy(write_csv):
    rows = long_rows()
    rows[LATE - 1][2] = "NA"
    path = write_csv("late.csv", ["a", "b", "c"], rows)
    assert load_error(path, MissingPolicy.ERROR) == f"{path}: missing value in data row {LATE}"


def test_earlier_row_wins_over_later_error_of_another_kind(write_csv):
    rows = long_rows()
    rows[LATE - 1][0] = "x"  # non-numeric in column a
    rows[LATE - 2][1] = "inf"  # one row earlier, in column b
    rows[LATE + 5] = ["1"]  # ragged, later
    path = write_csv("two.csv", ["a", "b", "c"], rows)
    assert load_error(path) == f"non-finite value 'inf' in numeric column 'b' (data row {LATE - 1})"

    rows = long_rows()
    rows[LATE - 1][0] = ""  # missing, under ERROR
    rows[LATE + 3][1] = "x"
    path = write_csv("missing.csv", ["a", "b", "c"], rows)
    assert load_error(path, MissingPolicy.ERROR) == f"{path}: missing value in data row {LATE}"


def test_schema_order_decides_between_bad_cells_of_one_row(write_csv):
    # The file lists b before a; the message names a, the schema's first column.
    rows = [[str(i), str(i), "c"] for i in range(LATE + 10)]
    rows[LATE - 1] = ["bad_b", "bad_a", "c"]
    path = write_csv("order.csv", ["b", "a", "c"], rows)
    assert load_error(path) == f"non-numeric token 'bad_a' in numeric column 'a' (data row {LATE})"


def test_bad_token_in_a_dropped_row_is_not_an_error(write_csv, caplog):
    rows = long_rows()
    rows[LATE - 1][0] = ""
    rows[LATE - 1][1] = "x"
    path = write_csv("dropped.csv", ["a", "b", "c"], rows)
    with caplog.at_level("WARNING", logger="synthaudit.dataset"):
        ds = load_dataset(path, SCHEMA3, MissingPolicy.DROP_ROW)
    assert ds.row_count == len(rows) - 1
    assert LATE - 1 not in ds.column("a")
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: dropped 1 of {len(rows)} data rows with missing cells"
    ]


def test_bad_row_before_malformed_csv_in_one_block_is_reported_first(tmp_path):
    path = tmp_path / "both.csv"
    lines = ["a,b,c"] + [f"{i},{i},c" for i in range(LATE + 10)]
    lines[LATE] = "1,x,c"
    lines[LATE + 5] = f"1,2,{'y' * 200_000}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_error(path) == f"non-numeric token 'x' in numeric column 'b' (data row {LATE})"
    lines[LATE] = "1,2,c"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_error(path).startswith(f"{path}: not readable as UTF-8 CSV: field larger")


def quote_free_text(n: int, line_end: str) -> str:
    """A header and n rows that need no quotes, one row in eight missing a cell."""
    rows = [[f"{i}", f"{i * 2.5}", f"cat {i % 7}"] for i in range(n)]
    for row in rows[3::8]:
        row[1] = "NA"
    return line_end.join(",".join(row) for row in [["a", "b", "c"], *rows]) + line_end


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_quote_free_file_is_split_without_csv_reader(tmp_path, monkeypatch, line_end):
    path = tmp_path / "plain.csv"
    path.write_bytes(quote_free_text(1000, line_end).encode())
    want = reference_load(path, SCHEMA3)
    reader = csv.reader

    def header_only(lines):
        rows = reader(lines)
        yield next(rows)
        raise AssertionError("csv.reader read a data row")

    monkeypatch.setattr(dataset.csv, "reader", header_only)
    got = load_dataset(path, SCHEMA3)
    assert got == want
    assert got.row_count == 875


@pytest.mark.parametrize("chars", [1024, dataset.READ_CHARS])
def test_quoted_cell_hands_the_rest_of_the_file_to_csv_reader(tmp_path, monkeypatch, chars):
    text = quote_free_text(1000, "\n").split("\n")
    text[300] = '299,747.5,"cat, ""5""\r\nsecond line"'
    path = tmp_path / "quoted.csv"
    path.write_bytes("\n".join(text).encode())
    monkeypatch.setattr(dataset, "READ_CHARS", chars)
    got = load_dataset(path, SCHEMA3)
    assert got == reference_load(path, SCHEMA3)
    assert 'cat, "5"\r\nsecond line' in got.column("c").tolist()


def test_text_with_no_line_feed_is_handed_to_csv_reader_within_the_field_limit(tmp_path, monkeypatch):
    # Lone CR line ends: the split path holds no more than the field limit,
    # one read and one line of such text before csv.reader reads the file.
    path = tmp_path / "cr.csv"
    path.write_bytes(("a,b,c\r" + "1,2,x\r" * 50_000).encode())
    handed = []
    string_io = io.StringIO

    def spy(text, *args, **kwargs):
        handed.append(len(text))
        return string_io(text, *args, **kwargs)

    monkeypatch.setattr(dataset.io, "StringIO", spy)
    got = load_dataset(path, SCHEMA3)
    monkeypatch.undo()
    assert got == reference_load(path, SCHEMA3)
    assert len(handed) == 1
    assert handed[0] <= csv.field_size_limit() + dataset.READ_CHARS + len("1,2,x\r")


def test_the_error_reported_is_the_one_csv_reader_meets_first(tmp_path):
    # csv.reader decodes 8 KiB at a time. The chunk from byte 65,536 holds an
    # undecodable byte at 69,209, so csv.reader never reaches the bad row at
    # byte 67,203. The split path's first read, after the 3,003-byte header,
    # decodes up to byte 68,539 and parses that row. The error must be
    # csv.reader's, down to the byte position in its chunk.
    schema = tuple(AttributeSchema(a.name * 1000, a.kind) for a in SCHEMA3)
    header = ",".join(a.name for a in schema).encode() + b"\n"
    tail = b"1,2,x\n" * 500
    path = tmp_path / "late.csv"
    path.write_bytes(header + b"1,2,x\n" * 10_700 + b"1,x,x\n" + tail[:2_000] + b"\xff" + tail[2_000:])
    with pytest.raises(DataError) as excinfo:
        load_dataset(path, schema)
    with pytest.raises(DataError) as expected:
        reference_load(path, schema)
    assert str(excinfo.value) == str(expected.value)
    assert "can't decode byte 0xff" in str(excinfo.value)


def load_from_pipe(data: bytes, schema) -> Dataset:
    """``load_dataset`` on ``/dev/fd/N`` for the read end of a pipe holding
    ``data``, which must fit in the pipe's buffer."""
    read, write = os.pipe()
    try:
        with os.fdopen(write, "wb") as fh:
            fh.write(data)
        return load_dataset(f"/dev/fd/{read}", schema)
    finally:
        os.close(read)


needs_dev_fd = pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd to name a pipe by")


@needs_dev_fd
@pytest.mark.parametrize(
    "data",
    # the undecodable byte lies past the 8 KiB the header's read decodes
    [b"a,b,c\n1,2,x\n1,x,x\n", b'a,b,c\n1,2,"x"\n1,2\n', b"a,b,c\n" + b"1,2,x\n" * 2000 + b"\xff\n"],
    ids=["bad-token", "ragged-after-quote", "undecodable"],
)
def test_a_failing_load_from_a_pipe_is_a_data_error_naming_the_pipe(tmp_path, data):
    # A pipe is held in memory, so it is read again to find the first bad
    # row, as a file is; the load must neither read the drained pipe as an
    # empty file nor wait for a writer.
    path = tmp_path / "same.csv"
    path.write_bytes(data)
    with pytest.raises(DataError) as expected:
        load_dataset(path, SCHEMA3)
    with pytest.raises(DataError) as excinfo:
        load_from_pipe(data, SCHEMA3)
    assert re.sub(r"/dev/fd/\d+", str(path), str(excinfo.value)) == str(expected.value)


@needs_dev_fd
def test_a_pipe_loads_as_the_file_it_carries(tmp_path, monkeypatch):
    lines = quote_free_text(1000, "\n").split("\n")
    lines[500] = '499,1247.5,"cat, ""5"""'
    data = "\n".join(lines).encode()
    path = tmp_path / "quoted.csv"
    path.write_bytes(data)
    monkeypatch.setattr(dataset, "READ_CHARS", 1024)  # many reads, then csv.reader takes over
    assert load_from_pipe(data, SCHEMA3) == reference_load(path, SCHEMA3)


def test_nul_byte_is_read_as_the_csv_module_reads_it(tmp_path):
    path = tmp_path / "nul.csv"
    path.write_bytes(b"a,b,c\n1,2,x\x00y\n")
    if sys.version_info < (3, 11):  # csv.reader refuses NUL before Python 3.11
        with pytest.raises(DataError, match=re.escape(f"{path}: not readable as UTF-8 CSV: line contains NUL")):
            load_dataset(path, SCHEMA3)
    else:
        assert load_dataset(path, SCHEMA3).column("c").tolist() == ["x\x00y"]


@pytest.mark.parametrize("value", ["NA", ""])
def test_save_refuses_a_category_read_back_as_missing(tmp_path, value):
    ds = Dataset.from_columns(SCHEMA3, {"a": [1, 2, 3], "b": [4, 5, 6], "c": [value, "x", "y"]})
    with pytest.raises(DataError, match=re.escape(f"column 'c' holds {value!r}, which loads as a missing cell")):
        save_dataset(ds, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


def test_header_only_file_round_trips(write_csv, tmp_path):
    path = write_csv("empty.csv", ["a", "b", "c"], [])
    ds = load_dataset(path, SCHEMA3)
    assert ds.row_count == 0
    assert [ds.column(name).dtype for name in "abc"] == [np.float64, np.float64, object]
    save_dataset(ds, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()


def test_synthesized_floats_survive_save_and_load(toy_dataset, tmp_path):
    synth = synthesize(toy_dataset, epsilon=1.0, n=2 * dataset.BLOCK_ROWS + 3, seed=5)
    assert any(len(repr(v)) > 15 for v in synth.column("income"))  # full precision in play
    save_dataset(synth, tmp_path / "synth.csv")
    loaded = load_dataset(tmp_path / "synth.csv", synth.schema)
    assert loaded == synth
    for name in ("age", "income", "amount"):
        assert loaded.column(name).tobytes() == synth.column(name).tobytes()


def test_categories_with_line_breaks_round_trip(tmp_path):
    schema = (AttributeSchema("x", Kind.NUMERICAL), AttributeSchema("c", Kind.CATEGORICAL))
    cells = ["two\nlines", "crlf\r\nend", "\n"]
    ds = Dataset.from_columns(schema, {"x": [1.0, 2.0, 3.0], "c": cells})
    save_dataset(ds, tmp_path / "breaks.csv")
    assert load_dataset(tmp_path / "breaks.csv", schema) == ds


def test_loaded_categories_are_interned(write_csv):
    rows = [[i, i, f"cat{i % 3}-{i % 7}"] for i in range(dataset.BLOCK_ROWS + 5)]
    ds = load_dataset(write_csv("cats.csv", ["a", "b", "c"], rows), SCHEMA3)
    assert all(sys.intern(v) is v for v in ds.column("c"))


def test_load_memory_stays_within_one_and_a_half_times_the_table(tmp_path):
    # 40,000 rows by 12 columns, one row in eight missing a cell. Reading the
    # whole file into rows, parsing it cell by cell, or keeping each block's
    # arrays until one concatenation at the end peaks far higher.
    rng = np.random.default_rng(31)
    n = 40_000
    schema = tuple(AttributeSchema(f"n{k}", Kind.NUMERICAL) for k in range(8)) + tuple(
        AttributeSchema(f"c{k}", Kind.CATEGORICAL) for k in range(4)
    )
    cols = [np.round(rng.normal(1e4, 3e3, n), 2).astype(str) for _ in range(8)]
    homes = np.array(["RENT", "OWN", "MORTGAGE", "OTHER"])
    cols += [homes[rng.integers(0, 4, n)] for _ in range(4)]
    cols[3][rng.random(n) < 0.125] = "NA"
    path = tmp_path / "wide.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in schema])
        writer.writerows(zip(*(c.tolist() for c in cols)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(path, schema)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    table = 12 * 8 * ds.row_count
    assert 0.8 * n < ds.row_count < n
    assert retained >= table
    assert peak <= 1.5 * table, (peak, table)


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_file_is_loaded_into_arrays_sized_by_its_line_ends(tmp_path, monkeypatch, line_end):
    # A file's arrays never grow, and with no row dropped they are not
    # copied down either: a CR LF counts as one line end.
    path = tmp_path / "ends.csv"
    path.write_bytes(("a,b,c" + line_end + "".join(f"{i},{i / 4},x{line_end}" for i in range(3000))).encode())
    monkeypatch.setattr(dataset, "READ_CHARS", 1000)  # line ends cut between reads
    ds = load_dataset(path, SCHEMA3)
    assert ds == reference_load(path, SCHEMA3)
    assert all(col.base is not None for col in ds.columns.values())


def test_a_file_with_more_rows_than_line_ends_is_a_data_error(tmp_path, monkeypatch):
    # Only a file that changed while it was read can yield more rows than its
    # counted line ends: the load refuses it rather than grow its arrays, and
    # does not read it again for a bad row it does not hold.
    path = tmp_path / "changed.csv"
    path.write_text("a,b,c\n" + "".join(f"{i},{i / 4},x\n" for i in range(3000)), encoding="utf-8")
    count_line_ends = dataset._count_line_ends
    monkeypatch.setattr(dataset, "_count_line_ends", lambda fh: count_line_ends(fh) // 2)
    with pytest.raises(DataError, match=re.escape(f"{path}: changed while it was read")):
        load_dataset(path, SCHEMA3)


def test_a_mostly_dropped_table_keeps_no_slots_for_its_dropped_rows(tmp_path):
    # 9 of every 10 rows carry NA: the file's line count of slots would be
    # ten times the table, so each column is copied down to its rows
    rows = [[f"{i}", "NA" if i % 10 else f"{i / 4}", f"cat {i % 7}"] for i in range(3000)]
    path = tmp_path / "sparse.csv"
    path.write_text("\n".join(",".join(row) for row in [["a", "b", "c"], *rows]) + "\n", encoding="utf-8")
    ds = load_dataset(path, SCHEMA3)
    assert ds == reference_load(path, SCHEMA3)
    assert ds.row_count == 300
    for name, col in ds.columns.items():
        owned = col if col.base is None else col.base
        assert owned.nbytes <= 2 * ds.row_count * col.itemsize, name
