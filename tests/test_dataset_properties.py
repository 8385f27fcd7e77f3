"""Property tests: load_dataset against the row-by-row reference loader, and
save_dataset against the reference ``csv.writer`` loop.

Small CSV files mix valid numeric tokens (with surrounding space, an
exponent, a digit separator, a negative zero), the missing markers ``""``
and ``NA``, bad numeric tokens (``x``, ``inf``, ``nan``), categorical cells
holding commas and line breaks, and rows with one cell too few or too many,
under a header in any column order. Each file is loaded under both missing
policies with ``BLOCK_ROWS`` set to 1, 2, 3 and its default, so errors fall
at every position in a block and after a block boundary. Both loaders must
return equal datasets and log the same warning, or raise the same
``DataError`` message.

Saved tables mix categories that csv.writer quotes or keeps as they are
(commas, quotes, each line break, spaces at either end, ``NA``, non-ASCII
text) with floats at ``repr``'s switch to exponent form, negative zero and
subnormals, on 0 rows and on either side of a ``BLOCK_ROWS`` boundary. Both
writers must write the same bytes.
"""

from __future__ import annotations

import csv
import logging
import sys
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from synthaudit import AttributeSchema, DataError, Dataset, Kind, MissingPolicy, Role  # noqa: E402
from synthaudit import dataset  # noqa: E402

from dataset_reference import reference_load, reference_save  # noqa: E402

SCHEMA = (
    AttributeSchema("a", Kind.NUMERICAL, Role.QI),
    AttributeSchema("b", Kind.NUMERICAL),
    AttributeSchema("c", Kind.CATEGORICAL, Role.QI),
)
NAMES = [attr.name for attr in SCHEMA]

VALID_NUMBERS = [" 7", "1e3", "1_0", "-0", "2.5", "0.1"]
CATEGORIES = ["A", "b c", "with,comma", "line\nbreak", "crlf\r\nbreak", "NA "]
INVALID = ["", "NA", "x", "inf", "nan"]


@st.composite
def files(draw):
    """A header order and the rows of one file, before CSV quoting."""
    header = draw(st.permutations(NAMES))
    n = draw(st.integers(0, 9))
    rows = []
    for _ in range(n):
        cells = {
            "a": draw(st.sampled_from(VALID_NUMBERS)),
            "b": draw(st.sampled_from(VALID_NUMBERS)),
            "c": draw(st.sampled_from(CATEGORIES)),
        }
        rows.append([cells[name] for name in header])
    if n:
        index = st.integers(0, n - 1)
        bad_cells = st.tuples(index, st.integers(0, 2), st.sampled_from(INVALID))
        for row, col, token in draw(st.lists(bad_cells, max_size=4)):
            rows[row][col] = token
        for row, longer in draw(st.lists(st.tuples(index, st.booleans()), max_size=1)):
            rows[row] = rows[row] + ["extra"] if longer else rows[row][:-1]
    return header, rows


# Row 2 holds both a missing cell and a bad token; row 3 a later bad token.
DROPPED_BAD_ROW = (["a", "b", "c"], [["1", "2", "A"], ["", "x", "A"], ["3", "inf", "A"]])
RAGGED_AFTER_BAD = (["c", "b", "a"], [["A", "1", "2"], ["A", "nan", "x"], ["A", "1"]])


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def outcome(load, path: Path, policy: MissingPolicy):
    """("ok", dataset, warnings) or ("error", message) for one load."""
    handler = _Messages()
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        ds = load(path, SCHEMA, policy)
    except DataError as exc:
        return ("error", str(exc))
    finally:
        root.removeHandler(handler)
    return ("ok", ds, handler.messages)


@pytest.mark.parametrize("policy", list(MissingPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("block", [1, 2, 3, dataset.BLOCK_ROWS])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(table=files())
@example(table=DROPPED_BAD_ROW)
@example(table=RAGGED_AFTER_BAD)
@example(table=(["a", "b", "c"], []))
def test_load_dataset_equals_reference_loader(policy, block, table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "table.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        expected = outcome(reference_load, path, policy)
        mp.setattr(dataset, "BLOCK_ROWS", block)
        got = outcome(dataset.load_dataset, path, policy)

    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
        return
    (_, ds, warnings), (_, want, want_warnings) = got, expected
    assert ds == want
    assert warnings == want_warnings
    for attr in SCHEMA:
        col, ref = ds.column(attr.name), want.column(attr.name)
        assert col.dtype == ref.dtype
        if attr.kind is Kind.NUMERICAL:
            assert col.tobytes() == ref.tobytes()  # -0.0 stays -0.0
        else:
            assert all(sys.intern(v) is v for v in col)


SAVED_CATEGORIES = st.one_of(
    st.sampled_from(["", ",", '"', '""', "\r", "\n", "\r\n", " lead", "trail ", " ", "NA", "é", "日本"]),
    st.text(alphabet=st.sampled_from(',"\r\n aZ\u00e9\u2028'), max_size=5),
    st.text(max_size=4),
)
SAVED_FLOATS = st.one_of(
    st.sampled_from([1e16, 9999999999999998.0, 1e-5, 0.0001, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ROW_COUNTS = [0, 1, 2, dataset.BLOCK_ROWS - 1, dataset.BLOCK_ROWS, dataset.BLOCK_ROWS + 1]


@st.composite
def datasets(draw):
    """A table of one to three columns; each column repeats a few drawn values."""
    names = st.sampled_from(["a", "b c", " d", "é", ""])
    names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    n = draw(st.sampled_from(ROW_COUNTS))
    schema, columns = [], {}
    for name in names:
        kind = draw(st.sampled_from(list(Kind)))
        cells = SAVED_FLOATS if kind is Kind.NUMERICAL else SAVED_CATEGORIES
        pool = draw(st.lists(cells, min_size=1, max_size=6))
        schema.append(AttributeSchema(name, kind))
        columns[name] = [pool[i % len(pool)] for i in range(n)]
    return Dataset.from_columns(tuple(schema), columns)


def one_column(kind: Kind, values: list, name: str = "c") -> Dataset:
    return Dataset.from_columns((AttributeSchema(name, kind),), {name: values})


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ds=datasets())
@example(ds=one_column(Kind.CATEGORICAL, ["", "x", ""]))  # csv.writer writes an empty lone cell as ""
@example(ds=one_column(Kind.CATEGORICAL, ["", " "], name=""))
@example(ds=one_column(Kind.NUMERICAL, [1e16, 1e-5, -0.0, 5e-324, 1e15, 0.001]))
@example(ds=one_column(Kind.CATEGORICAL, []))
def test_save_dataset_writes_what_the_reference_writer_wrote(ds):
    with tempfile.TemporaryDirectory() as tmp:
        dataset.save_dataset(ds, Path(tmp) / "saved.csv")
        reference_save(ds, Path(tmp) / "reference.csv")
        got = (Path(tmp) / "saved.csv").read_bytes()
        assert got == (Path(tmp) / "reference.csv").read_bytes()
