"""Property tests: load_dataset against the row-by-row reference loader, and
save_dataset against the reference ``csv.writer`` loop.

Small CSV files mix valid numeric tokens (with surrounding space, an
exponent, a digit separator, a negative zero, and at the limits of the
loader's byte kernel: 8 and 9 digits, a leading or trailing point, a sign
before 7 digits), the missing markers ``""``
and ``NA``, bad numeric tokens (``x``, ``inf``, ``nan``), categorical cells
drawn from a pool that holds commas and line breaks or from one that needs
no quotes (texts over 8 and 16 bytes among them), and rows with one cell
too few or too many, under a header in any column order, with rows ending
in LF or CR LF. Examples add what
``csv.writer`` never writes: a blank line, a last line with no line end, a
lone carriage return, a NUL byte, a first quote late in the file and a field
longer than the csv module's limit (lowered here, so that it stays small),
and bytes that are not UTF-8: in the header, in a data row, after a bad row
in the 8 KiB that ``csv.reader`` decodes at once, and a multi-byte sequence
cut short at the end of the file.
Each file is loaded under both missing policies with ``BLOCK_ROWS`` set to
1, 2, 3 and its default, each with its own ``READ_CHARS``, so errors fall at
every position in a block and the text is cut at every position in a line.
Both loaders must return equal datasets and log the same warning, or raise
the same ``DataError`` message.

Saved tables of one column or more mix categories that csv.writer quotes
or keeps as they are (commas, quotes, each line break, spaces at either end,
``NA``, text of two to four UTF-8 bytes a character, a NUL anywhere, last
included) with floats at ``repr``'s switch to exponent form, negative zero
and subnormals, or with columns written wholly in exponent form, on 0 and 1
rows and on either side of a ``BLOCK_ROWS`` boundary, the writer's block. Both
writers must write the same bytes, unless a category is ``""`` or ``NA``:
then save_dataset must refuse the table, naming the first such column,
before it creates the file.
"""

from __future__ import annotations

import csv
import io
import logging
import re
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

VALID_NUMBERS = [" 7", "1e3", "1_0", "-0", "2.5", "0.1"]
VALID_NUMBERS += ["12345678", "123456789", "-0.5", ".5", "5.", "-1234567"]  # at the byte kernel's limits
CATEGORIES = ["A", "b c", "with,comma", "line\nbreak", "crlf\r\nbreak", "NA ", 'say "hi"']
PLAIN_CATEGORIES = ["A", "b c", " lead", "NA ", "\u2028", "é\x0b"]  # csv.writer quotes none
# over 8 and over 16 bytes, alike but for their second or third 8-byte word
PLAIN_CATEGORIES += ["category one", "category two", "the category of one", "the category of two"]
INVALID = ["", "NA", "x", "inf", "nan"]
FIELD_LIMIT = 40  # csv.field_size_limit() while a file is loaded
ONE_COLUMN = (AttributeSchema("c", Kind.CATEGORICAL),)


def csv_text(header: list[str], rows: list[list[str]], line_end: str = "\r\n") -> str:
    """The text csv.writer writes for a header and rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@st.composite
def files(draw):
    """The schema and the text of one file, of three columns or of one.

    In a one-column file a wrong cut between lines gives wrong rows, not
    ragged ones."""
    schema = draw(st.sampled_from([SCHEMA, ONE_COLUMN]))
    header = draw(st.permutations([attr.name for attr in schema]))
    categories = draw(st.sampled_from([CATEGORIES, PLAIN_CATEGORIES]))
    n = draw(st.integers(0, 9))
    rows = []
    for _ in range(n):
        cells = {
            "a": draw(st.sampled_from(VALID_NUMBERS)),
            "b": draw(st.sampled_from(VALID_NUMBERS)),
            "c": draw(st.sampled_from(categories)),
        }
        rows.append([cells[name] for name in header])
    if n:
        index = st.integers(0, n - 1)
        bad_cells = st.tuples(index, st.integers(0, len(header) - 1), st.sampled_from(INVALID))
        for row, col, token in draw(st.lists(bad_cells, max_size=4)):
            rows[row][col] = token
        for row, longer in draw(st.lists(st.tuples(index, st.booleans()), max_size=1)):
            rows[row] = rows[row] + ["extra"] if longer else rows[row][:-1]
    return schema, csv_text(header, rows, draw(st.sampled_from(["\n", "\r\n"])))


# Row 2 holds both a missing cell and a bad token; row 3 a later bad token.
DROPPED_BAD_ROW = (SCHEMA, csv_text(["a", "b", "c"], [["1", "2", "A"], ["", "x", "A"], ["3", "inf", "A"]]))
RAGGED_AFTER_BAD = (SCHEMA, csv_text(["c", "b", "a"], [["A", "1", "2"], ["A", "nan", "x"], ["A", "1"]]))
# csv.reader reads a blank line as a row of no cells.
BLANK_LINE = (SCHEMA, "a,b,c\n1,2,A\n\n3,4,B\n")
BLANK_LINE_ONE_COLUMN = (ONE_COLUMN, "c\nA\n\nB\n")
BLANK_CRLF_LINE_ONE_COLUMN = (ONE_COLUMN, "c\r\nA\r\n\r\nB\r\n")
NO_LAST_LINE_END = (SCHEMA, "a,b,c\n1,2,A\n3,4,B")
FIRST_QUOTE_IN_THIRD_ROW = (SCHEMA, 'a,b,c\n1,2,A\n3,4,B\n5,6,"q,\n\r\nx"\n7,8,C\n')
LONE_CARRIAGE_RETURN = (SCHEMA, "a,b,c\n1,2,A\r3,4,B\n5,6,C\r")
LONE_CARRIAGE_RETURN_ONE_COLUMN = (ONE_COLUMN, "c\nA\rB\r\nC\n")
QUOTE_BEFORE_A_CUT_LINE = (ONE_COLUMN, 'c\nA\n"q"\nBCDEFG\nH\n')  # READ_CHARS 5 cuts "BCDEFG"
NUL_BYTE = (SCHEMA, "a,b,c\n1,2,A\n3,4,B\x00\n")  # refused by csv.reader before Python 3.11
LONG_FIELD = (SCHEMA, f"a,b,c\n1,2,A\n3,4,{'B' * (FIELD_LIMIT + 1)}\n5,6,C\n")
LONG_LINE = (SCHEMA, f"a,b,c\n1,2,A\n3,4,{'B' * (FIELD_LIMIT - 4)}\n5,6,C\n")

# Files given as bytes; csv.reader decodes 8,192 bytes at a time.
ROWS_PAST_FIRST_CHUNK = b"a,b,c\n" + b"1,2,A\n" * 1400
UNDECODABLE_HEADER = (SCHEMA, b"a,b,\xff\n1,2,A\n")
UNDECODABLE_ROW = (SCHEMA, ROWS_PAST_FIRST_CHUNK + b"3,4,\xff\n5,6,C\n")
UNDECODABLE_AFTER_BAD_ROW = (SCHEMA, ROWS_PAST_FIRST_CHUNK + b"1,x,A\n3,4,B\xff\n")
TRUNCATED_AT_END = (SCHEMA, b"a,b,c\n1,2,A\n3,4,\xc3")  # the first byte of a two-byte sequence


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def outcome(load, path: Path, schema: tuple[AttributeSchema, ...], policy: MissingPolicy):
    """("ok", dataset, warnings) or ("error", message) for one load."""
    handler = _Messages()
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        ds = load(path, schema, policy)
    except DataError as exc:
        return ("error", str(exc))
    finally:
        root.removeHandler(handler)
    return ("ok", ds, handler.messages)


@pytest.mark.parametrize("policy", list(MissingPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize(
    ("block", "chars"), [(1, 1), (2, 16), (3, 5), (dataset.BLOCK_ROWS, dataset.READ_CHARS)]
)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(table=files())
@example(table=DROPPED_BAD_ROW)
@example(table=RAGGED_AFTER_BAD)
@example(table=(SCHEMA, csv_text(["a", "b", "c"], [])))
@example(table=BLANK_LINE)
@example(table=BLANK_LINE_ONE_COLUMN)
@example(table=BLANK_CRLF_LINE_ONE_COLUMN)
@example(table=NO_LAST_LINE_END)
@example(table=FIRST_QUOTE_IN_THIRD_ROW)
@example(table=LONE_CARRIAGE_RETURN)
@example(table=LONE_CARRIAGE_RETURN_ONE_COLUMN)
@example(table=QUOTE_BEFORE_A_CUT_LINE)
@example(table=NUL_BYTE)
@example(table=LONG_FIELD)
@example(table=LONG_LINE)
@example(table=UNDECODABLE_HEADER)
@example(table=UNDECODABLE_ROW)
@example(table=UNDECODABLE_AFTER_BAD_ROW)
@example(table=TRUNCATED_AT_END)
def test_load_dataset_equals_reference_loader(policy, block, chars, table):
    schema, text = table
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        limit = csv.field_size_limit(FIELD_LIMIT)
        try:
            expected = outcome(reference_load, path, schema, policy)
            mp.setattr(dataset, "BLOCK_ROWS", block)
            mp.setattr(dataset, "READ_CHARS", chars)
            got = outcome(dataset.load_dataset, path, schema, policy)
        finally:
            csv.field_size_limit(limit)

    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
        return
    (_, ds, warnings), (_, want, want_warnings) = got, expected
    assert ds == want
    assert warnings == want_warnings
    for attr in schema:
        col, ref = ds.column(attr.name), want.column(attr.name)
        assert col.dtype == ref.dtype
        if attr.kind is Kind.NUMERICAL:
            assert col.tobytes() == ref.tobytes()  # -0.0 stays -0.0
        else:
            assert all(sys.intern(v) is v for v in col)


SAVED_CATEGORIES = st.one_of(
    st.sampled_from(["", ",", '"', '""', "\r", "\n", "\r\n", " lead", "trail ", " ", "NA", "é", "日本"]),
    st.sampled_from(["\x00", "a\x00", "\x00b", "é\x00", "\U0001f600", "a,\U0001f600\x00"]),
    st.text(alphabet=st.sampled_from(',"\r\n aZ\x00\u00e9\u2028\U0001f600'), max_size=5),
    st.text(max_size=4),
)
SAVED_FLOATS = st.one_of(
    st.sampled_from([1e16, 9999999999999998.0, 1e-5, 0.0001, -0.0, 0.0, 5e-324, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# floats repr writes in exponent form, so a column of them has no positional cell
EXPONENT_FLOATS = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: x and not 1e-4 <= abs(x) < 1e16
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
        cells = SAVED_CATEGORIES
        if kind is Kind.NUMERICAL:
            cells = draw(st.sampled_from([SAVED_FLOATS, EXPONENT_FLOATS]))
        pool = draw(st.lists(cells, min_size=1, max_size=6))
        schema.append(AttributeSchema(name, kind))
        columns[name] = [pool[i % len(pool)] for i in range(n)]
    return Dataset.from_columns(tuple(schema), columns)


def one_column(kind: Kind, values: list, name: str = "c") -> Dataset:
    return Dataset.from_columns((AttributeSchema(name, kind),), {name: values})


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(ds=datasets())
@example(ds=one_column(Kind.CATEGORICAL, ["", "x", ""]))  # read back as missing: refused
@example(ds=one_column(Kind.CATEGORICAL, ["", " "], name=""))
@example(ds=one_column(Kind.CATEGORICAL, [" ", "x"], name=""))  # a lone empty name is written ""
@example(ds=one_column(Kind.NUMERICAL, [1e16, 1e-5, -0.0, 5e-324, 1e15, 0.001]))
@example(ds=one_column(Kind.NUMERICAL, [-1e300, 3e-5, 1e16, 2.5e-310] * dataset.BLOCK_ROWS))
@example(ds=one_column(Kind.CATEGORICAL, ["x\x00", "\x00", "\U0001f600,é"] * 100))
@example(ds=one_column(Kind.CATEGORICAL, []))
def test_save_dataset_writes_what_the_reference_writer_wrote(ds):
    missing = [
        a.name for a in ds.schema
        if a.kind is Kind.CATEGORICAL and not dataset.MISSING_MARKERS.isdisjoint(ds.column(a.name))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        if missing:  # it would read back as a missing cell
            with pytest.raises(DataError, match=re.escape(f"column {missing[0]!r} holds ")):
                dataset.save_dataset(ds, Path(tmp) / "saved.csv")
            assert not (Path(tmp) / "saved.csv").exists()
            return
        dataset.save_dataset(ds, Path(tmp) / "saved.csv")
        reference_save(ds, Path(tmp) / "reference.csv")
        got = (Path(tmp) / "saved.csv").read_bytes()
        assert got == (Path(tmp) / "reference.csv").read_bytes()
