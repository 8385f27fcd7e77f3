"""Typed, immutable columnar datasets with strict ingestion.

A :class:`Dataset` holds one table: numeric columns as float64 vectors,
categorical columns as interned strings. Ingestion enforces a complete-case
policy (rows with missing cells are dropped or rejected, never imputed) and
rejects non-numeric or non-finite tokens in numeric columns outright, so
every downstream computation can assume clean, finite, fully populated
columns. The schema a table is read with (:class:`AttributeSchema`,
:class:`Kind`, :class:`Role`, :func:`validate_schema`) is part of the plan,
so it lives in :mod:`synthaudit.config`, which imports no numpy.
"""

from __future__ import annotations

import csv
import enum
import io
import logging
import sys
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, NoReturn

import numpy as np

from .config import AttributeSchema, Kind, validate_schema
from .errors import DataError, Record

logger = logging.getLogger(__name__)

# Cell values treated as missing in every column kind. Anything else that
# fails to parse in a numeric column is corruption, not missingness.
MISSING_MARKERS = frozenset({"", "NA"})

BLOCK_ROWS = 256  # CSV rows parsed or formatted at once
READ_CHARS = 1 << 16  # characters of a CSV file the loader reads at once

# Characters that make csv.writer's default dialect quote a cell.
_CSV_SPECIAL = frozenset(',"\r\n')


def write_table(
    path: str | Path, columns: list[tuple[str, Callable, np.ndarray]], line_end: str = "\n"
) -> None:
    """Write (name, format, values) columns as a CSV table whose rows end in
    ``line_end``, formatting ``BLOCK_ROWS`` rows at once one column at a time.

    Names and formatted cells are written as they are, unquoted; the file
    is opened with ``newline=""``, so no platform rewrites the line ends.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(name for name, _, _ in columns) + line_end)
            for start in range(0, len(columns[0][2]), BLOCK_ROWS):
                block = [map(fmt, col[start : start + BLOCK_ROWS].tolist()) for _, fmt, col in columns]
                fh.write(line_end.join(map(",".join, zip(*block))) + line_end)
    except OSError as exc:
        exc.filename = exc.filename or path  # a failed buffered write names no file
        raise


def _csv_field(value: str, alone: bool) -> str:
    """``value`` as ``csv.writer``'s default dialect writes it: quoted, with
    each ``"`` doubled, when it holds a ``,``, a ``"`` or a line break, or
    when it is empty and the only cell of its row."""
    if (alone and not value) or not _CSV_SPECIAL.isdisjoint(value):
        return '"' + value.replace('"', '""') + '"'
    return value


class MissingPolicy(enum.Enum):
    DROP_ROW = "drop_row"
    ERROR = "error"


class Dataset(Record):
    """Immutable columnar table; safe to share across concurrent readers.

    Each column is a 1-D ndarray: float64 for a numerical attribute, object
    for a categorical one. The constructor freezes the arrays it is given and does
    not copy them, so a caller must not keep a writable view of one.
    """

    __slots__ = {
        "schema": "tuple[AttributeSchema, ...]", "columns": "MappingProxyType[str, np.ndarray]", "row_count": "int",
        "_derived": "dict: values derived from the columns, computed once (see ``derived``)",
    }
    _hidden = frozenset({"columns"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "columns", MappingProxyType(dict(self.columns)))  # any mapping, held read-only
        validate_schema(self.schema)
        if set(self.columns) != {a.name for a in self.schema}:
            raise DataError("columns do not match schema attribute names")
        for attr in self.schema:
            col = self.columns[attr.name]
            dtype = np.float64 if attr.kind is Kind.NUMERICAL else object
            if not isinstance(col, np.ndarray) or col.dtype != dtype or col.ndim != 1:
                raise DataError(f"column {attr.name!r} is not a 1-D ndarray of dtype {np.dtype(dtype)}")
            if len(col) != self.row_count:
                raise DataError(
                    f"column {attr.name!r} has {len(col)} values, expected {self.row_count}"
                )
            if attr.kind is Kind.NUMERICAL and len(col) and not np.all(np.isfinite(col)):
                raise DataError(f"non-finite value in numeric column {attr.name!r}")
            col.flags.writeable = False

    def derived(self, build: Callable[..., Any], *args: Any) -> Any:
        """``build(self, *args)``, computed once per dataset object and argument tuple.

        A dataset never changes, so a stored value cannot go stale; callers
        share it, so a build returns it read-only. A build that raises stores
        nothing. Two concurrent readers may both build a value; the two are
        equal, and either is kept. A value must not hold its dataset, so the
        dataset is freed by reference counting alone.
        """
        key = (build, *args)
        if key not in self._derived:
            self._derived[key] = build(self, *args)
        return self._derived[key]

    def attribute(self, name: str) -> AttributeSchema:
        for attr in self.schema:
            if attr.name == name:
                return attr
        raise DataError(f"no attribute named {name!r}")

    def column(self, name: str) -> np.ndarray:
        self.attribute(name)
        return self.columns[name]

    @classmethod
    def from_columns(
        cls, schema: tuple[AttributeSchema, ...], columns: dict[str, list | np.ndarray]
    ) -> "Dataset":
        """Build a dataset from in-memory columns, interning categorical cells."""
        validate_schema(schema)
        out: dict[str, np.ndarray] = {}
        n = None
        for attr in schema:
            if attr.name not in columns:
                raise DataError(f"missing column {attr.name!r}")
            if attr.kind is Kind.NUMERICAL:
                col = np.array(columns[attr.name], dtype=np.float64)  # a copy: the dataset freezes it
            else:
                col = np.array([sys.intern(str(v)) for v in columns[attr.name]], dtype=object)
            if n is None:
                n = len(col)
            out[attr.name] = col
        return cls(schema=schema, columns=out, row_count=int(n or 0))


def _parse_numeric(token: str, attr: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(
            f"non-numeric token {token!r} in numeric column {attr!r} (data row {line})"
        ) from None
    if not np.isfinite(value):
        raise DataError(f"non-finite value {token!r} in numeric column {attr!r} (data row {line})")
    return value


def _csv_rows(fh, path: Path):
    """Rows of an open CSV file; undecodable or malformed text is a DataError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not readable as UTF-8 CSV: {exc}") from exc


def _split_blocks(fh, path: Path):
    """Blocks of the rows ``csv.reader`` would read from ``fh``.

    The text is read ``READ_CHARS`` characters at a time and cut after its
    last line feed. A piece is split on line ends and commas while it holds
    no quote, NUL, blank line or carriage return outside a CR LF line end,
    and no line longer than ``csv.field_size_limit()``: there ``csv.reader``
    finds the same cells. From the first other piece, ``csv.reader`` reads
    the rest of the file, since a quoted field may span lines. It also takes
    over at a last line with no line end, and where the text runs past the
    field limit with no line feed, so the text held at once stays bounded.
    """
    limit = csv.field_size_limit()
    rest = ""
    while True:
        chunk = fh.read(READ_CHARS)
        text = rest + chunk
        end = text.rfind("\n") + 1
        text, rest = text[:end], text[end:]
        plain = text.replace("\r\n", "\n") if "\r" in text else text
        lines = plain[:-1].split("\n") if plain else []
        if (
            (rest and not chunk) or len(rest) > limit or "" in lines
            or '"' in plain or "\0" in plain or "\r" in plain
            or (len(plain) > limit and max(map(len, lines)) > limit)
        ):
            break
        for start in range(0, len(lines), BLOCK_ROWS):
            yield [line.split(",") for line in lines[start : start + BLOCK_ROWS]]
        if not chunk:
            return
    # the rest of a cut line completes the text, so csv.reader sees whole lines
    rows = _csv_rows(chain(io.StringIO(text + rest + fh.readline(), newline=""), fh), path)
    yield from iter(lambda: list(islice(rows, BLOCK_ROWS)), [])


def _parse_block(
    block: list[list[str]],
    schema: tuple[AttributeSchema, ...],
    pos: dict[str, int],
    missing_policy: MissingPolicy,
) -> list[np.ndarray] | None:
    """One block's schema-order columns of its kept rows, or None when any
    row in it is ragged, missing a cell under ``ERROR`` or holds a bad
    numeric token in a kept row."""
    if set(map(len, block)) != {len(pos)}:
        return None
    rows = list(filter(MISSING_MARKERS.isdisjoint, block))
    if len(rows) < len(block) and missing_policy is MissingPolicy.ERROR:
        return None
    cells = list(zip(*rows)) or [()] * len(pos)
    out = []
    for attr in schema:
        col = cells[pos[attr.name]]
        if attr.kind is Kind.NUMERICAL:
            try:
                values = np.fromiter(map(float, col), np.float64, len(col))
            except ValueError:
                return None
            if not np.isfinite(values).all():
                return None
        else:
            values = np.fromiter(map(sys.intern, col), object, len(col))
        out.append(values)
    return out


def _raise_first_error(
    fh,
    path: Path,
    schema: tuple[AttributeSchema, ...],
    pos: dict[str, int],
    missing_policy: MissingPolicy,
) -> NoReturn:
    """Read ``fh`` again from its start with ``csv.reader`` alone, row by
    row, and raise the first error in file order."""
    fh.seek(0)
    rows = _csv_rows(fh, path)
    next(rows)  # the header, checked before
    for line, row in enumerate(rows, start=1):
        if len(row) != len(pos):
            raise DataError(f"{path}: data row {line} has {len(row)} cells, expected {len(pos)}")
        if any(row[pos[a.name]] in MISSING_MARKERS for a in schema):
            if missing_policy is MissingPolicy.ERROR:
                raise DataError(f"{path}: missing value in data row {line}")
            continue
        for attr in schema:
            if attr.kind is Kind.NUMERICAL:
                _parse_numeric(row[pos[attr.name]], attr.name, line)
    raise AssertionError(f"{path}: failed to load, but csv.reader finds no error in it")


def _count_line_ends(fh) -> int:
    """Line ends in the bytes of ``fh``, read ``READ_CHARS`` bytes at a
    time: line feeds, plus carriage returns that no line feed follows in the
    same read. ``fh`` is left at its start. Every row ``csv.reader`` or
    :func:`_split_blocks` yields but the last ends in one of these."""
    count = 0
    for chunk in iter(lambda: fh.buffer.read(READ_CHARS), b""):
        codes = np.frombuffer(chunk, np.uint8)
        feeds = codes == ord("\n")
        count += np.count_nonzero(feeds)
        if b"\r" in chunk:
            returns = codes == ord("\r")
            count += np.count_nonzero(returns[:-1] > feeds[1:]) + int(returns[-1])
    fh.seek(0)
    return count


def load_dataset(
    path: str | Path,
    schema: tuple[AttributeSchema, ...],
    missing_policy: MissingPolicy = MissingPolicy.DROP_ROW,
) -> Dataset:
    """Read an RFC 4180 file into a Dataset.

    The header must contain exactly the schema's attribute names (any order);
    columns are reordered to schema order. A UTF-8 byte order mark is
    skipped. Rows containing a missing cell are dropped under ``DROP_ROW``
    (with one warning per file) or rejected under ``ERROR``; surviving rows
    keep their relative order. A dropped row's other cells are never parsed,
    so a bad token in it is not an error. A file that cannot be opened, is
    not UTF-8 or is not well-formed CSV raises ``DataError`` naming the path.

    The rows after the header come from :func:`_split_blocks` and are parsed
    ``BLOCK_ROWS`` at a time: a block's incomplete rows are dropped at once,
    then numeric cells go through Python's ``float()`` one column at a time
    and categorical cells are interned. A load that fails is read again,
    from its start, by ``csv.reader`` alone, row by row, so the ``DataError``
    is the first one ``csv.reader`` meets and names its data row.

    A handle that cannot seek, such as a pipe's, is read into memory first
    and then loaded as a file holding its bytes. Those bytes are read once
    to count their line ends, which bound the rows, so each block's kept
    rows are copied straight into one array per column: the load holds the
    table once, plus one block. More rows than line ends mean the file
    changed while it was read, a ``DataError``. A column is the first
    ``row_count`` slots of its array, copied down to them when the array
    has more than twice as many.
    """
    validate_schema(schema)
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot read {path}: {exc}") from exc

    with fh:
        if not fh.seekable():  # a pipe, held so it can be counted and read again
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), newline="", encoding="utf-8-sig")
        capacity = BLOCK_ROWS + _count_line_ends(fh)
        try:
            header = next(_csv_rows(fh, path))
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        expected = {a.name for a in schema}
        if set(header) != expected:
            missing = sorted(expected - set(header))
            extra = sorted(set(header) - expected)
            raise DataError(
                f"{path}: header does not match schema (missing={missing}, unexpected={extra})"
            )
        pos = {name: header.index(name) for name in header}

        columns = [np.empty(capacity, np.float64 if a.kind is Kind.NUMERICAL else object) for a in schema]
        rows = line = kept = 0
        failed = False
        try:
            for block in _split_blocks(fh, path):
                parts = _parse_block(block, schema, pos, missing_policy)
                if parts is None:
                    failed = True
                    break
                kept = rows + len(parts[0])
                if kept > capacity:  # more rows than line ends
                    break
                for col, part in zip(columns, parts):
                    col[rows:kept] = part
                rows = kept
                line += len(block)
        except (DataError, UnicodeDecodeError):
            failed = True
        if failed:
            _raise_first_error(fh, path, schema, pos, missing_policy)
    if kept > capacity:
        raise DataError(f"{path}: changed while it was read")

    if line > rows:
        logger.warning("%s: dropped %d of %d data rows with missing cells", path, line - rows, line)
    # a table whose rows were mostly dropped keeps no slots for them
    columns = [col[:rows].copy() if len(col) > 2 * rows else col[:rows] for col in columns]
    return Dataset(schema=schema, columns=dict(zip((a.name for a in schema), columns)), row_count=rows)


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset in the same format :func:`load_dataset` reads (round-trips).

    The bytes are those of ``csv.writer``'s default dialect: rows end in
    CR LF, and a cell is quoted only where it must be. Numeric cells are
    written as ``repr`` of their float, so they read back exactly, and never
    need quoting. Each distinct category is quoted once and looked up. Rows
    go through :func:`write_table`. A category that :func:`load_dataset`
    reads as missing (``""`` or ``NA``) raises ``DataError`` before the
    file is opened.
    """
    alone = len(ds.schema) == 1
    columns = []
    for attr in ds.schema:
        col = ds.columns[attr.name]
        if attr.kind is Kind.NUMERICAL:
            fmt = repr
        else:
            cells = {v: _csv_field(v, alone) for v in set(col)}
            if not MISSING_MARKERS.isdisjoint(cells):
                value = min(MISSING_MARKERS.intersection(cells))
                raise DataError(f"column {attr.name!r} holds {value!r}, which loads as a missing cell")
            fmt = cells.__getitem__
        columns.append((_csv_field(attr.name, alone), fmt, col))
    write_table(path, columns, line_end="\r\n")
