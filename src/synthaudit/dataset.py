"""Typed, immutable columnar datasets with strict ingestion.

A :class:`Dataset` holds one table: numeric columns as float64 vectors,
categorical columns as interned strings. Ingestion enforces a complete-case
policy (rows with missing cells are dropped or rejected, never imputed) and
rejects non-numeric or non-finite tokens in numeric columns outright, so
every downstream computation can assume clean, finite, fully populated
columns. The schema a table is read with (:class:`AttributeSchema`,
:class:`Kind`, :class:`Role`, :func:`validate_schema`) is part of the plan,
so it lives in :mod:`synthaudit.config`, which imports no numpy.

:func:`categories` codes a categorical column once per dataset object, for
saving, synthesis, utility and the linkage attack alike.
"""

from __future__ import annotations

import codecs
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

BLOCK_ROWS = 256  # CSV rows parsed or written at once
READ_CHARS = 1 << 16  # bytes of a CSV file the loader reads at once
PAD = 0xFF  # a byte UTF-8 never holds: fills a written block around its text

# Characters that make csv.writer's default dialect quote a cell.
_CSV_SPECIAL = frozenset(',"\r\n')


def _text_rows(texts: list[str]) -> np.ndarray:
    """A (len(texts), width) uint8 matrix holding each text's UTF-8 bytes
    in its row, then ``PAD``."""
    joined = "".join(texts)
    if joined.isascii():
        data, encoded = joined.encode("ascii"), texts
    else:
        encoded = [text.encode() for text in texts]
        data = b"".join(encoded)
    lengths = np.fromiter(map(len, encoded), np.intp, len(texts))
    rows = np.full((len(texts), int(lengths.max(initial=0))), PAD, np.uint8)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.frombuffer(data, np.uint8)
    return rows


def write_table(
    path: str | Path, columns: list[tuple[str, Callable | list[str], np.ndarray]], line_end: str = "\n"
) -> None:
    """Write (name, format, values) columns as a CSV table whose rows end in
    ``line_end``. A format is one of:

    - ``repr``: the values are finite floats, each written as ``repr``
      writes it. The text comes from :func:`synthaudit._shortest.repr_rows`,
      an integer numpy kernel pinned to ``repr``.
    - a list of texts: each value is the index of its cell's text, so each
      distinct text is encoded once and looked up.
    - any other callable: called on each value for its cell's text.

    Names and cells are written as they are, unquoted, in UTF-8; the file
    is written as bytes, so no platform rewrites the line ends.
    ``BLOCK_ROWS`` rows at a time, each column encodes its cells as one
    uint8 matrix in (chars, values) orientation, padded with ``PAD``, all
    float columns of the block in one kernel call. The matrices and the
    separators are stacked into one block, whose bytes other than ``PAD``
    are written row after row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if any(fmt is repr for _, fmt, _ in columns):
        from ._shortest import repr_rows
    tables = [_text_rows(fmt) if isinstance(fmt, list) else None for _, fmt, _ in columns]
    comma = np.full((1, BLOCK_ROWS), ord(","), np.uint8)
    end = np.repeat(np.frombuffer(line_end.encode(), np.uint8)[:, None], BLOCK_ROWS, axis=1)
    total = len(columns[0][2])
    try:
        with path.open("wb") as fh:
            fh.write((",".join(name for name, _, _ in columns) + line_end).encode())
            for start in range(0, total, BLOCK_ROWS):
                rows, n = slice(start, start + BLOCK_ROWS), min(BLOCK_ROWS, total - start)
                numbers = [values[rows] for _, fmt, values in columns if fmt is repr]
                if numbers:  # one kernel call for the block's float columns
                    floats = iter(np.split(repr_rows(np.concatenate(numbers)), len(numbers), axis=1))
                parts = []
                for (_, fmt, values), table in zip(columns, tables):
                    if fmt is repr:
                        parts.append(next(floats))
                    elif table is not None:
                        parts.append(table[values[rows]].T)
                    else:
                        parts.append(_text_rows(list(map(fmt, values[rows].tolist()))).T)
                    parts.append(comma[:, :n])
                parts[-1] = end[:, :n]
                block = np.empty((sum(map(len, parts)), n), np.uint8, order="F")
                block = np.concatenate(parts, out=block).ravel(order="F")  # row after row
                fh.write(block.compress(block != PAD))
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


def categories(ds: Dataset, name: str) -> tuple[tuple[str, ...], np.ndarray]:
    """A column's sorted distinct values, and each cell's read-only index among
    them in ``np.min_scalar_type`` of their count; built once per dataset object."""
    return ds.derived(_categories, name)


def _categories(ds: Dataset, name: str) -> tuple[tuple[str, ...], np.ndarray]:
    col = ds.column(name)
    cats = tuple(sorted(set(col)))
    index = dict(zip(cats, range(len(cats))))
    # no col.tolist(): a list the length of the column raises the peak RSS
    codes = np.fromiter(map(index.__getitem__, col), np.min_scalar_type(len(cats)), len(col))
    codes.flags.writeable = False
    return cats, codes


def _csv_rows(fh, path: Path):
    """Rows of an open CSV file; undecodable or malformed text is a DataError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not readable as UTF-8 CSV: {exc}") from exc


def _read_header(fh, path: Path) -> tuple[list[str], int]:
    """The header row as ``csv.reader`` reads it from ``fh``, and the byte
    offset of the line after it."""
    lines = []

    def read():
        for line in iter(fh.readline, ""):
            lines.append(line)
            yield line

    try:
        header = next(_csv_rows(read(), path))
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    fh.buffer.seek(0)
    bom = len(codecs.BOM_UTF8) if fh.buffer.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8 else 0
    return header, bom + len("".join(lines).encode())


def _split_blocks(
    fh,
    path: Path,
    start: int,
    schema: tuple[AttributeSchema, ...],
    pos: dict[str, int],
    missing_policy: MissingPolicy,
):
    """(data rows read, parsed columns or None) for each block of the rows
    ``csv.reader`` would read from ``fh`` after byte ``start``.

    The bytes are read ``READ_CHARS`` at a time and cut after their last
    line feed. A piece that holds no quote, NUL, blank line or carriage
    return outside a CR LF line end, and no line longer than
    ``csv.field_size_limit()``, is parsed as bytes by :func:`_parse_piece`:
    there ``csv.reader`` finds the same cells. Its bytes must be UTF-8. From
    the first other piece, ``csv.reader`` reads the rest of the file, since a
    quoted field may span lines, and :func:`_parse_block` parses its rows
    ``BLOCK_ROWS`` at a time. It also takes over at a last line with no line
    end, and where the text runs past the field limit with no line feed, so
    the bytes held at once stay bounded.
    """
    limit = csv.field_size_limit()
    raw = fh.buffer
    raw.seek(start)
    rest = b""
    while True:
        chunk = raw.read(READ_CHARS)
        piece = rest + chunk
        end = piece.rfind(b"\n") + 1
        piece, rest = piece[:end], piece[end:]
        plain = piece.replace(b"\r\n", b"\n") if b"\r" in piece else piece
        codes = np.frombuffer(plain, np.uint8)
        seps = codes == ord(",")
        seps |= codes == ord("\n")
        # positions as int32 halve the piece's index arrays
        seps = np.flatnonzero(seps).astype(np.int32 if len(plain) < 2**30 else np.intp)
        feeds = seps[codes[seps] == ord("\n")]
        spans = np.diff(feeds, prepend=-1)  # each line's bytes, its line feed included
        if (
            (rest and not chunk) or len(rest) > limit
            or b'"' in plain or b"\0" in plain or b"\r" in plain
            or (spans == 1).any() or spans.max(initial=0) > limit + 1
        ):
            break
        if not plain.isascii():
            plain.decode()  # a piece that is not UTF-8 fails the load
        piece = plain  # the text as read is needed only by csv.reader
        if len(feeds):
            yield len(feeds), _parse_piece(plain, seps, len(feeds), schema, pos, missing_policy)
        start += end
        if not chunk:
            return
    # csv.reader reads the piece, then the file from the line after it
    fh.seek(start + end)
    rows = _csv_rows(chain(io.StringIO(piece.decode(), newline=""), fh), path)
    for block in iter(lambda: list(islice(rows, BLOCK_ROWS)), []):
        yield len(block), _parse_block(block, schema, pos, missing_policy)


def _words(data: bytes) -> np.ndarray:
    """A read-only uint64 array whose item i holds bytes i to i + 7 of
    ``data`` in little-endian order, zeros past its end: a stride-1 view
    over ``data`` padded by 8 bytes."""
    padded = np.frombuffer(data + bytes(8), np.uint8)
    return np.ndarray((len(data) + 1,), "<u8", padded, strides=(1,))


_U = np.uint64
_1, _3, _4, _8 = map(_U, (1, 3, 4, 8))
_ALL = _U(2**64 - 1)
# tiny tables, read with mode="clip" so that an index past either end reads the end
_LOW_BYTES = np.array([(1 << 8 * i) - 1 for i in range(9)], np.uint64)  # a word's first i bytes
_PAD_BITS = np.array([56] + [64 - 8 * i for i in range(1, 9)], np.uint64)  # moves i >= 1 digits to the top
_POW10 = 10.0 ** np.arange(9)  # exact doubles


def _bytes8(byte: int) -> np.uint64:
    """The word whose eight bytes each hold ``byte``."""
    return _U(0x0101010101010101 * byte)


def _floats(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each cell ``data[start:start + length]``, where
    ``words`` is ``_words(data)``, and whether it was read here: where it
    was, the value is ``float()``'s bit for bit, and where it was not, the
    cell is for ``float()`` to read.

    A cell of 1 to 8 bytes that is an optional ``-`` and ASCII digits with
    at most one ``.`` among them is read, from its bytes as one uint64:
    the sign and the point are taken out, the digits are checked, and they
    fold into an integer M < 10**8 in three multiply-shift steps (Langdale
    and Lemire's eight-digit parse). M and 10**k, for k decimals, are exact
    doubles and IEEE division is correctly rounded, so M / 10**k is
    ``float()``'s value bit for bit (Clinger's fast path), and a sign makes
    it negative, -0.0 included. The steps work in place, so that a piece
    holds few arrays of its cells.
    """
    short = lengths <= 8
    if not short.all():  # the steps run on the cells they can read only
        values, read = np.zeros(len(starts)), short
        if short.any():
            values[short], read[short] = _floats(words, starts[short], lengths[short])
        return values, read
    w = words[starts]
    w &= np.take(_LOW_BYTES, lengths, mode="clip")
    digits = lengths.copy()
    sign = ((w & _U(0xFF)) == _U(ord("-"))).view(np.uint8)
    w >>= sign.astype(np.uint64) << _3
    digits -= sign
    # 0x80 in the bytes that hold a point, from the zero bytes of w ^ "........"
    point = w ^ _bytes8(ord("."))
    below = point & _bytes8(0x7F)
    below += _bytes8(0x7F)
    point |= below
    point |= _bytes8(0x7F)
    np.invert(point, out=point)
    read = (point & (point - _1)) == 0  # one point at most
    digits -= point != 0
    below = point  # the bytes before the point; all of them without one
    below >>= _U(7)
    below -= _1
    point = w >> _8
    point &= ~below
    w &= below
    w |= point
    del point
    below &= _bytes8(1)
    below *= _bytes8(1)
    below >>= _U(56)  # bytes before the point, 8 without one
    decimals = digits - below.view(np.int64)
    read &= (lengths >= 1) & (digits >= 1)
    shift = np.take(_PAD_BITS, digits, mode="clip")
    w <<= shift
    w |= _bytes8(ord("0")) & ~(_ALL << shift)  # leading zeros, to eight digits
    shift = w + _bytes8(6)
    shift &= _bytes8(0xF0)
    shift >>= _4
    shift |= w & _bytes8(0xF0)
    read &= shift == _bytes8(0x33)  # eight ASCII digits
    del shift
    w &= _bytes8(0x0F)
    w *= _U(10 * 2**8 + 1)
    w >>= _8
    w &= _U(0x00FF00FF00FF00FF)
    w *= _U(100 * 2**16 + 1)
    w >>= _U(16)
    w &= _U(0x0000FFFF0000FFFF)
    w *= _U(10_000 * 2**32 + 1)
    w >>= _U(32)
    values = w.astype(np.float64)
    values /= np.take(_POW10, decimals, mode="clip")
    values.view(np.uint64)[sign.view(bool)] |= _U(1 << 63)
    return values, read


def _strings(data: bytes, words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The text of each cell ``data[start:start + length]``, interned, as an
    object array; ``words`` is ``_words(data)``. The cells are sorted on
    their bytes, as uint64 words zeroed past each cell's end, so each
    distinct text is decoded and interned once. No cell may hold a NUL byte,
    so that its words alone tell it from a shorter one."""
    keys = [
        words[np.minimum(starts + 8 * i, len(data))] & np.take(_LOW_BYTES, lengths - 8 * i, mode="clip")
        for i in range(max(1, -(-int(lengths.max(initial=0)) // 8)))
    ]
    # one key needs no stable sort, which is several times slower
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)
    first = np.zeros(len(order), bool)  # where a text differs from the one before it
    first[:1] = True
    for key in keys:
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
    codes = np.empty(len(order), np.intp)
    codes[order] = np.cumsum(first) - 1
    firsts = order[first].tolist()
    texts = [sys.intern(data[s : s + n].decode()) for s, n in zip(starts[firsts].tolist(), lengths[firsts].tolist())]
    return np.array(texts, object)[codes] if texts else np.empty(0, object)


def _parse_piece(
    piece: bytes,
    seps: np.ndarray,
    lines: int,
    schema: tuple[AttributeSchema, ...],
    pos: dict[str, int],
    missing_policy: MissingPolicy,
) -> list[np.ndarray] | None:
    """One plain piece's schema-order columns of its kept rows, or None as
    :func:`_parse_block` gives it. ``seps`` holds the positions of its
    commas and line feeds. A row holding a missing cell is found from its
    cells' lengths and first two bytes. The numeric cells of the kept rows
    go through one :func:`_floats` call. Where it reads them all, the
    categorical cells go through one :func:`_strings` call, which sorts
    them once for all columns. Where it does not, the piece's text is split
    once on its separators, and the cells it left and the categorical cells
    are taken from there, through ``float()`` and ``sys.intern``, as
    :func:`_parse_block` takes them. Such cells cost a Python object each
    whichever way they are found, and one split of the piece finds them
    most cheaply."""
    width = len(pos)
    codes = np.frombuffer(piece, np.uint8)
    if len(seps) != lines * width or not (codes[seps[width - 1 :: width]] == ord("\n")).all():
        return None
    starts = np.empty_like(seps)
    starts[:1] = 0
    starts[1:] = seps[:-1] + 1
    lengths = seps - starts
    missing = lengths == 0
    two = np.flatnonzero(lengths == 2)
    missing[two] = (codes[starts[two]] == ord("N")) & (codes[starts[two] + 1] == ord("A"))
    kept = ~missing.reshape(lines, width).any(axis=1)
    starts, lengths = starts.reshape(lines, width).T, lengths.reshape(lines, width).T
    if not kept.all():
        if missing_policy is MissingPolicy.ERROR:
            return None
        starts, lengths = starts[:, kept], lengths[:, kept]
    words = _words(piece)
    numeric = [pos[a.name] for a in schema if a.kind is Kind.NUMERICAL]
    categorical = [pos[a.name] for a in schema if a.kind is Kind.CATEGORICAL]
    values, read = _floats(words, starts[numeric].ravel(), lengths[numeric].ravel())
    if read.all():
        texts = _strings(piece, words, starts[categorical].ravel(), lengths[categorical].ravel())
    else:
        cells = np.array(piece.replace(b"\n", b",").decode().split(",")[:-1], object)
        cells = cells.reshape(lines, width)[kept].T
        numbers, texts = cells[numeric].ravel(), cells[categorical].ravel()
        left = np.flatnonzero(~read)
        try:
            values[left] = np.fromiter(map(float, numbers[left].tolist()), np.float64, len(left))
        except ValueError:
            return None
        texts = np.fromiter(map(sys.intern, texts.tolist()), object, len(texts))
    if not np.isfinite(values).all():
        return None
    values = iter(values.reshape(len(numeric), starts.shape[1]))
    texts = iter(texts.reshape(len(categorical), starts.shape[1]))
    return [next(values) if a.kind is Kind.NUMERICAL else next(texts) for a in schema]


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
        for attr in (a for a in schema if a.kind is Kind.NUMERICAL):
            token, where = row[pos[attr.name]], f"in numeric column {attr.name!r} (data row {line})"
            try:
                value = float(token)
            except ValueError:
                raise DataError(f"{path}: non-numeric token {token!r} {where}") from None
            if not np.isfinite(value):
                raise DataError(f"{path}: non-finite value {token!r} {where}")
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

    The rows after the header come from :func:`_split_blocks`. A piece of
    the file that needs no quotes is parsed as bytes by :func:`_parse_piece`:
    its rows with a missing cell are dropped at once, all its numeric cells
    go through one call of the uint64 kernel :func:`_floats`, which reads
    the short plain decimals, and its categorical cells are sorted once so
    that each distinct text is decoded and interned once. A piece with a
    number the kernel does not read is split once as text instead, and
    those numbers and its categorical cells go through ``float()`` and
    ``sys.intern``.
    From the first piece that needs ``csv.reader``, its rows are parsed
    ``BLOCK_ROWS`` at a time by :func:`_parse_block`, with ``float()`` and
    ``sys.intern`` per cell. A load that fails is read again,
    from its start, by ``csv.reader`` alone, row by row, so the ``DataError``
    is the first one ``csv.reader`` meets and names its data row.

    A handle that cannot seek, such as a pipe's, is read into memory first
    and then loaded as a file holding its bytes. Those bytes are read once
    to count their line ends, which bound the rows, so each block's kept
    rows are copied straight into one array per column: the load holds the
    table once, plus one piece or block. More rows than line ends mean the file
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
        header, start = _read_header(fh, path)
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
            for read, parts in _split_blocks(fh, path, start, schema, pos, missing_policy):
                if parts is None:
                    failed = True
                    break
                kept = rows + len(parts[0])
                if kept > capacity:  # more rows than line ends
                    break
                for col, part in zip(columns, parts):
                    col[rows:kept] = part
                rows = kept
                line += read
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
    need quoting; their text comes from the integer numpy kernel that
    :func:`write_table` runs on float columns, which gives ``repr``'s bytes.
    Each distinct category of :func:`categories` is quoted and encoded once,
    and each cell is written from its code. A category that :func:`load_dataset`
    reads as missing (``""`` or ``NA``) raises ``DataError`` before the
    file is opened.
    """
    alone = len(ds.schema) == 1
    columns = []
    for attr in ds.schema:
        col = ds.columns[attr.name]
        if attr.kind is Kind.NUMERICAL:
            columns.append((_csv_field(attr.name, alone), repr, col))
            continue
        cats, codes = categories(ds, attr.name)
        if not MISSING_MARKERS.isdisjoint(cats):
            value = min(MISSING_MARKERS.intersection(cats))
            raise DataError(f"column {attr.name!r} holds {value!r}, which loads as a missing cell")
        columns.append((_csv_field(attr.name, alone), [_csv_field(v, alone) for v in cats], codes))
    write_table(path, columns, line_end="\r\n")
