"""Typed, immutable columnar datasets with strict ingestion.

A :class:`Dataset` holds one table: numeric columns as float64 vectors,
categorical columns as interned strings. Ingestion enforces a complete-case
policy (rows with missing cells are dropped or rejected, never imputed) and
rejects non-numeric or non-finite tokens in numeric columns outright, so
every downstream computation can assume clean, finite, fully populated
columns.
"""

from __future__ import annotations

import csv
import enum
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

# Cell values treated as missing in every column kind. Anything else that
# fails to parse in a numeric column is corruption, not missingness.
MISSING_MARKERS = frozenset({"", "NA"})


class Kind(enum.Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


class Role(enum.Enum):
    QI = "qi"
    NON_QI = "non_qi"


class MissingPolicy(enum.Enum):
    DROP_ROW = "drop_row"
    ERROR = "error"


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute: its name, value kind, and quasi-identifier role."""

    name: str
    kind: Kind
    role: Role = Role.NON_QI


def validate_schema(schema: tuple[AttributeSchema, ...]) -> None:
    if not schema:
        raise ConfigError("schema must declare at least one attribute")
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate attribute names in schema: {dupes}")


@dataclass(frozen=True)
class ColumnStats:
    mean: float
    stddev: float
    min: float
    max: float
    median: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable columnar table; safe to share across concurrent readers."""

    schema: tuple[AttributeSchema, ...]
    columns: dict[str, np.ndarray] = field(repr=False)
    row_count: int

    def __post_init__(self) -> None:
        validate_schema(self.schema)
        if set(self.columns) != {a.name for a in self.schema}:
            raise DataError("columns do not match schema attribute names")
        for attr in self.schema:
            col = self.columns[attr.name]
            if len(col) != self.row_count:
                raise DataError(
                    f"column {attr.name!r} has {len(col)} values, expected {self.row_count}"
                )
            if attr.kind is Kind.NUMERICAL and len(col) and not np.all(np.isfinite(col)):
                raise DataError(f"non-finite value in numeric column {attr.name!r}")
            col.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.schema != other.schema or self.row_count != other.row_count:
            return False
        return all(
            np.array_equal(self.columns[a.name], other.columns[a.name]) for a in self.schema
        )

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
        """Build a dataset from in-memory columns (used by the synthesizer and tests)."""
        validate_schema(schema)
        out: dict[str, np.ndarray] = {}
        n = None
        for attr in schema:
            if attr.name not in columns:
                raise DataError(f"missing column {attr.name!r}")
            if attr.kind is Kind.NUMERICAL:
                col = np.asarray(columns[attr.name], dtype=np.float64)
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
    keep their relative order.
    """
    validate_schema(schema)
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
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

        raw: dict[str, list] = {a.name: [] for a in schema}
        line = dropped = 0
        for line, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(f"{path}: data row {line} has {len(row)} cells, expected {len(header)}")
            if any(row[pos[a.name]] in MISSING_MARKERS for a in schema):
                if missing_policy is MissingPolicy.ERROR:
                    raise DataError(f"{path}: missing value in data row {line}")
                dropped += 1
                continue
            for attr in schema:
                token = row[pos[attr.name]]
                if attr.kind is Kind.NUMERICAL:
                    raw[attr.name].append(_parse_numeric(token, attr.name, line))
                else:
                    raw[attr.name].append(sys.intern(token))

    if dropped:
        logger.warning("%s: dropped %d of %d data rows with missing cells", path, dropped, line)
    return Dataset.from_columns(schema, raw)


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset in the same format :func:`load_dataset` reads (round-trips)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    kinds = [a.kind for a in ds.schema]
    cols = [ds.columns[a.name] for a in ds.schema]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in ds.schema])
        for i in range(ds.row_count):
            writer.writerow(
                [
                    repr(float(col[i])) if kind is Kind.NUMERICAL else col[i]
                    for kind, col in zip(kinds, cols)
                ]
            )


def column_stats(ds: Dataset, attr: str, ddof: int = 0) -> ColumnStats:
    """Summary statistics for a numeric column.

    ``ddof=0`` (the default) selects the population standard deviation; pass
    ``ddof=1`` for the sample convention when doing sensitivity analysis.
    The median of an even-length column is the mean of the two middle order
    statistics.
    """
    schema = ds.attribute(attr)
    if schema.kind is not Kind.NUMERICAL:
        raise DataError(f"column_stats requires a numeric attribute, {attr!r} is categorical")
    if ds.row_count < 1:
        raise DataError("column_stats on an empty dataset")
    col = ds.columns[attr]
    return ColumnStats(
        mean=float(np.mean(col)),
        stddev=float(np.std(col, ddof=ddof)),
        min=float(np.min(col)),
        max=float(np.max(col)),
        median=float(np.median(col)),
    )


def category_set(ds: Dataset, attr: str) -> set[str]:
    """Distinct values of a categorical column, case-sensitive, unnormalized."""
    schema = ds.attribute(attr)
    if schema.kind is not Kind.CATEGORICAL:
        raise DataError(f"category_set requires a categorical attribute, {attr!r} is numeric")
    return set(ds.columns[attr])
