"""Reference CSV reader and writer for the property tests of ``load_dataset``
and ``save_dataset``.

``reference_load`` is the cell-at-a-time loop that ``load_dataset`` used
before it parsed blocks of rows column by column, kept verbatim apart from
its names and its logger: every row is checked for its cell count, then for
missing cells, then each numeric cell is parsed in schema order, so the
first error raised is the first bad data row in file order. Only the types
and the message texts are shared with the package.

``reference_save`` is the ``csv.writer`` loop that ``save_dataset`` used
before it wrote through the shared block writer, kept verbatim apart from
its name: its bytes define the format of a saved dataset.
"""

from __future__ import annotations

import csv
import logging
import sys
from pathlib import Path

import numpy as np

from synthaudit import AttributeSchema, DataError, Dataset, Kind, MissingPolicy
from synthaudit.dataset import BLOCK_ROWS, MISSING_MARKERS, _csv_rows, validate_schema

logger = logging.getLogger("dataset_reference")


def _parse_numeric(path: Path, token: str, attr: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(
            f"{path}: non-numeric token {token!r} in numeric column {attr!r} (data row {line})"
        ) from None
    if not np.isfinite(value):
        raise DataError(f"{path}: non-finite value {token!r} in numeric column {attr!r} (data row {line})")
    return value


def reference_load(
    path: str | Path,
    schema: tuple[AttributeSchema, ...],
    missing_policy: MissingPolicy = MissingPolicy.DROP_ROW,
) -> Dataset:
    validate_schema(schema)
    path = Path(path)
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with fh:
        reader = _csv_rows(fh, path)
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
                    raw[attr.name].append(_parse_numeric(path, token, attr.name, line))
                else:
                    raw[attr.name].append(sys.intern(token))

    if dropped:
        logger.warning("%s: dropped %d of %d data rows with missing cells", path, dropped, line)
    return Dataset.from_columns(schema, raw)


def reference_save(ds: Dataset, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    numeric = [a.kind is Kind.NUMERICAL for a in ds.schema]
    cols = [ds.columns[a.name] for a in ds.schema]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in ds.schema])
        for start in range(0, ds.row_count, BLOCK_ROWS):
            block = [col[start : start + BLOCK_ROWS].tolist() for col in cols]
            writer.writerows(
                zip(*(map(repr, values) if num else values for num, values in zip(numeric, block)))
            )
