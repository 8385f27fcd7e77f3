"""Z-score outlier flagging over numeric quasi-identifiers.

A record is extreme on an attribute when |(x - mean) / stddev| exceeds the
threshold k (strictly). Records are flagged by combining the per-attribute
rule across the configured numeric QIs with either ANY (union, the default)
or ALL (intersection) semantics.
"""

from __future__ import annotations

import enum
import math
from itertools import compress
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .dataset import Dataset, Kind, write_table
from .errors import ConfigError, DataError, Record


class Combine(enum.Enum):
    ANY = "any"
    ALL = "all"


class OutlierConfig(Record):
    """Threshold k, the numeric attributes to scan, and the combine rule.

    ``ddof`` selects the standard deviation convention used for the z-scores
    (0 = population, 1 = sample).
    """

    __slots__ = {"k": "float", "attributes": "tuple[str, ...]", "combine": "Combine", "ddof": "int"}
    _defaults = {"combine": Combine.ANY, "ddof": 0}

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ConfigError(f"outlier threshold k must be positive, got {self.k}")
        if self.k == math.inf:  # flags nothing
            raise ConfigError(f"outlier threshold k must be finite, got {self.k}")
        if not self.attributes:
            raise ConfigError("outlier config needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise ConfigError("duplicate attribute in outlier config")


class OutlierSet(Record):
    """Flagged rows as read-only columns: sorted int64 ``index``, float64 ``z`` per attribute."""

    __slots__ = {"index": "np.ndarray", "z": "MappingProxyType[str, np.ndarray]"}
    _hidden = frozenset({"z"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", MappingProxyType(dict(self.z)))  # any mapping, held read-only
        for col in (self.index, *self.z.values()):
            col.flags.writeable = False

    def __len__(self) -> int:
        return len(self.index)

    @property
    def flagged(self) -> frozenset[int]:
        return frozenset(self.index.tolist())


def detect_outliers(ds: Dataset, cfg: OutlierConfig) -> OutlierSet:
    """Flag records whose z-score magnitude strictly exceeds cfg.k.

    Deterministic and order-independent: permuting rows permutes the flagged
    set identically. A constant column (stddev 0) has no extremes. Detected
    once per dataset object and equal config; later calls return that set.
    """
    return ds.derived(_detect, cfg)


def _detect(ds: Dataset, cfg: OutlierConfig) -> OutlierSet:
    z_cols: dict[str, np.ndarray] = {}
    for attr in cfg.attributes:
        if ds.attribute(attr).kind is not Kind.NUMERICAL:
            raise ConfigError(f"outlier attribute {attr!r} is not numeric")
        if ds.row_count < 1:  # kept verbatim: a failed variant's report entry records this text
            raise DataError("column_stats on an empty dataset")
        if ds.row_count <= cfg.ddof:
            raise DataError(
                f"outlier attribute {attr!r}: stddev with ddof={cfg.ddof} is undefined for "
                f"{ds.row_count} row(s)"
            )
        col = ds.columns[attr]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            mean = float(np.mean(col))
            stddev = float(np.std(col, ddof=cfg.ddof))
        if not (math.isfinite(mean) and math.isfinite(stddev)):  # inf would make every z-score 0
            raise DataError(f"outlier attribute {attr!r}: mean {mean} and stddev {stddev} overflow a float")
        if stddev == 0:
            z_cols[attr] = np.zeros(ds.row_count)
        else:
            z_cols[attr] = (col - mean) / stddev

    extreme = np.stack([np.abs(z) > cfg.k for z in z_cols.values()])
    hits = extreme.any(axis=0) if cfg.combine is Combine.ANY else extreme.all(axis=0)
    index = np.flatnonzero(hits)
    return OutlierSet(index, {a: z[index] for a, z in z_cols.items()})


def save_outlier_set(outliers: OutlierSet, cfg: OutlierConfig, path: str | Path) -> None:
    """Audit-trail export, a column at a time: each flagged record's ordinal, its z-scores
    at 6 fractional digits and, joined by ``|``, the attributes with |z| > k."""
    columns = [("index", str, outliers.index)]
    columns += [(f"z_{a}", "{:.6f}".format, outliers.z[a]) for a in cfg.attributes]
    extreme = np.abs(np.stack([outliers.z[a] for a in cfg.attributes], axis=1)) > cfg.k
    columns.append(("triggered", lambda hits: "|".join(compress(cfg.attributes, hits)), extreme))
    write_table(path, columns)
