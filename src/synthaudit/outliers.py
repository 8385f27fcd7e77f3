"""Z-score outlier flagging over numeric quasi-identifiers.

A record is extreme on an attribute when |(x - mean) / stddev| exceeds the
threshold k (strictly). Records are flagged by combining the per-attribute
rule across the configured numeric QIs with either ANY (union, the default)
or ALL (intersection) semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .dataset import Dataset, Kind
from .errors import ConfigError, DataError


class Combine(enum.Enum):
    ANY = "any"
    ALL = "all"


@dataclass(frozen=True)
class OutlierConfig:
    """Threshold k, the numeric attributes to scan, and the combine rule.

    ``ddof`` selects the standard deviation convention used for the z-scores
    (0 = population, 1 = sample).
    """

    k: float
    attributes: tuple[str, ...]
    combine: Combine = Combine.ANY
    ddof: int = 0

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ConfigError(f"outlier threshold k must be positive, got {self.k}")
        if not self.attributes:
            raise ConfigError("outlier config needs at least one attribute")


@dataclass(frozen=True)
class OutlierSet:
    """Flagged record ordinals plus the z-scores that drove the decision, read-only."""

    flagged: frozenset[int]
    per_attribute_z: MappingProxyType[int, MappingProxyType[str, float]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.flagged)


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
        col = ds.columns[attr]
        mean = float(np.mean(col))
        stddev = float(np.std(col, ddof=cfg.ddof))
        if stddev == 0:
            z_cols[attr] = np.zeros(ds.row_count)
        else:
            z_cols[attr] = (col - mean) / stddev

    extreme = np.stack([np.abs(z) > cfg.k for z in z_cols.values()])
    hits = extreme.any(axis=0) if cfg.combine is Combine.ANY else extreme.all(axis=0)
    flagged_idx = np.flatnonzero(hits)

    per_attribute_z = {
        int(i): MappingProxyType({a: float(z_cols[a][i]) for a in cfg.attributes})
        for i in flagged_idx
    }
    return OutlierSet(
        flagged=frozenset(int(i) for i in flagged_idx),
        per_attribute_z=MappingProxyType(per_attribute_z),
    )


def save_outlier_set(outliers: OutlierSet, cfg: OutlierConfig, path: str | Path) -> None:
    """Audit-trail export: one flagged record per line with its z values."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["index"] + [f"z_{a}" for a in cfg.attributes] + ["triggered"]
    lines = [",".join(header)]
    for idx in sorted(outliers.flagged):
        zs = outliers.per_attribute_z[idx]
        triggered = "|".join(a for a in cfg.attributes if abs(zs[a]) > cfg.k)
        lines.append(
            ",".join([str(idx)] + [f"{zs[a]:.6f}" for a in cfg.attributes] + [triggered])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
