"""Per-attribute utility metrics comparing a synthetic column to its real one.

Four metrics, each in [0, 1] and equal to 1 when the synthetic column
reproduces the real one (up to permutation):

* BoundaryAdherence: fraction of synthetic values inside [min, max] of real.
* CategoryCoverage: fraction of real categories present in the synthetic.
* RangeCoverage: how much of the real [min, max] span the synthetic covers.
* StatisticSimilarity: closeness of a summary statistic (the median),
  normalized by the real range.

AttributeCoverage unifies coverage across kinds: RangeCoverage for numeric
attributes, CategoryCoverage for categorical ones.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .dataset import Dataset, Kind
from .errors import DataError, Record

BOUNDARY_ADHERENCE = "BoundaryAdherence"
CATEGORY_COVERAGE = "CategoryCoverage"
RANGE_COVERAGE = "RangeCoverage"
STATISTIC_SIMILARITY = "StatisticSimilarity"
ATTRIBUTE_COVERAGE = "AttributeCoverage"

METRIC_NAMES = (
    BOUNDARY_ADHERENCE,
    CATEGORY_COVERAGE,
    RANGE_COVERAGE,
    STATISTIC_SIMILARITY,
    ATTRIBUTE_COVERAGE,
)


def _middle(ordered) -> float:
    """The median of a sequence ordered at its middle: the middle value, or
    (a + b) / 2 of the two middle values, as ``statistics.median`` takes it."""
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _median(col: np.ndarray) -> float:
    """``np.median`` of a finite column, bit for bit, without the ``numpy.ma``
    import its first call costs. ``np.median`` averages the middle values
    with ``np.mean``, whose sum starts at 0.0, so its median of zeros is +0.0."""
    half = len(col) // 2
    return _middle(np.partition(col, half if len(col) % 2 else [half - 1, half])) + 0.0


def boundary_adherence(real_col: np.ndarray, synth_col: np.ndarray) -> float:
    """Fraction of synthetic values v with min(real) <= v <= max(real)."""
    if len(real_col) == 0:
        raise DataError("boundary_adherence needs a non-empty real column")
    if len(synth_col) == 0:
        raise DataError("boundary_adherence needs a non-empty synthetic column")
    lo, hi = float(np.min(real_col)), float(np.max(real_col))
    inside = np.count_nonzero((synth_col >= lo) & (synth_col <= hi))
    return inside / len(synth_col)


def category_coverage(real_col: np.ndarray, synth_col: np.ndarray) -> float:
    """|categories(synth) ∩ categories(real)| / |categories(real)|."""
    real_cats = set(real_col)
    if not real_cats:
        raise DataError("category_coverage needs at least one real category")
    return len(set(synth_col) & real_cats) / len(real_cats)


def range_coverage(real_col: np.ndarray, synth_col: np.ndarray) -> float:
    """1 minus the fraction of the real span left uncovered at either end.

    A constant real column degenerates to membership: 1 if the synthetic
    column contains that constant, else 0.
    """
    lo, hi = float(np.min(real_col)), float(np.max(real_col))
    if hi == lo:
        return 1.0 if np.any(synth_col == lo) else 0.0
    span = hi - lo
    low_deficit = max(0.0, (float(np.min(synth_col)) - lo) / span)
    high_deficit = max(0.0, (hi - float(np.max(synth_col))) / span)
    return max(0.0, 1.0 - (low_deficit + high_deficit))


def statistic_similarity(real_col: np.ndarray, synth_col: np.ndarray) -> float:
    """1 - |median(synth) - median(real)| / (max(real) - min(real)), clipped to [0, 1].

    A constant real column degenerates to 1 if the medians agree, else 0.
    """
    if len(synth_col) == 0:
        raise DataError("statistic_similarity needs a non-empty synthetic column")
    lo, hi = float(np.min(real_col)), float(np.max(real_col))
    real_med = _median(real_col)
    synth_med = _median(synth_col)
    if hi == lo:
        return 1.0 if synth_med == real_med else 0.0
    score = 1.0 - abs(synth_med - real_med) / (hi - lo)
    return min(1.0, max(0.0, score))


def attribute_coverage(real_col: np.ndarray, synth_col: np.ndarray, kind: Kind) -> float:
    """RangeCoverage for numeric attributes, CategoryCoverage for categorical."""
    if kind is Kind.NUMERICAL:
        return range_coverage(real_col, synth_col)
    return category_coverage(real_col, synth_col)


def utility_reference(real: Dataset) -> MappingProxyType[str, np.ndarray]:
    """Each real column reduced to what the metrics read of it.

    A numeric column is reduced to [min, median, max] and a categorical one
    to its distinct categories. Every metric depends on the real column only
    through these, so it scores the same against the reduced column.
    Reduced once per dataset object; later calls share the read-only columns.
    """
    return real.derived(_reduce)


def _reduce(real: Dataset) -> MappingProxyType[str, np.ndarray]:
    columns = {}
    for attr in real.schema:
        col = real.columns[attr.name]
        if len(col) == 0:  # kept, so each metric raises its own error
            reduced = col
        elif attr.kind is Kind.NUMERICAL:
            reduced = np.array([np.min(col), _median(col), np.max(col)])
        else:
            # no col.tolist(): a list the length of the column raises the peak RSS
            reduced = np.array(list(set(col)), dtype=object)
        reduced.flags.writeable = False
        columns[attr.name] = reduced
    return MappingProxyType(columns)


class UtilityReport(Record):
    """Per-attribute metric scores plus per-metric mean/median aggregates."""

    __slots__ = {"per_attribute": "dict[str, dict[str, float]]", "aggregate": "dict[str, dict[str, float]]"}
    _hidden = frozenset({"per_attribute"})

    def to_dict(self) -> dict:
        return {"per_attribute": self.per_attribute, "aggregate": self.aggregate}


def compute_utility(real: Dataset, synth: Dataset) -> UtilityReport:
    """Score every attribute with every applicable metric and aggregate.

    Aggregates weight applicable attributes equally; a metric's mean is the
    arithmetic mean of its per-attribute scores over the attributes where it
    is defined. The real columns are read through :func:`utility_reference`,
    so many variants scored against one dataset object reduce it once.
    """
    if real.schema != synth.schema:
        raise DataError("utility comparison requires identical schemas")
    reference = utility_reference(real)
    per_attribute: dict[str, dict[str, float]] = {}
    for attr in real.schema:
        r_col = reference[attr.name]
        s_col = synth.columns[attr.name]
        scores: dict[str, float] = {}
        if attr.kind is Kind.NUMERICAL:
            scores[BOUNDARY_ADHERENCE] = boundary_adherence(r_col, s_col)
            scores[RANGE_COVERAGE] = coverage = range_coverage(r_col, s_col)
            scores[STATISTIC_SIMILARITY] = statistic_similarity(r_col, s_col)
        else:
            scores[CATEGORY_COVERAGE] = coverage = category_coverage(r_col, s_col)
        scores[ATTRIBUTE_COVERAGE] = coverage  # attribute_coverage, already computed
        per_attribute[attr.name] = scores

    aggregate: dict[str, dict[str, float]] = {}
    for metric in METRIC_NAMES:
        values = [s[metric] for s in per_attribute.values() if metric in s]
        if values:
            aggregate[metric] = {
                "mean": sum(values) / len(values),
                "median": _middle(sorted(values)),
            }
    return UtilityReport(per_attribute=per_attribute, aggregate=aggregate)
