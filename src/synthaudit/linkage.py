"""The linkage attack engine.

Original-dataset outliers are compared against every row of a synthetic
variant (optionally only its outliers), each configured QI is scored with
its comparator, and a pair is a possible match only when EVERY QI score
meets its threshold (conjunctive, worst-case semantics). Aggregation then
counts matches per original record; an original with exactly one possible
match is a unique match, the maximum-risk case.

A categorical QI at threshold 1 demands exact agreement, so :func:`attack`
partitions targets and variant rows on the values of every such QI and
compares only pairs within one partition; each of those QIs scores 1.0 on
every pair it lets through. The remaining QIs are scored in dense blocks of
targets against the partition's rows, optionally on a thread pool. Any
schedule gives the same result, and the match set equals naive pair-by-pair
enumeration (:func:`score_pairs` then :func:`filter_matches`).
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .comparators import ComparatorKind, ComparatorSpec
from .dataset import Dataset, Kind
from .errors import ConfigError, DataError
from .outliers import OutlierConfig, detect_outliers

# Default match thresholds: numeric QIs pass at half similarity, categorical
# QIs only on exact agreement.
NUMERIC_THRESHOLD = 0.5
CATEGORICAL_THRESHOLD = 1.0


@dataclass(frozen=True)
class QIRule:
    """One quasi-identifier: attribute, comparator, and match threshold."""

    name: str
    comparator: ComparatorSpec
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.threshold is None:
            default = (
                NUMERIC_THRESHOLD
                if self.comparator.kind is ComparatorKind.GAUSS
                else CATEGORICAL_THRESHOLD
            )
            object.__setattr__(self, "threshold", default)
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold for {self.name!r} must be in (0, 1], got {self.threshold}")


@dataclass(frozen=True)
class QIConfig:
    """The attacker's background-knowledge model: an ordered set of QI rules."""

    rules: tuple[QIRule, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.rules]
        if not names:
            raise ConfigError("QI config needs at least one quasi-identifier")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate quasi-identifier in QI config")

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)

    def rule(self, name: str) -> QIRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise ConfigError(f"no QI rule for {name!r}")

    def subset(self, names: Iterable[str]) -> "QIConfig":
        """Restrict to the given QIs, keeping configured order."""
        wanted = list(names)
        unknown = sorted(set(wanted) - set(self.names()))
        if unknown:
            raise ConfigError(f"QI subset names not configured: {unknown}")
        return QIConfig(rules=tuple(r for r in self.rules if r.name in wanted))

    def validate_against(self, ds: Dataset) -> None:
        """Check attribute existence and comparator/kind compatibility."""
        if not any(a.role.value == "qi" for a in ds.schema):
            raise ConfigError("schema used for linkage declares no QI attribute")
        for r in self.rules:
            kind = ds.attribute(r.name).kind
            if r.comparator.kind is ComparatorKind.GAUSS and kind is not Kind.NUMERICAL:
                raise ConfigError(f"gauss comparator on non-numeric attribute {r.name!r}")
            if r.comparator.kind is not ComparatorKind.GAUSS and kind is not Kind.CATEGORICAL:
                raise ConfigError(
                    f"{r.comparator.kind.value} comparator on non-categorical attribute {r.name!r}"
                )


@dataclass(frozen=True)
class ScoredPair:
    original: int
    synthetic: int
    scores: dict[str, float] = field(repr=False)


@dataclass(frozen=True)
class LinkageResult:
    """Possible-match pairs plus per-original aggregation."""

    pairs: tuple[ScoredPair, ...]
    per_original_match_count: dict[int, int]
    unique_match_count: int
    attack_surface: tuple[int, int]  # (targets, variant rows considered)

    @classmethod
    def from_pairs(
        cls, pairs: tuple[ScoredPair, ...], attack_surface: tuple[int, int]
    ) -> "LinkageResult":
        counts = Counter(p.original for p in pairs)
        return cls(
            pairs=pairs,
            per_original_match_count=dict(sorted(counts.items())),
            unique_match_count=sum(1 for c in counts.values() if c == 1),
            attack_surface=attack_surface,
        )

    @property
    def distinct_original_count(self) -> int:
        return len(self.per_original_match_count)


def _check_same_schema(original: Dataset, variant: Dataset) -> None:
    if original.schema != variant.schema:
        raise DataError("variant does not share the original's schema")


def _demands_exact_agreement(rule: QIRule) -> bool:
    return rule.comparator.kind is not ComparatorKind.GAUSS and rule.threshold == 1


def _validate_blocking(blocking: str, ds: Dataset, cfg: QIConfig) -> None:
    # The engine already partitions on every QI that demands exact agreement,
    # so blocking selects nothing; it is only checked to be such a QI.
    if ds.attribute(blocking).kind is not Kind.CATEGORICAL:
        raise ConfigError(f"blocking attribute {blocking!r} is not categorical")
    rule = cfg.rule(blocking)
    if rule.threshold != 1:
        raise ConfigError(
            f"blocking on {blocking!r} requires threshold 1, configured {rule.threshold}"
        )


def score_pairs(
    pairs: Iterable[tuple[int, int]],
    original: Dataset,
    variant: Dataset,
    cfg: QIConfig,
) -> Iterator[ScoredPair]:
    """Score every candidate pair on every configured QI."""
    cfg.validate_against(original)
    cfg.validate_against(variant)
    cols = [(r, original.columns[r.name], variant.columns[r.name]) for r in cfg.rules]
    for i, j in pairs:
        scores = {r.name: r.comparator.score(ocol[i], vcol[j]) for r, ocol, vcol in cols}
        yield ScoredPair(original=i, synthetic=j, scores=scores)


def filter_matches(
    scored: Iterable[ScoredPair],
    cfg: QIConfig,
    attack_surface: tuple[int, int] = (0, 0),
) -> LinkageResult:
    """Keep pairs whose every QI score meets its threshold; aggregate counts."""
    names = cfg.names()
    matches = []
    for pair in scored:
        if set(pair.scores) != set(names):
            raise ConfigError("scored pair does not carry one score per configured QI")
        if all(pair.scores[r.name] >= r.threshold for r in cfg.rules):
            matches.append(pair)
    matches.sort(key=lambda p: (p.original, p.synthetic))
    return LinkageResult.from_pairs(tuple(matches), attack_surface)


# ---------------------------------------------------------------------------
# The engine behind attack(). Inside it, targets and variant rows are
# addressed by position in the attack's sorted target and row arrays.

BLOCK_TARGETS = 256  # targets per densely scored block


def _codes(values: np.ndarray) -> tuple[list, np.ndarray]:
    """Distinct values in first-seen order, and each value's index among them."""
    cats = list(dict.fromkeys(values))
    code = {c: k for k, c in enumerate(cats)}
    return cats, np.fromiter((code[v] for v in values), dtype=np.int64, count=len(values))


def _group(keys: np.ndarray) -> dict[int, np.ndarray]:
    """Positions holding each key, ascending within a key."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return dict(zip(uniq.tolist(), np.split(order, starts[1:])))


def _partitions(
    columns: list[tuple[np.ndarray, np.ndarray]], n_targets: int, n_rows: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(target positions, row positions) of each value combination both sides hold.

    ``columns`` holds (target values, row values) per column. Every pair
    outside the partitions disagrees on some column; with no column, one
    partition spans every pair.
    """
    key = np.zeros(n_targets + n_rows, dtype=np.int64)
    for o, v in columns:
        cats, codes = _codes(np.concatenate([o, v]))
        # re-densify, so the combined key stays below n_targets + n_rows
        key = np.unique(key * len(cats) + codes, return_inverse=True)[1]
    t_groups, r_groups = _group(key[:n_targets]), _group(key[n_targets:])
    return [(t_pos, r_groups[k]) for k, t_pos in t_groups.items() if k in r_groups]


class _DenseRule:
    """One QI's scores over (target position, row position) pairs."""

    def __init__(self, rule: QIRule, o_values: np.ndarray, v_values: np.ndarray):
        self.rule = rule
        self._table = None
        if rule.comparator.kind is ComparatorKind.GAUSS:
            self._o, self._v = o_values, v_values
        else:
            o_cats, self._o = _codes(o_values)
            v_cats, self._v = _codes(v_values)
            score = rule.comparator.score
            self._table = np.array(
                [[score(a, b) for b in v_cats] for a in o_cats], dtype=np.float64
            )

    def scores(self, t_pos: np.ndarray, r_pos: np.ndarray) -> np.ndarray:
        """Scores of the pairs (t_pos, r_pos), broadcast as numpy indexing broadcasts."""
        o, v = self._o[t_pos], self._v[r_pos]
        if self._table is not None:
            return self._table[o, v]
        comp = self.rule.comparator
        surplus = np.maximum(0.0, np.abs(o - v) - comp.offset)
        return 2.0 ** (-((surplus / comp.scale) ** 2))


def _score_block(
    dense: list[_DenseRule], t_pos: np.ndarray, r_pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Matched (target, row) positions of one block and each dense rule's scores."""
    mask = np.ones((len(t_pos), len(r_pos)), dtype=bool)
    for rule in dense:
        mask &= rule.scores(t_pos[:, None], r_pos[None, :]) >= rule.rule.threshold
        if not mask.any():
            break
    ti, rj = np.nonzero(mask)
    t_sel, r_sel = t_pos[ti], r_pos[rj]
    return t_sel, r_sel, [rule.scores(t_sel, r_sel) for rule in dense]


def attack(
    original: Dataset,
    variant: Dataset,
    outlier_cfg: OutlierConfig,
    qi_cfg: QIConfig,
    qi_subset: Iterable[str] | None = None,
    *,
    blocking: str | None = None,
    restrict_variant_outliers: bool = False,
    workers: int = 1,
) -> LinkageResult:
    """Run the full attack: outlier targets scored against a variant.

    ``qi_subset`` restricts the attacker's background knowledge to a subset
    of the configured QIs. ``restrict_variant_outliers`` additionally limits
    the synthetic side to its own outlier rows. The pair space is always
    partitioned on every QI of the subset that demands exact agreement (a
    categorical comparator at threshold 1), and the other QIs are scored in
    blocks of ``BLOCK_TARGETS`` targets on ``workers`` threads. ``blocking``
    is only validated to name such a QI; it changes nothing. Results are
    independent of ``workers``.
    """
    _check_same_schema(original, variant)
    cfg = qi_cfg if qi_subset is None else qi_cfg.subset(qi_subset)
    cfg.validate_against(original)
    if blocking is not None:
        _validate_blocking(blocking, original, cfg)

    targets = np.array(sorted(detect_outliers(original, outlier_cfg).flagged), dtype=np.int64)
    if restrict_variant_outliers:
        rows = np.array(
            sorted(detect_outliers(variant, outlier_cfg).flagged), dtype=np.int64
        )
    else:
        rows = np.arange(variant.row_count, dtype=np.int64)
    surface = (len(targets), len(rows))
    if len(targets) == 0 or len(rows) == 0:
        return LinkageResult.from_pairs((), surface)

    def sides(rule: QIRule) -> tuple[np.ndarray, np.ndarray]:
        return original.columns[rule.name][targets], variant.columns[rule.name][rows]

    equal = [_demands_exact_agreement(r) for r in cfg.rules]
    dense = [_DenseRule(r, *sides(r)) for r, eq in zip(cfg.rules, equal) if not eq]
    partitions = _partitions(
        [sides(r) for r, eq in zip(cfg.rules, equal) if eq], len(targets), len(rows)
    )
    blocks = [
        (t_pos[k : k + BLOCK_TARGETS], r_pos)
        for t_pos, r_pos in partitions
        for k in range(0, len(t_pos), BLOCK_TARGETS)
    ]
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda b: _score_block(dense, *b), blocks))
    else:
        results = [_score_block(dense, *b) for b in blocks]

    names = cfg.names()
    pairs = []
    for t_sel, r_sel, dense_scores in results:
        # a pair inside a partition agrees exactly, scoring 1.0, on each equality QI
        scores = iter(dense_scores)
        columns = [repeat(1.0) if eq else next(scores).tolist() for eq in equal]
        for i, j, *values in zip(targets[t_sel].tolist(), rows[r_sel].tolist(), *columns):
            pairs.append(ScoredPair(original=i, synthetic=j, scores=dict(zip(names, values))))
    pairs.sort(key=lambda p: (p.original, p.synthetic))
    return LinkageResult.from_pairs(tuple(pairs), surface)


def save_matches(result: LinkageResult, cfg: QIConfig, path: str | Path) -> None:
    """Export possible-match pairs with per-QI scores (6 fractional digits)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = cfg.names()
    lines = [",".join(["original_index", "synthetic_index"] + [f"score_{n}" for n in names])]
    for p in result.pairs:
        lines.append(
            ",".join(
                [str(p.original), str(p.synthetic)] + [f"{p.scores[n]:.6f}" for n in names]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
