"""The linkage attack engine.

Original-dataset outliers are compared against every row of a synthetic
variant (optionally only its outliers), each configured QI is scored with
its comparator, and a pair is a possible match only when EVERY QI score
meets its threshold (conjunctive, worst-case semantics). Aggregation then
counts matches per original record; an original with exactly one possible
match is a unique match, the maximum-risk case.

An ``exact`` QI at any threshold, and a Levenshtein QI at threshold 1,
demand exact agreement, so :func:`attack` keys each target and variant row on
every such QI and compares only pairs of equal key; a partition is a key both
sides hold. The keys, and the category pairs a Levenshtein QI below threshold
1 scores, come from each dataset's stored coding (:func:`categories`); the
variant's codes are mapped into the original's with one lookup per category.
Each Gauss rule becomes a radius,
``score >= t  <=>  |x - y| <= offset + scale * sqrt(-log2 t)``. One sort of
the rows per Gauss rule on (key, value), across every partition, and two
``searchsorted`` calls give each target the window of rows of its key within
the radius (a sorted-neighbourhood join: Hernández & Stolfo, SIGMOD 1995).
With the full row range they are one list of plans: in each partition the plan
whose windows hold the fewest pairs drives, and one that drives none is dropped.
The windows of all targets sharing a driver are expanded ``PAIR_BUDGET`` pairs
at a time, so memory does not grow with targets x rows: 16,384 pairs, whose
working set (int64 target and row positions, and a Gauss rule's float64 gaps
and gathered values) is 32 bytes a pair, 512 KiB a chunk. The radii, computed at
a threshold lowered by ``GAUSS_SLACK``, only nominate candidates: each
equality QI scores 1.0 on every pair it lets through, a Levenshtein QI below
threshold 1 scores each distinct category pair once, and each Gauss QI scores
the remaining pairs with :meth:`ComparatorSpec.score`. Every match is decided
on those scalar scores, so the match set and its scores equal naive
pair-by-pair enumeration (:func:`score_pairs` then :func:`filter_matches`) at
any threshold; the matches stay arrays, sorted once (:class:`LinkageResult`).
"""

from __future__ import annotations

import logging
import math
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator

import numpy as np

from .comparators import ComparatorKind
from .config import OutlierConfig, QIConfig, QIRule
from .dataset import Dataset, categories, write_table
from .errors import ConfigError, DataError, Record
from .outliers import detect_outliers

logger = logging.getLogger(__name__)

class ScoredPair(Record):
    __slots__ = {"original": "int", "synthetic": "int", "scores": "dict[str, float]"}
    _hidden = frozenset({"scores"})


class LinkageResult(Record):
    """Matches as read-only columns ordered by (original, synthetic), and a
    read-only mapping of one score column per QI in configured order (1.0 on
    an equality QI). :attr:`pairs` is built on demand. Like every record,
    results compare field by field: columns by value, and the score mapping
    by its names, in any order, then column by column."""

    __slots__ = {
        "original": "np.ndarray", "synthetic": "np.ndarray", "scores": "MappingProxyType[str, np.ndarray]",
        "attack_surface": "tuple[int, int]: (targets, variant rows considered)",
        "_counts": "dict[int, int]: matches per original index, in ascending order",
    }
    _hidden = frozenset({"scores"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))  # any mapping, held read-only
        for col in (self.original, self.synthetic, *self.scores.values()):
            col.flags.writeable = False
        # each original's matches are one run of the sorted column: count run lengths, no sort
        o = self.original
        starts = [0, *((o[1:] != o[:-1]).nonzero()[0] + 1).tolist()][: len(o)]
        originals = o[starts].tolist()
        if originals != sorted(originals):
            raise ValueError("LinkageResult matches must be ordered by original index")
        sizes = [end - start for start, end in zip(starts, [*starts[1:], len(o)])]
        object.__setattr__(self, "_counts", dict(zip(originals, sizes)))

    @property
    def pairs(self) -> tuple[ScoredPair, ...]:
        names, columns = list(self.scores), [col.tolist() for col in self.scores.values()]
        rows = zip(self.original.tolist(), self.synthetic.tolist(), *columns)
        return tuple(ScoredPair(i, j, dict(zip(names, values))) for i, j, *values in rows)

    @property
    def per_original_match_count(self) -> dict[int, int]:
        return self._counts

    @property
    def unique_match_count(self) -> int:
        return sum(c == 1 for c in self.per_original_match_count.values())

    @property
    def distinct_original_count(self) -> int:
        return len(self.per_original_match_count)


def _demands_exact_agreement(rule: QIRule) -> bool:
    kind = rule.comparator.kind
    # exact scores only 0 or 1, so it demands equality at any threshold in (0, 1]
    exact = kind is ComparatorKind.EXACT
    return exact or (kind is ComparatorKind.LEVENSHTEIN and rule.threshold == 1)


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
    expected = set(names)
    matches = []
    for pair in scored:
        if pair.scores.keys() != expected:
            raise ConfigError("scored pair does not carry one score per configured QI")
        if all(pair.scores[r.name] >= r.threshold for r in cfg.rules):
            matches.append(pair)
    matches.sort(key=lambda p: (p.original, p.synthetic))
    ids = np.array([(p.original, p.synthetic) for p in matches], dtype=np.int64).reshape(-1, 2)
    scores = {n: np.array([p.scores[n] for p in matches], dtype=np.float64) for n in names}
    return LinkageResult(ids[:, 0], ids[:, 1], scores, attack_surface)


# ---------------------------------------------------------------------------
# The engine behind attack(). Inside it, targets and variant rows are
# addressed by position in the attack's sorted target and row arrays.

PAIR_BUDGET = 1 << 14  # candidate pairs generated and scored at once
# Relative slack of the threshold a Gauss radius is computed at: rounding in
# the radius and in the scalar comparator is about 1e-16.
GAUSS_SLACK = 1e-9


def _keys(columns: list[tuple], n_targets: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Int keys below n_targets + n_rows of the targets and of the rows, equal
    iff they agree on every column.

    ``columns`` holds (target codes, row codes, radix) per column; with no
    column every key is 0. Each column's codes extend the key as one more
    mixed-radix digit; the keys are re-densified, a sort of every key, only
    once the product of radices passes n_targets + n_rows.
    """
    key = np.zeros(n_targets + n_rows, dtype=np.int64)
    bound = 1  # every key is below it
    for t, r, radix in columns:
        key *= radix
        key[:n_targets] += t
        key[n_targets:] += r
        bound *= radix
        if bound > len(key):
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
    return key[:n_targets], key[n_targets:]


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """``real + 1j * imag``, filled in place of building a complex temporary per term."""
    out = np.empty(len(real), dtype=np.complex128)
    out.real, out.imag = real, imag
    return out


class _GaussRule:
    """A Gauss QI: a radius for windows and candidates, and the scalar decision."""

    def __init__(self, rule: QIRule, o_values: np.ndarray, v_values: np.ndarray):
        self.rule = rule
        self._o, self._v = o_values, v_values
        comp = rule.comparator
        # score >= floor  <=>  |x - y| <= offset + scale * sqrt(-log2 floor). A
        # scalar match clears the floor by GAUSS_SLACK, far above rounding in
        # the comparator; a few ulps of the values cover rounding in x - y and x ± R,
        # and an R that overflows stays infinite, its windows whole partitions.
        floor = rule.threshold * (1 - GAUSS_SLACK)
        radius = comp.offset + comp.scale * math.sqrt(-math.log2(floor))
        magnitude = max(np.abs(o_values).max(), np.abs(v_values).max(), radius)
        self.radius = radius + 4 * float(np.spacing(magnitude)) if radius < math.inf else radius

    def windows(self, t_key: np.ndarray, r_key: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rows sorted on (key, this QI), and each target's [lo, hi) slice
        of them holding every row of its key within the radius."""
        # row order within a window never matters, so only the key sort, which
        # keeps the value order within each key, needs to be stable
        order = np.argsort(self._v)
        order = order[np.argsort(r_key[order], kind="stable")]
        # numpy orders complex numbers lexicographically; key + 1j * x is exact
        rows = _complex(r_key[order], self._v[order])
        lo = np.searchsorted(rows, _complex(t_key, self._o - self.radius), side="left")
        return order, lo, np.searchsorted(rows, _complex(t_key, self._o + self.radius), side="right")

    def candidates(self, t_sel: np.ndarray, r_sel: np.ndarray) -> np.ndarray:
        """Mask of the pairs (t_sel[k], r_sel[k]) within the radius; a superset of the matches."""
        gap = self._o[t_sel]
        gap -= self._v[r_sel]
        return np.abs(gap, out=gap) <= self.radius

    def scores(self, t_sel: np.ndarray, r_sel: np.ndarray) -> np.ndarray:
        """Exact scores of the pairs (t_sel[k], r_sel[k])."""
        o, v = self._o[t_sel], self._v[r_sel]
        score = self.rule.comparator.score
        return np.array([score(a, b) for a, b in zip(o.tolist(), v.tolist())], dtype=np.float64)


class _CategoryRule:
    """A Levenshtein QI below threshold 1, scored once per category pair it meets."""

    def __init__(self, rule: QIRule, o_cats: tuple, v_cats: tuple, o_codes: np.ndarray, v_codes: np.ndarray):
        self.rule = rule
        self._o_cats, self._v_cats, self._o, self._v = o_cats, v_cats, o_codes, v_codes
        self._memo: dict[int, float] = {}  # o code * len(v cats) + v code -> score

    def scores(self, t_sel: np.ndarray, r_sel: np.ndarray) -> np.ndarray:
        """Exact scores of the pairs (t_sel[k], r_sel[k])."""
        width = len(self._v_cats)
        # int64 first: the codes' small unsigned type would wrap silently
        keys, inverse = np.unique(self._o[t_sel].astype(np.int64) * width + self._v[r_sel], return_inverse=True)
        score, memo = self.rule.comparator.score, self._memo
        values = []
        for key in keys.tolist():
            if key not in memo:
                a, b = divmod(key, width)
                memo[key] = score(self._o_cats[a], self._v_cats[b])
            values.append(memo[key])
        return np.array(values, dtype=np.float64)[inverse]


def _join_plan(gauss: list[_GaussRule], t_key: np.ndarray, r_key: np.ndarray) -> Iterator[tuple]:
    """The join plan, one driver at a time: its name, the partitions it drives,
    the targets in them, the rows in its order and each of those targets'
    [lo, hi) window into the rows.

    A partition is a key both targets and rows hold. One list holds each
    driver's plan, (name, row order, lo, hi): the full range, whose key sort is
    built only if it drives, then each Gauss rule's windows, which hold all of
    its matches. In each partition the plan whose windows hold the fewest pairs
    drives, ties going to the earlier plan. A plan that drives nothing is
    dropped before the first pair, a driver once its pairs are yielded.
    """
    ends = np.cumsum(np.bincount(r_key, minlength=t_key.max() + 1))  # each key's end in the key sort
    plans = [("full range", None, np.append(0, ends)[t_key], ends[t_key])]
    plans += [(rule.rule.name, *rule.windows(t_key, r_key)) for rule in gauss]
    sizes = [np.bincount(t_key, weights=hi - lo) for _, _, lo, hi in plans]
    driver = np.where(sizes[0] > 0, np.argmin(sizes, axis=0), -1)  # a partition's full range holds a pair
    partitions = np.bincount(driver + 1, minlength=len(plans) + 1)[1:]
    plans = [(d, plan) for d, plan in enumerate(plans) if partitions[d]]
    while plans:
        d, (name, order, lo, hi) = plans.pop(0)
        t_pos = np.flatnonzero(driver[t_key] == d)
        order = np.argsort(r_key) if order is None else order
        yield name, int(partitions[d]), t_pos, order, lo[t_pos], hi[t_pos]


def _pair_chunks(
    t_pos: np.ndarray, order: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(target, row) positions of every pair in the windows, ``PAIR_BUDGET``
    pairs at a time; a window longer than the budget spans chunks. Only the
    caller holds a chunk, so it is freed before the next one is built."""
    ends = np.cumsum(hi - lo)
    starts, total = ends - (hi - lo), int(ends[-1])
    shift = lo - starts  # pair k, counted across the windows, is row order[k + shift] of its window

    def chunk(first: int) -> tuple[np.ndarray, np.ndarray]:
        last = min(first + PAIR_BUDGET, total)
        # the windows from that of the chunk's first pair to that of its last, and their pairs in it
        a, b = np.searchsorted(ends, [first, last - 1], side="right").tolist()
        sizes = np.minimum(ends[a : b + 1], last) - np.maximum(starts[a : b + 1], first)
        k = np.arange(first, last)
        k += np.repeat(shift[a : b + 1], sizes)
        return np.repeat(t_pos[a : b + 1], sizes), order[k]

    return map(chunk, range(0, total, PAIR_BUDGET))


def _decide(
    gauss: list[_GaussRule], categorical: list[_CategoryRule], t_sel: np.ndarray, r_sel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """The matches among the candidates (t_sel[k], r_sel[k]) and their scores per scored QI.

    The Gauss radii drop pairs that cannot match; each categorical rule
    then scores the survivors' category pairs, and each Gauss rule their
    scalar scores, every match decided on those scores.
    """
    if gauss:
        keep = gauss[0].candidates(t_sel, r_sel)
        for rule in gauss[1:]:
            keep &= rule.candidates(t_sel, r_sel)
        t_sel, r_sel = t_sel[keep], r_sel[keep]
    scores: dict[str, np.ndarray] = {}
    for rule in [*categorical, *gauss]:
        s = rule.scores(t_sel, r_sel)
        keep = s >= rule.rule.threshold
        t_sel, r_sel = t_sel[keep], r_sel[keep]
        scores = {name: earlier[keep] for name, earlier in scores.items()}
        scores[rule.rule.name] = s[keep]
    return t_sel, r_sel, scores


def attack(
    original: Dataset,
    variant: Dataset,
    outlier_cfg: OutlierConfig,
    qi_cfg: QIConfig,
    qi_subset: Iterable[str] | None = None,
    *,
    blocking: str | None = None,
    restrict_variant_outliers: bool = False,
) -> LinkageResult:
    """Run the full attack: outlier targets scored against a variant.

    ``qi_subset`` restricts the attacker's background knowledge to a subset
    of the configured QIs. ``restrict_variant_outliers`` additionally limits
    the synthetic side to its own outlier rows. The pair space is always
    partitioned on every QI of the subset that demands exact agreement (an
    ``exact`` comparator, or Levenshtein at threshold 1). One sort per Gauss
    QI spans every partition; in each, the full range or the QI whose windows
    hold the fewest pairs drives, only the drivers' row orders are kept, and
    candidates are decided ``PAIR_BUDGET`` pairs at a time on the scalar
    comparator's scores. The plan is logged at DEBUG level,
    drivers listed as the full range, then the Gauss QIs in configured order.
    ``blocking`` is accepted and ignored: the partitions already cover every
    such QI. Targets, and restricted variant rows, are the sorted ``index`` of
    :func:`detect_outliers` as it is; a dataset object's outliers are detected,
    and its categories coded, once. The matches of every chunk are sorted
    once, into the columns of a :class:`LinkageResult`.
    """
    if original.schema != variant.schema:
        raise DataError("variant does not share the original's schema")
    cfg = qi_cfg if qi_subset is None else qi_cfg.subset(qi_subset)
    cfg.validate_against(original)

    targets = detect_outliers(original, outlier_cfg).index
    # None stands for every variant row: a row's position is its index, and its columns are not copied
    rows = detect_outliers(variant, outlier_cfg).index if restrict_variant_outliers else None
    surface = (len(targets), variant.row_count if rows is None else len(rows))
    names, none = cfg.names(), np.empty(0, dtype=np.int64)
    if 0 in surface:
        return LinkageResult(none, none, {n: np.empty(0) for n in names}, surface)

    def sides(o: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return o[targets], v if rows is None else v[rows]

    def coded(name: str) -> tuple:
        (o_cats, o_codes), (v_cats, v_codes) = categories(original, name), categories(variant, name)
        return o_cats, v_cats, *sides(o_codes, v_codes)

    def digit(name: str) -> tuple[np.ndarray, np.ndarray, int]:
        """Codes in the original's code space and their radix; a category it lacks is len(o_cats), held by no target."""
        o_cats, v_cats, t_codes, r_codes = coded(name)
        index = dict(zip(o_cats, range(len(o_cats))))
        to_o = np.fromiter((index.get(c, len(o_cats)) for c in v_cats), t_codes.dtype, len(v_cats))
        return t_codes, to_o.take(r_codes), len(o_cats) + 1

    equal = [_demands_exact_agreement(r) for r in cfg.rules]
    gauss, categorical = [], []
    for r, eq in zip(cfg.rules, equal):
        if r.comparator.kind is ComparatorKind.GAUSS:
            gauss.append(_GaussRule(r, *sides(original.columns[r.name], variant.columns[r.name])))
        elif not eq:
            categorical.append(_CategoryRule(r, *coded(r.name)))
    keys = _keys([digit(r.name) for r, eq in zip(cfg.rules, equal) if eq], *surface)

    found = [_decide(gauss, categorical, none, none)]  # an empty part, so the columns concatenate
    drivers: dict[str, int] = {}
    candidates = 0
    for driver, partitions, t_pos, order, lo, hi in _join_plan(gauss, *keys):
        drivers[driver] = partitions
        candidates += int((hi - lo).sum())
        for t_sel, r_sel in _pair_chunks(t_pos, order, lo, hi):
            t_sel, r_sel, scores = _decide(gauss, categorical, t_sel, r_sel)  # drops the chunk
            if len(t_sel):  # a chunk without matches keeps nothing
                found.append((targets[t_sel], r_sel if rows is None else rows[r_sel], scores))
    o, v = (np.concatenate([f[k] for f in found]) for k in (0, 1))
    scored = {n: np.concatenate([f[2][n] for f in found]) for n in found[0][2]}
    del found  # before sorting, so the chunks and their sorted copy never coexist
    order = np.lexsort((v, o))
    o, v = o[order], v[order]
    # a pair inside a partition agrees exactly, scoring 1.0, on each equality QI
    scores = {n: np.ones(len(o)) if eq else scored.pop(n)[order] for n, eq in zip(names, equal)}
    logger.debug(
        "attack on %s: %d partition(s), driver %s; %d candidates scored, %d matches",
        ",".join(names),
        sum(drivers.values()),
        ", ".join(f"{d} ({n})" for d, n in drivers.items()) or "none",
        candidates,
        len(o),
    )
    return LinkageResult(o, v, scores, surface)


def save_matches(result: LinkageResult, path: str | Path) -> None:
    """Export the matches, a column per QI score at 6 fractional digits.

    Each distinct score of a column is formatted once and looked up. Scores
    are told apart by their bits, so -0.0 and 0.0 keep their own texts.
    """
    columns = [("original_index", str, result.original), ("synthetic_index", str, result.synthetic)]
    for name, col in result.scores.items():
        bits = col.view(np.uint64)
        order = np.argsort(bits)
        ordered = bits[order]
        first = np.ones(len(bits), bool)  # of a run of equal bits in sorted order
        first[1:] = ordered[1:] != ordered[:-1]
        codes = np.empty(len(bits), np.intp)
        codes[order] = np.cumsum(first) - 1
        texts = list(map("{:.6f}".format, ordered[first].view(np.float64).tolist()))
        columns.append((f"score_{name}", texts, codes))
    write_table(path, columns)
