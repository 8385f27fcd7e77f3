"""Per-attribute similarity functions mapping a value pair into [0, 1].

Three comparators cover the attack's needs:

* ``gauss``: numeric tolerance kernel. With d = |x - y| and
  d' = max(0, d - offset), the score is 2^(-(d' / scale)^2). It is exactly 1
  while the difference stays within ``offset`` and crosses 0.5 exactly at
  d = offset + scale, which is the conventional numeric match threshold.
* ``levenshtein``: 1 - edit_distance(a, b) / max(len(a), len(b)), with unit
  insert/delete/substitute costs and no transpositions.
* ``exact``: byte equality, 1 or 0.

All comparators are symmetric, total on their domains, and never return NaN
(non-finite numeric values are rejected at ingestion, not here).
"""

from __future__ import annotations

import enum
import math
from .errors import ConfigError, Record


class ComparatorKind(enum.Enum):
    GAUSS = "gauss"
    LEVENSHTEIN = "levenshtein"
    EXACT = "exact"


class ComparatorSpec(Record):
    """Comparator choice plus parameters; only gauss takes offset/scale, both finite."""

    __slots__ = {"kind": "ComparatorKind", "offset": "float | None", "scale": "float | None"}
    _defaults = {"offset": None, "scale": None}

    def __post_init__(self) -> None:
        if self.kind is ComparatorKind.GAUSS:
            if self.scale is None or not self.scale > 0:
                raise ConfigError(f"gauss comparator requires scale > 0, got {self.scale}")
            if self.offset is None or self.offset < 0:
                raise ConfigError(f"gauss comparator requires offset >= 0, got {self.offset}")
            if not (math.isfinite(self.offset) and math.isfinite(self.scale)):  # nan passes `< 0`
                raise ConfigError(
                    f"gauss comparator requires a finite offset and scale, "
                    f"got offset {self.offset} and scale {self.scale}"
                )
        elif self.offset is not None or self.scale is not None:
            raise ConfigError(f"{self.kind.value} comparator takes no offset/scale")

    def score(self, a, b) -> float:
        if self.kind is ComparatorKind.GAUSS:
            return gauss_similarity(float(a), float(b), self.offset, self.scale)
        if self.kind is ComparatorKind.LEVENSHTEIN:
            return levenshtein_similarity(str(a), str(b))
        return exact_similarity(str(a), str(b))


def gauss_similarity(x: float, y: float, offset: float, scale: float) -> float:
    """2^(-(max(0, |x-y| - offset) / scale)^2); 1 iff |x-y| <= offset."""
    if not 0 < scale < math.inf:  # also false for nan
        raise ConfigError(f"scale must be positive and finite, got {scale}")
    if not 0 <= offset < math.inf:
        raise ConfigError(f"offset must be non-negative and finite, got {offset}")
    surplus = max(0.0, abs(x - y) - offset)
    return 2.0 ** (-((surplus / scale) ** 2))


def levenshtein_distance(a: str, b: str) -> int:
    """Classic edit distance, unit costs for insert/delete/substitute."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - lev(a, b) / max(|a|, |b|); two empty strings score 1."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest


def exact_similarity(a: str, b: str) -> float:
    return 1.0 if a == b else 0.0
