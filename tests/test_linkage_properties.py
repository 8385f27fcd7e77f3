"""Property test: attack() against the brute-force oracle on small random tables.

Each rule set steers the engine down one path of its pair-space partition:
equality QIs only, several equality QIs at once, ``exact`` at threshold 1
and below it, Levenshtein at 0.8 beside equality QIs, dense QIs only, and
Gauss at a threshold other than 0.5 that an integer age gap meets exactly.
The category pools include values present on one side only and the empty
string, and the generated tables include empty target sets, one-row
variants and runs restricted to the variant's own outliers.
"""

from __future__ import annotations

from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from synthaudit import (  # noqa: E402
    AttributeSchema,
    ComparatorKind,
    ComparatorSpec,
    Dataset,
    Kind,
    OutlierConfig,
    QIConfig,
    QIRule,
    Role,
    attack,
    filter_matches,
    gauss_similarity,
    score_pairs,
)

from linkage_oracle import oracle_matches, outlier_targets  # noqa: E402

SCHEMA = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
    AttributeSchema("intent", Kind.CATEGORICAL, Role.QI),
    AttributeSchema("zip", Kind.CATEGORICAL, Role.QI),
)

# OWN and 99999 occur only in originals, MORTGAGE, C and 12355 only in variants.
ORIGINAL_POOLS = {
    "home": ["RENT", "OWN", ""],
    "intent": ["A", "B"],
    "zip": ["12345", "12346", "1234", "99999"],
}
VARIANT_POOLS = {
    "home": ["RENT", "MORTGAGE", ""],
    "intent": ["A", "B", "C"],
    "zip": ["12345", "12355", "1234", ""],
}

# Gauss at offset 2, scale 3 scores exactly 0.5 at an age gap of 5, and
# exactly AT_GAP_4 at a gap of 4.
AT_GAP_4 = gauss_similarity(0.0, 4.0, 2.0, 3.0)
RULE_SETS = {
    "equality-only": [("home", "exact", 1.0), ("intent", "levenshtein", 1.0)],
    "two-equality-with-gauss": [
        ("age", "gauss", 0.5),
        ("home", "levenshtein", 1.0),
        ("intent", "exact", 1.0),
    ],
    "single-exact": [("zip", "exact", 1.0)],
    "exact-at-half": [("age", "gauss", 0.5), ("home", "exact", 0.5)],
    "levenshtein-0.8-beside-equality": [
        ("zip", "levenshtein", 0.8),
        ("home", "exact", 1.0),
        ("intent", "levenshtein", 1.0),
    ],
    "dense-only": [("age", "gauss", 0.5), ("zip", "levenshtein", 0.8)],
    "gauss-at-gap-4-beside-equality": [("age", "gauss", AT_GAP_4), ("home", "exact", 1.0)],
}

OUTLIER_K = [0.7, 1.1, 10.0]  # |z| never exceeds 3 on ten rows, so 10 flags nothing


def build(rules) -> tuple[QIConfig, list[tuple]]:
    """The engine's QI config and the oracle's rule tuples for one rule set."""
    qi, oracle = [], []
    for name, kind, threshold in rules:
        if kind == "gauss":
            spec = ComparatorSpec(ComparatorKind.GAUSS, offset=2.0, scale=3.0)
            oracle.append(("gauss", name, 2.0, 3.0, threshold))
        else:
            spec = ComparatorSpec(ComparatorKind(kind))
            oracle.append(("lev" if kind == "levenshtein" else "exact", name, threshold))
        qi.append(QIRule(name, spec, threshold))
    return QIConfig(rules=tuple(qi)), oracle


@st.composite
def tables(draw):
    def columns(pools: dict[str, list[str]]) -> dict[str, list]:
        n = draw(st.integers(1, 10))
        cols = {"age": draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))}
        for name, pool in pools.items():
            cols[name] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        return cols

    original = columns(ORIGINAL_POOLS)
    variant = columns(VARIANT_POOLS)
    return original, variant, draw(st.sampled_from(OUTLIER_K)), draw(st.booleans())


ONE_ROW_VARIANT = (
    {"age": [0, 10, 20], "home": ["RENT", "OWN", ""], "intent": ["A", "B", "A"],
     "zip": ["12345", "1234", "99999"]},
    {"age": [18], "home": [""], "intent": ["A"], "zip": ["12345"]},
    0.7,
    False,
)


@pytest.mark.parametrize("rules", RULE_SETS.values(), ids=RULE_SETS)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(instance=tables())
@example(instance=ONE_ROW_VARIANT)
@example(instance=(ONE_ROW_VARIANT[0], ONE_ROW_VARIANT[1], 10.0, True))
def test_attack_equals_oracle_and_scalar_pipeline(rules, instance):
    ocols, vcols, k, restrict = instance
    original = Dataset.from_columns(SCHEMA, ocols)
    variant = Dataset.from_columns(SCHEMA, vcols)
    cfg, oracle_rules = build(rules)
    result = attack(
        original,
        variant,
        OutlierConfig(k=k, attributes=("age",)),
        cfg,
        restrict_variant_outliers=restrict,
    )

    targets = outlier_targets(ocols, ("age",), k, "any")
    rows = outlier_targets(vcols, ("age",), k, "any") if restrict else range(len(vcols["age"]))
    assert result.attack_surface == (len(targets), len(rows))
    expected = oracle_matches(ocols, vcols, oracle_rules, targets, list(rows))
    assert {(p.original, p.synthetic) for p in result.pairs} == expected
    # scores and aggregation equal scoring the whole cross product pair by pair
    scalar = score_pairs(product(targets, rows), original, variant, cfg)
    assert result == filter_matches(scalar, cfg, result.attack_surface)
