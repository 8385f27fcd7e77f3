from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from synthaudit import (
    AttributeSchema,
    ComparatorKind,
    ComparatorSpec,
    ConfigError,
    DataError,
    Dataset,
    Kind,
    OutlierConfig,
    QIConfig,
    QIRule,
    Role,
    attack,
    filter_matches,
    score_pairs,
)
from synthaudit.linkage import save_matches
from synthaudit.outliers import detect_outliers

from linkage_oracle import oracle_matches, outlier_targets

GAUSS = lambda off, sc: ComparatorSpec(ComparatorKind.GAUSS, offset=off, scale=sc)  # noqa: E731
LEV = ComparatorSpec(ComparatorKind.LEVENSHTEIN)
EXACT = ComparatorSpec(ComparatorKind.EXACT)

SCHEMA = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("income", Kind.NUMERICAL, Role.QI),
    AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
    AttributeSchema("intent", Kind.CATEGORICAL, Role.QI),
)

QI4 = QIConfig(
    rules=(
        QIRule("age", GAUSS(5.0, 5.0)),
        QIRule("income", GAUSS(1000.0, 1000.0)),
        QIRule("home", LEV),
        QIRule("intent", LEV),
    )
)


def make_ds(age, income, home, intent):
    return Dataset.from_columns(
        SCHEMA, {"age": age, "income": income, "home": home, "intent": intent}
    )


HOMES = ["MORTGAGE", "RENT", "OWN", "OTHER"]
INTENTS = ["PERSONAL", "MEDICAL", "VENTURE"]


def random_instance(rng: np.random.Generator, n_orig: int, n_var: int):
    """A pair of datasets with enough collisions to produce real matches."""

    def cols(n):
        return {
            "age": rng.integers(18, 80, n).astype(float),
            "income": (rng.integers(10, 80, n) * 1000).astype(float),
            "home": [HOMES[i] for i in rng.integers(0, len(HOMES), n)],
            "intent": [INTENTS[i] for i in rng.integers(0, len(INTENTS), n)],
        }

    return make_ds(**cols(n_orig)), make_ds(**cols(n_var))


OUTLIER_CFG = OutlierConfig(k=1.5, attributes=("age", "income"))


class TestCandidatePairs:
    """attack() checks what may narrow its candidate pairs before scoring any."""

    def test_blocking_validation(self):
        original, variant = random_instance(np.random.default_rng(1), 4, 4)
        with pytest.raises(ConfigError, match="not categorical"):
            attack(original, variant, OUTLIER_CFG, QI4, blocking="age")
        lowered = QIConfig(
            rules=tuple(
                QIRule(r.name, r.comparator, 0.9 if r.name == "home" else r.threshold)
                for r in QI4.rules
            )
        )
        with pytest.raises(ConfigError, match="threshold 1"):
            attack(original, variant, OUTLIER_CFG, lowered, blocking="home")
        with pytest.raises(ConfigError, match="no QI rule"):
            attack(original, variant, OUTLIER_CFG, QI4, qi_subset=("age",), blocking="home")

    def test_schema_mismatch_rejected(self):
        original, _ = random_instance(np.random.default_rng(2), 4, 4)
        other = Dataset.from_columns(
            (AttributeSchema("age", Kind.NUMERICAL, Role.QI),), {"age": [1.0]}
        )
        with pytest.raises(DataError, match="schema"):
            attack(original, other, OUTLIER_CFG, QI4)


class TestScoreAndFilter:
    def test_identical_pair_scores_all_ones(self):
        ds = make_ds([54], [170000], ["MORTGAGE"], ["PERSONAL"])
        scored = list(score_pairs([(0, 0)], ds, ds, QI4))
        assert scored[0].scores == {"age": 1.0, "income": 1.0, "home": 1.0, "intent": 1.0}

    def test_matched_record_pair_example(self):
        original = make_ds([54], [170000], ["MORTGAGE"], ["PERSONAL"])
        variant = make_ds([54], [170262], ["MORTGAGE"], ["PERSONAL"])
        scored = list(score_pairs([(0, 0)], original, variant, QI4))
        assert scored[0].scores == {"age": 1.0, "income": 1.0, "home": 1.0, "intent": 1.0}
        result = filter_matches(scored, QI4, attack_surface=(1, 1))
        assert len(result.pairs) == 1
        assert result.unique_match_count == 1

    def test_income_decay_score(self):
        original = make_ds([54], [170000], ["MORTGAGE"], ["PERSONAL"])
        variant = make_ds([54], [173000], ["MORTGAGE"], ["PERSONAL"])
        scored = list(score_pairs([(0, 0)], original, variant, QI4))
        assert scored[0].scores["income"] == pytest.approx(0.0625, abs=1e-15)
        # income fails the 0.5 threshold, so the conjunction rejects the pair
        assert filter_matches(scored, QI4).pairs == ()

    def test_conjunction_requires_every_qi(self):
        original = make_ds([30], [50000], ["RENT"], ["PERSONAL"])
        variant = make_ds([30], [50000], ["RENT"], ["MEDICAL"])
        result = filter_matches(score_pairs([(0, 0)], original, variant, QI4), QI4)
        assert result.pairs == ()

    def test_unique_match_counting(self):
        # originals 0 and 1 each match only synthetic row 0; original 2 matches nothing
        original = make_ds(
            [30, 31, 70], [50000, 50000, 99000], ["RENT", "RENT", "OWN"], ["PERSONAL"] * 3
        )
        variant = make_ds([30], [50400], ["RENT"], ["PERSONAL"])
        scored = score_pairs(product([0, 1, 2], range(variant.row_count)), original, variant, QI4)
        result = filter_matches(scored, QI4, attack_surface=(3, 1))
        assert len(result.pairs) == 2
        assert result.per_original_match_count == {0: 1, 1: 1}
        assert result.unique_match_count == 2
        assert result.distinct_original_count == 2

    def test_score_per_qi_contract(self):
        from synthaudit import ScoredPair

        bad = [ScoredPair(0, 0, {"age": 1.0})]
        with pytest.raises(ConfigError, match="one score per configured QI"):
            filter_matches(bad, QI4)


class TestAttack:
    def test_identity_variant_self_matches(self):
        rng = np.random.default_rng(33)
        original, _ = random_instance(rng, 40, 40)
        result = attack(original, original, OUTLIER_CFG, QI4)
        targets = detect_outliers(original, OUTLIER_CFG).flagged
        assert result.attack_surface == (len(targets), 40)
        # every target matches at least itself
        for i in targets:
            assert result.per_original_match_count.get(i, 0) >= 1
            assert (i, i) in {(p.original, p.synthetic) for p in result.pairs}

    def test_matches_scalar_pipeline(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            original, variant = random_instance(rng, 30, 45)
            via_attack = attack(original, variant, OUTLIER_CFG, QI4)
            targets = sorted(detect_outliers(original, OUTLIER_CFG).flagged)
            pairs = product(targets, range(variant.row_count))
            scored = score_pairs(pairs, original, variant, QI4)
            via_stream = filter_matches(scored, QI4, attack_surface=via_attack.attack_surface)
            assert via_attack == via_stream

    def test_blocking_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            original, variant = random_instance(rng, 40, 60)
            plain = attack(original, variant, OUTLIER_CFG, QI4)
            blocked = attack(original, variant, OUTLIER_CFG, QI4, blocking="home")
            assert plain == blocked

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(6)
        original, variant = random_instance(rng, 50, 50)
        result = attack(original, variant, OUTLIER_CFG, QI4)
        ocols = {a.name: list(original.column(a.name)) for a in SCHEMA}
        vcols = {a.name: list(variant.column(a.name)) for a in SCHEMA}
        targets = outlier_targets(ocols, ("age", "income"), 1.5, "any")
        expected = oracle_matches(
            ocols,
            vcols,
            [
                ("gauss", "age", 5.0, 5.0, 0.5),
                ("gauss", "income", 1000.0, 1000.0, 0.5),
                ("lev", "home", 1.0),
                ("lev", "intent", 1.0),
            ],
            targets,
        )
        assert {(p.original, p.synthetic) for p in result.pairs} == expected

    def test_qi_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            original, variant = random_instance(rng, 40, 60)
            full = attack(original, variant, OUTLIER_CFG, QI4)
            partial = attack(original, variant, OUTLIER_CFG, QI4, qi_subset=("age", "income"))
            full_set = {(p.original, p.synthetic) for p in full.pairs}
            partial_set = {(p.original, p.synthetic) for p in partial.pairs}
            assert full_set <= partial_set

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(8)
        original, variant = random_instance(rng, 40, 60)
        loose = QIConfig(
            rules=(
                QIRule("age", GAUSS(5.0, 5.0), 0.25),
                QIRule("income", GAUSS(1000.0, 1000.0), 0.25),
                QIRule("home", LEV),
                QIRule("intent", LEV),
            )
        )
        tight = QIConfig(
            rules=(
                QIRule("age", GAUSS(5.0, 5.0), 0.75),
                QIRule("income", GAUSS(1000.0, 1000.0), 0.75),
                QIRule("home", LEV),
                QIRule("intent", LEV),
            )
        )
        loose_set = {(p.original, p.synthetic) for p in attack(original, variant, OUTLIER_CFG, loose).pairs}
        tight_set = {(p.original, p.synthetic) for p in attack(original, variant, OUTLIER_CFG, tight).pairs}
        assert tight_set <= loose_set

    def test_deterministic_across_workers_and_chunks(self):
        rng = np.random.default_rng(9)
        original, variant = random_instance(rng, 60, 80)
        base = attack(original, variant, OUTLIER_CFG, QI4)
        assert attack(original, variant, OUTLIER_CFG, QI4, workers=4) == base
        assert attack(original, variant, OUTLIER_CFG, QI4, workers=3) == base

    def test_result_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            original, variant = random_instance(rng, 30, 50)
            result = attack(original, variant, OUTLIER_CFG, QI4)
            n_targets, n_rows = result.attack_surface
            assert result.unique_match_count <= n_targets
            assert sum(result.per_original_match_count.values()) == len(result.pairs)
            assert len(result.pairs) <= n_targets * n_rows
            assert all(0.0 <= s <= 1.0 for p in result.pairs for s in p.scores.values())

    def test_restrict_variant_outliers(self):
        rng = np.random.default_rng(11)
        original, variant = random_instance(rng, 60, 60)
        full = attack(original, variant, OUTLIER_CFG, QI4)
        restricted = attack(original, variant, OUTLIER_CFG, QI4, restrict_variant_outliers=True)
        variant_outliers = detect_outliers(variant, OUTLIER_CFG).flagged
        assert restricted.attack_surface[1] == len(variant_outliers)
        restricted_set = {(p.original, p.synthetic) for p in restricted.pairs}
        full_set = {(p.original, p.synthetic) for p in full.pairs}
        assert restricted_set == {(i, j) for i, j in full_set if j in variant_outliers}

    def test_unknown_subset_rejected(self):
        original, variant = random_instance(np.random.default_rng(12), 10, 10)
        with pytest.raises(ConfigError, match="not configured"):
            attack(original, variant, OUTLIER_CFG, QI4, qi_subset=("age", "nope"))

    def test_empty_targets_give_empty_result(self):
        original = make_ds([30, 31], [50000, 50100], ["RENT", "RENT"], ["PERSONAL"] * 2)
        result = attack(original, original, OutlierConfig(k=10, attributes=("age",)), QI4)
        assert result.pairs == ()
        assert result.unique_match_count == 0
        assert result.attack_surface == (0, 2)


def test_save_matches_format(tmp_path):
    original = make_ds([54], [170000], ["MORTGAGE"], ["PERSONAL"])
    variant = make_ds([54], [170262], ["MORTGAGE"], ["PERSONAL"])
    result = filter_matches(
        score_pairs([(0, 0)], original, variant, QI4), QI4, attack_surface=(1, 1)
    )
    path = tmp_path / "pairs.csv"
    save_matches(result, QI4, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "original_index,synthetic_index,score_age,score_income,score_home,score_intent"
    assert lines[1] == "0,0,1.000000,1.000000,1.000000,1.000000"


def test_qi_config_validation(toy_dataset):
    with pytest.raises(ConfigError):
        QIConfig(rules=())
    with pytest.raises(ConfigError):
        QIConfig(rules=(QIRule("a", LEV), QIRule("a", EXACT)))
    with pytest.raises(ConfigError):
        QIRule("age", GAUSS(5.0, 5.0), threshold=0.0)
    with pytest.raises(ConfigError):
        QIRule("age", GAUSS(5.0, 5.0), threshold=1.5)
    # default thresholds resolve by comparator kind
    assert QIRule("age", GAUSS(5.0, 5.0)).threshold == 0.5
    assert QIRule("home", LEV).threshold == 1.0
    assert QIRule("home", EXACT).threshold == 1.0
    cfg = QIConfig(rules=(QIRule("home", GAUSS(1.0, 1.0)),))
    with pytest.raises(ConfigError, match="non-numeric"):
        cfg.validate_against(toy_dataset)
    cfg = QIConfig(rules=(QIRule("age", LEV),))
    with pytest.raises(ConfigError, match="non-categorical"):
        cfg.validate_against(toy_dataset)
