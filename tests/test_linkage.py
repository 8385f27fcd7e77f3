from __future__ import annotations

import json
import logging
import re
import tracemalloc
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
    gauss_similarity,
    score_pairs,
)
from synthaudit import audit, comparators, linkage
from synthaudit.dataset import BLOCK_ROWS, categories
from synthaudit.linkage import save_matches
from synthaudit.outliers import detect_outliers

from linkage_oracle import oracle_matches, outlier_targets
from test_dataset import twin

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

    def test_schema_mismatch_rejected(self):
        original, _ = random_instance(np.random.default_rng(2), 4, 4)
        other = Dataset.from_columns(
            (AttributeSchema("age", Kind.NUMERICAL, Role.QI),), {"age": [1.0]}
        )
        with pytest.raises(DataError, match="schema"):
            attack(original, other, OUTLIER_CFG, QI4)


def assert_same_result(a, b):
    assert a.pairs == b.pairs
    assert a.attack_surface == b.attack_surface
    assert a.per_original_match_count == b.per_original_match_count


class TestPreparedTargets:
    """attack() detects each dataset object's outliers once, through detect_outliers."""

    @pytest.mark.parametrize("restrict", [False, True], ids=["all-rows", "variant-outliers"])
    @pytest.mark.parametrize("subset", [None, ("age", "income"), ("home", "income")])
    def test_prepared_targets_give_the_same_pairs(self, restrict, subset):
        rng = np.random.default_rng(31)
        for _ in range(3):
            original, variant = random_instance(rng, 150, 220)
            kwargs = dict(qi_subset=subset, restrict_variant_outliers=restrict)
            first = attack(original, variant, OUTLIER_CFG, QI4, **kwargs)
            second = attack(original, variant, OUTLIER_CFG, QI4, **kwargs)
            fresh = attack(twin(original), twin(variant), OUTLIER_CFG, QI4, **kwargs)
            assert_same_result(second, fresh)
            assert_same_result(first, fresh)

    def test_identity_attack_with_prepared_targets_finds_pairs(self):
        original, _ = random_instance(np.random.default_rng(32), 150, 1)
        targets = detect_outliers(original, OUTLIER_CFG)
        result = attack(original, original, OUTLIER_CFG, QI4)
        assert len(targets) > 0
        assert detect_outliers(original, OUTLIER_CFG) is targets
        assert result.pairs == attack(twin(original), twin(original), OUTLIER_CFG, QI4).pairs
        assert {(p.original, p.synthetic) for p in result.pairs} >= {(i, i) for i in targets.flagged}

    def test_two_configs_on_one_dataset_equal_fresh_datasets(self):
        original, variant = random_instance(np.random.default_rng(33), 60, 60)
        other_cfg = OutlierConfig(k=2.5, attributes=("age", "income"))
        same_cfg = OutlierConfig(k=1.5, attributes=("age", "income"))  # equal to OUTLIER_CFG
        assert len(detect_outliers(original, other_cfg)) < len(detect_outliers(original, OUTLIER_CFG))
        for cfg in (OUTLIER_CFG, other_cfg, same_cfg, OUTLIER_CFG):
            assert detect_outliers(original, cfg) == detect_outliers(twin(original), cfg)
            for restrict in (False, True):
                kwargs = dict(restrict_variant_outliers=restrict)
                assert_same_result(
                    attack(original, variant, cfg, QI4, **kwargs),
                    attack(twin(original), twin(variant), cfg, QI4, **kwargs),
                )
        # an equal config is the same setting, so it reads the stored set
        assert detect_outliers(original, same_cfg) is detect_outliers(original, OUTLIER_CFG)


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

    def test_gauss_decisions_equal_scalar_at_exact_thresholds(self):
        # One target at income 0 against rows at gaps 1000..2000. Where
        # numpy's vectorized 2.0 ** x differs from the scalar comparator in
        # the last ulp, a threshold set to the scalar score of a gap must
        # still match that gap, and the next float above it must not.
        gaps = np.arange(1000.0, 2001.0)
        scalar = [gauss_similarity(0.0, g, 1000.0, 1000.0) for g in gaps.tolist()]
        vector = 2.0 ** (-(((gaps - 1000.0) / 1000.0) ** 2))
        picked = [
            j for j, (a, b) in enumerate(zip(vector.tolist(), scalar)) if a != b or j % 100 == 0
        ]
        n = len(gaps)
        original = make_ds([30.0] * 10, [0.0] + [5000.0] * 9, ["RENT"] * 10, ["MEDICAL"] * 10)
        variant = make_ds([30.0] * n, gaps, ["RENT"] * n, ["MEDICAL"] * n)
        outliers = OutlierConfig(k=2.0, attributes=("income",))
        for j in picked:
            t = scalar[j]
            for threshold in (t, float(np.nextafter(t, 1.0))):
                cfg = QIConfig(rules=(QIRule("income", GAUSS(1000.0, 1000.0), threshold),))
                result = attack(original, variant, outliers, cfg)
                assert result.attack_surface == (1, n)
                matched = {p.synthetic: p.scores["income"] for p in result.pairs}
                assert matched == {k: s for k, s in enumerate(scalar) if s >= threshold}
                assert (j in matched) == (threshold == t)

    @pytest.mark.parametrize(
        "offset, scale, threshold",
        [(0.0, 1e308, 0.1), (1e308, 1e308, 0.5), (1e308, 1e308, 0.01), (1e308, 0.5, 0.5)],
        ids=["scale-overflows", "sum-overflows", "both-overflow", "finite-near-max"],
    )
    def test_radius_beyond_the_largest_float_keeps_every_match(self, offset, scale, threshold):
        # offset + scale * sqrt(-log2 threshold) overflows to inf in the
        # first three cases, for finite comparator settings; every row,
        # 1e300 away or not, then scores close to 1 and matches.
        original = make_ds([30.0] * 10, [0.0] + [5.0] * 9, ["RENT"] * 10, ["MEDICAL"] * 10)
        variant = make_ds([30.0] * 4, [0.0, 1e300, -1e300, 1.0], ["RENT"] * 4, ["MEDICAL"] * 4)
        cfg = QIConfig(rules=(QIRule("income", GAUSS(offset, scale), threshold), QIRule("home", EXACT)))
        outliers = OutlierConfig(k=2.0, attributes=("income",))
        result = attack(original, variant, outliers, cfg)
        assert result.attack_surface == (1, 4)
        assert result == scalar_pipeline(original, variant, outliers, cfg, result)
        assert result.synthetic.tolist() == [0, 1, 2, 3]

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

    def test_windows_split_across_small_pair_budgets(self, monkeypatch):
        # Budgets of 1 and 7 pairs split windows across chunks, and a subset
        # without Gauss QIs takes every row as a window.
        rng = np.random.default_rng(24)
        for budget in (1, 7):
            monkeypatch.setattr(linkage, "PAIR_BUDGET", budget)
            for subset in (None, ("home", "intent")):
                original, variant = random_instance(rng, 30, 45)
                via_attack = attack(original, variant, OUTLIER_CFG, QI4, qi_subset=subset)
                cfg = QI4 if subset is None else QI4.subset(subset)
                targets = sorted(detect_outliers(original, OUTLIER_CFG).flagged)
                scored = score_pairs(product(targets, range(45)), original, variant, cfg)
                assert via_attack == filter_matches(scored, cfg, via_attack.attack_surface)

    def test_blocking_equivalence(self):
        # blocking is ignored, so a Gauss QI or a QI outside the subset changes nothing either
        rng = np.random.default_rng(5)
        for _ in range(8):
            original, variant = random_instance(rng, 40, 60)
            plain = attack(original, variant, OUTLIER_CFG, QI4)
            for blocking in ("home", "age"):
                assert attack(original, variant, OUTLIER_CFG, QI4, blocking=blocking) == plain
            subset = attack(original, variant, OUTLIER_CFG, QI4, qi_subset=("age", "income"))
            assert attack(original, variant, OUTLIER_CFG, QI4, qi_subset=("age", "income"), blocking="home") == subset

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

    @pytest.mark.parametrize("restrict", [False, True], ids=["all-rows", "variant-outliers"])
    def test_oracle_equivalence_wide_codes(self, restrict):
        # intent: 24 codes a side, so o code * width + v code passes 255.
        # Its names are I, IN or INT and two digits, so two names one digit
        # apart score 2/3, 3/4 or 0.8: only the INT names match each other.
        # home: 300 codes a side, in uint16, most rows in 8 shared homes.
        # Each side holds categories the other lacks.
        rng = np.random.default_rng(34)

        def side(n, homes, intents):
            age = np.where(rng.random(n) < 0.2, 90.0, 30.0) + rng.integers(0, 5, n)
            home = [f"H{i:03d}" for i in [*homes, *rng.integers(50, 58, n - len(homes))]]
            intent = [f"{('I', 'IN', 'INT')[i % 3]}{i:02d}" for i in rng.choice(intents, n)]
            return make_ds(age, np.zeros(n), home, intent)

        original = side(900, np.arange(300), np.arange(24))
        variant = side(1200, np.arange(50, 350), np.arange(6, 30))
        for ds in (original, variant):
            assert len(categories(ds, "intent")[0]) == 24
            assert categories(ds, "home")[1].dtype == np.uint16
        cfg = QIConfig(rules=(QIRule("home", EXACT), QIRule("intent", LEV, 0.8)))
        outliers = OutlierConfig(k=1.5, attributes=("age",))
        result = attack(original, variant, outliers, cfg, restrict_variant_outliers=restrict)
        ocols = {a.name: list(original.column(a.name)) for a in SCHEMA}
        vcols = {a.name: list(variant.column(a.name)) for a in SCHEMA}
        targets = outlier_targets(ocols, ("age",), 1.5, "any")
        rows = outlier_targets(vcols, ("age",), 1.5, "any") if restrict else None
        expected = oracle_matches(ocols, vcols, [("exact", "home", 1.0), ("lev", "intent", 0.8)], targets, rows)
        assert len(expected) > 20
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


ZIP_SCHEMA = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("income", Kind.NUMERICAL, Role.QI),
    AttributeSchema("zip", Kind.CATEGORICAL, Role.QI),
)


class TestJoinCost:
    """The window join scores what it nominates, and no more."""

    def test_levenshtein_scored_only_on_gauss_survivors(self, monkeypatch):
        # A link-like table: 400 ZIP codes, a selective income rule and
        # Levenshtein at 0.8. The variant copies the original with income
        # noise and one ZIP digit changed in a fifth of the rows.
        rng = np.random.default_rng(21)
        n = 3000
        zips = [f"{z:05d}" for z in rng.choice(100_000, 400, replace=False)]
        age = rng.normal(40, 10, n)
        income = rng.uniform(2e4, 2e5, n)
        zip_o = [zips[k] for k in rng.integers(0, len(zips), n)]
        zip_v = [z[:4] + str((int(z[4]) + 1) % 10) if rng.random() < 0.2 else z for z in zip_o]
        original = Dataset.from_columns(ZIP_SCHEMA, {"age": age, "income": income, "zip": zip_o})
        variant = Dataset.from_columns(
            ZIP_SCHEMA, {"age": age, "income": income + rng.uniform(-50, 50, n), "zip": zip_v}
        )
        cfg = QIConfig(rules=(QIRule("income", GAUSS(100.0, 100.0)), QIRule("zip", LEV, 0.8)))
        outliers = OutlierConfig(k=2.0, attributes=("age",))

        calls = []
        real = comparators.levenshtein_similarity
        monkeypatch.setattr(
            comparators, "levenshtein_similarity", lambda a, b: calls.append((a, b)) or real(a, b)
        )
        result = attack(original, variant, outliers, cfg)

        targets = np.array(sorted(detect_outliers(original, outliers).flagged))
        gap = np.abs(income[targets, None] - variant.columns["income"][None, :])
        gauss = 2.0 ** -((np.maximum(0.0, gap - 100.0) / 100.0) ** 2)
        ti, rj = np.nonzero(gauss >= 0.5 * (1 - 1e-6))  # looser than the engine's floor
        survivor_zips = {(zip_o[targets[i]], zip_v[j]) for i, j in zip(ti, rj)}
        assert len(result.pairs) > 0
        assert len(calls) <= len(survivor_zips)
        # at most once per distinct category pair
        assert len(calls) == len(set(calls))

    def test_memory_does_not_grow_with_targets_times_rows(self):
        # 300 targets against 60,000 rows with a selective income rule. A
        # dense block of 256 targets by V rows is 123 MB of float64 alone.
        rng = np.random.default_rng(22)
        n_orig, n_var = 1000, 60_000
        original = make_ds(
            [90.0] * 300 + [30.0] * 700,
            rng.uniform(0, 1e7, n_orig),
            ["RENT"] * n_orig,
            ["MEDICAL"] * n_orig,
        )
        variant = make_ds(
            rng.uniform(18, 90, n_var), rng.uniform(0, 1e7, n_var), ["RENT"] * n_var, ["MEDICAL"] * n_var
        )
        cfg = QIConfig(rules=(QIRule("income", GAUSS(100.0, 100.0)),))
        outliers = OutlierConfig(k=1.0, attributes=("age",))
        tracemalloc.start()
        try:
            result = attack(original, variant, outliers, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.attack_surface == (300, n_var)
        dense_block = 256 * n_var * 8
        assert peak < dense_block / 8, peak

    def test_memory_per_match_is_bounded(self):
        # 300 targets against 3,000 rows over 4 homes, an exact-only subset:
        # 225,000 matches. They stay columns (original, synthetic, one score
        # column) of 24 bytes a match, sorted once after the chunks are
        # dropped: about 47 bytes a match at the peak, and about 61 if the
        # chunks are kept through the sort.
        rng = np.random.default_rng(25)
        n_orig, n_var = 1000, 3000
        original = make_ds(
            [90.0] * 300 + [30.0] * 700,
            rng.uniform(0, 1e5, n_orig),
            [HOMES[i % 4] for i in range(n_orig)],
            ["MEDICAL"] * n_orig,
        )
        variant = make_ds(
            rng.uniform(18, 90, n_var),
            rng.uniform(0, 1e5, n_var),
            [HOMES[i % 4] for i in range(n_var)],
            ["MEDICAL"] * n_var,
        )
        cfg = QIConfig(rules=(QIRule("age", GAUSS(5.0, 5.0)), QIRule("home", EXACT)))
        outliers = OutlierConfig(k=1.0, attributes=("age",))
        tracemalloc.start()
        try:
            result = attack(original, variant, outliers, cfg, qi_subset=("home",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matches = len(result.original)
        assert result.attack_surface == (300, n_var)
        assert matches == 300 * n_var // 4 >= 200_000
        assert peak <= 56 * matches, f"{peak / matches:.1f} bytes per match"

    def test_chunk_working_set_per_budget_pair_is_bounded(self, caplog, monkeypatch):
        # 1,000 targets at age 90 against 2,000 rows over ages 0-100 whose income
        # is 1,000 x age. The age rule drives, its windows holding the rows
        # within 10 years of 90; the income rule, whose radius of 20,000 reaches
        # only rows below age 30, rejects every candidate. With no match kept,
        # the traced peak above the one at a budget of 256 pairs (the per-row
        # arrays) is one chunk's working set: its two position columns and a
        # Gauss rule's gaps and gathered values, about 34 bytes a budget pair;
        # about 39 when positions and gaps are built through temporaries and a
        # chunk is held while the next one is built.
        n_t, n_v = 1000, 2000
        ages = np.linspace(0.0, 100.0, n_v)
        n = 3 * n_t
        original = make_ds([90.0] * n_t + [30.0] * 2 * n_t, [10_000.0] * n, ["RENT"] * n, ["MEDICAL"] * n)
        variant = make_ds(ages, ages * 1000, ["RENT"] * n_v, ["MEDICAL"] * n_v)
        cfg = QIConfig(rules=(QIRule("age", GAUSS(5.0, 5.0)), QIRule("income", GAUSS(1e4, 1e4))))
        outliers = OutlierConfig(k=1.0, attributes=("age",))
        budget = linkage.PAIR_BUDGET
        with caplog.at_level(logging.DEBUG, logger="synthaudit.linkage"):
            result, peak = traced_peak(lambda: attack(original, variant, outliers, cfg))
        monkeypatch.setattr(linkage, "PAIR_BUDGET", 256)
        _, per_row = traced_peak(lambda: attack(original, variant, outliers, cfg))
        _, _, drivers, scored, matches = PLAN_LINE.fullmatch(caplog.records[-1].getMessage()).groups()
        assert result.attack_surface == (n_t, n_v) and (drivers, matches) == ("age (1)", "0")
        assert int(scored) >= 4 * budget
        assert peak - per_row < 36 * budget, f"{(peak - per_row) / budget:.1f} bytes a budget pair"

    @pytest.mark.parametrize("counts", [(4, 6), (40, 40, 3)], ids=["below-bound", "past-bound"])
    def test_keys_agree_iff_every_equality_column_does(self, counts):
        # 4 x 6 keys stay below 300 + 600; 40 x 40 passes it and is re-densified
        rng = np.random.default_rng(27)
        t, v = 300, 600
        columns = [(*(rng.integers(0, c, n).astype(np.uint8) for n in (t, v)), c) for c in counts]
        t_key, r_key = linkage._keys(columns, t, v)
        keys = np.concatenate([t_key, r_key])
        tuples = list(zip(*(np.concatenate(col[:2]).tolist() for col in columns)))
        assert keys.min() >= 0 and keys.max() < t + v
        assert len(set(zip(keys.tolist(), tuples))) == len(set(keys.tolist())) == len(set(tuples))

    def test_keys_sort_only_once_the_category_product_passes_targets_plus_rows(self):
        # home x grade, 4 x 6 categories, as on the bench ladder, each radix
        # one more than its count, as attack() passes it: the codes combine
        # as mixed-radix digits, about 9 bytes a target or row at the peak
        # (the key alone); about 56 when every column re-densifies through
        # a sort
        rng = np.random.default_rng(28)
        t, v = 300, 60_000
        columns = [(*(rng.integers(0, c, n).astype(np.uint8) for n in (t, v)), c + 1) for c in (4, 6)]
        (t_key, r_key), peak = traced_peak(lambda: linkage._keys(columns, t, v))
        assert len(np.unique(np.concatenate([t_key, r_key]))) == 24
        assert peak < 40 * (t + v), f"{peak / (t + v):.1f} bytes a target or row"

    def test_all_rows_attack_does_not_copy_variant_columns(self):
        # 3 targets against all of 100,000 rows, on 1 and on 3 Gauss QIs.
        # Each Gauss QI sorts the rows, 8 bytes a row, while the drivers are
        # chosen; a copy of its variant column would add 8 more.
        def peak_per_row(qis: int) -> float:
            names = [f"x{i}" for i in range(qis)]
            schema = tuple(AttributeSchema(name, Kind.NUMERICAL, Role.QI) for name in names)
            rng = np.random.default_rng(26)
            original = Dataset.from_columns(schema, {name: [1e6] * 3 + [0.0] * 30 for name in names})
            variant = Dataset.from_columns(schema, {name: rng.uniform(0, 1e5, n_v) for name in names})
            cfg = QIConfig(rules=tuple(QIRule(name, GAUSS(1.0, 1.0)) for name in names))
            outliers = OutlierConfig(k=1.0, attributes=(names[0],))
            result, peak = traced_peak(lambda: attack(original, variant, outliers, cfg))
            assert result.attack_surface == (3, n_v) and len(result.original) == 0
            return peak / n_v

        n_v = 100_000
        per_qi = (peak_per_row(3) - peak_per_row(1)) / 2
        assert per_qi < 12, f"{per_qi:.1f} bytes a row per Gauss QI"

    def test_a_rule_that_never_drives_holds_no_row_order(self, monkeypatch):
        # 3 targets at 50,000 against all of 100,000 rows spread over
        # 0..100,000 on two Gauss QIs: x0's windows hold a few rows, x1's
        # (radius 200,000) every row, so x0 drives every partition. While
        # candidates are decided, the attack holds what an attack on x0 alone
        # holds; x1's row order, 8 bytes a row, is gone.
        names = ["x0", "x1"]
        schema = tuple(AttributeSchema(name, Kind.NUMERICAL, Role.QI) for name in names)
        rng = np.random.default_rng(28)
        n_v = 100_000
        original = Dataset.from_columns(schema, {name: [5e4] * 3 + [0.0] * 30 for name in names})
        variant = Dataset.from_columns(schema, {name: rng.uniform(0, 1e5, n_v) for name in names})
        cfg = QIConfig(rules=(QIRule("x0", GAUSS(1.0, 1.0)), QIRule("x1", GAUSS(1e5, 1e5))))
        outliers = OutlierConfig(k=1.0, attributes=("x0",))
        held = []
        real = linkage._decide

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return real(*args)

        monkeypatch.setattr(linkage, "_decide", spy)

        def held_per_row(subset) -> float:
            held.clear()
            result, _ = traced_peak(lambda: attack(original, variant, outliers, cfg, qi_subset=subset))
            assert result.attack_surface == (3, n_v) and len(held) > 1  # one call per chunk, and one empty
            return max(held) / n_v

        both, alone = held_per_row(names), held_per_row(("x0",))
        assert abs(both - alone) < 2, f"{both:.1f} against {alone:.1f} bytes a row"

    def test_join_plan_logged_at_debug(self, caplog):
        original, variant = random_instance(np.random.default_rng(23), 40, 60)
        with caplog.at_level(logging.DEBUG, logger="synthaudit.linkage"):
            full = attack(original, variant, OUTLIER_CFG, QI4)
            equality = attack(original, variant, OUTLIER_CFG, QI4, qi_subset=("home", "intent"))
        first, second = [r.getMessage() for r in caplog.records]
        pattern = r"attack on (\S+): (\d+) partition\(s\), driver (.+); (\d+) candidates scored, (\d+) matches"
        names, parts, drivers, scored, matches = re.fullmatch(pattern, first).groups()
        assert names == "age,income,home,intent"
        assert 1 <= int(parts) <= len(HOMES) * len(INTENTS)
        assert re.fullmatch(r"((age|income|full range) \(\d+\)(, )?)+", drivers)
        assert int(matches) == len(full.pairs) <= int(scored)
        names, parts, drivers, scored, matches = re.fullmatch(pattern, second).groups()
        assert (names, drivers) == ("home,intent", f"full range ({parts})")
        assert int(matches) == len(equality.pairs) == int(scored)


def traced_peak(run):
    """run()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PLAN_LINE = re.compile(
    r"attack on (\S+): (\d+) partition\(s\), driver (.+); (\d+) candidates scored, (\d+) matches"
)


def scalar_pipeline(original, variant, outliers, cfg, result):
    """attack()'s result as pair-by-pair scoring of every target against every row."""
    targets = sorted(detect_outliers(original, outliers).flagged)
    scored = score_pairs(product(targets, range(variant.row_count)), original, variant, cfg)
    return filter_matches(scored, cfg, result.attack_surface)


def spy_on_candidates(monkeypatch) -> list[tuple[int, int]]:
    """Record every (target position, row) pair the join hands to the decision."""
    seen = []
    real = linkage._decide

    def spy(gauss, categorical, t_sel, r_sel):
        seen.extend(zip(t_sel.tolist(), r_sel.tolist()))
        return real(gauss, categorical, t_sel, r_sel)

    monkeypatch.setattr(linkage, "_decide", spy)
    return seen


class TestOneJoin:
    """One sort per Gauss rule joins every partition of an attack."""

    def test_rows_of_another_partition_are_never_nominated(self, monkeypatch, caplog):
        # Four age outliers, at incomes 10,000 apart. Every row sits within
        # the income radius (2,000) of some target, under every home, but
        # only rows of the target's own home and intent may be nominated.
        # OTHER has no rows and MORTGAGE no target.
        homes = ["RENT", "OWN", "OTHER", "RENT"]
        incomes = [50_000.0, 60_000.0, 70_000.0, 80_000.0]
        original = make_ds(
            [90.0] * 4 + [30.0] * 16, incomes + [0.0] * 16, homes + ["RENT"] * 16, ["MEDICAL"] * 20
        )
        gaps = (0, 500, 1500, 2000)
        cells = [(h, x + gap) for h in ("RENT", "OWN", "MORTGAGE") for x in incomes for gap in gaps]
        variant = make_ds(
            [90.0] * len(cells), [x for _, x in cells], [h for h, _ in cells], ["MEDICAL"] * len(cells)
        )
        outliers = OutlierConfig(k=1.0, attributes=("age",))
        cfg = QI4.subset(("income", "home", "intent"))
        seen = spy_on_candidates(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="synthaudit.linkage"):
            result = attack(original, variant, outliers, cfg)
        home_o, home_v = original.columns["home"], variant.columns["home"]
        # the targets are rows 0..3, so target positions are original indices
        assert seen and all(home_o[t] == home_v[j] for t, j in seen)
        assert sorted(seen) == [
            (t, j) for t in range(4) for j in range(len(cells))
            if home_o[t] == home_v[j] and abs(incomes[t] - cells[j][1]) <= 2000
        ]
        assert result == scalar_pipeline(original, variant, outliers, cfg, result)
        assert {p.original for p in result.pairs} == {0, 1, 3}
        assert caplog.records[-1].getMessage() == (
            "attack on income,home,intent: 2 partition(s), driver income (2); "
            "12 candidates scored, 12 matches"
        )

    @pytest.mark.parametrize("budget", [1, 7, None], ids=["budget-1", "budget-7", "default"])
    def test_tied_values_at_the_radius_edges(self, monkeypatch, caplog, budget):
        # Gauss(5, 5) at 0.5 scores exactly 0.5 at a gap of 10, and the
        # engine's padded radius R is a few billionths more. Four rows share
        # each age under each home: gaps of exactly 10 (a match), 11 (none),
        # and x ± R itself, which the windows hold but which cannot match.
        if budget is not None:
            monkeypatch.setattr(linkage, "PAIR_BUDGET", budget)
        target_ages = np.array([40.0, 40.0, 50.0, 45.0, 40.0])
        original = make_ds(
            [*target_ages, *[20.0] * 15],
            [1e6] * 5 + [0.0] * 15,
            ["RENT", "OWN", "RENT", "RENT", "OWN"] + ["RENT"] * 15,
            ["MEDICAL"] * 20,
        )
        cfg = QI4.subset(("age", "income", "home"))
        # no row exceeds 61, so the padding is the one the attack computes
        radius = linkage._GaussRule(cfg.rule("age"), target_ages, np.array([61.0])).radius
        assert 10 < radius < 10 + 1e-8
        edges = [x + d for x in (40.0, 45.0, 50.0) for d in (-radius, radius)]
        ages = [a for a in (29, 30, 31, 35, 40, 45, 50, 55, 59, 60, 61, *edges) for _ in range(4)]
        n = 2 * len(ages)
        variant = make_ds(ages * 2, [1e6] * n, ["RENT"] * len(ages) + ["OWN"] * len(ages), ["MEDICAL"] * n)
        outliers = OutlierConfig(k=1.0, attributes=("income",))
        with caplog.at_level(logging.DEBUG, logger="synthaudit.linkage"):
            result = attack(original, variant, outliers, cfg)
        assert sorted(detect_outliers(original, outliers).flagged) == [0, 1, 2, 3, 4]
        assert result == scalar_pipeline(original, variant, outliers, cfg, result)
        assert len([p for p in result.pairs if p.scores["age"] == 0.5]) == 4 * 2 * 5  # both edges
        home_o, home_v, age_v = original.columns["home"], variant.columns["home"], variant.columns["age"]
        in_window = sum(
            int(((age_v >= x - radius) & (age_v <= x + radius) & (home_v == h)).sum())
            for x, h in zip(target_ages, home_o)
        )
        plan = PLAN_LINE.fullmatch(caplog.records[-1].getMessage()).groups()
        assert plan[1:4] == ("2", "age (2)", str(in_window))

    @pytest.mark.parametrize(
        "subset",
        [None, ("age", "income", "home"), ("age", "home", "intent"), ("income",), ("home", "intent")],
    )
    def test_plan_line_equals_a_per_partition_recomputation(self, caplog, subset):
        # Ages are integers and incomes whole thousands, so a pair lies in a
        # radius window exactly when its gap is at most offset + scale.
        rng = np.random.default_rng(25)
        cfg = QI4 if subset is None else QI4.subset(subset)
        gauss = [r for r in cfg.rules if r.comparator.kind is ComparatorKind.GAUSS]
        equal = [r.name for r in cfg.rules if r.comparator.kind is not ComparatorKind.GAUSS]
        # a 20-row variant leaves few rows per partition, so whole partitions
        # lie within a radius and the full range drives beside a Gauss rule
        for n_rows in (300, 300, 20, 20):
            original, variant = random_instance(rng, 80, n_rows)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="synthaudit.linkage"):
                result = attack(original, variant, OUTLIER_CFG, cfg)
            line = caplog.records[-1].getMessage()
            names, parts, drivers, scored, matches = PLAN_LINE.fullmatch(line).groups()
            logged = [(name, int(n)) for name, n in re.findall(r"(\w[\w ]*?) \((\d+)\)", drivers)]

            def partitions(ds, rows):
                groups: dict[tuple, list[int]] = {}
                for i in rows:
                    groups.setdefault(tuple(ds.columns[n][i] for n in equal), []).append(i)
                return groups

            by_target = partitions(original, sorted(detect_outliers(original, OUTLIER_CFG).flagged))
            by_row = partitions(variant, range(variant.row_count))
            expected: dict[str, int] = {}
            candidates = 0
            for part in set(by_target) & set(by_row):
                t, j = np.array(by_target[part]), np.array(by_row[part])
                sizes = {"full range": len(t) * len(j)}
                for r in gauss:
                    gap = np.abs(original.columns[r.name][t, None] - variant.columns[r.name][None, j])
                    sizes[r.name] = int((gap <= r.comparator.offset + r.comparator.scale).sum())
                driver = min(sizes, key=sizes.get)  # ties go to the full range, then the earlier rule
                expected[driver] = expected.get(driver, 0) + 1
                candidates += sizes[driver]
            plan_order = ["full range", *(r.name for r in gauss)]
            assert names == ",".join(cfg.names())
            assert int(parts) == len(set(by_target) & set(by_row)) == sum(expected.values())
            assert logged == sorted(expected.items(), key=lambda item: plan_order.index(item[0]))
            assert int(scored) == candidates
            assert int(matches) == len(result.pairs)

    def test_gauss_scored_only_inside_every_radius(self, monkeypatch):
        # Whichever Gauss rule drives, the other's radius drops its pairs
        # before any scalar score; integer ages and whole-thousand incomes
        # lie in a radius exactly when they match.
        rng = np.random.default_rng(27)
        cfg = QI4.subset(("age", "income"))
        calls = []
        real = comparators.gauss_similarity
        monkeypatch.setattr(comparators, "gauss_similarity", lambda *a: calls.append(a) or real(*a))
        for _ in range(4):
            original, variant = random_instance(rng, 80, 300)
            calls.clear()
            result = attack(original, variant, OUTLIER_CFG, cfg)
            targets = sorted(detect_outliers(original, OUTLIER_CFG).flagged)
            def gap(name):
                return np.abs(original.columns[name][targets, None] - variant.columns[name][None, :])

            age, income = gap("age"), gap("income")
            inside = int(((age <= 10) & (income <= 2000)).sum())
            assert len(result.pairs) == inside > 0
            assert len(calls) == 2 * inside  # each rule scores each nominated pair once

    def test_exact_partitions_at_any_threshold(self, monkeypatch, caplog):
        # exact scores only 0 or 1, so at 0.5 or 0.3 it demands equality and
        # partitions the pair space instead of being scored pair by pair.
        rng = np.random.default_rng(26)
        rules = (QIRule("age", GAUSS(5.0, 5.0)), QIRule("home", EXACT, 0.5), QIRule("intent", EXACT, 0.3))
        cfg = QIConfig(rules=rules)
        calls = []
        real = comparators.exact_similarity
        monkeypatch.setattr(
            comparators, "exact_similarity", lambda a, b: calls.append((a, b)) or real(a, b)
        )
        for _ in range(5):
            original, variant = random_instance(rng, 40, 80)
            calls.clear()
            with caplog.at_level(logging.DEBUG, logger="synthaudit.linkage"):
                result = attack(original, variant, OUTLIER_CFG, cfg)
            assert calls == []
            assert int(PLAN_LINE.fullmatch(caplog.records[-1].getMessage()).group(2)) > 1
            assert result == scalar_pipeline(original, variant, OUTLIER_CFG, cfg, result)
            assert calls  # the scalar pipeline scores each pair
            assert all(p.scores["home"] == p.scores["intent"] == 1.0 for p in result.pairs)


def reference_pair_file(result, names) -> str:
    """The pair file formatted one pair at a time."""
    lines = [",".join(["original_index", "synthetic_index"] + [f"score_{n}" for n in names])]
    for p in result.pairs:
        lines.append(
            ",".join([str(p.original), str(p.synthetic)] + [f"{p.scores[n]:.6f}" for n in names])
        )
    return "\n".join(lines) + "\n"


def test_save_matches_format(tmp_path):
    original = make_ds([54], [170000], ["MORTGAGE"], ["PERSONAL"])
    variant = make_ds([54], [170262], ["MORTGAGE"], ["PERSONAL"])
    result = filter_matches(
        score_pairs([(0, 0)], original, variant, QI4), QI4, attack_surface=(1, 1)
    )
    path = tmp_path / "pairs.csv"
    save_matches(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "original_index,synthetic_index,score_age,score_income,score_home,score_intent"
    assert lines[1] == "0,0,1.000000,1.000000,1.000000,1.000000"

    # 3 targets against 300 rows: 900 matches span several blocks of
    # BLOCK_ROWS. home is an equality QI scoring 1.0; the income scores'
    # 7th digits vary, so some of them round up at the 6th.
    rng = np.random.default_rng(27)
    ages, homes = [90.0] * 3 + [30.0] * 17, ["RENT"] * 20
    original = make_ds(ages, rng.uniform(0, 1e4, 20), homes, ["MEDICAL"] * 20)
    variant = make_ds([30.0] * 300, rng.uniform(0, 1e4, 300), ["RENT"] * 300, ["VENTURE"] * 300)
    cfg = QIConfig(rules=(QIRule("income", GAUSS(0.0, 1e4), 0.01), QIRule("home", EXACT)))
    outliers = OutlierConfig(k=1.0, attributes=("age",))
    result = attack(original, variant, outliers, cfg)
    assert len(result.original) == 900 > 3 * BLOCK_ROWS
    income = result.scores["income"]
    assert np.any(np.round(income, 6) > np.floor(income * 1e6) / 1e6)
    assert result.scores["home"].tolist() == [1.0] * 900
    save_matches(result, path)
    expected = reference_pair_file(result, cfg.names())
    assert path.read_bytes() == expected.encode()
    targets = sorted(detect_outliers(original, outliers).flagged)
    scalar = filter_matches(score_pairs(product(targets, range(300)), original, variant, cfg), cfg)
    save_matches(scalar, path)
    assert path.read_bytes() == expected.encode()

    # no targets: only the header, naming every QI
    none_found = OutlierConfig(k=10.0, attributes=("age",))
    none = attack(original, variant, none_found, QI4, qi_subset=("age", "home"))
    assert none.attack_surface == (0, 300)
    save_matches(none, path)
    assert path.read_bytes() == b"original_index,synthetic_index,score_age,score_home\n"


def test_constant_score_columns_keep_their_bytes(tmp_path):
    # each distinct score is formatted once; -0.0 == 0.0, but each is
    # written with its own sign
    n = BLOCK_ROWS + 2
    scores = {
        "one": np.ones(n),
        "negative_zero": np.full(n, -0.0),
        "both_zeros": np.where(np.arange(n) % 3, 0.0, -0.0),
        "varied": np.linspace(0.5, 1.0, n),
    }
    result = linkage.LinkageResult(np.zeros(n, np.int64), np.arange(n), scores, (1, n))
    save_matches(result, tmp_path / "pairs.csv")
    expected = reference_pair_file(result, list(scores))
    assert "-0.000000,0.000000" in expected
    assert (tmp_path / "pairs.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("widest", [0, 9, 10])
def test_index_columns_keep_their_bytes(tmp_path, widest):
    # indices of one digit, or of one and two digits in one block, over a
    # block boundary
    rng = np.random.default_rng(widest)
    n = BLOCK_ROWS + 1
    original = np.sort(rng.integers(0, widest + 1, n))
    synthetic = np.append(rng.integers(0, widest + 1, n - 1), widest)
    scores = {"s": rng.random(n)}
    result = linkage.LinkageResult(original, synthetic, scores, (widest + 1, widest + 1))
    save_matches(result, tmp_path / "pairs.csv")
    assert (tmp_path / "pairs.csv").read_bytes() == reference_pair_file(result, ["s"]).encode()


def test_result_values_are_python_scalars_and_read_only():
    original, _ = random_instance(np.random.default_rng(23), 40, 40)
    via_attack = attack(original, original, OUTLIER_CFG, QI4)
    assert via_attack.unique_match_count > 0
    for result in (via_attack, scalar_pipeline(original, original, OUTLIER_CFG, QI4, via_attack)):
        for p in result.pairs:
            assert type(p.original) is int and type(p.synthetic) is int
            assert all(type(s) is float for s in p.scores.values())
        counts = result.per_original_match_count
        assert all(type(k) is int and type(c) is int for k, c in counts.items())
        assert type(result.unique_match_count) is int
        json.dumps(audit._linkage_summary(result))  # no numpy scalar reaches the report
        for column in (result.original, result.synthetic, *result.scores.values()):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


def test_result_equality_compares_columns_without_building_pairs(monkeypatch):
    def result(synthetic=(1, 2, 0), age=(0.5, 0.0, 1.0), surface=(2, 5), names=("age", "home")):
        columns = {"age": np.array(age), "home": np.ones(3)}
        scores = {n: columns[n] for n in names}
        return linkage.LinkageResult(np.array([0, 0, 3]), np.array(synthetic), scores, surface)

    base = result()
    equal = [result(names=("home", "age")), result(age=(0.5, -0.0, 1.0))]
    unequal = [
        result(synthetic=(1, 2, 1)),
        result(age=(0.5, 0.0, 0.75)),
        result(surface=(2, 6)),
        result(names=("age",)),
        linkage.LinkageResult(
            np.array([0, 0]), np.array([1, 2]), {"age": np.array([0.5, 0.0]), "home": np.ones(2)}, (2, 5)
        ),
    ]
    # the meaning is that of comparing the pairs: 0.0 == -0.0, and score names in any order
    for other in equal + unequal:
        assert (base == other) is ((base.pairs, base.attack_surface) == (other.pairs, other.attack_surface))
    monkeypatch.setattr(linkage.LinkageResult, "pairs", property(lambda self: pytest.fail("pairs built")))
    assert all(base == other and other == base for other in equal)
    assert not any(base == other or other == base for other in unequal)
    assert base != (base.original, base.synthetic)


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
    with pytest.raises(ConfigError, match=r"^no QI rule for 'nope'$"):
        cfg.rule("nope")
    no_qi = Dataset.from_columns((AttributeSchema("age", Kind.NUMERICAL),), {"age": [30.0]})
    with pytest.raises(ConfigError, match="^schema used for linkage declares no QI attribute$"):
        QIConfig(rules=(QIRule("age", GAUSS(5.0, 5.0)),)).validate_against(no_qi)
