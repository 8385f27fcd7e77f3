from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synthaudit import (
    ComparatorKind,
    ComparatorSpec,
    ConfigError,
    exact_similarity,
    gauss_similarity,
    levenshtein_similarity,
)
from synthaudit.comparators import levenshtein_distance


class TestGauss:
    def test_identity_is_one(self):
        assert gauss_similarity(54.0, 54.0, 5.0, 5.0) == 1.0
        assert gauss_similarity(-3.2, -3.2, 0.0, 1.0) == 1.0

    def test_within_offset_is_one(self):
        # incomes 170000 vs 170262 agree under offset 1000
        assert gauss_similarity(170000.0, 170262.0, 1000.0, 1000.0) == 1.0

    @pytest.mark.parametrize("offset,scale", [(5.0, 5.0), (1000.0, 1000.0), (0.0, 2.0)])
    def test_half_exactly_at_offset_plus_scale(self, offset, scale):
        assert gauss_similarity(0.0, offset + scale, offset, scale) == pytest.approx(0.5, abs=1e-12)

    def test_known_decay_value(self):
        # d = 3000, surplus = 2000, scale = 1000 -> 2^-4
        assert gauss_similarity(170000.0, 173000.0, 1000.0, 1000.0) == pytest.approx(0.0625, abs=1e-15)

    def test_strictly_decreasing_beyond_offset(self):
        scores = [gauss_similarity(0.0, d, 2.0, 3.0) for d in (2.0, 2.5, 4.0, 5.0, 9.0, 20.0)]
        assert scores[0] == 1.0
        assert all(a > b for a, b in zip(scores, scores[1:]))

    @given(
        x=st.floats(-1e6, 1e6),
        y=st.floats(-1e6, 1e6),
        offset=st.floats(0, 100),
        scale=st.floats(0.1, 100),
    )
    def test_symmetric_and_bounded(self, x, y, offset, scale):
        s = gauss_similarity(x, y, offset, scale)
        assert s == gauss_similarity(y, x, offset, scale)
        # mathematically in (0, 1]; huge distances underflow to exactly 0.0
        assert 0.0 <= s <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = float(rng.uniform(0, 50))
            scale = float(rng.uniform(0.5, 20))
            factor = float(rng.uniform(0.1, 10))
            base = gauss_similarity(0.0, d, 0.0, scale)
            scaled = gauss_similarity(0.0, d * factor, 0.0, scale * factor)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            gauss_similarity(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            gauss_similarity(0.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize(
        "offset, scale", [(math.nan, 5.0), (math.inf, 5.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_parameters_rejected(self, offset, scale):
        # unchecked, each would score a full match, 1.0, for values 100 apart
        with pytest.raises(ConfigError, match="finite"):
            gauss_similarity(0.0, 100.0, offset, scale)


class TestLevenshtein:
    def test_examples(self):
        assert levenshtein_similarity("MORTGAGE", "MORTGAGE") == 1.0
        assert levenshtein_similarity("RENT", "RENT ") == pytest.approx(0.8)
        assert levenshtein_similarity("", "A") == 0.0
        assert levenshtein_similarity("", "") == 1.0

    def test_unit_cost_distance(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("abc", "") == 3
        assert levenshtein_distance("ab", "ba") == 2  # no transposition shortcut

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetry_bounds_and_equality_characterization(self, a, b):
        s = levenshtein_similarity(a, b)
        assert s == levenshtein_similarity(b, a)
        assert 0.0 <= s <= 1.0
        assert (s == 1.0) == (a == b)

    @given(st.text(max_size=8), st.text(max_size=8))
    def test_threshold_one_equals_exact(self, a, b):
        assert (levenshtein_similarity(a, b) >= 1.0) == (exact_similarity(a, b) == 1.0)


class TestExact:
    def test_trivia(self):
        assert exact_similarity("A", "A") == 1.0
        assert exact_similarity("A", "a") == 0.0
        assert exact_similarity("", "") == 1.0


class TestComparatorSpec:
    def test_gauss_requires_parameters(self):
        with pytest.raises(ConfigError):
            ComparatorSpec(ComparatorKind.GAUSS)
        with pytest.raises(ConfigError):
            ComparatorSpec(ComparatorKind.GAUSS, offset=1.0, scale=0.0)
        with pytest.raises(ConfigError):
            ComparatorSpec(ComparatorKind.GAUSS, offset=-1.0, scale=1.0)

    @pytest.mark.parametrize(
        "offset, scale, shown",
        [
            (float("nan"), 5.0, "offset nan and scale 5.0"),
            (float("inf"), 5.0, "offset inf and scale 5.0"),
            (5.0, float("inf"), "offset 5.0 and scale inf"),
        ],
        ids=["nan-offset", "inf-offset", "inf-scale"],
    )
    def test_gauss_requires_finite_parameters(self, offset, scale, shown):
        # a nan offset made the join radius nan, so attack() found no pair the scalar score accepts
        with pytest.raises(ConfigError) as caught:
            ComparatorSpec(ComparatorKind.GAUSS, offset=offset, scale=scale)
        assert str(caught.value) == f"gauss comparator requires a finite offset and scale, got {shown}"

    def test_gauss_accepts_large_finite_parameters(self):
        spec = ComparatorSpec(ComparatorKind.GAUSS, offset=1e308, scale=1e308)
        assert spec.score(-1e307, 1e307) == 1.0

    def test_string_comparators_take_no_parameters(self):
        with pytest.raises(ConfigError):
            ComparatorSpec(ComparatorKind.LEVENSHTEIN, offset=1.0)
        with pytest.raises(ConfigError):
            ComparatorSpec(ComparatorKind.EXACT, scale=2.0)

    def test_dispatch(self):
        gauss = ComparatorSpec(ComparatorKind.GAUSS, offset=5.0, scale=5.0)
        assert gauss.score(54, 54) == 1.0
        lev = ComparatorSpec(ComparatorKind.LEVENSHTEIN)
        assert lev.score("RENT", "RENT ") == pytest.approx(0.8)
        exact = ComparatorSpec(ComparatorKind.EXACT)
        assert exact.score("A", "a") == 0.0
