from __future__ import annotations

import statistics
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synthaudit import (
    AttributeSchema,
    DataError,
    Dataset,
    Kind,
    Role,
    attribute_coverage,
    boundary_adherence,
    category_coverage,
    compute_utility,
    range_coverage,
    statistic_similarity,
    synthesize,
)
from synthaudit.utility import METRIC_NAMES, _median, _middle, utility_reference

from test_dataset import twin

arr = np.asarray


class TestBoundaryAdherence:
    def test_identity(self):
        col = arr([3.0, 7.0, 9.0])
        assert boundary_adherence(col, col) == 1.0

    def test_half_inside(self):
        real = arr([20.0, 80.0])
        assert boundary_adherence(real, arr([10.0, 50.0, 90.0, 30.0])) == 0.5

    def test_all_below(self):
        assert boundary_adherence(arr([20.0, 80.0]), arr([1.0, 5.0])) == 0.0

    def test_empty_synth_rejected(self):
        with pytest.raises(DataError):
            boundary_adherence(arr([1.0]), arr([]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        real = rng.normal(0, 1, 30)
        synth = rng.normal(0, 2, 40)
        base = boundary_adherence(real, synth)
        assert boundary_adherence(rng.permutation(real), rng.permutation(synth)) == base


class TestCategoryCoverage:
    def test_identity(self):
        col = arr(["A", "B", "A"], dtype=object)
        assert category_coverage(col, col) == 1.0

    def test_half_covered(self):
        real = arr(["A", "B", "C", "D"], dtype=object)
        synth = arr(["A", "B", "B"], dtype=object)
        assert category_coverage(real, synth) == 0.5

    def test_disjoint(self):
        assert category_coverage(arr(["A"], dtype=object), arr(["Z"], dtype=object)) == 0.0

    def test_extra_synth_categories_do_not_help(self):
        real = arr(["A", "B"], dtype=object)
        synth = arr(["A", "B", "C", "D"], dtype=object)
        assert category_coverage(real, synth) == 1.0


class TestRangeCoverage:
    def test_superset_range(self):
        assert range_coverage(arr([10.0, 20.0]), arr([5.0, 25.0])) == 1.0

    def test_lower_deficit(self):
        assert range_coverage(arr([0.0, 100.0]), arr([25.0, 100.0])) == pytest.approx(0.75, abs=1e-12)

    def test_both_deficits(self):
        assert range_coverage(arr([0.0, 100.0]), arr([60.0, 70.0])) == pytest.approx(0.1, abs=1e-12)

    def test_clipped_at_zero(self):
        assert range_coverage(arr([0.0, 100.0]), arr([200.0, 300.0])) == 0.0

    def test_constant_real_column(self):
        assert range_coverage(arr([5.0, 5.0]), arr([1.0, 5.0])) == 1.0
        assert range_coverage(arr([5.0, 5.0]), arr([1.0, 2.0])) == 0.0

    def test_widening_synth_range_is_monotone(self):
        real = arr([0.0, 100.0])
        scores = [
            range_coverage(real, arr([lo, hi]))
            for lo, hi in [(45.0, 55.0), (30.0, 60.0), (10.0, 90.0), (0.0, 100.0), (-5.0, 120.0)]
        ]
        assert all(a <= b for a, b in zip(scores, scores[1:]))


class TestStatisticSimilarity:
    def test_identity(self):
        col = arr([1.0, 2.0, 9.0])
        assert statistic_similarity(col, col) == 1.0

    def test_median_shift(self):
        real = arr([0.0, 50.0, 100.0])
        synth = arr([0.0, 40.0, 100.0])
        assert statistic_similarity(real, synth) == pytest.approx(0.9, abs=1e-12)

    def test_clipped_when_displaced_beyond_range(self):
        real = arr([0.0, 50.0, 100.0])
        assert statistic_similarity(real, arr([500.0, 600.0, 700.0])) == 0.0

    def test_constant_real_column(self):
        assert statistic_similarity(arr([5.0, 5.0]), arr([5.0, 5.0])) == 1.0
        assert statistic_similarity(arr([5.0, 5.0]), arr([6.0])) == 0.0

    def test_empty_synth_rejected(self):
        with pytest.raises(DataError, match="statistic_similarity needs a non-empty synthetic column"):
            statistic_similarity(arr([1.0, 2.0]), arr([], dtype=float))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# finite float64 values of every magnitude from 1e-300 to 1e300, both zeros
# and subnormals; each list repeats some of them, so duplicates are common
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]),
    st.floats(-1e300, 1e300, allow_nan=False),
)


@st.composite
def float_lists(draw):
    pool = draw(st.lists(MAGNITUDES, min_size=1, max_size=40))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(values=float_lists())
@example(values=[0.0, -0.0, 1.0])
@example(values=[-0.0, 0.0, -0.0])
@example(values=[-0.0, 0.0])
@example(values=[-0.0, -0.0])
@example(values=[1e300, 1e300, -1e300, 1e-300])
def test_medians_equal_numpy_and_statistics_bit_for_bit(values):
    col = np.array(values, dtype=np.float64)
    assert bits(_median(col)) == bits(float(np.median(col)))
    assert bits(_middle(sorted(values))) == bits(float(statistics.median(values)))


def test_attribute_coverage_dispatch():
    real_num, synth_num = arr([0.0, 100.0]), arr([25.0, 100.0])
    assert attribute_coverage(real_num, synth_num, Kind.NUMERICAL) == pytest.approx(0.75)
    real_cat = arr(["A", "B", "C", "D"], dtype=object)
    synth_cat = arr(["A", "B"], dtype=object)
    assert attribute_coverage(real_cat, synth_cat, Kind.CATEGORICAL) == 0.5


@given(
    real=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30).filter(
        lambda v: max(v) > min(v)
    ),
    synth=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
)
def test_numeric_metrics_stay_in_unit_interval(real, synth):
    r, s = arr(real), arr(synth)
    assert 0.0 <= boundary_adherence(r, s) <= 1.0
    assert 0.0 <= range_coverage(r, s) <= 1.0
    assert 0.0 <= statistic_similarity(r, s) <= 1.0


@pytest.mark.parametrize(
    "synth, coverage, similarity",
    [([-1e307, 5.0, 1e308], 0.55, 1.0), ([1e308, 1e308, 1e308], 0.0, 0.5)],
    ids=["partial-range", "top-only"],
)
def test_a_real_span_that_overflows_a_float_still_scores(synth, coverage, similarity):
    # max - min of the real column is inf, so dividing by it scored every variant 1.0
    schema = (AttributeSchema("x", Kind.NUMERICAL),)
    real = Dataset.from_columns(schema, {"x": [-1e308, 0.0, 1e308]})
    scores = compute_utility(real, Dataset.from_columns(schema, {"x": synth})).per_attribute["x"]
    assert scores["RangeCoverage"] == pytest.approx(coverage, abs=1e-12)
    assert scores["StatisticSimilarity"] == pytest.approx(similarity, abs=1e-12)
    assert scores["RangeCoverage"] == range_coverage(real.columns["x"], arr(synth))
    assert scores["StatisticSimilarity"] == statistic_similarity(real.columns["x"], arr(synth))


class TestComputeUtility:
    def test_identity_scores_one_everywhere(self, toy_dataset):
        report = compute_utility(toy_dataset, toy_dataset)
        for scores in report.per_attribute.values():
            assert all(v == 1.0 for v in scores.values())
        for agg in report.aggregate.values():
            assert agg["mean"] == 1.0
            assert agg["median"] == 1.0

    def test_metric_applicability(self, toy_dataset):
        report = compute_utility(toy_dataset, toy_dataset)
        numeric = report.per_attribute["age"]
        categorical = report.per_attribute["home"]
        assert {"BoundaryAdherence", "RangeCoverage", "StatisticSimilarity", "AttributeCoverage"} == set(numeric)
        assert {"CategoryCoverage", "AttributeCoverage"} == set(categorical)

    def test_aggregate_is_mean_over_applicable_attributes(self, toy_schema, toy_dataset):
        synth = Dataset.from_columns(
            toy_schema,
            {
                "age": [25, 30, 35, 40, 90],
                "income": [30000, 35000, 40000, 45000, 500000],
                "home": ["RENT", "RENT", "RENT", "RENT", "RENT"],  # 1 of 3 categories
                "intent": ["PERSONAL", "MEDICAL", "PERSONAL", "VENTURE", "PERSONAL"],
                "amount": [1000, 2000, 1500, 3000, 25000],
            },
        )
        report = compute_utility(toy_dataset, synth)
        scores = [report.per_attribute[a]["CategoryCoverage"] for a in ("home", "intent")]
        assert report.aggregate["CategoryCoverage"]["mean"] == pytest.approx(sum(scores) / 2)

    def test_schema_mismatch_rejected(self, toy_dataset):
        other = Dataset.from_columns(
            (AttributeSchema("age", Kind.NUMERICAL, Role.QI),), {"age": [1.0]}
        )
        with pytest.raises(DataError):
            compute_utility(toy_dataset, other)

    def test_permuted_synthetic_still_scores_one(self, toy_schema, toy_dataset):
        perm = [4, 2, 0, 3, 1]
        synth = Dataset.from_columns(
            toy_schema,
            {name: [toy_dataset.column(name)[i] for i in perm] for name in toy_dataset.columns},
        )
        report = compute_utility(toy_dataset, synth)
        for scores in report.per_attribute.values():
            assert all(v == 1.0 for v in scores.values())


SCHEMA_EDGES = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("flat", Kind.NUMERICAL),
    AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
    AttributeSchema("only", Kind.CATEGORICAL),
)


def edge_real(n=200, seed=2):
    rng = np.random.default_rng(seed)
    return Dataset.from_columns(
        SCHEMA_EDGES,
        {
            "age": rng.integers(18, 90, n).astype(float),
            "flat": [3.0] * n,
            "home": [["RENT", "OWN", "MORTGAGE"][i] for i in rng.integers(0, 3, n)],
            "only": ["X"] * n,
        },
    )


def edge_synths(real):
    yield real
    for epsilon, n, seed in [(0.05, 30, 1), (1.0, 200, 2), (100.0, 5, 3), (0.01, 1, 4)]:
        yield synthesize(real, epsilon, n, num_bins=8, seed=seed)
    yield Dataset.from_columns(
        SCHEMA_EDGES,
        {"age": [500.0, -3.0], "flat": [2.0, 4.0], "home": ["BOAT", "RENT"], "only": ["Y", "Z"]},
    )


class TestUtilityReference:
    """compute_utility() reduces each real dataset object once."""

    def test_prepared_reference_gives_the_same_report(self):
        real = edge_real()
        for synth in edge_synths(real):
            first = compute_utility(real, synth).to_dict()
            second = compute_utility(real, synth).to_dict()
            assert second == compute_utility(twin(real), synth).to_dict()
            assert first == second

    def test_report_scores_equal_the_public_metric_functions(self):
        real = edge_real()
        utility_reference(real)
        for synth in edge_synths(real):
            report = compute_utility(real, synth)
            for attr in SCHEMA_EDGES:
                r, s = real.column(attr.name), synth.column(attr.name)
                if attr.kind is Kind.NUMERICAL:
                    expected = {
                        "BoundaryAdherence": boundary_adherence(r, s),
                        "RangeCoverage": range_coverage(r, s),
                        "StatisticSimilarity": statistic_similarity(r, s),
                    }
                else:
                    expected = {"CategoryCoverage": category_coverage(r, s)}
                expected["AttributeCoverage"] = attribute_coverage(r, s, attr.kind)
                assert report.per_attribute[attr.name] == expected
            assert set(report.aggregate) == set(METRIC_NAMES)

    def test_reference_reduces_each_real_column(self):
        real = edge_real()
        columns = utility_reference(real)
        assert utility_reference(real) is columns
        age = real.column("age")
        assert columns["age"].tolist() == [age.min(), float(np.median(age)), age.max()]
        assert columns["flat"].tolist() == [3.0, 3.0, 3.0]
        assert sorted(columns["home"].tolist()) == ["MORTGAGE", "OWN", "RENT"]
        assert columns["only"].tolist() == ["X"]

    def test_empty_datasets_raise_data_errors(self):
        real = edge_real()
        empty = Dataset.from_columns(SCHEMA_EDGES, {a.name: [] for a in SCHEMA_EDGES})
        utility_reference(real)
        with pytest.raises(DataError, match="non-empty synthetic column"):
            compute_utility(real, empty)
        for _ in range(2):  # the empty reference is stored; each metric raises on every call
            with pytest.raises(DataError, match="boundary_adherence needs a non-empty real column"):
                compute_utility(empty, real)
        cat_first = tuple(reversed(SCHEMA_EDGES))
        with pytest.raises(DataError, match="at least one real category"):
            compute_utility(
                Dataset.from_columns(cat_first, {a.name: [] for a in cat_first}),
                Dataset.from_columns(cat_first, {a.name: real.column(a.name) for a in cat_first}),
            )
