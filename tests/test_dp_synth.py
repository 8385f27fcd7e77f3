from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest

from synthaudit import (
    AttributeSchema,
    ConfigError,
    DataError,
    Dataset,
    Kind,
    NoisyHistogram,
    Role,
    boundary_adherence,
    build_noisy_histogram,
    save_dataset,
    synthesize,
)
from synthaudit.dp_synth import (
    _laplace_noise,
    _normalize,
    _sample_from_histogram,
    count_marginals,
    generator_metadata,
)

from test_dataset import twin


def rng_of(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def cat_ds(values):
    return Dataset.from_columns(
        (AttributeSchema("c", Kind.CATEGORICAL, Role.QI),), {"c": values}
    )


def num_ds(values):
    return Dataset.from_columns(
        (AttributeSchema("x", Kind.NUMERICAL, Role.QI),), {"x": values}
    )


class TestLaplaceNoise:
    def test_deterministic_given_seed(self):
        a = _laplace_noise(rng_of(42), 2.0, 1000)
        b = _laplace_noise(rng_of(42), 2.0, 1000)
        assert np.array_equal(a, b)

    def test_center_and_spread(self):
        draws = _laplace_noise(rng_of(7), 3.0, 200_000)
        assert abs(np.median(draws)) < 0.05
        # Laplace(0, b) has mean absolute deviation b
        assert np.mean(np.abs(draws)) == pytest.approx(3.0, rel=0.02)

    def test_all_draws_finite(self):
        assert np.all(np.isfinite(_laplace_noise(rng_of(1), 100.0, 100_000)))

    def test_equals_a_scalar_libm_reference_bit_for_bit(self):
        # numpy's vectorised log1p may differ from libm's in the last bit,
        # and by CPU; the noise, and so every synthetic table, must not
        n, scale = 100_000, 2.5
        raw = rng_of(11).bit_generator.random_raw(n).tolist()
        want = []
        for r in raw:
            centered = ((r >> 11) + 0.5) * 2.0**-53 - 0.5
            want.append(-scale * math.copysign(1.0, centered) * math.log1p(-2.0 * abs(centered)))
        assert _laplace_noise(rng_of(11), scale, n).tobytes() == np.array(want).tobytes()


def test_sampled_values_keep_their_bits():
    # The uniforms come from the raw PCG64 stream, which numpy keeps stable
    # across versions, and equal Generator.random's today: the bin picks,
    # then the places in the bins. A change to either moves these bits.
    hist = NoisyHistogram("x", Kind.NUMERICAL, np.array([0.0, 1.0, 2.5, 4.0]), np.ones(3), np.array([0.2, 0.3, 0.5]))
    rng = rng_of(7)
    values = _sample_from_histogram(hist, 4, rng)
    want = ["0x1.79a1c5f2caa98p+1", "0x1.e7b8e62176bbap+1", "0x1.4102ccdd2f394p+1", "0x1.1dad04eb9ff58p+1"]
    assert [v.hex() for v in values.tolist()] == want
    reference = rng_of(7)
    reference.random(8)
    assert rng.random(3).tobytes() == reference.random(3).tobytes()  # the stream is left where random() leaves it


class TestBudget:
    def test_equal_split_accounts_for_total(self):
        # the split the report records; TestPreparedMarginals checks that
        # synthesize noises every attribute at the same epsilon / m
        for m in (1, 2, 3, 7, 12):
            schema = tuple(AttributeSchema(f"a{i}", Kind.NUMERICAL, Role.QI) for i in range(m))
            eps_a = generator_metadata(schema, 1.3, 10, 8, 0)["per_attribute_epsilon"]
            assert eps_a == 1.3 / m
            assert eps_a * m == pytest.approx(1.3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError, match="epsilon must be positive and finite, got 0.0"):
            synthesize(mixed_ds(n=20), epsilon=0.0, n=5)
        with pytest.raises(ConfigError, match="epsilon must be positive and finite, got -1.0"):
            synthesize(mixed_ds(n=20), epsilon=-1.0, n=5)
        with pytest.raises(ConfigError, match="at least one attribute"):  # so epsilon / m is defined
            Dataset.from_columns((), {})

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            synthesize(mixed_ds(n=20), epsilon=epsilon, n=5)
        with pytest.raises(ConfigError, match="per-attribute epsilon must be positive and finite"):
            build_noisy_histogram(mixed_ds(n=20), "age", epsilon)


class TestNormalize:
    def test_clamp_then_normalize(self):
        # counts (10, 0) noised to (10, -5): clamp to (10, 0) -> (1, 0)
        probs = _normalize(np.array([10.0, -5.0]))
        assert list(probs) == [1.0, 0.0]

    def test_all_nonpositive_falls_back_to_uniform(self):
        probs = _normalize(np.array([-3.0, -1.0, 0.0]))
        assert list(probs) == pytest.approx([1 / 3] * 3)


class TestBuildNoisyHistogram:
    def test_zero_noise_limit_matches_empirical_frequencies(self):
        ds = cat_ds(["A"] * 7 + ["B"] * 3)
        hist = build_noisy_histogram(ds, "c", eps_a=1e9, rng=rng_of(3))
        assert hist.bins == ("A", "B")
        assert hist.probabilities == pytest.approx([0.7, 0.3], abs=1e-6)

    def test_single_category_probability_one(self):
        hist = build_noisy_histogram(cat_ds(["X"] * 5), "c", eps_a=0.5, rng=rng_of(1))
        assert hist.bins == ("X",)
        assert list(hist.probabilities) == [1.0]

    def test_constant_numeric_column_single_bin(self):
        hist = build_noisy_histogram(num_ds([4.0] * 9), "x", eps_a=1.0, num_bins=32, rng=rng_of(2))
        assert len(hist.probabilities) == 1
        assert hist.bins == (4.0, 4.0)
        assert list(hist.probabilities) == [1.0]

    def test_numeric_equal_width_bins(self):
        ds = num_ds([0.0, 1.0, 2.0, 3.0, 10.0])
        hist = build_noisy_histogram(ds, "x", eps_a=1e9, num_bins=5, rng=rng_of(4))
        edges = np.asarray(hist.bins)
        assert len(edges) == 6
        widths = np.diff(edges)
        assert np.allclose(widths, widths[0])
        assert edges[0] == 0.0 and edges[-1] == 10.0
        assert np.all(np.diff(edges) > 0)

    @pytest.mark.parametrize("eps", [0.01, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probabilities_always_form_distribution(self, eps, seed):
        ds = cat_ds(["A", "B", "C", "A", "B", "A"])
        hist = build_noisy_histogram(ds, "c", eps_a=eps, rng=rng_of(seed))
        assert np.all(hist.probabilities >= 0)
        assert hist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(hist.probabilities) == len(hist.bins)

    def test_validation(self):
        ds = cat_ds(["A"])
        with pytest.raises(ConfigError):
            build_noisy_histogram(ds, "c", eps_a=0.0)
        with pytest.raises(ConfigError):
            build_noisy_histogram(num_ds([1.0, 2.0]), "x", eps_a=1.0, num_bins=0)
        with pytest.raises(DataError):
            build_noisy_histogram(ds, "missing", eps_a=1.0)

    @pytest.mark.parametrize("eps_a", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps_a):
        # at inf the Laplace scale is 0, so the exact counts would be released
        with pytest.raises(ConfigError, match="per-attribute epsilon must be positive and finite"):
            build_noisy_histogram(cat_ds(["A"] * 7 + ["B"] * 3), "c", eps_a)


SCHEMA_MIXED = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
)


def mixed_ds(n=400, seed=5):
    rng = np.random.default_rng(seed)
    return Dataset.from_columns(
        SCHEMA_MIXED,
        {
            "age": rng.uniform(18, 90, n),
            "home": [["RENT", "OWN", "MORTGAGE"][i] for i in rng.integers(0, 3, n)],
        },
    )


class TestSynthesize:
    def test_output_shape_and_schema(self):
        ds = mixed_ds()
        out = synthesize(ds, epsilon=1.0, n=250, seed=11)
        assert out.row_count == 250
        assert out.schema == ds.schema

    def test_reproducible_byte_for_byte(self, tmp_path):
        ds = mixed_ds()
        a = synthesize(ds, epsilon=0.5, n=300, num_bins=16, seed=9)
        b = synthesize(ds, epsilon=0.5, n=300, num_bins=16, seed=9)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_negative_seed_rejected(self):
        ds = mixed_ds()
        with pytest.raises(ConfigError, match="seed must be non-negative, got -3"):
            synthesize(ds, 0.5, 300, seed=-3)
        assert synthesize(ds, 0.5, 300, seed=0).row_count == 300

    def test_different_seeds_differ(self):
        ds = mixed_ds()
        assert synthesize(ds, 0.5, 300, seed=1) != synthesize(ds, 0.5, 300, seed=2)

    def test_numeric_samples_respect_real_bounds(self):
        ds = mixed_ds()
        out = synthesize(ds, epsilon=0.1, n=2000, seed=3)
        lo, hi = ds.column("age").min(), ds.column("age").max()
        assert np.all(out.column("age") >= lo)
        assert np.all(out.column("age") <= hi)
        assert boundary_adherence(ds.column("age"), out.column("age")) == 1.0

    def test_tiny_epsilon_still_valid(self):
        ds = mixed_ds(n=120)
        out = synthesize(ds, epsilon=0.01, n=500, seed=21)
        assert out.row_count == 500
        assert set(out.column("home")) <= {"RENT", "OWN", "MORTGAGE"}

    def test_category_sampling_zero_noise_limit(self):
        ds = cat_ds(["A"] * 700 + ["B"] * 300)
        out = synthesize(ds, epsilon=1e6, n=100_000, seed=13)
        freq_a = np.count_nonzero(out.column("c") == "A") / out.row_count
        assert freq_a == pytest.approx(0.7, abs=0.01)

    def test_total_variation_shrinks_with_epsilon(self):
        ds = cat_ds(["A"] * 1400 + ["B"] * 600)
        empirical = np.array([0.7, 0.3])

        def tv(eps, seed=17):
            hist = build_noisy_histogram(ds, "c", eps_a=eps, rng=rng_of(seed))
            return 0.5 * np.abs(hist.probabilities - empirical).sum()

        distances = [tv(1e6), tv(1.0), tv(0.01)]
        assert distances[0] <= distances[1] <= distances[2]
        assert distances[0] < 1e-4

    def test_validation(self):
        ds = mixed_ds(n=50)
        with pytest.raises(ConfigError):
            synthesize(ds, epsilon=1.0, n=0)
        with pytest.raises(ConfigError):
            synthesize(ds, epsilon=-1.0, n=10)
        empty = Dataset.from_columns(SCHEMA_MIXED, {"age": [], "home": []})
        with pytest.raises(DataError):
            synthesize(empty, epsilon=1.0, n=10)

    @pytest.mark.parametrize("epsilon, n", [(1.0, None), (None, 3)], ids=["n", "epsilon"])
    def test_an_unset_epsilon_or_n_is_a_config_error(self, epsilon, n):
        # [synth] may leave both unset; a synthesis refuses them before it samples
        message = f"synthesis requires an epsilon and a row count n, got epsilon={epsilon}, n={n}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            synthesize(num_ds([1.0, 2.0, 3.0]), epsilon, n)

    def test_a_range_that_overflows_is_a_data_error(self):
        # linspace would give non-finite bin edges, on which np.histogram raises ValueError
        message = "attribute 'x': range -1e+308 to 1e+308 overflows a float, so it cannot be binned"
        for _ in range(2):  # a failed count is not stored, so it raises again
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                synthesize(num_ds([-1e308, 0.0, 1e308]), epsilon=1.0, n=10)
        assert len(synthesize(num_ds([-1e307, 0.0, 1e307]), epsilon=1.0, n=10).columns["x"]) == 10

    def test_histogram_object_shape(self):
        hist = build_noisy_histogram(cat_ds(["A", "B"]), "c", eps_a=1.0, rng=rng_of(0))
        assert isinstance(hist, NoisyHistogram)
        assert hist.attribute == "c"
        assert len(hist.noisy_counts) == len(hist.bins)


SCHEMA_EDGES = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("flat", Kind.NUMERICAL),
    AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
    AttributeSchema("only", Kind.CATEGORICAL),
)


def edge_ds(n=300, seed=8):
    """Mixed columns plus a constant numeric one and a single-category one."""
    rng = np.random.default_rng(seed)
    return Dataset.from_columns(
        SCHEMA_EDGES,
        {
            "age": np.round(rng.lognormal(3.5, 0.4, n), 1),
            "flat": [7.25] * n,
            "home": [["RENT", "OWN", "MORTGAGE", "OTHER"][i] for i in rng.integers(0, 4, n)],
            "only": ["X"] * n,
        },
    )


def per_histogram_synthesize(ds, epsilon, n, num_bins, seed):
    """Sampling through the public per-attribute histogram, each attribute on
    its own PCG64 substream, and the output built by ``from_columns``."""
    eps_a = epsilon / len(ds.schema)
    children = np.random.SeedSequence(seed).spawn(len(ds.schema))
    columns = {}
    for child, attr in zip(children, ds.schema):
        rng = np.random.Generator(np.random.PCG64(child))
        hist = build_noisy_histogram(ds, attr.name, eps_a, num_bins, rng)
        columns[attr.name] = _sample_from_histogram(hist, n, rng)
    return Dataset.from_columns(ds.schema, columns)


def assert_bit_identical(a, b):
    assert a.schema == b.schema and a.row_count == b.row_count
    for attr in a.schema:
        x, y = a.columns[attr.name], b.columns[attr.name]
        assert x.dtype == y.dtype
        if attr.kind is Kind.NUMERICAL:
            assert x.tobytes() == y.tobytes()
        else:
            assert x.tolist() == y.tolist()


class TestPreparedMarginals:
    """synthesize() counts each dataset object's histograms once per num_bins."""

    @pytest.mark.parametrize("num_bins", [1, 2, 7, 32])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_counted_once_equals_counted_per_call(self, num_bins, seed):
        ds = edge_ds()
        for epsilon, n in [(0.05, 40), (1.0, 300), (50.0, 1)]:
            first = synthesize(ds, epsilon, n, num_bins, seed)
            second = synthesize(ds, epsilon, n, num_bins, seed)
            assert_bit_identical(second, synthesize(twin(ds), epsilon, n, num_bins, seed))
            assert_bit_identical(first, second)
            assert_bit_identical(second, per_histogram_synthesize(ds, epsilon, n, num_bins, seed))

    def test_edge_columns(self):
        ds = edge_ds()
        count_marginals(ds, 1)
        out = synthesize(ds, 0.5, 200, 1, 3)
        assert set(out.column("flat").tolist()) == {7.25}
        assert set(out.column("only").tolist()) == {"X"}

    def test_synthesized_categories_are_interned(self):
        ds = edge_ds()
        count_marginals(ds, 16)
        out = synthesize(ds, 1.0, 500, 16, 4)
        for name in ("home", "only"):
            assert all(sys.intern(v) is v for v in out.column(name).tolist())

    def test_counts_equal_the_histogram_before_noise(self):
        ds = edge_ds()
        marginals = count_marginals(ds, 5)
        assert count_marginals(ds, 5) is marginals
        bins, counts = marginals["home"]
        hist = build_noisy_histogram(ds, "home", eps_a=1e12, num_bins=5, rng=rng_of(0))
        assert bins == hist.bins
        assert counts.sum() == ds.row_count
        assert np.allclose(hist.noisy_counts, counts, atol=1e-6)
        edges, counts = marginals["age"]
        assert len(edges) == 6 and counts.sum() == ds.row_count
        assert not counts.flags.writeable

    def test_two_bin_counts_on_one_dataset_equal_fresh_datasets(self):
        ds = edge_ds()
        for num_bins in (16, 8, 16, 1):
            out = synthesize(ds, 1.0, 100, num_bins, 0)
            assert_bit_identical(out, synthesize(twin(ds), 1.0, 100, num_bins, 0))
            for attr in ds.schema:
                bins, counts = count_marginals(ds, num_bins)[attr.name]
                fresh_bins, fresh_counts = count_marginals(twin(ds), num_bins)[attr.name]
                assert bins == fresh_bins
                assert counts.tobytes() == fresh_counts.tobytes()
        assert len(count_marginals(ds, 8)["age"][0]) == 9
        assert len(count_marginals(ds, 16)["age"][0]) == 17

    def test_count_validation(self):
        empty = Dataset.from_columns(SCHEMA_MIXED, {"age": [], "home": []})
        for _ in range(2):  # a failed count is not stored, so it raises again
            with pytest.raises(ConfigError, match="^num_bins must be >= 1, got 0$"):
                count_marginals(edge_ds(), 0)
            with pytest.raises(DataError, match="^cannot build a histogram from an empty dataset$"):
                count_marginals(empty)
