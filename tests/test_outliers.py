from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from synthaudit import (
    AttributeSchema,
    Combine,
    ConfigError,
    DataError,
    Dataset,
    Kind,
    OutlierConfig,
    Role,
    detect_outliers,
)
from synthaudit.dataset import BLOCK_ROWS
from synthaudit.outliers import save_outlier_set


def one_col(values, name="x"):
    return Dataset.from_columns((AttributeSchema(name, Kind.NUMERICAL, Role.QI),), {name: values})


def two_col(xs, ys):
    schema = (
        AttributeSchema("x", Kind.NUMERICAL, Role.QI),
        AttributeSchema("y", Kind.NUMERICAL, Role.QI),
    )
    return Dataset.from_columns(schema, {"x": xs, "y": ys})


def test_population_stddev_keeps_z_at_two():
    # mean 20, population stddev 40, so the 100 sits at z = 2 and survives k = 3
    ds = one_col([0, 0, 0, 0, 100])
    found = detect_outliers(ds, OutlierConfig(k=3, attributes=("x",)))
    assert found.flagged == frozenset()


def test_constant_columns_yield_empty_set():
    ds = two_col([7] * 6, [1] * 6)
    found = detect_outliers(ds, OutlierConfig(k=3, attributes=("x", "y")))
    assert len(found) == 0


def test_threshold_is_strict():
    # [1, -1] has mean 0, population stddev 1: both z values are exactly +-1
    ds = one_col([1.0, -1.0])
    assert detect_outliers(ds, OutlierConfig(k=1.0, attributes=("x",))).flagged == frozenset()
    flagged = detect_outliers(ds, OutlierConfig(k=0.999, attributes=("x",))).flagged
    assert flagged == frozenset({0, 1})


def test_combine_any_vs_all():
    # row 9 extreme in x only, row 10 extreme in both
    xs = [10, 10, 10, 10, 10, 10, 10, 10, 10, 300, 300]
    ys = [5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 200]
    ds = two_col(xs, ys)
    k = 1.6
    any_set = detect_outliers(ds, OutlierConfig(k=k, attributes=("x", "y"), combine=Combine.ANY))
    all_set = detect_outliers(ds, OutlierConfig(k=k, attributes=("x", "y"), combine=Combine.ALL))
    assert 9 in any_set.flagged and 10 in any_set.flagged
    assert all_set.flagged == frozenset({10})
    assert all_set.flagged <= any_set.flagged


def test_all_subset_of_any_randomized():
    rng = np.random.default_rng(3)
    for _ in range(20):
        ds = two_col(rng.lognormal(3, 1, 40), rng.normal(0, 5, 40))
        cfg_any = OutlierConfig(k=1.5, attributes=("x", "y"), combine=Combine.ANY)
        cfg_all = OutlierConfig(k=1.5, attributes=("x", "y"), combine=Combine.ALL)
        assert detect_outliers(ds, cfg_all).flagged <= detect_outliers(ds, cfg_any).flagged


def test_monotone_in_k():
    rng = np.random.default_rng(5)
    ds = two_col(rng.lognormal(3, 1, 60), rng.normal(10, 4, 60))
    flagged = [
        detect_outliers(ds, OutlierConfig(k=k, attributes=("x", "y"))).flagged
        for k in (0.5, 1.0, 1.8, 3.0)
    ]
    for smaller_k, larger_k in zip(flagged, flagged[1:]):
        assert larger_k <= smaller_k


def test_affine_invariance():
    rng = np.random.default_rng(8)
    xs = rng.lognormal(2, 1, 50)
    cfg = OutlierConfig(k=1.5, attributes=("x",))
    base = detect_outliers(one_col(xs), cfg).flagged
    shifted = detect_outliers(one_col(3.5 * xs + 11.0), cfg).flagged
    assert shifted == base


def test_permuting_rows_permutes_flags():
    rng = np.random.default_rng(13)
    xs = list(rng.lognormal(2, 1, 30))
    cfg = OutlierConfig(k=1.5, attributes=("x",))
    base = detect_outliers(one_col(xs), cfg).flagged
    perm = list(rng.permutation(30))
    permuted = detect_outliers(one_col([xs[i] for i in perm]), cfg).flagged
    assert permuted == frozenset(i for i, src in enumerate(perm) if src in base)


def test_z_covers_all_configured_attributes():
    ds = two_col([1, 1, 1, 1, 50], [2, 2, 2, 2, 2])
    cfg = OutlierConfig(k=1.5, attributes=("x", "y"))
    found = detect_outliers(ds, cfg)
    assert found.flagged == frozenset({4})
    assert found.index.tolist() == [4]
    assert list(found.z) == ["x", "y"]
    assert abs(found.z["x"][0]) > 1.5
    assert found.z["y"][0] == 0.0


def test_memory_kept_per_flagged_record_is_bounded():
    # two attributes at a low k flag most rows; the index and two z columns
    # take 24 bytes a record, a Python object per record several hundred
    rng = np.random.default_rng(5)
    ds = two_col(rng.uniform(size=20_000), rng.uniform(size=20_000))
    cfg = OutlierConfig(k=0.25, attributes=("x", "y"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = detect_outliers(ds, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(found) > 18_000
    assert kept <= 64 * len(found)


def test_config_validation():
    with pytest.raises(ConfigError):
        OutlierConfig(k=0, attributes=("x",))
    with pytest.raises(ConfigError):
        OutlierConfig(k=-1, attributes=("x",))
    for k in (math.inf, float("1e400")):
        with pytest.raises(ConfigError, match="must be finite, got inf"):
            OutlierConfig(k=k, attributes=("x",))
    with pytest.raises(ConfigError, match="must be positive, got nan"):
        OutlierConfig(k=math.nan, attributes=("x",))
    with pytest.raises(ConfigError):
        OutlierConfig(k=3, attributes=())
    with pytest.raises(ConfigError, match="duplicate attribute"):
        OutlierConfig(k=3, attributes=("x", "y", "x"))


def test_detect_rejects_categorical_and_missing(toy_dataset):
    with pytest.raises(ConfigError):
        detect_outliers(toy_dataset, OutlierConfig(k=3, attributes=("home",)))
    with pytest.raises(DataError):
        detect_outliers(toy_dataset, OutlierConfig(k=3, attributes=("nope",)))


def test_empty_dataset_rejected():
    empty = one_col([])
    for _ in range(2):  # a failed detection is not stored, so it raises again
        with pytest.raises(DataError, match="^column_stats on an empty dataset$"):
            detect_outliers(empty, OutlierConfig(k=1.0, attributes=("x",)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_stddev_of_one_row_rejected():
    # numpy would warn "Degrees of freedom <= 0" and give nan z-scores that flag nothing
    one = one_col([5.0])
    with pytest.raises(DataError, match=r"^outlier attribute 'x': stddev with ddof=1 is undefined for 1 row\(s\)$"):
        detect_outliers(one, OutlierConfig(k=1.0, attributes=("x",), ddof=1))
    assert len(detect_outliers(one, OutlierConfig(k=1.0, attributes=("x",)))) == 0  # population: stddev 0
    assert detect_outliers(one_col([5.0, 9.0]), OutlierConfig(k=0.5, attributes=("x",), ddof=1)).index.tolist() == [0, 1]


@pytest.mark.parametrize(
    "values, mean, stddev",
    [
        ([1.0] * 100 + [1e160] * 2, r"1\.96\d*e\+158", "inf"),  # squaring 1e160 overflows
        ([1e308] * 3, "inf", "inf"),  # so does the sum
    ],
    ids=["stddev", "mean"],
)
def test_a_column_whose_moments_overflow_is_a_data_error(values, mean, stddev):
    # an infinite stddev would make every z-score 0, so nothing would be flagged
    with pytest.raises(DataError, match=f"^outlier attribute 'x': mean {mean} and stddev {stddev} overflow a float$"):
        detect_outliers(one_col(values), OutlierConfig(k=1, attributes=("x",)))
    found = detect_outliers(one_col([1.0] * 100 + [1e150] * 2), OutlierConfig(k=1, attributes=("x",)))
    assert found.index.tolist() == [100, 101]  # below the overflow, the large rows are flagged


@pytest.mark.parametrize("ddof", [0, 1])
def test_z_scores_equal_column_stats_based_scores(ddof):
    rng = np.random.default_rng(7)
    ds = two_col(rng.lognormal(3.0, 1.0, 997).tolist(), [4.0] * 997)
    cfg = OutlierConfig(k=0.5, attributes=("x", "y"), ddof=ddof)
    flagged = detect_outliers(ds, cfg)
    mean, stddev = float(np.mean(ds.columns["x"])), float(np.std(ds.columns["x"], ddof=ddof))
    expected = (ds.columns["x"] - mean) / stddev
    assert flagged.flagged == frozenset(np.flatnonzero(np.abs(expected) > 0.5).tolist())
    assert flagged.index.dtype == np.int64 and flagged.z["x"].dtype == np.float64
    assert flagged.index.tolist() == sorted(flagged.flagged)
    # bit for bit; the constant column is 0
    assert flagged.z["x"].tolist() == expected[flagged.index].tolist()
    assert flagged.z["y"].tolist() == [0.0] * len(flagged)


def test_sample_convention_changes_scores():
    ds = one_col([1, 2, 3, 4, 100])
    population = detect_outliers(ds, OutlierConfig(k=1.7, attributes=("x",), ddof=0))
    sample = detect_outliers(ds, OutlierConfig(k=1.7, attributes=("x",), ddof=1))
    # sample stddev is larger, so the extreme point's z shrinks
    assert population.index.tolist() == sample.index.tolist() == [4]
    assert population.z["x"][0] > sample.z["x"][0]


def test_sets_are_equal_when_their_columns_are():
    population = detect_outliers(one_col([1, 2, 3, 4, 100]), OutlierConfig(k=1.7, attributes=("x",)))
    again = detect_outliers(one_col([1, 2, 3, 4, 100]), OutlierConfig(k=1.7, attributes=("x",)))
    sample = detect_outliers(one_col([1, 2, 3, 4, 100]), OutlierConfig(k=1.7, attributes=("x",), ddof=1))
    assert population is not again and population == again
    assert population.flagged == sample.flagged and population != sample  # same rows, other z
    ds = two_col([1, 1, 1, 1, 50], [2, 2, 2, 2, 2])
    one, both = (OutlierConfig(k=1.5, attributes=attrs) for attrs in (("x",), ("x", "y")))
    assert detect_outliers(ds, one).flagged == detect_outliers(ds, both).flagged
    assert detect_outliers(ds, one) != detect_outliers(ds, both)  # other attributes


def test_export_listing(tmp_path):
    ds = two_col([1, 1, 1, 1, 50], [2, 2, 2, 2, 2])
    cfg = OutlierConfig(k=1.5, attributes=("x", "y"))
    found = detect_outliers(ds, cfg)
    path = tmp_path / "outliers.csv"
    save_outlier_set(found, cfg, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,z_x,z_y,triggered"
    assert lines[1].startswith("4,")
    assert lines[1].endswith(",x")


LISTING_HEADER = "index,z_x,z_y,triggered\n"


@pytest.mark.parametrize(
    "k, combine, expected",
    [
        (
            1.2,
            Combine.ANY,
            LISTING_HEADER
            + "7,2.388365,2.226322,x|y\n8,-0.125703,-2.244204,y\n9,-2.011255,-0.008941,x\n",
        ),
        (1.2, Combine.ALL, LISTING_HEADER + "7,2.388365,2.226322,x|y\n"),
        (5.0, Combine.ANY, LISTING_HEADER),
    ],
    ids=["any", "all", "empty"],
)
def test_listing_bytes_are_pinned(tmp_path, k, combine, expected):
    # row 7 is extreme on both attributes, rows 8 and 9 each on one, with negative z
    ds = two_col([10, 11, 12, 13, 14, 15, 16, 40, 12, -9], [5, 5, 6, 5, 5, 5, 5, 30, -20, 5])
    cfg = OutlierConfig(k=k, attributes=("x", "y"), combine=combine)
    path = tmp_path / "outliers.csv"
    save_outlier_set(detect_outliers(ds, cfg), cfg, path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_listing_spans_blocks_like_a_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(11)
    ds = two_col(rng.normal(size=1000).tolist(), rng.normal(size=1000).tolist())
    cfg = OutlierConfig(k=0.5, attributes=("x", "y"))
    z = {a: (ds.columns[a] - np.mean(ds.columns[a])) / np.std(ds.columns[a]) for a in "xy"}
    lines = ["index,z_x,z_y,triggered"]
    for i in range(ds.row_count):
        hits = [a for a in "xy" if abs(z[a][i]) > cfg.k]
        if hits:
            lines.append(",".join([str(i), *(f"{z[a][i]:.6f}" for a in "xy"), "|".join(hits)]))
    assert len(lines) > 3 * BLOCK_ROWS
    path = tmp_path / "outliers.csv"
    save_outlier_set(detect_outliers(ds, cfg), cfg, path)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
