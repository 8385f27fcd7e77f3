from __future__ import annotations

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


def test_per_attribute_z_covers_all_configured_attributes():
    ds = two_col([1, 1, 1, 1, 50], [2, 2, 2, 2, 2])
    cfg = OutlierConfig(k=1.5, attributes=("x", "y"))
    found = detect_outliers(ds, cfg)
    assert found.flagged == frozenset({4})
    zs = found.per_attribute_z[4]
    assert set(zs) == {"x", "y"}
    assert abs(zs["x"]) > 1.5
    assert zs["y"] == 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        OutlierConfig(k=0, attributes=("x",))
    with pytest.raises(ConfigError):
        OutlierConfig(k=-1, attributes=("x",))
    with pytest.raises(ConfigError):
        OutlierConfig(k=3, attributes=())


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


@pytest.mark.parametrize("ddof", [0, 1])
def test_z_scores_equal_column_stats_based_scores(ddof):
    rng = np.random.default_rng(7)
    ds = two_col(rng.lognormal(3.0, 1.0, 997).tolist(), [4.0] * 997)
    cfg = OutlierConfig(k=0.5, attributes=("x", "y"), ddof=ddof)
    flagged = detect_outliers(ds, cfg)
    mean, stddev = float(np.mean(ds.columns["x"])), float(np.std(ds.columns["x"], ddof=ddof))
    expected = (ds.columns["x"] - mean) / stddev
    assert flagged.flagged == frozenset(np.flatnonzero(np.abs(expected) > 0.5).tolist())
    for i, zs in flagged.per_attribute_z.items():
        assert zs == {"x": float(expected[i]), "y": 0.0}  # bit for bit; the constant column is 0


def test_sample_convention_changes_scores():
    ds = one_col([1, 2, 3, 4, 100])
    population = detect_outliers(ds, OutlierConfig(k=1.7, attributes=("x",), ddof=0))
    sample = detect_outliers(ds, OutlierConfig(k=1.7, attributes=("x",), ddof=1))
    # sample stddev is larger, so the extreme point's z shrinks
    assert population.per_attribute_z[4]["x"] > sample.per_attribute_z[4]["x"]


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
