from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from synthaudit import (
    AttributeSchema,
    ComparatorKind,
    ComparatorSpec,
    ConfigError,
    Dataset,
    Kind,
    OutlierConfig,
    QIConfig,
    QIRule,
    Role,
    run_audit,
    save_dataset,
    sweep_epsilon,
)
from synthaudit.audit import AuditPlan
from synthaudit.config import VariantSpec
from synthaudit.report import strip_volatile, dumps_report

SCHEMA = (
    AttributeSchema("age", Kind.NUMERICAL, Role.QI),
    AttributeSchema("income", Kind.NUMERICAL, Role.QI),
    AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
)

QI_CFG = QIConfig(
    rules=(
        QIRule("age", ComparatorSpec(ComparatorKind.GAUSS, offset=5.0, scale=5.0)),
        QIRule("income", ComparatorSpec(ComparatorKind.GAUSS, offset=1000.0, scale=1000.0)),
        QIRule("home", ComparatorSpec(ComparatorKind.LEVENSHTEIN)),
    )
)
OUTLIER_CFG = OutlierConfig(k=1.5, attributes=("age", "income"))
LADDER = (("age", "income"), ("age", "income", "home"))


def fixture_original(n=120, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_columns(
        SCHEMA,
        {
            "age": rng.integers(20, 60, n).astype(float),
            "income": np.round(rng.lognormal(10.5, 0.6, n), 0),
            "home": [["RENT", "OWN", "MORTGAGE"][i] for i in rng.integers(0, 3, n)],
        },
    )


@pytest.fixture
def original_csv(tmp_path):
    ds = fixture_original()
    path = tmp_path / "original.csv"
    save_dataset(ds, path)
    return path, ds


def make_plan(tmp_path, original_path, variants, ladder=LADDER, **kwargs):
    return AuditPlan(
        original_path=Path(original_path),
        schema=SCHEMA,
        outlier_cfg=OUTLIER_CFG,
        qi_cfg=QI_CFG,
        variants=tuple(variants),
        ladder=ladder,
        output_dir=tmp_path / "out",
        base_dir=tmp_path,
        **kwargs,
    )


def test_identity_variant_full_utility_and_self_linkage(tmp_path, original_csv):
    path, ds = original_csv
    copy_path = tmp_path / "copy.csv"
    save_dataset(ds, copy_path)
    plan = make_plan(
        tmp_path,
        path,
        [VariantSpec(name="copy", file=str(copy_path), tags=(("epochs", "150"),))],
    )
    report = run_audit(plan)
    assert report.variants[0]["generator"]["tags"] == {"epochs": "150"}
    entry = report.variants[0]
    assert entry["status"] == "ok"
    for agg in entry["utility"]["aggregate"].values():
        assert agg["mean"] == 1.0
    full = entry["linkage"]["age,income,home"]
    assert full["targets"] == report.run_meta["outliers"]["count"] > 0
    assert full["possible_matches"] >= full["targets"]  # every target matches itself


def test_report_completeness_and_plan_order(tmp_path, original_csv):
    path, ds = original_csv
    variants = [VariantSpec(name=f"eps{i}", epsilon=eps, seed=i) for i, eps in enumerate([0.01, 0.1, 0.2, 0.5, 1.0, 5.0, 10.0])]
    plan = make_plan(tmp_path, path, variants)
    report = run_audit(plan)
    assert [e["name"] for e in report.variants] == [v.name for v in variants]
    assert len(report.variants) == 7
    for entry in report.variants:
        assert entry["status"] == "ok"
        assert len(entry["linkage"]) == len(LADDER)
        assert entry["generator"]["type"] == "dp_independent_marginals"


def test_qi_ladder_monotonicity_in_report(tmp_path, original_csv):
    path, _ = original_csv
    plan = make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=5.0, seed=3)])
    report = run_audit(plan)
    linkage = report.variants[0]["linkage"]
    assert linkage["age,income,home"]["possible_matches"] <= linkage["age,income"]["possible_matches"]


def test_failure_isolation(tmp_path, original_csv):
    path, ds = original_csv
    good_path = tmp_path / "good.csv"
    save_dataset(ds, good_path)
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("not,a,valid\nheader,row,x\n", encoding="utf-8")
    plan = make_plan(
        tmp_path,
        path,
        [
            VariantSpec(name="good", file=str(good_path)),
            VariantSpec(name="bad", file=str(bad_path)),
            VariantSpec(name="gen", epsilon=1.0, seed=5),
        ],
    )
    report = run_audit(plan)
    statuses = {e["name"]: e["status"] for e in report.variants}
    assert statuses == {"good": "ok", "bad": "failed", "gen": "ok"}
    assert "error" in report.variants[1]

    # the failing variant does not perturb the others
    solo = make_plan(tmp_path, path, [VariantSpec(name="good", file=str(good_path))])
    solo_report = run_audit(solo)
    assert solo_report.variants[0]["linkage"] == report.variants[0]["linkage"]


def test_reports_reproducible_modulo_volatile_meta(tmp_path, original_csv):
    path, _ = original_csv
    plan = make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=0.5, seed=9)])
    a = run_audit(plan)
    b = run_audit(plan)
    assert dumps_report(strip_volatile(a.to_dict())) == dumps_report(strip_volatile(b.to_dict()))


def test_write_outputs_materializes_files(tmp_path, original_csv):
    path, _ = original_csv
    plan = make_plan(tmp_path, path, [VariantSpec(name="gen", epsilon=1.0, seed=2)], ladder=(("age", "income"),))
    report = run_audit(plan, write_outputs=True)
    out = plan.output_dir
    assert (out / "outliers.csv").is_file()
    assert (out / "variants" / "gen.csv").is_file()
    pair_file = out / report.variants[0]["linkage"]["age,income"]["pairs_file"]
    assert pair_file.is_file()
    assert pair_file.read_text().splitlines()[0] == "original_index,synthetic_index,score_age,score_income"


def test_unreadable_original_raises(tmp_path):
    plan = make_plan(tmp_path, tmp_path / "missing.csv", [VariantSpec(name="v", epsilon=1.0)])
    with pytest.raises(Exception, match="cannot read"):
        run_audit(plan)


def test_plan_validation(tmp_path, original_csv):
    path, _ = original_csv
    with pytest.raises(ConfigError, match="at least one variant"):
        make_plan(tmp_path, path, [])
    with pytest.raises(ConfigError, match="ladder"):
        make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=())
    with pytest.raises(ConfigError, match="not configured"):
        make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=(("nope",),))
    with pytest.raises(ConfigError, match="duplicate variant"):
        make_plan(
            tmp_path, path, [VariantSpec(name="v", epsilon=1.0), VariantSpec(name="v", epsilon=2.0)]
        )


class TestSweep:
    def test_single_cell_grid(self):
        original = fixture_original(n=60)
        report = sweep_epsilon(original, (0.01,), 1, 7, OUTLIER_CFG, QI_CFG)
        assert len(report.variants) == 1
        assert len(report.sweep_curve) == 1
        assert report.variants[0]["generator"]["seed"] == 7

    def test_grid_times_repeats_entries_and_sorted_curve(self):
        original = fixture_original(n=50)
        grid = (10.0, 0.01, 1.0, 0.2, 5.0, 0.1, 0.5)
        report = sweep_epsilon(original, grid, 3, 100, OUTLIER_CFG, QI_CFG, n=50)
        assert len(report.variants) == 21
        epsilons = [row["epsilon"] for row in report.sweep_curve]
        assert epsilons == sorted(grid)
        assert [e["generator"]["seed"] for e in report.variants] == list(range(100, 121))
        for row in report.sweep_curve:
            assert row["repeats"] == 3
            assert row["unique_matches"]["min"] <= row["unique_matches"]["mean"] <= row["unique_matches"]["max"]

    def test_deterministic(self):
        original = fixture_original(n=40)
        a = sweep_epsilon(original, (0.1, 1.0), 2, 5, OUTLIER_CFG, QI_CFG)
        b = sweep_epsilon(original, (0.1, 1.0), 2, 5, OUTLIER_CFG, QI_CFG)
        assert dumps_report(strip_volatile(a.to_dict())) == dumps_report(strip_volatile(b.to_dict()))

    def test_validation(self):
        original = fixture_original(n=30)
        with pytest.raises(ConfigError):
            sweep_epsilon(original, (), 1, 0, OUTLIER_CFG, QI_CFG)
        with pytest.raises(ConfigError):
            sweep_epsilon(original, (1.0,), 0, 0, OUTLIER_CFG, QI_CFG)
