from __future__ import annotations

import hashlib
import re
from pathlib import Path

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
    compute_utility,
    detect_outliers,
    load_dataset,
    run_audit,
    save_dataset,
    sweep_epsilon,
    synthesize,
)
from synthaudit import dp_synth, outliers, utility
from synthaudit.config import (
    RunConfig, SweepSettings, SynthSettings, VariantSpec, check_ladder, config_hash, render_config,
)
from synthaudit.dp_synth import DEFAULT_NUM_BINS, generator_metadata
from synthaudit.linkage import save_matches
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


def make_plan(tmp_path, original_path, variants, ladder=LADDER, qi=QI_CFG, **kwargs):
    """``run_audit``'s arguments: the plan, its output directory and its base directory."""
    cfg = RunConfig(
        schema=SCHEMA,
        outliers=OUTLIER_CFG,
        qi=qi,
        original=str(original_path),
        variants=tuple(variants),
        ladder=ladder,
        **kwargs,
    )
    return cfg, tmp_path / "out", tmp_path


def sweep(tmp_path, original, grid, repeats, base_seed, **synth):
    """``sweep_epsilon`` on a plan with this sweep and, given settings, this ``[synth]``,
    whose original is ``original`` saved as ``swept.csv`` in ``tmp_path``."""
    save_dataset(original, tmp_path / "swept.csv")
    cfg = RunConfig(
        schema=SCHEMA,
        outliers=OUTLIER_CFG,
        qi=QI_CFG,
        synth=SynthSettings(**synth) if synth else None,
        original="swept.csv",
        sweep=SweepSettings(grid, repeats, base_seed),
    )
    return sweep_epsilon(cfg, tmp_path)


def test_identity_variant_full_utility_and_self_linkage(tmp_path, original_csv):
    path, ds = original_csv
    copy_path = tmp_path / "copy.csv"
    save_dataset(ds, copy_path)
    plan = make_plan(
        tmp_path,
        path,
        [VariantSpec(name="copy", file=str(copy_path), tags=(("epochs", "150"),))],
    )
    report = run_audit(*plan)
    assert report["variants"][0]["generator"]["tags"] == {"epochs": "150"}
    entry = report["variants"][0]
    assert entry["status"] == "ok"
    for agg in entry["utility"]["aggregate"].values():
        assert agg["mean"] == 1.0
    full = entry["linkage"]["age,income,home"]
    assert full["targets"] == report["run_meta"]["outliers"]["count"] > 0
    assert full["possible_matches"] >= full["targets"]  # every target matches itself


def test_report_completeness_and_plan_order(tmp_path, original_csv):
    path, ds = original_csv
    variants = [VariantSpec(name=f"eps{i}", epsilon=eps, seed=i) for i, eps in enumerate([0.01, 0.1, 0.2, 0.5, 1.0, 5.0, 10.0])]
    plan = make_plan(tmp_path, path, variants)
    report = run_audit(*plan)
    assert [e["name"] for e in report["variants"]] == [v.name for v in variants]
    assert len(report["variants"]) == 7
    for entry in report["variants"]:
        assert entry["status"] == "ok"
        assert len(entry["linkage"]) == len(LADDER)
        assert entry["generator"]["type"] == "dp_independent_marginals"


def test_qi_ladder_monotonicity_in_report(tmp_path, original_csv):
    path, _ = original_csv
    plan = make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=5.0, seed=3)])
    report = run_audit(*plan)
    linkage = report["variants"][0]["linkage"]
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
    report = run_audit(*plan)
    statuses = {e["name"]: e["status"] for e in report["variants"]}
    assert statuses == {"good": "ok", "bad": "failed", "gen": "ok"}
    assert "error" in report["variants"][1]

    # the failing variant does not perturb the others
    solo = make_plan(tmp_path, path, [VariantSpec(name="good", file=str(good_path))])
    solo_report = run_audit(*solo)
    assert solo_report["variants"][0]["linkage"] == report["variants"][0]["linkage"]


def test_reports_reproducible_modulo_volatile_meta(tmp_path, original_csv):
    path, _ = original_csv
    plan = make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=0.5, seed=9)])
    a = run_audit(*plan)
    b = run_audit(*plan)
    assert dumps_report(strip_volatile(a)) == dumps_report(strip_volatile(b))


def test_write_outputs_materializes_files(tmp_path, original_csv):
    path, _ = original_csv
    spec = VariantSpec(name="gen", epsilon=1.0, seed=2)
    cfg, out, base_dir = make_plan(tmp_path, path, [spec], ladder=(("age", "income"),))
    report = run_audit(cfg, out, base_dir)
    assert (out / "outliers.csv").is_file()
    assert (out / "variants" / "gen.csv").is_file()
    pair_file = out / report["variants"][0]["linkage"]["age,income"]["pairs_file"]
    assert pair_file.is_file()
    assert pair_file.read_text().splitlines()[0] == "original_index,synthetic_index,score_age,score_income"


def test_unreadable_original_raises(tmp_path):
    plan = make_plan(tmp_path, tmp_path / "missing.csv", [VariantSpec(name="v", epsilon=1.0)])
    with pytest.raises(Exception, match="cannot read"):
        run_audit(*plan)


def test_plan_validation(tmp_path, original_csv):
    path, _ = original_csv
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ConfigError, match="at least one variant"):
        run_audit(*make_plan(tmp_path, path, []))
    with pytest.raises(ConfigError, match="ladder"):
        run_audit(*make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=()))
    with pytest.raises(ConfigError, match="not configured"):
        run_audit(*make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=(("nope",),)))
    with pytest.raises(ConfigError, match="^QI subset 'age,age' names 'age' more than once$"):
        run_audit(*make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=(("age", "age"),)))
    with pytest.raises(ConfigError, match="subsets 'age,income' and 'income,age' name the same QIs$"):
        run_audit(
            *make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=(("age", "income"), ("income", "age")))
        )
    with pytest.raises(ConfigError, match="duplicate variant"):
        run_audit(
            *make_plan(tmp_path, path, [VariantSpec(name="v", epsilon=1.0), VariantSpec(name="v", epsilon=2.0)])
        )
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "missing, message",
    [
        (("outliers",), "'audit' requires a [outliers] section in the config"),
        (("qi",), "'audit' requires a [qi ...] section in the config"),
        (("original", "qi", "outliers"), "'audit' requires a [outliers] section in the config"),
        (("original",), "audit plan requires [paths] original"),
    ],
    ids=["outliers", "qi", "all-three", "original"],
)
def test_a_plan_without_a_section_it_reads_is_refused_before_any_data_is_read(tmp_path, missing, message):
    # there is no original file: reading it would raise DataError
    plan = {
        "schema": SCHEMA, "outliers": OUTLIER_CFG, "qi": QI_CFG, "original": "missing.csv", "ladder": LADDER,
        "variants": (VariantSpec(name="v", epsilon=1.0),),
    }
    with pytest.raises(ConfigError) as caught:
        run_audit(RunConfig(**{**plan, **dict.fromkeys(missing)}), tmp_path / "out", tmp_path)
    assert str(caught.value) == message
    assert list(tmp_path.iterdir()) == []


def test_a_nul_in_a_variant_name_is_refused_before_anything_is_written(tmp_path, original_csv):
    # the config parser refuses a NUL, but a plan built in code reaches run_audit with one
    path, _ = original_csv
    before = sorted(tmp_path.rglob("*"))
    message = "variant name 'a\\x00b' must not contain a NUL"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_audit(*make_plan(tmp_path, path, [VariantSpec(name="a\0b", epsilon=1.0)]))
    assert sorted(tmp_path.rglob("*")) == before


def test_a_ladder_qi_name_that_leaves_pairs_is_refused(tmp_path, original_csv):
    # QI names become part of a pair file's name, as variant names do
    path, _ = original_csv
    rule = QIRule("../../../x", ComparatorSpec(ComparatorKind.GAUSS, offset=1.0, scale=1.0))
    qi_cfg = QIConfig(rules=(*QI_CFG.rules, rule))
    message = "variant 'v' subset '../../../x' would write pairs/v__../../../x.csv, which is not a file in pairs/"
    cfg, _, base_dir = make_plan(
        tmp_path, path, [VariantSpec(name="v", epsilon=1.0)], ladder=(("age",), ("../../../x",)), qi=qi_cfg
    )
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_audit(cfg, tmp_path / "out" / "deep", base_dir)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("settings", [{}, {"n": 50, "num_bins": 8}], ids=["original-rows", "given-n-and-bins"])
def test_a_sweep_entry_equals_the_audit_entry_of_the_same_generated_variant(tmp_path, original_csv, settings):
    """A generated variant's entry does not depend on the command that built
    it; only its name and the files it names differ."""
    path, ds = original_csv
    subset = QI_CFG.names()
    spec = VariantSpec(name="v", epsilon=0.5, seed=7, **settings)
    [audited] = run_audit(*make_plan(tmp_path, path, [spec], ladder=(subset,)))["variants"]
    [swept] = sweep(tmp_path, ds, (0.5,), 1, 7, **settings)["variants"]
    assert swept["name"] == "eps0.5_seed7"
    assert audited["generator"].pop("path") == "variants/v.csv"
    assert audited["linkage"][",".join(subset)].pop("pairs_file") == f"pairs/v__{'-'.join(subset)}.csv"
    assert {**audited, "name": swept["name"]} == swept


class TestSweep:
    def test_single_cell_grid(self, tmp_path):
        original = fixture_original(n=60)
        report = sweep(tmp_path, original, (0.01,), 1, 7)
        assert len(report["variants"]) == 1
        assert len(report["sweep_curve"]) == 1
        assert report["variants"][0]["generator"]["seed"] == 7

    def test_grid_times_repeats_entries_and_sorted_curve(self, tmp_path):
        original = fixture_original(n=50)
        grid = (10.0, 0.01, 1.0, 0.2, 5.0, 0.1, 0.5)
        report = sweep(tmp_path, original, grid, 3, 100, n=50)
        assert len(report["variants"]) == 21
        epsilons = [row["epsilon"] for row in report["sweep_curve"]]
        assert epsilons == sorted(grid)
        assert [e["generator"]["seed"] for e in report["variants"]] == list(range(100, 121))
        for row in report["sweep_curve"]:
            assert row["repeats"] == 3
            assert row["unique_matches"]["min"] <= row["unique_matches"]["mean"] <= row["unique_matches"]["max"]

    def test_curve_rows_aggregate_their_own_epsilons_entries(self, tmp_path):
        original = fixture_original(n=80)
        grid = (5.0, 0.05, 0.5, 50.0)
        report = sweep(tmp_path, original, grid, 3, 11)
        subset = "age,income,home"
        assert [row["epsilon"] for row in report["sweep_curve"]] == sorted(grid)
        for row in report["sweep_curve"]:
            own = [e for e in report["variants"] if e["generator"]["epsilon"] == row["epsilon"]]
            assert row["repeats"] == len(own) == 3
            uniques = [e["linkage"][subset]["unique_matches"] for e in own]
            assert row["unique_matches"] == {
                "mean": sum(uniques) / len(uniques),
                "min": min(uniques),
                "max": max(uniques),
            }
            metrics = own[0]["utility"]["aggregate"]
            assert sorted(row["utility"]) == sorted(metrics) and len(metrics) > 0
            for metric in metrics:
                means = [e["utility"]["aggregate"][metric]["mean"] for e in own]
                assert row["utility"][metric] == {"mean": sum(means) / len(means), "min": min(means), "max": max(means)}
        # the rows differ between epsilons, so a row built from the wrong entries shows
        assert len({repr(row["utility"]) for row in report["sweep_curve"]}) == len(grid)

    def test_deterministic(self, tmp_path):
        original = fixture_original(n=40)
        a = sweep(tmp_path, original, (0.1, 1.0), 2, 5)
        b = sweep(tmp_path, original, (0.1, 1.0), 2, 5)
        assert dumps_report(strip_volatile(a)) == dumps_report(strip_volatile(b))

    # each plan names an original that does not exist, so a refusal proves nothing was read
    PLAN = {
        "schema": SCHEMA, "outliers": OUTLIER_CFG, "qi": QI_CFG, "original": "missing.csv",
        "sweep": SweepSettings((1.0,)),
    }

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"outliers": None}, "'sweep' requires a [outliers] section in the config"),
            ({"qi": None}, "'sweep' requires a [qi ...] section in the config"),
            ({"sweep": None}, "'sweep' requires a [sweep] section in the config"),
            ({"original": None}, "sweep requires [paths] original"),
            ({"sweep": SweepSettings(())}, "epsilon grid must not be empty"),
            ({"sweep": SweepSettings((0.1, 1.0, 0.1))}, "epsilon grid lists an epsilon more than once: [0.1, 1.0, 0.1]"),
            ({"sweep": SweepSettings((1.0,), 0)}, "repeats must be >= 1, got 0"),
        ],
        ids=["no-outliers", "no-qi", "no-sweep", "no-original", "empty-grid", "duplicate-epsilon", "repeats-0"],
    )
    def test_a_plan_that_cannot_run_is_refused_before_the_original_is_read(self, tmp_path, change, message):
        with pytest.raises(ConfigError) as caught:
            sweep_epsilon(RunConfig(**{**self.PLAN, **change}), tmp_path)
        assert str(caught.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_a_plan_that_can_run_reads_its_original_from_base_dir(self, tmp_path):
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(tmp_path / 'missing.csv'))}: "):
            sweep_epsilon(RunConfig(**self.PLAN), tmp_path)
        save_dataset(fixture_original(n=30), tmp_path / "missing.csv")
        assert len(sweep_epsilon(RunConfig(**self.PLAN), tmp_path)["variants"]) == 1


def count_calls(monkeypatch, function, *modules):
    """Replace ``function`` in each module that uses it by a wrapper that
    records the arguments of every call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(f"{module}.{function.__name__}", counted)
    return calls


class TestOriginalPreparedOncePerRun:
    """Each layer computes its share of a dataset once per dataset object.
    The computations are counted by wrapping the private function behind
    each public one: outliers._detect, dp_synth._count_all, utility._reduce."""

    def test_run_audit_detects_outliers_and_reduces_the_original_once(
        self, tmp_path, original_csv, monkeypatch
    ):
        path, _ = original_csv
        detects = count_calls(monkeypatch, outliers._detect, "synthaudit.outliers")
        reductions = count_calls(monkeypatch, utility._reduce, "synthaudit.utility")
        plan = make_plan(
            tmp_path, path, [VariantSpec(name="a", epsilon=1.0, seed=1), VariantSpec(name="b", epsilon=0.5, seed=2)]
        )
        report = run_audit(*plan)
        assert [e["status"] for e in report["variants"]] == ["ok", "ok"]
        assert sum(len(e["linkage"]) for e in report["variants"]) == 4
        assert len(detects) == 1
        assert len(reductions) == 1

    def test_run_audit_counts_histograms_once_per_bin_count(self, tmp_path, original_csv, monkeypatch):
        path, _ = original_csv
        counts = count_calls(monkeypatch, dp_synth._count_all, "synthaudit.dp_synth")
        variants = [
            VariantSpec(name="a", epsilon=1.0, seed=1, num_bins=8),
            VariantSpec(name="b", epsilon=0.5, seed=2),
            VariantSpec(name="c", epsilon=2.0, seed=3, num_bins=8),
            VariantSpec(name="d", epsilon=0.1, seed=4, num_bins=16),
            VariantSpec(name="e", epsilon=5.0, seed=5),
        ]
        run_audit(*make_plan(tmp_path, path, variants, ladder=(("age", "income"),)))
        assert sorted(num_bins for _, num_bins in counts) == [8, 16, DEFAULT_NUM_BINS]
        assert len({id(ds) for ds, _ in counts}) == 1

    def test_sweep_prepares_once(self, tmp_path, monkeypatch):
        detects = count_calls(monkeypatch, outliers._detect, "synthaudit.outliers")
        counts = count_calls(monkeypatch, dp_synth._count_all, "synthaudit.dp_synth")
        reductions = count_calls(monkeypatch, utility._reduce, "synthaudit.utility")
        loaded = []

        def load(path, schema):
            loaded.append(load_dataset(path, schema))
            return loaded[-1]

        monkeypatch.setattr("synthaudit.audit.load_dataset", load)
        report = sweep(tmp_path, fixture_original(n=80), (0.1, 1.0, 5.0), 2, 0, num_bins=12)
        assert len(report["variants"]) == 6
        [original] = loaded  # one dataset object, prepared once by each layer
        assert [args[0] is original for args in detects] == [True]
        assert [(ds is original, num_bins) for ds, num_bins in counts] == [(True, 12)]
        assert [args[0] is original for args in reductions] == [True]

    def test_ladder_subsets_are_built_once_per_plan(self, tmp_path, original_csv, monkeypatch):
        path, _ = original_csv
        ladder = (("income", "age"), ("home", "age", "income"))
        variants = [VariantSpec(name="a", epsilon=1.0, seed=1), VariantSpec(name="b", epsilon=0.5, seed=2)]
        cfg, out, base_dir = make_plan(tmp_path, path, variants, ladder=ladder)

        def refuse(self, names):
            raise AssertionError("QIConfig.subset ran after the plan was checked")

        def check_then_refuse(qi, ladder):  # run_audit checks the plan, and so builds its subsets, first
            subsets = check_ladder(qi, ladder)
            monkeypatch.setattr(QIConfig, "subset", refuse)
            return subsets

        monkeypatch.setattr("synthaudit.audit.check_ladder", check_then_refuse)
        report = run_audit(cfg, out, base_dir)
        assert [e["status"] for e in report["variants"]] == ["ok", "ok"]
        for entry in report["variants"]:
            # keys and pair files follow the ladder's order; score columns the configured order
            assert list(entry["linkage"]) == ["income,age", "home,age,income"]
            for subset, scores in (("income-age", "age,income"), ("home-age-income", "age,income,home")):
                pairs = out / "pairs" / f"{entry['name']}__{subset}.csv"
                header = pairs.read_text().splitlines()[0].split(",")
                assert header == ["original_index", "synthetic_index", *(f"score_{q}" for q in scores.split(","))]

    def test_variant_outliers_detected_once_per_variant(self, tmp_path, original_csv, monkeypatch):
        path, original = original_csv
        detects = count_calls(monkeypatch, outliers._detect, "synthaudit.outliers")
        plan = make_plan(
            tmp_path,
            path,
            [VariantSpec(name="a", epsilon=1.0, seed=1), VariantSpec(name="b", epsilon=0.5, seed=2)],
            restrict_variant_outliers=True,
        )
        report = run_audit(*plan)
        assert sum(len(e["linkage"]) for e in report["variants"]) == 4
        assert len(detects) == 3  # the original, then each variant once for both subsets
        assert [args[0] == original for args in detects] == [True, False, False]


def test_audit_equals_unprepared_calls_across_bin_counts_and_variant_outliers(tmp_path, original_csv):
    """Generated variants with their own num_bins and restrict_variant_outliers:
    the report, variant files and pair files equal what synthesize,
    compute_utility and attack give per variant without prepared arguments."""
    path, _ = original_csv
    variants = [
        VariantSpec(name="coarse", epsilon=1.0, seed=1, num_bins=2),
        VariantSpec(name="fine", epsilon=5.0, seed=2, num_bins=64),
        VariantSpec(name="default", epsilon=0.5, seed=3),
        VariantSpec(name="coarse_again", epsilon=2.0, seed=4, num_bins=2, n=50),
    ]
    defaults = SynthSettings(epsilon=1.0, n=120, num_bins=10, seed=0)
    cfg, out, base_dir = make_plan(tmp_path, path, variants, synth=defaults, restrict_variant_outliers=True)
    report = dumps_report(strip_volatile(run_audit(cfg, out, base_dir)))

    original = load_dataset(path, SCHEMA)
    expected_dir = tmp_path / "expected"
    entries = []
    for spec in variants:
        n = spec.n or defaults.n
        num_bins = spec.num_bins or defaults.num_bins
        variant = synthesize(original, spec.epsilon, n, num_bins, spec.seed)
        save_dataset(variant, expected_dir / f"{spec.name}.csv")
        generator = generator_metadata(SCHEMA, spec.epsilon, n, num_bins, spec.seed)
        generator["path"] = f"variants/{spec.name}.csv"
        entry = {
            "name": spec.name,
            "status": "ok",
            "generator": generator,
            "utility": compute_utility(original, variant).to_dict(),
            "linkage": {},
        }
        for subset in LADDER:
            result = attack(
                original, variant, OUTLIER_CFG, QI_CFG, qi_subset=subset, restrict_variant_outliers=True
            )
            pairs_file = f"pairs/{spec.name}__{'-'.join(subset)}.csv"
            save_matches(result, expected_dir / pairs_file)
            entry["linkage"][",".join(subset)] = {
                "possible_matches": len(result.pairs),
                "distinct_originals": result.distinct_original_count,
                "unique_matches": result.unique_match_count,
                "targets": result.attack_surface[0],
                "variant_rows": result.attack_surface[1],
                "per_original": {str(k): v for k, v in result.per_original_match_count.items()},
                "pairs_file": pairs_file,
            }
        entries.append(entry)
    run_meta = {
        "config_hash": config_hash(cfg),
        "effective_config": render_config(cfg),
        "original": {
            "path": str(path),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "row_count": original.row_count,
        },
        "outliers": {
            "count": len(detect_outliers(original, OUTLIER_CFG)),
            "k": OUTLIER_CFG.k,
            "combine": OUTLIER_CFG.combine.value,
            "attributes": list(OUTLIER_CFG.attributes),
        },
        "ladder": [",".join(subset) for subset in LADDER],
    }
    assert report == dumps_report({"run_meta": run_meta, "variants": entries})

    for spec in variants:
        name = f"{spec.name}.csv"
        assert (out / "variants" / name).read_bytes() == (expected_dir / name).read_bytes()
    pair_files = sorted(p.name for p in (out / "pairs").iterdir())
    assert pair_files == sorted(p.name for p in (expected_dir / "pairs").iterdir())
    assert len(pair_files) == len(variants) * len(LADDER)
    matched = 0
    for name in pair_files:
        actual = (out / "pairs" / name).read_text()
        assert actual == (expected_dir / "pairs" / name).read_text()
        matched += len(actual.splitlines()) - 1
    assert matched > 0  # restricting to the variants' outliers still leaves matches
