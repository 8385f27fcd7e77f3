from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from synthaudit import Dataset, save_dataset
from synthaudit.cli import main
from synthaudit.config import load_config, parse_config

from test_audit import SCHEMA, fixture_original

BASE_CONFIG = """\
[schema]
age = numerical qi
income = numerical qi
home = categorical qi

[outliers]
k = {k}
attributes = age income
combine = any

[qi age]
comparator = gauss
offset = 2
scale = 3

[qi income]
comparator = gauss
offset = 1000
scale = 1000

[qi home]
comparator = levenshtein
"""

EXACT_QI_CONFIG = """\
[schema]
age = numerical qi
income = numerical qi
home = categorical qi

[outliers]
k = {k}
attributes = age income

[qi age]
comparator = gauss
offset = 0
scale = 1
threshold = 1

[qi income]
comparator = gauss
offset = 0
scale = 1
threshold = 1

[qi home]
comparator = levenshtein
"""


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def workdir(tmp_path):
    original = fixture_original(n=80, seed=4)
    save_dataset(original, tmp_path / "original.csv")
    return tmp_path, original


class TestOutliersCommand:
    def test_summary_line_and_listing(self, workdir, capsys):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1.5))
        assert main(["outliers", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp)]) == 0
        out = capsys.readouterr().out
        count = int(out.split()[0])
        assert out.strip().endswith("outliers")
        listing = (tmp / "outliers.csv").read_text().splitlines()
        assert len(listing) == count + 1

    def test_constant_columns_report_zero(self, tmp_path, capsys):
        ds = Dataset.from_columns(
            SCHEMA, {"age": [30.0] * 5, "income": [1000.0] * 5, "home": ["RENT"] * 5}
        )
        save_dataset(ds, tmp_path / "const.csv")
        cfg = write(tmp_path / "cfg.ini", BASE_CONFIG.format(k=3))
        assert main(["outliers", "-c", str(cfg), str(tmp_path / "const.csv"), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "0 outliers"

    def test_raising_k_never_raises_count(self, workdir, capsys):
        tmp, _ = workdir
        counts = []
        for k in (3.0, 4.0):
            cfg = write(tmp / f"cfg{k}.ini", BASE_CONFIG.format(k=k))
            main(["outliers", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp)])
            counts.append(int(capsys.readouterr().out.split()[0]))
        assert counts[1] <= counts[0]


class TestLinkCommand:
    def test_identity_unique_matches_equal_qi_unique_outliers(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        n = 60
        ages = rng.integers(20, 45, n).astype(float)
        incomes = (rng.integers(20, 60, n) * 1000).astype(float)
        homes = [["RENT", "OWN"][i] for i in rng.integers(0, 2, n)]
        # plant extremes: two sharing one QI tuple, one globally unique
        ages[0], incomes[0], homes[0] = 95.0, 400000.0, "RENT"
        ages[1], incomes[1], homes[1] = 95.0, 400000.0, "RENT"
        ages[2], incomes[2], homes[2] = 90.0, 390000.0, "OWN"
        ds = Dataset.from_columns(SCHEMA, {"age": ages, "income": incomes, "home": homes})
        save_dataset(ds, tmp_path / "original.csv")
        save_dataset(ds, tmp_path / "copy.csv")
        cfg = write(tmp_path / "cfg.ini", EXACT_QI_CONFIG.format(k=2.0))

        assert main(
            [
                "link",
                "-c",
                str(cfg),
                str(tmp_path / "original.csv"),
                str(tmp_path / "copy.csv"),
                "--out",
                str(tmp_path),
            ]
        ) == 0
        summary = capsys.readouterr().out
        unique_reported = int(summary.split("unique matches")[0].split(",")[-1].strip())

        # independent expectation: outliers (hand-planted extremes) with a
        # globally unique (age, income, home) tuple
        tuples = Counter(zip(ages, incomes, homes))
        flagged = {0, 1, 2}
        expected = sum(1 for i in flagged if tuples[(ages[i], incomes[i], homes[i])] == 1)
        assert unique_reported == expected == 1

    def test_empty_outlier_set_zero_matches(self, workdir, capsys):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=50))
        code = main(
            ["link", "-c", str(cfg), str(tmp / "original.csv"), str(tmp / "original.csv"), "--out", str(tmp)]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("0 possible matches")

    def test_toy_fixture_matches_hand_enumerated_list(self, tmp_path, capsys):
        original = Dataset.from_columns(
            SCHEMA,
            {
                "age": [100, 20, 21, 22, 23],
                "income": [1000, 1000, 1100, 900, 100000],
                "home": ["RENT", "RENT", "OWN", "RENT", "OWN"],
            },
        )
        variant = Dataset.from_columns(
            SCHEMA,
            {
                "age": [99, 100, 50, 23, 24],
                "income": [1500, 5000, 1000, 99000, 101500],
                "home": ["RENT", "RENT", "RENT", "OWN", "RENT"],
            },
        )
        save_dataset(original, tmp_path / "original.csv")
        save_dataset(variant, tmp_path / "variant.csv")
        cfg = write(tmp_path / "cfg.ini", BASE_CONFIG.format(k=1.5))
        assert main(
            ["link", "-c", str(cfg), str(tmp_path / "original.csv"), str(tmp_path / "variant.csv"), "--out", str(tmp_path)]
        ) == 0
        assert capsys.readouterr().out.startswith("2 possible matches")
        rows = (tmp_path / "pairs.csv").read_text().splitlines()[1:]
        pairs = [tuple(int(x) for x in row.split(",")[:2]) for row in rows]
        # worked out by hand: target 0 matches row 0, target 4 matches row 3
        assert pairs == [(0, 0), (4, 3)]

    def test_qi_subset_flag(self, workdir, capsys):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1.5))
        main(
            ["link", "-c", str(cfg), str(tmp / "original.csv"), str(tmp / "original.csv"), "--qis", "age,income", "--out", str(tmp)]
        )
        header = (tmp / "pairs.csv").read_text().splitlines()[0]
        assert header == "original_index,synthetic_index,score_age,score_income"
        assert capsys.readouterr().out  # summary printed


class TestUtilityCommand:
    SCHEMA_ONE_NUM = "[schema]\nage = numerical qi\n"
    SCHEMA_ONE_CAT = "[schema]\nhome = categorical qi\n"

    def test_identity_variant_all_ones(self, workdir, capsys):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        assert main(
            ["utility", "-c", str(cfg), str(tmp / "original.csv"), str(tmp / "original.csv"), "--out", str(tmp)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for agg in payload["aggregate"].values():
            assert agg["mean"] == 1.0

    def test_shifted_range_fixture(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.ini", self.SCHEMA_ONE_NUM)
        from synthaudit import AttributeSchema, Kind, Role

        schema = (AttributeSchema("age", Kind.NUMERICAL, Role.QI),)
        save_dataset(Dataset.from_columns(schema, {"age": [0, 50, 100]}), tmp_path / "real.csv")
        save_dataset(Dataset.from_columns(schema, {"age": [25, 60, 100]}), tmp_path / "synth.csv")
        main(["utility", "-c", str(cfg), str(tmp_path / "real.csv"), str(tmp_path / "synth.csv"), "--out", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_attribute"]["age"]["RangeCoverage"] == 0.75

    def test_categorical_subset_fixture(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.ini", self.SCHEMA_ONE_CAT)
        from synthaudit import AttributeSchema, Kind, Role

        schema = (AttributeSchema("home", Kind.CATEGORICAL, Role.QI),)
        save_dataset(Dataset.from_columns(schema, {"home": ["A", "B", "C", "D"]}), tmp_path / "real.csv")
        save_dataset(Dataset.from_columns(schema, {"home": ["A", "B", "A"]}), tmp_path / "synth.csv")
        main(["utility", "-c", str(cfg), str(tmp_path / "real.csv"), str(tmp_path / "synth.csv"), "--out", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_attribute"]["home"]["CategoryCoverage"] == 0.5


SYNTH_CONFIG = BASE_CONFIG.format(k=3) + "\n[synth]\nepsilon = 1.0\nn = 120\nnum_bins = 8\nseed = 5\n"


class TestSynthesizeCommand:
    def test_fixed_seed_is_byte_identical(self, workdir, capsys):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        for name in ("s1.csv", "s2.csv"):
            assert main(
                ["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp / name)]
            ) == 0
        assert (tmp / "s1.csv").read_bytes() == (tmp / "s2.csv").read_bytes()
        assert "wrote 120 rows" in capsys.readouterr().out

    def test_zero_rows_rejected_with_config_exit(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        code = main(
            ["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp / "x.csv"), "--n", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize("epsilon", ["0.01", "0.1", "0.2", "0.5", "1.0", "5.0", "10.0"])
    def test_epsilon_grid_accepted(self, workdir, epsilon):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        assert main(
            [
                "synthesize", "-c", str(cfg), str(tmp / "original.csv"),
                "--out", str(tmp / f"eps{epsilon}.csv"), "--epsilon", epsilon, "--n", "40",
            ]
        ) == 0


class TestExitCodes:
    def test_unknown_config_key_is_2(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "bad.ini", BASE_CONFIG.format(k=3) + "\n[outliers2]\nk = 1\n")
        assert main(["outliers", "-c", str(cfg), str(tmp / "original.csv")]) == 2

    def test_missing_config_is_2(self, workdir):
        tmp, _ = workdir
        assert main(["outliers", "-c", str(tmp / "absent.ini"), str(tmp / "original.csv")]) == 2

    def test_missing_data_file_is_3(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        assert main(["outliers", "-c", str(cfg), str(tmp / "absent.csv"), "--out", str(tmp)]) == 3

    def test_corrupt_data_is_3(self, workdir):
        tmp, _ = workdir
        bad = tmp / "bad.csv"
        bad.write_text("age,income,home\nten,1,RENT\n", encoding="utf-8")
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        assert main(["outliers", "-c", str(cfg), str(bad), "--out", str(tmp)]) == 3

    def test_unexpected_failure_is_4(self, workdir, monkeypatch):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        monkeypatch.setattr(
            "synthaudit.cli.detect_outliers",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        assert main(["outliers", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp)]) == 4


PLAN_TEMPLATE = BASE_CONFIG.format(k=1.5) + """
[synth]
epsilon = 1.0
n = 80
num_bins = 8
seed = 5

[paths]
original = original.csv
output_dir = {out}

[attack]
ladder = age income | age income home

[variant copy]
file = copy.csv

[variant dp]
epsilon = 0.5
seed = 11
"""


class TestAuditCommand:
    def test_report_tree_and_config_echo(self, workdir, capsys):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        assert main(["audit", "--plan", str(plan)]) == 0
        stdout = capsys.readouterr().out
        assert "report:" in stdout

        report = json.loads((tmp / "out" / "report.json").read_text())
        assert {v["name"] for v in report["variants"]} == {"copy", "dp"}
        assert all(v["status"] == "ok" for v in report["variants"])
        assert (tmp / "out" / "outliers.csv").is_file()
        assert (tmp / "out" / "variants" / "dp.csv").is_file()

        # the echoed effective config re-parses to an equivalent RunConfig
        echoed = parse_config(report["run_meta"]["effective_config"])
        assert echoed == load_config(plan)

    def test_invalid_blocking_is_2_before_any_work(self, workdir):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("[attack]\n", "[attack]\nblocking = age\n")
        plan = write(tmp / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 2
        assert not (tmp / "out" / "report.json").exists()
        assert not (tmp / "out" / "outliers.csv").exists()

    def test_missing_original_is_3(self, tmp_path):
        plan = write(tmp_path / "plan.ini", PLAN_TEMPLATE.format(out=tmp_path / "out"))
        assert main(["audit", "--plan", str(plan)]) == 3


class TestSweepCommand:
    def test_sweep_writes_curve(self, workdir, capsys):
        tmp, _ = workdir
        plan = write(
            tmp / "plan.ini",
            PLAN_TEMPLATE.format(out=tmp / "out") + "\n[sweep]\ngrid = 0.1 1.0\nrepeats = 2\nbase_seed = 1\n",
        )
        assert main(["sweep", "--plan", str(plan)]) == 0
        curve = (tmp / "out" / "sweep_curve.csv").read_text().splitlines()
        assert curve[0].startswith("epsilon,repeats,unique_matches_mean")
        assert len(curve) == 3
        report = json.loads((tmp / "out" / "sweep_report.json").read_text())
        assert [row["epsilon"] for row in report["sweep_curve"]] == [0.1, 1.0]
        assert len(report["variants"]) == 4


class TestOutputDirResolution:
    def test_env_var_overrides_config(self, workdir, monkeypatch, capsys):
        tmp, _ = workdir
        envout = tmp / "envout"
        monkeypatch.setenv("SYNTHAUDIT_OUT", str(envout))
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        assert main(["outliers", "-c", str(cfg), str(tmp / "original.csv")]) == 0
        assert (envout / "outliers.csv").is_file()

    def test_flag_beats_env_var(self, workdir, monkeypatch, capsys):
        tmp, _ = workdir
        monkeypatch.setenv("SYNTHAUDIT_OUT", str(tmp / "envout"))
        flagout = tmp / "flagout"
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        assert main(["outliers", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(flagout)]) == 0
        assert (flagout / "outliers.csv").is_file()
        assert not (tmp / "envout" / "outliers.csv").exists()
