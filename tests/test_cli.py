from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import synthaudit
from synthaudit import (
    AttributeSchema, Dataset, Kind, Role, detect_outliers, load_dataset, run_audit, save_dataset, sweep_epsilon,
    synthesize,
)
from synthaudit.cli import build_parser, main
from synthaudit.config import config_hash, load_config, parse_config, render_config
from synthaudit.report import dumps_report, strip_volatile, write_report

from test_audit import SCHEMA, count_calls, fixture_original

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


def without(text: str, *headers: str) -> str:
    """``text`` without the sections whose header starts with one of ``headers``."""
    return "\n\n".join(block for block in text.split("\n\n") if not block.startswith(headers))


def run_child(*args, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this synthaudit with ``args``; a
    run that outlasts ``timeout`` seconds raises ``TimeoutExpired``."""
    src = str(Path(synthaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=timeout
    )


def run_python(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter that imports this synthaudit; return its stdout."""
    done = run_child("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_row_under_sample_stddev_is_3(self, tmp_path, caplog):
        ds = Dataset.from_columns(SCHEMA, {"age": [30.0], "income": [1000.0], "home": ["RENT"]})
        save_dataset(ds, tmp_path / "one.csv")
        cfg = write(tmp_path / "cfg.ini", BASE_CONFIG.format(k=1).replace("combine = any\n", "stddev = sample\n"))
        assert main(["outliers", "-c", str(cfg), str(tmp_path / "one.csv"), "--out", str(tmp_path)]) == 3
        assert "outlier attribute 'age': stddev with ddof=1 is undefined for 1 row(s)" in caplog.text
        assert not (tmp_path / "outliers.csv").exists()

    def test_a_column_whose_variance_overflows_is_3(self, tmp_path, caplog):
        ds = Dataset.from_columns(
            SCHEMA, {"age": [30.0] * 100 + [1e160] * 2, "income": [1000.0] * 102, "home": ["RENT"] * 102}
        )
        save_dataset(ds, tmp_path / "huge.csv")
        cfg = write(tmp_path / "cfg.ini", BASE_CONFIG.format(k=1))
        assert main(["outliers", "-c", str(cfg), str(tmp_path / "huge.csv"), "--out", str(tmp_path)]) == 3
        [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert re.fullmatch(r"data error: outlier attribute 'age': mean 1\.96\d*e\+158 and stddev inf overflow a float",
                            error)
        assert not (tmp_path / "outliers.csv").exists()

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

    @pytest.mark.parametrize(
        "qis, message",
        [
            ("age,age", "QI subset 'age,age' names 'age' more than once"),
            ("income,age,income", "QI subset 'income,age,income' names 'income' more than once"),
            ("age,nope", "QI subset names not configured: ['nope']"),
        ],
    )
    def test_bad_qi_subset_is_2_before_any_data_is_read(self, tmp_path, caplog, qis, message):
        cfg = write(tmp_path / "cfg.ini", BASE_CONFIG.format(k=1.5))
        before = sorted(tmp_path.rglob("*"))
        missing = str(tmp_path / "missing.csv")  # read first, this would be a data error, 3
        assert main(["link", "-c", str(cfg), missing, missing, "--qis", qis, "--out", str(tmp_path / "out")]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"configuration error: {message}"]

    def test_outliers_detected_once_per_run(self, workdir, monkeypatch, capsys):
        tmp, _ = workdir
        detects = count_calls(monkeypatch, detect_outliers, "synthaudit.outliers", "synthaudit.linkage")
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1.5))
        args = ["link", "-c", str(cfg), str(tmp / "original.csv"), str(tmp / "original.csv"), "--out", str(tmp)]
        assert main(args) == 0
        assert int(capsys.readouterr().out.split()[0]) > 0
        assert len(detects) == 1


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

    def test_negative_seed_is_config_exit_without_traceback(self, workdir, caplog):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        code = main(
            ["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp / "x.csv"), "--seed", "-3"]
        )
        assert code == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: seed must be non-negative, got -3"
        ]
        assert not any(r.exc_info for r in caplog.records)
        assert not (tmp / "x.csv").exists()

    def test_zero_rows_rejected_with_config_exit(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        code = main(
            ["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp / "x.csv"), "--n", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be non-negative, got -1"),
            ("--num-bins", "0", "num_bins must be >= 1, got 0"),
            ("--epsilon", "nan", "epsilon must be positive and finite, got nan"),
            ("--epsilon", "inf", "epsilon must be positive and finite, got inf"),
        ],
    )
    def test_bad_setting_is_2_before_the_original_is_read(self, tmp_path, caplog, flag, value, message):
        cfg = write(tmp_path / "cfg.ini", SYNTH_CONFIG)
        out = tmp_path / "x.csv"
        code = main(["synthesize", "-c", str(cfg), str(tmp_path / "absent.csv"), "--out", str(out), flag, value])
        assert code == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"configuration error: {message}"
        ]
        assert not out.exists()

    def test_infinite_epsilon_writes_nothing(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        out = tmp / "x.csv"
        code = main(
            ["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(out), "--epsilon", "inf", "--n", "5"]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "'synthesize' requires --epsilon or [synth] epsilon"),
            (["--n", "5"], "'synthesize' requires --epsilon or [synth] epsilon"),
            (["--epsilon", "1.0"], "'synthesize' requires --n or [synth] n"),
            (["--epsilon", "0"], "'synthesize' requires --n or [synth] n"),  # a missing value is named first
            (["--epsilon", "0", "--n", "5"], "epsilon must be positive and finite, got 0.0"),
            (["--epsilon", "1.0", "--n", "0"], "row count n must be >= 1, got 0"),
        ],
        ids=["no-flags", "no-epsilon", "no-n", "no-n-zero-epsilon", "zero-epsilon", "zero-n"],
    )
    def test_without_synth_section_a_missing_flag_is_named(self, tmp_path, caplog, flags, message):
        # there is no original: reading it would exit 3
        cfg = write(tmp_path / "cfg.ini", BASE_CONFIG.format(k=3))
        out = tmp_path / "x.csv"
        code = main(["synthesize", "-c", str(cfg), str(tmp_path / "absent.csv"), "--out", str(out), *flags])
        assert code == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"configuration error: {message}"
        ]
        assert not out.exists()

    def test_without_synth_section_the_flags_suffice(self, workdir, capsys):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        args = ["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(tmp / "x.csv")]
        assert main([*args, "--epsilon", "1.0", "--n", "10"]) == 0
        assert "wrote 10 rows" in capsys.readouterr().out

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


    @pytest.mark.parametrize(
        "flag, value, key",
        [("--epsilon", "0.25", "epsilon"), ("--n", "33", "n"), ("--num-bins", "3", "num_bins"), ("--seed", "9", "seed")],
    )
    def test_a_flag_replaces_only_its_synth_key(self, workdir, capsys, flag, value, key):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", SYNTH_CONFIG)
        out = tmp / "x.csv"
        assert main(["synthesize", "-c", str(cfg), str(tmp / "original.csv"), "--out", str(out), flag, value]) == 0
        settings = {"epsilon": 1.0, "n": 120, "num_bins": 8, "seed": 5}  # SYNTH_CONFIG's [synth]
        settings[key] = type(settings[key])(value)
        save_dataset(synthesize(load_dataset(tmp / "original.csv", SCHEMA), **settings), tmp / "expected.csv")
        assert out.read_bytes() == (tmp / "expected.csv").read_bytes()
        assert f"wrote {settings['n']} rows to {out} (epsilon={settings['epsilon']}, seed={settings['seed']})" in (
            capsys.readouterr().out
        )


class TestExitCodes:
    def test_unknown_config_key_is_2(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "bad.ini", BASE_CONFIG.format(k=3) + "\n[outliers2]\nk = 1\n")
        assert main(["outliers", "-c", str(cfg), str(tmp / "original.csv")]) == 2

    @pytest.mark.parametrize("command", ["link", "sweep"])
    def test_workers_is_2_where_no_attack_reads_it(self, workdir, command):
        tmp, _ = workdir
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out") + "\n[sweep]\ngrid = 1.0\n")
        original = tmp / "original.csv"
        args = {
            "link": ["link", "-c", plan, original, original, "--out", tmp / "out"],
            "sweep": ["sweep", "--plan", plan],
        }[command]
        before = sorted(tmp.rglob("*"))
        with pytest.raises(SystemExit) as caught:
            main([*map(str, args), "--workers", "2"])
        assert caught.value.code == 2
        assert sorted(tmp.rglob("*")) == before
        assert main(list(map(str, args))) == 0  # the same command runs without the flag

    @pytest.mark.parametrize("command", ["outliers", "link"])
    def test_attribute_name_that_breaks_the_trail_is_2(self, workdir, caplog, command):
        # the data file quotes the name, so it would load; the unquoted
        # listing and pair file would not read back
        tmp, _ = workdir
        text = (tmp / "original.csv").read_text(encoding="utf-8")
        data = write(tmp / "quoted.csv", text.replace("income", '"in,come"', 1))
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1).replace("income", "in,come"))
        out = tmp / "out"
        sides = [str(data)] * (2 if command == "link" else 1)
        assert main([command, "-c", str(cfg), *sides, "--out", str(out)]) == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: attribute names must not contain ',', '\"', '|' or a line break: ['in,come']"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, headers, message",
        [
            ("outliers", ("[outliers]",), "'outliers' requires a [outliers] section in the config"),
            ("link", ("[outliers]",), "'link' requires a [outliers] section in the config"),
            ("link", ("[qi ", "[attack]"), "'link' requires a [qi ...] section in the config"),
            ("audit", ("[outliers]",), "'audit' requires a [outliers] section in the config"),
            ("audit", ("[qi ", "[attack]"), "'audit' requires a [qi ...] section in the config"),
            ("audit", ("[paths]",), "audit plan requires [paths] original"),
            ("sweep", ("[outliers]",), "'sweep' requires a [outliers] section in the config"),
            ("sweep", ("[qi ", "[attack]"), "'sweep' requires a [qi ...] section in the config"),
            ("sweep", ("[sweep]",), "'sweep' requires a [sweep] section in the config"),
            ("sweep", ("[paths]",), "sweep requires [paths] original"),
        ],
    )
    def test_a_missing_section_is_2_before_any_data_is_read(self, tmp_path, caplog, command, headers, message):
        # there is no original.csv: reading it would exit 3
        text = PLAN_TEMPLATE.format(out=tmp_path / "out") + "\n[sweep]\ngrid = 1.0\n"
        plan, original = write(tmp_path / "plan.ini", without(text, *headers)), tmp_path / "original.csv"
        args = {
            "outliers": ["outliers", "-c", plan, original],
            "link": ["link", "-c", plan, original, original],
            "audit": ["audit", "--plan", plan],
            "sweep": ["sweep", "--plan", plan],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        assert main([*map(str, args), "--out", str(tmp_path / "out")]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"configuration error: {message}"]

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

    def test_a_bad_token_in_the_variant_names_the_variant(self, workdir):
        # link loads two tables, so the message says which one holds the bad row
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        variant = write(tmp / "variant.csv", "age,income,home\n30,1,RENT\nx,1,RENT\n")
        done = run_child("-m", "synthaudit", "link", "-c", cfg, tmp / "original.csv", variant, "--out", tmp / "out")
        assert done.returncode == 3, done.stderr
        assert done.stderr.splitlines() == [
            f"ERROR synthaudit: data error: {variant}: non-numeric token 'x' in numeric column 'age' (data row 2)"
        ]

    def test_undecodable_or_malformed_data_is_3(self, workdir):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        latin1 = tmp / "latin1.csv"
        latin1.write_bytes("age,income,home\n30,1,café\n".encode("latin-1"))
        huge = write(tmp / "huge.csv", f"age,income,home\n30,1,{'x' * 200_000}\n")
        for bad in (latin1, huge):
            assert main(["outliers", "-c", str(cfg), str(bad), "--out", str(tmp)]) == 3

    def test_unwritable_output_is_3_without_traceback(self, workdir, caplog):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1.5))
        write(tmp / "afile", "not a directory\n")
        original = str(tmp / "original.csv")
        for argv in (
            ["outliers", "-c", str(cfg), original],
            ["link", "-c", str(cfg), original, original],
            ["utility", "-c", str(cfg), original, original],
        ):
            caplog.clear()
            assert main([*argv, "--out", str(tmp / "afile" / "sub")]) == 3
            [record] = [r for r in caplog.records if "cannot write" in r.getMessage()]
            assert record.getMessage().startswith(f"data error: cannot write {tmp / 'afile'}")
            assert record.exc_info is None

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_a_write_that_fails_on_flush_names_its_file(self, tmp_path, caplog):
        # a full device fails only when the buffered write is flushed, and that OSError has no filename
        cfg = write(tmp_path / "c.ini", "[schema]\na = numerical qi\nb = categorical\n")
        original = write(tmp_path / "o.csv", "a,b\n1,x\n2,y\n3,x\n")
        argv = ["synthesize", "-c", str(cfg), str(original), "--out", "/dev/full", "--epsilon", "1", "--n", "5"]
        assert main(argv) == 3
        [record] = [r for r in caplog.records if "cannot write" in r.getMessage()]
        assert record.getMessage().startswith("data error: cannot write /dev/full: ")
        with pytest.raises(OSError) as error:
            write_report({}, "/dev/full")
        assert str(error.value.filename) == "/dev/full"

    def test_unexpected_failure_is_4(self, workdir, monkeypatch):
        tmp, _ = workdir
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=3))
        monkeypatch.setattr(
            "synthaudit.outliers.detect_outliers",
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

    def test_invalid_blocking_is_2_before_any_work(self, workdir, caplog):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("[attack]\n", "[attack]\nblocking = age\n")
        plan = write(tmp / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 2
        assert not (tmp / "out" / "report.json").exists()
        assert not (tmp / "out" / "outliers.csv").exists()
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: unknown keys in [attack]: ['blocking']"
        ]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("epsilon = 0.5\n", "epsilon = -1\n"),
            ("epsilon = 0.5\n", "epsilon = nan\n"),
            ("epsilon = 0.5\n", "epsilon = 0.5\nn = 0\n"),
            ("epsilon = 0.5\n", "epsilon = 0.5\nnum_bins = 0\n"),
            ("seed = 11\n", "seed = -3\n"),
            ("seed = 5\n", "seed = -1\n"),
            ("offset = 2\n", "offset = nan\n"),
            ("scale = 3\n", "scale = inf\n"),
            ("k = 1.5\n", "k = inf\n"),
        ],
        ids=[
            "variant-epsilon-negative",
            "variant-epsilon-nan",
            "variant-n-0",
            "variant-num_bins-0",
            "variant-seed-negative",
            "synth-seed-negative",
            "gauss-offset-nan",
            "gauss-scale-inf",
            "outliers-k-inf",
        ],
    )
    def test_bad_generator_or_gauss_setting_is_2_before_any_data_is_read(self, tmp_path, old, new):
        # there is no original.csv: reading it would exit 3
        template = PLAN_TEMPLATE.format(out=tmp_path / "out")
        assert old in template
        plan = write(tmp_path / "plan.ini", template.replace(old, new, 1))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_row_variant_under_sample_stddev_is_a_failed_variant(self, workdir, capsys):
        # restrict_variant_outliers detects the variant's own outliers
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        one = Dataset.from_columns(SCHEMA, {"age": [30.0], "income": [1000.0], "home": ["RENT"]})
        save_dataset(one, tmp / "one.csv")
        text = (
            PLAN_TEMPLATE.format(out=tmp / "out")
            .replace("combine = any\n", "combine = any\nstddev = sample\n")
            .replace("[attack]\n", "[attack]\nrestrict_variant_outliers = true\n")
            .replace("[variant dp]\nepsilon = 0.5\nseed = 11\n", "[variant one]\nfile = one.csv\n")
        )
        plan = write(tmp / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 3
        message = "outlier attribute 'age': stddev with ddof=1 is undefined for 1 row(s)"
        assert f"one: FAILED ({message})" in capsys.readouterr().out
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert [(v["name"], v["status"]) for v in report["variants"]] == [("copy", "ok"), ("one", "failed")]
        assert report["variants"][1]["error"] == message

    def test_a_generated_variant_whose_range_overflows_is_a_failed_variant(self, tmp_path, capsys):
        # balance is no outlier attribute, so only binning it for synthesis meets its range
        original = fixture_original(n=80, seed=4)
        schema = (*SCHEMA, AttributeSchema("balance", Kind.NUMERICAL))
        balance = [0.0] * 78 + [-1e308, 1e308]
        columns = {a.name: original.columns[a.name] for a in SCHEMA}
        save_dataset(Dataset.from_columns(schema, {**columns, "balance": balance}), tmp_path / "original.csv")
        text = (
            PLAN_TEMPLATE.format(out=tmp_path / "out")
            .replace("home = categorical qi\n", "home = categorical qi\nbalance = numerical\n", 1)
            .replace("[variant copy]\nfile = copy.csv\n\n", "")
        )
        plan = write(tmp_path / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 3
        message = "attribute 'balance': range -1e+308 to 1e+308 overflows a float, so it cannot be binned"
        assert f"dp: FAILED ({message})" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["variants"] == [{"name": "dp", "status": "failed", "error": message}]

    def test_missing_original_is_3(self, tmp_path):
        plan = write(tmp_path / "plan.ini", PLAN_TEMPLATE.format(out=tmp_path / "out"))
        assert main(["audit", "--plan", str(plan)]) == 3

    def test_failed_variant_is_3_and_report_still_written(self, workdir, capsys):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace(
            "[variant dp]\nepsilon = 0.5\nseed = 11\n", "[variant missing]\nfile = does_not_exist.csv\n"
        )
        plan = write(tmp / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 3
        assert "missing: FAILED (cannot read" in capsys.readouterr().out
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert {v["name"]: v["status"] for v in report["variants"]} == {"copy": "ok", "missing": "failed"}

    def test_bug_inside_variant_is_4_with_traceback(self, workdir, monkeypatch, caplog):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        monkeypatch.setattr(
            "synthaudit.audit.attack",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        assert main(["audit", "--plan", str(plan)]) == 4
        [record] = [r for r in caplog.records if r.getMessage() == "internal error: boom"]
        assert record.exc_info is not None
        assert not (tmp / "out" / "report.json").exists()

    @pytest.mark.parametrize("name", ["../../escaped", "..", ".", "a/b", "a\\b", ""])
    def test_variant_name_that_leaves_the_output_dir_is_2_and_writes_nothing(self, workdir, caplog, name):
        tmp, original = workdir
        text = PLAN_TEMPLATE.format(out=tmp / "a" / "out").replace("[variant dp]", f"[variant {name}]")
        save_dataset(original, tmp / "copy.csv")
        plan = write(tmp / "plan.ini", text)
        before = sorted(tmp.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            f"configuration error: variant name {name!r} must be a file name: not '', '.' or '..', no '/' or '\\'"
        ]

    @pytest.mark.parametrize(
        "ladder, message",
        [
            ("a b | a-b", "variant 'v' subset 'a,b' and variant 'v' subset 'a-b' would both write pairs/v__a-b.csv"),
            # refused as one set of QIs listed twice, before the pair files are named
            ("a b | a b", "[attack] ladder subsets 'a,b' and 'a,b' name the same QIs"),
        ],
        ids=["same-file-name", "subset-twice"],
    )
    def test_subsets_whose_pair_files_collide_are_2_and_write_nothing(self, tmp_path, caplog, ladder, message):
        rng = np.random.default_rng(3)
        schema = tuple(AttributeSchema(name, Kind.NUMERICAL, Role.QI) for name in ("a", "b", "a-b"))
        save_dataset(Dataset.from_columns(schema, {a.name: rng.normal(0, 1, 60) for a in schema}), tmp_path / "o.csv")
        qi = "".join(f"\n[qi {a.name}]\ncomparator = gauss\noffset = 1\nscale = 1\n" for a in schema)
        plan = write(
            tmp_path / "plan.ini",
            "[schema]\na = numerical qi\nb = numerical qi\na-b = numerical qi\n"
            "\n[outliers]\nk = 1\nattributes = a b\n"
            f"{qi}\n[paths]\noriginal = o.csv\noutput_dir = out\n"
            f"\n[attack]\nladder = {ladder}\n\n[variant v]\nepsilon = 1.0\nseed = 1\n",
        )
        before = sorted(tmp_path.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"configuration error: {message}"]

    @pytest.mark.parametrize(
        "ladder, message",
        [
            ("age income | income age", "[attack] ladder subsets 'age,income' and 'income,age' name the same QIs"),
            ("age | home | home age | age home", "[attack] ladder subsets 'home,age' and 'age,home' name the same QIs"),
            ("age income | age age", "QI subset 'age,age' names 'age' more than once"),
            ("home age home", "QI subset 'home,age,home' names 'home' more than once"),
        ],
    )
    def test_ladder_subsets_that_are_not_distinct_sets_are_2_and_write_nothing(self, workdir, caplog, ladder, message):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("ladder = age income | age income home", f"ladder = {ladder}")
        plan = write(tmp / "plan.ini", text)
        before = sorted(tmp.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"configuration error: {message}"]

    def test_ladder_subsets_keep_their_listed_order_in_keys_and_file_names(self, workdir, capsys):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("ladder = age income | age income home", "ladder = income age | home")
        assert main(["audit", "--plan", str(write(tmp / "plan.ini", text))]) == 0
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert report["run_meta"]["ladder"] == ["income,age", "home"]
        for entry in report["variants"]:
            assert sorted(entry["linkage"]) == ["home", "income,age"]  # the report sorts its keys
            assert entry["linkage"]["income,age"]["pairs_file"] == f"pairs/{entry['name']}__income-age.csv"
            # the score columns keep the configured order
            header = (tmp / "out" / "pairs" / f"{entry['name']}__income-age.csv").read_text().splitlines()[0]
            assert header == "original_index,synthetic_index,score_age,score_income"

    def test_a_variant_that_sets_only_its_seed_takes_n_and_num_bins_from_synth(self, workdir):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        # [variant dp] sets its epsilon and its seed; [synth] gives n = 37 and num_bins = 8
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("n = 80", "n = 37")
        assert main(["audit", "--plan", str(write(tmp / "plan.ini", text))]) == 0
        report = json.loads((tmp / "out" / "report.json").read_text())
        generator = report["variants"][1]["generator"]
        assert [generator[key] for key in ("epsilon", "n", "num_bins", "seed")] == [0.5, 37, 8, 11]
        save_dataset(synthesize(load_dataset(tmp / "original.csv", SCHEMA), 0.5, 37, 8, 11), tmp / "expected.csv")
        assert (tmp / "out" / "variants" / "dp.csv").read_bytes() == (tmp / "expected.csv").read_bytes()

    def test_a_variant_without_an_epsilon_takes_it_from_synth(self, workdir):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("[variant dp]\nepsilon = 0.5\nseed = 11\n", "[variant dp]\nseed = 3\n")
        assert main(["audit", "--plan", str(write(tmp / "plan.ini", text))]) == 0
        report = json.loads((tmp / "out" / "report.json").read_text())
        generator = report["variants"][1]["generator"]
        assert [generator[key] for key in ("epsilon", "n", "num_bins", "seed")] == [1.0, 80, 8, 3]

    def test_a_variant_with_no_keys_is_echoed_and_counted(self, workdir):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("[variant dp]\nepsilon = 0.5\nseed = 11\n", "[variant dp]\n")
        plan = write(tmp / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 0
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert [v["name"] for v in report["variants"]] == ["copy", "dp"]
        generator = report["variants"][1]["generator"]
        assert [generator[key] for key in ("epsilon", "n", "num_bins", "seed")] == [1.0, 80, 8, 5]
        # the echoed config keeps the bare variant, so its hash differs from the plan without it
        assert parse_config(report["run_meta"]["effective_config"]) == load_config(plan)
        without = load_config(write(tmp / "without.ini", text.replace("[variant dp]\n", "")))
        assert report["run_meta"]["config_hash"] != config_hash(without)

    def test_a_variant_with_no_epsilon_anywhere_is_2_and_writes_nothing(self, workdir, caplog):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace("epsilon = 1.0\n", "").replace("epsilon = 0.5\n", "")
        plan = write(tmp / "plan.ini", text)
        before = sorted(tmp.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: variant 'dp' needs either a file or an epsilon"
        ]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[variant dp]", "[variant d\0p]"),
            ("original = original.csv", "original = orig\0inal.csv"),
            ("output_dir = {out}", "output_dir = o\0ut"),
        ],
        ids=["variant-name", "original", "output-dir"],
    )
    def test_a_nul_in_the_plan_is_2_and_writes_nothing(self, workdir, caplog, old, new):
        # a NUL would reach a file name, which the OS refuses only once files have been written
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        assert old in PLAN_TEMPLATE
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.replace(old, new).format(out=tmp / "out"))
        before = sorted(tmp.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: config contains a NUL character"
        ]

    def test_a_ladder_qi_name_that_leaves_pairs_is_2_and_writes_nothing(self, tmp_path, caplog):
        rng = np.random.default_rng(3)
        schema = tuple(AttributeSchema(name, Kind.NUMERICAL, Role.QI) for name in ("a", "../../../x"))
        save_dataset(Dataset.from_columns(schema, {a.name: rng.normal(0, 1, 60) for a in schema}), tmp_path / "o.csv")
        qi = "".join(f"\n[qi {a.name}]\ncomparator = gauss\noffset = 1\nscale = 1\n" for a in schema)
        plan = write(
            tmp_path / "plan.ini",
            "[schema]\na = numerical qi\n../../../x = numerical qi\n\n[outliers]\nk = 1\nattributes = a\n"
            f"{qi}\n[paths]\noriginal = o.csv\noutput_dir = {tmp_path / 'out' / 'deep'}\n"
            "\n[attack]\nladder = a | ../../../x\n\n[variant v]\nepsilon = 1.0\nseed = 1\n",
        )
        before = sorted(tmp_path.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp_path.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: variant 'v' subset '../../../x' would write pairs/v__../../../x.csv, "
            "which is not a file in pairs/"
        ]

    def test_an_attribute_name_with_whitespace_is_2_and_writes_nothing(self, workdir, caplog):
        # the name would be echoed into [attack] ladder, which reads it back as two names
        tmp, original = workdir
        text = (tmp / "original.csv").read_text(encoding="utf-8")
        write(tmp / "original.csv", text.replace("age", "person age", 1))
        plan = without(PLAN_TEMPLATE.format(out=tmp / "out"), "[attack]", "[variant copy]")
        plan = plan.replace("age = numerical qi", "person age = numerical qi").replace("[qi age]", "[qi person age]")
        plan = write(tmp / "plan.ini", plan.replace("attributes = age income", "attributes = income"))
        before = sorted(tmp.rglob("*"))
        assert main(["audit", "--plan", str(plan)]) == 2
        assert sorted(tmp.rglob("*")) == before
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "configuration error: [schema] attribute name 'person age' holds whitespace, which separates names"
        ]

    def test_a_missing_original_is_a_read_error(self, tmp_path, caplog):
        plan = write(tmp_path / "plan.ini", PLAN_TEMPLATE.format(out=tmp_path / "out"))
        assert main(["audit", "--plan", str(plan)]) == 3
        [message] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert message.startswith(f"data error: cannot read {tmp_path / 'original.csv'}: ")

    @pytest.mark.parametrize("which", ["original", "copy"])
    def test_an_input_removed_before_it_is_hashed_is_a_read_error(self, workdir, monkeypatch, caplog, capsys, which):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        removed = tmp / f"{which}.csv"
        loaded = []

        def load_then_remove(path, schema):
            loaded.append(load_dataset(path, schema))
            if Path(path) == removed:
                removed.unlink()
            return loaded[-1]

        monkeypatch.setattr("synthaudit.audit.load_dataset", load_then_remove)
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        assert main(["audit", "--plan", str(plan)]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        if which == "original":
            [message] = errors
            assert message.startswith(f"data error: cannot read {removed}: ")
        else:  # a failed variant, and the report is still written
            assert f"copy: FAILED (cannot read {removed}: " in capsys.readouterr().out
            report = json.loads((tmp / "out" / "report.json").read_text())
            assert {v["name"]: v["status"] for v in report["variants"]} == {"copy": "failed", "dp": "ok"}

    def test_absolute_original_path(self, workdir, tmp_path_factory):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace(
            "original = original.csv", f"original = {tmp / 'original.csv'}"
        )
        # the plan lives elsewhere, so only the absolute path can find the original
        plan_dir = tmp_path_factory.mktemp("plans")
        save_dataset(original, plan_dir / "copy.csv")
        plan = write(plan_dir / "plan.ini", text)
        assert main(["audit", "--plan", str(plan)]) == 0
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert report["run_meta"]["original"]["path"] == str(tmp / "original.csv")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
class TestNamedPipes:
    """An audit hashes the original and each file variant after loading it, so
    it refuses an input that is not a regular file; the other commands read
    each input once, so they still read a pipe."""

    def test_a_fifo_original_is_3_without_waiting_for_a_writer(self, workdir):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        (tmp / "original.csv").unlink()
        os.mkfifo(tmp / "original.csv")
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        done = run_child("-m", "synthaudit", "audit", "--plan", plan, timeout=60)
        assert done.returncode == 3, done.stderr
        assert done.stderr.splitlines() == [
            f"ERROR synthaudit: data error: {tmp / 'original.csv'} is not a regular file: "
            "an audit reads it twice, to load it and to hash it"
        ]
        assert not (tmp / "out").exists()

    def test_a_fifo_file_variant_is_a_failed_variant(self, workdir):
        tmp, _ = workdir
        os.mkfifo(tmp / "copy.csv")
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        done = run_child("-m", "synthaudit", "audit", "--plan", plan, timeout=60)
        assert done.returncode == 3, done.stderr
        error = f"{tmp / 'copy.csv'} is not a regular file: an audit reads it twice, to load it and to hash it"
        assert f"copy: FAILED ({error})" in done.stdout.splitlines()
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert [(v["name"], v["status"], v.get("error")) for v in report["variants"]] == [
            ("copy", "failed", error), ("dp", "ok", None)
        ]

    @pytest.mark.parametrize("command", ["link", "sweep"])
    def test_link_and_sweep_still_read_a_fifo_original(self, workdir, command):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        os.mkfifo(tmp / "pipe.csv")
        sweep = "\n[sweep]\ngrid = 0.5 2.0\nrepeats = 2\n"
        outputs = {}
        for source in ("original.csv", "pipe.csv"):
            out = tmp / f"out-{source}"
            if command == "link":
                cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1.5))
                args = ["link", "-c", cfg, tmp / source, tmp / "copy.csv", "--out", out]
                read = [out / "pairs.csv"]
            else:
                text = PLAN_TEMPLATE.format(out=out).replace("original.csv", source) + sweep
                args = ["sweep", "--plan", write(tmp / f"plan-{source}.ini", text)]
                read = [out / "sweep_curve.csv"]
            writer = None
            if source == "pipe.csv":  # a second process feeds the original through the pipe
                copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
                writer = subprocess.Popen([sys.executable, "-c", copy, tmp / "original.csv", tmp / "pipe.csv"])
            try:
                done = run_child("-m", "synthaudit", *args, timeout=60)
            finally:
                if writer is not None:
                    writer.kill()
                    writer.wait()
            assert done.returncode == 0, done.stderr
            outputs[source] = [path.read_bytes() for path in read]
            if command == "sweep":
                outputs[source].append(json.loads((out / "sweep_report.json").read_text())["variants"])
        assert outputs["pipe.csv"] == outputs["original.csv"]


class TestOutputBytes:
    def test_line_ends_do_not_depend_on_the_platform(self, workdir, monkeypatch):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        audit = write(tmp / "audit.ini", PLAN_TEMPLATE.format(out=tmp / "audit"))
        sweep = write(
            tmp / "sweep.ini",
            PLAN_TEMPLATE.format(out=tmp / "sweep") + "\n[sweep]\ngrid = 0.5 1.0\nrepeats = 1\n",
        )
        # a text file opened for writing with no newline argument writes each
        # "\n" as os.linesep; make that "\r\n", as it is on Windows. A
        # binary file takes no newline argument and writes its bytes as given
        path_open = Path.open

        def windows_open(self, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
            if "w" in mode and "b" not in mode and newline is None:
                newline = "\r\n"
            return path_open(self, mode, buffering, encoding, errors, newline)

        monkeypatch.setattr(Path, "open", windows_open)
        assert main(["audit", "--plan", str(audit)]) == 0
        assert main(["sweep", "--plan", str(sweep)]) == 0

        lf = [tmp / "audit" / "outliers.csv", tmp / "sweep" / "sweep_curve.csv"]
        lf += sorted((tmp / "audit" / "pairs").glob("*.csv"))
        assert len(lf) == 6
        for path in lf:
            data = path.read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data, path
        variant = (tmp / "audit" / "variants" / "dp.csv").read_bytes()
        assert variant.endswith(b"\r\n") and variant.count(b"\n") == variant.count(b"\r\n")

    def test_audit_imports_neither_numpy_ma_nor_statistics(self, workdir):
        # np.median imports numpy.ma on first use, 10-30 ms of every run
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        code = (
            "import sys\n"
            "from synthaudit.cli import main\n"
            "assert main(['audit', '--plan', sys.argv[1]]) == 0\n"
            "print([m for m in ('numpy.ma', 'statistics') if m in sys.modules])\n"
        )
        assert run_python(code, plan).splitlines()[-1] == "[]"
        report = json.loads((tmp / "out" / "report.json").read_text())
        assert all(v["utility"]["aggregate"] for v in report["variants"])


def test_every_command_option_is_pinned():
    # a knob added or removed shows up here; audit keeps --workers only because its callers pass it
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: [o for a in sub._actions for o in a.option_strings] for name, sub in commands.choices.items()}
    options[""] = [o for a in parser._actions for o in a.option_strings]
    assert options == {
        "": ["-h", "--help", "-v", "--verbose"],
        "outliers": ["-h", "--help", "-c", "--config", "--out"],
        "link": ["-h", "--help", "-c", "--config", "--qis", "--out"],
        "utility": ["-h", "--help", "-c", "--config", "--out"],
        "synthesize": ["-h", "--help", "-c", "--config", "--out", "--epsilon", "--seed", "--n", "--num-bins"],
        "audit": ["-h", "--help", "--plan", "--out", "--workers"],
        "sweep": ["-h", "--help", "--plan", "--out"],
    }


class TestImports:
    """Each command imports the layers it runs, and only once it has read and
    checked its config, so ``--help`` and a config fault load no numpy;
    ``hashlib`` maps OpenSSL. No command defines a record class through
    ``dataclasses``, which compiles generated methods at every start and
    imports ``copy``. Only a command that writes floats loads the float
    kernel, and the kernel builds its tables when first called."""

    AUDIT_ONLY = ("synthaudit.audit", "synthaudit.utility", "synthaudit.report", "json", "hashlib", "_hashlib")
    WATCHED = AUDIT_ONLY + ("synthaudit.dp_synth", "synthaudit._shortest", "dataclasses", "copy", "numpy")

    @pytest.mark.parametrize(
        "run, loaded",
        [
            ("assert main(['link', '-c', plan, original, original]) == 0", ("numpy",)),
            ("assert main(['outliers', '-c', plan, original]) == 0", ("numpy",)),
            ("load_config(plan)", ()),  # bench/run.py's set-up probe
            (
                "assert main(['audit', '--plan', plan]) == 0",
                AUDIT_ONLY + ("synthaudit.dp_synth", "synthaudit._shortest", "numpy"),
            ),
            ("try:\n    main(['--help'])\nexcept SystemExit as done:\n    assert done.code == 0", ()),
            ("assert main(['link', '-c', bad, original, original]) == 2", ()),
            ("assert main(['audit', '--plan', bad]) == 2", ()),
        ],
        ids=["link", "outliers", "setup-probe", "audit", "help", "link-config-fault", "audit-plan-fault"],
    )
    def test_modules_loaded_by_each_command(self, workdir, run, loaded):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out"))
        bad = write(tmp / "bad.ini", without(plan.read_text(encoding="utf-8"), "[outliers]"))
        code = (
            "import sys\n"
            "import synthaudit.cli\n"
            "from synthaudit.cli import main\n"
            "from synthaudit.config import load_config\n"
            "plan, original, bad = sys.argv[1:]\n"
            f"{run}\n"
            f"print([m for m in {self.WATCHED!r} if m in sys.modules])\n"
        )
        stdout = run_python(code, plan, tmp / "original.csv", bad)
        assert stdout.splitlines()[-1] == repr(list(loaded))
        assert ("possible matches" in stdout) == ("'link'" in run and "== 0" in run)

    def test_the_float_kernel_builds_its_tables_on_first_use(self):
        code = (
            "import numpy as np\n"
            "from synthaudit import _shortest\n"
            "print(_shortest._tables.cache_info().currsize)\n"
            "_shortest.repr_rows(np.array([0.5]))\n"
            "print(_shortest._tables.cache_info().currsize)\n"
        )
        assert run_python(code) == "0\n1\n"

    def test_plans_are_read_and_refused_without_numpy(self, tmp_path, caplog):
        # an import of numpy fails in the child, so a command that reached one would exit 4
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Configuration format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        plans = [root / "configs" / "credit_risk.ini", write(tmp_path / "readme.ini", example)]
        malformed = write(tmp_path / "malformed.ini", "[schema\nage = numerical qi\n")
        lacking = write(tmp_path / "lacking.ini", without(BASE_CONFIG.format(k=3), "[outliers]"))
        latin1 = tmp_path / "latin1.ini"
        latin1.write_bytes(BASE_CONFIG.format(k=3).replace("home", "caf\u00e9").encode("latin-1"))
        missing, out = tmp_path / "missing.csv", tmp_path / "out"
        synth = write(tmp_path / "synth.ini", SYNTH_CONFIG)
        plan = write(tmp_path / "plan.ini", PLAN_TEMPLATE.format(out=out))  # it has no [sweep]
        unrooted = write(tmp_path / "unrooted.ini", without(plan.read_text(encoding="utf-8"), "[paths]"))
        dotdot = write(tmp_path / "dotdot.ini", plan.read_text(encoding="utf-8").replace("[variant dp]", "[variant ..]"))
        runs = [
            *(
                [*command, malformed, *inputs, "--out", out]
                for command, inputs in [
                    (["outliers", "-c"], [missing]),
                    (["link", "-c"], [missing, missing]),
                    (["utility", "-c"], [missing, missing]),
                    (["synthesize", "-c"], [missing]),
                    (["audit", "--plan"], []),
                    (["sweep", "--plan"], []),
                ]
            ),
            ["outliers", "-c", lacking, missing],
            ["link", "-c", lacking, missing, missing],
            ["link", "-c", latin1, missing, missing],  # was exit 4, a UnicodeDecodeError
            # each was exit 4: the plan was checked only once numpy had loaded
            ["synthesize", "-c", synth, missing, "--out", out, "--epsilon", "0", "--n", "5"],
            ["synthesize", "-c", synth, missing, "--out", out, "--seed", "-1"],
            ["audit", "--plan", unrooted, "--out", out],
            ["audit", "--plan", dotdot, "--out", out],
            ["sweep", "--plan", plan, "--out", out],
        ]
        runs = [list(map(str, args)) for args in runs]
        codes = [main(args) for args in runs]
        assert codes == [2] * len(runs)
        logged = "".join(f"{r.levelname} synthaudit: {r.getMessage()}\n" for r in caplog.records)
        code = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from synthaudit.cli import main\n"
            "from synthaudit.config import load_config, parse_config, render_config\n"
            "*plans, runs = sys.argv[1:]\n"
            "for plan in plans:\n"
            "    cfg = load_config(plan)\n"
            "    assert parse_config(render_config(cfg)) == cfg, plan\n"
            "print([main(args) for args in json.loads(runs)])\n"
        )
        done = run_child("-c", code, *plans, json.dumps(runs))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{codes}\n"
        assert done.stderr == logged
        assert not out.exists()


class TestProgramEntry:
    """``python -m synthaudit`` and the installed command run ``cli.run``,
    which freezes the heap once the command has returned; ``main`` does not."""

    def test_the_module_entry_freezes_the_heap_and_writes_what_main_writes(self, workdir, capsys):
        tmp, original = workdir
        save_dataset(original, tmp / "copy.csv")
        cfg = write(tmp / "cfg.ini", BASE_CONFIG.format(k=1.5))
        args = ["link", "-c", cfg, tmp / "original.csv", tmp / "copy.csv", "--out"]
        frozen = gc.get_freeze_count()
        assert main([*map(str, args), str(tmp / "main")]) == 0
        assert gc.get_freeze_count() == frozen
        code = (
            "import atexit, gc, runpy\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "runpy.run_module('synthaudit', run_name='__main__')\n"
        )
        done = run_child("-c", code, *args, tmp / "entry")
        assert done.returncode == 0, done.stderr
        assert done.stdout == capsys.readouterr().out + "True\n"
        assert done.stderr == f"INFO synthaudit: match pairs written to {tmp / 'entry' / 'pairs.csv'}\n"
        assert (tmp / "entry" / "pairs.csv").read_bytes() == (tmp / "main" / "pairs.csv").read_bytes()

    def test_the_installed_command_is_the_function_the_module_entry_calls(self, monkeypatch):
        # read as text: Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        (target,) = re.findall(r'^synthaudit = "(.+)"$', text.partition("[project.scripts]")[2], re.MULTILINE)
        module, _, name = target.partition(":")
        calls = []
        monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(target) or 0)
        with pytest.raises(SystemExit) as done:
            runpy.run_module("synthaudit", run_name="__main__")
        assert done.value.code == 0 and calls == [target]


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

    def test_curve_file_matches_a_row_by_row_writer(self, workdir):
        tmp, _ = workdir
        plan = write(
            tmp / "plan.ini",
            PLAN_TEMPLATE.format(out=tmp / "out") + "\n[sweep]\ngrid = 0.1 1.0 5.0\nrepeats = 2\nbase_seed = 1\n",
        )
        assert main(["sweep", "--plan", str(plan)]) == 0
        curve = json.loads((tmp / "out" / "sweep_report.json").read_text())["sweep_curve"]
        metrics = sorted(curve[0]["utility"])
        header = ["epsilon", "repeats", "unique_matches_mean", "unique_matches_min", "unique_matches_max"]
        lines = [",".join(header + [f"{m}_mean" for m in metrics])]
        for row in curve:
            matches = row["unique_matches"]
            cells = [repr(row["epsilon"]), str(row["repeats"]), f"{matches['mean']:.6f}"]
            cells += [str(matches["min"]), str(matches["max"])]
            lines.append(",".join(cells + [f"{row['utility'][m]['mean']:.6f}" for m in metrics]))
        assert len(lines) == 4 and len(metrics) > 1
        assert (tmp / "out" / "sweep_curve.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_absolute_original_and_config_echo(self, workdir, tmp_path_factory):
        tmp, _ = workdir
        text = PLAN_TEMPLATE.format(out=tmp / "out").replace(
            "original = original.csv", f"original = {tmp / 'original.csv'}"
        )
        plan = write(
            tmp_path_factory.mktemp("plans") / "plan.ini",
            text + "\n[sweep]\ngrid = 1.0\nrepeats = 1\n",
        )
        assert main(["sweep", "--plan", str(plan)]) == 0
        report = json.loads((tmp / "out" / "sweep_report.json").read_text())
        # the echoed effective config re-parses to an equivalent RunConfig
        assert parse_config(report["run_meta"]["effective_config"]) == load_config(plan)

    @pytest.mark.parametrize(
        "sweep",
        [
            "grid = 0.1 0.1 1.0\nrepeats = 1",
            "grid = -1.0 1.0\nrepeats = 1",
            "grid = 1.0\nrepeats = 0",
            "grid = 1.0\nbase_seed = -1",
        ],
        ids=["duplicate-epsilon", "negative-epsilon", "repeats-0", "base-seed-negative"],
    )
    def test_bad_sweep_is_2_before_any_data_is_read(self, tmp_path, sweep):
        # there is no original.csv: reading it would exit 3
        plan = write(tmp_path / "plan.ini", PLAN_TEMPLATE.format(out=tmp_path / "out") + f"\n[sweep]\n{sweep}\n")
        assert main(["sweep", "--plan", str(plan)]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["audit", "sweep"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("original = original.csv\n", "original =\n", "[paths] original is empty"),
        ("output_dir = {out}\n", "output_dir =\n", "[paths] output_dir is empty"),
        ("file = copy.csv\n", "file =\n", "[variant copy] file is empty"),
    ],
    ids=["original", "output_dir", "variant-file"],
)
def test_an_empty_path_is_2_before_anything_is_read_or_written(
    workdir, monkeypatch, caplog, command, old, new, message
):
    # run from the plan's directory, where an empty output_dir would write
    tmp, original = workdir
    save_dataset(original, tmp / "copy.csv")
    assert old in PLAN_TEMPLATE
    text = PLAN_TEMPLATE.replace(old, new, 1).format(out=tmp / "out") + "\n[sweep]\ngrid = 1.0\n"
    plan = write(tmp / "plan.ini", text)
    monkeypatch.chdir(tmp)
    before = sorted(tmp.rglob("*"))
    assert main([command, "--plan", str(plan)]) == 2
    assert sorted(tmp.rglob("*")) == before
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [f"configuration error: {message}"]


@pytest.mark.parametrize("command, name", [("audit", "report.json"), ("sweep", "sweep_report.json")])
def test_the_written_report_is_the_one_the_audit_layer_returns(workdir, command, name):
    tmp, original = workdir
    save_dataset(original, tmp / "copy.csv")
    plan = write(tmp / "plan.ini", PLAN_TEMPLATE.format(out=tmp / "out") + "\n[sweep]\ngrid = 0.1 1.0\nrepeats = 2\n")
    assert main([command, "--plan", str(plan)]) == 0
    written = json.loads((tmp / "out" / name).read_text())
    cfg = load_config(plan)
    if command == "audit":
        returned = run_audit(cfg, tmp / "library", tmp)
    else:
        returned = sweep_epsilon(cfg, tmp)
    assert strip_volatile(written) == json.loads(dumps_report(strip_volatile(returned)))
    assert written["run_meta"]["config_hash"] == config_hash(cfg)
    assert written["run_meta"]["effective_config"] == render_config(cfg)


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
