"""Golden outputs: the SHA-256 of every file that ``audit``, ``sweep`` and
``link`` write for a small, fixed input.

The inputs are built with integer arithmetic and written as text, so they
do not depend on a random generator or on the package's own writer. Every
command runs in ``tmp_path`` with relative paths, so no absolute path enters
a report. A report is hashed without its volatile run_meta keys.

A digest that changes means an output byte changed. If the change is
intended, the new digests go in with the change that makes it, and CHANGES.md
says why; otherwise the change is a regression.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from synthaudit.cli import main
from synthaudit.report import dumps_report, strip_volatile

ROWS = 300
HOMES = ("RENT", "OWN", "MORTGAGE", "OTHER")

PLAN = """\
[schema]
age = numerical qi
income = numerical qi
home = categorical qi

[outliers]
k = 1.5
attributes = age income

[qi age]
comparator = gauss
offset = 3
scale = 4

[qi income]
comparator = gauss
offset = 4000
scale = 8000

[qi home]
comparator = levenshtein

[synth]
epsilon = 1.0
n = 250
num_bins = 8
seed = 0

[paths]
original = original.csv
output_dir = out

[attack]
ladder = age income | age income home

[variant external]
file = external.csv
tags = source=golden

[variant dp]
epsilon = 2.0
seed = 3

[sweep]
grid = 0.5 4.0
repeats = 2
base_seed = 7
"""

# Measured with numpy 2.4.6 and glibc 2.36 (Python 3.11).
EXPECTED = {
    "out/report.json": "0fa6e37ee984cfee0b4173c2fde61807ebae54f6f10bb0b1eb6625b04b04a8fd",
    "out/outliers.csv": "75f95e12a7b28dc5eab3866050a0f63873f9616b31d64d83ea59c81b505cb67c",
    "out/variants/dp.csv": "bfe65d77f338f12825e0bde6daa95cad42b18998ba3cd1a74fd90e0f6571d0d2",
    "out/pairs/external__age-income.csv": "39c8c120f9dfe4a4019c7d7e8f17c1b62d9e146a09580e83866890f17f94317e",
    "out/pairs/external__age-income-home.csv": "0f91942ecfab708ed197c5fb908e8b7970db73fc7edc5c5df99daec4576b15a7",
    "out/pairs/dp__age-income.csv": "dc761e15a67c5e81f4711d1e947e423bf713b70c0e4b1379564bac016fa640ca",
    "out/pairs/dp__age-income-home.csv": "ad3c15263375fc3df1c9e695b4adb214323a88dee26b3ce0fe8deb028125ae29",
    "sweep/sweep_report.json": "9b085af359ab3938543ae43008d72e5ed207b831213c2f3034f129d1f9651a88",
    "sweep/sweep_curve.csv": "b1c4a0cc95b423e0309092922de63bd91bfe33bceafc1e5ce1dbdb5f04a7616c",
    "link/pairs.csv": "0f91942ecfab708ed197c5fb908e8b7970db73fc7edc5c5df99daec4576b15a7",
}


def _row(i: int) -> str:
    age = 20 + (i * 37) % 45
    income = 18000 + (i * 7919) % 52000
    if i % 23 == 5:  # a cluster of rows far out on income, some of them on age too
        income += 90000 + 400 * (i % 10)
        age += 30 * (i % 2)
    return f"{age},{income},{HOMES[(i * i + i // 7) % len(HOMES)]}"


def _external(i: int) -> str:
    # the original's rows, shifted and reordered, so some outliers link back
    j = (i * 11) % ROWS
    age, income, home = _row(j).split(",")
    return f"{int(age) + j % 3},{int(income) + 250 * (j % 5)},{home}"


def _write_inputs(directory: Path) -> None:
    header = "age,income,home\n"
    (directory / "original.csv").write_text(header + "".join(_row(i) + "\n" for i in range(ROWS)), encoding="utf-8")
    (directory / "external.csv").write_text(header + "".join(_external(i) + "\n" for i in range(ROWS)), encoding="utf-8")
    (directory / "plan.ini").write_text(PLAN, encoding="utf-8")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        data = dumps_report(strip_volatile(json.loads(data))).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run the three commands once; every test reads their outputs."""
    tmp_path = tmp_path_factory.mktemp("golden")
    _write_inputs(tmp_path)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SYNTHAUDIT_OUT", raising=False)
        codes = [
            main(["audit", "--plan", "plan.ini"]),
            main(["sweep", "--plan", "plan.ini", "--out", "sweep"]),
            main(["link", "-c", "plan.ini", "original.csv", "external.csv", "--out", "link"]),
        ]
    return tmp_path, codes


def test_every_output_file_is_listed(golden_run):
    tmp_path, codes = golden_run
    assert codes == [0, 0, 0]
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written - {"original.csv", "external.csv", "plan.ini"} == set(EXPECTED)


def test_no_absolute_path_enters_a_report(golden_run):
    tmp_path, _ = golden_run
    for report in ("out/report.json", "sweep/sweep_report.json"):
        assert str(tmp_path) not in (tmp_path / report).read_text(encoding="utf-8")


def test_the_inputs_give_outliers_and_matches(golden_run):
    tmp_path, _ = golden_run
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["run_meta"]["outliers"]["count"] > 0
    for entry in report["variants"]:
        assert entry["status"] == "ok"
        assert all(summary["possible_matches"] > 0 for summary in entry["linkage"].values())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest(golden_run, name):
    tmp_path, _ = golden_run
    assert _digest(tmp_path / name) == EXPECTED[name]
