from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import synthaudit
from synthaudit import AttributeSchema, Dataset, Kind, Role, save_dataset
from synthaudit.utility import METRIC_NAMES


def test_public_names_are_their_home_modules_objects():
    for name in synthaudit.__all__:
        obj = getattr(synthaudit, name)
        assert obj.__module__.startswith("synthaudit."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert len(set(synthaudit.__all__)) == len(synthaudit.__all__) == 38
    assert set(synthaudit.__all__) <= set(dir(synthaudit))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from synthaudit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(synthaudit.__all__)
    assert all(namespace[name] is getattr(synthaudit, name) for name in synthaudit.__all__)


def test_unknown_name_is_an_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="module 'synthaudit' has no attribute 'nope'"):
        synthaudit.nope  # noqa: B018
    with pytest.raises(ImportError):
        from synthaudit import nope  # noqa: F401
    from synthaudit import report

    assert report is importlib.import_module("synthaudit.report")


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    # the README's library example, run on a small original and a noisy copy
    # of it: one far-out person, with a home the copy renames for others
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    schema = (
        AttributeSchema("person_age", Kind.NUMERICAL, Role.QI),
        AttributeSchema("person_income", Kind.NUMERICAL, Role.QI),
        AttributeSchema("person_home_ownership", Kind.CATEGORICAL, Role.QI),
    )
    rng = np.random.default_rng(35)
    n = 80
    ages = np.append(rng.integers(20, 40, n - 1), 144).astype(float)
    incomes = np.append(rng.integers(30, 60, n - 1) * 1000, 9_000_000).astype(float)
    homes = [("RENT", "OWN", "MORTGAGE")[i] for i in rng.integers(0, 3, n)]
    columns = {"person_age": ages, "person_income": incomes, "person_home_ownership": homes}
    save_dataset(Dataset.from_columns(schema, columns), tmp_path / "original.csv")
    columns = {
        "person_age": ages + rng.integers(-2, 3, n),
        "person_income": incomes + rng.integers(-500, 500, n),
        "person_home_ownership": [h.replace("OWN", "OTHER") for h in homes[:-1]] + homes[-1:],
    }
    save_dataset(Dataset.from_columns(schema, columns), tmp_path / "variant.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    counts, aggregate = capsys.readouterr().out.splitlines()
    assert counts == "1 1"  # the far-out person, matched by its own noisy copy alone
    pairs = (tmp_path / "pairs.csv").read_text().splitlines()
    assert pairs == [
        "original_index,synthetic_index,score_person_age,score_person_income,score_person_home_ownership",
        f"{n - 1},{n - 1},1.000000,1.000000,1.000000",
    ]
    assert all(f"'{name}': {{'mean': " in aggregate for name in METRIC_NAMES)
