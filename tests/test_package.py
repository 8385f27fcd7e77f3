from __future__ import annotations

import importlib

import pytest

import synthaudit


def test_public_names_are_their_home_modules_objects():
    for name in synthaudit.__all__:
        obj = getattr(synthaudit, name)
        assert obj.__module__.startswith("synthaudit."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert len(set(synthaudit.__all__)) == len(synthaudit.__all__) == 41
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
