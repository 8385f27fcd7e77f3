"""Structured report emission.

Reports are JSON with sorted keys and every float rounded to 6 fractional
digits, so identical runs produce identical bytes. The run_meta keys listed
in VOLATILE_RUN_META_KEYS (timestamps, wall time) are the only fields that
vary between identical runs; golden comparisons drop them.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path

import numpy as np

VOLATILE_RUN_META_KEYS = ("timestamp", "wall_time_s")


def to_jsonable(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, (np.floating,)):
        return round(float(obj), 6)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset, np.ndarray)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    return obj


def dumps_report(report: dict) -> str:
    return json.dumps(to_jsonable(report), indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_report(report), encoding="utf-8")
    return path


def strip_volatile(report: dict) -> dict:
    """Copy of a report without the run_meta fields that vary between runs."""
    out = dict(report)
    meta = dict(out.get("run_meta", {}))
    for key in VOLATILE_RUN_META_KEYS:
        meta.pop(key, None)
    out["run_meta"] = meta
    return out
