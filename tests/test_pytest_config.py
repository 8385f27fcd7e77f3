"""The repository's pytest configuration: a failing test is reported, not fatal.

Warnings are errors under ``pyproject.toml``, so a warning raised by a
plugin while it reports a failure would end the whole run with
``INTERNALERROR``. A failing Hypothesis test and a passing test, run in a
fresh pytest process under that configuration, must both be reported.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    run = subprocess.run(
        [sys.executable, *dev, "-m", "pytest", "-q", *config, "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert out.rstrip().splitlines()[-1].startswith("1 failed, 1 passed"), out
    assert run.returncode == 1, out
