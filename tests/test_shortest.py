"""The float kernel behind saved numeric cells gives the text ``repr`` gives.

``repr_rows`` computes shortest round-trip digits with integer numpy
arithmetic and lays them out as ``repr`` does; every value here is checked
against ``repr`` itself. Values come from raw 64-bit patterns, which mostly
land in exponent form, and from draws inside the positional range
1e-4 <= |x| < 1e16, which is where a saved table's numbers are.
``bulk_mismatch`` is also the CI check over 5M seeded values:

    PYTHONPATH=src:tests python -c "import test_shortest; test_shortest.main(5_000_000)"
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from synthaudit._shortest import PAD, repr_rows

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def texts(values) -> list[str]:
    """The kernel's text of each value, read off its matrix row by row."""
    rows = repr_rows(np.asarray(values, dtype=np.float64))
    lines = np.concatenate([rows, np.full((1, rows.shape[1]), ord("\n"), np.uint8)]).T.ravel()
    return bytes(lines[lines != PAD]).decode("ascii").split("\n")[:-1]


def seeded_values(n: int, seed: int) -> np.ndarray:
    """n finite doubles: half raw bit patterns, half positional-range draws."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, 2 * n, dtype=np.uint64, endpoint=False).view(np.float64)
    raw = raw[np.isfinite(raw)][: n - n // 2]
    scale = 10.0 ** rng.integers(-4, 16, n // 2)
    positional = rng.uniform(1.0, 10.0, n // 2) * scale * rng.choice([-1.0, 1.0], n // 2)
    return np.concatenate([raw, positional])


def bulk_mismatch(n: int, seed: int) -> tuple[float, str] | None:
    """The first of ``seeded_values(n, seed)`` whose kernel text is not its
    ``repr``, with that text; None when all agree."""
    values = seeded_values(n, seed)
    for start in range(0, len(values), 1 << 16):
        part = values[start : start + (1 << 16)].tolist()
        got = texts(part)
        if got != list(map(repr, part)):
            return next((value, text) for value, text in zip(part, got) if text != repr(value))
    return None


def main(n: int, seed: int = 20201) -> None:
    bad = bulk_mismatch(n, seed)
    if bad is not None:
        sys.exit(f"repr_rows gives {bad[1]!r} for {bad[0]!r}")
    print(f"repr_rows agrees with repr on {n} values")


POWERS_OF_TWO = [2.0**e for e in range(-1074, 1024, 97)] + [2.0**-1022, 2.0**-1021, 2.0**1023]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1).map(lambda b: np.array(b, np.uint64).view(np.float64).item()),
            st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
        ).filter(math.isfinite),
        max_size=40,
    )
)
@example([0.0, -0.0, 5e-324, -5e-324])
@example([8e-323, 9.9e-324, 7.4e-323, 1e-323, 1.5e-323])  # one-digit subnormals
@example([2.0**-1022, math.nextafter(2.0**-1022, 0), math.nextafter(2.0**-1022, 1)])
@example(POWERS_OF_TWO)  # the spacing below a power of two is half that above
@example([1e-4, 1e-5, 1e15, 1e16, math.nextafter(1e-4, 0), math.nextafter(1e16, 0)])
@example([9999999999999998.0, 2.0**53 - 1, 2.0**53 + 2, 2.0**53])
@example([0.1, 0.3, 1e23, 5e-324 * 3, 123.0, 100.0, 1e22, 1.7976931348623157e308])
@example([-1.7976931348623157e308, 2.2250738585072014e-308, 4.9406564584124654e-324])
def test_kernel_text_is_repr(values):
    assert texts(values) == [repr(v) for v in values]


def test_kernel_text_is_repr_in_bulk():
    # spans many CHUNKs in one call
    assert bulk_mismatch(200_000, seed=7) is None


def test_kernel_refuses_non_finite_values():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite values only"):
            repr_rows(np.array([1.0, bad]))
    assert repr_rows(np.array([])).shape[1] == 0
