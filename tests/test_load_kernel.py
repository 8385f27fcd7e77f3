"""The numeric kernel behind loaded cells gives ``float()``'s value, bit for bit.

``dataset._floats`` reads exactly the cells of up to 8 bytes that are an
optional ``-`` and ASCII digits, at least one, with at most one ``.``
among them, each from its bytes as one uint64. It must give ``float()``'s
bits for each cell it reads, -0.0 included, and leave every other cell
unread for the loader to hand to ``float()``: among them all the tokens
that ``float()`` refuses or reads as non-finite, which the loader then
refuses. Tokens are drawn from digits, ``.``, ``-``, ``+``, ``e``, ``_``,
a space and an Arabic-Indic digit, which ``float()`` reads but the kernel
leaves. ``bulk_mismatch`` is also the CI check over 5M seeded tokens:

    PYTHONPATH=src:tests python -c "import test_load_kernel; test_load_kernel.main(5_000_000)"
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest

from synthaudit.dataset import _floats, _words

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

ALPHABET = "0123456789.-+e_ ١"
READ = re.compile(r"-?(?=\.?[0-9])[0-9]*\.?[0-9]*")  # with at most 8 bytes: what the kernel reads


def expected(token: str) -> float:
    """``float(token)``, or NaN where ``float()`` refuses the token."""
    try:
        return float(token)
    except ValueError:
        return math.nan


def kernel(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's value of each token and whether it read the token, from
    the tokens each followed by a comma, as each cell of a piece is followed
    by a separator."""
    cells = [token.encode() for token in tokens]
    data = b"".join(cell + b"," for cell in cells)
    lengths = np.array([len(cell) for cell in cells], np.intp)
    starts = np.cumsum(lengths + 1) - lengths - 1
    return _floats(_words(data), starts, lengths)


def mismatches(tokens: list[str]) -> list[tuple[str, float | None, float]]:
    """(token, kernel value or None where it left the token, float() value)
    where the kernel reads a token it should leave or leaves one it should
    read, or reads a value whose bits are not ``float()``'s."""
    got, read = kernel(tokens)
    want = np.array([expected(token) for token in tokens], np.float64)
    should = np.array([len(token) <= 8 and READ.fullmatch(token) is not None for token in tokens], bool)
    same = (read == should) & (~read | (got.view(np.uint64) == want.view(np.uint64)))
    return [(tokens[i], got[i] if read[i] else None, want[i]) for i in np.flatnonzero(~same)]


def seeded_tokens(n: int, rng: np.random.Generator) -> list[str]:
    """n tokens: a third numbers of 1-8 characters as a table holds them
    (sign, digits, a point), a third digits of 9-17 characters, and a third
    drawn from the whole alphabet. Each token is a row of code points,
    zeros after its end, so that the rows read as strings in one step."""
    k = n // 3
    length = rng.integers(1, 9, k)
    point = (rng.random(k) < 0.6) & (length < 8)
    sign = (rng.random(k) < 0.3) & (length + point < 8)
    cut = rng.integers(0, length + 1)  # the digits before the point
    col = np.arange(8)
    # the column of each digit, or a spill column past the token's end
    at = np.where(col < length[:, None], col + sign[:, None] + (point[:, None] & (col >= cut[:, None])), 8)
    short = np.zeros((k, 18), np.uint32)
    np.put_along_axis(short, at, rng.integers(ord("0"), ord("9") + 1, (k, 8), dtype=np.uint32), axis=1)
    short[point, (cut + sign)[point]] = ord(".")
    short[sign, 0] = ord("-")
    short[:, 8] = 0
    long = rng.integers(ord("0"), ord("9") + 1, (k, 18), dtype=np.uint32)
    long[np.arange(18) >= rng.integers(9, 18, k)[:, None]] = 0
    letters = np.array([ord(c) for c in ALPHABET], np.uint32)
    other = letters[rng.integers(0, len(letters), (n - 2 * k, 18))]
    other[np.arange(18) >= rng.integers(0, 18, n - 2 * k)[:, None]] = 0
    return np.concatenate([short, long, other]).view("<U18").ravel().tolist()


def bulk_mismatch(n: int, seed: int) -> tuple[str, float, float] | None:
    """The first of n seeded tokens whose kernel value is not ``float()``'s,
    with both values; None when all agree."""
    rng = np.random.default_rng(seed)
    for start in range(0, n, 1 << 16):
        bad = mismatches(seeded_tokens(min(1 << 16, n - start), rng))
        if bad:
            return bad[0]
    return None


def main(n: int, seed: int = 19901) -> None:
    bad = bulk_mismatch(n, seed)
    if bad is not None:
        token, got, want = bad
        sys.exit(f"the load kernel {'leaves' if got is None else f'reads as {got!r}'} {token!r}, float() reads {want!r}")
    print(f"the load kernel agrees with float() on {n} tokens")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.lists(st.text(alphabet=ALPHABET, max_size=17), max_size=40))
@example(["12345678", "99999999"])  # eight bytes, the most the kernel reads
@example(["123456789"])  # nine bytes: float()
@example(["-0", "0", "-0.0", ".5", "5.", "-.5", "00000001", "-1234567", "-9999999", "9999.999"])
@example(["-", ".", "-.", "--1", "1.2.3", "1..2", "", "+5", "1-2"])
@example(["nan", "inf", "-inf", "1e999", "1_0", " 7", "7 ", "١", "-١"])
def test_kernel_value_is_float(tokens):
    assert mismatches(tokens) == []


def test_kernel_value_is_float_in_bulk():
    assert bulk_mismatch(200_000, seed=11) is None


def test_kernel_reads_a_negative_zero():
    values, read = kernel(["-0", "-0.000", "-.0"])
    assert read.all() and values.tobytes() == np.array([-0.0] * 3).tobytes()
