"""The text ``repr`` gives float64 values, computed for a whole array at once.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): of the decimals that read back as the value, those with the
fewest digits, and of these the closest, ties going to an even last digit.
That is the decimal ``repr`` takes from David Gay's dtoa in its shortest
mode. Every step is integer arithmetic on uint64 arrays: a 64 x 64 -> 128
bit product is built from 32-bit halves, and 10**-k is held as a 126-bit
integer g. The layout is ``repr``'s: positional when 1e-4 <= |x| < 1e16,
with ``.0`` on a whole number, and ``d[.ddd]e±XX`` otherwise.

Operands are ``np.uint64`` arrays or scalars on both sides, so that numpy's
promotion rules give uint64 under NEP 50 and before it. Products that wrap
are meant to, and only arrays wrap silently: a numpy scalar warns. A choice
between two byte matrices is a bit mask, since ``np.where`` is several times
slower on conditions that vary from value to value.
"""

from __future__ import annotations

import functools

import numpy as np

from .dataset import PAD  # fills the rows a value does not use

WIDTH = 45  # rows of text per value, at most
CHUNK = 2048  # values laid out at once, so that temporaries stay small

_U = np.uint64
_1, _2, _10, _32, _52, _63 = map(_U, (1, 2, 10, 32, 52, 63))
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
_FRACTION = _U((1 << 52) - 1)
_ONE = _U(0x3FF0000000000000)  # the bits of 1.0
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
_ROWS = np.arange(18, dtype=np.uint8)[:, None]  # row numbers, down a column
_C = {c: np.uint8(ord(c)) for c in "0.e+-"}


def _floor_log10_pow2(q: np.ndarray, three_quarters: bool = False) -> np.ndarray:
    """floor(log10(2**q)), or of 3/4 * 2**q, for |q| below about 1,700."""
    return (q * 661_971_961_083 - (274_743_187_321 if three_quarters else 0)) >> 41


def _floor_log2_pow10(e):
    """floor(log2(10**e)), for |e| below about 1,700."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables() -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Built on first use, not at import.

    - Per biased exponent, for regular spacing (the first 2,048 columns)
      and for a power of two's irregular spacing (the last 2,048): the
      decimal exponent k and the shift h.
    - The lowest k.
    - Per k from the lowest, as (words, halves, k): g0 and g1, their low
      32-bit halves and their high ones, where g1 * 2**63 + g0 =
      floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1.
    - The four ASCII digits of each number below 10,000, as the bytes of a
      little-endian uint32.
    """
    q = np.arange(2048, dtype=np.int64) - 1075
    q[0] = -1074  # subnormals
    k = np.concatenate([_floor_log10_pow2(q), _floor_log10_pow2(q, three_quarters=True)])
    h = np.concatenate([q, q]) + _floor_log2_pow10(-k) + 2
    lowest = int(k.min())
    g = []
    for e in range(-lowest, -int(k.max()) - 1, -1):  # e = -k
        r = _floor_log2_pow10(e) - 125
        num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
        g.append((num << -r if r < 0 else num) // (den << r if r > 0 else den) + 1)
    g = np.array([[x & ((1 << 63) - 1) for x in g], [x >> 63 for x in g]], dtype=np.uint64)
    powers = np.stack([g, g & _LOW32, g >> _32])
    numbers = np.arange(10_000, dtype=np.uint32)
    ascii4 = sum((numbers // 10**i % 10 + ord("0")) << (8 * (3 - i)) for i in range(4))
    return np.stack([k, h]), lowest, powers, ascii4.astype("<u4")


def _high(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of the 128-bit product a * b, from 32-bit halves."""
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    middle = (lo_lo >> _32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return a_hi * b_hi + (lo_hi >> _32) + (hi_lo >> _32) + (middle >> _32)


def _moved(lo, hi, g, shift, up: bool):
    """128-bit numbers (hi, lo) plus, or minus, g << shift."""
    low, high = g << shift, g >> (_U(64) - shift)
    if up:
        lo = lo + low
        return lo, hi + high + (lo < low)
    return lo - low, hi - high - (lo < low)


def _round_to_odd(lo, hi):
    """floor(g * cp / 2**127), its last bit set when the product has more,
    from g0 * cp and g1 * cp as their (low, high) 64-bit words, where
    g = g1 * 2**63 + g0."""
    z = (lo[1] >> _1) + hi[0]
    return (hi[1] + (z >> _63)) | (((z & _LOW63) + _LOW63) >> _63)


def _mask(cond: np.ndarray) -> np.ndarray:
    """0xFF bytes where ``cond`` holds, zeros elsewhere."""
    return cond.view(np.uint8) * np.uint8(0xFF)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest, closest decimal f * 10**k of each nonzero finite
    magnitude, given as its bits: f as uint64 and k as int64."""
    exponents, lowest, powers, _ = _tables()
    exponent = bits >> _52
    fraction = bits & _FRACTION
    c = fraction | (np.minimum(exponent, _1) << _52)
    # below a power of two the next value is half as far as above it
    irregular = ((fraction == 0) & (exponent > _1)).astype(np.uint64)
    k, h = np.take(exponents, (exponent | (irregular << _U(11))).astype(np.intp), axis=1, mode="clip")
    g, g_lo, g_hi = np.take(powers, k - lowest, axis=2, mode="clip")  # each (g0, g1)
    # 4v and the ends of its rounding interval in units of 10**k, rounded
    # to odd, from the products of g with cp = 4c << h and with the ends'
    # cp, which lie 2 << h away, or 1 << h below a power of two
    h = h.astype(np.uint64)
    cp = c << (h + _2)
    lo, hi = g * cp, _high(g_lo, g_hi, cp & _LOW32, cp >> _32)
    vb = _round_to_odd(lo, hi)
    vbl, vbr = (
        _round_to_odd(*_moved(lo, hi, g, shift, up)) for shift, up in ((h + _1 - irregular, False), (h + _1, True))
    )
    vbl += c & _1  # an odd c leaves out the ends
    vbr -= c & _1
    s = vb >> _2
    # one digit fewer, s' * 10 or s' * 10 + 10, when just one of them reads back
    sp10 = s // _10 * _10
    upin = vbl <= sp10 << _2
    shorter = (s >= _10) & (upin != ((sp10 + _10) << _2 <= vbr))
    # else s or s + 1: the one that reads back, else the closer, else the even
    four_s = s << _2
    closer = (vb < four_s + _2) | ((vb == four_s + _2) & ((s & _1) == 0))
    long = s + ~((vbl <= four_s) & ((four_s + _U(4) > vbr) | closer))
    short = sp10 + _10 * ~upin
    return long ^ ((long ^ short) & (shorter * _U(2**64 - 1))), k


def repr_rows(values: np.ndarray) -> np.ndarray:
    """``repr`` of each finite float64, as a uint8 matrix of up to WIDTH
    rows and ``len(values)`` columns: column i holds the ASCII text of
    ``repr(values[i])`` in order, with ``PAD`` bytes between and around its
    characters. Top to bottom, the rows hold a sign; ``0.`` and up to three
    zeros; 17 digits, each followed by a row for the point; ``e``, the
    exponent's sign and three digits. Rows that hold no text are left out.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("repr_rows takes finite values only")
    out = np.empty((WIDTH, len(values)), np.uint8)
    for start in range(0, len(values), CHUNK):
        _layout(values[start : start + CHUNK].view(np.uint64), out[:, start : start + CHUNK])
    used = (out != PAD).any(axis=1)
    return out if used.all() else out[used]


def _layout(bits: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` with the text of the values whose bits are given."""
    n = len(bits)
    magnitude = bits & _LOW63
    zero = magnitude == 0
    f, k = _decimal(magnitude | (_ONE * zero))
    length = np.searchsorted(_POW10, f, side="right")  # digits in f
    f = f * _POW10[17 - length] * ~zero  # 17 digits from the first nonzero one; 0 for a zero
    point = (k + length - 1) * ~zero  # the exponent of the first digit

    digits = np.empty((17, n), dtype=np.uint8)
    first = f // _POW10[16]
    digits[0] = first.astype(np.uint8) + _C["0"]
    rest = f - first * _POW10[16]
    high = rest // _POW10[8]
    eights = np.stack([high, rest - high * _POW10[8]])
    high = eights // _POW10[4]
    fours = np.stack([high, eights - high * _POW10[4]], axis=1).astype(np.intp)
    text = np.take(_tables()[3], fours, mode="clip").view(np.uint8).reshape(2, 2, n, 4)
    digits[1:].reshape(2, 2, 4, n)[...] = text.transpose(0, 1, 3, 2)
    significant = np.maximum(((digits != _C["0"]).view(np.uint8) * _ROWS[1:]).max(axis=0), 1)

    positional = (point >= -4) & (point < 16)
    small = positional & (point < 0)
    # the digit the point follows (17 when none does), and the digits shown;
    # each digit row of out is followed by a row for the point
    before = np.where(positional, np.where(small, 17, point), np.where(significant > 1, 0, 17))
    shown = np.where(positional & ~small, np.maximum(significant, point + 2), significant)
    out[6:40:2] = digits | _mask(_ROWS[:17] >= shown.astype(np.uint8))
    out[7:41:2] = _C["."] | _mask(_ROWS[:17] != before.astype(np.uint8))
    out[0] = _C["-"] | _mask(bits <= _LOW63)
    if small.any():
        hide = _mask(~small)
        out[1] = _C["0"] | hide
        out[2] = _C["."] | hide
        out[3:6] = _C["0"] | _mask(~small | (_ROWS[:3] >= -point - 1))
    else:
        out[1:6] = PAD
    if positional.all():
        out[40:] = PAD
    else:
        magnitude = np.abs(point).astype(np.uint16)
        hide = _mask(positional)
        out[40] = _C["e"] | hide
        out[41] = (_C["+"] + np.uint8(2) * (point < 0)) | hide
        out[42] = (magnitude // 100 + ord("0")).astype(np.uint8) | _mask(positional | (magnitude < 100))
        out[43] = (magnitude // 10 % 10 + ord("0")).astype(np.uint8) | hide
        out[44] = (magnitude % 10 + ord("0")).astype(np.uint8) | hide
