"""Floats as ``'%.17g' %`` writes them, byte for byte, for whole arrays.

``lines`` formats a 2-D float array as CSV text in numpy: each value
is rounded to its 17 significant digits exactly, as a double-double
product with 10**k (Dekker's split and two-product, the idea behind
Ryu-printf, Adams, OOPSLA 2019), and laid out from byte templates. Values
it cannot certify go through ``%`` itself. The timeseries CSV and the
sweep tables write their floats through it (``cli.timeseries_rows``,
``cli._write_sweep_outputs``).

This module is apart from ``cli`` because CPython compiles a module in
one piece: a bigger ``cli`` raised the CLI's peak memory when no cached
bytecode is at hand. ``cli`` imports it only when a run writes its
timeseries or a sweep its tables, so parsing does not pay for it.
"""

from __future__ import annotations

import functools

import numpy as np

#: Values ``lines`` formats per numpy pass; bounds its temporaries to
#: a few hundred kB whatever the size of the array.
BLOCK = 4096

#: ``lines`` formats in numpy the values in [_MIN, _MAX] and zero,
#: where the double-double 10**k of ``_pow10`` is normal; the rest are rare
#: enough for ``'%.17g' %``.
_MIN, _MAX = 1e-250, 1e250

#: Offset of a decimal exponent E into ``_tables()``' heads and tails.
_E_OFFSET = 256


@functools.cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10**k as a double-double ``hi + lo``, ``hi`` the nearest double and
    ``lo`` the nearest double to ``10**k - hi`` (so ``lo == 0`` exactly when
    ``hi + lo`` is 10**k), then ``hi`` split in Dekker's halves."""
    if k >= 0:
        n = 10**k
        hi = float(n)
        lo = float(n - int(hi))
    else:  # int / int rounds correctly in Python
        n = 10**-k
        hi = 1 / n
        num, den = hi.as_integer_ratio()
        lo = (den - num * n) / (den * n)
    return hi, lo, *_split(hi)


def _split(a):
    """Dekker's split of ``a`` into a 26-bit high half and the rest."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The templates of ``_block``: 8-byte little-endian words of a
    value's 48-byte slot, NUL where nothing is written.

    - ``runs[n]``, n < 10**4: the four digits of n at bytes 1, 3, 5 and 7;
      ``runs[10**4 + n]`` the same with trailing zeros NUL.
    - ``heads[E + _E_OFFSET]``, ``tails[E + _E_OFFSET]``: the first word (a
      comma, then ``0.`` and zeros at bytes 2-6 for -4 <= E < 0) and the
      last (``e+XX`` or ``e-XXX`` for E < -4 and E >= 17) of a value with
      decimal exponent E.
    - ``pow10``: 10**j as int64, j < 17.
    """
    n = np.arange(100, dtype=np.uint64)
    tens, ones = n // 10 + 48, n % 10 + 48
    pair = tens << 8 | ones << 24  # n at bytes 1 and 3
    bare = (n != 0) * (tens << 8) | (n % 10 != 0) * (ones << 24)  # trailing zeros NUL
    runs = np.empty((2, 100, 100), "<u8")  # runs[0, a, b]: a at bytes 1, 3 and b at 5, 7
    np.bitwise_or(pair[:, None], pair << 32, out=runs[0])
    np.bitwise_or(pair[:, None], bare << 32, out=runs[1])
    runs[1, :, 0] = bare
    e = np.arange(-_E_OFFSET, _E_OFFSET)
    exp = np.abs(e)
    zeros = sum(np.where(-1 - e > i, 48 << 8 * (4 + i), 0) for i in range(3))
    heads = np.where((e >= -4) & (e < 0), 48 << 16 | 46 << 24 | zeros, 0) | 44
    tails = 101 | np.where(e < 0, 45, 43) << 8 | np.where(exp >= 100, exp // 100 + 48, 0) << 16
    tails |= (exp // 10 % 10 + 48) << 24 | (exp % 10 + 48) << 32
    tails[(e >= -4) & (e < 17)] = 0
    pow10 = 10 ** np.arange(17, dtype=np.int64)
    return runs.ravel(), heads.astype("<u8"), tails.astype("<u8"), pow10


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ax * 10**k`` as a double-double ``(hi, lo)``, ``hi`` rounded, with
    the 17-digit products in [1e16, 1e17) within 1e-14 of the exact one, and
    exact where the third array, ``10**k`` exact as a double, holds."""
    k0 = int(k.min())
    table = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)])
    hi, lo, hi_h, hi_l = np.take(table, k - k0, axis=0).T
    p = ax * hi
    ax_h, ax_l = _split(ax)
    err = ((ax_h * hi_h - p) + ax_h * hi_l + ax_l * hi_h) + ax_l * hi_l  # ax*hi - p, exact
    err += ax * lo
    s = p + err
    return s, err - (s - p), lo == 0


def _block(x: np.ndarray) -> np.ndarray:
    """``',' + ('%.17g' % v)`` for each value v of ``x``, NUL-padded to one
    row of six little-endian 8-byte words.

    %.17g writes D * 10**(E-16), D the 17-digit integer |v| * 10**(16-E)
    rounds to (half to even) and E its decimal exponent, in fixed notation
    for -4 <= E < 17 and scientific otherwise, trailing zeros and a bare
    point dropped. Here E starts as floor(log10 |v|), corrected where the
    product is outside [1e16, 1e17); D rounds the double-double product,
    exact when 10**k is, and ``'%.17g' %`` writes the values that cannot be
    certified: near ties of an inexact product, values outside
    [_MIN, _MAX] but zero, NaN and infinities.
    """
    runs, heads, tails, pow10 = _tables()
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= _MIN) & (ax <= _MAX)
    ax = np.where(fast, ax, 1.0)  # log10 sees no zero, infinity or NaN
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo, exact = _scaled(ax, 16 - e)
    # log10 can be one off near a power of ten: E follows the exact product
    fix = ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.int64)
    fix -= (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    at = np.flatnonzero(fix)
    if at.size:
        e[at] -= fix[at]
        hi[at], lo[at], exact[at] = _scaled(ax[at], 16 - e[at])
    # hi is a whole number above 2**53, so D is hi plus lo rounded; an
    # inexact product within 1e-9 of a tie (its error is under 1e-14) is slow
    lo_int = np.rint(lo)
    near_tie = np.abs(np.abs(lo - lo_int) - 0.5) < 1e-9
    slow = np.flatnonzero(~fast & ~zero | ~exact & near_tie)
    d = hi.astype(np.int64) + lo_int.astype(np.int64)
    carry = d == 10**17  # rounded up to the next power of ten
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    # the lead digit, then four runs of four, a run's trailing zeros NUL
    # where the runs after it are zero
    high = d // 10**8
    low = d - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    run = np.empty((4, len(x)), np.int64)
    run[0] = high // 10**4
    run[1] = high - run[0] * 10**4
    run[2] = low // 10**4
    run[3] = low - run[2] * 10**4
    run[0] += ((run[1] == 0) & (low == 0)) * 10**4
    run[1] += (low == 0) * 10**4
    run[2] += (run[3] == 0) * 10**4
    run[3] += 10**4
    out = np.empty((len(x), 6), "<u8")
    out[:, 0] = np.take(heads, e + _E_OFFSET)
    for i in range(4):
        out[:, 1 + i] = np.take(runs, run[i])
    out[:, 5] = np.take(tails, e + _E_OFFSET)
    # bytes: 0 comma, 1 sign, 2-6 "0.000", 7 lead digit, 8 + 2j the slot of
    # a point after digit j, 9 + 2j digit j + 1, 40-44 the exponent
    b = out.view(np.uint8)
    b[:, 1] = np.signbit(x) * 45
    b[:, 7] = lead + 48
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed & (e > 0), e, 0)
    frac = d % pow10[16 - point]  # the digits after the point
    dot = np.flatnonzero((frac != 0) & ~(fixed & (e < 0)))
    b[dot, 8 + 2 * point[dot]] = 46
    whole = np.flatnonzero((frac == 0) & (point > 0))  # zeros before the point stay
    if whole.size:
        digits = np.take(runs, run[:, whole].T % 10**4).view(np.uint8).reshape(-1, 32)
        b[whole, 8:40] = digits * (np.arange(32) < 2 * point[whole, None])
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        text = ("%.17g" % value).encode("ascii")
        b[i, 1:] = 0
        b[i, 1 : 1 + len(text)] = np.frombuffer(text, np.uint8)
    return out


def lines(values: np.ndarray) -> str:
    """Each row of the 2-D float array ``values`` as one line: every value
    as ``',' + ('%.17g' % value)``, byte for byte, then ``\n``. Formatted in
    numpy blocks of about ``BLOCK`` values (whole rows); see
    ``_block``."""
    rows, cols = values.shape
    step = max(1, BLOCK // cols)
    text = []
    for r in range(0, rows, step):
        block = np.ascontiguousarray(values[r : r + step], dtype=float).ravel()
        out = _block(block)
        out.view(np.uint8)[cols - 1 :: cols, 47] = 10
        text.append(out.tobytes().translate(None, b"\0"))
    return b"".join(text).decode("ascii")
