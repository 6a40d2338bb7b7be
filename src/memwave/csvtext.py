"""CSV text of a float table, byte for byte what "%.17g" gives.

format_table(data) returns the rows of a (rows, cols) float table as
bytes: every value as "%.17g" % v prints it, the values of a row joined
by "," and each row ended by "\\n".

Printing values one at a time in Python costs ~1 us each.  Here the
common case, 1e-4 <= |v| < 1e17, where "%.17g" writes fixed-point text,
is done on whole arrays:

- Exact digits.  With E = floor(log10|v|) (np.log10's estimate,
  corrected by one where the exact product shows that it missed),
  Dekker's two-product of |v| and the exact double 10^(16-E) gives
  hi + lo = |v| 10^(16-E) exactly.  hi is an even integer (it is at
  least 1e16 > 2^53), so D = hi + rint(lo) is the 17-digit integer
  rounded half to even, as "%.17g" rounds; a carry to 10^17 raises E.
- Digit text.  D splits into a leading digit and four groups of four
  digits, each mapped to its ASCII digits through a 10^4-entry table
  that also blanks the trailing zeros of D to NUL.
- Layout.  Values are sorted by (E, sign), and each group of equal E
  and sign is laid out with slices into fixed-width cells: sign, then
  "ddd.ddd" for E >= 0 (the integer part gets its zeros back, and the
  point is NUL when no digit follows it) or "0.000ddd" for E < 0, and a
  separator in the last byte.  The cells go back to table order, and
  one mask drops their NUL bytes.

Every other value (zeros, |v| < 1e-4 or >= 1e17, where "%.17g" writes
exponent notation or a bare 0, and NaN or Inf) is printed with "%.17g"
one at a time.
"""

from __future__ import annotations

import numpy as np

# bytes of a cell: the longest "%.17g" text ("-2.2250738585072014e-308")
# and a separator
_WIDTH = 25
_ZERO, _POINT, _MINUS = (ord(c) for c in "0.-")
# 10^0 .. 10^20, every one an exact double
_POW10 = 10.0 ** np.arange(21)


def _digit_table():
    """_GROUPS[g] is the uint32 of the four ASCII digits of g < 10^4 with
    its trailing zeros blanked to NUL, _GROUPS[10^4 + g] that of all four
    digits, and _GROUPS[2 * 10^4 + d] that of three NULs and the digit
    d < 10.  Built in uint8, so the module adds little to a run's peak
    memory."""
    g = np.arange(10 ** 4, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10],
                      axis=1).astype(np.uint8) + _ZERO
    kept = np.logical_or.accumulate(digits[:, ::-1] != _ZERO, axis=1)
    table = np.zeros((2 * 10 ** 4 + 10, 4), dtype=np.uint8)
    table[:10 ** 4] = np.where(kept[:, ::-1], digits, 0)
    table[10 ** 4:2 * 10 ** 4] = digits
    table[2 * 10 ** 4:, 3] = digits[:10, 3]
    table = table.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


_GROUPS = _digit_table()


def _two_product(a, b):
    """(hi, lo) with hi = fl(a b) and hi + lo = a b exactly (Dekker)."""
    hi = a * b
    c = 134217729.0 * a                 # 2^27 + 1: Veltkamp's split
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi, lo


def _decimal(a):
    """(E, D) with a = D 10^(E-16) rounded half to even, D a 17-digit
    integer, for every a in [1e-4, 1e17); E is int8."""
    # log10 rounds up to 17 just below 1e17, never below -4 from 1e-4
    E = np.minimum(np.floor(np.log10(a)), 16).astype(np.int8)
    while True:
        hi, lo = _two_product(a, _POW10[16 - E])
        # the exact product hi + lo must lie in [1e16, 1e17)
        if not ((hi <= 1e16) | (hi >= 1e17)).any():
            break
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low.any() or high.any()):
            break
        E += high.astype(np.int8) - low
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = D == 10 ** 17
    if carry.any():
        D[carry] = 10 ** 16
        E[carry] += 1
    return E, D


def _text(D):
    """(n, 20) ASCII of the 17-digit integers D: three NUL bytes, then
    the digits with the trailing zeros blanked to NUL."""
    u = D // 10 ** 8
    v = D - u * 10 ** 8
    u4, v4 = u // 10 ** 4, v // 10 ** 4
    # rows: the leading digit and the four groups, each over all values
    groups = np.empty((5, len(D)), dtype=np.int64)
    lead = np.floor_divide(u4, 10 ** 4, out=groups[0])
    np.subtract(u4, lead * 10 ** 4, out=groups[1])
    np.subtract(u, u4 * 10 ** 4, out=groups[2])
    groups[3] = v4
    np.subtract(v, v4 * 10 ** 4, out=groups[4])
    lead += 2 * 10 ** 4
    # a group is printed whole when a later one is not zero
    later = np.logical_or.accumulate(groups[:1:-1] != 0)
    groups[3:0:-1] += 10 ** 4 * later
    return np.take(_GROUPS, groups.T, mode="clip").view(np.uint8)


def format_table(data) -> bytes:
    """The rows of a 2-D float table as "%.17g" text, "," between the
    values of a row and "\\n" after each row."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        return b"\n" * len(data)
    rows, cols = data.shape
    flat = data.ravel()
    a = np.abs(flat)
    fixed = (a >= 1e-4) & (a < 1e17)         # False for NaN
    # every other value is laid out as 1 here and redone below
    E, D = _decimal(np.where(fixed, a, 1.0))
    key = 2 * E + np.signbit(flat)
    order = np.argsort(key, kind="stable")
    key = key[order]
    text = _text(D[order])
    cells = np.zeros((flat.size, _WIDTH), dtype=np.uint8)
    bounds = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(),
              flat.size]
    for lo, hi in zip(bounds, bounds[1:]):
        e, s = divmod(int(key[lo]), 2)
        block, digits = cells[lo:hi], text[lo:hi, 3:]
        if s:
            block[:, 0] = _MINUS
        if e >= 0:
            # the integer part keeps its zeros; the point is NUL when
            # no digit follows it
            np.maximum(digits[:, :e + 1], _ZERO, out=block[:, s:s + e + 1])
            if e < 16:
                block[:, s + e + 1] = np.where(digits[:, e + 1], _POINT, 0)
                block[:, s + e + 2:s + 18] = digits[:, e + 1:]
        else:
            block[:, s] = _ZERO
            block[:, s + 1] = _POINT
            for k in range(s + 2, s + 1 - e):
                block[:, k] = _ZERO
            block[:, s + 1 - e:s + 18 - e] = digits
    inverse = np.empty_like(order)
    inverse[order] = np.arange(flat.size)
    cells = np.take(cells, inverse, axis=0)
    rest = (~fixed).nonzero()[0]
    if rest.size:
        texts = "".join(("%.17g" % v).ljust(_WIDTH, "\0")
                        for v in flat[rest].tolist())
        cells[rest] = np.frombuffer(texts.encode(), dtype=np.uint8).reshape(
            -1, _WIDTH)
    table = cells.reshape(rows, cols, _WIDTH)
    table[:, :-1, -1] = ord(",")
    table[:, -1, -1] = ord("\n")
    return cells[cells != 0].tobytes()
