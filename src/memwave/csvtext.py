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
  digits, one contiguous int64 array each.  A table (_GROUPS) maps each
  to its ASCII digits: whole when a later group is not zero (the
  groups' nonzero flags joined by two ORs), else with its trailing
  zeros blanked to NUL.  Each group's gather writes its column of one
  (n, 5) uint32 array, so a value's text is one contiguous row.
- Layout.  Values are sorted by (E, sign), and each group of equal E
  and sign is laid out with slices into fixed-width cells: sign, then
  "ddd.ddd" for E >= 0 (the integer part gets its zeros back, and the
  point is NUL when no digit follows it) or "0.000ddd" for E < 0, and a
  separator in the last byte.  The cells go back to table order, and
  one mask drops their NUL bytes.
- Memory.  Each large array is dropped once read, so a call holds
  about two tables of cells at its peak: the pages a call adds to the
  heap are, on a large table, as costly as a pass over it.

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
        hi, lo = _two_product(a, np.take(_POW10, 16 - E))
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
    # the leading digit and the four groups of four digits
    u = D // 10 ** 8
    v = np.multiply(u, 10 ** 8)
    np.subtract(D, v, out=v)
    lead, g1, g3 = u // 10 ** 8, u // 10 ** 4, v // 10 ** 4
    t = np.multiply(g1, 10 ** 4)
    g2 = np.subtract(u, t, out=u)
    g4 = np.subtract(v, np.multiply(g3, 10 ** 4, out=t), out=v)
    g1 -= np.multiply(lead, 10 ** 4, out=t)
    # group k is printed whole when a later group is not zero
    whole3 = g4 != 0
    whole2 = whole3 | (g3 != 0)
    whole1 = whole2 | (g2 != 0)
    # one table row per value: each group's gather writes its column
    out = np.empty((len(D), 5), dtype=np.uint32)
    lead += 2 * 10 ** 4
    np.take(_GROUPS, lead, out=out[:, 0], mode="clip")
    for k, (g, whole) in enumerate(((g1, whole1), (g2, whole2),
                                    (g3, whole3)), 1):
        np.add(g, 10 ** 4, out=g, where=whole)
        np.take(_GROUPS, g, out=out[:, k], mode="clip")
    np.take(_GROUPS, g4, out=out[:, 4], mode="clip")
    return out.view(np.uint8)


def _layout(key, text):
    """The (n, _WIDTH) cells of the values sorted by key = 2 E + sign,
    each laid out from its digit text (_text) and NUL where no text
    falls."""
    cells = np.zeros((len(key), _WIDTH), dtype=np.uint8)
    bounds = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist(),
              len(key)]
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
    return cells


def format_table(data) -> bytes:
    """The rows of a 2-D float table as "%.17g" text, "," between the
    values of a row and "\\n" after each row."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        return b"\n" * len(data)
    cols = data.shape[1]
    flat = data.ravel()
    a = np.abs(flat)
    fixed = (a >= 1e-4) & (a < 1e17)         # False for NaN
    # every other value is laid out as 1 here and redone below
    a[~fixed] = 1.0
    # each array is dropped once read (see Memory above)
    E, D = _decimal(a)
    key = 2 * E + np.signbit(flat)
    del a, E
    order = np.argsort(key, kind="stable")
    D = D[order]
    cells = _layout(key[order], _text(D))
    del D, key
    # the cells back in table order
    inverse = np.empty_like(order)
    inverse[order] = np.arange(flat.size)
    del order
    table = np.take(cells, inverse, axis=0)
    del cells, inverse
    rest = (~fixed).nonzero()[0]
    if rest.size:
        texts = "".join(("%.17g" % v).ljust(_WIDTH, "\0")
                        for v in flat[rest].tolist())
        table[rest] = np.frombuffer(texts.encode(), dtype=np.uint8).reshape(
            -1, _WIDTH)
    # the last byte of a cell: "," or, for a row's last value, "\\n"
    table[:, -1] = ord(",")
    table[cols - 1::cols, -1] = ord("\n")
    text = table[table != 0]
    del table
    return text.tobytes()
