"""memwave.csvtext against the per-value "%.17g" it replaces."""

import math

import numpy as np
import pytest

from memwave.csvtext import _text, format_table


def per_value(data):
    """The CSV text of a 2-D table, "%.17g" applied to each value."""
    data = np.asarray(data, dtype=float)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in data.tolist()).encode()


def oracle_values():
    """~1.01 million doubles of random sign: every binary exponent, ties
    at the 17th digit, powers of ten and their neighbours, the edges of
    the fixed-point range, large integers, grid times, uniform draws and
    random bit patterns."""
    rng = np.random.default_rng(20)
    parts = []
    # every binary exponent, subnormals included, 60 mantissas each
    exps = np.repeat(np.arange(-1074, 1024), 60)
    parts.append(np.ldexp(rng.uniform(0.5, 1.0, exps.size), exps + 1))
    # (k + 1/2) 10^j with 16-digit k: a tie at the 17th digit, up to
    # the rounding of the product
    k = rng.integers(10 ** 15, 10 ** 16, 100_000).astype(float)
    parts.append((k + 0.5) * 10.0 ** rng.integers(-21, 2, k.size))
    # exact ties: o / 2^(17 - E) in [10^E, 10^(E+1)), o odd, has 18
    # significant digits, the last a 5
    for E in range(-4, 15):
        p = 17 - E
        lo = math.ceil(10.0 ** E * 2 ** p)
        hi = math.floor(10.0 ** (E + 1) * 2 ** p)
        o = rng.integers(lo // 2, hi // 2, 5_000) * 2 + 1
        parts.append(np.ldexp(o.astype(float), -p))
    # powers of ten, the fixed-point edges and three neighbours each way
    edges = np.concatenate([10.0 ** np.arange(-30, 31),
                            [1e-4, 1e17, 2.0 ** 53]])
    up = down = edges
    parts.append(edges)
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
        parts += [up, down]
    # integers beyond 2^53, grid times, uniform draws, random bits
    parts.append(rng.integers(2 ** 53, 10 ** 17, 50_000).astype(float))
    parts.append(np.arange(200_000) * 2e-3)
    parts.append(rng.uniform(0.0, 1.0, 420_000))
    bits = rng.integers(0, 2 ** 63, 20_000, dtype=np.uint64).view(np.float64)
    parts.append(bits[np.isfinite(bits)])
    parts.append(np.array([0.0, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308]))
    values = np.concatenate(parts)
    return np.where(rng.integers(0, 2, values.size) == 1, -values, values)


def test_format_table_matches_per_value_oracle():
    values = oracle_values()
    assert values.size >= 10 ** 6
    # tables of 2^16 rows keep the memory of one call small
    table = values[:values.size // 8 * 8].reshape(-1, 8)
    for start in range(0, len(table), 2 ** 16):
        rows = table[start:start + 2 ** 16]
        assert format_table(rows) == per_value(rows)


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)])
def test_format_table_one_row_and_one_column(shape):
    rng = np.random.default_rng(3)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 18, shape)
    assert format_table(table) == per_value(table)


def test_format_table_fallback_and_empty():
    table = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300],
                      [1e300, -2.2250738585072014e-308, 100.0, -1.0, 0.5,
                       12345678901234567.0]])
    assert format_table(table) == per_value(table)
    assert format_table(np.empty((0, 3))) == b""


def test_text_of_every_pattern_of_zero_groups():
    # 17-digit integers with each of the 16 patterns of zero 4-digit
    # groups, and 10^16: every one a multiple of 16, so a double holds it
    # and "%.17g" prints its 17 digits
    rng = np.random.default_rng(5)
    values = [10 ** 16]
    for pattern in range(16):
        for draw in range(12):
            digits = int(rng.integers(1, 10))
            for k in range(4):
                # a nonzero group: 1000, 1600 or a draw, a multiple of 16
                # in the last place
                group = (0 if not pattern >> k & 1 else
                         (1000, 1600)[k == 3] if draw == 0 else
                         int(rng.integers(1, 625)) * 16 if k == 3 else
                         int(rng.integers(1, 10 ** 4)))
                digits = digits * 10 ** 4 + group
            values.append(digits)
    expected = b"".join(
        b"\0" * 3 + ("%.17g" % float(v)).rstrip("0").ljust(17, "\0").encode()
        for v in values)
    text = _text(np.array(values, dtype=np.int64))
    assert text.shape == (len(values), 20)
    assert text.tobytes() == expected
