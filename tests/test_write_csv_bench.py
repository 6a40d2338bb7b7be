"""Timing of the CSV write (cli._write_artifacts) on tables shaped like
two benchmark artifacts, and of its two formatters around the size where
it switches.

control: the rectangle synthesize's control.csv, t and 4 mode profiles
on the h = 2e-3 grid of T = 2.5 pi (3928 x 5) and on the h = 1e-3 grid
(7855 x 5); sweep: the sweep-t
sweep.csv, 14 horizons and two frame bounds (14 x 3).  The values are
seeded stand-ins of the same shape and magnitude.  The crossover tests
time the per-value rows (cli._csv_rows) and csvtext.format_table on
tables of 4 columns and 64, 320 and 1024 values; cli.CSV_TABLE_CELLS is
where they cross.  pytest-benchmark prints the medians;
BENCH_write_csv.json at the repository root records them.  All of it
runs in well under a second.
"""

import numpy as np
import pytest

from memwave.cli import _csv_rows, _write_artifacts
from memwave.csvtext import format_table

PI = np.pi


def control_table(rows=3928, h=2e-3):
    t = np.arange(rows) * h
    rng = np.random.default_rng(1)
    profiles = rng.standard_normal((rows, 4)) * np.sin(t)[:, None]
    return ["t", "g_mode1", "g_mode2", "g_mode3", "g_mode4"], \
        np.column_stack([t, profiles])


def control_table_fine():
    return control_table(7855, 1e-3)


def sweep_table():
    rng = np.random.default_rng(1)
    horizons = (1.2 + 0.1 * np.arange(14)) * PI
    return ["T", "m_N_telegraph", "m_N_visco"], \
        np.column_stack([horizons, rng.uniform(0, 1, (14, 2))])


@pytest.mark.parametrize("table, rounds", [(control_table, 20),
                                           (control_table_fine, 10),
                                           (sweep_table, 200)],
                         ids=["control_3928x5", "control_7855x5",
                              "sweep_14x3"])
def test_write_csv_speed(benchmark, tmp_path, table, rounds):
    columns, data = table()
    path = str(tmp_path / "table.csv")
    benchmark.pedantic(_write_artifacts,
                       args=(str(tmp_path), [("table.csv", columns, data)],
                             "h"), rounds=rounds, warmup_rounds=2)
    with open(path) as fh:
        assert len(fh.read().splitlines()) == len(data) + 2
    assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), data)


@pytest.mark.parametrize("cells", [64, 320, 1024])
@pytest.mark.parametrize("formatter", [_csv_rows, format_table],
                         ids=["per_value", "format_table"])
def test_write_csv_crossover(benchmark, formatter, cells):
    rng = np.random.default_rng(1)
    rows = cells // 4
    data = np.column_stack([np.arange(rows) * 0.1 * PI,
                            rng.standard_normal((rows, 3))])
    text = benchmark.pedantic(formatter, args=(data,), rounds=100,
                              warmup_rounds=2)
    assert text == _csv_rows(data)
