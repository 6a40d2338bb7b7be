"""Timing of the two passes of a rectangle `synthesize` that read the
whole control: the factor gap (control._sup_pass, every grid value of g
on the 257 x (steps+1) boundary cylinder, tile by tile) and the text of
control.csv (csvtext.format_table, t and the 4 mode profiles), on the
rectangle benchmark's control (the right edge of the pi x pi square,
kernel exp(-t), T = 2.5 pi, K = 4, the seed-1 target of
perfbench/run.py) at h = 2e-3 and 1e-3: 3928 and 7855 rows, so the step
exponent shows.  The control is synthesized once, outside the timed
calls, in a process of its own (bench_process.Worker).  pytest-benchmark
prints the medians of each call's round trip to that process, and
extra_info holds its own median time of the call;
BENCH_control_passes.json at the repository root records them.  All of
it runs in about two seconds.
"""

import numpy as np
import pytest

from memwave import build_moment_problem, synthesize
from memwave.cli import _family, _resolve_target
from memwave.config import from_dict
from memwave.control import _RealPasses, _factor_form, _sup_pass
from memwave.csvtext import format_table
from memwave.riesz import cholesky_solve, gram

from bench_process import Worker, timed
from test_factor_control_bench import PI, config


def problem_of(h):
    cfg = from_dict(config("rectangle", h))
    return build_moment_problem(_family(cfg), _resolve_target(cfg))


def sup_pass_call(h):
    """The factor gap pass with the arguments synthesize gives it."""
    problem = problem_of(h)
    fam = problem.family
    a = cholesky_solve(gram(fam).gram, problem.rhs)
    traces, profiles = _factor_form(fam, a)
    dense = _RealPasses(fam)
    forward = np.ascontiguousarray(profiles[:, ::-1])

    def call():
        return {"tiles": len(dense.tiles),
                "gap": float(_sup_pass(dense, a, traces, forward))}
    return call


def format_table_call(h):
    """The text of control.csv, the table cli._run_synthesize writes."""
    control = synthesize(problem_of(h))
    table = np.column_stack([control.grid.t, control.profiles.T])

    def call():
        return {"rows": len(table), "bytes": len(format_table(table))}
    return call


@pytest.fixture(scope="module")
def worker():
    w = Worker()
    yield w
    w.close()


@pytest.mark.parametrize("h", [2e-3, 1e-3])
def test_sup_pass_speed(benchmark, worker, h):
    out = timed(benchmark, worker.prepare(__name__, "sup_pass_call", h),
                rounds=20)
    assert out["tiles"] >= 17
    assert out["gap"] <= 1e-12


@pytest.mark.parametrize("h", [2e-3, 1e-3])
def test_format_table_speed(benchmark, worker, h):
    out = timed(benchmark, worker.prepare(__name__, "format_table_call", h),
                rounds=20)
    assert out["rows"] == round(2.5 * PI / h) + 1
    assert out["bytes"] > 80 * out["rows"]
