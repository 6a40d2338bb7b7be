"""Timing of the exact route's closed-form time Grams
(exact._exponential_time_grams) at the 14 horizons of the benchmark
sweep, 1.2 pi to 2.5 pi, for the telegraph family (c = 0) and the memory
family of the kernel exp(-t) on the interval of length pi, at K = 8 and
80 modes (16 and 160 members).  Each family's rates and weights are
built once, outside the timed call, in a process of its own
(bench_process.Worker).  pytest-benchmark prints the medians of each
call's round trip to the worker, and extra_info holds the worker's own
median time of the call; BENCH_exact_grams.json at the repository root
records them against the sums over every pair of the members' exponents
that the Grams were before, and BENCH_exact_blocks.json against the
passes of 4 horizons that blocks of exact.PAIR_BLOCK_BYTES replaced, each
with K = 320, which is timed outside this suite.  All of it runs in
about two seconds.
"""

import numpy as np
import pytest

from memwave import DomainSpec, KernelSpec, TimeGrid, compute_eigenpairs, \
    normalize
from memwave.exact import (EXACT_TOL, _exponential_members,
                           _exponential_time_grams, exact_modes,
                           transformed_exponential_terms)

from bench_process import Worker, timed

PI = np.pi
DOM = DomainSpec("interval", (PI,))
EXP = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
HORIZONS = np.linspace(1.2 * PI, 2.5 * PI, 14).tolist()


def gram_call(family, K):
    """The family's time Grams at HORIZONS, its rates and weights built
    here, outside the timed call."""
    if family == "telegraph":
        modes = compute_eigenpairs(DOM, K, 0.0)
        terms = transformed_exponential_terms(modes, 0.0)
    else:
        kernel = normalize(EXP, TimeGrid(2.5 * PI, 8))
        modes = compute_eigenpairs(DOM, K, kernel.alpha)
        terms = exact_modes(kernel.terms, kernel.alpha, modes)
    rates, weights, _ = _exponential_members(modes, *terms)

    def call():
        grams = _exponential_time_grams(rates, weights, HORIZONS)
        return {"shape": grams.shape, "exponents": rates.shape[1],
                "leak": float(np.max(np.abs(grams.imag))
                              / np.max(np.abs(grams.real)))}
    return call


@pytest.fixture(scope="module")
def worker():
    w = Worker()
    yield w
    w.close()


@pytest.mark.parametrize("K, rounds", [(8, 50), (80, 10)])
@pytest.mark.parametrize("family", ["telegraph", "memory"])
def test_exact_time_grams_speed(benchmark, worker, family, K, rounds):
    out = timed(benchmark, worker.prepare(__name__, "gram_call", family, K),
                rounds)
    assert out["shape"] == [len(HORIZONS), 2 * K, 2 * K]
    assert out["exponents"] == (2 if family == "telegraph" else 3)
    assert out["leak"] <= EXACT_TOL
