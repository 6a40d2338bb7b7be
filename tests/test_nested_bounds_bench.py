"""Timing of the report pass (riesz.gram_reports) on one exact-route
family: the memory family of the interval of length pi with the kernel
exp(-t), at the one horizon 2.5 pi, for K = 8, 40 and 80 modes (16, 80
and 160 members).  Its closed-form time Gram is built once, outside the
timed call, so the figure is the boundary product, the finite and
Hermitian checks and the nested frame bounds at riesz.nested_levels.
pytest-benchmark prints the medians; BENCH_nested_bounds.json at the
repository root records them, with K = 160, which is timed outside this
suite.  All of it runs in about a second.
"""

import numpy as np
import pytest

from memwave import (DomainSpec, KernelSpec, TimeGrid, compute_eigenpairs,
                     gram_reports, normalize)
from memwave.exact import (_exponential_members, _exponential_time_grams,
                           exact_modes)
from memwave.riesz import nested_levels

PI = np.pi
DOM = DomainSpec("interval", (PI,))
EXP = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))


def memory_family(K):
    """(psi, time Grams, label) of the exact memory family at 2.5 pi."""
    kernel = normalize(EXP, TimeGrid(2.5 * PI, 8))
    pairs = compute_eigenpairs(DOM, K, kernel.alpha)
    modes = exact_modes(kernel.terms, kernel.alpha, pairs)
    rates, weights, traces = _exponential_members(pairs, modes.roots, modes.Z)
    return (traces, _exponential_time_grams(rates, weights, [2.5 * PI]),
            "viscoelastic")


@pytest.mark.parametrize("K, rounds", [(8, 100), (40, 30), (80, 10)])
def test_nested_bounds_speed(benchmark, K, rounds):
    family = memory_family(K)
    (reps,) = benchmark.pedantic(gram_reports,
                                 args=([family], DOM.gamma_weights()),
                                 rounds=rounds, warmup_rounds=2)
    (rep,) = reps
    assert rep.levels == nested_levels(2 * K)
    assert len(rep.frame_lower) == len(rep.levels)
    assert rep.m_N > 0
