"""Timing of the stages the one-march change touches, on the
verify_interval benchmark's config (the interval of length pi, kernel
exp(-t), T = 2.5 pi, K = 4 controlled of K_sim = 12 simulated modes, the
seed-1 target of perfbench/run.py) at h = 2e-3 and 1e-3, so the step
exponent shows: compute_responses (one march of z and the rows N' and
N, the assembly and the two-route Z check), simulate_march (one march of
the shared row N * f) and the whole `memwave verify` CLI run, in
process.  The stages' inputs are built once, outside the timed calls.
pytest-benchmark prints the medians; BENCH_real_march.json at the
repository root records them against the complex Z march they replace.
All of it runs in about two seconds.
"""

import json

import numpy as np
import pytest

from memwave import (DomainSpec, KernelSpec, TargetState,
                     build_moment_problem, compute_eigenpairs,
                     compute_responses, make_grid, normalize, simulate_march,
                     synthesize, viscoelastic_family)
from memwave.cli import main

PI = np.pi
K, K_SIM = 4, 12


def target():
    """perfbench's seed-1 target."""
    rng = np.random.default_rng(1)
    scale = 1.0 / np.arange(1, K + 1)
    return (rng.standard_normal(K) * scale).tolist(), \
        (rng.standard_normal(K) * scale).tolist()


def setup(h):
    kernel = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)), make_grid(2.5 * PI, h))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), K_SIM,
                               alpha=kernel.alpha)
    return kernel, modes


@pytest.mark.parametrize("h", [2e-3, 1e-3])
def test_compute_responses_speed(benchmark, h):
    kernel, modes = setup(h)
    resp = benchmark.pedantic(compute_responses, args=(kernel, modes),
                              rounds=10, warmup_rounds=1)
    assert resp.z.shape == (K_SIM, kernel.grid.steps + 1)
    assert np.all(resp.z_gap_ratio < 1.0)


@pytest.mark.parametrize("h", [2e-3, 1e-3])
def test_simulate_march_speed(benchmark, h):
    kernel, modes = setup(h)
    resp = compute_responses(kernel, modes)
    control = synthesize(build_moment_problem(
        viscoelastic_family(resp.head(K)), TargetState(*target(), K)))
    res = benchmark.pedantic(simulate_march, args=(kernel, modes, control),
                             rounds=10, warmup_rounds=1)
    assert res.theta_T.shape == (K_SIM,)
    assert np.all(np.isfinite(res.theta_t_T))


@pytest.mark.parametrize("h", [2e-3, 1e-3])
def test_verify_cli_speed(benchmark, tmp_path, capsys, h):
    xi, eta = target()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "verify",
        "domain": {"geometry": "interval", "lengths": [PI]},
        "kernel": {"family": "exponential_sum", "coefficients": [1.0],
                   "rates": [1.0]},
        "T": 2.5 * PI, "h": h, "K": K, "K_sim": K_SIM, "seed": 1,
        "target": {"xi": xi, "eta": eta}}))
    runs = iter(range(100))

    def verify():
        # a fresh output root per run: verify scans every directory under
        # its root for a prior synthesis
        return main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / f"out{next(runs)}")])
    code = benchmark.pedantic(verify, rounds=5, warmup_rounds=1)
    assert code == 0
    capsys.readouterr()
