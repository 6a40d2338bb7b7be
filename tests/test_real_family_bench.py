"""Timing of the stages the real two-profile families touch: building the
memory family (control.viscoelastic_family), its Gram (riesz.gram), the
synthesize stage (control.synthesize) and the whole `memwave synthesize`
CLI run, on the rectangle benchmark's one-edge rectangle (the right edge
of the pi x pi square, 257 nodes) and on the interval of length pi, with
the kernel exp(-t), T = 2.5 pi, K = 4 and perfbench's seed-1 target, at
h = 2e-3 and 1e-3; and the exact route of `sweep-t` (exact.exact_sweep)
on the sweep_horizons benchmark's 14 horizons 1.2 pi..2.5 pi at K = 8
and 80.  Each stage's inputs are built once, outside the timed call.
pytest-benchmark prints the medians; BENCH_real_family.json at the
repository root records them against the complex families they replace.
All of it runs in a few seconds.
"""

import json

import numpy as np
import pytest

from memwave import (build_moment_problem, compute_eigenpairs, gram,
                     normalize, synthesize, viscoelastic_family)
from memwave.cli import _resolve_target, _responses_for, _sweep_grid, main
from memwave.config import from_dict
from memwave.exact import exact_sweep

PI = np.pi
K = 4
DOMAINS = {"rectangle": {"geometry": "rectangle", "lengths": [PI, PI],
                         "gamma_subset": ["right"]},
           "interval": {"geometry": "interval", "lengths": [PI]}}
EXP = {"family": "exponential_sum", "coefficients": [1.0], "rates": [1.0]}


def config(domain, h):
    """The synthesize config, with perfbench's seeded target."""
    rng = np.random.default_rng(1)
    scale = 1.0 / np.arange(1, K + 1)
    return {"experiment": "synthesize", "domain": DOMAINS[domain],
            "kernel": EXP, "T": 2.5 * PI, "h": h, "K": K, "K_sim": K,
            "seed": 1,
            "target": {"xi": (rng.standard_normal(K) * scale).tolist(),
                       "eta": (rng.standard_normal(K) * scale).tolist()}}


def stage_inputs(domain, h):
    """(responses, boundary weights, family, moment problem) as the CLI
    builds them."""
    cfg = from_dict(config(domain, h))
    _, responses = _responses_for(cfg, cfg.T, cfg.K,
                                  grid_count=max(cfg.K, cfg.K_sim))
    gw = cfg.domain.gamma_weights()
    fam = viscoelastic_family(responses, gw)
    return responses, gw, fam, build_moment_problem(fam, _resolve_target(cfg))


CASES = [(d, h) for d in ("rectangle", "interval") for h in (2e-3, 1e-3)]


@pytest.mark.parametrize("domain, h", CASES)
def test_viscoelastic_family_speed(benchmark, domain, h):
    responses, gw, _, _ = stage_inputs(domain, h)
    fam = benchmark.pedantic(viscoelastic_family, args=(responses, gw),
                             rounds=10, warmup_rounds=1)
    assert fam.profiles.dtype == float
    assert fam.profiles.shape == (2 * K, responses.grid.steps + 1)


@pytest.mark.parametrize("domain, h", CASES)
def test_gram_speed(benchmark, domain, h):
    _, _, fam, _ = stage_inputs(domain, h)
    rep = benchmark.pedantic(gram, args=(fam,), rounds=10, warmup_rounds=1)
    assert rep.gram.dtype == float and rep.m_N > 0


@pytest.mark.parametrize("domain, h", CASES)
def test_synthesize_stage_speed(benchmark, domain, h):
    _, _, _, problem = stage_inputs(domain, h)
    control = benchmark.pedantic(synthesize, args=(problem,), rounds=10,
                                 warmup_rounds=1)
    assert control.coefficients.dtype == float
    assert control.factor_gap <= 1e-12


@pytest.mark.parametrize("domain, h", CASES)
def test_synthesize_cli_speed(benchmark, tmp_path, capsys, domain, h):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config(domain, h)))
    argv = ["synthesize", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = benchmark.pedantic(main, args=(argv,), rounds=5, warmup_rounds=1)
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("K_sweep, rounds", [(8, 10), (80, 3)])
def test_exact_sweep_speed(benchmark, K_sweep, rounds):
    cfg = from_dict({"experiment": "sweep-T", "domain": DOMAINS["interval"],
                     "kernel": EXP, "h": 2e-3, "K": K_sweep,
                     "sweep": {"T_min": 1.2 * PI, "T_max": 2.5 * PI,
                               "steps": 14}})
    grid, steps = _sweep_grid(cfg)
    kernel = normalize(cfg.kernel, grid)
    dom = cfg.domain
    args = (kernel.terms, kernel.alpha,
            compute_eigenpairs(dom, K_sweep, dom.c),
            compute_eigenpairs(dom, K_sweep, kernel.alpha), dom.c,
            dom.gamma_weights(), [k * grid.h for k in steps])
    reps = benchmark.pedantic(exact_sweep, args=args, rounds=rounds,
                              warmup_rounds=1)
    assert len(reps) == 2 and len(reps[0]) == 14
    assert all(r.m_N > 0 for r in reps[0][-5:] + reps[1][-5:])
