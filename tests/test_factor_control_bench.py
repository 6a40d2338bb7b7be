"""Timing of the synthesize stage (control.synthesize) and of the whole
`memwave synthesize` CLI run, on the rectangle benchmark's one-edge
rectangle (the right edge of the pi x pi square, 257 nodes) and on the
interval of length pi, with the kernel exp(-t), T = 2.5 pi, K = 4 and a
seeded target, at h = 2e-3 and 1e-3.  The stage's family and moment
problem are built once, outside the timed call.  pytest-benchmark
prints the medians; BENCH_factor_control.json at the repository root
records them against the dense control the stage used to build, with
the traced peak of the stage.  All of it runs in about two seconds.
"""

import json

import numpy as np
import pytest

from memwave import build_moment_problem, synthesize
from memwave.cli import _family, _resolve_target, main
from memwave.config import from_dict

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


@pytest.mark.parametrize("h", [2e-3, 1e-3])
@pytest.mark.parametrize("domain", ["rectangle", "interval"])
def test_synthesize_stage_speed(benchmark, domain, h):
    # the moment problem as the CLI builds it
    cfg = from_dict(config(domain, h))
    problem = build_moment_problem(_family(cfg), _resolve_target(cfg))
    control = benchmark.pedantic(synthesize, args=(problem,),
                                 rounds=10, warmup_rounds=1)
    nodes = problem.family.psi.shape[1]
    assert nodes == (257 if domain == "rectangle" else 1)
    assert control.traces.shape == (K, nodes)
    assert control.profiles.shape == (K, problem.family.grid.steps + 1)
    assert control.factor_gap <= 1e-12


@pytest.mark.parametrize("h", [2e-3, 1e-3])
@pytest.mark.parametrize("domain", ["rectangle", "interval"])
def test_synthesize_cli_speed(benchmark, tmp_path, capsys, domain, h):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config(domain, h)))
    argv = ["synthesize", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = benchmark.pedantic(main, args=(argv,), rounds=5, warmup_rounds=1)
    assert code == 0
    (adir,) = (tmp_path / "out").iterdir()
    with open(adir / "control.csv") as fh:
        assert sum(1 for _ in fh) == 2 + round(2.5 * PI / h) + 1
    capsys.readouterr()
