"""Timing of the synthesize stage (control.synthesize) and of the whole
`memwave synthesize` CLI run, on the rectangle benchmark's one-edge
rectangle (the right edge of the pi x pi square, 257 nodes) and on the
interval of length pi, with the kernel exp(-t), T = 2.5 pi, K = 4 and a
seeded target, at h = 2e-3 and 1e-3.  The stage's family and moment
problem are built once, outside the timed call.  Each domain is timed
in a process of its own (bench_process.Worker), so the interval's
figures do not depend on the heap the rectangle's runs leave behind.
pytest-benchmark prints the medians of each call's round trip to the
worker, and extra_info holds the worker's own median time of the call;
BENCH_factor_control.json at the repository root records them against
the dense control the stage used to build, with the traced peak of the
stage.  All of it runs in about three seconds.
"""

import json
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from memwave import build_moment_problem, synthesize
from memwave.cli import _family, _resolve_target, main
from memwave.config import from_dict

from bench_process import Worker, timed

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


def stage_call(domain, h):
    """synthesize on the moment problem as the CLI builds it, built once
    here, outside the timed call."""
    cfg = from_dict(config(domain, h))
    problem = build_moment_problem(_family(cfg), _resolve_target(cfg))

    def call():
        control = synthesize(problem)
        return {"nodes": problem.family.psi.shape[1],
                "steps": problem.family.grid.steps,
                "traces": control.traces.shape,
                "profiles": control.profiles.shape,
                "factor_gap": control.factor_gap}
    return call


def cli_call(domain, h, tmp):
    """The synthesize CLI run, into a fresh output root per call."""
    cfg = Path(tmp) / f"{domain}-{h}.json"
    cfg.write_text(json.dumps(config(domain, h)))
    runs = count()

    def call():
        out = Path(tmp) / f"out-{domain}-{h}-{next(runs)}"
        code = main(["synthesize", "--config", str(cfg), "--out", str(out)])
        return {"code": code, "out": str(out)}
    return call


@pytest.fixture(scope="module")
def worker():
    """worker(domain): the process that times that domain's calls."""
    workers = {}
    yield lambda domain: workers.setdefault(domain, Worker())
    for w in workers.values():
        w.close()


@pytest.mark.parametrize("h", [2e-3, 1e-3])
@pytest.mark.parametrize("domain", ["rectangle", "interval"])
def test_synthesize_stage_speed(benchmark, worker, domain, h):
    run = worker(domain).prepare(__name__, "stage_call", domain, h)
    out = timed(benchmark, run, rounds=10)
    nodes, samples = out["nodes"], out["steps"] + 1
    assert nodes == (257 if domain == "rectangle" else 1)
    assert out["traces"] == [K, nodes]
    assert out["profiles"] == [K, samples]
    assert out["factor_gap"] <= 1e-12


@pytest.mark.parametrize("h", [2e-3, 1e-3])
@pytest.mark.parametrize("domain", ["rectangle", "interval"])
def test_synthesize_cli_speed(benchmark, worker, tmp_path, domain, h):
    run = worker(domain).prepare(__name__, "cli_call", domain, h,
                                 str(tmp_path))
    out = timed(benchmark, run, rounds=5)
    assert out["code"] == 0
    (adir,) = Path(out["out"]).iterdir()
    with open(adir / "control.csv") as fh:
        assert sum(1 for _ in fh) == 2 + round(2.5 * PI / h) + 1
