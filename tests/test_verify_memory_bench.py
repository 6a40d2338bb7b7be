"""Time and memory of `memwave verify` on the verify_interval benchmark's
config (the interval of length pi, kernel exp(-t), T = 2.5 pi, K = 4
controlled of K_sim = 12 simulated modes, the seed-1 target of
perfbench/run.py) at h = 2e-3, 1e-3, 5e-4 and 2.5e-4 (3927 to 31416
steps), so the step exponent of each figure shows.  Each h runs in a
worker process of its own (bench_process.Worker), a fresh output root
per run: pytest-benchmark prints the medians of the round trips, and
extra_info holds the worker's own median time and minor page faults
(ru_minflt) per run, its peak RSS (ru_maxrss) after the runs and the
tracemalloc peak of one more run.  BENCH_verify_memory.json at the
repository root records them.  All of it runs in about five seconds.
"""

import itertools
import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from memwave.cli import main

from bench_process import Worker, timed

PI = np.pi
K, K_SIM = 4, 12


def verify_call(h, root):
    """One `memwave verify` run of the benchmark config at step h, into a
    fresh output root under root, removed after the run."""
    rng = np.random.default_rng(1)
    scale = 1.0 / np.arange(1, K + 1)
    cfg = Path(root) / f"verify-{h!r}.json"
    cfg.write_text(json.dumps({
        "experiment": "verify",
        "domain": {"geometry": "interval", "lengths": [PI]},
        "kernel": {"family": "exponential_sum", "coefficients": [1.0],
                   "rates": [1.0]},
        "T": 2.5 * PI, "h": h, "K": K, "K_sim": K_SIM, "seed": 1,
        "target": {"xi": (rng.standard_normal(K) * scale).tolist(),
                   "eta": (rng.standard_normal(K) * scale).tolist()}}))
    runs = itertools.count()

    def call():
        out = Path(root) / f"out-{h!r}-{next(runs)}"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        shutil.rmtree(out)
        return {"code": code}
    return call


def traced_verify_call(h, root):
    """verify_call under tracemalloc; its summary adds the traced peak."""
    call = verify_call(h, root)

    def traced():
        tracemalloc.start()
        try:
            summary = call()
            summary["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return summary
    return traced


@pytest.mark.parametrize("h", [2e-3, 1e-3, 5e-4, 2.5e-4])
def test_verify_memory(benchmark, tmp_path, h):
    worker = Worker()
    try:
        out = timed(benchmark, worker.prepare(__name__, "verify_call", h,
                                              str(tmp_path)), rounds=5)
        assert out["code"] == 0
        traced = worker.prepare(__name__, "traced_verify_call", h,
                                str(tmp_path))()
    finally:
        worker.close()
    assert traced.summary["code"] == 0
    benchmark.extra_info["traced_peak_mb"] = traced.summary["traced_peak_mb"]
