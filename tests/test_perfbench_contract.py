"""The traced benchmark's contract with the library.

perfbench/spans.py wraps memwave functions by their names and reads its
counters off what they return.  A renamed function, or a family that
loses the attribute a counter reads, would silently drop a layer from
the traced runs; these tests name the break instead.  spans.py is
loaded from its file, as the benchmark runner loads it.
"""

import contextlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from memwave import cli

ROOT = Path(__file__).resolve().parent.parent
PI = np.pi


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_a_memwave_function(spans):
    for name in spans.SPANS:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"memwave.{module}"),
                                func, None)), name
    assert set(spans.COUNTERS) <= set(spans.SPANS)


def test_traced_runs_record_the_counters(spans, tmp_path):
    interval = {"geometry": "interval", "lengths": [PI]}
    runs = {
        "verify": {"domain": interval, "T": 2.5 * PI, "h": 0.02, "K": 2,
                   "K_sim": 3, "target": "random", "seed": 1,
                   "kernel": {"family": "exponential_sum",
                              "coefficients": [1.0], "rates": [1.0]}},
        # c = 1 puts mode 1 on the degenerate set, so the sweep marches
        "sweep-t": {"domain": dict(interval, c=1.0), "h": 0.02, "K": 3,
                    "kernel": {"family": "zero"},
                    "sweep": {"T_min": 1.5 * PI, "T_max": 2.5 * PI,
                              "steps": 3}},
    }
    tracer = spans.Tracer()
    for command, doc in runs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(path),
                                 "--out", str(tmp_path / "out")])
        finally:
            tracer.uninstall()
        assert code == 0, command
    (sweep,) = (tmp_path / "out").glob("sweep-t-*/sweep.json")
    assert json.loads(sweep.read_text())["route"] == "march"
    ops = tracer.per_operation()
    assert len(ops) == len(runs)
    for layers, counts in ops:
        assert "cli.main" in layers and "volterra.march_modal" in layers
        assert counts["volterra.march_modal.steps"] > 0
        assert counts["control.family.bytes"] > 0
