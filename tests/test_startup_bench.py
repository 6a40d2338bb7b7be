"""Timing of `import memwave.cli` in a fresh interpreter, the import that
every `memwave` invocation pays and that perfbench reports as setup_s.

Each round is a `python -c` that imports numpy, then times the import
of memwave.cli, as perfbench's SETUP_CODE does.  The package is copied
into a directory of its own with no __pycache__, and the child runs with
PYTHONDONTWRITEBYTECODE=1, so that every round compiles memwave's
sources.  pytest-benchmark times each whole child (interpreter start and
numpy included); the child's own import times go to extra_info
("import_median_s").  BENCH_startup.json at the repository root records
them.  Five rounds take about a second.
"""

import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import memwave

CHILD = """
import sys, time
import numpy
t = time.perf_counter()
import memwave.cli
t = time.perf_counter() - t
print(t, sorted(m for m in ("dataclasses", "copy") if m in sys.modules))
"""


def test_cli_import_speed(benchmark, tmp_path):
    shutil.copytree(Path(memwave.__file__).resolve().parent,
                    tmp_path / "memwave",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tmp_path))
    seconds = []

    def once():
        done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        t, loaded = done.stdout.split(maxsplit=1)
        seconds.append(float(t))
        return loaded.strip()

    loaded = benchmark.pedantic(once, rounds=5)
    benchmark.extra_info["import_median_s"] = statistics.median(seconds)
    assert loaded == "[]"
    assert not (tmp_path / "memwave" / "__pycache__").exists()
