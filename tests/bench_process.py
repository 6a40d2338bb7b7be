"""A process of its own for timed calls.

A call's time depends on the heap its process has grown: glibc raises
its mmap threshold after a large block is freed, so arrays that an
earlier, larger config left behind change where the next config's
arrays live and how many fresh pages it touches.  A bench module that
times several domains therefore gives each domain a Worker, a fresh
interpreter that builds the calls of that domain and times them.

    worker = Worker()
    run = worker.prepare("test_module", "factory", *args)
    call = run()                  # one timed call in the worker
    summary = timed(benchmark, run, rounds)     # under pytest-benchmark
    worker.close()

factory(*args) runs in the worker and returns the call to time; the call
returns a JSON-able summary for the test's asserts.  The worker times
each call with time.perf_counter and returns that time with the summary,
so the figure leaves out the pipe's round trip, which pytest-benchmark's
own timing of run() includes (0.15-0.3 ms on a 2-vCPU Xeon VM).  With
them come the call's minor page faults (the ru_minflt delta: fresh
pages touched) and the worker's peak RSS after it (ru_maxrss), so a
bench records memory per process too.  The worker's stdout is
/dev/null, so the CLI's prints stay out of the pipe.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent


class Call(NamedTuple):
    """One timed call in the worker."""

    seconds: float      # time.perf_counter around the call
    summary: object     # what the call returned
    minflt: int         # the worker's ru_minflt during the call
    maxrss_mb: float    # the worker's ru_maxrss after the call (Linux KiB)


class Worker:
    def __init__(self):
        import memwave
        src = Path(memwave.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src),
                                                           str(TESTS)]))
        serve = "import bench_process; bench_process.serve()"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", serve], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, text=True)
        self.calls = 0

    def _ask(self, *request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"bench worker exited {self.proc.wait()}")
        status, value = json.loads(reply)
        if status != "ok":
            raise RuntimeError(f"bench worker: {value}")
        return value

    def prepare(self, module, factory, *args):
        """The worker builds factory(*args); returns run(), which makes
        one timed call there and gives its Call."""
        key = self.calls
        self.calls += 1
        self._ask("prepare", key, module, factory, args)
        return lambda: Call(*self._ask("run", key))

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def timed(benchmark, run, rounds):
    """pytest-benchmark's rounds of run() after one warm-up, with the
    worker's own median time and minor page faults of the calls and its
    peak RSS after the last in extra_info ("in_process_median_s",
    "minflt_median", "maxrss_mb"); the last call's summary."""
    calls = []

    def once():
        calls.append(run())
        return calls[-1].summary
    summary = benchmark.pedantic(once, rounds=rounds, warmup_rounds=1)
    benchmark.extra_info.update(
        in_process_median_s=statistics.median(c.seconds for c in calls[1:]),
        minflt_median=statistics.median(c.minflt for c in calls[1:]),
        maxrss_mb=calls[-1].maxrss_mb)
    return summary


def serve():
    """The worker's loop: one JSON request a line on stdin, one reply a
    line on the stdout it was started with."""
    reply = os.fdopen(os.dup(1), "w")
    sys.stdout = open(os.devnull, "w")
    calls = {}
    for line in sys.stdin:
        op, key, *args = json.loads(line)
        try:
            if op == "prepare":
                module, factory, fargs = args
                calls[key] = getattr(import_module(module), factory)(*fargs)
                value = None
            else:
                call = calls[key]
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                summary = call()
                seconds = time.perf_counter() - start
                usage = resource.getrusage(resource.RUSAGE_SELF)
                value = [seconds, summary, usage.ru_minflt - faults,
                         usage.ru_maxrss / 1024]
            reply.write(json.dumps(["ok", value]) + "\n")
        except Exception as exc:    # reported to the test, which fails
            reply.write(json.dumps(["error", repr(exc)]) + "\n")
        reply.flush()
