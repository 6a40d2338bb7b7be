"""In-process probe of the host CPU's speed while an operation runs.

The benchmark runs on a few vCPUs of a shared host.  Their speed is not
constant: for seconds to minutes at a time the same code runs up to ~1.9x
slower, and an operation of a few seconds spans several such phases.  A
median of raw wall times then measures the host's phases, not memwave.

The probe times a small fixed piece of work on the benchmark's own thread,
every PERIOD_S seconds of wall time, for as long as an operation runs.
The work is the kind the program spends most of its time in (a Python loop
of numpy dot products over a few thousand doubles, as in a modal march),
and it uses no memwave code.  A short untimed warm-up first brings its
32 kB of operands back into cache: without it the probe reads the
program's memory footprint (the rectangle's 100+ MB arrays evict them,
and its first dot products ran 3.5x slower), so a change to the program
would move the reading.  The ratio REFERENCE_S / duration is the host's
speed at that moment, relative to the reference speed at which the probe
takes REFERENCE_S.  Averaged over the operation, weighted by the wall time
each sample stands for, it rescales the operation's time to that
reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# The probe's duration at the reference speed: its typical duration in a
# fast phase of a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.26e-3
_FIRST, _LAST = 2000, 2080          # dot lengths, 16-17 kB per operand
_WARM = 8                           # untimed dot products before timing


class SpeedProbe:
    """Samples host speed on SIGALRM while entered; one instance at a time.

    Python runs the handler on the main thread between bytecodes, so a
    sample never interrupts a C call; a sample that had to wait stands for
    the whole wall time since the previous one.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(_LAST)
        self._y = rng.standard_normal(_LAST)
        self.samples = []            # (wall seconds stood for, duration)
        self._spent = 0.0            # the probe's own time, warm-up included
        self._last = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None):
        a, y = self._a, self._y
        s = 0.0
        start = time.perf_counter()
        for j in range(_FIRST, _FIRST + _WARM):
            s += 0.5 * np.dot(a[j - 1:0:-1], y[1:j]) + 1.0
        t0 = time.perf_counter()
        for j in range(_FIRST, _LAST):
            s += 0.5 * np.dot(a[j - 1:0:-1], y[1:j]) + 1.0
        t1 = time.perf_counter()
        self.samples.append((t1 - self._last, t1 - t0))
        self._spent += t1 - start
        self._last = t1

    def __enter__(self):
        self.samples = []
        self._spent = 0.0
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:         # shorter than one period: sample once,
            spent = self._spent      # after the timed span, so not counted
            self._probe()            # in probe_s()
            self._spent = spent
        return False

    def probe_s(self):
        """Wall (and CPU) seconds the probe itself took."""
        return self._spent

    def speed(self):
        """Host speed over the samples, relative to the reference speed."""
        total = sum(w for w, _ in self.samples)
        return sum(w * REFERENCE_S / d for w, d in self.samples) / total
