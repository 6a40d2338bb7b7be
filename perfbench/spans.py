"""Outside-in span tracing of memwave's layers.

The program is not edited: each traced function is replaced, for the
duration of a traced operation, under every module attribute that holds
it.  That matters because the program looks functions up through several
modules (`cli` imports names directly, `control` calls `riesz.gram`,
`volterra` and `simulate` call `kernels.convolve` and `march_modal`
through their own globals).

Spans stay in memory as (name, parent, start, end, count) records with
parent links; `write` dumps them when the run ends.  A span's self time
is its duration minus the durations of its direct children, which tile
disjoint parts of it because the program runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# Layer boundaries, named <module>.<function>.  cli.main is the root of
# every operation; its self time is config parsing, artifact I/O and the
# output-root scan.
SPANS = (
    "cli.main",
    "kernels.normalize", "kernels.resolvent", "kernels.convolve",
    "spectral.compute_eigenpairs",
    "volterra.compute_responses", "volterra.march_modal",
    "control.viscoelastic_family", "control.telegraph_family",
    "control.synthesize",
    "riesz.gram",
    "simulate.simulate_convolution", "simulate.simulate_march",
    "simulate.route_gap",
)


def _count_steps(result):
    return len(result) - 1


def _count_member_bytes(result):
    return result.members.nbytes


# Work counted at the span that does it: grid steps marched, and the
# computed bytes of the member arrays a family constructor returns.
COUNTERS = {
    "volterra.march_modal": ("volterra.march_modal.steps", _count_steps),
    "control.viscoelastic_family": ("control.family.bytes",
                                    _count_member_bytes),
    "control.telegraph_family": ("control.family.bytes", _count_member_bytes),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end, count]
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[4] = counter[1](result)
            return result

        return traced

    def install(self):
        """Replace every traced function under every memwave attribute."""
        wrappers = {}
        for span in SPANS:
            module, func = span.split(".")
            fn = getattr(importlib.import_module(f"memwave.{module}"), func)
            wrappers[fn] = self._wrap(span, fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "memwave"
                                   or modname.startswith("memwave.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def per_operation(self):
        """Per root span: {span: [self_s, calls]} and {counter: total}."""
        ops = []
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child_time[rec[1]] += rec[3] - rec[2]
        for idx, (name, parent, start, end, count) in enumerate(self.spans):
            if parent < 0:
                ops.append(({}, {}))
            layers, counts = ops[-1]
            entry = layers.setdefault(name, [0.0, 0])
            entry[0] += (end - start) - child_time[idx]
            entry[1] += 1
            if count is not None:
                key = COUNTERS[name][0]
                counts[key] = counts.get(key, 0) + count
        return ops

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "count"],
                       "spans": self.spans}, fh)
            fh.write("\n")
