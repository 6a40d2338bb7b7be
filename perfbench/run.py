"""memwave benchmark: seeded CLI workloads timed in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from src/ of the checkout that holds this file,
never from an installed copy.  An operation is one call of the public
CLI entry point memwave.cli.main into an empty output root, followed by
a correctness check of what it wrote.  Operations repeat, one after
another (a closed loop with one client), until S seconds have passed.

--trace 0 prints the end-to-end metrics: median wall and CPU seconds per
operation, the process's peak RSS, and the median time to import
memwave.cli in a fresh interpreter, the times rescaled to a reference
host speed by hostspeed.py.  --trace 1 alternates untraced and
traced operations and prints per-layer self times per operation from
spans.py.  The last stdout line is one JSON object; the lines before it
repeat the figures for a reader.

Why these workloads, their measured layer shares, which numbers each
later optimisation should move, and the known rectangle defect are
recorded in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from hostspeed import SpeedProbe
from spans import SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
# numpy is imported with the probe, before the clock starts (~0.08 s of
# the ~1.5 s import); the probe rescales the rest as it does operations.
SETUP_CODE = """
import time
from hostspeed import SpeedProbe
probe = SpeedProbe()
with probe:
    t = time.perf_counter()
    import memwave.cli
    t = time.perf_counter() - t - probe.probe_s()
print(t, t * probe.speed())
"""

PI = math.pi
INTERVAL = {"geometry": "interval", "lengths": [PI]}
RECTANGLE = {"geometry": "rectangle", "lengths": [PI, PI],
             "gamma_subset": ["right"]}
EXP_KERNEL = {"family": "exponential_sum", "coefficients": [1.0],
              "rates": [1.0]}                                 # exp(-t)
SWEEP = {"T_min": 1.2 * PI, "T_max": 2.5 * PI, "steps": 14}   # step 0.1 pi
RECTANGLE_H = 2e-3
PLATEAU_SHARE = 0.95


class CheckFailed(Exception):
    """An operation's artifacts do not show a correct result."""


def seeded_target(seed, K):
    """Target coefficients drawn as 1/n-decaying standard normals."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.arange(1, K + 1)
    return {"xi": (rng.standard_normal(K) * scale).tolist(),
            "eta": (rng.standard_normal(K) * scale).tolist()}


def _artifact_dir(root):
    (adir,) = [p for p in root.iterdir() if p.is_dir()]
    return adir


def _load_json(path):
    def reject(token):
        raise CheckFailed(f"{path.name} holds non-finite {token}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def check_verdict(root):
    d = _load_json(_artifact_dir(root) / "verdict.json")
    if d["verdict"] != "PASS" or not d["achieved_error"] <= d["tolerance"]:
        raise CheckFailed(f"verdict {d['verdict']}: achieved error "
                          f"{d['achieved_error']:.3e} vs {d['tolerance']:.1e}")


def check_sweep(root):
    d = _load_json(_artifact_dir(root) / "sweep.json")
    horizons = d["T"]
    step = (SWEEP["T_max"] - SWEEP["T_min"]) / (SWEEP["steps"] - 1)
    if len(horizons) != SWEEP["steps"]:
        raise CheckFailed(f"sweep has {len(horizons)} horizons")
    for key in ("m_N_telegraph", "m_N_visco"):
        m = d[key]
        if len(m) != len(horizons) or not m[-1] > 0:
            raise CheckFailed(f"{key} has no plateau at T_max")
        onset = next(T for T, v in zip(horizons, m)
                     if v >= PLATEAU_SHARE * m[-1])
        if abs(onset - 2 * PI) > step * (1 + 1e-9):
            raise CheckFailed(f"{key} plateau starts at {onset / PI:.3f} pi, "
                              "not within one sweep step of 2 pi")


def check_synthesis(root):
    adir = _artifact_dir(root)
    d = _load_json(adir / "synthesis.json")
    if not (d["frame_lower"] > 0 and d["residual_max"] <= 1e-8
            and d["norm"] > 0):
        raise CheckFailed(f"synthesis not solved: frame_lower "
                          f"{d['frame_lower']:.3e}, residual "
                          f"{d['residual_max']:.3e}, norm {d['norm']:.3e}")
    with open(adir / "control.csv") as fh:
        fh.readline()
        columns = fh.readline().lstrip("# ").strip().split(",")
        rows = sum(1 for _ in fh)
    steps = round(d["T"] / RECTANGLE_H)
    if columns[0] != "t" or len(columns) < 2 or rows != steps + 1:
        raise CheckFailed(f"control.csv has {len(columns)} columns and "
                          f"{rows} rows for a {steps}-step grid")


# workload -> (CLI subcommand, config without seed and target, check)
WORKLOADS = {
    "verify_interval": ("verify", {
        "domain": INTERVAL, "kernel": EXP_KERNEL, "T": 2.5 * PI, "h": 1e-3,
        "K": 4, "K_sim": 12}, check_verdict),
    "sweep_horizons": ("sweep-t", {
        "domain": INTERVAL, "kernel": EXP_KERNEL, "h": 2e-3, "K": 8,
        "sweep": SWEEP}, check_sweep),
    "rectangle_synthesize": ("synthesize", {
        "domain": RECTANGLE, "kernel": EXP_KERNEL, "T": 2.5 * PI,
        "h": RECTANGLE_H, "K": 4, "K_sim": 4}, check_synthesis),
}


def write_config(workload, seed, path):
    doc = dict(WORKLOADS[workload][1], seed=seed)
    if "sweep" not in doc:          # the sweep steers to no target
        doc["target"] = seeded_target(seed, doc["K"])
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def import_cli():
    if not (SRC / "memwave" / "cli.py").is_file():
        sys.exit(f"perfbench: no memwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from memwave import cli
    if Path(cli.__file__).resolve().parent != SRC / "memwave":
        sys.exit(f"perfbench: imported memwave from {cli.__file__}, "
                 f"not from {SRC}")
    return cli


def measure_setup():
    """Fresh-interpreter import times: (as measured, rescaled) pairs."""
    # Without a bytecode cache every sample compiles memwave's sources
    # (~0.05 s), whether or not an earlier import could write one.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        raw, rescaled = done.stdout.split()
        times.append((float(raw), float(rescaled)))
    return times


def run_cli(cli, argv):
    """One CLI invocation with its stdout swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def operation(cli, command, check, cfg_path, root, probe=None):
    """Run and check one operation; returns (wall s, cpu s, ok).

    With a SpeedProbe, the probe samples host speed during the call, and
    the times returned leave the probe's own time out.
    """
    root.mkdir(parents=True)
    with probe or contextlib.nullcontext():
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = run_cli(cli, [command, "--config", str(cfg_path),
                                 "--out", str(root)])
        except Exception:
            traceback.print_exc()
            code = 1
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if probe is not None:
        wall -= probe.probe_s()
        cpu -= probe.probe_s()
    ok = code == 0
    if ok:
        try:
            check(root)
        except (CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            print(f"perfbench: {command} output is wrong: {exc}",
                  file=sys.stderr)
            ok = False
    else:
        print(f"perfbench: {command} exited {code}", file=sys.stderr)
    return wall, cpu, ok


def dir_bytes(root):
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def rectangle_verify_report(cli, cfg_path, root):
    """Untimed verify of the last rectangle synthesis, reported as found.

    Verify fails on the rectangle at this commit, so it is kept out of
    the timed operation (see NOTES.md) but shown on every run.
    """
    code = run_cli(cli, ["verify", "--config", str(cfg_path),
                         "--out", str(root)])
    verdicts = list(root.glob("verify-*/verdict.json"))
    if not verdicts:
        print(f"rectangle verify (untimed): exit {code}, no verdict written")
        return
    d = _load_json(verdicts[0])
    print(f"rectangle verify (untimed): exit {code}, verdict {d['verdict']}, "
          f"achieved_error {d['achieved_error']:.4g} against tolerance "
          f"{d['tolerance']:.3g}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(cli, workload, cfg_path, workdir, seconds):
    """Operations back to back; per operation, host speed and raw wall and
    CPU seconds, both without the probe's own time."""
    command, _, check = WORKLOADS[workload]
    probe = SpeedProbe()
    speeds, walls, cpus, failed, root = [], [], [], 0, None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        if root is not None:
            shutil.rmtree(root)
        root = workdir / f"op{len(walls)}"
        wall, cpu, ok = operation(cli, command, check, cfg_path, root, probe)
        speeds.append(probe.speed())
        walls.append(wall)
        cpus.append(cpu)
        failed += not ok
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "rectangle_synthesize":
        rectangle_verify_report(cli, cfg_path, root)
    return speeds, walls, cpus, failed, peak_rss_mb


def run_traced(cli, workload, cfg_path, workdir, seconds, tracer):
    """Alternate untraced and traced operations; per-op layer figures."""
    command, _, check = WORKLOADS[workload]
    plain, traced, artifact_bytes, failed = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while len(traced) < 1 or time.perf_counter() < deadline:
        on = len(plain) > len(traced)
        root = workdir / f"op{len(plain) + len(traced)}"
        if on:
            tracer.install()
        try:
            wall, _, ok = operation(cli, command, check, cfg_path, root)
        finally:
            tracer.uninstall()
        (traced if on else plain).append(wall)
        if on:
            artifact_bytes.append(dir_bytes(root))
        failed += not ok
        shutil.rmtree(root)
    return plain, traced, artifact_bytes, failed


def layer_metrics(tracer, plain, traced, artifact_bytes):
    ops = tracer.per_operation()
    med = statistics.median
    out = {}
    for span in SPANS:
        out[f"{span}.self_s"] = metric(
            med(layers.get(span, (0.0, 0))[0] for layers, _ in ops), "s")
        out[f"{span}.calls"] = metric(
            med(layers.get(span, (0.0, 0))[1] for layers, _ in ops), "count")
    steps = [counts.get("volterra.march_modal.steps", 0) for _, counts in ops]
    march = [layers.get("volterra.march_modal", (0.0, 0))[0]
             for layers, _ in ops]
    out["volterra.march_modal.steps"] = metric(med(steps), "count")
    out["volterra.march_modal.us_per_step"] = metric(
        med(1e6 * s / n if n else 0.0 for s, n in zip(march, steps)), "us")
    out["control.family.bytes"] = metric(
        med(counts.get("control.family.bytes", 0) for _, counts in ops),
        "bytes")
    out["cli.artifact.bytes"] = metric(med(artifact_bytes), "bytes")
    out["trace.overhead_frac"] = metric(
        (med(traced) - med(plain)) / med(plain), "fraction")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    setup = [] if args.trace else measure_setup()

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cfg_path = workdir / "config.json"
        write_config(args.workload, args.seed, cfg_path)
        if args.trace:
            tracer = Tracer()
            plain, traced, artifact_bytes, failed = run_traced(
                cli, args.workload, cfg_path, workdir, args.seconds, tracer)
            attempted = len(plain) + len(traced)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = layer_metrics(tracer, plain, traced, artifact_bytes)
        else:
            speeds, walls, cpus, failed, peak_rss_mb = run_untraced(
                cli, args.workload, cfg_path, workdir, args.seconds)
            attempted = len(walls)
            med = statistics.median
            metrics = {
                "run_s": metric(med(w * v for w, v in zip(walls, speeds)),
                                "s"),
                "cpu_s": metric(med(c * v for c, v in zip(cpus, speeds)),
                                "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
                "setup_s": metric(med(r for _, r in setup), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} "
          f"operations, {failed} failed")
    print(f"  fail_share = {failed / attempted:.4g} (failed/attempted)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  (at the reference host speed; run_s, cpu_s: median of "
              f"{attempted} operations; setup_s: median of {len(setup)} fresh "
              "imports)")
        print(f"  as measured: wall {statistics.median(walls):.6g} s, cpu "
              f"{statistics.median(cpus):.6g} s, setup "
              f"{statistics.median(m for m, _ in setup):.6g} s; host speed "
              f"{min(speeds):.3f}..{max(speeds):.3f} of the reference")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
