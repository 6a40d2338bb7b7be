"""Batch front-end.

    memwave <experiment> --config run.json [--out DIR] [--grid-h H]
    memwave report <artifact-dir>

Each run writes its artifacts under  {out}/{experiment}-{hash}/  where
hash is the config hash; reruns of the same config land in the same
directory with byte-identical contents.  --grid-h H is the config key
"h": H, validated like it and part of the hash, so one config run at
two steps writes two directories.  The directory is created by the
first artifact written, so a run that fails before writing leaves none.
Output root resolution order: --out flag, config "out" key,
$MEMWAVE_OUT, ./memwave-out.

Artifacts hold finite numbers only: a NaN or Inf headed for a CSV or
JSON file stops the run with a convergence error naming the file.  CSV
values are printed as "%.17g" prints them: one value at a time in a
table of fewer than CSV_TABLE_CELLS values, by memwave.csvtext in a
larger one.

synthesize writes the control in the factor form control.synthesize
returns: control.csv holds t and one time profile per mode,
control_traces.csv one real boundary trace per mode, and the control on
the boundary cylinder is traces.T @ profiles; no run builds it densely.
synthesis.json records factor_gap, the largest gap between that product
and the control combined from the family, relative to its maximum,
which synthesize checks to 1e-12 (exit 5 otherwise).

sweep-t reads every horizon k*h of one grid: the step is the configured
one (T_min's auto step under "auto"), shrunk so that it divides the
horizon spacing, and the kernel is normalized on that grid to the last
horizon first.  Where the kernel has a closed form and no mode lies on
the degenerate set, the sweep takes the exact route (memwave.exact): the
modal roots and residues and the telegraph profiles' two exponentials
give both families in closed form, and every horizon's time Gram is
evaluated exactly, with no grid.  Otherwise (a tabulated kernel, a mode
on J, or modes exact.exact_modes refuses) it marches once: the
responses and both families are built on the grid, and riesz.gram_sweep
reads every horizon's time Gram from one pass over it, summed segment
by segment between horizons.  Either route reads both families' frame
bounds at every horizon in one riesz.gram_reports pass.  sweep.json
names the route taken ("route": "exact" or "march") and holds each
horizon's nested lower frame bounds of both families
(frame_lower_telegraph, frame_lower_visco) at the truncation levels
listed under "levels": every level of the 2K members up to 32, a
geometric subsequence of them above (riesz.nested_levels); the
artifacts report the horizons as computed, k*h.  A bound below its
level's rounding floor k eps M_k is written as 0, and at_floor_telegraph
and at_floor_visco list the [horizon, level] positions of such bounds in
the frame_lower lists.  gram stops with exit 3 when m_N is at the floor:
the Gram is singular to working precision and has no condition number.

responses marches no mode: it takes the spectrum, normalizes the kernel
and fits one refined_S batch (volterra) over the real-beta modes from
mode 5 on; a mode whose refined S is not finite stops it with exit 3.

Exit codes: 0 success, 2 config, 3 convergence, 4 not controllable,
5 internal inconsistency.  Anything else crashing is a plain 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from .control import (TargetState, build_moment_problem, synthesize,
                      telegraph_family, viscoelastic_family)
from .errors import (ConfigError, ConvergenceError, InternalConsistencyError,
                     MemwaveError)
from .grid import TimeGrid, auto_step, make_grid
from .kernels import normalize
from .riesz import gram, gram_sweep
from .simulate import (achieved_coefficients, mode_energies, mode_gaps,
                       route_gap, simulate_convolution, simulate_march)
from .spectral import compute_eigenpairs, trace_diagnostics
from .volterra import asymptotic_residual, compute_responses, refined_S

DEFAULT_OUT = "memwave-out"
ENV_OUT = "MEMWAVE_OUT"
# tables of fewer values print one value at a time: below this size the
# fixed cost of csvtext.format_table (~70-100 numpy calls) is more than
# the per-value "%.17g" it saves (crossover measured by
# tests/test_write_csv_bench.py, recorded in BENCH_write_csv.json)
CSV_TABLE_CELLS = 320


# ---------------------------------------------------------------- artifacts

def _resolve_out(flag_out, cfg_out):
    return flag_out or cfg_out or os.environ.get(ENV_OUT) or DEFAULT_OUT


def _artifact_dir(out_root, cfg):
    return os.path.join(out_root, f"{cfg.experiment.lower()}-{cfg.hash}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [_jsonable(v) for v in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _non_finite(path):
    return ConvergenceError(
        f"non-finite value (NaN or Inf) headed for {path}; nothing written")


def _write_json(path, payload, cfg_hash):
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    try:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                          allow_nan=False)
    except ValueError:
        raise _non_finite(path) from None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _csv_rows(data):
    """The rows of a 2-D table as "%.17g" prints each value, one value
    at a time: the bytes csvtext.format_table gives."""
    row_fmt = ",".join(["%.17g"] * data.shape[-1]) + "\n"
    return "".join(row_fmt % tuple(row) for row in data.tolist()).encode()


def _write_csv(path, columns, rows, cfg_hash):
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise _non_finite(path)
    if data.size < CSV_TABLE_CELLS:
        text = _csv_rows(data)
    else:
        # imported here: a run that writes no large CSV never compiles it
        from .csvtext import format_table
        text = format_table(data)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"# config_hash={cfg_hash}\n# {','.join(columns)}\n"
                 .encode())
        fh.write(text)


def _read_csv(path):
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact: {path}")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    with open(path) as fh:
        fh.readline()
        cols = fh.readline().lstrip("# ").strip().split(",")
    return cols, data


# ---------------------------------------------------------------- pipeline

def _alpha_of(cfg):
    gamma = -0.5 * cfg.kernel.m0()
    return cfg.domain.c + gamma, gamma


def _beta_max_estimate(cfg, count):
    # crude upper bound on the fastest retained frequency; only feeds
    # the auto step rule, so an overestimate merely refines the grid
    a_max = cfg.domain.a if not callable(cfg.domain.a) else 2.0
    l_min = min(cfg.domain.lengths)
    return np.sqrt(max(a_max, 1.0)) * (count + 1) * np.pi / l_min


def _grid_for(cfg, T, count):
    h = cfg.h
    if h == "auto":
        h = auto_step(T, _beta_max_estimate(cfg, count))
    return make_grid(T, float(h))


def _spectrum(cfg, count):
    alpha, gamma = _alpha_of(cfg)
    return compute_eigenpairs(cfg.domain, count, alpha), alpha, gamma


def _responses_for(cfg, T, count, grid_count=None):
    modes, _, _ = _spectrum(cfg, count)
    kernel = normalize(cfg.kernel, _grid_for(cfg, T, grid_count or count))
    return kernel, compute_responses(kernel, modes)


def _resolve_target(cfg):
    if cfg.target == "random":
        rng = np.random.default_rng(cfg.seed)
        scale = 1.0 / np.arange(1, cfg.K + 1)
        return TargetState(rng.standard_normal(cfg.K) * scale,
                           rng.standard_normal(cfg.K) * scale, cfg.K)
    return TargetState(cfg.target["xi"], cfg.target["eta"], cfg.K)


# ---------------------------------------------------------------- commands

def _run_spectrum(cfg, adir):
    modes, alpha, gamma = _spectrum(cfg, cfg.N_modes)
    diag = trace_diagnostics(modes, cfg.domain.gamma_weights())
    _write_csv(os.path.join(adir, "eigenpairs.csv"),
               ["n", "lambda_sq", "beta_re", "beta_im",
                "trace_norm", "in_J", "in_O"],
               np.column_stack([modes.index, modes.lambda_sq,
                                modes.beta.real, modes.beta.imag,
                                diag["norms"], modes.in_J, modes.in_O]),
               cfg.hash)
    _write_json(os.path.join(adir, "spectrum.json"), {
        "alpha": alpha, "gamma": gamma, "count": len(modes),
        "trace_norm_min": diag["min"], "trace_norm_max": diag["max"],
        "flagged": diag["flagged"],
    }, cfg.hash)
    return 0


def _run_responses(cfg, adir):
    modes, _, _ = _spectrum(cfg, cfg.N_modes)
    kernel = normalize(cfg.kernel, _grid_for(cfg, cfg.T, cfg.N_modes))
    # fit the real-beta modes of the asymptotic window only; the first
    # few modes sit in the pre-asymptotic regime and flatten the exponent
    fit_lo = 5
    fitted = modes.take((modes.index >= fit_lo) & (modes.beta.imag == 0)
                        & (modes.beta.real > 0))
    fit = asymptotic_residual(fitted, refined_S(kernel, fitted), kernel.h)
    _write_csv(os.path.join(adir, "kernel.csv"),
               ["t", "N", "Np", "N1", "L"],
               np.column_stack([kernel.t, kernel.N, kernel.Np, kernel.N1,
                                kernel.L]), cfg.hash)
    _write_csv(os.path.join(adir, "residuals.csv"),
               ["n", "beta", "sup_residual"],
               np.column_stack([fit["indices"], fit["beta"],
                                fit["residuals"]]), cfg.hash)
    _write_json(os.path.join(adir, "responses.json"), {
        "slope": fit["slope"], "intercept": fit["intercept"],
        "fit_from_mode": fit_lo, "modes": len(modes),
        "grid_steps": kernel.grid.steps, "grid_h": kernel.h,
    }, cfg.hash)
    return 0


def _family(cfg):
    # tune the grid for the largest mode any later stage will touch, so a
    # synthesized control and its verification live on the same grid
    _, responses = _responses_for(cfg, cfg.T, cfg.K,
                                  grid_count=max(cfg.K, cfg.K_sim))
    return viscoelastic_family(responses, cfg.domain.gamma_weights())


def _run_gram(cfg, adir):
    fam = _family(cfg)
    rep = gram(fam)
    if rep.at_floor[-1]:
        raise ConvergenceError(
            f"Gram of {fam.label!r} is singular to working precision (m_N "
            f"at its rounding floor, M_N = {rep.M_N:.3e}): no condition "
            "number for gram.json; nothing written")
    _write_json(os.path.join(adir, "gram.json"), {
        "T": cfg.T, "members": fam.count,
        "frame_lower": rep.m_N, "frame_upper": rep.M_N,
        "condition": rep.cond,
    }, cfg.hash)
    _write_csv(os.path.join(adir, "gram_abs.csv"),
               [f"k{j}" for j in range(rep.gram.shape[1])],
               np.abs(rep.gram), cfg.hash)
    return 0


def _run_synthesize(cfg, adir):
    control = synthesize(build_moment_problem(_family(cfg),
                                              _resolve_target(cfg)))
    modes = control.index_set[::2]
    tables = [("control.csv", ["t"] + [f"g_mode{n}" for n in modes],
               np.column_stack([control.grid.t, control.profiles.T])),
              ("control_traces.csv",
               ["node"] + [f"trace_mode{n}" for n in modes],
               np.column_stack([np.arange(control.traces.shape[1]),
                                control.traces.T])),
              ("coefficients.csv", ["n", "a_re", "a_im"],
               np.column_stack([control.index_set, control.coefficients.real,
                                control.coefficients.imag]))]
    # every table is checked before the first write: a failed run writes
    # nothing
    for name, _, rows in tables:
        if not np.all(np.isfinite(rows)):
            raise _non_finite(os.path.join(adir, name))
    for name, columns, rows in tables:
        _write_csv(os.path.join(adir, name), columns, rows, cfg.hash)
    _write_json(os.path.join(adir, "synthesis.json"), {
        "index_set": list(control.index_set),
        "residual_max": control.residual_max,
        "imag_max": control.imag_max,
        "condition": control.condition,
        "frame_lower": control.frame_lower,
        "norm": control.norm,
        "factor_gap": control.factor_gap,
        "T": cfg.T, "K": cfg.K,
    }, cfg.hash)
    return 0


def _run_verify(cfg, adir):
    # the config holds K_sim >= K for verify
    kernel, sim_resp = _responses_for(cfg, cfg.T, cfg.K_sim)
    target = _resolve_target(cfg)
    control = synthesize(build_moment_problem(
        viscoelastic_family(sim_resp.head(cfg.K), cfg.domain.gamma_weights()),
        target))
    conv = simulate_convolution(sim_resp, kernel, control)
    march = simulate_march(kernel, sim_resp.modes, control)
    gap = route_gap(conv, march, kernel)
    xi_hat, eta_hat = achieved_coefficients(conv)
    err = max(float(np.max(np.abs(xi_hat[:cfg.K] - target.xi))),
              float(np.max(np.abs(eta_hat[:cfg.K] - target.eta))))
    tol = 1e-6 * max(1.0, control.condition ** 0.5)
    verdict = "PASS" if err <= tol else "FAIL"
    # per mode: the route gap of modes 1..K_sim and the spillover energy
    # of modes K+1..K_sim, whose sum is the tail energy
    gaps = mode_gaps(conv, march)
    spill = mode_energies(conv.theta_T, conv.theta_t_T,
                          conv.modes.beta)[cfg.K:]
    z_ratios = sim_resp.z_gap_ratio
    _write_json(os.path.join(adir, "verdict.json"), {
        "verdict": verdict,
        "achieved_error": err, "tolerance": tol,
        "route_gap": gap,
        "route_gap_per_mode": gaps,
        "worst_route_gap_mode": int(np.argmax(gaps)) + 1,
        "tail_energy": conv.tail_energy,
        "spillover_per_mode": spill,
        "worst_spillover_mode": cfg.K + 1 + int(np.argmax(spill))
        if spill.size else None,
        "z_route_gap_ratio_per_mode": z_ratios,
        "worst_z_route_mode": int(np.argmax(z_ratios)) + 1,
        "K": cfg.K, "K_sim": cfg.K_sim, "T": cfg.T,
    }, cfg.hash)
    return 0 if verdict == "PASS" else 5


def _sweep_grid(cfg):
    """One grid for the whole sweep and the step count of each horizon.

    The step is the configured one (under "auto", the step T_min would
    get, the finest of any horizon), shrunk to spacing / ceil(spacing / h)
    so that every horizon falls on a grid point when T_min is a multiple
    of the spacing, and within h/2 of one otherwise.  A first horizon of
    fewer than two steps is a config error on either route.
    """
    horizons = cfg.sweep.horizons()
    h = cfg.h
    if h == "auto":
        h = auto_step(cfg.sweep.T_min, _beta_max_estimate(cfg, cfg.K))
    h = float(h)
    if not 0.0 < h < math.inf:
        raise ConfigError(f"step must be positive and finite, got {h}")
    if len(horizons) > 1:
        spacing = (cfg.sweep.T_max - cfg.sweep.T_min) / (len(horizons) - 1)
        h = spacing / math.ceil(spacing / h)
    steps = [round(T / h) for T in horizons]
    # checked here, before either route: the exact route would read any
    # horizon, the march route's trapezoid rule needs two steps
    if not (2 <= steps[0] and all(a < b for a, b in zip(steps, steps[1:]))):
        raise ConfigError(f"horizon step counts {steps} do not ascend "
                          f"strictly within [2, {steps[-1]}]")
    return TimeGrid(steps[-1] * h, steps[-1], h), steps


def _run_sweep(cfg, adir):
    alpha, gamma = _alpha_of(cfg)
    gw = cfg.domain.gamma_weights()
    grid, steps = _sweep_grid(cfg)
    horizons = [k * grid.h for k in steps]
    modes_tel = compute_eigenpairs(cfg.domain, cfg.K, cfg.domain.c)
    modes_vis = compute_eigenpairs(cfg.domain, cfg.K, alpha)
    kernel = normalize(cfg.kernel, grid)
    # imported here: no other run compiles the exact route
    from .exact import exact_sweep
    route = "exact"
    reps = exact_sweep(kernel, modes_tel, modes_vis, cfg.domain.c, gw,
                       horizons)
    if reps is None:
        route = "march"
        fam_t = telegraph_family(modes_tel, cfg.domain.c, grid, gw)
        fam_v = viscoelastic_family(compute_responses(kernel, modes_vis), gw)
        reps = gram_sweep((fam_t, fam_v), steps)
    reps_t, reps_v = reps
    m_tel = [r.m_N for r in reps_t]
    m_vis = [r.m_N for r in reps_v]
    _write_csv(os.path.join(adir, "sweep.csv"),
               ["T", "m_N_telegraph", "m_N_visco"],
               np.column_stack([horizons, m_tel, m_vis]), cfg.hash)
    _write_json(os.path.join(adir, "sweep.json"), {
        "T": horizons, "m_N_telegraph": m_tel, "m_N_visco": m_vis,
        "frame_lower_telegraph": [r.frame_lower for r in reps_t],
        "frame_lower_visco": [r.frame_lower for r in reps_v],
        # np.array first: np.argwhere converts a list ~8 us slower
        "at_floor_telegraph": np.argwhere(np.array([r.at_floor
                                                    for r in reps_t])),
        "at_floor_visco": np.argwhere(np.array([r.at_floor for r in reps_v])),
        "levels": reps_t[0].levels,
        "K": cfg.K, "members": 2 * cfg.K, "grid_h": grid.h, "route": route,
    }, cfg.hash)
    return 0


# ---------------------------------------------------------------- report

def _render_report(adir):
    adir = adir.rstrip(os.sep)
    if not os.path.isdir(adir):
        raise ConfigError(f"artifact directory not found: {adir}")
    lines = [f"# Run report: {os.path.basename(adir)}", ""]
    found = False

    p = os.path.join(adir, "sweep.csv")
    if os.path.exists(p):
        found = True
        _, data = _read_csv(p)
        lines += ["## Frame bound vs horizon", "",
                  "| T | m_N (telegraph) | m_N (memory) |",
                  "|---|---|---|"]
        lines += [f"| {r[0]:.4f} | {r[1]:.4e} | {r[2]:.4e} |" for r in data]
        lines.append("")
        p = os.path.join(adir, "sweep.json")
        if os.path.exists(p):
            with open(p) as fh:
                route = json.load(fh).get("route")
            if route is not None:
                lines += [f"route = {route}", ""]

    p = os.path.join(adir, "responses.json")
    if os.path.exists(p):
        found = True
        with open(p) as fh:
            d = json.load(fh)
        lines += ["## Oscillation-residual fit", "",
                  f"slope = {d['slope']:.2f}",
                  f"intercept = {d['intercept']:.2f}",
                  f"modes = {d['modes']}", ""]

    p = os.path.join(adir, "gram.json")
    if os.path.exists(p):
        found = True
        with open(p) as fh:
            d = json.load(fh)
        lines += ["## Gram frame bounds", "",
                  "| T | members | m_N | M_N | condition |",
                  "|---|---|---|---|---|",
                  f"| {d['T']:.4f} | {d['members']} | {d['frame_lower']:.4e}"
                  f" | {d['frame_upper']:.4e} | {d['condition']:.4e} |", ""]

    p = os.path.join(adir, "synthesis.json")
    if os.path.exists(p):
        found = True
        with open(p) as fh:
            d = json.load(fh)
        lines += ["## Synthesis", "",
                  f"moment residual (max) = {d['residual_max']:.3e}",
                  f"imaginary leak (max)  = {d['imag_max']:.3e}",
                  f"Gram condition        = {d['condition']:.3e}",
                  f"control L2 norm       = {d['norm']:.6g}"]
        if "factor_gap" in d:
            _, tr = _read_csv(os.path.join(adir, "control_traces.csv"))
            _, g = _read_csv(os.path.join(adir, "control.csv"))
            lines += [f"factor gap            = {d['factor_gap']:.3e}",
                      f"trace factor          = {tr.shape[1] - 1} modes x "
                      f"{tr.shape[0]} nodes",
                      f"profile factor        = {g.shape[1] - 1} modes x "
                      f"{g.shape[0]} samples"]
        lines.append("")

    p = os.path.join(adir, "verdict.json")
    if os.path.exists(p):
        found = True
        with open(p) as fh:
            d = json.load(fh)
        n = d["worst_spillover_mode"]       # None when K_sim = K
        m = d["worst_z_route_mode"]
        lines += ["## Verification verdict", "",
                  f"verdict        = {d['verdict']}",
                  f"achieved error = {d['achieved_error']:.3e}"
                  f"  (tolerance {d['tolerance']:.1e})",
                  f"route gap      = {d['route_gap']:.3e}"
                  f"  (worst mode {d['worst_route_gap_mode']})",
                  f"tail energy    = {d['tail_energy']:.3e}" + (
                      "" if n is None else f"  (worst mode {n}: "
                      f"{d['spillover_per_mode'][n - d['K'] - 1]:.3e})"),
                  f"Z route gap    = "
                  f"{d['z_route_gap_ratio_per_mode'][m - 1]:.3e}"
                  f" of allowance  (worst mode {m})", ""]

    p = os.path.join(adir, "eigenpairs.csv")
    if os.path.exists(p):
        found = True
        _, data = _read_csv(p)
        lines += ["## Spectrum", "",
                  f"modes = {data.shape[0]}",
                  f"lambda_sq range = [{data[0, 1]:.6g}, {data[-1, 1]:.6g}]",
                  f"trace norms in [{data[:, 4].min():.4g}, "
                  f"{data[:, 4].max():.4g}]", ""]

    if not found:
        raise ConfigError(f"no known artifacts in {adir}")
    return "\n".join(lines)


def _run_report(args):
    text = _render_report(args.path)
    out = os.path.join(args.path, "report.md")
    with open(out, "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------- entry

_RUNNERS = {
    "spectrum": _run_spectrum,
    "responses": _run_responses,
    "gram": _run_gram,
    "synthesize": _run_synthesize,
    "verify": _run_verify,
    "sweep-T": _run_sweep,
}


@functools.cache
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="memwave",
        description="boundary control of wave equations with memory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "responses", "gram", "synthesize",
                 "verify", "sweep-t"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--grid-h", type=float, default=None, dest="grid_h")
    rp = sub.add_parser("report")
    rp.add_argument("path", help="artifact directory to summarize")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _run_report(args)
        experiment = "sweep-T" if args.command == "sweep-t" else args.command
        cfg = cfgmod.load(args.config, experiment, args.grid_h)
        out_root = _resolve_out(args.out, cfg.out)
        adir = _artifact_dir(out_root, cfg)
        code = _RUNNERS[experiment](cfg, adir)
        if code == 0:
            print(f"ok: artifacts in {adir}")
        else:
            print(f"verification failed: see {adir}/verdict.json",
                  file=sys.stderr)
        return code
    except MemwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
