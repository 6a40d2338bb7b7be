import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from memwave import ConfigError, SequenceFamily, make_grid
from memwave import cli, control, exact, volterra
from memwave.cli import _write_artifacts, main
from memwave.config import EXPERIMENTS, config_hash, from_dict, load

from family_reference import combination

PI = np.pi
DOM = {"geometry": "interval", "lengths": [PI]}


def base(experiment="spectrum", **extra):
    doc = {"experiment": experiment, "domain": dict(DOM)}
    doc.update(extra)
    return doc


def tabulated_exp(T, h):
    """M = exp(-t) as a tabulated kernel section on the grid of (T, h)."""
    m = np.exp(-make_grid(T, h).t)
    return {"family": "tabulated", "samples": m.tolist()}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- import


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that imports memwave from src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_cli_import_skips_scipy_signal_and_integrate():
    # the convolution runs on numpy.fft and the kernel integral on numpy;
    # scipy.signal alone was most of the CLI's import time
    code = ("import sys, memwave.cli; print(sorted(m for m in "
            "('scipy.signal', 'scipy.integrate') if m in sys.modules))")
    assert _fresh_python(code).strip() == "[]"


# what a fresh `import memwave.cli` adds to `import numpy`, besides
# memwave's own modules: the standard library modules the CLI uses
_CLI_STDLIB = {"__future__", "_json", "_sha2", "_sha256", "argparse",
               "cmath", "gettext", "json",
               "json.decoder", "json.encoder", "json.scanner"}


def test_cli_import_loads_no_numpy_polynomial_and_no_new_modules():
    # numpy.polynomial alone takes ~5 ms to import: the exact route's
    # roots and products use np.linalg.eigvals and np.convolve
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import memwave.cli\n"
            "print(sorted(set(sys.modules) - before))\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or "
            "m.startswith(('scipy.', 'numpy.polynomial'))))")
    added, unwanted = (ast.literal_eval(line) for line in
                       _fresh_python(code).splitlines())
    assert unwanted == []
    assert {m for m in added if m.split(".")[0] != "memwave"} <= _CLI_STDLIB
    assert {m for m in added if m.split(".")[0] == "memwave"} == {
        "memwave", "memwave.cli", "memwave.config", "memwave.control",
        "memwave.errors", "memwave.grid", "memwave.kernels", "memwave.riesz",
        "memwave.simulate", "memwave.spectral", "memwave.volterra"}


def test_cli_import_hashes_without_openssl():
    # config_hash takes sha256 from CPython's built-in module, where there
    # is one: hashlib's OpenSSL backend (_hashlib) stays unloaded
    code = ("import importlib.util, sys, numpy, memwave.cli\n"
            "print(any(importlib.util.find_spec(m) for m in "
            "('_sha2', '_sha256')), '_hashlib' in sys.modules)")
    lean, openssl = _fresh_python(code).split()
    if lean == "False":
        pytest.skip("this interpreter has no built-in sha256 module")
    assert openssl == "False"


def test_cli_import_leaves_the_csv_formatter_to_the_first_write(tmp_path):
    # setup is timed without a bytecode cache: the formatter is compiled
    # by the first CSV write above the cut, not by the import, and a
    # sweep-sized table (14 x 3) prints one value at a time without it
    code = ("import sys, numpy as np, memwave.cli as cli\n"
            "print('memwave.csvtext' in sys.modules)\n"
            f"cli._write_artifacts({str(tmp_path)!r}, [('x.csv', "
            "['a', 'b', 'c'], np.ones((14, 3)))], 'h')\n"
            "print('memwave.csvtext' in sys.modules)\n"
            f"cli._write_artifacts({str(tmp_path)!r}, [('y.csv', ['a'], "
            "np.ones((cli.CSV_TABLE_CELLS, 1)))], 'h')\n"
            "print('memwave.csvtext' in sys.modules)\n")
    assert _fresh_python(code).split() == ["False", "False", "True"]


_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


def test_cli_experiments_load_no_scipy(tmp_path):
    # the CLI is numpy-only: scipy serves the variable-coefficient
    # Sturm-Liouville solve alone, which no config reaches
    exp = {"family": "exponential_sum", "coefficients": [1.0], "rates": [1.0]}
    runs = []
    for command, doc in (
            ("verify", base("verify", T=2.5 * PI, K=2, K_sim=3,
                            target="random", seed=1, kernel=exp)),
            ("verify", base("verify", T=2.5 * PI, K=2, K_sim=3,
                            target="random", seed=1,
                            kernel=tabulated_exp(2.5 * PI, 0.02))),
            ("responses", base("responses", T=2.5 * PI, N_modes=12,
                               kernel=exp)),
            ("synthesize", base("synthesize", T=2.5 * PI, K=2,
                                target="random", seed=1, kernel=exp,
                                domain={"geometry": "rectangle",
                                        "lengths": [PI, PI],
                                        "gamma_subset": ["right"]})),
            ("sweep-t", base("sweep-T", K=3, kernel=exp,
                             sweep={"T_min": 1.5 * PI, "T_max": 2.5 * PI,
                                    "steps": 3}))):
        runs.append((command, write_cfg(tmp_path, doc,
                                        f"{len(runs)}-{command}.json")))
    code = f"""
import contextlib, io, json, sys
import memwave.cli
report = [("import", 0, {_SCIPY_LOADED})]
for command, path in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = memwave.cli.main([command, "--config", path, "--out",
                                 {str(tmp_path / "store")!r}, "--grid-h", "0.02"])
    report.append((command, code, {_SCIPY_LOADED}))
print(json.dumps(report))
"""
    report = json.loads(_fresh_python(code))
    assert [tuple(r) for r in report] == [
        (step, 0, []) for step in ("import", "verify", "verify", "responses",
                                   "synthesize", "sweep-t")]


# ---------------------------------------------------------------- config


def test_defaults():
    cfg = from_dict(base())
    assert cfg.K == 12 and cfg.N_modes == 40 and cfg.K_sim == 48
    assert cfg.h == "auto" and cfg.T is None and cfg.seed == 0
    assert cfg.kernel.family == "zero"
    cfg2 = from_dict(base(K=20))
    assert cfg2.N_modes == 40 and cfg2.K_sim == 80


def test_unknown_keys_reported_with_paths():
    doc = base()
    doc["domian"] = {}
    doc["domain"]["qq"] = 1
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "domian" in str(err.value) and "domain.qq" in str(err.value)


def test_hash_is_canonical():
    a = {"K": 3, "domain": {"geometry": "interval", "lengths": [1.0]}}
    b = {"domain": {"lengths": [1.0], "geometry": "interval"}, "K": 3}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    assert config_hash({"K": 4}) != config_hash({"K": 3})


def test_hash_is_the_sha256_of_the_canonical_json():
    import hashlib
    doc = {"K": 3, "T": 2.5, "domain": {"geometry": "interval",
                                         "lengths": [PI]}, "note": "\u00e9"}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert config_hash(doc) == hashlib.sha256(canon.encode()).hexdigest()[:12]


def test_numbers_reject_bools_and_fractions():
    with pytest.raises(ConfigError):
        from_dict(base(K=True))
    with pytest.raises(ConfigError):
        from_dict(base(K=2.5))
    with pytest.raises(ConfigError):
        from_dict(base(T="soon", experiment="gram"))
    with pytest.raises(ConfigError):
        from_dict(base(K=float("inf")))                  # e.g. "K": 1e400
    for lengths in ([float("nan")], ["x"], [True], [None], PI):
        with pytest.raises(ConfigError):
            from_dict(base(domain={"geometry": "interval",
                                   "lengths": lengths}))
    for bad in (["a"], [float("nan")]):
        with pytest.raises(ConfigError):
            from_dict(base(kernel={"family": "exponential_sum",
                                   "coefficients": bad, "rates": [1.0]}))
        with pytest.raises(ConfigError):
            from_dict(base("synthesize", T=2.0, K=1,
                           target={"xi": bad, "eta": [0.0]}))


def test_sweep_validation():
    with pytest.raises(ConfigError):
        from_dict(base("sweep-T"))                      # no sweep section
    with pytest.raises(ConfigError):
        from_dict(base("sweep-T",
                       sweep={"T_min": 2.0, "T_max": 1.0, "steps": 3}))
    with pytest.raises(ConfigError):
        from_dict(base("sweep-T",
                       sweep={"T_min": 1.0, "T_max": 2.0, "steps": 1}))
    cfg = from_dict(base("sweep-T",
                         sweep={"T_min": 1.0, "T_max": 2.0, "steps": 3}))
    assert np.allclose(cfg.sweep.horizons(), [1.0, 1.5, 2.0])
    cfg = from_dict(base("sweep-T",
                         sweep={"T_min": 2.0, "T_max": 2.0, "steps": 1}))
    assert np.allclose(cfg.sweep.horizons(), [2.0])


def test_target_validation():
    with pytest.raises(ConfigError):
        from_dict(base("synthesize", T=2.0, K=3))       # target missing
    with pytest.raises(ConfigError):
        from_dict(base("synthesize", T=2.0, K=3,
                       target={"xi": [1, 0], "eta": [0, 0, 0]}))
    cfg = from_dict(base("synthesize", T=2.0, K=3, target="random"))
    assert cfg.target == "random"
    cfg = from_dict(base("synthesize", T=2.0, K=2,
                         target={"xi": [1, 0], "eta": [0, 0]}))
    assert np.allclose(cfg.target["xi"], [1, 0])


def test_experiment_resolution():
    cfg = from_dict({"domain": dict(DOM)}, experiment="spectrum")
    assert cfg.experiment == "spectrum"
    assert from_dict(base("sweep-t",
                          sweep={"T_min": 1, "T_max": 2, "steps": 2})
                     ).experiment == "sweep-T"
    with pytest.raises(ConfigError):
        from_dict(base("spectrum"), experiment="gram")
    with pytest.raises(ConfigError):
        from_dict(base("warp"))
    assert "sweep-T" in EXPERIMENTS


def test_mode_count_consistency():
    with pytest.raises(ConfigError):
        from_dict(base(K=10, N_modes=5))
    with pytest.raises(ConfigError):
        from_dict(base("gram"))                          # T required
    with pytest.raises(ConfigError):                     # K_sim < K
        from_dict(base("verify", T=1.0, K=3, K_sim=2, target="random"))


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load(str(tmp_path / "nowhere.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load(str(bad))


# ------------------------------------------------------------------- CLI


def run(tmp_path, doc, command=None, out=None, grid_h=None, name="cfg.json"):
    path = write_cfg(tmp_path, doc, name)
    argv = [command or doc["experiment"], "--config", path]
    if out is not None:
        argv += ["--out", str(out)]
    if grid_h is not None:
        argv += ["--grid-h", str(grid_h)]
    return main(argv)


def adir_of(out, command, doc, grid_h=None):
    """Artifact directory of a run: --grid-h H is the config key h = H."""
    return out / f"{command}-{config_hash(with_h(doc, grid_h))}"


def with_h(doc, grid_h):
    return doc if grid_h is None else dict(doc, h=grid_h)


def test_cli_spectrum_artifacts(tmp_path, capsys):
    doc = base(K=4, N_modes=6)
    assert run(tmp_path, doc, out=tmp_path / "store") == 0
    assert "ok: artifacts in" in capsys.readouterr().out
    adir = tmp_path / "store" / f"spectrum-{config_hash(doc)}"
    csv = (adir / "eigenpairs.csv").read_text().splitlines()
    assert csv[0] == f"# config_hash={config_hash(doc)}"
    assert csv[1].startswith("# n,lambda_sq")
    assert len(csv) == 2 + 6
    meta = json.loads((adir / "spectrum.json").read_text())
    assert meta["config_hash"] == config_hash(doc)
    assert meta["count"] == 6 and meta["flagged"] == []


EXP = {"family": "exponential_sum", "coefficients": [1.0], "rates": [1.0]}
RECT = {"geometry": "rectangle", "lengths": [PI, PI], "gamma_subset": ["right"]}


def test_cli_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "store"
    synth = dict(T=2.5 * PI, target="random", seed=4, kernel=EXP)
    for command, doc, grid_h, names in (
            ("spectrum", base(K=4, N_modes=8), None,
             {"eigenpairs.csv", "spectrum.json"}),
            ("synthesize", base("synthesize", K=3, **synth), 5e-3, None),
            ("synthesize", base("synthesize", K=2, domain=RECT, **synth),
             2e-2, None),
            ("verify", base("verify", K=3, K_sim=8, **synth), 5e-3,
             {"verdict.json"}),
            ("sweep-t", base("sweep-T", K=3, kernel=EXP,
                             sweep={"T_min": 1.5 * PI, "T_max": 2.5 * PI,
                                    "steps": 4}),
             2e-2, {"sweep.csv", "sweep.json"}),
            ("responses", base("responses", T=2.5 * PI, N_modes=12,
                               kernel=EXP),
             2e-2, {"kernel.csv", "residuals.csv", "responses.json"}),
            ("gram", base("gram", T=2.5 * PI, K=3,
                          kernel=tabulated_exp(2.5 * PI, 2e-2)),
             2e-2, {"gram.json", "gram_abs.csv"})):
        names = names or {"control.csv", "control_traces.csv",
                          "coefficients.csv", "synthesis.json"}
        adir = adir_of(out, command, doc, grid_h)
        assert run(tmp_path, doc, command, out=out, grid_h=grid_h) == 0
        first = {p.name: p.read_bytes() for p in adir.iterdir()}
        assert run(tmp_path, doc, command, out=out, grid_h=grid_h) == 0
        second = {p.name: p.read_bytes() for p in adir.iterdir()}
        assert set(first) == names
        assert first == second


def test_cli_parser_is_built_once_and_carries_nothing_over(tmp_path):
    # main builds its parser at the first call and reuses it: a --grid-h
    # given to one call must not reach the next, whose h is the config's
    out = tmp_path / "store"
    first = base(K=4, N_modes=8)
    second = base("gram", T=2.5 * PI, K=3, h=5e-3, kernel=EXP)
    assert run(tmp_path, first, "spectrum", out=out, grid_h=2e-2,
               name="a.json") == 0
    assert run(tmp_path, second, "gram", out=out, name="b.json") == 0
    assert {p.name for p in out.iterdir()} == {
        adir_of(out, "spectrum", first, 2e-2).name,
        adir_of(out, "gram", second).name}
    assert cli._build_parser() is cli._build_parser()
    code = "import memwave.cli as c; print(c._build_parser.cache_info().currsize)"
    assert _fresh_python(code).strip() == "0"       # not built at import


def test_cli_tabulated_kernel_at_benchmark_size(tmp_path):
    # exp(-t) sampled on the verify_interval grid against its closed
    # form: the frame bounds differ by the O(h^2) quadrature of int M only
    common = dict(T=2.5 * PI, h=1e-3, K=4, K_sim=12, target="random", seed=1)
    tab = tabulated_exp(2.5 * PI, 1e-3)
    grams = {}
    for name, kernel in (("exp", EXP), ("tab", tab)):
        doc = base("gram", kernel=kernel, **common)
        assert run(tmp_path, doc, out=tmp_path, name=f"{name}.json") == 0
        grams[name] = json.loads(
            (adir_of(tmp_path, "gram", doc) / "gram.json").read_text())
    for key in ("frame_lower", "frame_upper", "condition"):
        assert abs(grams["tab"][key] - grams["exp"][key]) \
            <= 1e-6 * abs(grams["exp"][key]), key
    doc = base("verify", kernel=tab, **common)
    assert run(tmp_path, doc, out=tmp_path, name="verify.json") == 0
    verdict = json.loads(
        (adir_of(tmp_path, "verify", doc) / "verdict.json").read_text())
    assert verdict["verdict"] == "PASS"


def test_cli_gram_at_the_rounding_floor_exits_three(tmp_path, capsys):
    # the zero kernel with c = 3.5 and 6 modes at T = 3 pi: mode 1 is
    # overdamped, its rows U_1 and V_1 both grow as exp((alpha + kappa) t)
    # with alpha + kappa = 6.85 against exp(0.15 t), so m_N is at its
    # rounding floor, the Gram singular to working precision; gram says
    # so and writes nothing
    doc = base("gram", T=3 * PI, h=2e-3, K=6, kernel={"family": "zero"},
               domain={"geometry": "interval", "lengths": [PI], "c": 3.5})
    assert run(tmp_path, doc, out=tmp_path / "store") == 3
    err = capsys.readouterr().err
    assert "singular to working precision" in err and "gram.json" in err
    assert not (tmp_path / "store").exists()


def test_cli_config_errors_exit_two(tmp_path, capsys):
    doc = base()
    doc["surprise"] = 1
    assert run(tmp_path, doc, out=tmp_path) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    assert run(tmp_path, base("spectrum"), command="gram", out=tmp_path) == 2
    sweep = base("sweep-T", sweep={"T_min": 1.0, "T_max": 2.0, "steps": 3})
    assert run(tmp_path, sweep, command="sweep-t", out=tmp_path,
               grid_h=0.0) == 2


def test_cli_not_controllable_exit_four(tmp_path, capsys):
    doc = base("synthesize", T=0.5 * PI, K=4, K_sim=4, target="random",
               kernel={"family": "exponential_sum",
                       "coefficients": [1.0], "rates": [1.0]})
    assert run(tmp_path, doc, out=tmp_path / "store", grid_h=5e-3) == 4
    assert "m_N" in capsys.readouterr().err
    # the artifact directory is made by the first write; none happened
    assert not (tmp_path / "store").exists()


def test_cli_overdamped_gram_exits_four_without_warning(tmp_path, capsys):
    # c = 3 overdamps the first modes and drives the lowest Gram
    # eigenvalue below zero; the condition is infinite, silently
    doc = base("synthesize", T=2.5 * PI, K=4, target="random", kernel=EXP,
               domain={"geometry": "interval", "lengths": [PI], "c": 3.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(tmp_path, doc, out=tmp_path / "store", grid_h=1e-2)
    assert code == 4
    assert "condition=inf" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


# 3 exp(-t) on the interval of length pi: alpha = -1.5, so mode 1
# (lambda^2 = 1) is overdamped, beta_1 = 1.118 i
OVERDAMPED = dict(K=6, h=2e-3, kernel={"family": "exponential_sum",
                                       "coefficients": [3.0], "rates": [1.0]})


def test_cli_overdamped_memory_family_synthesizes_and_verifies(tmp_path):
    # the rows U_1 and V_1 of the overdamped mode stay independent, so at
    # 3 pi the Gram is regular (m_N 6.0e-8, condition 2.1e7, under the
    # cap), and the forward simulation, reading mode 1's velocity as
    # theta' / |beta_1|, hits the target
    store = tmp_path / "store"
    common = dict(OVERDAMPED, T=3 * PI, target="random", seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, base("synthesize", **common), out=store,
                   name="s.json") == 0
        assert run(tmp_path, base("verify", **common), out=store,
                   name="v.json") == 0
    (syn,) = store.glob("synthesize-*/synthesis.json")
    syn = json.loads(syn.read_text())
    assert syn["frame_lower"] == pytest.approx(6.03e-8, rel=0.01)
    assert syn["condition"] < 1e8 and syn["factor_gap"] <= 1e-12
    (verdict,) = store.glob("verify-*/verdict.json")
    verdict = json.loads(verdict.read_text())
    assert verdict["verdict"] == "PASS"
    assert verdict["achieved_error"] <= verdict["tolerance"]


def test_cli_report_renders_a_fresh_synthesis(tmp_path, capsys):
    doc = base("synthesize", T=2.5 * PI, K=3, target="random", seed=2,
               kernel=EXP)
    store = tmp_path / "store"
    assert run(tmp_path, doc, out=store, grid_h=1e-2) == 0
    adir = adir_of(store, "synthesize", doc, 1e-2)
    syn = json.loads((adir / "synthesis.json").read_text())
    assert set(syn) == {"index_set", "residual_max", "condition",
                        "frame_lower", "norm", "factor_gap", "T", "K",
                        "config_hash"}
    cols, coefficients = cli._read_csv(str(adir / "coefficients.csv"))
    assert cols == ["n", "a_U", "a_V"]
    assert np.array_equal(coefficients[:, 0], [1, 2, 3])
    capsys.readouterr()
    assert main(["report", str(adir)]) == 0
    text = capsys.readouterr().out
    assert "## Synthesis" in text and "imag" not in text
    assert f"moment residual (max) = {syn['residual_max']:.3e}" in text
    assert f"Gram condition        = {syn['condition']:.3e}" in text
    assert (adir / "report.md").read_text().strip() == text.strip()


@pytest.mark.parametrize("command,doc", [
    ("spectrum", base(K=float("inf"))),
    ("sweep-t", base(sweep={"T_min": 1.0, "T_max": float("inf"),
                            "steps": 3})),
    ("spectrum", {"domain": {"geometry": "interval",
                             "lengths": [float("nan")]}}),
], ids=["K-inf", "sweep-T_max-inf", "lengths-nan"])
def test_cli_non_finite_config_exits_two(tmp_path, capsys, command, doc):
    assert run(tmp_path, doc, command=command, out=tmp_path / "store") == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("command,doc", [
    ("spectrum", base(domain=dict(DOM, gamma_subset=5))),
    ("spectrum", base(domain=dict(DOM, gamma_subset=None))),
    # a repeated edge would count its quadrature weights twice
    ("spectrum", base(domain=dict(DOM, gamma_subset=["right", "right"]))),
    ("spectrum", base(sweep=5)),
    ("verify", base("verify", T=2.5 * PI, K=2, K_sim=3, target="random",
                    seed=-1)),
], ids=["gamma_subset-number", "gamma_subset-null", "gamma_subset-repeated",
        "sweep-number", "seed-negative"])
def test_cli_malformed_config_exits_two(tmp_path, capsys, command, doc):
    assert run(tmp_path, doc, command=command, out=tmp_path / "store") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_cli_non_finite_artifact_exits_three(tmp_path, capsys):
    # 24 members on 6 time samples: the Gram has rank 6 at most, its
    # lowest computed eigenvalue is roundoff below zero and the condition
    # infinite, which no artifact may hold
    doc = base("gram", T=0.05, K=12,
               kernel={"family": "exponential_sum",
                       "coefficients": [1.0], "rates": [1.0]})
    code = run(tmp_path, doc, out=tmp_path / "store", grid_h=1e-2)
    assert code == 3
    assert "gram.json" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_cli_kernel_overflow_exits_three_at_normalize(tmp_path, capsys):
    # a huge negative kernel coefficient overflows the exponential
    # rescaling of N; the run stops in normalize, before any warning or
    # artifact, and responses, which writes N and N', stops there too
    for command, doc in (("gram", base("gram", T=2.5 * PI, K=3)),
                         ("responses", base("responses", T=2.5 * PI,
                                            N_modes=12))):
        doc["kernel"] = {"family": "exponential_sum",
                         "coefficients": [-1e6], "rates": [1.0]}
        store = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(tmp_path, doc, out=store, grid_h=1e-2)
        assert code == 3
        err = capsys.readouterr().err
        assert "normalize" in err and "field N " in err and "step 1 " in err
        assert not store.exists()


def test_cli_synthesize_then_verify_passes(tmp_path, capsys):
    store = tmp_path / "store"
    common = dict(T=2.5 * PI, K=3, K_sim=6, target="random", seed=3,
                  kernel={"family": "exponential_sum",
                          "coefficients": [1.0], "rates": [1.0]})
    sdoc = base("synthesize", **common)
    vdoc = base("verify", **common)
    assert run(tmp_path, sdoc, out=store, grid_h=5e-3, name="s.json") == 0
    sdir = adir_of(store, "synthesize", sdoc, 5e-3)
    assert (sdir / "control.csv").exists()
    syn = json.loads((sdir / "synthesis.json").read_text())
    assert syn["residual_max"] <= 1e-8 * syn["condition"]
    assert "imag_max" not in syn

    assert run(tmp_path, vdoc, out=store, grid_h=5e-3, name="v.json") == 0
    vdir = adir_of(store, "verify", vdoc, 5e-3)
    verdict = json.loads((vdir / "verdict.json").read_text())
    assert verdict["verdict"] == "PASS"
    assert verdict["achieved_error"] <= verdict["tolerance"]
    # verify synthesizes its own control: what else lies under the output
    # root does not reach its artifacts
    assert run(tmp_path, vdoc, out=tmp_path / "fresh", grid_h=5e-3,
               name="v2.json") == 0
    fresh = adir_of(tmp_path / "fresh", "verify", vdoc, 5e-3)
    assert (fresh / "verdict.json").read_bytes() == \
        (vdir / "verdict.json").read_bytes()
    # the report prints the worst mode's Z-route headroom
    worst = verdict["worst_z_route_mode"]
    ratio = verdict["z_route_gap_ratio_per_mode"][worst - 1]
    capsys.readouterr()
    assert main(["report", str(vdir)]) == 0
    assert (f"Z route gap    = {ratio:.3e} of allowance  "
            f"(worst mode {worst})") in capsys.readouterr().out


def test_cli_verify_nan_z_route_gap_exits_five(tmp_path, capsys,
                                               monkeypatch):
    convolve = volterra.convolve

    def poisoned(f, g, h):
        out = convolve(f, g, h)
        out[-1] = np.nan
        return out
    monkeypatch.setattr(volterra, "convolve", poisoned)
    doc = base("verify", T=2.5 * PI, K=2, K_sim=3, target="random",
               kernel=EXP)
    assert run(tmp_path, doc, out=tmp_path / "store", grid_h=1e-2) == 5
    assert "Z routes disagree on mode 1: gap nan" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_cli_z_route_gap_at_rounding_exits_three(tmp_path, capsys):
    # c = 5.5 with no memory: |z_1| grows to ~2e44 over 3 pi, where the
    # capped allowance (1.5e24) lies below the rounding of the responses;
    # the gap (3.5e29) is rounding, a convergence failure, not a defect
    doc = base("gram", T=3 * PI, K=6, kernel={"family": "zero"},
               domain=dict(DOM, c=5.5))
    store = tmp_path / "store"
    assert run(tmp_path, doc, out=store, grid_h=2e-3) == 3
    err = capsys.readouterr().err
    assert "mode 1" in err and "rounding of max |Z|" in err
    assert not store.exists()


def test_cli_synthesize_writes_control_factors(tmp_path, capsys, monkeypatch):
    # control.csv and control_traces.csv are the factors synthesize
    # returns: one product rebuilds the control combined from the family
    kept, synthesize = [], cli.synthesize

    def keep(problem):
        kept.append((problem, synthesize(problem)))
        return kept[-1][1]
    monkeypatch.setattr(cli, "synthesize", keep)
    doc = base("synthesize", T=2.5 * PI, K=2, target="random", seed=1,
               kernel=EXP, domain=dict(RECT, gamma_subset=["right", "top"]))
    store = tmp_path / "store"
    assert run(tmp_path, doc, out=store, grid_h=2e-2) == 0
    adir = adir_of(store, "synthesize", doc, 2e-2)
    cols, g = cli._read_csv(str(adir / "control.csv"))
    tcols, tr = cli._read_csv(str(adir / "control_traces.csv"))
    assert cols == ["t", "g_mode1", "g_mode2"]
    assert tcols == ["node", "trace_mode1", "trace_mode2"]
    problem, ctrl = kept[0]
    nodes, samples = ctrl.traces.shape[1], ctrl.profiles.shape[1]
    assert g.shape == (samples, 3) and tr.shape == (nodes, 3)
    assert np.array_equal(g[:, 0], ctrl.grid.t)
    assert np.array_equal(tr[:, 0], np.arange(nodes))
    assert np.array_equal(g[:, 1:].T, ctrl.profiles)
    assert np.array_equal(tr[:, 1:].T, ctrl.traces)
    f = combination(problem.family, ctrl.coefficients)[:, ::-1]
    gap = np.max(np.abs(tr[:, 1:] @ g[:, 1:].T - f)) / np.max(np.abs(f))
    syn = json.loads((adir / "synthesis.json").read_text())
    assert syn["factor_gap"] == ctrl.factor_gap <= 1e-12 and gap <= 1e-12

    capsys.readouterr()
    assert main(["report", str(adir)]) == 0
    text = capsys.readouterr().out
    assert f"factor gap            = {ctrl.factor_gap:.3e}" in text
    assert f"= 2 modes x {nodes} nodes" in text
    assert f"= 2 modes x {samples} samples" in text


def test_cli_synthesize_factor_gap_exits_five(tmp_path, capsys, monkeypatch):
    factor_form = control._factor_form

    def skewed(fam, a):
        traces, profiles = factor_form(fam, a)
        return traces, profiles * (1.0 + 1e-9)
    monkeypatch.setattr(control, "_factor_form", skewed)
    doc = base("synthesize", T=2.5 * PI, K=2, target="random", kernel=EXP)
    assert run(tmp_path, doc, out=tmp_path / "store", grid_h=1e-2) == 5
    assert "factors rebuild the control" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()

    # the pass reads every tile: on the benchmark's one-edge rectangle (17
    # node blocks) a skew of the last block's traces alone fails the run.
    # That block is the corner node, whose trace is rounding, so the skew
    # is 1e-9 of the largest trace, added
    def last_block_skewed(fam, a):
        traces, profiles = factor_form(fam, a)
        tiles = control._RealPasses(fam).tiles
        assert len({rows.start for rows, _ in tiles}) == 17
        traces[:, tiles[-1][0]] += 1e-9 * np.max(np.abs(traces))
        return traces, profiles
    monkeypatch.setattr(control, "_factor_form", last_block_skewed)
    doc = base("synthesize", T=2.5 * PI, K=4, target="random", kernel=EXP,
               domain=RECT)
    assert run(tmp_path, doc, out=tmp_path / "rect", grid_h=2e-3,
               name="rect.json") == 5
    assert "factors rebuild the control" in capsys.readouterr().err
    assert not (tmp_path / "rect").exists()


def test_cli_synthesize_non_finite_control_exits_three(tmp_path, capsys,
                                                      monkeypatch):
    # an Inf in either factor stops the run before its first write
    synthesize = cli.synthesize
    doc = base("synthesize", T=2.5 * PI, K=2, target="random", kernel=EXP)
    for factor, artifact in (("profiles", "control.csv"),
                             ("traces", "control_traces.csv")):
        def broken(problem):
            ctrl = synthesize(problem)
            values = getattr(ctrl, factor).copy()
            values[0, -1] = np.inf
            return ctrl._replace(**{factor: values})
        monkeypatch.setattr(cli, "synthesize", broken)
        store = tmp_path / factor
        assert run(tmp_path, doc, out=store, grid_h=1e-2) == 3
        assert artifact in capsys.readouterr().err
        assert not store.exists()


def _nan_first(values):
    values = np.array(values, dtype=float)
    values.flat[0] = np.nan
    return values


_LAST_ARTIFACT_NAN = {
    # experiment: config, its last artifact, and the function whose
    # result poison rewrites with a NaN headed for that artifact alone
    "spectrum": (base(K=4, N_modes=6), "spectrum.json", cli,
                 "trace_diagnostics", lambda d: dict(d, max=np.nan)),
    "responses": (base("responses", T=2.5 * PI, N_modes=12, kernel=EXP),
                  "responses.json", cli, "asymptotic_residual",
                  lambda fit: dict(fit, slope=np.nan)),
    "gram": (base("gram", T=2.5 * PI, K=2, kernel=EXP), "gram_abs.csv",
             cli, "gram",
             lambda rep: rep._replace(gram=_nan_first(rep.gram))),
    # the first level's bound: sweep.csv holds the last level's, m_N
    "sweep-t": (base("sweep-T", K=2, kernel=EXP,
                     sweep={"T_min": 2.0 * PI, "T_max": 2.5 * PI,
                            "steps": 2}), "sweep.json", exact, "exact_sweep",
                lambda reps: (reps[0], [
                    r._replace(frame_lower=_nan_first(r.frame_lower))
                    for r in reps[1]])),
    "synthesize": (base("synthesize", T=2.5 * PI, K=2, target="random",
                        kernel=EXP), "synthesis.json", cli, "synthesize",
                   lambda ctrl: ctrl._replace(norm=np.nan)),
}


@pytest.mark.parametrize("command", list(_LAST_ARTIFACT_NAN))
def test_cli_nan_in_the_last_artifact_writes_nothing(tmp_path, capsys,
                                                     monkeypatch, command):
    # every artifact is checked before the directory exists: a NaN headed
    # for a run's last file leaves none of the files before it on disk
    doc, artifact, module, name, poison = _LAST_ARTIFACT_NAN[command]
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: poison(fn(*args)))
    store = tmp_path / "store"
    assert run(tmp_path, doc, command=command, out=store, grid_h=2e-2) == 3
    err = capsys.readouterr().err
    assert artifact in err and "nothing written" in err
    assert not store.exists()


def test_cli_rectangle_round_trip_passes(tmp_path):
    # the family pairs the control with the same boundary quadrature
    # weights as the simulator, so the rectangle's 257-node edge verifies
    common = dict(T=2.5 * PI, K=2, K_sim=4, target="random", seed=1,
                  domain={"geometry": "rectangle", "lengths": [PI, PI],
                          "gamma_subset": ["right"]},
                  kernel={"family": "exponential_sum",
                          "coefficients": [1.0], "rates": [1.0]})
    store = tmp_path / "store"
    sdoc, vdoc = base("synthesize", **common), base("verify", **common)
    assert run(tmp_path, sdoc, out=store, grid_h=2e-2, name="s.json") == 0
    assert run(tmp_path, vdoc, out=store, grid_h=2e-2, name="v.json") == 0
    verdict = json.loads((adir_of(store, "verify", vdoc, 2e-2) /
                          "verdict.json").read_text())
    assert verdict["verdict"] == "PASS"
    assert verdict["achieved_error"] <= verdict["tolerance"]


def test_cli_sweep_and_report(tmp_path, capsys):
    doc = base("sweep-T", K=5,
               sweep={"T_min": PI, "T_max": 2 * PI, "steps": 3},
               kernel={"family": "exponential_sum",
                       "coefficients": [1.0], "rates": [1.0]})
    out = tmp_path / "store"
    assert run(tmp_path, doc, command="sweep-t", out=out, grid_h=1e-2) == 0
    adir = adir_of(out, "sweep-t", doc, 1e-2)
    data = json.loads((adir / "sweep.json").read_text())
    assert len(data["T"]) == 3
    # collapse below the sharp horizon, plateau at it
    assert data["m_N_telegraph"][0] < 1e-2 * data["m_N_telegraph"][2]
    assert data["m_N_visco"][0] < 1e-2 * data["m_N_visco"][2]

    capsys.readouterr()
    assert main(["report", str(adir)]) == 0
    text = capsys.readouterr().out
    assert "sweep" in text.lower()
    assert data["route"] == "exact" and "route = exact" in text
    assert (adir / "report.md").read_text().strip() == text.strip()


def test_cli_report_rejects_empty_dir(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2


def test_cli_out_resolution(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MEMWAVE_OUT", str(tmp_path / "envroot"))
    doc = base(K=3, N_modes=4)
    assert run(tmp_path, doc) == 0
    assert (tmp_path / "envroot" / f"spectrum-{config_hash(doc)}").is_dir()
    # an explicit flag wins over the environment
    assert run(tmp_path, doc, out=tmp_path / "flagroot") == 0
    assert (tmp_path / "flagroot" / f"spectrum-{config_hash(doc)}").is_dir()
    # a config-file path wins over the environment too
    doc2 = base(K=3, N_modes=4, out=str(tmp_path / "cfgroot"))
    assert run(tmp_path, doc2, name="cfg2.json") == 0
    assert (tmp_path / "cfgroot" / f"spectrum-{config_hash(doc2)}").is_dir()


def test_cli_grid_h_flag_controls_step(tmp_path):
    doc = base("responses", T=PI, K=3, N_modes=12,
               kernel={"family": "exponential_sum",
                       "coefficients": [1.0], "rates": [1.0]})
    out = tmp_path / "store"
    assert run(tmp_path, doc, out=out, grid_h=5e-3) == 0
    meta = json.loads(
        (adir_of(out, "responses", doc, 5e-3) / "responses.json").read_text())
    # the step is rounded so that an integer number of steps spans T
    assert meta["grid_h"] == pytest.approx(5e-3, rel=1e-2)
    assert meta["grid_steps"] == round(PI / 5e-3)
    assert meta["fit_from_mode"] == 5


def test_cli_grid_h_enters_the_config_hash(tmp_path):
    # --grid-h H is the config key h = H: one config at two steps writes
    # two directories, and a run that fails at a third leaves both as
    # they were
    doc = base("sweep-T", K=1, kernel=EXP,
               sweep={"T_min": 0.1, "T_max": 0.1, "steps": 1})
    store = tmp_path / "store"

    def snapshot():
        return {d.name: {f.name: f.read_bytes() for f in d.iterdir()}
                for d in store.iterdir()}
    for h in (0.02, 0.01):
        assert run(tmp_path, doc, "sweep-t", out=store, grid_h=h) == 0
    before = snapshot()
    assert set(before) == {adir_of(store, "sweep-t", doc, h).name
                           for h in (0.02, 0.01)}
    # the same step given in the config names the same directory, with
    # the same bytes
    assert run(tmp_path, dict(doc, h=0.02), "sweep-t", out=store,
               name="keyed.json") == 0
    assert snapshot() == before
    # 0.1 is one step of 0.08: a config error
    assert run(tmp_path, doc, "sweep-t", out=store, grid_h=0.08) == 2
    assert snapshot() == before
    # a run without the flag keeps the hash of its document
    path = write_cfg(tmp_path, doc, "plain.json")
    assert load(path, "sweep-T").hash == config_hash(doc)
    assert load(path, "sweep-T", h=0.02).hash == config_hash(dict(doc, h=0.02))


def test_cli_runs_leave_no_blas_worker_spinning(tmp_path):
    # every matrix product of verify, synthesize, gram and sweep-t is real
    # and small enough for OpenBLAS to run it on the calling thread, so its
    # worker pool never wakes: no CPU time accrues on another thread during
    # a run or in the 50 ms after it, when woken workers would still spin.
    # On one vCPU OpenBLAS starts no workers and this passes trivially.
    common = dict(T=2.5 * PI, target="random", seed=1, kernel=EXP)
    rect = dict(common, K=2, K_sim=4, domain=RECT)
    runs = (("verify", base("verify", h=1e-3, K=4, K_sim=12, **common),
             None),                          # the verify_interval benchmark
            # 24 members at h = 1e-3: the time Gram is summed over chunks
            # of samples
            ("synthesize", base("synthesize", h=1e-3, K=12, **common), None),
            ("gram", base("gram", h=1e-3, K=12, **common), None),
            ("synthesize", base("synthesize", **rect), 2e-2),
            ("verify", base("verify", **rect), 2e-2),
            ("sweep-t", base("sweep-T", h=2e-3, K=8, kernel=EXP,
                             sweep={"T_min": 1.2 * PI, "T_max": 2.5 * PI,
                                    "steps": 14}),
             None))                          # the sweep_horizons benchmark
    time.sleep(0.3)     # workers woken by earlier tests fall asleep
    for i, (command, doc, grid_h) in enumerate(runs):
        cpu, own = time.process_time(), time.thread_time()
        assert run(tmp_path, doc, command, out=tmp_path / "store",
                   grid_h=grid_h, name=f"{i}.json") == 0, command
        time.sleep(0.05)
        other = (time.process_time() - cpu) - (time.thread_time() - own)
        assert other <= 5e-3, f"{command}: {other:.3f} s on other threads"


def test_cli_rectangle_never_builds_dense_members(tmp_path, monkeypatch):
    # families keep psi and Z apart: no CLI path may ask for the dense
    # (count, nodes, steps+1) members
    def refuse(self):
        raise AssertionError("dense members materialised")
    monkeypatch.setattr(SequenceFamily, "members", property(refuse))
    common = dict(K=2, K_sim=3, target="random", seed=2,
                  domain={"geometry": "rectangle", "lengths": [PI, PI],
                          "gamma_subset": ["right"]},
                  kernel={"family": "exponential_sum",
                          "coefficients": [1.0], "rates": [1.0]})
    store = tmp_path / "store"
    for command, doc in (
            ("synthesize", base("synthesize", T=2.5 * PI, **common)),
            ("verify", base("verify", T=2.5 * PI, **common)),
            ("sweep-t", base("sweep-T", sweep={"T_min": 2.0 * PI,
                                               "T_max": 2.5 * PI, "steps": 2},
                             **common))):
        assert run(tmp_path, doc, command=command, out=store, grid_h=2e-2,
                   name=f"{command}.json") == 0, command


def test_write_csv_bytes_match_per_value_formatting(tmp_path):
    data = np.array([[-0.0, 0.0, 1e-300, 1e300, 5e-324],
                     [3.0, -7.0, -2.5e-17, 0.1, -1.7976931348623157e308],
                     [12345678901234567.0, -1.0 / 3.0, 2.0 ** 53, -1e-5, PI]])
    path = tmp_path / "x.csv"
    _write_artifacts(str(tmp_path), [("x.csv", ["a", "b", "c", "d", "e"],
                                      data)], "h")
    lines = ["# config_hash=h", "# a,b,c,d,e"]
    lines += [",".join("%.17g" % float(v) for v in row) for row in data]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert path.read_text().splitlines()[2].startswith("-0,0,")


def test_write_csv_bytes_match_on_both_sides_of_the_cut(tmp_path):
    # one value short of CSV_TABLE_CELLS prints one value at a time, the
    # cut itself goes through csvtext: the bytes are the same
    rng = np.random.default_rng(3)
    values = np.concatenate([[-0.0, 0.0, 1e-300, 5e-324, 2.0 ** 53, 1e17,
                              1e-4, -1e-5, 12345678901234567.0],
                             rng.standard_normal(cli.CSV_TABLE_CELLS)])
    for cells in (cli.CSV_TABLE_CELLS - 1, cli.CSV_TABLE_CELLS):
        data = values[:cells].reshape(-1, 1)
        path = tmp_path / f"{cells}.csv"
        _write_artifacts(str(tmp_path), [(path.name, ["a"], data)], "h")
        lines = ["# config_hash=h", "# a"]
        lines += ["%.17g" % float(v) for v in data[:, 0]]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


_FAIL_CLOSED = {0, 2, 3, 4, 5}
# c for the fail-closed tests: with the kernel strengths (gamma = -M(0)/2)
# it draws alpha = c + gamma past sqrt(lambda_1) = pi / length (on the
# interval), so mode 1 is real, overdamped (imaginary beta) or on the
# degenerate set
OVERDAMPING_C = st.one_of(st.floats(-2.0, 2.0), st.floats(-6.0, 6.0))
# boundaries the verify fail-closed test draws, (geometry, dimensions,
# edges): one node, the interval's two ends and the rectangle's
# 257-node edge
_VERIFY_BOUNDARIES = {"interval-right": ("interval", 1, ["right"]),
                      "interval-both-ends": ("interval", 1,
                                             ["left", "right"]),
                      "rectangle-right": ("rectangle", 2, ["right"])}


def _verify_domain(boundary, length, c):
    geometry, dims, edges = _VERIFY_BOUNDARIES[boundary]
    return {"geometry": geometry, "lengths": [length] * dims,
            "gamma_subset": edges, "c": c}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(length=st.floats(0.5, 4.0), c=st.floats(-2.0, 2.0),
       family=st.sampled_from(["exponential_sum", "polynomial"]),
       coefficients=st.lists(st.one_of(st.floats(-5.0, 5.0),
                                       st.floats(-1e8, 1e8)),
                             min_size=1, max_size=2),
       rate=st.floats(0.0, 5.0), T=st.floats(0.5, 8.0),
       K=st.integers(1, 4))
# found by this test: eigenvalues beyond float range (traceback), a
# vanishing rate whose kernel terms cancelled to none (traceback), and
# an overflowing Gram (traceback)
@example(length=1.3e-242, c=0.0, family="exponential_sum",
         coefficients=[0.0], rate=0.0, T=1.0, K=1)
@example(length=1.0, c=0.0, family="exponential_sum",
         coefficients=[8e-150], rate=2.2e-313, T=1.0, K=1)
@example(length=4.8e-116, c=0.0, family="exponential_sum",
         coefficients=[0.0], rate=0.0, T=1.0, K=1)
def test_cli_gram_fails_closed(tmp_path, length, c, family, coefficients,
                               rate, T, K):
    # any small interval gram config ends in a documented exit code, and a
    # success writes finite strict JSON only
    kernel = {"family": family, "coefficients": coefficients}
    if family == "exponential_sum":
        kernel["rates"] = [rate] * len(coefficients)
    doc = base("gram", T=T, K=K, kernel=kernel,
               domain={"geometry": "interval", "lengths": [length], "c": c})
    store = tmp_path / config_hash(doc)
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = run(tmp_path, doc, out=store, grid_h=5e-2)
    assert code in _FAIL_CLOSED
    if code == 0:
        (adir,) = store.iterdir()
        def reject(token):
            raise AssertionError(f"non-finite {token} in gram.json")
        meta = json.loads((adir / "gram.json").read_text(),
                          parse_constant=reject)
        assert all(math.isfinite(meta[k])
                   for k in ("frame_lower", "frame_upper", "condition"))
        table = np.loadtxt(adir / "gram_abs.csv", delimiter=",", ndmin=2)
        assert np.all(np.isfinite(table))
    else:
        assert not store.exists()


def test_cli_responses_makes_no_march(tmp_path, monkeypatch):
    # responses reads the exact S-frame rows only: no mode is marched
    def refuse(*args, **kwargs):
        raise AssertionError("responses marched")
    for module, name in ((volterra, "march_modal"),
                         (volterra, "compute_responses"),
                         (cli, "compute_responses")):
        monkeypatch.setattr(module, name, refuse)
    doc = base("responses", T=2.5 * PI, N_modes=12, kernel=EXP)
    assert run(tmp_path, doc, out=tmp_path / "store", grid_h=2e-2) == 0


def test_cli_responses_refuses_a_non_finite_S(tmp_path, capsys):
    # S grows past the double range within the horizon: exit 3, no
    # artifacts.  On the last two the grid S route wrote ~4e170 and
    # exited 0 (the true S reaches e^705 in the first)
    for length, c, coefficients, T, N_modes, h in (
            (2.11, 0.03, [-0.034, 4.2e7], 6.42, 13, 0.062),
            (0.7321692555645317, -0.604058312458915,
             [2.311555764447383, 79333264.63565814], 2.2883474940884687, 16,
             0.09200358528402697),
            (2.7190176849375827, -0.8959566199253644,
             [3.0440082459747035, -34885010.15044227], 3.9103225203401504,
             12, 0.09022818704734627)):
        doc = base("responses", T=T, N_modes=N_modes,
                   kernel={"family": "polynomial",
                           "coefficients": coefficients},
                   domain={"geometry": "interval", "lengths": [length],
                           "c": c})
        store = tmp_path / "store"
        assert run(tmp_path, doc, out=store, grid_h=h) == 3
        assert "S of mode 5 is not finite" in capsys.readouterr().err
        assert not store.exists()


def test_cli_responses_exit_codes(tmp_path, capsys):
    # the exact route's refusals, each with nothing written: a tabulated
    # kernel has no closed form (exit 2); M = -0.999999999 exp(-t) puts
    # a root of Den within ROOT_GAP of Q's root w = 0, so exact_modes
    # refuses the modes (exit 3); the zero kernel leaves residuals at
    # rounding, ~1e-14, which fit nothing (exit 2; they used to give a
    # slope)
    common = dict(T=2.5 * PI, N_modes=12)
    for kernel, code, message in (
            (tabulated_exp(2.5 * PI, 0.02), 2, "closed-form kernel"),
            ({"family": "exponential_sum", "coefficients": [-0.999999999],
              "rates": [1.0]}, 3, "exact_modes refuses"),
            ({"family": "zero"}, 2, "residuals vanish identically")):
        store = tmp_path / "store"
        doc = base("responses", kernel=kernel, **common)
        assert run(tmp_path, doc, out=store, grid_h=0.02) == code, message
        assert message in capsys.readouterr().err
        assert not store.exists()


def test_cli_cancelled_common_factor_takes_the_exact_route(tmp_path):
    # M = -exp(-t) normalises to N = 1, NQ / Q = 1 / (w + 1) once the
    # common factor w cancels: responses fits its exact rows, and sweep-t
    # reads its exact Grams
    minus = {"family": "exponential_sum", "coefficients": [-1.0],
             "rates": [1.0]}
    doc = base("responses", kernel=minus, T=2.5 * PI, N_modes=12)
    assert run(tmp_path, doc, out=tmp_path / "a", grid_h=0.02) == 0
    doc = base("sweep-t", kernel=minus, K=3,
               sweep={"T_min": 1.5 * PI, "T_max": 2.5 * PI, "steps": 3})
    out = tmp_path / "b"
    assert run(tmp_path, doc, out=out, grid_h=2e-2) == 0
    data = json.loads((adir_of(out, "sweep-t", doc, 2e-2) /
                       "sweep.json").read_text())
    assert data["route"] == "exact"


def test_cli_kernel_c_key_is_unknown(tmp_path, capsys):
    # c is the domain's: a kernel section that repeats it is refused
    doc = base("gram", T=2.5 * PI, K=2, kernel={"family": "zero", "c": 0.0})
    assert run(tmp_path, doc, out=tmp_path / "store", grid_h=0.02) == 2
    assert "kernel.c" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


def test_cli_tabulated_derivative_keys_are_unknown(tmp_path, capsys):
    # nothing reads M' or M'': a config that supplies them is refused
    for key in ("samples_d1", "samples_d2"):
        kernel = dict(tabulated_exp(2.5 * PI, 0.02), **{key: [0.0]})
        doc = base("gram", T=2.5 * PI, K=2, kernel=kernel)
        assert run(tmp_path, doc, out=tmp_path / "store", grid_h=0.02) == 2
        assert f"kernel.{key}" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(length=st.floats(0.5, 4.0), c=st.floats(-2.0, 2.0),
       family=st.sampled_from(["zero", "exponential_sum", "polynomial"]),
       coefficients=st.lists(st.one_of(st.floats(-5.0, 5.0),
                                       st.floats(-1e8, 1e8)),
                             min_size=1, max_size=2),
       rate=st.floats(0.0, 5.0), T=st.floats(0.5, 8.0),
       N_modes=st.integers(12, 20), h=st.floats(1e-2, 0.1))
# a non-finite S (exit 3), and a config the modal march refused although
# the S rows resolve it
@example(length=2.11, c=0.03, family="polynomial",
         coefficients=[-0.034, 4.2e7], rate=0.0, T=6.42, N_modes=13, h=0.062)
@example(length=3.91, c=-1.57, family="exponential_sum", coefficients=[-4.82],
         rate=0.956, T=3.89, N_modes=15, h=0.031)
# S grows past the double range (e^705 in the first), where the grid S
# route wrote ~4e170 and exited 0: exit 3
@example(length=0.7321692555645317, c=-0.604058312458915, family="polynomial",
         coefficients=[2.311555764447383, 79333264.63565814], rate=0.0,
         T=2.2883474940884687, N_modes=16, h=0.09200358528402697)
@example(length=2.7190176849375827, c=-0.8959566199253644,
         family="polynomial",
         coefficients=[3.0440082459747035, -34885010.15044227], rate=0.0,
         T=3.9103225203401504, N_modes=12, h=0.09022818704734627)
def test_cli_responses_fails_closed(tmp_path, length, c, family, coefficients,
                                    rate, T, N_modes, h):
    # any small interval responses config ends in a documented exit code,
    # and a success writes strict finite JSON and finite CSVs
    kernel = {"family": family}
    if family != "zero":
        kernel["coefficients"] = coefficients
    if family == "exponential_sum":
        kernel["rates"] = [rate] * len(coefficients)
    doc = base("responses", T=T, N_modes=N_modes, kernel=kernel,
               domain={"geometry": "interval", "lengths": [length], "c": c})
    store = tmp_path / config_hash(with_h(doc, h))
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = run(tmp_path, doc, out=store, grid_h=h)
    assert code in _FAIL_CLOSED
    if code == 0:
        (adir,) = store.iterdir()
        def reject(token):
            raise AssertionError(f"non-finite {token} in responses.json")
        meta = json.loads((adir / "responses.json").read_text(),
                          parse_constant=reject)
        assert all(math.isfinite(meta[k])
                   for k in ("slope", "intercept", "grid_h"))
        assert meta["modes"] == N_modes
        for name in ("kernel.csv", "residuals.csv"):
            table = np.loadtxt(adir / name, delimiter=",", ndmin=2)
            assert np.all(np.isfinite(table)), name
    else:
        assert not store.exists()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(length=st.floats(0.5, 4.0), c=OVERDAMPING_C,
       family=st.sampled_from(["zero", "exponential_sum", "polynomial"]),
       coefficients=st.lists(st.one_of(st.floats(-5.0, 5.0),
                                       st.floats(-1e8, 1e8)),
                             min_size=1, max_size=2),
       rate=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e-6),
                      st.floats(0.0, 1e-300)),
       T=st.floats(0.5, 8.0), K=st.integers(1, 3), K_sim=st.integers(1, 4),
       h=st.floats(1e-2, 0.1), seed=st.integers(0, 3),
       boundary=st.sampled_from(list(_VERIFY_BOUNDARIES)))
# found by this test: K_sim < K (traceback)
@example(length=1.0, c=0.0, family="zero", coefficients=[0.0], rate=0.0,
         T=1.0, K=3, K_sim=2, h=0.0625, seed=0, boundary="interval-right")
# overdamped mode 1: 3 exp(-t) (alpha = -1.5) and c = 1.5 (alpha = 1.5)
@example(length=PI, c=0.0, family="exponential_sum", coefficients=[3.0],
         rate=1.0, T=3 * PI, K=3, K_sim=4, h=0.02, seed=1,
         boundary="interval-right")
@example(length=PI, c=1.5, family="zero", coefficients=[0.0], rate=0.0,
         T=3 * PI, K=3, K_sim=4, h=0.02, seed=1, boundary="interval-right")
def test_cli_verify_fails_closed(tmp_path, length, c, family, coefficients,
                                 rate, T, K, K_sim, h, seed, boundary):
    # any small verify config ends in a documented exit code, and a
    # success writes a finite strict-JSON verdict; on the interval's two
    # ends and the rectangle's 257-node edge the march takes a forcing
    # row per mode, or one shared row for K = 1
    kernel = {"family": family}
    if family != "zero":
        kernel["coefficients"] = coefficients
    if family == "exponential_sum":
        kernel["rates"] = [rate] * len(coefficients)
    doc = base("verify", T=T, K=K, K_sim=K_sim, target="random", seed=seed,
               kernel=kernel,
               domain=_verify_domain(boundary, length, c))
    store = tmp_path / config_hash(with_h(doc, h))
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = run(tmp_path, doc, out=store, grid_h=h)
    assert code in _FAIL_CLOSED
    if code == 0:
        (adir,) = store.iterdir()
        def reject(token):
            raise AssertionError(f"non-finite {token} in verdict.json")
        verdict = json.loads((adir / "verdict.json").read_text(),
                             parse_constant=reject)
        assert verdict["verdict"] == "PASS"
        assert all(math.isfinite(verdict[k]) for k in
                   ("achieved_error", "tolerance", "route_gap", "tail_energy"))
        gaps, spill = (verdict["route_gap_per_mode"],
                       verdict["spillover_per_mode"])
        assert len(gaps) == K_sim and len(spill) == K_sim - K
        assert max(gaps) == verdict["route_gap"]
        assert gaps[verdict["worst_route_gap_mode"] - 1] == max(gaps)
        if spill:
            assert spill[verdict["worst_spillover_mode"] - K - 1] == max(spill)
            assert math.isclose(sum(spill), verdict["tail_energy"],
                                rel_tol=1e-12)
        else:
            assert verdict["worst_spillover_mode"] is None
        ratios = verdict["z_route_gap_ratio_per_mode"]
        assert len(ratios) == K_sim
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert ratios[verdict["worst_z_route_mode"] - 1] == max(ratios)
    elif code != 5:
        assert not store.exists()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(geometry=st.sampled_from(["interval", "rectangle"]),
       lengths=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
       gamma_subset=st.sampled_from([["right"], ["right", "top"]]),
       c=OVERDAMPING_C,
       family=st.sampled_from(["zero", "exponential_sum", "polynomial"]),
       coefficients=st.lists(st.one_of(st.floats(-5.0, 5.0),
                                       st.floats(-1e8, 1e8)),
                             min_size=1, max_size=2),
       rate=st.floats(0.0, 5.0), T=st.floats(0.5, 8.0), K=st.integers(1, 3),
       h=st.floats(1e-2, 0.1), seed=st.integers(0, 3))
# overdamped mode 1: 3 exp(-t) (alpha = -1.5) and c = 1.5 (alpha = 1.5)
@example(geometry="interval", lengths=(PI, PI), gamma_subset=["right"],
         c=0.0, family="exponential_sum", coefficients=[3.0], rate=1.0,
         T=3 * PI, K=3, h=0.02, seed=1)
@example(geometry="interval", lengths=(PI, PI), gamma_subset=["right"],
         c=1.5, family="zero", coefficients=[0.0], rate=0.0, T=3 * PI, K=3,
         h=0.02, seed=1)
def test_cli_synthesize_fails_closed(tmp_path, geometry, lengths,
                                     gamma_subset, c, family, coefficients,
                                     rate, T, K, h, seed):
    # any small interval or rectangle synthesize config ends in a
    # documented exit code; a success writes finite artifacts whose
    # factors rebuild the control
    kernel = {"family": family}
    if family != "zero":
        kernel["coefficients"] = coefficients
    if family == "exponential_sum":
        kernel["rates"] = [rate] * len(coefficients)
    domain = {"geometry": geometry, "c": c}
    if geometry == "interval":
        domain["lengths"] = [lengths[0]]
    else:
        domain.update(lengths=list(lengths), gamma_subset=gamma_subset)
    doc = base("synthesize", T=T, K=K, target="random", seed=seed,
               kernel=kernel, domain=domain)
    store = tmp_path / config_hash(with_h(doc, h))
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = run(tmp_path, doc, out=store, grid_h=h)
    assert code in _FAIL_CLOSED
    if code == 0:
        (adir,) = store.iterdir()
        def reject(token):
            raise AssertionError(f"non-finite {token} in synthesis.json")
        syn = json.loads((adir / "synthesis.json").read_text(),
                         parse_constant=reject)
        assert all(math.isfinite(syn[k]) for k in
                   ("residual_max", "condition", "frame_lower", "norm",
                    "factor_gap"))
        assert syn["factor_gap"] <= 1e-12
        for name in ("control.csv", "control_traces.csv", "coefficients.csv"):
            table = np.loadtxt(adir / name, delimiter=",", ndmin=2)
            assert np.all(np.isfinite(table)), name
    else:
        assert not store.exists()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(length=st.floats(0.5, 4.0), c=OVERDAMPING_C,
       family=st.sampled_from(["zero", "exponential_sum", "polynomial"]),
       coefficients=st.lists(st.one_of(st.floats(-5.0, 5.0),
                                       st.floats(-1e8, 1e8)),
                             min_size=1, max_size=2),
       rate=st.floats(0.0, 5.0), h=st.floats(1e-2, 0.1), K=st.integers(1, 4),
       T_min=st.one_of(st.floats(1e-3, 0.1), st.floats(0.1, 8.0)),
       span=st.floats(1e-3, 4.0), steps=st.integers(1, 5))
# the exact route: members that overflow, an overdamped memory mode
# (lambda_1^2 = 0.62 < alpha^2 = 4) and c != 0
@example(length=1.0, c=0.0, family="polynomial", coefficients=[1.0, 1e8],
         rate=0.0, h=0.05, K=2, T_min=1.0, span=1.0, steps=2)
@example(length=4.0, c=0.0, family="exponential_sum", coefficients=[-4.0],
         rate=1.0, h=0.05, K=2, T_min=2.0, span=4.0, steps=3)
@example(length=1.0, c=-1.3, family="exponential_sum", coefficients=[2.0],
         rate=0.5, h=0.05, K=3, T_min=1.0, span=2.0, steps=3)
# both families overdamped at mode 1: 3 exp(-t) (alpha = -1.5) with c = 1.5
@example(length=PI, c=1.5, family="exponential_sum", coefficients=[3.0],
         rate=1.0, h=0.02, K=4, T_min=1.5 * PI, span=1.5 * PI, steps=4)
def test_cli_sweep_fails_closed(tmp_path, length, c, family, coefficients,
                                rate, h, K, T_min, span, steps):
    # any small interval sweep-t config ends in a documented exit code, and
    # a success writes strict finite JSON for every horizon
    kernel = {"family": family}
    if family != "zero":
        kernel["coefficients"] = coefficients
    if family == "exponential_sum":
        kernel["rates"] = [rate] * len(coefficients)
    T_max = T_min if steps == 1 else T_min + span
    doc = base("sweep-T", K=K, h=h, kernel=kernel,
               sweep={"T_min": T_min, "T_max": T_max, "steps": steps},
               domain={"geometry": "interval", "lengths": [length], "c": c})
    store = tmp_path / config_hash(doc)
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = run(tmp_path, doc, command="sweep-t", out=store)
    assert code in _FAIL_CLOSED
    if code == 0:
        (adir,) = store.iterdir()
        def reject(token):
            raise AssertionError(f"non-finite {token} in sweep.json")
        data = json.loads((adir / "sweep.json").read_text(),
                          parse_constant=reject)
        assert len(data["T"]) == steps
        for key in ("T", "m_N_telegraph", "m_N_visco"):
            assert len(data[key]) == steps
            assert all(math.isfinite(v) for v in data[key]), key
        assert math.isfinite(data["grid_h"])
    else:
        assert not store.exists()
