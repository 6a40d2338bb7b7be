import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from memwave import ConfigError, SequenceFamily
from memwave.cli import _write_csv, main
from memwave.config import EXPERIMENTS, config_hash, from_dict, load

PI = np.pi
DOM = {"geometry": "interval", "lengths": [PI]}


def base(experiment="spectrum", **extra):
    doc = {"experiment": experiment, "domain": dict(DOM)}
    doc.update(extra)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- import


def test_cli_import_skips_scipy_signal_and_integrate():
    # the convolution runs on scipy.fft and the kernel integral on numpy;
    # scipy.signal alone was most of the CLI's import time
    code = ("import sys, memwave.cli; print(sorted(m for m in "
            "('scipy.signal', 'scipy.integrate') if m in sys.modules))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


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


def test_kernel_c_must_match_domain_c():
    doc = base(kernel={"family": "zero", "c": 0.25})
    doc["domain"]["c"] = 0.5
    with pytest.raises(ConfigError) as err:
        from_dict(doc)
    assert "one place" in str(err.value)
    doc["kernel"]["c"] = 0.5
    assert from_dict(doc).kernel.c == 0.5


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


def test_cli_reruns_are_byte_identical(tmp_path):
    doc = base(K=4, N_modes=8)
    out = tmp_path / "store"
    assert run(tmp_path, doc, out=out) == 0
    adir = out / f"spectrum-{config_hash(doc)}"
    first = {p.name: p.read_bytes() for p in adir.iterdir()}
    assert run(tmp_path, doc, out=out) == 0
    second = {p.name: p.read_bytes() for p in adir.iterdir()}
    assert first == second


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
    # a huge kernel coefficient overflows the exponential rescaling; the
    # run stops in normalize, before any warning or artifact
    doc = base("gram", T=2.5 * PI, K=3,
               kernel={"family": "exponential_sum",
                       "coefficients": [1e6], "rates": [1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(tmp_path, doc, out=tmp_path / "store", grid_h=1e-2)
    assert code == 3
    err = capsys.readouterr().err
    assert "normalize" in err and "N1" in err and "step 1" in err
    assert not (tmp_path / "store").exists()


def test_cli_synthesize_then_verify_passes(tmp_path):
    store = tmp_path / "store"
    common = dict(T=2.5 * PI, K=3, K_sim=6, target="random", seed=3,
                  kernel={"family": "exponential_sum",
                          "coefficients": [1.0], "rates": [1.0]})
    sdoc = base("synthesize", **common)
    vdoc = base("verify", **common)
    assert run(tmp_path, sdoc, out=store, grid_h=5e-3, name="s.json") == 0
    sdir = store / f"synthesize-{config_hash(sdoc)}"
    assert (sdir / "control.csv").exists()
    syn = json.loads((sdir / "synthesis.json").read_text())
    assert syn["residual_max"] <= 1e-8 * syn["condition"]
    assert syn["imag_max"] <= 1e-12

    assert run(tmp_path, vdoc, out=store, grid_h=5e-3, name="v.json") == 0
    vdir = store / f"verify-{config_hash(vdoc)}"
    verdict = json.loads((vdir / "verdict.json").read_text())
    assert verdict["verdict"] == "PASS"
    assert verdict["achieved_error"] <= verdict["tolerance"]
    # verify synthesizes its own control: what else lies under the output
    # root does not reach its artifacts
    assert run(tmp_path, vdoc, out=tmp_path / "fresh", grid_h=5e-3,
               name="v2.json") == 0
    fresh = tmp_path / "fresh" / f"verify-{config_hash(vdoc)}"
    assert (fresh / "verdict.json").read_bytes() == \
        (vdir / "verdict.json").read_bytes()


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
    verdict = json.loads((store / f"verify-{config_hash(vdoc)}" /
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
    adir = out / f"sweep-t-{config_hash(doc)}"
    data = json.loads((adir / "sweep.json").read_text())
    assert len(data["T"]) == 3
    # collapse below the sharp horizon, plateau at it
    assert data["m_N_telegraph"][0] < 1e-2 * data["m_N_telegraph"][2]
    assert data["m_N_visco"][0] < 1e-2 * data["m_N_visco"][2]

    capsys.readouterr()
    assert main(["report", str(adir)]) == 0
    text = capsys.readouterr().out
    assert "sweep" in text.lower()
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
        (out / f"responses-{config_hash(doc)}" / "responses.json").read_text())
    # the step is rounded so that an integer number of steps spans T
    assert meta["grid_h"] == pytest.approx(5e-3, rel=1e-2)
    assert meta["grid_steps"] == round(PI / 5e-3)
    assert meta["fit_from_mode"] == 5


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
    _write_csv(str(path), ["a", "b", "c", "d", "e"], data, "h")
    lines = ["# config_hash=h", "# a,b,c,d,e"]
    lines += [",".join("%.17g" % float(v) for v in row) for row in data]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert path.read_text().splitlines()[2].startswith("-0,0,")


_FAIL_CLOSED = {0, 2, 3, 4, 5}


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


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(length=st.floats(0.5, 4.0), c=st.floats(-2.0, 2.0),
       family=st.sampled_from(["zero", "exponential_sum", "polynomial"]),
       coefficients=st.lists(st.one_of(st.floats(-5.0, 5.0),
                                       st.floats(-1e8, 1e8)),
                             min_size=1, max_size=2),
       rate=st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e-6),
                      st.floats(0.0, 1e-300)),
       T=st.floats(0.5, 8.0), K=st.integers(1, 3), K_sim=st.integers(1, 4),
       h=st.floats(1e-2, 0.1), seed=st.integers(0, 3))
# found by this test: K_sim < K (traceback)
@example(length=1.0, c=0.0, family="zero", coefficients=[0.0], rate=0.0,
         T=1.0, K=3, K_sim=2, h=0.0625, seed=0)
def test_cli_verify_fails_closed(tmp_path, length, c, family, coefficients,
                                 rate, T, K, K_sim, h, seed):
    # any small interval verify config ends in a documented exit code, and
    # a success writes a finite strict-JSON verdict
    kernel = {"family": family}
    if family != "zero":
        kernel["coefficients"] = coefficients
    if family == "exponential_sum":
        kernel["rates"] = [rate] * len(coefficients)
    doc = base("verify", T=T, K=K, K_sim=K_sim, target="random", seed=seed,
               kernel=kernel,
               domain={"geometry": "interval", "lengths": [length], "c": c})
    store = tmp_path / config_hash(doc)
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
    elif code != 5:
        assert not store.exists()
