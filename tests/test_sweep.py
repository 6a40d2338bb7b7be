"""sweep-t marches once on a step that divides the horizon spacing and
restricts that one response set to every horizon; each horizon's frame
bounds must equal those of families built fresh on the shorter grid."""

import json

import numpy as np
import pytest

from memwave import (DomainSpec, KernelSpec, TimeGrid, compute_eigenpairs,
                     compute_responses, gram, normalize, telegraph_family,
                     viscoelastic_family)
from memwave.cli import main
from memwave.config import config_hash
from memwave.grid import auto_step

PI = np.pi
DOM = DomainSpec("interval", (PI,))
KERNEL = {"family": "exponential_sum", "coefficients": [1.0], "rates": [1.0]}


def sweep(tmp_path, sweep_sec, K=3, grid_h=None, **extra):
    doc = {"experiment": "sweep-T", "domain": {"geometry": "interval",
                                               "lengths": [PI]},
           "kernel": KERNEL, "K": K, "sweep": sweep_sec, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep-t", "--config", str(path), "--out", str(tmp_path)]
    if grid_h is not None:
        argv += ["--grid-h", str(grid_h)]
    assert main(argv) == 0
    adir = tmp_path / f"sweep-t-{config_hash(doc)}"
    return json.loads((adir / "sweep.json").read_text())


def test_sweep_matches_fresh_families_per_horizon(tmp_path):
    K = 3
    data = sweep(tmp_path, {"T_min": PI, "T_max": 2 * PI, "steps": 3},
                 K=K, grid_h=1e-2)
    h = data["grid_h"]
    steps = [round(T / h) for T in data["T"]]
    kernel = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)),
                       TimeGrid(steps[-1] * h, steps[-1], h))
    pairs_tel = compute_eigenpairs(DOM, K, 0.0)
    pairs_vis = compute_eigenpairs(DOM, K, kernel.alpha)
    for i, k in enumerate(steps):
        ker = kernel.restrict(k)
        resp = compute_responses(ker, pairs_vis)
        rep_v = gram(viscoelastic_family([resp[p.index] for p in pairs_vis]))
        rep_t = gram(telegraph_family(pairs_tel, 0.0, ker.grid.T, steps=k))
        assert abs(data["m_N_visco"][i] - rep_v.m_N) <= 1e-12 * rep_v.M_N
        assert abs(data["m_N_telegraph"][i] - rep_t.m_N) <= 1e-12 * rep_t.M_N


def test_step_divides_spacing_so_horizons_are_nominal(tmp_path):
    # T_min = 2 * spacing: every horizon is a grid point
    sec = {"T_min": PI, "T_max": 2 * PI, "steps": 3}
    data = sweep(tmp_path, sec, grid_h=1.3e-2)
    spacing = PI / 2
    assert data["grid_h"] == pytest.approx(
        spacing / np.ceil(spacing / 1.3e-2), rel=1e-15)
    assert data["grid_h"] <= 1.3e-2
    nominal = np.linspace(PI, 2 * PI, 3)
    assert np.allclose(data["T"], nominal, rtol=1e-12, atol=0)


def test_off_grid_horizons_within_half_a_step(tmp_path):
    sec = {"T_min": 1.1, "T_max": 2.1, "steps": 3}      # 1.1 / 0.5 = 2.2
    data = sweep(tmp_path, sec, grid_h=3e-2)
    h = data["grid_h"]
    assert h == pytest.approx(0.5 / 17, rel=1e-15)
    dev = np.abs(np.array(data["T"]) - np.linspace(1.1, 2.1, 3))
    assert np.all(dev <= 0.5 * h) and np.any(dev > 1e-3)


def test_auto_step_is_t_min_step(tmp_path):
    sec = {"T_min": PI, "T_max": 2 * PI, "steps": 3}
    data = sweep(tmp_path, sec, K=3)                     # h = "auto"
    # beta_max estimate for K = 3 on the interval of length pi is 4
    spacing = PI / 2
    h_min = auto_step(PI, 4.0)
    assert h_min < auto_step(2 * PI, 4.0)
    assert data["grid_h"] == pytest.approx(
        spacing / np.ceil(spacing / h_min), rel=1e-15)


def test_one_horizon_sweep_keeps_configured_step(tmp_path):
    data = sweep(tmp_path, {"T_min": 2 * PI, "T_max": 2 * PI, "steps": 1},
                 grid_h=1e-2)
    assert data["grid_h"] == 1e-2
    assert data["T"] == [round(2 * PI / 1e-2) * 1e-2]
    assert data["m_N_telegraph"][0] > 0 and data["m_N_visco"][0] > 0
