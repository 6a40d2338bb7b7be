"""sweep-t marches once on a step that divides the horizon spacing and
reads every horizon's Gram from that one response set; each horizon's
frame bounds must equal those of families built fresh on the shorter
grid, and gram_sweep must equal gram on the restricted family."""

import json

import numpy as np
import pytest

from memwave import (ConfigError, ConvergenceError, DomainSpec, KernelSpec,
                     SequenceFamily, TimeGrid, compute_eigenpairs,
                     compute_responses, gram, gram_sweep, make_grid,
                     normalize, telegraph_family, viscoelastic_family)
from memwave.cli import main
from memwave.config import config_hash
from memwave.grid import auto_step, trapezoid_weights

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
        doc["h"] = grid_h          # the flag is the config key h
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
        # the nested curve m_1..m_2K of every horizon
        for key, rep in (("visco", rep_v), ("telegraph", rep_t)):
            curve = np.array(data[f"frame_lower_{key}"][i])
            assert curve.shape == (2 * K,)
            assert curve[-1] == data[f"m_N_{key}"][i]
            assert np.max(np.abs(curve - rep.frame_lower)) <= 1e-12 * rep.M_N


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


# ---------------------------------------------------------------- gram_sweep

RECT = DomainSpec("rectangle", (PI, PI), gamma_subset=("right",))
EXP = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))


@pytest.fixture(scope="module")
def families():
    """Telegraph and viscoelastic on the interval, and the viscoelastic
    family of the rectangle's 257-node right edge."""
    grid = make_grid(2.5 * PI, 1e-2)
    kernel = normalize(EXP, grid)
    pairs = compute_eigenpairs(DOM, 4, kernel.alpha)
    resp = compute_responses(kernel, pairs)
    tel = telegraph_family(compute_eigenpairs(DOM, 4, 0.0), 0.0, grid.T,
                           steps=grid.steps)
    vis = viscoelastic_family([resp[p.index] for p in pairs])
    rgrid = make_grid(2.5 * PI, 2e-2)
    rkernel = normalize(EXP, rgrid)
    rpairs = compute_eigenpairs(RECT, 3, rkernel.alpha)
    rresp = compute_responses(rkernel, rpairs)
    rect = viscoelastic_family([rresp[p.index] for p in rpairs],
                               RECT.gamma_weights())
    assert rect.psi.shape[1] > 1
    return {"telegraph": tel, "visco": vis, "rectangle": rect}


def horizon_steps(fam):
    n = fam.grid.steps
    # the shortest grid, a one-step segment, uneven segments, the full grid
    return [2, 3, n // 3, n // 3 + 1, (2 * n) // 3, n]


@pytest.mark.parametrize("name", ["telegraph", "visco", "rectangle"])
def test_gram_sweep_matches_restricted_gram(families, name):
    fam = families[name]
    steps = horizon_steps(fam)
    reps = gram_sweep(fam, steps)
    assert len(reps) == len(steps)
    for k, rep in zip(steps, reps):
        want = gram(fam.restrict(k))
        assert rep.gram.shape == want.gram.shape
        scale = np.max(np.abs(want.gram))
        assert np.max(np.abs(rep.gram - want.gram)) <= 1e-13 * scale, k
        assert np.max(np.abs(rep.frame_lower - want.frame_lower)) \
            <= 1e-12 * want.M_N, k
        assert rep.index_order == want.index_order
        assert rep.label == want.label


@pytest.mark.parametrize("name", ["telegraph", "visco", "rectangle"])
def test_first_horizon_and_gram_are_the_direct_product(families, name):
    fam = families[name]
    boundary = (fam.psi * fam.gamma_weights) @ np.conj(fam.psi).T

    def direct(k):
        Z = fam.profiles[:, :k + 1]
        w = trapezoid_weights(fam.grid.restrict(k))
        G = boundary * ((Z * w) @ np.conj(Z).T)
        return 0.5 * (G + np.conj(G).T)
    steps = horizon_steps(fam)[2:]
    first = gram_sweep(fam, steps)[0]
    assert np.array_equal(first.gram, direct(steps[0]))
    short = gram(fam.restrict(steps[0]))
    for field in ("gram", "frame_lower", "frame_upper", "condition"):
        assert np.array_equal(getattr(first, field), getattr(short, field))
    assert np.array_equal(gram(fam).gram, direct(fam.grid.steps))


def test_gram_sweep_rejects_bad_steps(families):
    fam = families["visco"]
    n = fam.grid.steps
    for steps in ([], [5, 5], [10, 5], [1, 5], [0], [5, n + 1]):
        with pytest.raises(ConfigError):
            gram_sweep(fam, steps)


def test_gram_sweep_checks_every_horizon(families):
    fam = families["visco"]
    steps = horizon_steps(fam)
    profiles = fam.profiles.copy()
    profiles[1, steps[2] + 1] = np.nan             # past the third horizon
    bad = SequenceFamily(profiles, fam.index_set, fam.label, fam.grid,
                         fam.gamma_weights, fam.psi)
    assert len(gram_sweep(bad, steps[:3])) == 3
    with pytest.raises(ConvergenceError, match="not finite"):
        gram_sweep(bad, steps)


def test_sweep_eigenvalue_calls_do_not_grow_with_horizons(tmp_path,
                                                         monkeypatch):
    # one batched eigenvalue call per truncation level and family, and no
    # restricted family, however many horizons
    calls = {"eigvalsh": 0, "restrict": 0}
    eigvalsh, restrict = np.linalg.eigvalsh, SequenceFamily.restrict

    def count_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"] += 1
        return eigvalsh(a, *args, **kwargs)

    def count_restrict(self, steps):
        calls["restrict"] += 1
        return restrict(self, steps)
    monkeypatch.setattr(np.linalg, "eigvalsh", count_eigvalsh)
    monkeypatch.setattr(SequenceFamily, "restrict", count_restrict)
    K = 3
    for H in (1, 2, 6):
        calls.update(eigvalsh=0, restrict=0)
        T_min = 1.5 * PI if H > 1 else 2.5 * PI
        data = sweep(tmp_path, {"T_min": T_min, "T_max": 2.5 * PI,
                                "steps": H}, K=K, grid_h=2e-2)
        assert len(data["T"]) == H
        assert calls == {"eigvalsh": 2 * 2 * K, "restrict": 0}, H
