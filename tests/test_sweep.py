"""sweep-t reads every horizon's frame bounds on one grid of horizons
k*h.  For closed-form kernels off the degenerate set it takes the exact
route: modal roots and residues and closed-form time Grams, each horizon
equal to the exact single-horizon Gram; the march route it falls back
to converges to it at order 2.  The march route marches once on a step
that divides the horizon spacing, and gram_sweep must equal gram on the
restricted family."""

import json
import tracemalloc

import numpy as np
import pytest

import memwave.cli
import memwave.exact
import memwave.riesz
from memwave import (ConvergenceError, DomainSpec, InternalConsistencyError,
                     KernelSpec, SequenceFamily, TimeGrid, compute_eigenpairs,
                     compute_responses, gram, gram_reports, gram_sweep,
                     make_grid, normalize, telegraph_family,
                     viscoelastic_family)
from memwave.cli import _alpha_of, _sweep_grid, main
from memwave.config import config_hash, from_dict
from memwave.grid import auto_step, trapezoid_weights
from memwave.exact import exact_sweep
from memwave.kernels import kernel_terms

PI = np.pi
DOM = DomainSpec("interval", (PI,))
KERNEL = {"family": "exponential_sum", "coefficients": [1.0], "rates": [1.0]}
EXP = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))


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


def exact_reports(spec, K, horizons):
    """The telegraph (c = 0) and viscoelastic reports of the exact route
    at every horizon; the kernel's grid only carries its closed form."""
    kernel = normalize(spec, TimeGrid(max(horizons), 8))
    reps = exact_sweep(kernel.terms, kernel.alpha,
                       compute_eigenpairs(DOM, K, 0.0),
                       compute_eigenpairs(DOM, K, kernel.alpha), 0.0,
                       DOM.gamma_weights(), horizons)
    assert reps is not None
    return reps


def test_sweep_matches_fresh_families_per_horizon(tmp_path):
    K = 3
    data = sweep(tmp_path, {"T_min": PI, "T_max": 2 * PI, "steps": 3},
                 K=K, grid_h=1e-2)
    # every horizon equals the exact Gram of families built fresh for it
    assert data["route"] == "exact"
    for i, T in enumerate(data["T"]):
        for key, (rep,) in zip(("telegraph", "visco"),
                               exact_reports(EXP, K, [T])):
            assert abs(data[f"m_N_{key}"][i] - rep.m_N) <= 1e-12 * rep.M_N
            # the nested curve m_1..m_2K of every horizon
            curve = np.array(data[f"frame_lower_{key}"][i])
            assert curve.shape == (2 * K,)
            assert curve[-1] == data[f"m_N_{key}"][i]
            assert np.max(np.abs(curve - rep.frame_lower)) <= 1e-12 * rep.M_N


@pytest.mark.parametrize("spec", [
    KernelSpec("zero"), EXP, KernelSpec("polynomial", coefficients=(0.5, -0.1))],
    ids=["zero", "exp", "poly"])
def test_march_sweep_bounds_converge_to_exact_at_order_two(spec):
    K = 3
    horizons = [1.5 * PI, 2 * PI, 2.5 * PI]
    exact = exact_reports(spec, K, horizons)
    errors = []
    for n in (25, 50, 100):            # h = (pi / 2) / n: every horizon on grid
        grid = TimeGrid(2.5 * PI, 5 * n, 0.5 * PI / n)
        kernel = normalize(spec, grid)
        modes = compute_eigenpairs(DOM, K, kernel.alpha)
        march = (telegraph_family(compute_eigenpairs(DOM, K, 0.0), 0.0,
                                  grid),
                 viscoelastic_family(compute_responses(kernel, modes)))
        errors.append([max(np.max(np.abs(a.frame_lower - b.frame_lower))
                           for a, b in zip(march_reps, reps))
                       for march_reps, reps in zip(
                           gram_sweep(march, [3 * n, 4 * n, 5 * n]), exact)])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(np.abs(ratios - 4.0) < 0.1), ratios


def march_route(doc):
    """sweep.json's numbers as the march route computes them."""
    cfg = from_dict(doc)
    grid, steps = _sweep_grid(cfg)
    c = cfg.domain.c
    gw = cfg.domain.gamma_weights()
    fam_t = telegraph_family(compute_eigenpairs(cfg.domain, cfg.K, c), c,
                             grid, gw)
    kernel = normalize(cfg.kernel, grid)
    modes = compute_eigenpairs(cfg.domain, cfg.K, kernel.alpha)
    fam_v = viscoelastic_family(compute_responses(kernel, modes), gw)
    reps = dict(zip(("telegraph", "visco"),
                    gram_sweep((fam_t, fam_v), steps)))
    return {key: value for name, rs in reps.items() for key, value in (
        (f"m_N_{name}", [r.m_N for r in rs]),
        (f"frame_lower_{name}", [r.frame_lower.tolist() for r in rs]))}


def tabulated_on_sweep_grid(sec, h):
    doc = {"experiment": "sweep-T", "domain": {"geometry": "interval",
                                               "lengths": [PI]},
           "kernel": {"family": "zero"}, "K": 1, "sweep": sec, "h": h}
    m = np.exp(-_sweep_grid(from_dict(doc))[0].t)
    return {"family": "tabulated", "samples": m.tolist()}


SEC = {"T_min": 1.5 * PI, "T_max": 2.5 * PI, "steps": 3}


def count_normalize(monkeypatch):
    """The list of sweep-t's normalize calls, one entry per call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return normalize(*args)
    monkeypatch.setattr(memwave.cli, "normalize", counted)
    return calls


@pytest.mark.parametrize("kernel, c", [
    (tabulated_on_sweep_grid(SEC, 2e-2), 0.0),
    (KERNEL, 1.0),                 # telegraph mode 1 on J: alpha = c = 1
    (KERNEL, 1.5),                 # memory mode 1 on J: alpha = c - 1/2 = 1
    # M = -0.999999999 exp(-t): a root of Den within ROOT_GAP of one of Q
    ({"family": "exponential_sum", "coefficients": [-0.999999999],
      "rates": [1.0]}, 0.0),
    (KERNEL, 1.2018347375208056),  # a double root of mode 1's Den
], ids=["tabulated", "telegraph-J", "memory-J", "Q-root", "double-root"])
def test_fallbacks_take_the_march_route(tmp_path, monkeypatch, kernel, c):
    # the march normalizes the kernel once, on the sweep's grid
    domain = {"geometry": "interval", "lengths": [PI], "c": c}
    doc = {"experiment": "sweep-T", "domain": domain, "kernel": kernel,
           "K": 3, "sweep": SEC, "h": 2e-2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    calls = count_normalize(monkeypatch)
    assert main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path)]) == 0
    assert len(calls) == 1
    data = json.loads((tmp_path / f"sweep-t-{config_hash(doc)}" /
                       "sweep.json").read_text())
    assert data["route"] == "march"
    for key, value in march_route(doc).items():
        assert data[key] == value, key


def test_non_finite_modes_take_the_march_route(tmp_path, capsys):
    # lambda^2 ~ 1e301 times NQ's 1e8 overflows Den, so the sweep marches,
    # and the march's own check ends it
    doc = {"experiment": "sweep-T", "K": 2, "h": 0.05,
           "domain": {"geometry": "interval", "lengths": [1e-150]},
           "kernel": {"family": "polynomial", "coefficients": [1.0, 1e8]},
           "sweep": {"T_min": 1.0, "T_max": 2.0, "steps": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == 3
    assert "modal march left the Gronwall envelope" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.fixture(scope="module")
def families():
    """Telegraph and viscoelastic on the interval, and the viscoelastic
    family of the rectangle's 257-node right edge."""
    grid = make_grid(2.5 * PI, 1e-2)
    kernel = normalize(EXP, grid)
    modes = compute_eigenpairs(DOM, 4, kernel.alpha)
    tel = telegraph_family(compute_eigenpairs(DOM, 4, 0.0), 0.0, grid)
    vis = viscoelastic_family(compute_responses(kernel, modes))
    rgrid = make_grid(2.5 * PI, 2e-2)
    rkernel = normalize(EXP, rgrid)
    rmodes = compute_eigenpairs(RECT, 3, rkernel.alpha)
    rect = viscoelastic_family(compute_responses(rkernel, rmodes),
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
    (reps,) = gram_sweep([fam], steps)
    assert len(reps) == len(steps)
    for k, rep in zip(steps, reps):
        want = gram(fam.restrict(k))
        assert rep.gram.shape == want.gram.shape
        scale = np.max(np.abs(want.gram))
        assert np.max(np.abs(rep.gram - want.gram)) <= 1e-13 * scale, k
        assert np.max(np.abs(rep.frame_lower - want.frame_lower)) \
            <= 1e-12 * want.M_N, k


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
    first = gram_sweep([fam], steps)[0][0]
    assert np.array_equal(first.gram, direct(steps[0]))
    short = gram(fam.restrict(steps[0]))
    for field in ("gram", "frame_lower", "frame_upper", "condition"):
        assert np.array_equal(getattr(first, field), getattr(short, field))
    assert np.array_equal(gram(fam).gram, direct(fam.grid.steps))


@pytest.mark.parametrize("kernel", [
    # exp(-t) tabulated on the 51 samples of the sweep's grid, h = 0.00998
    KERNEL, {"family": "tabulated",
             "samples": np.exp(-0.00998 * np.arange(51)).tolist()}],
    ids=["exact", "march"])
def test_sweep_rejects_a_first_horizon_under_two_steps(tmp_path, capsys,
                                                      kernel):
    # 0.001 rounds to 0 steps of 0.01: both routes refuse it before they
    # run, and nothing is written
    doc = {"experiment": "sweep-T", "K": 3, "h": 0.01, "kernel": kernel,
           "domain": {"geometry": "interval", "lengths": [PI]},
           "sweep": {"T_min": 0.001, "T_max": 0.5, "steps": 3}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert ("horizon step counts [0, 25, 50] do not ascend strictly "
            "within [2, 50]") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    doc["sweep"]["T_min"] = 0.02                  # two steps: accepted
    doc["kernel"] = KERNEL
    path.write_text(json.dumps(doc))
    assert main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0


def test_gram_sweep_checks_every_horizon(families):
    fam = families["visco"]
    steps = horizon_steps(fam)
    profiles = fam.profiles.copy()
    profiles[1, steps[2] + 1] = np.nan             # past the third horizon
    bad = SequenceFamily(profiles, fam.index_set, fam.label, fam.grid,
                         fam.gamma_weights, fam.psi)
    assert len(gram_sweep([bad], steps[:3])[0]) == 3
    with pytest.raises(ConvergenceError, match="not finite"):
        gram_sweep([bad], steps)


def test_sweep_eigenvalue_calls_do_not_grow_with_horizons(tmp_path,
                                                         monkeypatch):
    # one batched eigenvalue call per truncation level over both
    # families, and no restricted family, however many horizons
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
        assert calls == {"eigvalsh": 2 * K, "restrict": 0}, H


# ------------------------------------------------------------ report checks
# Both routes hand their time Grams to riesz.gram_reports; each of its
# checks fires on either route.

TIME_GRAMS = {"grid": (memwave.riesz, "_trapezoid_time_grams"),
              "exact": (memwave.exact, "_exponential_time_grams")}


def route_reports(route):
    """The memory family's reports at 1.5, 2 and 2.5 pi on one route."""
    grid = TimeGrid(2.5 * PI, 250)
    kernel = normalize(EXP, grid)
    modes = compute_eigenpairs(DOM, 3, kernel.alpha)
    if route == "grid":
        fam = viscoelastic_family(compute_responses(kernel, modes))
        return gram_sweep([fam], [150, 200, 250])[0]
    return exact_sweep(kernel.terms, kernel.alpha,
                       compute_eigenpairs(DOM, 3, 0.0), modes, 0.0,
                       DOM.gamma_weights(), [1.5 * PI, 2 * PI, 2.5 * PI])[1]


def corrupt_time_grams(monkeypatch, route, *edits):
    """Patch the route's time Grams: for each (i, corrupt) of edits,
    corrupt(G) edits horizon i's in place."""
    module, name = TIME_GRAMS[route]
    original = getattr(module, name)

    def patched(*args):
        temporal = [np.array(t) for t in original(*args)]
        for i, corrupt in edits:
            corrupt(temporal[i])
        return np.array(temporal)
    monkeypatch.setattr(module, name, patched)


def nan(G):
    G[0, 1] = np.nan


def skew(G, rel=1e-6):
    G[0, 1] += rel * np.max(np.abs(G))


@pytest.mark.parametrize("route", ["grid", "exact"])
def test_report_path_refuses_a_non_finite_gram(monkeypatch, route):
    assert len(route_reports(route)) == 3
    corrupt_time_grams(monkeypatch, route, (1, nan))
    with pytest.raises(ConvergenceError, match="not finite"):
        route_reports(route)


@pytest.mark.parametrize("route", ["grid", "exact"])
def test_report_path_refuses_a_non_hermitian_gram(monkeypatch, route):
    # the real Grams' symmetry check
    # the allowance is 1e-12 of the Gram's scale: a gap at rounding level
    # passes, one of 1e-7 of the scale does not
    for rel, fires in ((1e-15, False), (1e-6, True)):
        monkeypatch.undo()
        corrupt_time_grams(monkeypatch, route,
                           (1, lambda G: skew(G, rel)))
        if fires:
            with pytest.raises(InternalConsistencyError,
                               match="not symmetric"):
                route_reports(route)
        else:
            assert len(route_reports(route)) == 3


@pytest.mark.parametrize("route", ["grid", "exact"])
@pytest.mark.parametrize("first, later, error, match", [
    (skew, nan, InternalConsistencyError, "not symmetric"),
    (nan, skew, ConvergenceError, "not finite")], ids=["skew-nan", "nan-skew"])
def test_report_path_raises_the_earliest_horizons_error(monkeypatch, route,
                                                        first, later, error,
                                                        match):
    # the whole stack is checked at once; the earlier horizon still wins
    corrupt_time_grams(monkeypatch, route, (0, first), (2, later))
    with pytest.raises(error, match=match):
        route_reports(route)


@pytest.mark.parametrize("kinds", [(nan, skew), (skew, nan)],
                         ids=["nan-skew", "skew-nan"])
def test_report_pass_raises_in_family_then_horizon_order(kinds):
    # family "a" fails at its last horizon, family "b" at its first: the
    # error is a's, of a's kind
    rng = np.random.default_rng(2)
    n, H = 4, 3
    A = rng.standard_normal((2, H, n, n))
    temporal = A @ A.transpose(0, 1, 3, 2)
    kinds[0](temporal[0, H - 1])
    kinds[1](temporal[1, 0])
    error, match = ((ConvergenceError, "Gram of 'a' is not finite")
                    if kinds[0] is nan else
                    (InternalConsistencyError, "Gram of 'a' is not symmetric"))
    psi = np.ones((n, 1))
    with pytest.raises(error, match=match):
        gram_reports([(psi, temporal[0], "a"), (psi, temporal[1], "b")],
                     np.ones(1))


@pytest.mark.parametrize("route", ["grid", "exact"])
def test_stacked_reports_equal_single_family_reports(monkeypatch, route):
    # one pass over both families gives each Gram the bits of a pass
    # over its family alone
    if route == "exact":
        passes = []

        def recorded(families, gamma_weights):
            passes.append((families, gamma_weights))
            return gram_reports(families, gamma_weights)
        monkeypatch.setattr(memwave.exact, "gram_reports", recorded)
        stacked = exact_reports(EXP, 4, [1.5 * PI, 2 * PI, 2.5 * PI])
        (families, gw), = passes
        singles = [gram_reports([f], gw)[0] for f in families]
    else:
        grid = TimeGrid(2.5 * PI, 250)
        kernel = normalize(EXP, grid)
        fams = (telegraph_family(compute_eigenpairs(DOM, 4, 0.0), 0.0,
                                 grid),
                viscoelastic_family(compute_responses(
                    kernel, compute_eigenpairs(DOM, 4, kernel.alpha))))
        stacked = gram_sweep(fams, [150, 200, 250])
        singles = [gram_sweep([f], [150, 200, 250])[0] for f in fams]
    assert len(stacked) == len(singles) == 2
    for reps, alone in zip(stacked, singles):
        assert len(reps) == len(alone) == 3
        for rep, want in zip(reps, alone):
            assert rep.levels == want.levels == tuple(range(1, 9))
            for field in ("gram", "frame_lower", "frame_upper", "condition"):
                assert np.array_equal(getattr(rep, field),
                                      getattr(want, field)), field


@pytest.mark.parametrize("route", ["grid", "exact"])
def test_report_path_refuses_bounds_that_break_interlacing(monkeypatch,
                                                           route):
    # a manufactured violation: every eigenvalue of the 3 x 3 leading
    # blocks raised by 1, so m_3 > m_2
    eigvalsh = np.linalg.eigvalsh

    def bent(a, *args, **kwargs):
        vals = eigvalsh(a, *args, **kwargs)
        return vals + 1.0 if a.shape[-1] == 3 else vals
    monkeypatch.setattr(np.linalg, "eigvalsh", bent)
    with pytest.raises(InternalConsistencyError, match="interlacing"):
        route_reports(route)


def _reference_time_grams(rates, weights, horizons):
    """The closed-form time Grams as one formula per horizon, every
    temporary kept: the pair integrals of the distinct exponents, rows
    (i, j) and columns (m, l), contracted over j and then over m, each
    sum left to right.  _exponential_time_grams must equal it bit for
    bit."""
    R, d = rates.shape
    r = len(weights) // R
    s, s_col = rates.reshape(-1), rates.T.reshape(-1)
    x = s[:, None] + np.conj(s_col)[None, :]
    w = weights.reshape(R, r, d)
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / x
        for T in horizons:
            e = np.exp(s * T)
            e_col = np.exp(s_col * T)
            pair = (e[:, None] * np.conj(e_col)[None, :] - 1.0) * inv
            small = np.abs(x) * T < 1.0
            y = x[small] * T
            pair[small] = T * np.where(y == 0.0, 1.0, np.expm1(y) / y)
            pair = pair.reshape(R, d, 1, d * R)     # [i, j, -, (m, l)]
            half = w[:, :, 0, None] * pair[:, 0]
            for j in range(1, d):
                half = half + w[:, :, j, None] * pair[:, j]
            half = half.reshape(R, r, 1, d, R)      # [i, a, -, m, l]
            wc = np.conj(w).transpose(2, 1, 0)      # [m, b, l]
            G = half[:, :, :, 0] * wc[0]
            for m in range(1, d):
                G = G + half[:, :, :, m] * wc[m]
            out.append(G.transpose(0, 1, 3, 2).reshape(R * r, R * r))
    return np.array(out)


def _all_pairs_time_grams(rates, weights, horizons):
    """The closed-form time Grams summed over every pair of the members'
    exponents, rates (count, d) repeated for each member: the oracle the
    distinct-exponent Grams agree with to rounding."""
    count, d = rates.shape
    s, w = rates.reshape(-1), weights.reshape(-1)
    x = s[:, None] + np.conj(s)[None, :]
    ww = w[:, None] * np.conj(w)[None, :]
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / x
        for T in horizons:
            u = w * np.exp(s * T)
            terms = (u[:, None] * np.conj(u)[None, :] - ww) * inv
            small = np.abs(x) * T < 1.0
            y = x[small] * T
            terms[small] = ww[small] * T * np.where(y == 0.0, 1.0,
                                                    np.expm1(y) / y)
            out.append(terms.reshape(count, d, count, d).sum(axis=(1, 3)))
    return np.array(out)


def _exact_profiles(K, c=0.0, spec=EXP):
    """Signed (rates, weights) of the memory family of the kernel spec
    and of the telegraph family with parameter c, K modes each, on the
    interval of length pi: rates (K, d), weights (2K, d)."""
    kernel = normalize(spec, TimeGrid(2.5 * PI, 8))
    modes = compute_eigenpairs(DOM, K, kernel.alpha)
    exact = memwave.exact.exact_modes(kernel.terms, kernel.alpha, modes)
    modes_tel = compute_eigenpairs(DOM, K, c)
    members = memwave.exact._exponential_members
    return [members(modes, *exact)[:2],
            members(modes_tel, *memwave.exact.transformed_exponential_terms(
                modes_tel, c))[:2]]


def _gram_cases(K):
    """Profiles of 2, 3 and 4 exponentials (telegraph, exp(-t), a
    two-term kernel), two rows on each mode's exponents, and the exp(-t)
    rows with the exponents repeated per row, one row on each."""
    two = KernelSpec("exponential_sum", coefficients=(1.0, 0.5),
                     rates=(1.0, 3.0))
    cases = _exact_profiles(K, c=0.5) + _exact_profiles(K, spec=two)[:1]
    rates, weights = cases[0]
    return cases + [(np.repeat(rates, 2, axis=0), weights)]


GRAM_HORIZONS = (list(np.linspace(1.2 * PI, 2.5 * PI, 14)), [0.0, 0.3])


@pytest.mark.parametrize("K", [8, 60])
def test_exponential_time_grams_match_the_reference_bit_for_bit(K):
    # 14 sweep horizons at K = 8 and 60 (three full passes and one of
    # two horizons), and a zero horizon, which takes the expm1 branch at
    # every pair
    cases = _gram_cases(K)
    assert [(len(w) // len(r), r.shape[1]) for r, w in cases] == \
        [(2, 3), (2, 2), (2, 4), (1, 3)]
    for rates, weights in cases:
        for Ts in GRAM_HORIZONS:
            got = memwave.exact._exponential_time_grams(rates, weights, Ts)
            want = _reference_time_grams(rates, weights, Ts)
            assert got.shape == want.shape == (len(Ts), 2 * K, 2 * K)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("blocks", ["horizons", "modes", "one-mode"])
def test_exponential_time_grams_blocks_match_the_reference_bit_for_bit(
        monkeypatch, blocks):
    # budgets at K = 8 that cut the pair integrals into blocks of 4
    # horizons (the last block takes 2 of the 14), of 3 modes at one
    # horizon (the last block takes 2 of the 8, or 1 of the 16 rows of the
    # repeated exponents), and of one mode, the budget below one mode's
    for rates, weights in _gram_cases(8):
        R, d = rates.shape
        mode = d * R * d * 16               # one mode's pair integrals
        budget = {"horizons": 4 * R * mode, "modes": 3 * mode,
                  "one-mode": mode - 1}[blocks]
        monkeypatch.setattr(memwave.exact, "PAIR_BLOCK_BYTES", budget)
        for Ts in GRAM_HORIZONS:
            got = memwave.exact._exponential_time_grams(rates, weights, Ts)
            want = _reference_time_grams(rates, weights, Ts)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("K", [8, 60])
def test_exponential_time_grams_match_the_all_pairs_sums(K):
    # the distinct exponents' pair integrals, contracted, against the sum
    # over every pair of the members' exponents: rounding apart
    for rates, weights in _gram_cases(K)[:3]:
        for Ts in GRAM_HORIZONS:
            got = memwave.exact._exponential_time_grams(rates, weights, Ts)
            want = _all_pairs_time_grams(np.repeat(rates, 2, axis=0),
                                         weights, Ts)
            scale = np.max(np.abs(want), axis=(1, 2))
            gap = np.max(np.abs(got - want), axis=(1, 2))
            assert np.all(gap <= 1e-14 * scale), gap / scale


def test_exponential_time_grams_memory_is_three_work_arrays():
    # the memory family at K = 80 (160 members on 240 exponents) over 14
    # horizons, within the three (2 K d)^2 arrays of the all-pairs sum
    # beside the result: 1 / x (K d)^2, a pass's 4 horizons of pair
    # integrals 4 (K d)^2, and its half contraction and product, 4 (2K)
    # (K d) each, 2.6 such arrays.  On top, whatever the size: vectors of
    # count d entries and the near pairs' indices, allowed 0.5 MB
    (rates, weights), _ = _exact_profiles(80)
    horizons = list(np.linspace(1.2 * PI, 2.5 * PI, 14))
    tracemalloc.start()
    try:
        grams = memwave.exact._exponential_time_grams(rates, weights,
                                                      horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = weights.size ** 2 * 16
    assert rates.shape == (80, 3) and grams.shape == (14, 160, 160)
    assert peak <= 3 * work + grams.nbytes + 2**19


def test_exponential_time_grams_memory_is_one_block():
    # the memory family at K = 80 (160 members on 240 exponents) over 14
    # horizons: one horizon's pair integrals, (K d)^2 entries, exceed
    # PAIR_BLOCK_BYTES, so a block is a run of modes.  Beside the result
    # and 1 / x, (K d)^2 entries, the work is the block's pair integrals,
    # within PAIR_BLOCK_BYTES, its half contraction and product, r / d of
    # that each, and exp(s T) and its conjugate, 14 K d entries each.  On
    # top: vectors of count d entries and the near pairs' indices,
    # allowed 0.5 MB
    (rates, weights), _ = _exact_profiles(80)
    horizons = list(np.linspace(1.2 * PI, 2.5 * PI, 14))
    tracemalloc.start()
    try:
        grams = memwave.exact._exponential_time_grams(rates, weights,
                                                      horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (R, d), r = rates.shape, len(weights) // len(rates)
    pairs = (R * d) ** 2 * 16
    block = memwave.exact.PAIR_BLOCK_BYTES
    assert (R, d, r) == (80, 3, 2) and pairs > block
    assert peak <= grams.nbytes + pairs + block * (1 + 2 * r / d) \
        + 2 * len(horizons) * R * d * 16 + 2**19


def exact_route(doc):
    """exact_sweep's two lists of reports for the sweep-t config doc,
    from the kernel's closed form, as sweep-t calls it."""
    cfg = from_dict(doc)
    grid, steps = _sweep_grid(cfg)
    alpha, gamma = _alpha_of(cfg)
    return exact_sweep(kernel_terms(cfg.kernel, gamma), alpha,
                       compute_eigenpairs(cfg.domain, cfg.K, cfg.domain.c),
                       compute_eigenpairs(cfg.domain, cfg.K, alpha),
                       cfg.domain.c, cfg.domain.gamma_weights(),
                       [k * grid.h for k in steps])


SWEEP_DOC = {"experiment": "sweep-T", "h": 2e-3, "K": 8,
             "domain": {"geometry": "interval", "lengths": [PI]},
             "kernel": KERNEL, "sweep": {"T_min": 1.2 * PI,
                                         "T_max": 2.5 * PI, "steps": 14}}


EXACT_CHANGES = [
    {},                                             # the benchmark sweep
    {"K": 6, "kernel": {"family": "exponential_sum", "coefficients": [3.0],
                        "rates": [1.0]},
     "sweep": {"T_min": 1.5 * PI, "T_max": 3 * PI, "steps": 7}},
    {"kernel": {"family": "exponential_sum", "coefficients": [1.0, 0.5],
                "rates": [1.0, 3.0]}}]


@pytest.mark.parametrize("change", EXACT_CHANGES)
def test_exact_sweep_bounds_match_the_all_pairs_grams(monkeypatch, change):
    # every frame bound m_k and M_k within 32 k eps M_k of the bounds of
    # the all-pairs Grams, and the same rounding-floor flags
    doc = {**SWEEP_DOC, **change}
    new = exact_route(doc)
    monkeypatch.setattr(
        memwave.exact, "_exponential_time_grams",
        lambda rates, weights, horizons: _all_pairs_time_grams(
            np.repeat(rates, len(weights) // len(rates), axis=0), weights,
            horizons))
    old = exact_route(doc)
    for a, b in zip(sum(new, []), sum(old, [])):
        assert a.levels == b.levels
        allowed = 32 * np.array(a.levels) * np.finfo(float).eps \
            * b.frame_upper
        assert np.all(np.abs(a.frame_lower - b.frame_lower) <= allowed)
        assert np.all(np.abs(a.frame_upper - b.frame_upper) <= allowed)
        assert np.array_equal(a.at_floor, b.at_floor)


@pytest.mark.parametrize("change", EXACT_CHANGES)
def test_exact_route_samples_no_kernel(tmp_path, monkeypatch, change):
    # the exact route reads the kernel's closed form alone: sweep-t
    # normalizes nothing, and writes exact_route's bounds
    doc = {**SWEEP_DOC, **change}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    calls = count_normalize(monkeypatch)
    assert main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path)]) == 0
    assert calls == []
    data = json.loads((tmp_path / f"sweep-t-{config_hash(doc)}" /
                       "sweep.json").read_text())
    assert data["route"] == "exact"
    for name, reps in zip(("telegraph", "visco"), exact_route(doc)):
        assert data[f"m_N_{name}"] == [r.m_N for r in reps], name


def test_exact_route_refuses_an_overflowing_kernel(tmp_path, capsys):
    # -100 exp(-t) gives gamma = 50: the memory rows grow like exp(100 t)
    # and overflow before 2.5 pi.  The Gram's finite check stops the run
    # with exit 3, as normalize's stops the march, and nothing is written
    kernel = {"family": "exponential_sum", "coefficients": [-100.0],
              "rates": [1.0]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SWEEP_DOC, "kernel": kernel}))
    assert main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 3
    assert "Gram of 'viscoelastic' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_writes_no_bound_below_the_rounding_floor(tmp_path):
    # the zero kernel with c = 5.5 overdamps modes 1..5 (alpha^2 = 30.25):
    # mode 1's rows U_1 and V_1 are multiples of exp(kappa t),
    # kappa = 5.41, to working precision (their other exponential is
    # exp(-2 kappa T) < 1e-22 of it from 1.5 pi on), so both families are
    # singular from level 2 at every horizon, and their computed lower
    # bounds are rounding noise.  They are written as 0, flagged
    data = sweep(tmp_path, {"T_min": 1.5 * PI, "T_max": 3 * PI, "steps": 7},
                 K=6, grid_h=2e-3, kernel={"family": "zero"},
                 domain={"geometry": "interval", "lengths": [PI], "c": 5.5})
    assert data["route"] == "exact"
    for name in ("telegraph", "visco"):
        bounds = np.array(data[f"frame_lower_{name}"])
        assert bounds.shape == (7, 12)
        flags = np.zeros(bounds.shape, dtype=bool)
        for i, j in data[f"at_floor_{name}"]:       # [horizon, level]
            flags[i, j] = True
        assert np.all(bounds >= 0.0) and np.all(bounds[flags] == 0.0)
        assert np.all(flags[:, 1:]) and data[f"m_N_{name}"] == [0.0] * 7
    rows = np.loadtxt(next(tmp_path.glob("sweep-t-*")) / "sweep.csv",
                      delimiter=",")
    assert np.all(rows[:, 1:] == 0.0)


def test_sweep_overdamped_memory_family_keeps_its_bound(tmp_path):
    # 3 exp(-t) makes mode 1 overdamped (alpha = -1.5, beta_1 = 1.118 i):
    # its rows U_1 and V_1 stay independent, so the memory family's bound
    # is positive at every horizon and, from 2 pi on, never at the
    # rounding floor at the full level
    data = sweep(tmp_path, {"T_min": 1.5 * PI, "T_max": 3 * PI, "steps": 7},
                 K=6, grid_h=2e-3,
                 kernel={"family": "exponential_sum", "coefficients": [3.0],
                         "rates": [1.0]})
    assert data["route"] == "exact"
    T, m_N = np.array(data["T"]), np.array(data["m_N_visco"])
    assert np.all(m_N > 0)
    full = len(data["levels"]) - 1
    assert not [i for i, j in data["at_floor_visco"]
                if j == full and T[i] >= 2 * PI * (1 - 1e-12)]
    assert m_N[-1] == pytest.approx(6.03e-8, rel=0.01)
