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

import memwave.exact
import memwave.riesz
from memwave import (ConvergenceError, DomainSpec, InternalConsistencyError,
                     KernelSpec, SequenceFamily, TimeGrid, compute_eigenpairs,
                     compute_responses, gram, gram_reports, gram_sweep,
                     make_grid, normalize, telegraph_family,
                     viscoelastic_family)
from memwave.cli import _sweep_grid, main
from memwave.config import config_hash, from_dict
from memwave.grid import auto_step, trapezoid_weights
from memwave.exact import exact_sweep

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
    reps = exact_sweep(kernel, compute_eigenpairs(DOM, K, 0.0),
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
        pairs = compute_eigenpairs(DOM, K, kernel.alpha)
        march = (telegraph_family(compute_eigenpairs(DOM, K, 0.0), 0.0,
                                  grid),
                 viscoelastic_family(compute_responses(kernel, pairs)))
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
    pairs = compute_eigenpairs(cfg.domain, cfg.K, kernel.alpha)
    fam_v = viscoelastic_family(compute_responses(kernel, pairs), gw)
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
    return {"family": "tabulated", "samples": m.tolist(),
            "samples_d1": (-m).tolist(), "samples_d2": m.tolist()}


SEC = {"T_min": 1.5 * PI, "T_max": 2.5 * PI, "steps": 3}


@pytest.mark.parametrize("kernel, c", [
    (tabulated_on_sweep_grid(SEC, 2e-2), 0.0),
    (KERNEL, 1.0),                 # telegraph mode 1 on J: alpha = c = 1
    (KERNEL, 1.5),                 # memory mode 1 on J: alpha = c - 1/2 = 1
    # M = -exp(-t) normalises to N = 1: a root of Den meets one of Q
    ({"family": "exponential_sum", "coefficients": [-1.0], "rates": [1.0]},
     0.0),
    (KERNEL, 1.2018347375208056),  # a double root of mode 1's Den
], ids=["tabulated", "telegraph-J", "memory-J", "Q-root", "double-root"])
def test_fallbacks_take_the_march_route(tmp_path, kernel, c):
    domain = {"geometry": "interval", "lengths": [PI], "c": c}
    doc = {"experiment": "sweep-T", "domain": domain, "kernel": kernel,
           "K": 3, "sweep": SEC, "h": 2e-2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep-t", "--config", str(path), "--out",
                 str(tmp_path)]) == 0
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
    pairs = compute_eigenpairs(DOM, 4, kernel.alpha)
    tel = telegraph_family(compute_eigenpairs(DOM, 4, 0.0), 0.0, grid)
    vis = viscoelastic_family(compute_responses(kernel, pairs))
    rgrid = make_grid(2.5 * PI, 2e-2)
    rkernel = normalize(EXP, rgrid)
    rpairs = compute_eigenpairs(RECT, 3, rkernel.alpha)
    rect = viscoelastic_family(compute_responses(rkernel, rpairs),
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
    pairs = compute_eigenpairs(DOM, 3, kernel.alpha)
    if route == "grid":
        fam = viscoelastic_family(compute_responses(kernel, pairs))
        return gram_sweep([fam], [150, 200, 250])[0]
    return exact_sweep(kernel, compute_eigenpairs(DOM, 3, 0.0), pairs, 0.0,
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
        return temporal
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
    # the allowance is 1e-12 of the Gram's scale: a gap at rounding level
    # passes, one of 1e-7 of the scale does not
    for rel, fires in ((1e-15, False), (1e-6, True)):
        monkeypatch.undo()
        corrupt_time_grams(monkeypatch, route,
                           (1, lambda G: skew(G, rel)))
        if fires:
            with pytest.raises(InternalConsistencyError,
                               match="non-Hermitian"):
                route_reports(route)
        else:
            assert len(route_reports(route)) == 3


@pytest.mark.parametrize("route", ["grid", "exact"])
@pytest.mark.parametrize("first, later, error, match", [
    (skew, nan, InternalConsistencyError, "non-Hermitian"),
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
    A = rng.standard_normal((2, H, n, n)) + 1j * rng.standard_normal(
        (2, H, n, n))
    temporal = A @ np.conj(A).transpose(0, 1, 3, 2)
    kinds[0](temporal[0, H - 1])
    kinds[1](temporal[1, 0])
    error, match = ((ConvergenceError, "Gram of 'a' is not finite")
                    if kinds[0] is nan else
                    (InternalConsistencyError, "Gram of 'a' is non-Hermitian"))
    psi = np.ones((n, 1), dtype=complex)
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
    temporary kept: the reference _exponential_time_grams must equal bit
    for bit."""
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
    interval of length pi."""
    kernel = normalize(spec, TimeGrid(2.5 * PI, 8))
    pairs = compute_eigenpairs(DOM, K, kernel.alpha)
    modes = memwave.exact.exact_modes(kernel.terms, kernel.alpha, pairs)
    pairs_tel = compute_eigenpairs(DOM, K, c)
    members = memwave.exact._exponential_members
    return [members(pairs, modes.roots, modes.Z)[:2],
            members(pairs_tel, *memwave.exact.transformed_exponential_terms(
                pairs_tel, c))[:2]]


@pytest.mark.parametrize("K", [8, 60])
def test_exponential_time_grams_match_the_reference_bit_for_bit(K):
    # 14 sweep horizons at K = 8 and 60, a zero horizon takes the expm1
    # branch at every pair, and profiles of 2, 3 and 4 exponentials
    # (telegraph, exp(-t), a two-term kernel) sum 4, 9 and 16 terms per
    # member pair
    horizons = list(np.linspace(1.2 * PI, 2.5 * PI, 14))
    two = KernelSpec("exponential_sum", coefficients=(1.0, 0.5),
                     rates=(1.0, 3.0))
    cases = _exact_profiles(K, c=0.5) + _exact_profiles(K, spec=two)[:1]
    assert [r.shape[1] for r, _ in cases] == [3, 2, 4]
    for rates, weights in cases:
        for Ts in (horizons, [0.0, 0.3]):
            got = memwave.exact._exponential_time_grams(rates, weights, Ts)
            want = _reference_time_grams(rates, weights, Ts)
            assert got.shape == want.shape == (len(Ts), 2 * K, 2 * K)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_exponential_time_grams_memory_is_three_work_arrays():
    # the memory family at K = 80 (160 members of 3 exponents each) over
    # 14 horizons: 1 / x, u(0) conj(u'(0)) and one work array beside the
    # result, where five to six such arrays, a per-horizon list and its
    # copy were live.  On top, whatever the size: np.sum's buffered
    # reduction over two axes (two buffers of numpy's 8192 elements) and
    # vectors of count d entries, 0.28 MB here, allowed 0.5 MB
    (rates, weights), _ = _exact_profiles(80)
    horizons = list(np.linspace(1.2 * PI, 2.5 * PI, 14))
    tracemalloc.start()
    try:
        grams = memwave.exact._exponential_time_grams(rates, weights,
                                                      horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    work = rates.size ** 2 * 16
    assert rates.size == 480 and grams.shape == (14, 160, 160)
    assert peak <= 3 * work + grams.nbytes + 2**19


def test_sweep_writes_no_bound_below_the_rounding_floor(tmp_path):
    # the zero kernel with c = 1.5 puts mode 1 past alpha^2 = 2.25 > 1:
    # both families are singular from level 2 at every horizon, and their
    # computed lower bounds come out at -1e-16 M_N (-3.4e4 for the memory
    # family at 3 pi).  They are written as 0, flagged
    data = sweep(tmp_path, {"T_min": 1.5 * PI, "T_max": 3 * PI, "steps": 7},
                 K=6, grid_h=2e-3, kernel={"family": "zero"},
                 domain={"geometry": "interval", "lengths": [PI], "c": 1.5})
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
