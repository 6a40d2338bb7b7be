import dataclasses
import json

import numpy as np
import pytest
from scipy.integrate import quad

import memwave.kernels
import memwave.simulate
import memwave.volterra
from memwave import (ConfigError, ControlSignal, DomainSpec,
                     InternalConsistencyError, KernelSpec, SimResult,
                     TargetState,
                     achieved_coefficients,
                     build_moment_problem, compute_eigenpairs,
                     compute_responses, make_grid, mode_energies, mode_gaps,
                     normalize, route_gap, simulate_convolution,
                     simulate_march, synthesize, viscoelastic_family)
from memwave.cli import main

PI = np.pi
DOM = DomainSpec("interval", (PI,))
EXP_KERNEL = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))


def factor_control(grid, modes, profiles, gamma_weights=None):
    """Wrap raw time profiles as the control f = traces.T @ profiles
    over the modes 1..K, K = len(profiles), with their traces and the
    boundary weights (ones by default), without going through
    synthesis."""
    profiles = np.asarray(profiles, float)
    K = len(profiles)
    traces = modes.trace[:K]
    gw = np.ones(traces.shape[1]) if gamma_weights is None else gamma_weights
    return ControlSignal(traces, profiles, gw, np.zeros(2 * K),
                         np.zeros(2 * K), 0.0, 0.0, 1.0, 1.0, 0.0, grid,
                         tuple(x for n in range(1, K + 1) for x in (n, -n)))


def manual_control(grid, profile, modes):
    """Wrap a raw signal at a one-node boundary as the control of mode
    1, f = profile (to rounding)."""
    return factor_control(grid, modes, np.asarray(profile, float)[None, :]
                          / modes.trace[0, 0])


def zero_setup(T, h, count, c=0.0):
    grid = make_grid(T, h)
    kz = normalize(KernelSpec("zero", c=c), grid)
    return grid, kz, compute_eigenpairs(DOM, count, alpha=c)


# ------------------------------------------------------------ trivial oracles


def test_zero_control_gives_zero_state():
    grid, kz, modes = zero_setup(2.0, 2e-3, 4)
    ctrl = manual_control(grid, np.zeros(len(grid)), modes)
    resp = compute_responses(kz, modes)
    for res in (simulate_convolution(resp, kz, ctrl),
                simulate_march(kz, modes, ctrl)):
        assert np.all(res.theta_T == 0.0)
        assert np.all(res.theta_t_T == 0.0)
        assert res.tail_energy == 0.0


def test_sine_formula_oracle():
    # memoryless undamped: position coefficient reduces to the windowed
    # sine transform of the control against the scaled boundary trace
    T = 2.0
    grid, kz, modes = zero_setup(T, 1e-3, 3)
    poly = grid.t ** 2 * (T - grid.t)
    ctrl = manual_control(grid, poly, modes)
    resp = compute_responses(kz, modes)
    res = simulate_convolution(resp, kz, ctrl)
    for b, trace, theta in zip(modes.beta.real, modes.trace[:, 0],
                               res.theta_T):
        ref = -trace / b * quad(
            lambda s: np.sin(b * s) * (T - s) ** 2 * (T - (T - s)),
            0.0, T, limit=200)[0]
        assert abs(theta - ref) < 1e-5


def test_superposition():
    grid = make_grid(2.0, 2e-3)
    ke = normalize(EXP_KERNEL, grid)
    resp = compute_responses(ke, compute_eigenpairs(DOM, 5, alpha=ke.alpha))
    f1 = np.sin(grid.t)
    f2 = np.cos(3 * grid.t) * grid.t
    r1, r2, r12 = (simulate_convolution(resp, ke,
                                        manual_control(grid, f, resp.modes))
                   for f in (f1, f2, f1 + f2))
    assert np.max(np.abs(r12.theta_T - (r1.theta_T + r2.theta_T))) < 1e-10
    assert np.max(np.abs(r12.theta_t_T - (r1.theta_t_T + r2.theta_t_T))) < 1e-10


# -------------------------------------------------------------- route checks


def two_route_gap(h):
    grid = make_grid(2.0, h)
    ke = normalize(EXP_KERNEL, grid)
    modes = compute_eigenpairs(DOM, 3, alpha=ke.alpha)
    ctrl = manual_control(grid, np.sin(grid.t) * (2.0 - grid.t), modes)
    resp = compute_responses(ke, modes)
    a = simulate_convolution(resp, ke, ctrl)
    b = simulate_march(ke, modes, ctrl)
    return route_gap(a, b, ke), a, b, ke


def test_two_routes_converge_at_order_two():
    g_coarse = two_route_gap(2e-3)[0]
    g_fine = two_route_gap(1e-3)[0]
    assert g_coarse / g_fine >= 2.0 ** 1.9


def test_route_gap_check_trips_on_corruption():
    _, a, b, ke = two_route_gap(2e-3)
    bad = dataclasses.replace(a, theta_T=a.theta_T + 1.0)
    with pytest.raises(InternalConsistencyError):
        route_gap(bad, b, ke)
    # a NaN end state fails closed: the gap is NaN, not below the allowance
    theta_T = a.theta_T.copy()
    theta_T[1] = np.nan
    with pytest.raises(InternalConsistencyError):
        route_gap(dataclasses.replace(a, theta_T=theta_T), b, ke)


def test_planted_forcing_defect_trips_the_route_gap(monkeypatch):
    # the route check is not vacuous: an O(h) trapezoid-weight defect in
    # the march route's forcing trips route_gap.  N * f vanishes at
    # t = 0, so the planted defect drops the 1/2 end weight of the last
    # sample, G_{m-1} = h (f_{m-1} / 2 + f_m); c = 0.5 makes alpha = 0,
    # where the allowance carries no growth factor
    grid = make_grid(2.5 * PI, 2e-3)
    ke = normalize(dataclasses.replace(EXP_KERNEL, c=0.5), grid)
    resp = compute_responses(ke, compute_eigenpairs(
        DomainSpec("interval", (PI,), c=0.5), 8, alpha=ke.alpha))
    rng = np.random.default_rng(1)
    target = TargetState(rng.standard_normal(4) / np.arange(1, 5),
                         rng.standard_normal(4) / np.arange(1, 5), 4)
    sig = synthesize(build_moment_problem(viscoelastic_family(resp.head(4)),
                                          target))
    conv = simulate_convolution(resp, ke, sig)
    route_gap(conv, simulate_march(ke, resp.modes, sig), ke)
    trapezoid = memwave.volterra._trapezoid_forcing

    def planted(forcing, h, label):
        G = trapezoid(forcing, h, label)
        G[..., -1] += 0.5 * h * forcing[..., -1]
        return G
    monkeypatch.setattr(memwave.volterra, "_trapezoid_forcing", planted)
    with pytest.raises(InternalConsistencyError, match="routes disagree"):
        route_gap(conv, simulate_march(ke, resp.modes, sig), ke)


def test_energy_constant_after_control_release():
    # wave limit: once the boundary input stops, the modal energy
    # sum theta'^2 + lambda^2 theta^2 is a conserved quantity; the end
    # states of the simulation on grids restricted to several horizons
    # past the release (the control zero-padded) carry the same energy
    h, T_ctrl = 2e-3, 2.5
    grid_ext = make_grid(T_ctrl + 2 * PI, h)
    kz = normalize(KernelSpec("zero"), grid_ext)
    modes = compute_eigenpairs(DOM, 6, alpha=0.0)
    cut = round(T_ctrl / h)
    ctrl = manual_control(grid_ext.restrict(cut),
                          np.sin(2 * grid_ext.restrict(cut).t) ** 2, modes)
    energies = []
    # from the first sample past the control's last one, which the
    # trapezoid rule still weighs by half at the release itself
    for steps in np.linspace(cut + 1, grid_ext.steps, 9).round().astype(int):
        res = simulate_march(kz.restrict(steps), modes, ctrl)
        energies.append(np.sum(res.theta_t_T.real ** 2
                               + res.modes.lambda_sq * res.theta_T.real ** 2))
    drift = np.max(np.abs(np.array(energies) - energies[0])) / energies[0]
    assert drift <= 1e-4


# ------------------------------------------------------------ state read-off


def test_achieved_coefficients_degenerate_branch():
    dom = DomainSpec("interval", (PI,), q=0.75, c=0.5)
    modes = compute_eigenpairs(dom, 2, alpha=0.5)
    assert modes.in_J[0]
    res = SimResult(theta_T=np.array([0.2, 0.4]),
                    theta_t_T=np.array([0.3, 0.6]), tail_energy=0.0, K=2,
                    modes=modes, grid=make_grid(1.0, 1e-2))
    xi, eta = achieved_coefficients(res)
    assert xi[0] == 0.2 and eta[0] == 0.3          # velocity read directly
    assert eta[1] == pytest.approx(0.6 / modes.beta[1].real)


def test_overdamped_modes_fail_closed():
    # imaginary beta off the degenerate set has no velocity basis yet:
    # the read-off and the energies refuse it, naming the mode, where
    # they divided by beta.real = 0 and weighed it as a degenerate mode.
    # c = 1.5 on the interval makes mode 1 (lambda^2 = 1) overdamped
    grid, kz, modes = zero_setup(2.0, 2e-3, 3, c=1.5)
    assert modes.beta[0].imag > 0 and not modes.in_J[0]
    resp = compute_responses(kz, modes)
    ctrl = manual_control(grid, np.sin(grid.t), modes)
    for run in (lambda: simulate_convolution(resp, kz, ctrl),
                lambda: simulate_march(kz, modes, ctrl)):
        with pytest.raises(ConfigError, match="mode 1 is overdamped"):
            run()
    res = SimResult(theta_T=np.ones(3), theta_t_T=np.ones(3), tail_energy=0.0,
                    K=1, modes=modes, grid=grid)
    with pytest.raises(ConfigError, match="mode 1 is overdamped"):
        achieved_coefficients(res)
    with pytest.raises(ConfigError, match="mode 1 is overdamped"):
        mode_energies(res.theta_T, res.theta_t_T, modes.beta)


def test_mode_energy_weighting():
    en = mode_energies(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                       np.array([0.0, 2.0]))
    assert en[0] == pytest.approx(1.0 + 9.0)       # degenerate: raw velocity
    assert en[1] == pytest.approx(4.0 + 4.0)       # scaled: (4/2)^2


# -------------------------------------------------------- end-to-end + tail


@pytest.fixture(scope="module")
def controlled_run():
    grid = make_grid(2.5 * PI, 2e-3)
    ke = normalize(EXP_KERNEL, grid)
    resp = compute_responses(ke, compute_eigenpairs(DOM, 24, alpha=ke.alpha))
    head = resp.head(6)
    fam = viscoelastic_family(head)
    rng = np.random.default_rng(7)
    target = TargetState(rng.standard_normal(6) / np.arange(1, 7),
                         rng.standard_normal(6) / np.arange(1, 7), 6)
    sig = synthesize(build_moment_problem(fam, target))
    return ke, resp, target, sig


def test_controlled_modes_hit_target(controlled_run):
    ke, resp, target, sig = controlled_run
    res = simulate_convolution(resp, ke, sig)
    xi, eta = achieved_coefficients(res)
    scale = np.linalg.norm(np.r_[target.xi, target.eta])
    err = np.linalg.norm(np.r_[xi[:6] - target.xi, eta[:6] - target.eta]) / scale
    # the convolution route shares its discrete ingredients with the
    # assembled family, so the hit is solver-precision, far below the
    # 1e-3 certification threshold
    assert err <= 1e-10


def test_tail_spillover_weakens_with_mode_index(controlled_run):
    ke, resp, _, sig = controlled_run
    res = simulate_convolution(resp, ke, sig)
    assert np.isfinite(res.tail_energy) and res.tail_energy > 0
    en = mode_energies(res.theta_T, res.theta_t_T, res.modes.beta.real)
    near, far = en[6:12], en[12:24]
    assert far.max() < near.max()
    assert far.mean() < near.mean()
    # doubling the simulated band only appends weaker modes
    half = simulate_convolution(resp.head(12), ke, sig)
    assert np.max(np.abs(half.theta_T - res.theta_T[:12])) < 1e-14


def test_mode_gaps_are_the_route_gap_per_mode():
    gap, a, b, *_ = two_route_gap(2e-3)
    per_mode = mode_gaps(a, b)
    assert per_mode.shape == (3,)
    assert np.max(per_mode) == gap


def test_verify_convolution_calls(tmp_path, monkeypatch):
    # the verify_interval benchmark config (h = 1e-3, K = 4, K_sim = 12,
    # one boundary node): one full convolution assembles N*z and N'*z,
    # one builds the march route's forcing H, and the end state takes four
    # end-sample contractions (N*z, z and N'*z against F, one call each so
    # that no stack copies the batches, and N against the marched theta);
    # no other FFT runs.  Every transform runs
    # along the last axis, and each sequence is counted: the assembly
    # transforms N, N' and the 12 z forward and its 24 products back,
    # and H = W (N * f) transforms N and the control's node row forward
    # and one product back, 41 sequences where convolving N against the
    # 12 mode forcings took 63
    calls, rows = {}, {}

    def counted(name, fn, transform=False):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if transform:
                a = np.asarray(args[0])
                assert len(args) <= 2 and kwargs.get("axis", -1) in (
                    -1, a.ndim - 1), f"{name} not along the last axis"
                rows[name] = rows.get(name, 0) + a.size // a.shape[-1]
            return fn(*args, **kwargs)
        return wrapper
    for module in (memwave.kernels, memwave.volterra, memwave.simulate):
        for name in ("convolve", "convolve_end"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name,
                            counted(name, getattr(np.fft, name), True))
    rng = np.random.default_rng(1)
    scale = 1.0 / np.arange(1, 5)
    doc = {"experiment": "verify",
           "domain": {"geometry": "interval", "lengths": [PI]},
           "kernel": {"family": "exponential_sum", "coefficients": [1.0],
                      "rates": [1.0]},
           "T": 2.5 * PI, "h": 1e-3, "K": 4, "K_sim": 12, "seed": 1,
           "target": {"xi": (rng.standard_normal(4) * scale).tolist(),
                      "eta": (rng.standard_normal(4) * scale).tolist()}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    # inverse transforms of up to four product rows, straight into the
    # result: 2 x 3 chunks of the assembly's (2, 12) and one for H
    assert calls == {"convolve": 2, "convolve_end": 4, "rfft": 4,
                     "irfft": 7}
    assert rows == {"rfft": 14 + 2, "irfft": 24 + 1}


def _column_route(kernel, weighted, control, length):
    """H = N * F with F the K_sim mode forcings, one row per mode."""
    return memwave.kernels.convolve(
        kernel.N, memwave.simulate._mode_forcing(
            weighted @ control.traces.T, control.profiles, length),
        kernel.h)


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("case", ["interval", "interval-both-ends",
                                  "rectangle-right", "rectangle-right-rank-2"])
def test_node_rank_forcing_matches_the_column_route(case, padded,
                                                     monkeypatch):
    # H = N * (W f) = W (N * f) = (W traces.T) (N * profiles) by linearity
    # of the product trapezoid: the march route convolves the fewest rows
    # among the control's node rows (the interval's one or two), its K
    # profiles (2 on the rectangle's 257-node edge, against K_sim = 6) and
    # the K_sim rows of F (a tie with K = 6 profiles there), which moves H
    # and the end state by rounding only.  A one-node control marches
    # the one row N * f shared by every mode and scales each response by
    # the mode's weight, again rounding against the column route, whose
    # per-mode rows H the march takes as they are.  The control fills
    # the simulation grid, or (padded) stops short of it and is
    # zero-padded
    dom = {"interval": DOM,
           "interval-both-ends": DomainSpec("interval", (PI,),
                                            gamma_subset=("left", "right")),
           "rectangle-right": DomainSpec("rectangle", (PI, PI)),
           "rectangle-right-rank-2": DomainSpec("rectangle", (PI, PI))}[case]
    K_sim = 6
    K = 2 if case == "rectangle-right-rank-2" else K_sim
    grid = make_grid(2.0, 2e-3)
    ke = normalize(EXP_KERNEL, grid)
    modes = compute_eigenpairs(dom, K_sim, alpha=ke.alpha)
    gw = dom.gamma_weights()
    weighted = modes.trace * gw
    nodes = len(gw)
    cgrid = grid.restrict(800) if padded else grid
    rng = np.random.default_rng(5)
    ctrl = factor_control(
        cgrid, modes, np.sin(np.outer(rng.uniform(1, 4, K), cgrid.t)
                             + rng.uniform(0, 2 * PI, (K, 1))), gw)
    length = len(grid)
    convolved, convolve = [], memwave.simulate.convolve

    def counted(f, g, h):
        convolved.append(len(g))
        return convolve(f, g, h)
    monkeypatch.setattr(memwave.simulate, "convolve", counted)
    H = memwave.simulate._forcing_convolution(ke, weighted, ctrl, length)
    assert convolved == [min(nodes, K, K_sim)]
    monkeypatch.undo()
    ref = _column_route(ke, weighted, ctrl, length)
    assert H.shape == ref.shape == (K_sim, length)
    if min(nodes, K) >= K_sim:
        assert np.array_equal(H, ref)
    else:
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))
    node = simulate_march(ke, modes, ctrl)
    monkeypatch.setattr(memwave.simulate, "_forcing_rows",
                        lambda *args: (_column_route(*args)[:, None], 1.0))
    column = simulate_march(ke, modes, ctrl)
    for field in ("theta_T", "theta_t_T"):
        a, b = getattr(node, field), getattr(column, field)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


# ------------------------------------------------------------- error paths


def test_grid_mismatch_rejected():
    grid, kz, modes = zero_setup(2.0, 2e-3, 2)
    other = make_grid(2.0, 1e-2)
    ctrl = manual_control(other, np.zeros(len(other)), modes)
    resp = compute_responses(kz, modes)
    with pytest.raises(ConfigError):
        simulate_convolution(resp, kz, ctrl)


def test_control_longer_than_simulation_rejected():
    grid, kz, modes = zero_setup(2.0, 2e-3, 2)
    longer = make_grid(3.0, 2e-3)
    ctrl = manual_control(longer, np.zeros(len(longer)), modes)
    resp = compute_responses(kz, modes)
    with pytest.raises(ConfigError):
        simulate_convolution(resp, kz, ctrl)


def test_control_on_another_boundary_rejected():
    # the simulator forces the modes with the control's traces, so they
    # must be the simulated modes' own: a control solved on the
    # rectangle's right edge, simulated against modes on its top edge
    # (as many nodes, other traces), and a control on two nodes against
    # one-node modes, are refused
    grid = make_grid(2.5 * PI, 2e-2)
    edges = {}
    for edge in ("right", "top"):
        dom = DomainSpec("rectangle", (PI, PI), gamma_subset=(edge,))
        ke = normalize(EXP_KERNEL, grid)
        edges[edge] = (compute_responses(
            ke, compute_eigenpairs(dom, 3, alpha=ke.alpha)), ke,
            dom.gamma_weights())
    resp, ke, gw = edges["right"]
    target = TargetState(np.array([1.0, 0.0]), np.array([0.0, 0.5]), 2)
    ctrl = synthesize(build_moment_problem(
        viscoelastic_family(resp.head(2), gw), target))
    top = edges["top"][0]
    assert top.modes.trace.shape == resp.modes.trace.shape
    for run in (lambda: simulate_convolution(top, ke, ctrl),
                lambda: simulate_march(ke, top.modes, ctrl)):
        with pytest.raises(ConfigError, match="another boundary"):
            run()
    # the right edge's own modes accept it
    xi, _ = achieved_coefficients(simulate_convolution(resp, ke, ctrl))
    assert abs(xi[0] - 1.0) <= 1e-8
    grid, kz, modes = zero_setup(2.0, 2e-3, 2)
    ctrl = dataclasses.replace(manual_control(grid, np.sin(grid.t), modes),
                               traces=np.ones((1, 2)))
    resp = compute_responses(kz, modes)
    for run in (lambda: simulate_convolution(resp, kz, ctrl),
                lambda: simulate_march(kz, modes, ctrl)):
        with pytest.raises(ConfigError, match="another boundary"):
            run()


def test_missing_modes_rejected():
    grid, kz, modes = zero_setup(2.0, 2e-3, 4)
    resp = compute_responses(kz, modes)
    # a control over modes 1..4, simulated on modes 1..2
    ctrl = factor_control(grid, modes,
                          np.sin(np.outer(np.arange(1, 5), grid.t)))
    with pytest.raises(ConfigError, match="only 2 simulated modes"):
        simulate_convolution(resp.head(2), kz, ctrl)
    with pytest.raises(ConfigError, match="only 2 simulated modes"):
        simulate_march(kz, modes.take(slice(2)), ctrl)
    # modes that are not 1..n
    ctrl = manual_control(grid, np.sin(grid.t), modes)
    for rows in ([1, 2], [1, 0]):
        with pytest.raises(ConfigError, match="modes 1..K_sim in order"):
            simulate_convolution(compute_responses(kz, modes.take(rows)), kz,
                                 ctrl)
        with pytest.raises(ConfigError, match="modes 1..K_sim in order"):
            simulate_march(kz, modes.take(rows), ctrl)
