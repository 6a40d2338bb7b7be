import tracemalloc

import numpy as np
import pytest

from memwave import (ConfigError, DomainSpec, InternalConsistencyError,
                     KernelSpec, NotControllableError, SequenceFamily,
                     Spectrum, TargetState, TimeGrid, assemble_rhs,
                     build_moment_problem, compute_eigenpairs,
                     compute_responses, gram, make_grid, normalize,
                     synthesize, telegraph_family, viscoelastic_family)
from memwave.control import (_RealPasses, _factor_form, _min_norm_spot_check,
                              _spot_direction, _spot_terms)
from memwave.grid import trapezoid_weights
from memwave.riesz import CALLING_THREAD_MACS, node_blocks

from family_reference import combination, pairing, real_factors

PI = np.pi
R2 = np.sqrt(2.0)
INTERVAL = DomainSpec("interval", (PI,))


def unit_target(K, mode=1, velocity=False):
    xi = np.zeros(K)
    eta = np.zeros(K)
    (eta if velocity else xi)[mode - 1] = 1.0
    return TargetState(xi, eta, K)


# ------------------------------------------------------------- moment data


def test_assemble_rhs_conventions():
    # -sqrt2 eta_n on U_n, then -sqrt2 xi_n on V_n, mode by mode
    c = assemble_rhs(unit_target(3))
    assert c.dtype == float
    assert np.array_equal(c, [0, -R2, 0, 0, 0, 0])
    c = assemble_rhs(unit_target(3, velocity=True))
    assert np.array_equal(c, [-R2, 0, 0, 0, 0, 0])
    mixed = TargetState(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 2)
    assert np.array_equal(assemble_rhs(mixed), [0, -R2, -2 * R2, 0])


def test_target_state_validation():
    with pytest.raises(ConfigError):
        TargetState(np.zeros(3), np.zeros(2), 3)
    with pytest.raises(ConfigError):
        TargetState(np.zeros((2, 2)), np.zeros(4), 4)


def test_moment_problem_alignment():
    fam = telegraph_family(compute_eigenpairs(INTERVAL, 3, 0.0), 0.0,
                           TimeGrid(PI, 400))
    prob = build_moment_problem(fam, unit_target(3))
    assert fam.index_set == (1, -1, 2, -2, 3, -3)
    assert np.array_equal(prob.rhs, [0, -R2, 0, 0, 0, 0])
    assert prob.family is fam
    # the data follow the index set: +n takes eta_n, -n takes xi_n
    target = TargetState(np.array([1.0, 2.0, 3.0]),
                         np.array([4.0, 5.0, 6.0]), 3)
    pos = [3, 0, 4]
    sub = SequenceFamily(fam.profiles[pos],
                         tuple(fam.index_set[p] for p in pos), fam.label,
                         fam.grid, fam.gamma_weights, fam.psi[pos])
    assert sub.index_set == (-2, 1, 3)
    assert np.array_equal(build_moment_problem(sub, target).rhs,
                          -R2 * np.array([2.0, 4.0, 6.0]))
    with pytest.raises(ConfigError, match="family index 3 beyond"):
        build_moment_problem(fam, unit_target(2))


# --------------------------------------------------------------- families


def test_telegraph_members_undamped():
    modes = compute_eigenpairs(INTERVAL, 4, 0.0)
    fam = telegraph_family(modes, 0.0, TimeGrid(2 * PI, 2000))
    t = fam.grid.t
    for i, n in enumerate(fam.index_set):
        k = abs(n) - 1
        wave = np.cos(abs(n) * t) if n > 0 else np.sin(abs(n) * t)
        expected = R2 * modes.trace[k] / abs(n) * wave
        assert np.max(np.abs(fam.members[i].ravel() - expected)) < 1e-12
    # |psi_n|^2 = 2/pi for every mode, so a full period gives Gram = 4 I
    rep = gram(fam)
    assert rep.m_N == pytest.approx(4.0, abs=1e-9)
    assert rep.cond == pytest.approx(1.0, abs=1e-9)


def test_telegraph_degenerate_member():
    dom = DomainSpec("interval", (PI,), q=0.75, c=0.5)
    modes = compute_eigenpairs(dom, 2, alpha=0.5)
    assert modes.in_J.tolist() == [True, False]
    fam = telegraph_family(modes, 0.5, TimeGrid(PI, 500))
    t = fam.grid.t
    # U = 1 + c t and V = t on J, scaled by sqrt2 alone
    for row, profile in ((0, 1.0 + 0.5 * t), (1, t)):
        expected = R2 * modes.trace[0] * profile
        assert np.max(np.abs(fam.members[row].ravel() - expected)) < 1e-12


def test_pure_exponentials_share_horizons():
    # the profiles of the damped modes with a = c and with a = 0 (pure
    # exponentials) span the same space
    dom = DomainSpec("interval", (PI,), c=0.5)
    modes = compute_eigenpairs(dom, 5, alpha=0.5)

    def m_of(T, a):
        return gram(telegraph_family(modes, a,
                                     TimeGrid(T, round(T / 2e-3)))).m_N

    for a in (0.0, 0.5):
        short, full, longer = (m_of(T, a) for T in
                               (0.8 * PI, 2.0 * PI, 2.5 * PI))
        assert short < 1e-5 * full          # collapse below the sharp time
        assert 0.5 < longer / full < 2.0    # plateau above it
    # the two variants certify the same horizons at comparable levels
    assert 1 / 3 < m_of(2.5 * PI, 0.0) / m_of(2.5 * PI, 0.5) < 3


def test_viscoelastic_matches_memoryless_comparator():
    grid = make_grid(2 * PI, 5e-4)
    kz = normalize(KernelSpec("zero"), grid)
    modes = compute_eigenpairs(INTERVAL, 3, alpha=0.0)
    vis = viscoelastic_family(compute_responses(kz, modes))
    tel = telegraph_family(modes, 0.0, grid)
    assert np.max(np.abs(vis.members - tel.members)) < 1e-5


def test_distance_to_comparator_decays():
    # the memory family's rows in the S frame, exp(-alpha t) times
    # sqrt2 U / beta and sqrt2 V, against the telegraph rows with damping
    # alpha: the per-mode distance falls like 1 / beta, approached from
    # above at these low modes (criterion 5 of the acceptance battery
    # takes the rate over 40 modes)
    from memwave.exact import s_frame_rows
    grid = make_grid(PI, 1e-3)
    ke = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                              rates=(1.0,)), grid)
    modes = compute_eigenpairs(INTERVAL, 12, alpha=ke.alpha)
    tel = telegraph_family(modes, ke.alpha, grid)
    S = s_frame_rows(ke.terms, ke.alpha, modes, ke.t) \
        * (R2 / modes.beta[:, None])
    rows = np.stack([S.real, S.imag], axis=1).reshape(tel.profiles.shape)
    d2 = ((tel.psi ** 2 @ tel.gamma_weights)
          * ((rows - tel.profiles) ** 2 @ trapezoid_weights(grid)))
    dist = np.sqrt(d2[::2] + d2[1::2])
    assert np.all(np.diff(dist) < 0)
    sums = d2.reshape(-1, 8).sum(axis=1)
    assert np.all(np.diff(sums) < 0)
    ns = np.arange(3, 13, dtype=float)
    A = np.vstack([np.log(ns), np.ones(len(ns))]).T
    slope = np.linalg.lstsq(A, np.log(dist[2:]), rcond=None)[0][0]
    assert -1.2 < slope < -0.6


# -------------------------------------------------------------- synthesis


def test_synthesize_orthonormal_family_identity():
    # the rows cos(n t) and sin(n t) over one period, both over sqrt(pi)
    grid = TimeGrid(2 * PI, 4000)
    idx = (1, -1, 2, -2, 3, -3)
    n = np.abs(np.array(idx))[:, None]
    members = np.where(np.array(idx)[:, None] > 0, np.cos(n * grid.t),
                       np.sin(n * grid.t)) / np.sqrt(PI)
    fam = SequenceFamily(members, idx, "unit-fourier", grid)
    sig = synthesize(build_moment_problem(fam, unit_target(3)))
    # Gram = I, so a = rhs and f(t) = -sqrt2 sin(2 pi - t) / sqrt(pi)
    assert np.allclose(sig.coefficients, [0, -R2, 0, 0, 0, 0], atol=1e-10)
    expected = R2 * np.sin(grid.t) / np.sqrt(PI)
    f = sig.traces.T @ sig.profiles
    assert np.max(np.abs(f[0] - expected)) < 1e-10
    assert sig.residual_max < 1e-12
    assert sig.norm == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert f.shape == (1, len(grid)) and sig.traces.shape == (3, 1)


@pytest.fixture(scope="module")
def modes12():
    return compute_eigenpairs(INTERVAL, 12, alpha=0.0)


def test_synthesize_telegraph_round_numbers(modes12):
    fam = telegraph_family(modes12, 0.0, make_grid(2.5 * PI, 1e-3))
    sig = synthesize(build_moment_problem(fam, unit_target(12)))
    assert sig.residual_max <= 1e-8 * sig.condition
    assert 3.5 < sig.frame_lower < 4.5
    assert sig.condition < 10.0


def test_synthesize_random_targets_stay_real(modes12):
    fam = telegraph_family(modes12, 0.0, TimeGrid(2.5 * PI, 4000))
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        target = TargetState(rng.standard_normal(12), rng.standard_normal(12), 12)
        prob = build_moment_problem(fam, target)
        sig = synthesize(prob)
        assert prob.rhs.dtype == sig.coefficients.dtype == float
        assert sig.traces.dtype == sig.profiles.dtype == float
        scale = max(1.0, float(np.max(np.abs(prob.rhs))))
        assert sig.residual_max <= 1e-8 * sig.condition * scale


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_nan_rhs_fails_closed(case):
    # a NaN moment datum gives a NaN control; NaN > tol is False, so the
    # residual comparison must be not (residual <= tol)
    fam, modes = _factor_case(case)
    prob = build_moment_problem(fam, unit_target(len(modes)))
    rhs = prob.rhs.copy()
    rhs[2] = np.nan
    with pytest.raises(InternalConsistencyError, match="moment residual"):
        synthesize(prob._replace(rhs=rhs))


def test_short_horizon_fails_closed(modes12):
    fam = telegraph_family(modes12, 0.0, TimeGrid(0.5 * PI, 2000))
    with pytest.raises(NotControllableError) as err:
        synthesize(build_moment_problem(fam, unit_target(12)))
    assert err.value.exit_code == 4
    assert err.value.frame_lower < 1e-6
    assert "m_N" in str(err.value)
    # the horizon named is the family's own
    assert f"not solvable at T={fam.grid.T:.6g}:" in str(err.value)


def test_feasibility_monotone_from_precritical(modes12):
    # once solvable at a pre-plateau horizon, every longer horizon solves
    # with a frame bound no worse and a condition number no worse
    results = {}
    for T in (1.6 * PI, 2.0 * PI, 2.5 * PI, 3.0 * PI):
        fam = telegraph_family(modes12, 0.0, make_grid(T, 2e-3))
        results[T] = synthesize(build_moment_problem(fam, unit_target(12)))
    Ts = sorted(results)
    bounds = [results[T].frame_lower for T in Ts]
    assert all(b2 >= b1 * (1 - 1e-9) for b1, b2 in zip(bounds, bounds[1:]))
    first = results[Ts[0]].condition
    assert all(results[T].condition <= first for T in Ts[1:])


# ------------------------------------------------------------- factor form


def _factor_case(name):
    """(family, modes) for one trace/beta regime of the factor form."""
    if name == "interval":
        grid = make_grid(2.5 * PI, 1e-2)
        ke = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)), grid)
        modes = compute_eigenpairs(INTERVAL, 3, alpha=ke.alpha)
        return viscoelastic_family(compute_responses(ke, modes)), modes
    if name == "rectangle-right-top":
        dom = DomainSpec("rectangle", (PI, PI), gamma_subset=("right", "top"))
        modes = compute_eigenpairs(dom, 3, alpha=0.5)
        return telegraph_family(modes, 0.5, TimeGrid(2.5 * PI, 400),
                                dom.gamma_weights()), modes
    if name == "long-rows":
        modes = compute_eigenpairs(INTERVAL, 20, alpha=0.0)
        return telegraph_family(modes, 0.0, TimeGrid(2.5 * PI, 8000)), modes
    if name == "spanned":
        # 6 members on 6 time samples: the span is every grid function
        modes = compute_eigenpairs(INTERVAL, 3, alpha=0.0)
        return telegraph_family(modes, 0.0, TimeGrid(3.0, 5)), modes
    if name == "degenerate":
        dom = DomainSpec("interval", (PI,), q=0.75, c=0.5)
        modes = compute_eigenpairs(dom, 2, alpha=0.5)
        assert modes.in_J[0]
        return telegraph_family(modes, 0.5, TimeGrid(PI, 500)), modes
    dom = DomainSpec("interval", (PI,), c=3.0)            # overdamped
    modes = compute_eigenpairs(dom, 3, alpha=3.0)
    assert modes.beta[0].real == 0 and modes.beta[0].imag > 0
    return telegraph_family(modes, 3.0, TimeGrid(PI, 500)), modes


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top",
                                  "degenerate", "overdamped"])
def test_control_factors_rebuild_the_control(case):
    # for any coefficients: two per mode, on its rows U_n and V_n
    fam, modes = _factor_case(case)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(fam.count)
    traces, profiles = _factor_form(fam, a)
    assert traces.dtype == profiles.dtype == float
    assert traces.shape == (len(modes), fam.psi.shape[1])
    assert profiles.shape == (len(modes), fam.grid.steps + 1)
    want = combination(fam, a)[:, ::-1]
    gap = np.max(np.abs(traces.T @ profiles - want))
    assert gap <= 1e-12 * np.max(np.abs(want))


def test_control_factors_refuse_complex_trace():
    # the trace check is the family's own (SequenceFamily): an imaginary
    # beta (overdamped) still gives a real trace and a family; a trace
    # with an imaginary part gives none, on either constructor
    for case in ("interval", "overdamped"):
        fam, modes = _factor_case(case)
        assert fam.psi.dtype == float
        bad = Spectrum(modes.index, modes.lambda_sq, modes.beta,
                       modes.trace * (1 + 1j), modes.in_J, modes.in_O)
        grid = fam.grid
        responses = compute_responses(normalize(KernelSpec("zero"), grid),
                                      modes)
        for build in (lambda: telegraph_family(bad, 0.0, grid),
                      lambda: viscoelastic_family(
                          responses._replace(modes=bad))):
            with pytest.raises(ConfigError,
                               match="boundary traces must be real") as err:
                build()
            assert err.value.exit_code == 2


def _paired(fam, positions, psi=None):
    """fam's rows at positions, over its index set at positions, against
    psi (the rows' own traces by default)."""
    return SequenceFamily(fam.profiles[positions],
                          tuple(fam.index_set[p] for p in positions),
                          fam.label, fam.grid, fam.gamma_weights,
                          fam.psi[positions] if psi is None else psi)


@pytest.mark.parametrize("defect", ["positive-only", "swapped", "unpaired",
                                    "two-traces"])
def test_synthesize_refuses_rows_that_are_not_pairs(defect):
    # the factor form merges consecutive rows of one real trace, the rows
    # U_n and V_n of a mode: any other layout is a config error (exit 2),
    # not a control.  The merge reads the traces, not the index set, so
    # swapping V_1 and U_2 is a defect; swapping a mode's own two rows
    # (with their indices) is not, and gives the same control
    fam, modes = _factor_case("rectangle-right-top")
    K = len(modes)
    rows = list(range(2 * K))
    bad = {"positive-only": _paired(fam, rows[::2]),
           "swapped": _paired(fam, [0, 2, 1] + rows[3:]),
           "unpaired": _paired(fam, [0, 3, 2, 1] + rows[4:]),
           "two-traces": _paired(fam, rows, fam.psi * ([[1.0], [0.5]] * K))
           }[defect]
    with pytest.raises(ConfigError, match=r"not \(U_n, V_n\) pairs") as err:
        synthesize(build_moment_problem(bad, unit_target(K)))
    assert err.value.exit_code == 2
    own = synthesize(build_moment_problem(_paired(fam, [1, 0] + rows[2:]),
                                          unit_target(K)))
    want = synthesize(build_moment_problem(fam, unit_target(K)))
    assert np.max(np.abs(own.profiles - want.profiles)) \
        <= 1e-12 * np.max(np.abs(want.profiles))


def test_families_refuse_a_complex_psi():
    fam, _ = _factor_case("interval")
    with pytest.raises(ConfigError, match="boundary traces must be real") \
            as err:
        SequenceFamily(fam.profiles, fam.index_set, fam.label, fam.grid,
                       fam.gamma_weights, fam.psi.astype(complex))
    assert err.value.exit_code == 2


# ------------------------------------------------------ min-norm spot check


def _norm_sq(fam, g):
    """Weighted L2 norm squared of a complex dense (nodes, steps+1) g."""
    return float(fam.gamma_weights
                 @ (np.real(g * np.conj(g)) @ trapezoid_weights(fam.grid)))


def _solved(case):
    """(family, Gram report, the minimum-norm control as the real factor
    pair synthesize feeds the spot check, in the family's time, its
    norm) for a random target."""
    fam, modes = _factor_case(case)
    rng = np.random.default_rng(3)
    K = len(modes)
    target = TargetState(rng.standard_normal(K), rng.standard_normal(K), K)
    rep = gram(fam)
    a = np.linalg.solve(rep.gram, build_moment_problem(fam, target).rhs)
    traces, profiles = _factor_form(fam, a)
    B = np.ascontiguousarray(profiles[:, ::-1])
    return fam, rep, traces, B, np.sqrt(_norm_sq(fam, traces.T @ B))


def _spot_check(fam, rep, A, B, norm):
    """The spot check of synthesize on the control A.T @ B."""
    _min_norm_spot_check(_RealPasses(fam), rep, A, B, norm, seed=0, dirs=5)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top",
                                  "long-rows"])
def test_real_passes_match_the_complex_family_methods(case):
    # one node; a last block of rows shorter than the others; one row of
    # 40 members x 8001 samples, too long for one product
    fam, _ = _factor_case(case)
    nodes, samples = fam.psi.shape[1], fam.grid.steps + 1
    rng = np.random.default_rng(4)
    a = rng.standard_normal(fam.count)
    dense = _RealPasses(fam)
    blocks = sorted({rows.start: rows for rows, _ in dense.tiles}.values(),
                    key=lambda rows: rows.start)
    assert blocks == node_blocks(nodes, fam.count * samples)
    sizes = [rows.stop - rows.start for rows in blocks]
    chunks = [[t for r, t in dense.tiles if r == rows] for rows in blocks]
    assert {"interval": sizes == [1] and len(chunks[0]) == 1,
            "rectangle-right-top": len(sizes) > 2 and sizes[-1] < sizes[0]
            and all(len(c) == 1 for c in chunks),
            "long-rows": sizes == [1] and len(chunks[0]) > 1}[case]
    # the tiles cover the nodes and the samples in order, and each tile's
    # product stays under the multiply-adds that OpenBLAS runs on the
    # calling thread
    assert sum(sizes) == nodes and blocks[0].start == 0
    assert all(lo.stop == hi.start for lo, hi in zip(blocks, blocks[1:]))
    for ts in chunks:
        assert ts[0].start == 0 and ts[-1].stop == samples
        assert all(lo.stop == hi.start for lo, hi in zip(ts, ts[1:]))
    assert max((r.stop - r.start) * fam.count * (t.stop - t.start)
               for r, t in dense.tiles) < CALLING_THREAD_MACS
    parts = np.empty((nodes, samples))
    for rows, t in dense.tiles:
        dense.combination(a, rows, t, parts[rows, t])
    g = combination(fam, a)
    assert np.max(np.abs(parts - g)) <= 1e-14 * np.max(np.abs(g))
    # the factor-form moments and norm of g, a real pair of rank count,
    # against the reference passes over g
    A, B = real_factors(fam, a)
    moments = np.sum(dense.separable_pairing(A, B), axis=0)
    want = pairing(fam, g)
    assert np.max(np.abs(moments - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.sum(dense.inner(A, B, A, B)) == pytest.approx(
        _norm_sq(fam, g), rel=1e-14)
    G = dense.gram()
    assert np.max(np.abs(G - gram(fam).gram)) <= 1e-14 * np.max(np.abs(G))


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_separable_pairing_matches_the_dense_pairing(case):
    # the spot check's factor moments of u (x) s, and of a rank-3 pair,
    # against the pairing of the materialised field
    fam, _ = _factor_case(case)
    dense = _RealPasses(fam)
    rng = np.random.default_rng(0)
    u = _spot_direction(rng, np.empty(fam.psi.shape[1]))
    s = _spot_direction(rng, np.empty(fam.grid.steps + 1))
    want = pairing(fam, np.outer(u, s))
    got = dense.separable_pairing(u[None], s[None])
    assert got.shape == (1, fam.count)
    assert np.max(np.abs(got[0] - want)) <= 1e-13 * np.max(np.abs(want))
    A = rng.standard_normal((3, fam.psi.shape[1]))
    B = rng.standard_normal((3, fam.grid.steps + 1))
    want = pairing(fam, A.T @ B)
    got = np.sum(dense.separable_pairing(A, B), axis=0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top", "spanned"])
def test_spot_terms_match_the_dense_projection(case):
    # the factor-form moments and norms of each direction's v_perp against
    # v_perp materialised with the reference passes; on "spanned"
    # v lies in the span, so |v_perp|^2 is a near-total cancellation
    fam, rep, A, B, norm = _solved(case)
    moments_v, moments, v_sq, perturbed_sq = _spot_terms(
        _RealPasses(fam), rep, A, B, seed=0, dirs=5)
    g = A.T @ B
    rng = np.random.default_rng(0)
    for d in range(5):
        u = _spot_direction(rng, np.empty(g.shape[0]))
        v = np.outer(u, _spot_direction(rng, np.empty(g.shape[1])))
        tol = 1e-10 * _norm_sq(fam, v)
        x = np.linalg.solve(rep.gram, pairing(fam, v))
        v_perp = v - combination(fam, x)
        assert np.max(np.abs(moments_v[d] - pairing(fam, v))) <= tol
        assert np.max(np.abs(moments[d] - pairing(fam, v_perp))) <= tol
        assert v_sq[d] == pytest.approx(_norm_sq(fam, v_perp), abs=tol)
        assert perturbed_sq[d] == pytest.approx(_norm_sq(fam, g + v_perp),
                                                abs=tol)
        if case == "spanned":
            assert abs(v_sq[d]) <= tol
    _spot_check(fam, rep, A, B, norm)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_catches_a_control_off_minimum_norm(case):
    fam, rep, A, B, norm = _solved(case)
    _spot_check(fam, rep, A, B, norm)
    # the check's own first direction, u (x) s with u drawn first,
    # projected off the span with the reference passes:
    # g - 0.75 v_perp solves the same moments with a larger norm, and
    # adding v_perp back lowers it.  As a real pair it is g's K rows,
    # u (x) -0.75 s and the span component 0.75 sum_k x_k m_k in 2K
    # rows (real_factors): rank 3K + 1
    rng = np.random.default_rng(0)
    u = _spot_direction(rng, np.empty(A.shape[1]))
    s = _spot_direction(rng, np.empty(B.shape[1]))
    x = np.linalg.solve(rep.gram, pairing(fam, np.outer(u, s)))
    Ax, Bx = real_factors(fam, x)
    bad_A = np.concatenate([A, u[None], Ax])
    bad_B = np.concatenate([B, -0.75 * s[None], 0.75 * Bx])
    assert len(bad_A) == 3 * len(A) + 1
    with pytest.raises(InternalConsistencyError, match="minimum-norm violated"):
        _spot_check(fam, rep, bad_A, bad_B,
                    np.sqrt(_norm_sq(fam, bad_A.T @ bad_B)))


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_fails_closed_on_nan(case):
    fam, rep, A, B, norm = _solved(case)
    bad = B.copy()
    bad[-1, -1] = np.nan
    with pytest.raises(InternalConsistencyError, match="minimum-norm violated"):
        _spot_check(fam, rep, A, bad, norm)
    with pytest.raises(InternalConsistencyError, match="minimum-norm violated"):
        _spot_check(fam, rep, A, B, np.nan)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_catches_a_wrong_gram(case):
    # a Gram scaled by 2 removes half of the span component
    fam, rep, A, B, norm = _solved(case)
    wrong = rep._replace(gram=2.0 * rep.gram)
    with pytest.raises(InternalConsistencyError,
                       match="span projection left residual moments"):
        _spot_check(fam, wrong, A, B, norm)


def test_spot_directions_have_zero_mean_and_unit_variance():
    n = 10**6
    v = _spot_direction(np.random.default_rng(0), np.empty(n))
    assert abs(v.mean()) <= 5.0 / np.sqrt(n)
    # a uniform variable's variance estimate has variance 0.8 / n
    assert abs(v.var() - 1.0) <= 5.0 * np.sqrt(0.8 / n)
    assert v.min() >= -np.sqrt(3.0) and v.max() < np.sqrt(3.0)
    again = _spot_direction(np.random.default_rng(0), np.empty(n))
    assert np.array_equal(v.view(np.uint64), again.view(np.uint64))


def test_rank_one_directions_have_identity_covariance():
    # u (x) s over many seeded draws of a 3-node u and a 4-sample s:
    # every entry has mean 0 and variance 1, and any two entries are
    # uncorrelated, those that share a row (u_i^2 s_j s_l) included
    n = 20000
    rng = np.random.default_rng(0)
    v = np.empty((n, 3, 4))
    for row in v:
        u = _spot_direction(rng, np.empty(3))
        np.outer(u, _spot_direction(rng, np.empty(4)), out=row)
    v = v.reshape(n, -1)
    # uniform on [-sqrt 3, sqrt 3): E u^4 = 1.8, so an entry's square has
    # variance 1.8^2 - 1 = 2.24, and a product of two entries sharing a
    # row has variance 1.8 (1 when they share neither row nor column)
    assert np.max(np.abs(v.mean(axis=0))) <= 5.0 / np.sqrt(n)
    second = v.T @ v / n
    assert np.max(np.abs(np.diag(second) - 1.0)) <= 5.0 * np.sqrt(2.24 / n)
    off = second[~np.eye(12, dtype=bool)]
    assert np.max(np.abs(off)) <= 5.0 * np.sqrt(1.8 / n)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_leaves_g_unchanged(case):
    # the control's factors come back bit for bit
    fam, rep, A, B, norm = _solved(case)
    before = A.copy(), B.copy()
    _spot_check(fam, rep, A, B, norm)
    for after, kept in zip((A, B), before):
        assert np.array_equal(after.view(np.uint64), kept.view(np.uint64))


def test_spot_check_memory_stays_under_one_dense_array():
    # rank-one directions and the control in factor form: a dense
    # direction, a projected field or the control itself would each add
    # a dense array
    fam, rep, A, B, norm = _solved("rectangle-right-top")
    dense = _RealPasses(fam)
    tracemalloc.start()
    try:
        _min_norm_spot_check(dense, rep, A, B, norm, seed=0, dirs=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes, samples = A.shape[1], B.shape[1]
    assert peak <= 0.15 * nodes * samples * 8


# ------------------------------------------------------- planted defects


def test_families_refuse_a_complex_profile():
    # a family is the real rows U_n and V_n of its modes: a profile with
    # an imaginary part, however small, is a config error (exit 2), on
    # the constructor and on every family built from it
    fam, _ = _factor_case("interval")
    with pytest.raises(ConfigError, match="time profiles must be real") \
            as err:
        SequenceFamily(fam.profiles * (1.0 + 1e-12j), fam.index_set,
                       fam.label, fam.grid, fam.gamma_weights, fam.psi)
    assert err.value.exit_code == 2


def test_exact_route_refuses_a_complex_time_gram(tmp_path, capsys,
                                                 monkeypatch):
    # one V weight of the exact memory rows times (1 + 1e-6 i) makes the
    # row complex: its closed-form time Gram has an imaginary part far
    # above rounding, which the sweep refuses with exit 5, writing
    # nothing, where taking its real part would hide the defect
    import json

    import memwave.exact
    from memwave.cli import main
    exact_modes = memwave.exact.exact_modes

    def planted(*args):
        exact = exact_modes(*args)
        V = exact.V.copy()
        V[1, 0] *= 1.0 + 1e-6j
        return exact._replace(V=V)
    monkeypatch.setattr(memwave.exact, "exact_modes", planted)
    doc = {"experiment": "sweep-T", "K": 4, "h": 1e-2,
           "domain": {"geometry": "interval", "lengths": [PI]},
           "kernel": {"family": "exponential_sum", "coefficients": [1.0],
                      "rates": [1.0]},
           "sweep": {"T_min": 2.0 * PI, "T_max": 2.5 * PI, "steps": 2}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    store = tmp_path / "store"
    assert main(["sweep-t", "--config", str(cfg), "--out", str(store)]) == 5
    err = capsys.readouterr().err
    assert "closed-form time Gram of 'viscoelastic' is not real" in err
    assert not store.exists()
    monkeypatch.setattr(memwave.exact, "exact_modes", exact_modes)
    assert main(["sweep-t", "--config", str(cfg), "--out", str(store)]) == 0


def test_synthesize_memory_stays_under_a_quarter_dense_array():
    # the rectangle benchmark's synthesize: one edge of 257 nodes, K = 4,
    # h = 2e-3 over 2.5 pi.  The control stays in factor form, and the
    # sup-norm pass holds one block of node rows at a time
    grid = make_grid(2.5 * PI, 2e-3)
    ke = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                              rates=(1.0,)), grid)
    dom = DomainSpec("rectangle", (PI, PI), gamma_subset=("right",))
    modes = compute_eigenpairs(dom, 4, alpha=ke.alpha)
    fam = viscoelastic_family(compute_responses(ke, modes),
                              dom.gamma_weights())
    rng = np.random.default_rng(1)
    target = TargetState(rng.standard_normal(4), rng.standard_normal(4), 4)
    problem = build_moment_problem(fam, target)
    tracemalloc.start()
    try:
        sig = synthesize(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes, samples = fam.psi.shape[1], grid.steps + 1
    assert (nodes, samples) == (257, 3928)
    assert sig.traces.shape == (4, nodes)
    assert sig.profiles.shape == (4, samples)
    assert peak < 0.25 * nodes * samples * 8
