import dataclasses
import tracemalloc

import numpy as np
import pytest

from memwave import (ConfigError, DomainSpec, InternalConsistencyError,
                     KernelSpec, NotControllableError, SequenceFamily, TargetState, TimeGrid, assemble_rhs,
                     build_moment_problem, comparator_profile,
                     compute_eigenpairs, control_factors, compute_responses, gram, make_grid,
                     normalize, quadratic_closeness, refined_S, synthesize,
                     telegraph_family, viscoelastic_family)
from memwave.control import (CALLING_THREAD_MACS, _RealPasses,
                              _min_norm_spot_check, _spot_direction,
                              _spot_terms, node_blocks)
from memwave.grid import trapezoid_weights

from family_reference import combination, pairing

PI = np.pi
INTERVAL = DomainSpec("interval", (PI,))


def unit_target(K, mode=1, velocity=False):
    xi = np.zeros(K)
    eta = np.zeros(K)
    (eta if velocity else xi)[mode - 1] = 1.0
    return TargetState(xi, eta, K)


# ------------------------------------------------------------- moment data


def test_assemble_rhs_conventions():
    c = assemble_rhs(unit_target(3))
    assert np.allclose(c, [-1j, 0, 0])
    c = assemble_rhs(unit_target(3, velocity=True))
    assert np.allclose(c, [-1, 0, 0])
    mixed = TargetState(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 2)
    assert np.allclose(assemble_rhs(mixed), [-1j, -2.0])


def test_target_state_validation():
    with pytest.raises(ConfigError):
        TargetState(np.zeros(3), np.zeros(2), 3)
    with pytest.raises(ConfigError):
        TargetState(np.zeros((2, 2)), np.zeros(4), 4)


def test_moment_problem_alignment():
    fam = telegraph_family(compute_eigenpairs(INTERVAL, 3, 0.0), 0.0, PI,
                           steps=400)
    prob = build_moment_problem(fam, unit_target(3))
    assert fam.index_set == (1, -1, 2, -2, 3, -3)
    assert np.allclose(prob.rhs, [-1j, 1j, 0, 0, 0, 0])
    assert prob.family is fam
    with pytest.raises(ConfigError):
        build_moment_problem(fam, unit_target(2))


# --------------------------------------------------------------- families


def positive_family(profiles, pairs, kernel):
    """profiles[i] psi_i on the positive indices of pairs, on the
    kernel's grid."""
    return SequenceFamily(profiles, tuple(p.index for p in pairs), "positive",
                          kernel.grid, psi=np.array([p.psi for p in pairs]))


def test_telegraph_members_undamped():
    pairs = compute_eigenpairs(INTERVAL, 4, 0.0)
    fam = telegraph_family(pairs, 0.0, 2 * PI, steps=2000)
    t = fam.grid.t
    for i, n in enumerate(fam.index_set):
        p = pairs[abs(n) - 1]
        expected = p.psi * np.exp(1j * n * t)
        assert np.max(np.abs(fam.members[i].ravel() - expected)) < 1e-12
    # |psi_n|^2 = 2/pi for every mode, so a full period gives Gram = 4 I
    rep = gram(fam)
    assert rep.m_N == pytest.approx(4.0, abs=1e-9)
    assert rep.cond == pytest.approx(1.0, abs=1e-9)


def test_telegraph_degenerate_member():
    dom = DomainSpec("interval", (PI,), q=0.75, c=0.5)
    pairs = compute_eigenpairs(dom, 2, alpha=0.5)
    assert pairs[0].in_J and not pairs[1].in_J
    fam = telegraph_family(pairs, 0.5, PI, steps=500)
    t = fam.grid.t
    expected = pairs[0].psi * (1.0 + (0.5 + 1j) * t)
    assert np.max(np.abs(fam.members[0].ravel() - expected)) < 1e-12


def test_gamma_param_variants_share_horizons():
    dom = DomainSpec("interval", (PI,), c=0.5)
    pairs = compute_eigenpairs(dom, 5, alpha=0.5)

    def m_of(T, gp):
        fam = telegraph_family(pairs, 0.5, T, gamma_param=gp,
                               steps=round(T / 2e-3))
        return gram(fam).m_N

    for gp in (0.0, None):
        short, full, longer = (m_of(T, gp) for T in
                               (0.8 * PI, 2.0 * PI, 2.5 * PI))
        assert short < 1e-5 * full          # collapse below the sharp time
        assert 0.5 < longer / full < 2.0    # plateau above it
    # the two variants certify the same horizons at comparable levels
    assert 1 / 3 < m_of(2.5 * PI, 0.0) / m_of(2.5 * PI, None) < 3


def test_viscoelastic_matches_memoryless_comparator():
    grid = make_grid(2 * PI, 5e-4)
    kz = normalize(KernelSpec("zero"), grid)
    pairs = compute_eigenpairs(INTERVAL, 3, alpha=0.0)
    vis = viscoelastic_family(compute_responses(kz, pairs))
    tel = telegraph_family(pairs, 0.0, 2 * PI, gamma_param=0.0,
                           steps=grid.steps)
    assert np.max(np.abs(vis.members - tel.members)) < 1e-5


def test_viscoelastic_conjugate_negatives():
    grid = make_grid(PI, 2e-3)
    ke = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                              rates=(1.0,)), grid)
    pairs = compute_eigenpairs(INTERVAL, 3, alpha=ke.alpha)
    vis = viscoelastic_family(compute_responses(ke, pairs))
    for i, n in enumerate(vis.index_set):
        if n < 0:
            j = vis.index_set.index(-n)
            assert np.array_equal(vis.members[i], np.conj(vis.members[j]))


def test_distance_to_comparator_decays():
    grid = make_grid(PI, 1e-3)
    ke = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                              rates=(1.0,)), grid)
    pairs = compute_eigenpairs(INTERVAL, 12, alpha=ke.alpha)
    out = quadratic_closeness(positive_family(refined_S(ke, pairs), pairs, ke),
                              positive_family(comparator_profile(ke, pairs),
                                              pairs, ke), block=4)
    dist = np.sqrt(np.asarray(out["dist_sq"]))
    assert np.all(np.diff(dist[1:]) < 0)
    sums = out["block_sums"]
    assert all(sums[i] > sums[i + 1] for i in range(len(sums) - 1))
    ns = np.arange(3, 13, dtype=float)
    A = np.vstack([np.log(ns), np.ones(len(ns))]).T
    slope = np.linalg.lstsq(A, np.log(dist[2:]), rcond=None)[0][0]
    assert -2.2 < slope < -1.2


# -------------------------------------------------------------- synthesis


def test_synthesize_orthonormal_family_identity():
    grid = TimeGrid(2 * PI, 4000)
    idx = (1, -1, 2, -2, 3, -3)
    members = np.exp(1j * np.outer(np.array(idx), grid.t)) / np.sqrt(2 * PI)
    fam = SequenceFamily(members, idx, "unit-fourier", grid)
    sig = synthesize(build_moment_problem(fam, unit_target(3)))
    # Gram = I, so a = rhs and f(t) = 2 sin(t) / sqrt(2 pi)
    assert np.allclose(sig.coefficients, [-1j, 1j, 0, 0, 0, 0], atol=1e-10)
    expected = 2.0 * np.sin(grid.t) / np.sqrt(2 * PI)
    assert np.max(np.abs(sig.f[0] - expected)) < 1e-10
    assert sig.residual_max < 1e-12
    assert sig.imag_max < 1e-12
    assert sig.norm == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert sig.f.shape == (1, len(grid))


@pytest.fixture(scope="module")
def pairs12():
    return compute_eigenpairs(INTERVAL, 12, alpha=0.0)


def test_synthesize_telegraph_round_numbers(pairs12):
    fam = telegraph_family(pairs12, 0.0, 2.5 * PI, steps=round(2.5 * PI / 1e-3))
    sig = synthesize(build_moment_problem(fam, unit_target(12)))
    assert sig.residual_max <= 1e-8 * sig.condition
    assert sig.imag_max <= 1e-12
    assert 3.5 < sig.frame_lower < 4.5
    assert sig.condition < 10.0


def test_synthesize_random_targets_stay_real(pairs12):
    fam = telegraph_family(pairs12, 0.0, 2.5 * PI, steps=4000)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        target = TargetState(rng.standard_normal(12), rng.standard_normal(12), 12)
        prob = build_moment_problem(fam, target)
        sig = synthesize(prob)
        assert sig.imag_max <= 1e-10
        scale = max(1.0, float(np.max(np.abs(prob.rhs))))
        assert sig.residual_max <= 1e-8 * sig.condition * scale


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_nan_rhs_fails_closed(case):
    # a NaN moment datum gives a NaN control; NaN > tol is False, so the
    # residual comparison must be not (residual <= tol)
    fam, pairs = _factor_case(case)
    prob = build_moment_problem(fam, unit_target(len(pairs)))
    rhs = prob.rhs.copy()
    rhs[2] = np.nan
    with pytest.raises(InternalConsistencyError, match="moment residual"):
        synthesize(dataclasses.replace(prob, rhs=rhs))


def test_short_horizon_fails_closed(pairs12):
    fam = telegraph_family(pairs12, 0.0, 0.5 * PI, steps=2000)
    with pytest.raises(NotControllableError) as err:
        synthesize(build_moment_problem(fam, unit_target(12)))
    assert err.value.exit_code == 4
    assert err.value.frame_lower < 1e-6
    assert "m_N" in str(err.value)
    # the horizon named is the family's own
    assert f"not solvable at T={fam.grid.T:.6g}:" in str(err.value)


def test_feasibility_monotone_from_precritical(pairs12):
    # once solvable at a pre-plateau horizon, every longer horizon solves
    # with a frame bound no worse and a condition number no worse
    results = {}
    for T in (1.6 * PI, 2.0 * PI, 2.5 * PI, 3.0 * PI):
        fam = telegraph_family(pairs12, 0.0, T, steps=round(T / 2e-3))
        results[T] = synthesize(build_moment_problem(fam, unit_target(12)))
    Ts = sorted(results)
    bounds = [results[T].frame_lower for T in Ts]
    assert all(b2 >= b1 * (1 - 1e-9) for b1, b2 in zip(bounds, bounds[1:]))
    first = results[Ts[0]].condition
    assert all(results[T].condition <= first for T in Ts[1:])


# ------------------------------------------------------------- factor form


def _factor_case(name):
    """(family, pairs) for one trace/beta regime of the factor form."""
    if name == "interval":
        grid = make_grid(2.5 * PI, 1e-2)
        ke = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)), grid)
        pairs = compute_eigenpairs(INTERVAL, 3, alpha=ke.alpha)
        return viscoelastic_family(compute_responses(ke, pairs)), pairs
    if name == "rectangle-right-top":
        dom = DomainSpec("rectangle", (PI, PI), gamma_subset=("right", "top"))
        pairs = compute_eigenpairs(dom, 3, alpha=0.5)
        return telegraph_family(pairs, 0.5, 2.5 * PI, steps=400,
                                gamma_weights=dom.gamma_weights()), pairs
    if name == "spanned":
        # 6 members on 6 time samples: the span is every grid function
        pairs = compute_eigenpairs(INTERVAL, 3, alpha=0.0)
        return telegraph_family(pairs, 0.0, 3.0, steps=5), pairs
    if name == "degenerate":
        dom = DomainSpec("interval", (PI,), q=0.75, c=0.5)
        pairs = compute_eigenpairs(dom, 2, alpha=0.5)
        assert pairs[0].in_J
        return telegraph_family(pairs, 0.5, PI, steps=500), pairs
    dom = DomainSpec("interval", (PI,), c=3.0)            # overdamped
    pairs = compute_eigenpairs(dom, 3, alpha=3.0)
    assert pairs[0].beta.real == 0 and pairs[0].beta.imag > 0
    return telegraph_family(pairs, 3.0, PI, steps=500), pairs


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top",
                                  "degenerate", "overdamped"])
def test_control_factors_rebuild_the_control(case):
    # for any coefficients, no conjugate symmetry assumed
    fam, pairs = _factor_case(case)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(fam.count) + 1j * rng.standard_normal(fam.count)
    traces, profiles = control_factors(fam, a, pairs)
    assert traces.dtype == profiles.dtype == float
    assert traces.shape == (len(pairs), fam.psi.shape[1])
    assert profiles.shape == (len(pairs), fam.grid.steps + 1)
    want = np.real(combination(fam, a, conjugate=True))[:, ::-1]
    gap = np.max(np.abs(traces.T @ profiles - want))
    assert gap <= 1e-12 * np.max(np.abs(want))


def test_control_factors_refuse_complex_trace():
    fam, pairs = _factor_case("interval")
    bad = [dataclasses.replace(pairs[0], psi=pairs[0].psi * (1 + 1j))]
    bad += pairs[1:]
    a = np.ones(fam.count, dtype=complex)
    with pytest.raises(InternalConsistencyError):
        control_factors(fam, a, bad)
    with pytest.raises(ConfigError):
        control_factors(fam, a, pairs[:-1])


# ------------------------------------------------------ min-norm spot check


def _norm_sq(fam, g):
    """Weighted L2 norm squared of a complex dense (nodes, steps+1) g."""
    return float(fam.gamma_weights
                 @ (np.real(g * np.conj(g)) @ trapezoid_weights(fam.grid)))


def _solved(case):
    """(family, Gram report, minimum-norm g, its norm) for a random target."""
    fam, pairs = _factor_case(case)
    rng = np.random.default_rng(3)
    K = len(pairs)
    target = TargetState(rng.standard_normal(K), rng.standard_normal(K), K)
    rep = gram(fam)
    a = np.linalg.solve(rep.gram, build_moment_problem(fam, target).rhs)
    g = combination(fam, a, conjugate=True)
    return fam, rep, g, np.sqrt(_norm_sq(fam, g))


def _spot_check(fam, rep, g, norm):
    """The spot check of synthesize on a complex g."""
    _min_norm_spot_check(_RealPasses(fam), rep, np.stack([g.real, g.imag]),
                         norm, seed=0, dirs=5)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_real_passes_match_the_complex_family_methods(case):
    # one node, and a last block shorter than the others
    fam, _ = _factor_case(case)
    nodes, samples = fam.psi.shape[1], fam.grid.steps + 1
    rng = np.random.default_rng(4)
    a = rng.standard_normal(fam.count) + 1j * rng.standard_normal(fam.count)
    dense = _RealPasses(fam)
    assert dense.blocks == node_blocks(nodes, 2 * fam.count * samples)
    sizes = [rows.stop - rows.start for rows in dense.blocks]
    assert sizes == [1] if case == "interval" else \
        len(sizes) > 2 and sizes[-1] < sizes[0]
    # the blocks tile the nodes, and each product of a block stays under
    # the multiply-adds that OpenBLAS runs on the calling thread
    assert sum(sizes) == nodes and dense.blocks[0].start == 0
    assert all(lo.stop == hi.start
               for lo, hi in zip(dense.blocks, dense.blocks[1:]))
    assert max(sizes) * 2 * fam.count * samples < CALLING_THREAD_MACS
    # so do the time Gram's products, one per chunk of time samples
    chunks = [c.stop - c.start for c in dense.chunks]
    assert dense.chunks == node_blocks(samples, (2 * fam.count) ** 2)
    assert sum(chunks) == samples and dense.chunks[0].start == 0
    assert all(lo.stop == hi.start
               for lo, hi in zip(dense.chunks, dense.chunks[1:]))
    assert max(chunks) * (2 * fam.count) ** 2 < CALLING_THREAD_MACS
    parts = np.empty((2, nodes, samples))
    moments, norm_sq = 0.0, 0.0
    for rows in dense.blocks:
        re, im = dense.combination(a, rows, parts[:, rows])
        moments = moments + dense.pairing(rows, re, im)
        norm_sq += dense.norm_sq(rows, re, im)
    g = combination(fam, a, conjugate=True)
    assert np.max(np.abs(parts[0] + 1j * parts[1] - g)) \
        <= 1e-14 * np.max(np.abs(g))
    want = pairing(fam, g)
    assert np.max(np.abs(moments - want)) <= 1e-14 * np.max(np.abs(want))
    assert norm_sq == pytest.approx(_norm_sq(fam, g), rel=1e-14)
    G = dense.gram()
    assert np.max(np.abs(G - gram(fam).gram)) <= 1e-14 * np.max(np.abs(G))


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_separable_pairing_matches_the_dense_pairing(case):
    # the spot check's factor moments of u (x) s against the blocked
    # pairing of the materialised outer product
    fam, _ = _factor_case(case)
    dense = _RealPasses(fam)
    rng = np.random.default_rng(0)
    u = _spot_direction(rng, np.empty(fam.psi.shape[1]))
    s = _spot_direction(rng, np.empty(fam.grid.steps + 1))
    v = np.outer(u, s)
    want = sum(dense.pairing(rows, v[rows], 0.0 * v[rows])
               for rows in dense.blocks)
    got = dense.separable_pairing(u, s)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(got - pairing(fam, v))) \
        <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top", "spanned"])
def test_spot_terms_match_the_dense_projection(case):
    # the factor-form moments and norms of each direction's v_perp against
    # v_perp materialised with the family's complex methods; on "spanned"
    # v lies in the span, so |v_perp|^2 is a near-total cancellation
    fam, rep, g, norm = _solved(case)
    moments_v, moments, v_sq, perturbed_sq = _spot_terms(
        _RealPasses(fam), rep, np.stack([g.real, g.imag]), seed=0, dirs=5)
    rng = np.random.default_rng(0)
    for d in range(5):
        u = _spot_direction(rng, np.empty(g.shape[0]))
        v = np.outer(u, _spot_direction(rng, np.empty(g.shape[1])))
        tol = 1e-10 * _norm_sq(fam, v)
        x = np.linalg.solve(rep.gram, pairing(fam, v))
        v_perp = v - combination(fam, x, conjugate=True)
        assert np.max(np.abs(moments_v[d] - pairing(fam, v))) <= tol
        assert np.max(np.abs(moments[d] - pairing(fam, v_perp))) <= tol
        assert v_sq[d] == pytest.approx(_norm_sq(fam, v_perp), abs=tol)
        assert perturbed_sq[d] == pytest.approx(_norm_sq(fam, g + v_perp),
                                                abs=tol)
        if case == "spanned":
            assert abs(v_sq[d]) <= tol
    _spot_check(fam, rep, g, norm)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_catches_a_control_off_minimum_norm(case):
    fam, rep, g, norm = _solved(case)
    _spot_check(fam, rep, g, norm)
    # the check's own first direction, u (x) s with u drawn first,
    # projected off the span with the family's complex methods:
    # g - 0.75 v_perp solves the same moments with a larger norm, and
    # adding v_perp back lowers it
    rng = np.random.default_rng(0)
    u = _spot_direction(rng, np.empty(g.shape[0]))
    v = np.outer(u, _spot_direction(rng, np.empty(g.shape[1])))
    x = np.linalg.solve(rep.gram, pairing(fam, v))
    v_perp = v - combination(fam, x, conjugate=True)
    bad = g - 0.75 * v_perp
    with pytest.raises(InternalConsistencyError, match="minimum-norm violated"):
        _spot_check(fam, rep, bad, np.sqrt(_norm_sq(fam, bad)))


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_fails_closed_on_nan(case):
    fam, rep, g, norm = _solved(case)
    bad = g.copy()
    bad[-1, -1] = np.nan
    with pytest.raises(InternalConsistencyError, match="minimum-norm violated"):
        _spot_check(fam, rep, bad, norm)
    with pytest.raises(InternalConsistencyError, match="minimum-norm violated"):
        _spot_check(fam, rep, g, np.nan)


@pytest.mark.parametrize("case", ["interval", "rectangle-right-top"])
def test_spot_check_catches_a_wrong_gram(case):
    # a Gram scaled by 2 removes half of the span component
    fam, rep, g, norm = _solved(case)
    wrong = dataclasses.replace(rep, gram=2.0 * rep.gram)
    with pytest.raises(InternalConsistencyError,
                       match="span projection left residual moments"):
        _spot_check(fam, wrong, g, norm)


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
    fam, rep, g, norm = _solved(case)
    parts = np.stack([g.real, g.imag])
    before = parts.copy()
    _min_norm_spot_check(_RealPasses(fam), rep, parts, norm, seed=0, dirs=5)
    assert np.array_equal(parts.view(np.uint64), before.view(np.uint64))


def test_spot_check_memory_stays_under_one_dense_array():
    # rank-one directions in factor form and one blocked pass over g: a
    # dense direction, a projected field or a copy of g would each add a
    # dense array
    fam, rep, g, norm = _solved("rectangle-right-top")
    dense, parts = _RealPasses(fam), np.stack([g.real, g.imag])
    tracemalloc.start()
    try:
        _min_norm_spot_check(dense, rep, parts, norm, seed=0, dirs=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes, samples = g.shape
    assert peak <= 0.15 * nodes * samples * 8
