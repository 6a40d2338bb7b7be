import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memwave import (ConfigError, InternalConsistencyError, SequenceFamily,
                     TimeGrid, gram, gram_reports, gram_sweep,
                     paley_wiener_check, quadratic_closeness)
from memwave.exact import _exponential_time_grams
from memwave.riesz import cholesky_solve, nested_levels

from family_reference import combination, inner_against, norms_sq

PI = np.pi


def interleave(n_max):
    out = []
    for n in range(1, n_max + 1):
        out += [n, -n]
    return tuple(out)


def fourier_family(n_max, T, steps=4000, label="fourier"):
    grid = TimeGrid(T, steps)
    idx = interleave(n_max)
    members = np.exp(1j * np.outer(np.array(idx), grid.t))
    return SequenceFamily(members, idx, label, grid)


def ramped_fourier(n_max):
    """A Fourier family on [0, 2 pi] with profiles ramped by 1 + 0.3 t,
    so its bounds move from level to level."""
    fam = fourier_family(n_max, 2 * PI, steps=1000)
    return SequenceFamily(fam.profiles * (1.0 + 0.3 * fam.grid.t),
                          fam.index_set, "ramped", fam.grid)


def dual_profiles(family):
    """Profiles of the in-span biorthogonal family of a one-node family,
    inverse Gram times the members: <member_n, dual_k> = delta_nk."""
    G = gram(family).gram
    return cholesky_solve(G, np.eye(len(G), dtype=complex)) \
        @ (family.psi * family.profiles)


def recover_coefficients(family, combo):
    """Coefficients of sum_k combo_k member_k read back through the
    Gram: its moments against the members are G^T combo."""
    phi = combination(family, combo)
    return np.linalg.solve(gram(family).gram.T, inner_against(family, phi))


def decay_exponent(coefficients):
    """Slope of log |a_k| against log |n| over the signed indices 1, -1,
    2, -2, ..."""
    n = np.repeat(np.arange(1, len(coefficients) // 2 + 1), 2)
    return float(np.polyfit(np.log(n), np.log(np.abs(coefficients)), 1)[0])


# ------------------------------------------------------------ Gram basics


def test_exponential_gram_matches_quadrature():
    # exponents whose pair sums s + conj(s') cover 0, the expm1 branch
    # (|x| T < 1, here down to 2e-4) and the difference branch, with
    # growth and decay; Gauss-Legendre on 120 nodes is exact to rounding
    rates = np.array([[0.0, 1e-4, -0.3 + 2.0j],
                      [0.5j, -0.5j, 0.2 - 1.0j],
                      [-1.5 + 3.0j, 1e-4 + 0.7j, -0.05]])
    rng = np.random.default_rng(5)
    weights = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    psi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    gw = np.array([0.5, 2.0])
    horizons = [0.5, 2.0, 7.0]
    (reps,) = gram_reports([(psi, _exponential_time_grams(rates, weights,
                                                           horizons), "exp")],
                           gw)
    x, w = np.polynomial.legendre.leggauss(120)
    boundary = (psi * gw) @ np.conj(psi).T
    for T, rep in zip(horizons, reps):
        t = 0.5 * T * (x + 1.0)
        profiles = np.einsum("kd,kdt->kt", weights,
                             np.exp(rates[:, :, None] * t))
        G = boundary * ((profiles * (0.5 * T * w)) @ np.conj(profiles).T)
        assert np.max(np.abs(rep.gram - G)) <= 1e-13 * np.max(np.abs(G)), T


def test_fourier_gram_orthogonal():
    fam = fourier_family(6, 2 * PI)
    G = gram(fam).gram
    # full-period trapezoid is exact for these trigonometric polynomials
    assert np.max(np.abs(G - 2 * PI * np.eye(12))) < 1e-10


def test_gram_report_frame_bounds_nested():
    rep = gram(fourier_family(5, 2 * PI))
    assert rep.m_N == pytest.approx(2 * PI, rel=1e-10)
    assert rep.M_N == pytest.approx(2 * PI, rel=1e-10)
    assert rep.cond == pytest.approx(1.0, rel=1e-9)
    # Cauchy interlacing: lower bounds fall, upper bounds rise with k
    assert np.all(np.diff(rep.frame_lower) <= 1e-10)
    assert np.all(np.diff(rep.frame_upper) >= -1e-10)


def test_undercritical_horizon_collapses_bounds():
    full = gram(fourier_family(8, 2 * PI))
    short = gram(fourier_family(8, 0.5 * PI))
    assert short.m_N < 1e-3 * full.m_N
    assert short.cond > 1e3 * full.cond


def test_truncation_selects_leading_block():
    # frame_lower[k - 1] and frame_upper[k - 1] are the bounds of the
    # first k members (+1, -1, +2, ...), the leading k x k block; the
    # ramp keeps the bounds apart from level to level
    fam = ramped_fourier(6)
    rep = gram(fam)
    for k in range(1, fam.count + 1):
        sub = gram(fam.subfamily(range(k)))
        assert np.max(np.abs(sub.gram - rep.gram[:k, :k])) \
            <= 1e-14 * np.max(np.abs(rep.gram))
        assert sub.m_N == pytest.approx(rep.frame_lower[k - 1], rel=1e-12)
        assert sub.M_N == pytest.approx(rep.frame_upper[k - 1], rel=1e-12)


def test_nested_levels_keep_every_level_to_32_then_grow_geometrically():
    assert nested_levels(1) == (1,)
    assert nested_levels(16) == tuple(range(1, 17))
    assert nested_levels(32) == tuple(range(1, 33))
    assert nested_levels(33) == tuple(range(1, 34))
    assert nested_levels(80) == tuple(range(1, 33)) + (40, 50, 63, 79, 80)
    for n in (100, 640):
        levels = nested_levels(n)
        assert levels[:32] == tuple(range(1, 33)) and levels[-1] == n
        assert all(b == min(n, -(-5 * a // 4))
                   for a, b in zip(levels[31:], levels[32:]))


def test_sampled_levels_equal_the_full_curve():
    # 80 members: the report's bounds at its levels are, bit for bit,
    # those of every leading block's own eigenvalue call
    rep = gram(ramped_fourier(40))
    assert rep.levels == nested_levels(80)
    assert set(range(1, 33)) <= set(rep.levels) and rep.levels[-1] == 80
    full = [np.linalg.eigvalsh(rep.gram[:k, :k]) for k in range(1, 81)]
    want_lo = np.array([full[k - 1][0] for k in rep.levels])
    want_hi = np.array([full[k - 1][-1] for k in rep.levels])
    assert np.array_equal(rep.frame_lower, want_lo)
    assert np.array_equal(rep.frame_upper, want_hi)
    assert np.array_equal(rep.condition, want_hi / want_lo)
    assert rep.m_N == full[-1][0] and rep.M_N == full[-1][-1]


def test_interlacing_fires_at_a_sampled_level_above_32(monkeypatch):
    # every eigenvalue of the 50 x 50 leading blocks raised by 1, so
    # m_50 > m_40
    fam = ramped_fourier(40)
    assert 50 in gram(fam).levels
    eigvalsh = np.linalg.eigvalsh

    def bent(a, *args, **kwargs):
        vals = eigvalsh(a, *args, **kwargs)
        return vals + 1.0 if a.shape[-1] == 50 else vals
    monkeypatch.setattr(np.linalg, "eigvalsh", bent)
    with pytest.raises(InternalConsistencyError, match="interlacing"):
        gram(fam)


def test_lower_bounds_below_the_rounding_floor_read_zero(monkeypatch):
    # a rank-3 Gram of 6 members with eigenvalues 1e6, 1 and 1e-3: the
    # leading blocks of 4 to 6 members are singular, and their computed
    # lower bounds are rounding noise of either sign.  Those below the
    # floor k eps M_k read 0 and are flagged; the others keep their bits
    rng = np.random.default_rng(0)
    V = np.linalg.qr(rng.standard_normal((6, 3))
                     + 1j * rng.standard_normal((6, 3)))[0]
    G = (V * [1e6, 1.0, 1e-3]) @ np.conj(V).T
    ((rep,),) = gram_reports([(np.ones((6, 1)), G[None], "rank-3")],
                             np.ones(1))
    raw = np.array([np.linalg.eigvalsh(rep.gram[:k, :k])[0]
                    for k in rep.levels])
    high = np.array([np.linalg.eigvalsh(rep.gram[:k, :k])[-1]
                     for k in rep.levels])
    floor = np.array(rep.levels) * np.finfo(float).eps * high
    assert rep.levels == (1, 2, 3, 4, 5, 6)
    assert list(rep.at_floor) == [False] * 3 + [True] * 3
    assert np.array_equal(rep.at_floor, raw < floor)
    assert np.all(raw >= -floor) and np.any(raw[3:] < 0.0)
    assert np.array_equal(rep.frame_lower, np.where(raw < floor, 0.0, raw))
    assert np.all(np.isinf(rep.condition[3:])) and rep.m_N == 0.0
    assert np.array_equal(rep.condition[:3], high[:3] / raw[:3])
    # interlacing reads the computed bounds: a level-4 bound bent to -1,
    # below level 5's, fails, though the floor would write both as 0
    eigvalsh = np.linalg.eigvalsh

    def bent(a, *args, **kwargs):
        vals = eigvalsh(a, *args, **kwargs)
        if a.shape[-1] == 4:
            vals[..., 0] = -1.0
        return vals
    monkeypatch.setattr(np.linalg, "eigvalsh", bent)
    with pytest.raises(InternalConsistencyError, match="interlacing"):
        gram_reports([(np.ones((6, 1)), G[None], "rank-3")], np.ones(1))


def test_indefinite_gram_fails_closed():
    # a Gram with eigenvalue -0.1 M (as a sign or quadrature defect
    # would make it) is no rounding floor: the pass stops naming the
    # family, where the floor would have written its bound as 0
    rng = np.random.default_rng(0)
    V = np.linalg.qr(rng.standard_normal((6, 3))
                     + 1j * rng.standard_normal((6, 3)))[0]
    good = (V * [1e6, 1.0, 1e-3]) @ np.conj(V).T
    bad = (V * [1e6, 1.0, -1e5]) @ np.conj(V).T
    ones = np.ones((6, 1))
    with pytest.raises(InternalConsistencyError,
                       match="'indefinite' is not positive semidefinite"):
        gram_reports([(ones, good[None], "rank-3"),
                      (ones, bad[None], "indefinite")], np.ones(1))


def test_one_report_pass_needs_matching_families():
    # the families of one pass share their member count, horizon count
    # and (through gram_sweep) their boundary weights
    T = np.eye(2, dtype=complex)[None]
    gw = np.ones(1)
    ones = np.ones((2, 1), dtype=complex)
    with pytest.raises(ConfigError, match="has 3 members and 1 horizons"):
        gram_reports([(ones, T, "a"), (np.ones((3, 1)), T, "b")], gw)
    with pytest.raises(ConfigError, match="has 2 members and 2 horizons"):
        gram_reports([(ones, T, "a"), (ones, np.concatenate([T, T]), "b")],
                     gw)
    fam = fourier_family(1, 2 * PI, steps=100)
    heavy = SequenceFamily(fam.profiles, fam.index_set, "heavy", fam.grid,
                           2.0 * fam.gamma_weights)
    with pytest.raises(ConfigError, match="same gamma_weights"):
        gram_sweep([fam, heavy], [100])


def test_constant_and_ramp_gram_oracle():
    # members {1, t} on [0,1]: hand-computed Gram [[1,1/2],[1/2,1/3]]
    grid = TimeGrid(1.0, 2000)
    members = np.vstack([np.ones(len(grid)), grid.t])
    fam = SequenceFamily(members.astype(complex), (1, 2), "poly", grid)
    G = gram(fam).gram
    assert np.max(np.abs(G - [[1.0, 0.5], [0.5, 1.0 / 3.0]])) < 1e-7


# ---------------------------------------------------------- biorthogonal


def test_biorthogonal_poly_duals_closed_form():
    grid = TimeGrid(1.0, 4000)
    members = np.vstack([np.ones(len(grid)), grid.t]).astype(complex)
    fam = SequenceFamily(members, (1, 2), "poly", grid)
    duals = dual_profiles(fam)
    # inverse-Gram combinations: psi_1 = 4 - 6t, psi_2 = -6 + 12t
    assert np.max(np.abs(duals[0] - (4 - 6 * grid.t))) < 1e-5
    assert np.max(np.abs(duals[1] - (-6 + 12 * grid.t))) < 1e-5


def test_biorthogonal_duality_property():
    fam = fourier_family(4, 2 * PI)
    duals = SequenceFamily(dual_profiles(fam), fam.index_set, "dual",
                           fam.grid)
    for m, member in enumerate(fam.members):
        pair = inner_against(duals, member.ravel())
        expected = np.zeros(8)
        expected[m] = 1.0
        assert np.max(np.abs(pair - expected)) < 1e-10


# ------------------------------------------------------ derived families


def cosine_sine_families(n_max, T, steps):
    """{cos n t} and {sin n t}, n = 1..n_max, on [0, T]."""
    grid = TimeGrid(T, steps)
    bt = np.outer(np.arange(1, n_max + 1), grid.t)
    idx = tuple(range(1, n_max + 1))
    return (SequenceFamily(np.cos(bt), idx, "cosine", grid),
            SequenceFamily(np.sin(bt), idx, "sine", grid))


def test_sine_cosine_gram_constants():
    # {cos nt} and {sin nt} are orthogonal on [0, pi] with norm^2 = pi/2;
    # endpoint-symmetric integrands make the trapezoid superconvergent
    for fam in cosine_sine_families(12, PI, round(PI / 1e-3)):
        rep = gram(fam)
        assert abs(rep.m_N - PI / 2) < 1e-6
        assert abs(rep.M_N - PI / 2) < 1e-6


def test_cosine_bound_vs_exponential_bound():
    cos_fam, _ = cosine_sine_families(12, PI, round(PI / 1e-3))
    m_cos = gram(cos_fam).m_N
    # the exponential family over the symmetric double horizon: spectrally
    # identical to [0, 2 pi] by shift invariance of the inner products
    m_exp = gram(fourier_family(12, 2 * PI)).m_N
    assert m_cos >= m_exp / 8.0
    assert m_cos == pytest.approx(m_exp / 4.0, rel=1e-6)


# ------------------------------------------------------------ closeness


def test_quadratic_closeness_exact_values():
    fam = fourier_family(8, 2 * PI)
    eps = np.array([1.0 / abs(n) ** 2 for n in fam.index_set])
    other = SequenceFamily(fam.profiles + eps[:, None],
                           fam.index_set, "shifted", fam.grid)
    out = quadratic_closeness(fam, other, block=4)
    expected = eps ** 2 * 2 * PI      # constant offset of norm |eps| each
    assert np.max(np.abs(out["dist_sq"] - expected)) < 1e-10
    sums = out["block_sums"]
    assert all(sums[i] > sums[i + 1] for i in range(len(sums) - 1))
    assert out["total"] == pytest.approx(float(np.sum(expected)), rel=1e-10)


def test_closeness_requires_matching_index_sets():
    a = fourier_family(3, 2 * PI)
    b = fourier_family(4, 2 * PI)
    with pytest.raises(ConfigError):
        quadratic_closeness(a, b)


def test_paley_wiener_tail_bound():
    exact = fourier_family(10, 2 * PI)
    wobble = np.array([0.02 / abs(n) for n in exact.index_set])
    perturbed = SequenceFamily(exact.profiles + wobble[:, None],
                               exact.index_set, "perturbed", exact.grid)
    out = paley_wiener_check(perturbed, exact, start=4)
    assert out["hypothesis"]
    assert out["measured_lower"] >= out["predicted_lower"] * (1 - 1e-8)
    assert out["rho"] < out["m_comparator"]


# --------------------------------------------------------- decay checks


def test_coefficient_recovery_is_exact():
    fam = fourier_family(6, 2 * PI)
    combo = np.zeros(12, dtype=complex)
    combo[4] = 1.0                     # member with index +3
    assert np.max(np.abs(recover_coefficients(fam, combo) - combo)) < 1e-10


def test_decay_exponent_separates_smooth_from_rough():
    fam = fourier_family(10, 2 * PI)
    betas = np.array([abs(n) for n in fam.index_set], dtype=float)
    smooth = decay_exponent(recover_coefficients(fam, betas ** -1.5 + 0j))
    rough = decay_exponent(recover_coefficients(fam, betas ** -0.1 + 0j))
    assert smooth == pytest.approx(-1.5, abs=0.05)
    assert rough == pytest.approx(-0.1, abs=0.05)
    assert smooth < -0.8 < -0.5 < rough


# ----------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(20, 60), st.integers(0, 10 ** 6))
def test_random_families_have_sane_gram(count, steps, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, steps)
    members = rng.standard_normal((count, steps + 1)) \
        + 1j * rng.standard_normal((count, steps + 1))
    fam = SequenceFamily(members, tuple(range(1, count + 1)), "random", grid)
    rep = gram(fam)        # internal interlacing check must not fire
    assert rep.frame_lower[-1] >= -1e-10
    # largest eigenvalue is bounded by the trace
    assert rep.M_N <= float(np.sum(norms_sq(fam))) + 1e-8


def test_scalar_members_promote_to_one_node():
    grid = TimeGrid(1.0, 100)
    fam = SequenceFamily(np.ones((2, 101), dtype=complex), (1, 2), "flat", grid)
    assert fam.members.shape == (2, 1, 101)
    assert fam.psi.shape == (2, 1) and np.all(fam.psi == 1)


def test_subfamily_keeps_grid_and_labels():
    fam = fourier_family(5, 2 * PI)
    sub = fam.subfamily([0, 3, 4])
    assert sub.count == 3
    assert sub.index_set == (1, -2, 3)
    assert sub.grid is fam.grid


def test_restrict_slices_members_and_keeps_step():
    fam = fourier_family(3, 2 * PI, steps=400)
    short = fam.restrict(300)
    assert short.grid == fam.grid.restrict(300)
    assert short.grid.h == fam.grid.h and short.index_set == fam.index_set
    fresh = np.exp(1j * np.outer(np.array(fam.index_set), short.grid.t))
    assert np.array_equal(short.members[:, 0, :], fresh)
    assert fam.restrict(400).grid is fam.grid
    with pytest.raises(ConfigError):
        fam.restrict(401)
