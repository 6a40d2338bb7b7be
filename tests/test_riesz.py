import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memwave import (ConfigError, DomainSpec, InternalConsistencyError,
                     NotControllableError, SequenceFamily, TimeGrid,
                     biorthogonal, coefficient_decay_check,
                     compute_eigenpairs, gram,
                     paley_wiener_check, quadratic_closeness,
                     sine_cosine_family)
from memwave.exact import ExponentialFamily, exponential_gram_sweep

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
    fam = ExponentialFamily(rates, weights, "exp", psi, gw)
    horizons = [0.5, 2.0, 7.0]
    reps = exponential_gram_sweep(fam, horizons)
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
    fam = fourier_family(6, 2 * PI)
    rep = gram(fam, truncation=4)
    assert rep.gram.shape == (4, 4)
    # the leading block: members +1, -1, +2, -2
    full = gram(fam).gram
    assert np.max(np.abs(rep.gram - full[:4, :4])) <= 1e-14 * np.max(np.abs(full))
    with pytest.raises(ConfigError):
        gram(fam, truncation=13)


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
    duals, rep, residual = biorthogonal(fam)
    # inverse-Gram combinations: psi_1 = 4 - 6t, psi_2 = -6 + 12t
    assert np.max(np.abs(duals.members[0].ravel() - (4 - 6 * grid.t))) < 1e-5
    assert np.max(np.abs(duals.members[1].ravel() - (-6 + 12 * grid.t))) < 1e-5
    assert residual < 1e-12


def test_biorthogonal_duality_property():
    fam = fourier_family(4, 2 * PI)
    duals, _, _ = biorthogonal(fam)
    for m, member in enumerate(fam.members):
        pair = duals.inner_against(member.ravel())
        expected = np.zeros(8)
        expected[m] = 1.0
        assert np.max(np.abs(pair - expected)) < 1e-10


def test_biorthogonal_fails_closed_when_degenerate():
    fam = fourier_family(10, 0.3 * PI)   # far below the critical horizon
    with pytest.raises(NotControllableError) as err:
        biorthogonal(fam)
    assert err.value.frame_lower is not None
    assert err.value.condition is not None
    assert err.value.exit_code == 4


# ------------------------------------------------------ derived families


@pytest.fixture(scope="module")
def unit_interval_pairs():
    return compute_eigenpairs(DomainSpec("interval", (PI,)), 12, alpha=0.0)


def test_sine_cosine_gram_constants(unit_interval_pairs):
    cos_fam, sin_fam = sine_cosine_family(unit_interval_pairs, PI)
    # {cos nt} and {sin nt} are orthogonal on [0, pi] with norm^2 = pi/2;
    # endpoint-symmetric integrands make the trapezoid superconvergent
    for fam in (cos_fam, sin_fam):
        rep = gram(fam)
        assert abs(rep.m_N - PI / 2) < 1e-6
        assert abs(rep.M_N - PI / 2) < 1e-6


def test_cosine_bound_vs_exponential_bound(unit_interval_pairs):
    cos_fam, _ = sine_cosine_family(unit_interval_pairs, PI)
    m_cos = gram(cos_fam).m_N
    # the exponential family over the symmetric double horizon: spectrally
    # identical to [0, 2 pi] by shift invariance of the inner products
    m_exp = gram(fourier_family(12, 2 * PI)).m_N
    assert m_cos >= m_exp / 8.0
    assert m_cos == pytest.approx(m_exp / 4.0, rel=1e-6)


def test_sine_cosine_rejects_degenerate_modes():
    dom = DomainSpec("interval", (PI,), q=0.75, c=0.5)
    pairs = compute_eigenpairs(dom, 2, alpha=0.5)
    with pytest.raises(ConfigError):
        sine_cosine_family(pairs, PI)


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
    out = coefficient_decay_check(fam, combo)
    assert out["recovery_error"] < 1e-10
    assert out["exponent"] is None     # a single nonzero entry has no fit


def test_decay_exponent_separates_smooth_from_rough():
    fam = fourier_family(10, 2 * PI)
    betas = np.array([abs(n) for n in fam.index_set], dtype=float)
    smooth = (betas ** -1.5).astype(complex)
    rough = (betas ** -0.1).astype(complex)
    out_s = coefficient_decay_check(fam, smooth)
    out_r = coefficient_decay_check(fam, rough)
    assert out_s["exponent"] == pytest.approx(-1.5, abs=0.05)
    assert out_r["exponent"] == pytest.approx(-0.1, abs=0.05)
    assert out_s["exponent"] < -0.8 < -0.5 < out_r["exponent"]


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
    assert rep.M_N <= float(np.sum(fam.norms_sq())) + 1e-8


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
