import numpy as np
import pytest

from memwave import (ConfigError, ConvergenceError, DomainSpec, KernelSpec,
                     asymptotic_residual, comparator_profile,
                     compute_eigenpairs, compute_response, compute_responses,
                     TimeGrid, forcing_K, make_grid, march_modal, normalize,
                     refined_S, solve_Z, solve_z)
from memwave.volterra import BLOCK, transformed_exponential

PI = np.pi


def zero_kernel(T, h, c=0.0):
    return normalize(KernelSpec("zero", c=c), make_grid(T, h))


@pytest.fixture(scope="module")
def memory_kernel():
    return normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                rates=(1.0,)), make_grid(PI, 1e-3))


# ---------------------------------------------------------- closed forms


def test_z_cosine_oracle():
    # phase error accumulates like T beta^3 h^2; the 1e-5 band is the
    # low-mode regime (lam=25 at T=2 already measures 1.7e-5)
    ker = zero_kernel(2.0, 1e-3)
    for lam in (1.0, 4.0, 9.0):
        z = solve_z(ker, lam)
        assert np.max(np.abs(z - np.cos(np.sqrt(lam) * ker.t))) < 1e-5


def test_z_damped_oracle():
    c = 0.5
    ker = zero_kernel(2.0, 1e-3, c=c)
    for lam in (1.0, 4.0):
        beta = np.sqrt(lam - c * c)
        t = ker.t
        exact = np.exp(c * t) * (np.cos(beta * t) + (c / beta) * np.sin(beta * t))
        assert np.max(np.abs(solve_z(ker, lam) - exact)) < 1e-5


def test_z_zero_frequency_oracle():
    # lam_sq = 0 decouples the convolution: z = e^{2 alpha t}
    ker = zero_kernel(1.0, 1e-3, c=-0.7)
    z = solve_z(ker, 0.0)
    assert np.max(np.abs(z - np.exp(-1.4 * ker.t))) < 1e-6


def test_z_order_two_under_halving():
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        ker = zero_kernel(2.0, h)
        errs.append(np.max(np.abs(solve_z(ker, 9.0) - np.cos(3 * ker.t))))
    assert errs[0] / errs[1] > 3.6 and errs[1] / errs[2] > 3.6


def test_Z_pure_exponential_oracle():
    # memoryless undamped: the assembled response is exactly e^{i n t}
    ker = zero_kernel(2 * PI, 1e-3)
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 3, alpha=0.0)
    for p in pairs:
        Z = solve_Z(ker, p)
        assert np.max(np.abs(Z - np.exp(1j * p.index * ker.t))) < 2e-5


def test_degenerate_mode_closed_form():
    # J-mode construction q = 1 - c^2 (memoryless): exact polynomial form
    c = 0.5
    dom = DomainSpec("interval", (PI,), q=1 - c * c, c=c)
    pairs = compute_eigenpairs(dom, 1, alpha=c)
    assert pairs[0].in_J
    ker = zero_kernel(2.0, 1e-3, c=c)
    r = compute_response(ker, pairs[0])
    t = ker.t
    exactZ = np.exp(c * t) * (1.0 + (c + 1j) * t)
    assert np.max(np.abs(r.Z - exactZ)) < 2e-6
    # S = e^{-alpha t} Z follows 1 + (c + i) t; with N1 = 0 the right-hand
    # side G of the S equation is exactly its transformed-exponential base
    exactS = 1.0 + (c + 1j) * t
    assert np.max(np.abs(r.S - exactS)) < 2e-6
    assert np.max(np.abs(transformed_exponential(pairs[0], c, t) - exactS)) < 1e-12


# ------------------------------------------------- cross-route consistency


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_two_route_agreement_memory(c):
    dom = DomainSpec("interval", (PI,), c=c)
    ker = normalize(KernelSpec("exponential_sum", c=c, coefficients=(1.0,),
                               rates=(1.0,)), make_grid(PI, 1e-3))
    pairs = compute_eigenpairs(dom, 40, alpha=ker.alpha)
    worst = 0.0
    for p in pairs[::7] + [pairs[-1]]:
        Zv, Zm, *_ = solve_Z(ker, p, return_march=True)
        worst = max(worst, float(np.max(np.abs(Zv - Zm))))
    assert worst < 1e-5


def test_route_gap_shrinks_with_grid():
    dom = DomainSpec("interval", (PI,))
    spec = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
    pair = compute_eigenpairs(dom, 12, alpha=-0.5)[11]
    gaps = []
    for h in (2e-3, 1e-3):
        ker = normalize(spec, make_grid(PI, h))
        Zv, Zm, *_ = solve_Z(ker, pair, return_march=True)
        gaps.append(float(np.max(np.abs(Zv - Zm))))
    assert gaps[1] < gaps[0] / 3.0


def test_conjugate_response_is_exact(memory_kernel):
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 3, alpha=-0.5)
    r = compute_response(memory_kernel, pairs[2])
    rc = r.conjugate()
    assert rc.n == -3
    assert np.array_equal(rc.Z, np.conj(r.Z))
    assert np.array_equal(rc.S, np.conj(r.S))
    assert np.array_equal(rc.trace, np.conj(r.trace))


def test_restriction_matches_fresh_computation(memory_kernel):
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 2, alpha=-0.5)
    full = compute_response(memory_kernel, pairs[1])
    half_steps = memory_kernel.grid.steps // 2
    sliced = full.restrict(half_steps)
    fresh_ker = memory_kernel.restrict(half_steps)
    fresh = compute_response(fresh_ker, pairs[1])
    # marches are causal: restriction of the fields is exact
    assert np.array_equal(sliced.z, fresh.z)
    assert np.max(np.abs(sliced.Z - fresh.Z)) < 1e-13
    assert np.max(np.abs(sliced.S - fresh.S)) < 1e-13


def test_batch_independence(memory_kernel):
    # a mode's result must not depend on which other modes share its batch
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 12, alpha=-0.5)
    some = [pairs[1], pairs[6], pairs[10]]
    big = compute_responses(memory_kernel, pairs)
    small = compute_responses(memory_kernel, some)
    march = {}
    for batch in (pairs, some):
        lam = np.array([p.lambda_sq for p in batch])
        K = np.stack([forcing_K(memory_kernel, p) for p in batch], axis=1)
        Zm = march_modal(memory_kernel, lam, memory_kernel.alpha, forcing=K)
        march[len(batch)] = {p.index: Zm[:, i] for i, p in enumerate(batch)}
    for p in some:
        n = p.index
        assert np.array_equal(big[n].z, small[n].z)
        assert np.array_equal(big[n].Z, small[n].Z)
        assert np.array_equal(march[12][n], march[3][n])
        Zv, Zm, z, *_ = solve_Z(memory_kernel, p, return_march=True)
        assert np.max(np.abs(big[n].z - z)) <= 1e-14 * np.max(np.abs(z))
        assert np.max(np.abs(big[n].Z - Zv)) <= 1e-14 * np.max(np.abs(Zv))
        assert np.max(np.abs(march[12][n] - Zm)) <= 1e-14 * np.max(np.abs(Zm))


# ------------------------------------------- recursion against the direct sum


def direct_march(kernel, lam_sq, alpha, y0=1.0, forcing=None):
    """Reference march: the product-trapezoid history re-summed at every
    step, O(m^2), with no use of the kernel's exact terms."""
    N, h, m = kernel.N, kernel.h, kernel.grid.steps
    D = 1.0 - alpha * h + lam_sq * h * h * N[0] / 4.0
    y = np.empty(m + 1, dtype=complex if np.iscomplexobj(forcing) else float)
    y[0] = y0
    I_prev = 0.0
    for j in range(1, m + 1):
        P = h * (0.5 * N[j] * y[0] + np.dot(N[j - 1:0:-1], y[1:j]))
        rhs = y[j - 1] * (1.0 + alpha * h) - 0.5 * lam_sq * h * (I_prev + P)
        if forcing is not None:
            rhs = rhs + 0.5 * h * (forcing[j - 1] + forcing[j])
        y[j] = rhs / D
        I_prev = P + 0.5 * h * N[0] * y[j]
    return y


def _tabulated_exp(grid):
    m = np.exp(-grid.t)
    return KernelSpec("tabulated", samples=m, samples_d1=-m, samples_d2=m)


ORACLE_KERNELS = {
    "zero": lambda g: KernelSpec("zero", c=0.5),
    # repeated rate 1 and a rate-0 term, which gives t exp(2 gamma t)
    "exponential_sum": lambda g: KernelSpec(
        "exponential_sum", coefficients=(1.0, 0.5, 0.3), rates=(1.0, 1.0, 0.0)),
    # degree 2 gives a t^3 exp(2 gamma t) term
    "polynomial": lambda g: KernelSpec("polynomial",
                                       coefficients=(1.0, -0.5, 0.2)),
    "tabulated": _tabulated_exp,
}


@pytest.mark.parametrize("family", sorted(ORACLE_KERNELS))
def test_march_matches_direct_sum(family):
    grid = make_grid(2.0, 1e-3)
    ker = normalize(ORACLE_KERNELS[family](grid), grid)
    if family == "exponential_sum":
        assert ker.terms.decays == ((1.5, 1.0), (0.3, 0.0))
    if family == "polynomial":
        assert len(ker.terms.poly) == 4
    lam = 9.0
    z = march_modal(ker, lam, ker.alpha)
    ref = direct_march(ker, lam, ker.alpha)
    assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))
    forcing = ker.Np + 3j * ker.N
    Z = march_modal(ker, lam, ker.alpha, forcing=forcing)
    ref = direct_march(ker, lam, ker.alpha, forcing=forcing)
    assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))
    # a batch column is the same march as the single mode
    lams = np.array([1.0, lam, 25.0])
    Zb = march_modal(ker, lams, ker.alpha,
                     forcing=np.repeat(forcing[:, None], 3, axis=1))
    assert np.max(np.abs(Zb[:, 1] - Z)) <= 1e-14 * np.max(np.abs(Z))


@pytest.mark.parametrize("b", [1e-6, 1e-9, 1e-12])
def test_small_rate_has_no_cancellation(b):
    # a/b (1 - e^{-bt}) loses ~log10(1/(b t)) digits; expm1 loses none
    grid = make_grid(2.5 * PI, 1e-2)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(b,)), grid)
    t = grid.t
    exact = np.exp(2.0 * ker.gamma * t) * (1.0 - np.expm1(-b * t) / b)
    assert np.max(np.abs(ker.N - exact)) <= 1e-13 * np.max(np.abs(exact))
    lam = 4.0
    forcing = ker.Np + 2j * ker.N
    for f in (None, forcing):
        y = march_modal(ker, lam, ker.alpha, forcing=f)
        ref = direct_march(ker, lam, ker.alpha, forcing=f)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


def _oracle_batch(family, steps, h=1e-2):
    grid = TimeGrid(steps * h, steps, h)
    ker = normalize(ORACLE_KERNELS[family](grid), grid)
    lams = np.array([1.0, 9.0, 30.0])
    forcing = np.stack([ker.Np + 1j * k * ker.N for k in (1, 3, 5)], axis=1)
    return ker, lams, forcing


@pytest.mark.parametrize("family", ["zero", "exponential_sum", "polynomial"])
@pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_block_boundaries_match_direct_sum(family, steps):
    ker, lams, forcing = _oracle_batch(family, steps)
    z = march_modal(ker, lams, ker.alpha)
    Z = march_modal(ker, lams, ker.alpha, forcing=forcing)
    assert z.shape == (steps + 1, 3) and Z.shape == (steps + 1, 3)
    for i, lam in enumerate(lams):
        for y, f in ((z[:, i], None), (Z[:, i], forcing[:, i])):
            ref = direct_march(ker, lam, ker.alpha, forcing=f)
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_restricted_march_equals_fresh_march(k):
    # blocks align from step 0 and the padding forcing is zero, so the
    # first k steps of a long march are a k-step march, bit for bit
    ker, lams, forcing = _oracle_batch("exponential_sum", 5 * BLOCK + 3)
    short = ker.restrict(k)
    assert np.array_equal(march_modal(ker, lams, ker.alpha)[:k + 1],
                          march_modal(short, lams, short.alpha))
    for f in (forcing, forcing.imag):
        assert np.array_equal(
            march_modal(ker, lams, ker.alpha, forcing=f)[:k + 1],
            march_modal(short, lams, short.alpha, forcing=f[:k + 1]))


def test_batch_of_one_equals_batch_column():
    ker, lams, forcing = _oracle_batch("polynomial", 4 * BLOCK + 5)
    z = march_modal(ker, lams, ker.alpha)
    Z = march_modal(ker, lams, ker.alpha, forcing=forcing)
    for i, lam in enumerate(lams):
        one = march_modal(ker, lams[i:i + 1], ker.alpha)
        assert np.array_equal(one[:, 0], z[:, i])
        assert np.array_equal(march_modal(ker, lam, ker.alpha), z[:, i])
        one = march_modal(ker, lams[i:i + 1], ker.alpha,
                          forcing=forcing[:, i:i + 1])
        assert np.array_equal(one[:, 0], Z[:, i])
        assert np.array_equal(
            march_modal(ker, lam, ker.alpha, forcing=forcing[:, i]), Z[:, i])


# ------------------------------------------------------- refined S and G


def test_refined_S_matches_direct_at_low_modes(memory_kernel):
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 5, alpha=-0.5)
    for p in pairs:
        r = compute_response(memory_kernel, p)
        Sr = refined_S(memory_kernel, p)
        assert np.max(np.abs(Sr - r.S)) < 5e-5


def test_refined_S_self_converges():
    dom = DomainSpec("interval", (PI,))
    spec = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
    pair = compute_eigenpairs(dom, 30, alpha=-0.5)[29]
    vals = []
    for h in (2e-3, 1e-3, 5e-4):
        ker = normalize(spec, make_grid(PI, h))
        vals.append(refined_S(ker, pair)[-1])
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1]) / 3.0


def test_refined_S_rejects_degenerate(memory_kernel):
    dom = DomainSpec("interval", (PI,), q=1 - 0.25, c=0.5)
    ker = zero_kernel(1.0, 1e-3, c=0.5)
    pair = compute_eigenpairs(dom, 1, alpha=0.5)[0]
    with pytest.raises(ConfigError):
        refined_S(ker, pair)


def test_comparator_reduces_to_exponential_without_memory():
    ker = zero_kernel(2.0, 1e-3)
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=0.0)
    C = comparator_profile(ker, pairs[3])
    assert np.max(np.abs(C - np.exp(4j * ker.t))) < 1e-12


def test_asymptotic_residual_slope(memory_kernel):
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 40, alpha=-0.5)
    resp = compute_responses(memory_kernel, pairs)
    refined = {p.index: refined_S(memory_kernel, p) for p in pairs}
    fit = asymptotic_residual([resp[n] for n in range(5, 41)],
                              surrogate=refined)
    assert -1.15 < fit["slope"] < -0.85


def test_asymptotic_residual_needs_enough_modes(memory_kernel):
    pairs = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=-0.5)
    resp = compute_responses(memory_kernel, pairs)
    with pytest.raises(ConfigError):
        asymptotic_residual(resp.values())


# ------------------------------------------------------------- guards


def test_march_envelope_tripwire():
    # strongly negative lambda_sq grows like cosh and must be refused
    ker = zero_kernel(2.0, 1e-3)
    with pytest.raises(ConvergenceError):
        solve_z(ker, -100.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_march_rejects_nonfinite_forcing(bad):
    ker = zero_kernel(1.0, 1e-3)
    with pytest.raises(ConvergenceError, match="step 1 "):
        march_modal(ker, 1.0, 0.0, forcing=np.full(1001, bad))
    forcing = np.zeros((1001, 3))
    forcing[500:, 2] = bad
    with pytest.raises(ConvergenceError, match="step 500 .* column 2"):
        march_modal(ker, np.array([1.0, 4.0, 9.0]), 0.0, forcing=forcing)


def test_forced_zero_forcing_matches_homogeneous(memory_kernel):
    lam = 9.0
    y_h = solve_z(memory_kernel, lam)
    y_f = march_modal(memory_kernel, lam, memory_kernel.alpha, y0=1.0,
                      forcing=np.zeros(len(memory_kernel.t)))
    assert np.max(np.abs(y_h - y_f)) < 1e-14
