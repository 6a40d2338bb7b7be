import dataclasses
import tracemalloc

import numpy as np
import pytest

from memwave import volterra
from memwave import (ConfigError, ConvergenceError, DomainSpec, KernelSpec,
                     Spectrum, asymptotic_residual, comparator_profile,
                     compute_eigenpairs, compute_responses, TimeGrid,
                     convolve, make_grid, march_modal, normalize, refined_S)
from memwave import InternalConsistencyError
from memwave.kernels import kernel_terms
from memwave.exact import exact_modes, transformed_exponential_terms
from memwave.volterra import (BLOCK, _assemble_Z, _consistency_tol,
                              _forcing_factors, growth_envelope,
                              transformed_exponential)

PI = np.pi


def zero_kernel(T, h, c=0.0):
    return normalize(KernelSpec("zero", c=c), make_grid(T, h))


def Z_forcing(kernel, modes):
    """The forcing of the Z equation, a row per mode."""
    return kernel.Np + _forcing_factors(modes)[:, None] * kernel.N


def marched_Z(kernel, modes):
    """Z of every mode by the direct march, the route the
    variation-of-constants assembly is checked against."""
    return march_modal(kernel, modes.lambda_sq, kernel.alpha,
                       forcing=Z_forcing(kernel, modes))


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
        z = march_modal(ker, lam, ker.alpha)
        assert np.max(np.abs(z - np.cos(np.sqrt(lam) * ker.t))) < 1e-5


def test_z_damped_oracle():
    c = 0.5
    ker = zero_kernel(2.0, 1e-3, c=c)
    for lam in (1.0, 4.0):
        beta = np.sqrt(lam - c * c)
        t = ker.t
        exact = np.exp(c * t) * (np.cos(beta * t) + (c / beta) * np.sin(beta * t))
        assert np.max(np.abs(march_modal(ker, lam, ker.alpha) - exact)) < 1e-5


def test_z_zero_frequency_oracle():
    # lam_sq = 0 decouples the convolution: z = e^{2 alpha t}
    ker = zero_kernel(1.0, 1e-3, c=-0.7)
    z = march_modal(ker, 0.0, ker.alpha)
    assert np.max(np.abs(z - np.exp(-1.4 * ker.t))) < 1e-6


def test_z_order_two_under_halving():
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        ker = zero_kernel(2.0, h)
        errs.append(np.max(np.abs(march_modal(ker, 9.0, ker.alpha)
                                  - np.cos(3 * ker.t))))
    assert errs[0] / errs[1] > 3.6 and errs[1] / errs[2] > 3.6


def test_Z_pure_exponential_oracle():
    # memoryless undamped: the assembled response is exactly e^{i n t}
    ker = zero_kernel(2 * PI, 1e-3)
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 3, alpha=0.0)
    Z = compute_responses(ker, modes).Z
    assert np.max(np.abs(Z - np.exp(1j * modes.index[:, None] * ker.t))) \
        < 2e-5


def test_degenerate_mode_closed_form():
    # J-mode construction q = 1 - c^2 (memoryless): exact polynomial form
    c = 0.5
    dom = DomainSpec("interval", (PI,), q=1 - c * c, c=c)
    modes = compute_eigenpairs(dom, 1, alpha=c)
    assert modes.in_J[0]
    ker = zero_kernel(2.0, 1e-3, c=c)
    r = compute_responses(ker, modes)
    t = ker.t
    exactZ = np.exp(c * t) * (1.0 + (c + 1j) * t)
    assert np.max(np.abs(r.Z[0] - exactZ)) < 2e-6
    # S = e^{-alpha t} Z follows 1 + (c + i) t; with N1 = 0 the right-hand
    # side G of the S equation is exactly its transformed-exponential base
    exactS = 1.0 + (c + 1j) * t
    assert np.max(np.abs(r.S[0] - exactS)) < 2e-6
    assert np.max(np.abs(transformed_exponential(modes, c, t)[0] - exactS)) \
        < 1e-12


# ------------------------------------------------- cross-route consistency


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_two_route_agreement_memory(c):
    dom = DomainSpec("interval", (PI,), c=c)
    ker = normalize(KernelSpec("exponential_sum", c=c, coefficients=(1.0,),
                               rates=(1.0,)), make_grid(PI, 1e-3))
    some = compute_eigenpairs(dom, 40, alpha=ker.alpha).take(
        [0, 7, 14, 21, 28, 35, 39])
    Zv = compute_responses(ker, some).Z
    worst = float(np.max(np.abs(Zv - marched_Z(ker, some))))
    assert worst < 1e-5


def test_route_gap_shrinks_with_grid():
    dom = DomainSpec("interval", (PI,))
    spec = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
    mode = compute_eigenpairs(dom, 12, alpha=-0.5).take([11])
    gaps = []
    for h in (2e-3, 1e-3):
        ker = normalize(spec, make_grid(PI, h))
        Zv = compute_responses(ker, mode).Z
        gaps.append(float(np.max(np.abs(Zv - marched_Z(ker, mode)))))
    assert gaps[1] < gaps[0] / 3.0


def test_responses_keep_their_z_route_gap_ratio(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=-0.5)
    resp = compute_responses(memory_kernel, modes)
    gaps = np.max(np.abs(resp.Z - marched_Z(memory_kernel, modes)), axis=1)
    ratios = resp.z_gap_ratio
    assert ratios == pytest.approx(
        gaps / _consistency_tol(memory_kernel, modes.beta))
    assert np.all((0.0 < ratios) & (ratios < 1.0))


def test_nan_z_route_gap_fails_closed(memory_kernel):
    # a NaN gap compares False against any allowance; it must not pass
    mode = compute_eigenpairs(DomainSpec("interval", (PI,)), 2,
                              alpha=-0.5).take([1])
    z = march_modal(memory_kernel, mode.lambda_sq, memory_kernel.alpha)
    Zm = marched_Z(memory_kernel, mode)
    Zm[0, Zm.shape[1] // 2] = np.nan
    with pytest.raises(InternalConsistencyError, match="mode 2: gap nan"):
        _assemble_Z(memory_kernel, mode, z, Zm)


def test_restriction_matches_fresh_computation(memory_kernel):
    mode = compute_eigenpairs(DomainSpec("interval", (PI,)), 2,
                              alpha=-0.5).take([1])
    full = compute_responses(memory_kernel, mode)
    half_steps = memory_kernel.grid.steps // 2
    sliced = full.restrict(half_steps)
    fresh_ker = memory_kernel.restrict(half_steps)
    fresh = compute_responses(fresh_ker, mode)
    assert sliced.grid == fresh.grid == fresh_ker.grid
    # marches are causal: restriction of the fields is exact
    assert np.array_equal(sliced.z, fresh.z)
    assert np.max(np.abs(sliced.Z - fresh.Z)) < 1e-13
    assert np.max(np.abs(sliced.S - fresh.S)) < 1e-13
    # the Z-route headroom is the full horizon's, not the short grid's
    assert sliced.z_gap_ratio == full.z_gap_ratio
    assert 0.0 < fresh.z_gap_ratio[0] < 1.0


def test_batch_independence(memory_kernel):
    # a mode's result must not depend on which other modes share its batch
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 12, alpha=-0.5)
    rows = [1, 6, 10]
    big = compute_responses(memory_kernel, modes)
    small = compute_responses(memory_kernel, modes.take(rows))
    march = {len(batch): marched_Z(memory_kernel, batch)
             for batch in (modes, modes.take(rows))}
    for j, i in enumerate(rows):            # row i of the big batch
        assert np.array_equal(big.z[i], small.z[j])
        assert np.array_equal(big.Z[i], small.Z[j])
        assert np.array_equal(march[12][i], march[3][j])
        one = compute_responses(memory_kernel, modes.take([i]))
        Zm = marched_Z(memory_kernel, modes.take([i]))[0]
        assert np.max(np.abs(big.z[i] - one.z[0])) \
            <= 1e-14 * np.max(np.abs(one.z[0]))
        assert np.max(np.abs(big.Z[i] - one.Z[0])) \
            <= 1e-14 * np.max(np.abs(one.Z[0]))
        assert np.max(np.abs(march[12][i] - Zm)) <= 1e-14 * np.max(np.abs(Zm))


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
    # a batch row is the same march as the single mode
    lams = np.array([1.0, lam, 25.0])
    Zb = march_modal(ker, lams, ker.alpha,
                     forcing=np.repeat(forcing[None], 3, axis=0))
    assert np.max(np.abs(Zb[1] - Z)) <= 1e-14 * np.max(np.abs(Z))


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


def test_tabulated_batch_row_equals_single_mode():
    # the series march divides all modes at once; each row must be its
    # own single-mode march
    grid = make_grid(2.5 * PI, 1e-3)
    ker = normalize(_tabulated_exp(grid), grid)
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 12,
                               alpha=ker.alpha)
    lams = modes.lambda_sq
    forcing = Z_forcing(ker, modes)
    z = march_modal(ker, lams, ker.alpha)
    Z = march_modal(ker, lams, ker.alpha, forcing=forcing)
    for i in (0, 5, 11):
        one = march_modal(ker, lams[i], ker.alpha)
        assert np.max(np.abs(z[i] - one)) <= 1e-14 * np.max(np.abs(one))
        one = march_modal(ker, lams[i], ker.alpha, forcing=forcing[i])
        assert np.max(np.abs(Z[i] - one)) <= 1e-14 * np.max(np.abs(one))


def _first_envelope_exit(kernel, lam_sq, steps=50):
    """First step of the direct-sum march over the first `steps` steps
    outside the envelope of the whole grid, with its |y|."""
    y = direct_march(kernel.restrict(steps), lam_sq, kernel.alpha)
    bound = growth_envelope(kernel.alpha, kernel.grid.T) * (1.0 + 1e-9)
    j = int(np.flatnonzero(~(np.abs(y) <= bound))[0])
    return j, abs(y[j])


def test_tabulated_march_overflow_fails_closed():
    # lam_sq = -1e6 grows like cosh(1000 t): the series division
    # overflows, and the envelope check turns that into ConvergenceError
    # naming the step where the march first leaves the envelope, found by
    # bisection on cut divisions (one division spreads the overflow to
    # every step)
    grid = make_grid(2.0, 1e-3)
    ker = normalize(_tabulated_exp(grid), grid)
    j, y = _first_envelope_exit(ker, -1e6)
    assert j == 5
    with pytest.raises(ConvergenceError, match="Gronwall envelope") as err:
        march_modal(ker, -1e6, ker.alpha)
    assert f"at step {j} (t=0.005): |y|={y:.3e}," in str(err.value)
    # the closed-form block march names the same step
    closed = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)), grid)
    with pytest.raises(ConvergenceError, match=f"at step {j} "):
        march_modal(closed, -1e6, closed.alpha)
    # in a forced batch, the step and the row of the mode that leaves
    forcing = np.stack([ker.N, ker.Np])
    with pytest.raises(ConvergenceError,
                       match=f"at step {j} .* in batch row 1:"):
        march_modal(ker, np.array([4.0, -1e6]), ker.alpha, forcing=forcing)


def test_assembled_convolutions_are_the_one_kernel_calls(memory_kernel):
    # N and N' are convolved against z in one batched call, which gives
    # each row the bits of its one-kernel call
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=-0.5)
    resp = compute_responses(memory_kernel, modes)
    h = memory_kernel.h
    for i in range(len(modes)):
        z = resp.z[i]
        assert np.array_equal(resp.Nz[i], convolve(memory_kernel.N, z, h))
        assert np.array_equal(resp.Npz[i], convolve(memory_kernel.Np, z, h))


def _oracle_batch(family, steps, h=1e-2):
    grid = TimeGrid(steps * h, steps, h)
    ker = normalize(ORACLE_KERNELS[family](grid), grid)
    lams = np.array([1.0, 9.0, 30.0])
    forcing = np.stack([ker.Np + 1j * k * ker.N for k in (1, 3, 5)])
    return ker, lams, forcing


@pytest.mark.parametrize("family", ["zero", "exponential_sum", "polynomial"])
@pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_block_boundaries_match_direct_sum(family, steps):
    ker, lams, forcing = _oracle_batch(family, steps)
    z = march_modal(ker, lams, ker.alpha)
    Z = march_modal(ker, lams, ker.alpha, forcing=forcing)
    assert z.shape == (3, steps + 1) and Z.shape == (3, steps + 1)
    for i, lam in enumerate(lams):
        for y, f in ((z[i], None), (Z[i], forcing[i])):
            ref = direct_march(ker, lam, ker.alpha, forcing=f)
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_restricted_march_equals_fresh_march(k):
    # blocks align from step 0 and the padding forcing is zero, so the
    # first k steps of a long march are a k-step march, bit for bit
    ker, lams, forcing = _oracle_batch("exponential_sum", 5 * BLOCK + 3)
    short = ker.restrict(k)
    assert np.array_equal(march_modal(ker, lams, ker.alpha)[:, :k + 1],
                          march_modal(short, lams, short.alpha))
    for f in (forcing, forcing.imag):
        assert np.array_equal(
            march_modal(ker, lams, ker.alpha, forcing=f)[:, :k + 1],
            march_modal(short, lams, short.alpha, forcing=f[:, :k + 1]))


@pytest.mark.parametrize("family", ["polynomial", "tabulated"])
def test_batch_of_one_equals_batch_row(family):
    # a row of a batch is its one-row call bit for bit, on the block
    # march and on the series march alike
    ker, lams, forcing = _oracle_batch(family, 4 * BLOCK + 5)
    z = march_modal(ker, lams, ker.alpha)
    Z = march_modal(ker, lams, ker.alpha, forcing=forcing)
    for i, lam in enumerate(lams):
        one = march_modal(ker, lams[i:i + 1], ker.alpha)
        assert np.array_equal(one[0], z[i])
        assert np.array_equal(march_modal(ker, lam, ker.alpha), z[i])
        one = march_modal(ker, lams[i:i + 1], ker.alpha,
                          forcing=forcing[i:i + 1])
        assert np.array_equal(one[0], Z[i])
        assert np.array_equal(
            march_modal(ker, lam, ker.alpha, forcing=forcing[i].copy()), Z[i])


# ------------------------------------------------------- refined S and G


def test_refined_S_matches_direct_at_low_modes(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 5, alpha=-0.5)
    S = compute_responses(memory_kernel, modes).S
    Sr = refined_S(memory_kernel, modes)
    assert Sr.shape == S.shape
    assert np.all(np.max(np.abs(Sr - S), axis=1) < 5e-5)


def direct_refined_S(kernel, mode):
    """Reference refined S of a one-mode batch: the product-trapezoid
    march of S = G + W*S, O(m^2), on the same G and W as refined_S
    (W(0) = 0 makes each step explicit)."""
    (b,), (lam,) = mode.beta.tolist(), mode.lambda_sq.tolist()
    mu = lam / (b * b)
    t, h = kernel.t, kernel.h
    sb = np.sin(b * t)
    base = transformed_exponential(mode, kernel.alpha, t)[0]
    G = base + convolve(kernel.N1, base, h)
    Q = kernel.N1p[0] * sb + convolve(kernel.N1pp, sb, h)
    W = -mu * kernel.N1 + (mu / b) * Q
    S = np.empty(len(t), dtype=complex)
    S[0] = G[0]
    for j in range(1, len(t)):
        acc = np.dot(W[j - 1:0:-1], S[1:j]) if j > 1 else 0.0
        S[j] = G[j] + h * (0.5 * W[j] * S[0] + acc)
    return S


@pytest.mark.parametrize("spec", [
    KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,)),
    KernelSpec("polynomial", coefficients=(1.0, -0.5, 0.2), c=0.3),
])
def test_refined_S_matches_direct_march(spec):
    ker = normalize(spec, make_grid(2.5 * PI, 1e-3))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,), c=spec.c), 40,
                               alpha=ker.alpha)
    rows = [0, 9, 39]
    for i, S in zip(rows, refined_S(ker, modes.take(rows))):
        ref = direct_refined_S(ker, modes.take([i]))
        assert np.max(np.abs(S - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_refined_S_self_converges():
    dom = DomainSpec("interval", (PI,))
    spec = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
    mode = compute_eigenpairs(dom, 30, alpha=-0.5).take([29])
    vals = []
    for h in (2e-3, 1e-3, 5e-4):
        ker = normalize(spec, make_grid(PI, h))
        vals.append(refined_S(ker, mode)[0, -1])
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1]) / 3.0


def test_refined_S_rejects_degenerate(memory_kernel):
    dom = DomainSpec("interval", (PI,), q=1 - 0.25, c=0.5)
    ker = zero_kernel(1.0, 1e-3, c=0.5)
    modes = compute_eigenpairs(dom, 3, alpha=0.5)
    assert modes.in_J[0]
    with pytest.raises(ConfigError, match="refined route"):
        refined_S(ker, modes)
    with pytest.raises(ConfigError, match="comparator"):
        comparator_profile(ker, modes)


def test_comparator_reduces_to_exponential_without_memory():
    ker = zero_kernel(2.0, 1e-3)
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=0.0)
    C = comparator_profile(ker, modes)
    assert np.max(np.abs(C - np.exp(np.arange(1, 5)[:, None] * 1j * ker.t))) \
        < 1e-12


def test_asymptotic_residual_slope(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 40, alpha=-0.5)
    usable = modes.take(slice(4, None))
    fit = asymptotic_residual(usable, refined_S(memory_kernel, usable),
                              memory_kernel.h)
    assert fit["indices"] == list(range(5, 41))
    assert -1.15 < fit["slope"] < -0.85


def test_asymptotic_residual_needs_enough_modes(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=-0.5)
    resp = compute_responses(memory_kernel, modes)
    with pytest.raises(ConfigError, match="at least 8"):
        asymptotic_residual(resp.modes, resp.S, memory_kernel.h)


def test_asymptotic_residual_refuses_a_non_finite_row(memory_kernel):
    # one NaN row used to give a NaN slope, and an all-NaN batch the
    # "residuals vanish identically" config error
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 12,
                               alpha=-0.5).take(slice(2, None))
    S = refined_S(memory_kernel, modes)
    S[3, 100] = np.nan
    with pytest.raises(ConvergenceError, match="S of mode 6 is not finite"):
        asymptotic_residual(modes, S, memory_kernel.h)
    with pytest.raises(ConvergenceError, match="mode 3"):
        asymptotic_residual(modes, np.full_like(S, np.nan), memory_kernel.h)


def test_refined_S_refuses_a_non_finite_row():
    # a kernel that overflows the S equation on a coarse grid; the FFT
    # division spreads the overflow over the row, so only the mode is named
    ker = normalize(KernelSpec("polynomial", coefficients=(-0.034, 4.2e7),
                               c=0.03), make_grid(6.42, 0.062))
    modes = compute_eigenpairs(DomainSpec("interval", (2.11,), c=0.03), 13,
                               alpha=ker.alpha).take(slice(4, None))
    with pytest.raises(ConvergenceError,
                       match="refined S of mode 5 is not finite"):
        refined_S(ker, modes)


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_refined_batches_are_their_one_pair_calls(c):
    # every row of a batch equals the call on its mode alone, bit for bit
    ker = normalize(KernelSpec("exponential_sum", c=c, coefficients=(1.0,),
                               rates=(1.0,)), make_grid(2.0, 1e-3))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,), c=c), 9,
                               alpha=ker.alpha)
    for batch in (refined_S, comparator_profile):
        rows = batch(ker, modes)
        assert rows.shape == (9, ker.grid.steps + 1)
        for i, row in enumerate(rows):
            assert np.array_equal(batch(ker, modes.take([i]))[0], row)
    # transformed_exponential on a batch with a mode on J (q = 1 - c^2)
    on_J = compute_eigenpairs(DomainSpec("interval", (PI,), q=0.75, c=0.5),
                              4, alpha=0.5)
    assert on_J.in_J.tolist() == [True, False, False, False]
    mixed = Spectrum(*(np.concatenate([getattr(modes, f.name)[:3],
                                       getattr(on_J, f.name)])
                       for f in dataclasses.fields(Spectrum)))
    rows = transformed_exponential(mixed, 0.7, ker.t)
    for i, row in enumerate(rows):
        assert np.array_equal(
            transformed_exponential(mixed.take([i]), 0.7, ker.t)[0], row)


def test_refined_S_memory_grows_by_its_rows_alone():
    # chunks of REFINED_ROWS modes: a batch three chunks long peaks
    # above a one-chunk batch by little more than its extra output rows
    # (one division over the whole batch held every row's spectra and
    # peaked ~3x higher)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), make_grid(2.5 * PI, 2e-3))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 28,
                               alpha=ker.alpha).take(slice(4, None))
    assert len(modes) == 3 * volterra.REFINED_ROWS

    def peak(batch):
        tracemalloc.start()
        try:
            refined_S(ker, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(modes.take(slice(volterra.REFINED_ROWS)))
    three = peak(modes)
    row_bytes = 16 * (ker.grid.steps + 1)
    assert three - one <= 1.25 * (len(modes) - volterra.REFINED_ROWS) \
        * row_bytes


# ------------------------------------------------------------- guards


def test_march_envelope_tripwire():
    # strongly negative lambda_sq grows like cosh and must be refused
    ker = zero_kernel(2.0, 1e-3)
    with pytest.raises(ConvergenceError):
        march_modal(ker, -100.0, ker.alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_march_rejects_nonfinite_forcing(bad):
    ker = zero_kernel(1.0, 1e-3)
    with pytest.raises(ConvergenceError, match="step 1 "):
        march_modal(ker, 1.0, 0.0, forcing=np.full(1001, bad))
    forcing = np.zeros((3, 1001))
    forcing[2, 500:] = bad
    with pytest.raises(ConvergenceError, match="step 500 .* row 2"):
        march_modal(ker, np.array([1.0, 4.0, 9.0]), 0.0, forcing=forcing)


def test_forced_zero_forcing_matches_homogeneous(memory_kernel):
    lam = 9.0
    y_h = march_modal(memory_kernel, lam, memory_kernel.alpha)
    y_f = march_modal(memory_kernel, lam, memory_kernel.alpha, y0=1.0,
                      forcing=np.zeros(len(memory_kernel.t)))
    assert np.max(np.abs(y_h - y_f)) < 1e-14


# ------------------------------------------------------------ exact modes

EXACT_KERNELS = {
    "zero": KernelSpec("zero", c=0.5),
    "exp": KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,)),
    "two-exp": KernelSpec("exponential_sum", c=-0.3, coefficients=(1.0, 0.5),
                          rates=(1.0, 3.0)),
    "rate-zero": KernelSpec("exponential_sum", coefficients=(0.3,),
                            rates=(0.0,)),
    "poly": KernelSpec("polynomial", coefficients=(0.5, -0.1)),
}


def exact_of(spec, K, length=PI):
    gamma = -0.5 * spec.m0()
    alpha = spec.c + gamma
    modes = compute_eigenpairs(DomainSpec("interval", (length,), c=spec.c),
                               K, alpha)
    return exact_modes(kernel_terms(spec, gamma), alpha, modes), alpha, modes


@pytest.mark.parametrize("name", sorted(EXACT_KERNELS))
def test_exact_modes_start_at_one(name):
    # z(0) = Z(0) = 1 and the modal equations at t = 0, z'(0) = 2 alpha and
    # Z'(0) = 2 alpha + i beta, to rounding
    exact, alpha, modes = exact_of(EXACT_KERNELS[name], 12)
    for res, at0, slope in ((exact.z, 1.0, 2 * alpha),
                            (exact.Z, 1.0, 2 * alpha + 1j * modes.beta)):
        assert np.max(np.abs(res.sum(axis=1) - at0)) <= 1e-13
        assert np.max(np.abs((res * exact.roots).sum(axis=1) - slope)
                      / (1.0 + np.abs(slope))) <= 1e-13


@pytest.mark.parametrize("name", ["zero", "exp", "poly"])
def test_march_converges_to_exact_modes_at_order_two(name):
    spec = EXACT_KERNELS[name]
    errors = []
    for n in (200, 400, 800):
        ker = normalize(spec, TimeGrid(PI, n, PI / n))
        modes = compute_eigenpairs(DomainSpec("interval", (PI,), c=spec.c),
                                   4, ker.alpha)
        resp = compute_responses(ker, modes)
        exact = exact_modes(ker.terms, ker.alpha, modes)
        E = np.exp(exact.roots[:, :, None] * ker.t)
        z, Z = (np.einsum("kd,kdt->kt", r, E) for r in (exact.z, exact.Z))
        errors.append([np.max(np.abs(getattr(resp, f) - x))
                       for f, x in (("z", z), ("Z", Z))])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(np.abs(ratios - 4.0) < 0.1), ratios


def test_exact_telegraph_terms_are_the_transformed_exponential():
    t = np.linspace(0.0, 2.0, 41)
    for c in (0.0, 0.7, 1.5):               # 1.5: mode 1 overdamped
        modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 3, c)
        rates, weights = transformed_exponential_terms(modes, c)
        closed = np.einsum("kd,kdt->kt", weights,
                           np.exp(rates[:, :, None] * t))
        assert np.max(np.abs(closed - transformed_exponential(modes, c, t))) \
            <= 1e-13


def test_trailing_zero_polynomial_terms_change_nothing():
    # a zero top coefficient would give Q and NQ a common root at w = 0
    short, *_ = exact_of(KernelSpec("polynomial", coefficients=(0.5,)), 5)
    padded, *_ = exact_of(KernelSpec("polynomial", coefficients=(0.5, 0.0)), 5)
    for a, b in zip(short, padded):
        assert np.array_equal(a, b)


def test_exact_modes_refuse_what_they_cannot_certify():
    exp = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
    terms = kernel_terms(exp, -0.5)
    # a mode on the degenerate set: exp(-t) with c = 1.5 has alpha = 1
    exact, _, modes = exact_of(KernelSpec("exponential_sum", c=1.5,
                                          coefficients=(1.0,),
                                          rates=(1.0,)), 3)
    assert modes.in_J[0] and exact is None
    # Den's coefficients overflow
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 3, -0.5)
    assert exact_modes(terms, 1e308, modes) is None
    assert exact_modes(terms, -0.5, modes) is not None
    # a root of Den meets one of Q: M = -exp(-t) normalises to N = 1, so
    # NQ / Q = w / (w (w + 1)) and Den vanishes at w = 0
    minus = KernelSpec("exponential_sum", coefficients=(-1.0,), rates=(1.0,))
    assert exact_of(minus, 3)[0] is None
    # a double root of mode 1's Den, (w - 1 - 2 alpha)(w^2 + w) + (w + 2)
    # for exp(-t) at alpha = c - 1/2 = 0.7018347375208056
    double = KernelSpec("exponential_sum", c=1.2018347375208056,
                        coefficients=(1.0,), rates=(1.0,))
    assert exact_of(double, 3)[0] is None
    assert exact_of(KernelSpec("exponential_sum", c=1.25, coefficients=(1.0,),
                               rates=(1.0,)), 3)[0] is not None
