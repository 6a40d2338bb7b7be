import json
import tracemalloc

import numpy as np
import pytest

from memwave import volterra
from memwave import (ConfigError, ConvergenceError, DomainSpec, KernelSpec,
                     Spectrum, asymptotic_residual, compute_eigenpairs,
                     compute_responses, TimeGrid, convolve, make_grid,
                     march_modal, normalize, telegraph_family)
from memwave import InternalConsistencyError
from memwave.cli import main
from memwave.kernels import kernel_terms
from memwave.exact import (_rational_form, exact_modes, s_frame_rows,
                           transformed_exponential_terms)
from memwave.volterra import (BLOCK, _consistency_tol, _forcing_factors,
                              _z_route_gaps, growth_envelope)

from family_reference import S_of, Z_of

PI = np.pi


def zero_kernel(T, h, c=0.0):
    return normalize(KernelSpec("zero", c=c), make_grid(T, h))


def Z_rows(kernel):
    """The real rows of the Z forcing N' + i beta N, shared by every
    mode."""
    return np.stack([kernel.Np, kernel.N])


def marched_Z(kernel, modes):
    """Z of every mode by the direct march, the route the
    variation-of-constants assembly is checked against: z + Y' + f Y,
    by linearity, from one march with the rows (N', N), f the forcing
    factor of each mode."""
    Y = march_modal(kernel, modes.lambda_sq, kernel.alpha,
                    forcing=Z_rows(kernel))
    return Y[:, 0] + Y[:, 1] + _forcing_factors(modes)[:, None] * Y[:, 2]


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
    Z = Z_of(compute_responses(ker, modes))
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
    assert np.max(np.abs(Z_of(r)[0] - exactZ)) < 2e-6
    # S = e^{-alpha t} Z follows 1 + (c + i) t, which is U + i V of the
    # telegraph rows U = 1 + c t and V = t (each scaled by sqrt2 alone)
    exactS = 1.0 + (c + 1j) * t
    assert np.max(np.abs(S_of(r, ker.alpha)[0] - exactS)) < 2e-6
    U, V = telegraph_family(modes, c, ker.grid).profiles / np.sqrt(2.0)
    assert np.max(np.abs(U + 1j * V - exactS)) < 1e-12


# ------------------------------------------------- cross-route consistency


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_two_route_agreement_memory(c):
    dom = DomainSpec("interval", (PI,), c=c)
    ker = normalize(KernelSpec("exponential_sum", c=c, coefficients=(1.0,),
                               rates=(1.0,)), make_grid(PI, 1e-3))
    some = compute_eigenpairs(dom, 40, alpha=ker.alpha).take(
        [0, 7, 14, 21, 28, 35, 39])
    Zv = Z_of(compute_responses(ker, some))
    worst = float(np.max(np.abs(Zv - marched_Z(ker, some))))
    assert worst < 1e-5


def test_route_gap_shrinks_with_grid():
    dom = DomainSpec("interval", (PI,))
    spec = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
    mode = compute_eigenpairs(dom, 12, alpha=-0.5).take([11])
    gaps = []
    for h in (2e-3, 1e-3):
        ker = normalize(spec, make_grid(PI, h))
        Zv = Z_of(compute_responses(ker, mode))
        gaps.append(float(np.max(np.abs(Zv - marched_Z(ker, mode)))))
    assert gaps[1] < gaps[0] / 3.0


def test_responses_keep_their_z_route_gap_ratio(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=-0.5)
    resp = compute_responses(memory_kernel, modes)
    gaps = np.max(np.abs(Z_of(resp) - marched_Z(memory_kernel, modes)), axis=1)
    ratios = resp.z_gap_ratio
    assert ratios == pytest.approx(
        gaps / _consistency_tol(memory_kernel, modes.beta))
    assert np.all((0.0 < ratios) & (ratios < 1.0))


def test_planted_forcing_defect_trips_the_Z_check(tmp_path, monkeypatch,
                                                  capsys):
    # the two-route check is not vacuous: an O(h) defect in the march's
    # forcing, the 1/2 end weight of the first sample dropped,
    # G_0 = h (f_0 + f_1 / 2) (the rows N' and N do not vanish at t = 0),
    # fails verify with the internal-consistency exit.  c = 0.5 makes
    # alpha = 0, where the allowance carries no growth factor
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "verify",
        "domain": {"geometry": "interval", "lengths": [PI], "c": 0.5},
        "kernel": {"family": "exponential_sum", "coefficients": [1.0],
                   "rates": [1.0]},
        "T": 2.5 * PI, "h": 1e-2, "K": 4, "K_sim": 6, "target": "random",
        "seed": 1}))

    def verify():
        return main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert verify() == 0
    trapezoid = volterra._trapezoid_forcing

    def planted(forcing, h, label):
        G = trapezoid(forcing, h, label)
        G[..., 0] += 0.5 * h * forcing[..., 0]
        return G
    monkeypatch.setattr(volterra, "_trapezoid_forcing", planted)
    assert verify() == 5
    assert "Z routes disagree on mode 1" in capsys.readouterr().err


def test_nan_z_route_gap_fails_closed(memory_kernel):
    # a NaN gap compares False against any allowance; it must not pass
    mode = compute_eigenpairs(DomainSpec("interval", (PI,)), 2,
                              alpha=-0.5).take([1])
    ker = memory_kernel
    Y = march_modal(ker, mode.lambda_sq, ker.alpha, forcing=Z_rows(ker))
    Nz, Npz = (convolve(k, Y[:, 0], ker.h) for k in (ker.N, ker.Np))
    Y[0, 2, Y.shape[2] // 2] = np.nan
    with pytest.raises(InternalConsistencyError, match="mode 2: gap nan"):
        _z_route_gaps(ker, mode, Y, Y[:, 0].copy(), Nz, Npz)


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
    for f in ("Nz", "Npz"):
        assert np.max(np.abs(getattr(sliced, f) - getattr(fresh, f))) < 1e-13
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
        assert np.array_equal(Z_of(big)[i], Z_of(small)[j])
        assert np.array_equal(march[12][i], march[3][j])
        one = compute_responses(memory_kernel, modes.take([i]))
        Zm = marched_Z(memory_kernel, modes.take([i]))[0]
        assert np.max(np.abs(big.z[i] - one.z[0])) \
            <= 1e-14 * np.max(np.abs(one.z[0]))
        assert np.max(np.abs(Z_of(big)[i] - Z_of(one)[0])) \
            <= 1e-14 * np.max(np.abs(Z_of(one)[0]))
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
    return KernelSpec("tabulated", samples=m)


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
    # each forcing row's zero-state response, and by linearity the
    # response to y0 and the complex forcing N' + 3i N
    rows = Z_rows(ker)
    Y = march_modal(ker, lam, ker.alpha, forcing=rows)
    assert Y.shape == (3, len(ker.t))
    for y, f in zip(Y[1:], rows):
        ref = direct_march(ker, lam, ker.alpha, y0=0.0, forcing=f)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref = direct_march(ker, lam, ker.alpha, forcing=ker.Np + 3j * ker.N)
    Z = Y[0] + Y[1] + 3j * Y[2]
    assert np.max(np.abs(Z - ref)) <= 1e-12 * np.max(np.abs(ref))
    # a batch row is the same march as the single mode
    lams = np.array([1.0, lam, 25.0])
    Yb = march_modal(ker, lams, ker.alpha, forcing=rows)
    assert np.max(np.abs(Yb[1] - Y)) <= 1e-14 * np.max(np.abs(Y))


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
    Y = march_modal(ker, lam, ker.alpha, forcing=Z_rows(ker))
    for y, f in ((march_modal(ker, lam, ker.alpha), None),
                 (Y[0] + Y[1] + 2j * Y[2], ker.Np + 2j * ker.N)):
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
    rows = Z_rows(ker)
    z = march_modal(ker, lams, ker.alpha)
    Y = march_modal(ker, lams, ker.alpha, forcing=rows)
    for i in (0, 5, 11):
        one = march_modal(ker, lams[i], ker.alpha)
        assert np.max(np.abs(z[i] - one)) <= 1e-14 * np.max(np.abs(one))
        one = march_modal(ker, lams[i], ker.alpha, forcing=rows)
        assert np.max(np.abs(Y[i] - one)) <= 1e-14 * np.max(np.abs(one))


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
    # in a forced batch, the step and the row of the mode that leaves,
    # and the forcing row whose response leaves when y0 = 0
    forcing = np.stack([ker.N, ker.Np])
    lams = np.array([4.0, -1e6])
    with pytest.raises(ConvergenceError,
                       match=f"at step {j} .* in batch row 1:"):
        march_modal(ker, lams, ker.alpha, forcing=forcing)
    for kernel in (ker, closed):
        with pytest.raises(ConvergenceError,
                           match="in batch row 1, forcing row [01]:"):
            march_modal(kernel, lams, kernel.alpha, y0=0.0,
                        forcing=np.stack([kernel.N, kernel.Np]))


@pytest.mark.parametrize("tabulated", [False, True])
def test_envelope_tie_names_the_first_column_then_mode(tabulated):
    # mode 0 leaves through forcing row 1 and mode 1 through forcing row
    # 0, at the same step: the error names the first column, then the
    # first mode in it, on the block march and on the series march
    grid = make_grid(2.0, 1e-3)
    ker = normalize(_tabulated_exp(grid) if tabulated else
                    KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), grid)
    zero = np.zeros_like(ker.N)
    forcing = np.array([[zero, ker.N], [ker.N, zero]])
    with pytest.raises(ConvergenceError) as err:
        march_modal(ker, np.array([-1e6, -1e6]), ker.alpha, y0=0.0,
                    forcing=forcing)
    assert str(err.value) == (
        "modal march left the Gronwall envelope at step 11 (t=0.011) in "
        "batch row 1, forcing row 0: |y|=8.793e+01, bound 5.460e+01; "
        "non-finite input or step too large ")


def test_y0_column_matches_direct_sum_over_many_blocks():
    # 103 blocks, carried by 7 doubling passes
    grid = make_grid(2.5 * PI, 1.2e-3)
    ker = normalize(ORACLE_KERNELS["exponential_sum"](grid), grid)
    assert -(-grid.steps // BLOCK) == 103
    for lam in (1.0, 9.0):
        z = march_modal(ker, lam, ker.alpha, forcing=Z_rows(ker))[0]
        ref = direct_march(ker, lam, ker.alpha)
        assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("family", ["exponential_sum", "tabulated"])
def test_y0_column_from_rest_is_zero(family):
    ker, lams, forcing = _oracle_batch(family, 3 * BLOCK + 9)
    assert not np.any(march_modal(ker, lams, ker.alpha, y0=0.0))
    for f in (forcing, forcing[0]):
        Y = march_modal(ker, lams, ker.alpha, y0=0.0, forcing=f)
        assert not np.any(Y[:, 0]) and np.all(np.any(Y[:, 1:], axis=-1))


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
    """A kernel, three modes and their forcing rows (N', k N), k = 1, 3,
    5, one pair per mode, (3, 2, steps+1)."""
    grid = TimeGrid(steps * h, steps, h)
    ker = normalize(ORACLE_KERNELS[family](grid), grid)
    lams = np.array([1.0, 9.0, 30.0])
    forcing = np.stack([np.stack([ker.Np, k * ker.N]) for k in (1, 3, 5)])
    return ker, lams, forcing


@pytest.mark.parametrize("family", ["zero", "exponential_sum", "polynomial"])
@pytest.mark.parametrize("steps", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_block_boundaries_match_direct_sum(family, steps):
    ker, lams, forcing = _oracle_batch(family, steps)
    z = march_modal(ker, lams, ker.alpha)
    Y = march_modal(ker, lams, ker.alpha, forcing=forcing)
    assert z.shape == (3, steps + 1) and Y.shape == (3, 3, steps + 1)
    for i, lam in enumerate(lams):
        for y, y0, f in ((z[i], 1.0, None), (Y[i, 0], 1.0, None),
                         (Y[i, 1], 0.0, forcing[i, 0]),
                         (Y[i, 2], 0.0, forcing[i, 1])):
            ref = direct_march(ker, lam, ker.alpha, y0=y0, forcing=f)
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_restricted_march_equals_fresh_march(k):
    # blocks align from step 0 and the padding forcing is zero, so the
    # first k steps of a long march are a k-step march, bit for bit
    ker, lams, forcing = _oracle_batch("exponential_sum", 5 * BLOCK + 3)
    short = ker.restrict(k)
    assert np.array_equal(march_modal(ker, lams, ker.alpha)[:, :k + 1],
                          march_modal(short, lams, short.alpha))
    # rows per mode and shared rows, from y0 = 1 and from rest
    for f in (forcing, forcing[0], forcing[0, 1:]):
        for y0 in (1.0, 0.0):
            assert np.array_equal(
                march_modal(ker, lams, ker.alpha, y0, f)[..., :k + 1],
                march_modal(short, lams, short.alpha, y0, f[..., :k + 1]))


@pytest.mark.parametrize("family", ["polynomial", "tabulated"])
def test_batch_of_one_equals_batch_row(family):
    # a row of a batch is its one-row call bit for bit, on the block
    # march and on the series march alike
    ker, lams, forcing = _oracle_batch(family, 4 * BLOCK + 5)
    z = march_modal(ker, lams, ker.alpha)
    Y = march_modal(ker, lams, ker.alpha, forcing=forcing)
    for i, lam in enumerate(lams):
        one = march_modal(ker, lams[i:i + 1], ker.alpha)
        assert np.array_equal(one[0], z[i])
        assert np.array_equal(march_modal(ker, lam, ker.alpha), z[i])
        one = march_modal(ker, lams[i:i + 1], ker.alpha,
                          forcing=forcing[i:i + 1])
        assert np.array_equal(one[0], Y[i])
        assert np.array_equal(
            march_modal(ker, lam, ker.alpha, forcing=forcing[i].copy()), Y[i])
    # the response to y0 gets the same bits with rows or without
    assert np.array_equal(Y[:, 0], z)


@pytest.mark.parametrize("family", ["exponential_sum", "tabulated"])
def test_shared_rows_are_the_rows_given_per_mode(family):
    # rows every mode shares, (r, m+1), and the same rows given to each
    # mode, (K, r, m+1), run through the same products: the same bits,
    # on the block march and on the series march
    ker, lams, forcing = _oracle_batch(family, 3 * BLOCK + 9)
    for y0 in (1.0, 0.0):
        for rows in (forcing[1], forcing[1, 1:]):
            per_mode = np.repeat(rows[None], len(lams), axis=0)
            assert np.array_equal(
                march_modal(ker, lams, ker.alpha, y0, rows),
                march_modal(ker, lams, ker.alpha, y0, per_mode))


def _complex_march(kernel, lams, factors):
    """The marched Z as a complex march computes it: the real and the
    imaginary part of the forcing N' + f N as rows of one march, per
    mode, with y0 = 1 entering the real part only."""
    rows = np.stack([np.stack([kernel.Np + f.real * kernel.N,
                               f.imag * kernel.N]) for f in factors])
    Y = march_modal(kernel, lams, kernel.alpha, forcing=rows)
    return Y[:, 0] + Y[:, 1] + 1j * Y[:, 2]


@pytest.mark.parametrize("family", ["exponential_sum", "tabulated"])
def test_marched_Z_matches_the_complex_march(family):
    # z + Y' + f Y from the shared rows (N', N) is the complex march of
    # N' + f N to rounding, on the block march and on the series march,
    # for real beta, imaginary beta and the degenerate set (f = i): the
    # kernel shifts alpha to c - 1/2, so c = 2 makes mode 1 (lambda^2 = 1)
    # overdamped and c = 1.5 puts it on the degenerate set
    grid = make_grid(2.5 * PI, 2e-3)
    spec = (_tabulated_exp(grid) if family == "tabulated" else
            KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,)))
    for c, mode_1 in ((0.0, "real"), (2.0, "overdamped"), (1.5, "J")):
        ker = normalize(spec._replace(c=c), grid)
        modes = compute_eigenpairs(DomainSpec("interval", (PI,), c=c), 6,
                                   alpha=ker.alpha)
        assert {"real": modes.beta[0].imag == 0 and not modes.in_J[0],
                "overdamped": modes.beta[0].imag > 0,
                "J": modes.in_J[0]}[mode_1]
        Zm = marched_Z(ker, modes)
        ref = _complex_march(ker, modes.lambda_sq, _forcing_factors(modes))
        assert np.max(np.abs(Zm - ref)) <= 1e-14 * np.max(np.abs(ref))


# ------------------------------------------------------ exact S-frame rows


def s_rows(kernel, modes):
    """The exact S-frame rows of modes on the kernel's grid."""
    return s_frame_rows(kernel.terms, kernel.alpha, modes, kernel.t)


def test_s_frame_rows_match_the_march_at_low_modes(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 5, alpha=-0.5)
    S = S_of(compute_responses(memory_kernel, modes), memory_kernel.alpha)
    Se = s_rows(memory_kernel, modes)
    assert Se.shape == S.shape
    assert np.all(np.max(np.abs(Se - S), axis=1) < 5e-5)


@pytest.mark.parametrize("spec", [
    KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,)),
    KernelSpec("polynomial", coefficients=(1.0, -0.5, 0.2), c=0.3),
])
def test_s_frame_rows_are_the_residue_sums(spec):
    # the root-by-root sum against the (K, d, m+1) sum of the residues
    ker = normalize(spec, make_grid(2.5 * PI, 1e-3))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,), c=spec.c), 40,
                               alpha=ker.alpha).take([0, 9, 39])
    exact = exact_modes(ker.terms, ker.alpha, modes)
    ref = np.einsum("kd,kdt->kt",
                    exact.U + 1j * modes.beta[:, None] * exact.V,
                    np.exp((exact.roots - ker.alpha)[:, :, None] * ker.t))
    assert np.max(np.abs(s_rows(ker, modes) - ref)) \
        <= 1e-13 * np.max(np.abs(ref))


def test_s_frame_rows_do_not_depend_on_the_grid():
    # the config on which the grid S route (an S integral equation on the
    # kernel's grid) peaked at 2038 where S peaks at 1.004: the exact rows
    # on a grid and on its 16-fold refinement are the same numbers at
    # their shared samples, and the march reaches them at second order
    spec = KernelSpec("exponential_sum", c=0.765, coefficients=(3.22, 3.24),
                      rates=(4.18, 4.18))
    rows, gaps = [], []
    for n in (282, 16 * 282):
        ker = normalize(spec, TimeGrid(7.35, n))
        modes = compute_eigenpairs(DomainSpec("interval", (3.15,), c=0.765),
                                   16, ker.alpha)
        fitted = modes.take((modes.index >= 5) & (modes.beta.imag == 0))
        assert len(fitted) == 12
        rows.append(s_rows(ker, fitted))
        gaps.append(np.max(np.abs(
            rows[-1] - S_of(compute_responses(ker, fitted), ker.alpha))))
    coarse, fine = rows
    assert np.max(np.abs(coarse - fine[:, ::16])) \
        <= 1e-14 * np.max(np.abs(fine))
    assert 1.0 < np.max(np.abs(fine)) < 1.01
    assert 0.8 * 256 < gaps[0] / gaps[1] < 1.25 * 256


def test_s_frame_rows_refuse_the_degenerate_set():
    dom = DomainSpec("interval", (PI,), q=1 - 0.25, c=0.5)
    ker = zero_kernel(1.0, 1e-3, c=0.5)
    modes = compute_eigenpairs(dom, 3, alpha=0.5)
    assert modes.in_J[0]
    assert s_rows(ker, modes) is None
    assert s_rows(ker, modes.take(slice(1, None))) is not None


def test_comparator_reduces_to_exponential_without_memory():
    # without memory and damping the exact S rows and the telegraph
    # comparator's U + i beta V are both exp(i n t)
    ker = zero_kernel(2.0, 1e-3)
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=0.0)
    E = np.exp(np.arange(1, 5)[:, None] * 1j * ker.t)
    assert np.max(np.abs(s_rows(ker, modes) - E)) < 1e-12
    rows = telegraph_family(modes, 0.0, ker.grid).profiles / np.sqrt(2.0)
    beta = modes.beta.real[:, None]
    assert np.max(np.abs(rows[::2] * beta + 1j * beta * rows[1::2] - E)) \
        < 1e-12


def test_asymptotic_residual_slope(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 40, alpha=-0.5)
    usable = modes.take(slice(4, None))
    fit = asymptotic_residual(usable, s_rows(memory_kernel, usable),
                              memory_kernel.h)
    assert fit["indices"] == list(range(5, 41))
    assert -1.15 < fit["slope"] < -0.85


def test_asymptotic_residual_needs_enough_modes(memory_kernel):
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4, alpha=-0.5)
    resp = compute_responses(memory_kernel, modes)
    with pytest.raises(ConfigError, match="at least 8"):
        asymptotic_residual(resp.modes, S_of(resp, memory_kernel.alpha),
                            memory_kernel.h)


def test_asymptotic_residual_refuses_a_non_finite_row(memory_kernel):
    # one NaN row used to give a NaN slope, and an all-NaN batch the
    # "residuals vanish identically" config error
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 12,
                               alpha=-0.5).take(slice(2, None))
    S = s_rows(memory_kernel, modes)
    S[3, 100] = np.nan
    with pytest.raises(ConvergenceError, match="S of mode 6 is not finite"):
        asymptotic_residual(modes, S, memory_kernel.h)
    with pytest.raises(ConvergenceError, match="mode 3"):
        asymptotic_residual(modes, np.full_like(S, np.nan), memory_kernel.h)


def test_s_frame_rows_overflow_to_a_refused_row():
    # the exponentials of this kernel's roots overflow within the horizon:
    # the rows are not finite, and the fit names the first mode
    ker = normalize(KernelSpec("polynomial", coefficients=(-0.034, 4.2e7),
                               c=0.03), make_grid(6.42, 0.062))
    modes = compute_eigenpairs(DomainSpec("interval", (2.11,), c=0.03), 13,
                               alpha=ker.alpha).take(slice(4, None))
    S = s_rows(ker, modes)              # and no overflow warning
    assert not np.isfinite(S).all()
    with pytest.raises(ConvergenceError, match="S of mode 5 is not finite"):
        asymptotic_residual(modes, S, ker.h)


def test_asymptotic_residual_treats_rounding_as_zero():
    # without memory and damping S is exp(i beta t): the residuals are
    # rounding, up to ~1e-14 here, and fit nothing (a fit of them read a
    # slope of 1.14)
    ker = zero_kernel(2.5 * PI, 0.02)
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 12,
                               alpha=0.0).take(slice(4, None))
    S = s_rows(ker, modes)
    assert 0.0 < np.max(np.abs(S - np.exp(1j * modes.beta[:, None] * ker.t))) \
        < 1e-13
    with pytest.raises(ConfigError, match="vanish identically"):
        asymptotic_residual(modes, S, ker.h)


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_s_frame_rows_batches_are_their_one_mode_calls(c):
    # every row of a batch equals the call on its mode alone, bit for bit
    ker = normalize(KernelSpec("exponential_sum", c=c, coefficients=(1.0,),
                               rates=(1.0,)), make_grid(2.0, 1e-3))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,), c=c), 9,
                               alpha=ker.alpha)
    rows = s_rows(ker, modes)
    assert rows.shape == (9, ker.grid.steps + 1)
    for i, row in enumerate(rows):
        assert np.array_equal(s_rows(ker, modes.take([i]))[0], row)
    # the telegraph rows of a batch with a mode on J (q = 1 - c^2)
    on_J = compute_eigenpairs(DomainSpec("interval", (PI,), q=0.75, c=0.5),
                              4, alpha=0.5)
    assert on_J.in_J.tolist() == [True, False, False, False]
    mixed = Spectrum(*(np.concatenate([getattr(modes, f)[:3],
                                       getattr(on_J, f)])
                       for f in Spectrum._fields))
    rows = telegraph_family(mixed, 0.7, ker.grid).profiles
    for i in range(len(mixed)):
        assert np.array_equal(telegraph_family(mixed.take([i]), 0.7,
                                               ker.grid).profiles,
                              rows[2 * i:2 * i + 2])


def test_s_frame_rows_hold_one_work_row_per_mode():
    # the rows are summed one root at a time: the peak is the result and
    # one work array, where the (K, d, m+1) exponentials of all d = 4
    # roots at once would add four result arrays
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0, 0.5),
                               rates=(1.0, 3.0)), make_grid(2.5 * PI, 2e-3))
    modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 28,
                               alpha=ker.alpha).take(slice(4, None))
    assert exact_modes(ker.terms, ker.alpha, modes).roots.shape == (24, 4)
    tracemalloc.start()
    try:
        s_rows(ker, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * len(modes) * (ker.grid.steps + 1)


def _traced_peak(call, *args):
    """call(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = call(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def verify_batch():
    # the verify_interval benchmark's march: 12 modes, exp(-t), T = 2.5 pi
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), make_grid(2.5 * PI, 1e-3))
    return ker, compute_eigenpairs(DomainSpec("interval", (PI,)), 12,
                                   alpha=ker.alpha)


def test_march_writes_its_products_into_its_result(verify_batch):
    # the zero-input product and the Toeplitz chunks go straight into the
    # result's rows: beside it the march holds the Toeplitz matrix and
    # one chunk buffer, K BLOCK^2 numbers each, and smaller work arrays
    # (the map's powers, the block states, the trapezoided rows), where a
    # product copy the size of the result would add 2.26 MB
    ker, modes = verify_batch
    rows = Z_rows(ker)
    Y, peak = _traced_peak(march_modal, ker, modes.lambda_sq, ker.alpha,
                           1.0, rows)
    assert Y.shape == (len(modes), 3, ker.grid.steps + 1)
    assert peak <= Y.nbytes + 4 * len(modes) * BLOCK ** 2 * 8


def test_responses_hold_no_full_length_temporary(verify_batch):
    # beside the march result (z, Y', Y) the assembly holds its (2, K,
    # m+1) product and chunk-sized transform buffers; the route gaps are
    # formed in place on the march's columns
    resp, peak = _traced_peak(compute_responses, *verify_batch)
    kept = sum(getattr(resp, f).nbytes for f in ("z", "Nz", "Npz"))
    assert peak <= 2.4 * kept


# ------------------------------------------------------------- guards


def test_march_envelope_tripwire():
    # strongly negative lambda_sq grows like cosh and must be refused
    ker = zero_kernel(2.0, 1e-3)
    with pytest.raises(ConvergenceError):
        march_modal(ker, -100.0, ker.alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_march_rejects_nonfinite_forcing(bad):
    ker = zero_kernel(1.0, 1e-3)
    with pytest.raises(ConvergenceError, match="step 1 .* forcing row 0 "):
        march_modal(ker, 1.0, 0.0, forcing=np.full((1, 1001), bad))
    lams = np.array([1.0, 4.0, 9.0])
    forcing = np.zeros((3, 1001))
    forcing[2, 500:] = bad
    with pytest.raises(ConvergenceError,
                       match="step 500 .* in forcing row 2 "):
        march_modal(ker, lams, 0.0, forcing=forcing)
    forcing = np.zeros((3, 2, 1001))
    forcing[2, 1, 500:] = bad
    with pytest.raises(ConvergenceError,
                       match="step 500 .* in batch row 2, forcing row 1 "):
        march_modal(ker, lams, 0.0, forcing=forcing)


def test_march_takes_real_rows_only():
    # the march is real: a complex forcing is two real rows, and rows
    # come as (r, m+1) or (K, r, m+1) for a batch of K modes
    ker = zero_kernel(1.0, 1e-2)
    lams = np.array([1.0, 4.0])
    for bad in (np.zeros((1, 101), complex), np.zeros(101),
                np.zeros((3, 1, 101)), np.zeros((2, 1, 100))):
        with pytest.raises(ConfigError, match="forcing must be real rows"):
            march_modal(ker, lams, 0.0, forcing=bad)
    with pytest.raises(ConfigError, match="forcing must be real rows"):
        march_modal(ker, 1.0, 0.0, forcing=np.zeros((2, 1, 101)))


def test_forced_zero_forcing_matches_homogeneous(memory_kernel):
    lam = 9.0
    y_h = march_modal(memory_kernel, lam, memory_kernel.alpha)
    y_f = march_modal(memory_kernel, lam, memory_kernel.alpha, y0=1.0,
                      forcing=np.zeros((1, len(memory_kernel.t))))
    assert np.array_equal(y_f[0], y_h) and not y_f[1].any()


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
    # U(0) = 1, V(0) = 0 and the modal equation at t = 0, U'(0) = 2 alpha
    # and V'(0) = 1, to rounding
    exact, alpha, modes = exact_of(EXACT_KERNELS[name], 12)
    for res, at0, slope in ((exact.U, 1.0, 2 * alpha), (exact.V, 0.0, 1.0)):
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
        U, V = (np.einsum("kd,kdt->kt", r, E) for r in (exact.U, exact.V))
        errors.append([np.max(np.abs(x - y)) for x, y in
                       ((resp.z + resp.Npz, U), (resp.Nz, V))])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(np.abs(ratios - 4.0) < 0.1), ratios


def test_exact_telegraph_terms_are_the_transformed_exponential():
    # the two exponentials of each telegraph row against the rows
    # telegraph_family samples, sqrt2 U / |beta| and sqrt2 V
    grid = TimeGrid(2.0, 40)
    for c in (0.0, 0.7, 1.5):               # 1.5: mode 1 overdamped
        modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 3, c)
        rates, U, V = transformed_exponential_terms(modes, c)
        E = np.exp(rates[:, :, None] * grid.t)
        scale = np.sqrt(2.0) / np.abs(modes.beta)[:, None]
        rows = telegraph_family(modes, c, grid).profiles
        for closed, row in ((np.einsum("kd,kdt->kt", U, E) * scale,
                             rows[::2]),
                            (np.einsum("kd,kdt->kt", V, E) * np.sqrt(2.0),
                             rows[1::2])):
            assert np.max(np.abs(closed - row)) \
                <= 1e-13 * max(1.0, np.max(np.abs(row)))


def test_trailing_zero_polynomial_terms_change_nothing():
    # a zero top coefficient would give Q and NQ a common root at w = 0
    short, *_ = exact_of(KernelSpec("polynomial", coefficients=(0.5,)), 5)
    padded, *_ = exact_of(KernelSpec("polynomial", coefficients=(0.5, 0.0)), 5)
    for a, b in zip(short, padded):
        assert np.array_equal(a, b)


def test_common_factor_w_cancels_and_the_modes_certify():
    # M = -exp(-t) normalises to N = 1: NQ / Q = w / (w (w + 1)) is
    # 1 / (w + 1) in lowest terms, and the march converges to the exact
    # rows at order two
    spec = KernelSpec("exponential_sum", coefficients=(-1.0,), rates=(1.0,))
    ker = normalize(spec, make_grid(PI, 0.1))
    assert np.max(np.abs(ker.N - 1.0)) <= 1e-14
    Q, NQ, roots = _rational_form(ker.terms)
    assert Q.tolist() == [1.0, 1.0] and NQ.tolist() == [1.0]
    assert roots.tolist() == [-1.0]
    errors = []
    for n in (200, 400, 800):
        ker = normalize(spec, TimeGrid(PI, n, PI / n))
        modes = compute_eigenpairs(DomainSpec("interval", (PI,)), 4,
                                   ker.alpha)
        exact = exact_modes(ker.terms, ker.alpha, modes)
        assert exact is not None and exact.roots.shape == (4, 2)
        resp = compute_responses(ker, modes)
        E = np.exp(exact.roots[:, :, None] * ker.t)
        U, V = (np.einsum("kd,kdt->kt", r, E) for r in (exact.U, exact.V))
        errors.append([np.max(np.abs(x - y)) for x, y in
                       ((resp.z + resp.Npz, U), (resp.Nz, V))])
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all(np.abs(ratios - 4.0) < 0.1), ratios


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
    # a root of Den meets one of Q: M = -0.999999999 exp(-t) gives
    # NQ / Q = (w + 1e-9) / (w (w + 1)), which does not cancel, and Den
    # has a root within ROOT_GAP of w = 0
    near = KernelSpec("exponential_sum", coefficients=(-0.999999999,),
                      rates=(1.0,))
    assert exact_of(near, 3)[0] is None
    # a double root of mode 1's Den, (w - 1 - 2 alpha)(w^2 + w) + (w + 2)
    # for exp(-t) at alpha = c - 1/2 = 0.7018347375208056
    double = KernelSpec("exponential_sum", c=1.2018347375208056,
                        coefficients=(1.0,), rates=(1.0,))
    assert exact_of(double, 3)[0] is None
    assert exact_of(KernelSpec("exponential_sum", c=1.25, coefficients=(1.0,),
                               rates=(1.0,)), 3)[0] is not None
