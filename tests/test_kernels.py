import warnings

import numpy as np
import pytest

from memwave import (ConfigError, ConvergenceError, KernelSpec,
                     NormalizedKernel, TimeGrid, convolve, convolve_end,
                     make_grid, normalize, resolvent)
from memwave.kernels import (_fast_len, decay_integral, kernel_terms,
                             series_divide, series_product)

# closed forms used as oracles below (single decaying exponential M = e^{-t}):
#   gamma = -1/2, N(t) = 2 e^{-t} - e^{-2t}


@pytest.fixture(scope="module")
def grid():
    return make_grid(2.0, 1e-3)


@pytest.fixture(scope="module")
def exp_kernel(grid):
    return normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                rates=(1.0,)), grid)


def test_zero_kernel_normalizes_to_one(grid):
    ker = normalize(KernelSpec("zero"), grid)
    assert ker.gamma == 0.0
    assert np.array_equal(ker.N, np.ones(len(grid)))
    assert np.array_equal(ker.Np, np.zeros(len(grid)))


def test_normalization_endpoint_identities(exp_kernel):
    # the rescaling is built to give N(0)=1 and N'(0)=0 exactly in floats
    assert exp_kernel.N[0] == 1.0
    assert exp_kernel.Np[0] == 0.0
    assert exp_kernel.gamma == -0.5
    assert exp_kernel.alpha == -0.5


def test_exponential_kernel_closed_form(exp_kernel, grid):
    t = grid.t
    assert np.max(np.abs(exp_kernel.N - (2 * np.exp(-t) - np.exp(-2 * t)))) < 1e-12
    expected_Np = -2 * np.exp(-t) + 2 * np.exp(-2 * t)
    assert np.max(np.abs(exp_kernel.Np - expected_Np)) < 1e-12


def test_polynomial_kernel_normalization():
    grid = make_grid(1.0, 1e-3)
    # M(t) = 1 - t: gamma = -1/2, Ntilde = 1 + t - t^2/2
    ker = normalize(KernelSpec("polynomial", coefficients=(1.0, -1.0)), grid)
    t = grid.t
    expected = np.exp(-t) * (1 + t - 0.5 * t ** 2)
    assert np.max(np.abs(ker.N - expected)) < 1e-12


def test_convolution_is_exact_on_low_degrees(grid):
    h = grid.h
    one = np.ones(len(grid))
    t = grid.t
    # product-trapezoid integrates piecewise-linear integrands exactly
    assert np.max(np.abs(convolve(one, one, h) - t)) < 1e-12
    assert np.max(np.abs(convolve(t, one, h) - t ** 2 / 2)) < 1e-12
    assert convolve(one, one, h)[0] == 0.0


def test_convolution_commutes(grid):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(len(grid))
    g = rng.standard_normal(len(grid))
    assert np.max(np.abs(convolve(f, g, grid.h) - convolve(g, f, grid.h))) < 1e-12


def test_convolution_order_two():
    # smooth nonsymmetric integrand: halving h must cut the error by ~4.
    # (sin * cos is a trap here: its endpoint derivatives cancel and the
    # trapezoid rule turns superconvergent on it)
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        g = make_grid(1.0, h)
        got = convolve(np.exp(g.t), np.sin(g.t), g.h)[-1]
        exact = 0.5 * (np.e - np.sin(1.0) - np.cos(1.0))
        errs.append(abs(got - exact))
    assert errs[0] / errs[1] > 3.6
    assert errs[1] / errs[2] > 3.6


def direct_convolve(f, g, h):
    """O(m^2) product-trapezoid sum, one partial integral at a time."""
    out = np.zeros(len(f), dtype=np.result_type(f, g))
    for j in range(1, len(f)):
        acc = sum(f[j - k] * g[k] for k in range(j + 1))
        out[j] = h * (acc - 0.5 * (f[j] * g[0] + f[0] * g[j]))
    return out


CASES = ["real-real", "real-complex", "vector-batch", "batch-batch",
         "stacked-batch"]


def _operands(case):
    rng = np.random.default_rng(11)
    n, K = 301, 3
    real = lambda *shape: rng.standard_normal(shape)
    cplx = lambda *shape: real(*shape) + 1j * real(*shape)
    return {"real-real": (real(n), real(n)),
            "real-complex": (real(n), cplx(n)),
            "vector-batch": (real(n), real(K, n)),
            "batch-batch": (cplx(K, n), real(K, n)),
            "stacked-batch": (real(2, K, n), real(1, K, n))}[case]


def at(a, row):
    """The time series of a batched operand at a broadcast row: time is
    the last axis, and leading axes align from the right."""
    lead = row[len(row) - (a.ndim - 1):] if a.ndim > 1 else ()
    return a[tuple(min(r, s - 1) for r, s in zip(lead, a.shape))]


@pytest.mark.parametrize("case", CASES)
def test_batched_convolution_matches_direct_sum(case):
    f, g = _operands(case)
    n, h = f.shape[-1], 1e-2
    got = convolve(f, g, h)
    assert got.shape == np.broadcast_shapes(f.shape[:-1], g.shape[:-1]) + (n,)
    for row in np.ndindex(got.shape[:-1]):
        ref = direct_convolve(at(f, row), at(g, row), h)
        assert np.max(np.abs(at(got, row) - ref)) <= 1e-12 * np.max(np.abs(ref))
        if row:
            # a row of a batch is bit for bit its one-row call
            assert np.array_equal(at(got, row), convolve(
                at(f, row).copy(), at(g, row).copy(), h))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("K", [1, 3, 5, 7, 12, 13])
def test_series_product_rows_keep_their_bits_across_chunks(K, dtype):
    # inverse transforms run kernels.INVERSE_ROWS rows at a time; whatever
    # chunk a row falls in, and at whatever place, it gets its one-row bits
    rng = np.random.default_rng(K)
    f = rng.standard_normal(400)
    g = rng.standard_normal((K, 400)).astype(dtype)
    if dtype is complex:
        g.imag = rng.standard_normal((K, 400))
    got = series_product(f, g, 400)
    stacked = series_product(np.stack([f, -f])[:, None], g, 400)
    for row in range(K):
        one = series_product(f, g[row].copy(), 400)
        assert np.array_equal(got[row], one)
        assert np.array_equal(stacked[0, row], one)


@pytest.mark.parametrize("case", CASES)
def test_convolve_end_is_the_last_sample(case):
    f, g = _operands(case)
    h = 1e-2
    end = convolve_end(f, g, h)
    full = convolve(f, g, h)
    assert end.shape == full.shape[:-1]
    assert end.dtype == full.dtype
    for row in np.ndindex(end.shape):
        ref = direct_convolve(at(f, row), at(g, row), h)[-1]
        assert abs(end[row] - ref) <= 1e-12 * abs(ref)
        assert abs(end[row] - full[row + (-1,)]) <= 1e-12 * abs(ref)
        if row:
            # a row of a batch is bit for bit its one-row call
            assert end[row] == convolve_end(at(f, row).copy(),
                                            at(g, row).copy(), h)


def test_convolve_end_edge_cases():
    # one sample is the t = 0 value, exactly zero; shapes are checked as
    # in convolve
    assert np.array_equal(convolve_end(np.ones(1), np.full((3, 1), 2.0), 0.1),
                          np.zeros(3))
    assert convolve_end(np.ones(1), np.ones(1), 0.1) == 0.0
    with pytest.raises(ConfigError):
        convolve_end(np.ones(11), np.ones(10), 0.1)
    with pytest.raises(ConfigError):
        convolve_end(np.ones((3, 11)), np.ones((2, 11)), 0.1)


def test_convolution_shape_mismatch_rejected():
    a = np.ones((3, 11))
    with pytest.raises(ConfigError):
        convolve(np.ones(11), np.ones(10), 0.1)
    with pytest.raises(ConfigError):
        convolve(a, np.ones((2, 11)), 0.1)
    with pytest.raises(ConfigError):
        convolve(np.ones(10), a, 0.1)


def test_fast_len_is_the_real_next_fast_len():
    # the padded FFT size: the smallest 5-smooth integer >= n, which is
    # what scipy.fft gives real transforms
    from scipy.fft import next_fast_len
    n = np.arange(1, 20001)
    got = np.array([_fast_len(int(k)) for k in n])
    assert np.all(got >= n)
    rest = got.copy()
    for p in (2, 3, 5):
        while np.any(rest % p == 0):
            rest = np.where(rest % p == 0, rest // p, rest)
    assert np.all(rest == 1)
    assert np.array_equal(got, [next_fast_len(int(k), True) for k in n])


def toeplitz_solve(num, den):
    """Dense solve of the lower-triangular Toeplitz system T q = num,
    T[i, j] = den[i - j], one row at a time."""
    n = num.shape[-1]
    i, j = np.indices((n, n))
    out = np.empty_like(num, dtype=np.result_type(num, den))
    for row in np.ndindex(num.shape[:-1]):
        d = at(den, row)
        T = np.where(i >= j, d[np.clip(i - j, 0, None)], 0.0)
        out[row] = np.linalg.solve(T, num[row])
    return out


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 300])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", ["vector", "batch", "vector-den"])
def test_series_divide_matches_toeplitz_solve(m, dtype, shape):
    rng = np.random.default_rng(m)
    K = {"vector": (), "batch": (3,), "vector-den": (3,)}[shape]
    draw = lambda *s: (rng.standard_normal(s) if dtype is float else
                       rng.standard_normal(s) + 1j * rng.standard_normal(s))
    num = draw(*K, m + 1)
    # den[..., 0] away from zero and geometric decay keep 1/den bounded
    den_shape = (m + 1,) if shape == "vector-den" else K + (m + 1,)
    den = 0.2 * draw(*den_shape) * 0.8 ** np.arange(m + 1)
    den[..., 0] += 1.0
    q = series_divide(num, den)
    ref = toeplitz_solve(num, den)
    assert q.shape == ref.shape and np.iscomplexobj(q) == (dtype is complex)
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))
    for row in np.ndindex(K):
        # a row of a batch is bit for bit its one-row call
        assert np.array_equal(q[row], series_divide(num[row].copy(),
                                                    at(den, row).copy()))


def n1_of(kernel):
    """N1 = exp(-alpha t) N', the kernel whose resolvent the tests take;
    N'(0) = 0 exactly, so N1(0) is an exact zero."""
    return np.exp(-kernel.alpha * kernel.t) * kernel.Np


def direct_resolvent(N1, h):
    """Reference resolvent: the product-trapezoid march of L + N1*L = N1,
    O(m^2); N1(0) = 0 makes each step explicit."""
    L = np.zeros(len(N1))
    for j in range(1, len(N1)):
        acc = np.dot(N1[j - 1:0:-1], L[1:j]) if j > 1 else 0.0
        L[j] = N1[j] - h * acc
    return L


@pytest.mark.parametrize("spec", [
    KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,)),
    KernelSpec("polynomial", coefficients=(1.0, -0.5, 0.2), c=0.3),
])
def test_resolvent_matches_direct_march(spec):
    grid = make_grid(2.5 * np.pi, 1e-3)
    N1 = n1_of(normalize(spec, grid))
    ref = direct_resolvent(N1, grid.h)
    assert np.max(np.abs(resolvent(N1, grid) - ref)) \
        <= 1e-12 * np.max(np.abs(ref))


def test_resolvent_sine_oracle(grid):
    # L + t*L = t has the closed solution L = sin t
    L = resolvent(grid.t.copy(), grid)
    assert np.max(np.abs(L - np.sin(grid.t))) < 5e-7


def test_resolvent_identity_holds(exp_kernel, grid):
    # defining equation L + N1*L = N1 checked by substitution
    N1 = n1_of(exp_kernel)
    L = resolvent(N1, grid)
    lhs = L + convolve(N1, L, grid.h)
    assert np.max(np.abs(lhs - N1)) < 1e-8


def test_restrict_slices_every_field(exp_kernel):
    r = exp_kernel.restrict(500)
    assert r.grid.steps == 500
    assert r.terms == exp_kernel.terms
    for name in ("N", "Np", "t"):
        assert np.array_equal(getattr(r, name), getattr(exp_kernel, name)[:501]), name


@pytest.mark.parametrize("spec", [
    KernelSpec("zero", c=0.3),
    KernelSpec("exponential_sum", coefficients=(1.0, 0.5, 0.3, -0.2),
               rates=(1.0, 1.0, 0.0, 2.5)),
    KernelSpec("polynomial", coefficients=(1.0, -0.5, 0.2)),
])
def test_kernel_terms_reproduce_N(spec, grid):
    ker = normalize(spec, grid)
    t = grid.t
    terms = ker.terms
    N = np.exp(terms.rate * t) * (
        np.polynomial.polynomial.polyval(t, terms.poly)
        + sum(a * decay_integral(b, t) for a, b in terms.decays))
    assert np.max(np.abs(N - ker.N)) < 1e-13
    # decays with equal rates are merged
    assert len({b for _, b in terms.decays}) == len(terms.decays)
    assert ker.restrict(100).terms == ker.terms


def test_kernel_terms_families():
    assert kernel_terms(KernelSpec("zero"), 0.0) == (0.0, (1.0,), ())
    # M = 2 e^{-t} + e^{-t}: gamma = -1.5, N = 4 e^{-3t} - 3 e^{-4t}
    # = e^{-3t} (1 + 3 phi_1(t))
    spec = KernelSpec("exponential_sum", coefficients=(2.0, 1.0),
                      rates=(1.0, 1.0))
    assert kernel_terms(spec, -1.5) == (-3.0, (1.0,), ((3.0, 1.0),))
    # M = 1 - t: gamma = -0.5, N = e^{-t} (1 + t - t^2 / 2)
    spec = KernelSpec("polynomial", coefficients=(1.0, -1.0))
    assert kernel_terms(spec, -0.5) == (-1.0, (1.0, 1.0, -0.5), ())
    # cancelling coefficients leave no decay
    spec = KernelSpec("exponential_sum", coefficients=(1.0, -1.0),
                      rates=(2.0, 2.0))
    assert kernel_terms(spec, 0.0) == (0.0, (1.0,), ())
    assert kernel_terms(KernelSpec("tabulated", samples=np.ones(3)), 0.0) is None


def test_tabulated_kernel_matches_closed_form(grid):
    t = grid.t
    m = np.exp(-t)
    ker_tab = normalize(KernelSpec("tabulated", samples=m), grid)
    ker_cf = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)), grid)
    # exact samples of M, but the running integral of M is O(h^2)
    assert ker_tab.terms is None
    for name in ("N", "Np"):
        assert np.max(np.abs(getattr(ker_tab, name)
                             - getattr(ker_cf, name))) < 1e-7, name


def test_tabulated_without_derivatives_differentiates(grid):
    t = grid.t
    ker = normalize(KernelSpec("tabulated", samples=np.exp(-t)), grid)
    # numerical differentiation is second order; loose tolerance
    assert np.max(np.abs(ker.N - (2 * np.exp(-t) - np.exp(-2 * t)))) < 1e-5


def test_tabulated_rough_data_rejected():
    g = TimeGrid(1.0, 50)   # deliberately coarse
    rng = np.random.default_rng(0)
    noisy = np.exp(-g.t) + 50.0 * rng.standard_normal(len(g))
    with pytest.raises(ConfigError, match="too rough for its grid"):
        normalize(KernelSpec("tabulated", samples=noisy), g)


def test_kernel_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("nope")
    with pytest.raises(ConfigError):
        KernelSpec("exponential_sum", coefficients=(1.0,), rates=())
    with pytest.raises(ConfigError):
        normalize(KernelSpec("tabulated", samples=np.ones(7)), TimeGrid(1.0, 10))


def test_normalize_overflow_fails_closed():
    # M(0) = -1e6 makes N = exp(1e6 t) (1 + int M) overflow from the first
    # step on
    spec = KernelSpec("exponential_sum", coefficients=(-1e6,), rates=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            normalize(spec, make_grid(2.5 * np.pi, 1e-2))
    assert err.value.exit_code == 3
    assert "normalize" in str(err.value) and "field N " in str(err.value)
    assert "step 1 " in str(err.value)
    # M(0) = 1e6 makes exp(2 gamma t) underflow instead: N and N' are
    # finite (zero from step 1 on), and normalize passes
    spec = KernelSpec("exponential_sum", coefficients=(1e6,), rates=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = normalize(spec, make_grid(2.5 * np.pi, 1e-2))
    assert np.all(np.isfinite(kernel.N)) and np.all(np.isfinite(kernel.Np))


def test_vanishing_rate_takes_rate_zero_limit():
    # b t below rounding: phi_b(t) is t, so the decay a phi_b(t) is its
    # rate-zero limit a t and does not cancel to nothing
    spec = KernelSpec("exponential_sum", coefficients=(1e-3,),
                      rates=(1e-300,))
    gamma = -0.5e-3
    assert kernel_terms(spec, gamma) == (2 * gamma, (1.0,), ((1e-3, 1e-300),))
    t = make_grid(2.0, 1e-3).t
    for b in (0.0, 5e-324, 1e-300):
        assert np.array_equal(decay_integral(b, t), t)
    ker = normalize(spec, make_grid(2.0, 1e-3))
    exact = np.exp(2 * gamma * t) * (1.0 + 1e-3 * t)
    assert np.max(np.abs(ker.N - exact)) <= 1e-15
