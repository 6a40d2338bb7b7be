import warnings

import numpy as np
import pytest

from memwave import (ConfigError, ConvergenceError, KernelSpec,
                     NormalizedKernel, TimeGrid, convolve, make_grid,
                     normalize, resolvent)
from memwave.kernels import decay_integral, kernel_terms

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
    assert np.max(np.abs(ker.N1)) == 0.0


def test_normalization_endpoint_identities(exp_kernel):
    # the rescaling is built to give N(0)=1 and N'(0)=0 exactly in floats
    assert exp_kernel.N[0] == 1.0
    assert exp_kernel.Np[0] == 0.0
    assert exp_kernel.N1[0] == 0.0
    assert exp_kernel.gamma == -0.5
    assert exp_kernel.alpha == -0.5


def test_exponential_kernel_closed_form(exp_kernel, grid):
    t = grid.t
    assert np.max(np.abs(exp_kernel.N - (2 * np.exp(-t) - np.exp(-2 * t)))) < 1e-12
    expected_Np = -2 * np.exp(-t) + 2 * np.exp(-2 * t)
    assert np.max(np.abs(exp_kernel.Np - expected_Np)) < 1e-12
    # N1 = e^{-alpha t} N' with alpha = -1/2
    assert np.max(np.abs(exp_kernel.N1 - np.exp(0.5 * t) * expected_Np)) < 1e-12


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


@pytest.mark.parametrize("case", ["real-real", "real-complex", "vector-batch",
                                  "batch-batch", "stacked-batch"])
def test_batched_convolution_matches_direct_sum(case):
    rng = np.random.default_rng(11)
    n, K, h = 301, 3, 1e-2
    real = lambda *shape: rng.standard_normal(shape)
    cplx = lambda *shape: real(*shape) + 1j * real(*shape)
    f, g = {"real-real": (real(n), real(n)),
            "real-complex": (real(n), cplx(n)),
            "vector-batch": (real(n), real(n, K)),
            "batch-batch": (cplx(n, K), real(n, K)),
            "stacked-batch": (real(n, 2, K), real(n, 1, K))}[case]
    got = convolve(f, g, h)
    assert got.shape == (n,) + np.broadcast_shapes(f.shape[1:], g.shape[1:])
    # the time series of each operand at a broadcast column
    at = lambda a, col: a[(slice(None),) + tuple(
        min(c, s - 1) for c, s in zip(col, a.shape[1:]))]
    for col in np.ndindex(got.shape[1:]):
        ref = direct_convolve(at(f, col), at(g, col), h)
        assert np.max(np.abs(at(got, col) - ref)) <= 1e-12 * np.max(np.abs(ref))
        if col:
            # a column of a batch is bit for bit its one-column call
            assert np.array_equal(at(got, col), convolve(
                at(f, col).copy(), at(g, col).copy(), h))


def test_convolution_shape_mismatch_rejected():
    a = np.ones((11, 3))
    with pytest.raises(ConfigError):
        convolve(np.ones(11), np.ones(10), 0.1)
    with pytest.raises(ConfigError):
        convolve(a, np.ones((11, 2)), 0.1)
    with pytest.raises(ConfigError):
        convolve(np.ones(10), a, 0.1)


def test_resolvent_sine_oracle(grid):
    # L + t*L = t has the closed solution L = sin t
    L = resolvent(grid.t.copy(), grid)
    assert np.max(np.abs(L - np.sin(grid.t))) < 5e-7


def test_resolvent_identity_holds(exp_kernel, grid):
    # defining equation L + N1*L = N1 checked by substitution
    L = exp_kernel.L
    lhs = L + convolve(exp_kernel.N1, L, grid.h)
    assert np.max(np.abs(lhs - exp_kernel.N1)) < 1e-8


def test_restrict_slices_every_field(exp_kernel):
    r = exp_kernel.restrict(500)
    assert r.grid.steps == 500
    for name in ("N", "Np", "N1", "N1p", "N1pp", "L"):
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


def test_resolvent_is_lazy(exp_kernel):
    ker = exp_kernel.restrict(300)
    assert "L" not in vars(ker)
    assert np.array_equal(ker.L, exp_kernel.L[:301])


def test_tabulated_kernel_matches_closed_form(grid):
    t = grid.t
    m = np.exp(-t)
    ker_tab = normalize(KernelSpec("tabulated", samples=m, samples_d1=-m,
                                   samples_d2=m), grid)
    ker_cf = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                                  rates=(1.0,)), grid)
    # exact derivative samples, but the running integral of M is O(h^2)
    assert np.max(np.abs(ker_tab.N - ker_cf.N)) < 1e-7
    assert np.max(np.abs(ker_tab.N1 - ker_cf.N1)) < 1e-7


def test_tabulated_without_derivatives_differentiates(grid):
    t = grid.t
    ker = normalize(KernelSpec("tabulated", samples=np.exp(-t)), grid)
    # numerical differentiation is second order; loose tolerance
    assert np.max(np.abs(ker.N - (2 * np.exp(-t) - np.exp(-2 * t)))) < 1e-5


def test_tabulated_rough_data_rejected():
    g = TimeGrid(1.0, 50)   # deliberately coarse
    rng = np.random.default_rng(0)
    noisy = np.exp(-g.t) + 50.0 * rng.standard_normal(len(g))
    with pytest.raises(ConfigError):
        normalize(KernelSpec("tabulated", samples=noisy), g)


def test_kernel_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("nope")
    with pytest.raises(ConfigError):
        KernelSpec("exponential_sum", coefficients=(1.0,), rates=())
    with pytest.raises(ConfigError):
        normalize(KernelSpec("tabulated", samples=np.ones(7)), TimeGrid(1.0, 10))


def test_normalize_overflow_fails_closed():
    # M(0) = 1e6 makes exp(-alpha t) overflow from the first step on
    spec = KernelSpec("exponential_sum", coefficients=(1e6,), rates=(1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            normalize(spec, make_grid(2.5 * np.pi, 1e-2))
    assert err.value.exit_code == 3
    assert "normalize" in str(err.value) and "N1 " in str(err.value)
    assert "step 1 " in str(err.value)


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
