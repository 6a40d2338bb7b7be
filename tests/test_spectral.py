import numpy as np
import pytest

from memwave import (ConfigError, DomainSpec, compute_eigenpairs,
                     sturm_liouville_eigs, trace_diagnostics)

PI = np.pi
AMP = np.sqrt(2.0 / PI)     # normalized-mode amplitude factor on (0, pi)


@pytest.fixture(scope="module")
def interval_modes():
    dom = DomainSpec("interval", (PI,))
    return compute_eigenpairs(dom, 10, alpha=0.0)


def test_interval_eigenvalues_analytic(interval_modes):
    # exact under a=1, q=0
    assert interval_modes.lambda_sq[:4].tolist() == [1.0, 4.0, 9.0, 16.0]


def test_interval_betas_principal(interval_modes):
    n = np.arange(1, 11)
    assert interval_modes.index.tolist() == n.tolist()
    assert np.array_equal(interval_modes.beta, n.astype(complex))
    assert not interval_modes.in_J.any() and not interval_modes.in_O.any()


def test_interval_trace_values(interval_modes):
    # conormal trace at the right endpoint: a * phi_n'(pi) = amp * n * (-1)^n
    n = np.arange(1, 11)
    trace = interval_modes.trace
    assert trace.dtype == float and trace.shape == (10, 1)
    assert trace[:, 0] == pytest.approx(AMP * n * (-1.0) ** n, rel=1e-14)
    # the beta-scaled trace has constant magnitude across modes
    norms = trace_diagnostics(interval_modes)["norms"]
    assert norms == pytest.approx(np.full(10, AMP), rel=1e-14)
    assert norms[0] == pytest.approx(0.7978845608, abs=1e-9)


def test_take_selects_rows_of_every_field(interval_modes):
    rows = [1, 6, 9]
    some = interval_modes.take(rows)
    assert len(some) == 3 and some.index.tolist() == [2, 7, 10]
    for f in some._fields:
        assert np.array_equal(getattr(some, f),
                              getattr(interval_modes, f)[rows])
    assert interval_modes.take(slice(4)).index.tolist() == [1, 2, 3, 4]
    mask = interval_modes.lambda_sq > 50.0
    assert interval_modes.take(mask).index.tolist() == [8, 9, 10]


def test_trace_diagnostics_range(interval_modes):
    diag = trace_diagnostics(interval_modes)
    assert 0.797 < diag["min"] <= diag["max"] < 0.799
    assert diag["flagged"] == []


def test_two_endpoint_control_scales_norms():
    dom = DomainSpec("interval", (PI,), gamma_subset=("left", "right"))
    modes = compute_eigenpairs(dom, 5, alpha=0.0)
    assert modes.trace.shape == (5, 2)
    diag = trace_diagnostics(modes)
    assert diag["min"] == pytest.approx(AMP * np.sqrt(2.0), rel=1e-12)


def test_left_endpoint_sign():
    dom = DomainSpec("interval", (PI,), gamma_subset=("left",))
    modes = compute_eigenpairs(dom, 3, alpha=0.0)
    assert modes.trace[:, 0] == pytest.approx(-AMP * np.arange(1, 4),
                                              rel=1e-14)


def test_degenerate_set_membership():
    # q = 1 - c^2 puts lambda_1^2 = c^2 = alpha^2 exactly: mode 1 joins J
    c = 0.5
    dom = DomainSpec("interval", (PI,), q=1.0 - c * c, c=c)
    modes = compute_eigenpairs(dom, 3, alpha=c)
    assert modes.in_J.tolist() == [True, False, False] and modes.beta[0] == 0
    # on J the diagnostics read the trace unscaled
    assert trace_diagnostics(modes)["norms"][0] == pytest.approx(AMP,
                                                                  rel=1e-12)
    assert modes.trace[0, 0] == pytest.approx(-AMP, rel=1e-12)


def test_zero_eigenvalue_set():
    dom = DomainSpec("interval", (PI,), q=1.0)
    modes = compute_eigenpairs(dom, 2, alpha=0.0)
    assert modes.in_O[0] and modes.lambda_sq[0] == 0.0
    assert modes.in_J[0]          # beta = sqrt(-0) = 0 too when alpha = 0
    assert not modes.in_O[1]


def test_negative_discriminant_takes_positive_imag_branch():
    dom = DomainSpec("interval", (PI,))
    modes = compute_eigenpairs(dom, 2, alpha=2.0)   # lambda_1^2 - alpha^2 = -3
    assert modes.beta[0] == pytest.approx(1j * np.sqrt(3.0))
    assert modes.beta[0].imag > 0


def test_sturm_liouville_orthonormal():
    lam, vec, xin = sturm_liouville_eigs(1.0, 0.0, PI, 6, 2000)
    h = PI / 2000
    gram = vec.T @ vec * h
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_variable_solver_matches_analytic_interval():
    dom = DomainSpec("interval", (PI,), a=lambda x: np.ones_like(x),
                     q=lambda x: np.zeros_like(x))
    modes = compute_eigenpairs(dom, 10, alpha=0.0, nx=4000)
    n = np.arange(1, 11)
    assert np.all(np.abs(modes.lambda_sq - n * n) < 1e-6)
    assert np.all(np.abs(modes.trace[:, 0] - AMP * n * (-1.0) ** n) < 2e-4)


def test_variable_solver_order_at_least_two():
    errs = []
    for nx in (250, 500, 1000):
        lam, _, _ = sturm_liouville_eigs(1.0, 0.0, PI, 8, nx)
        errs.append(abs(lam[7] - 64.0))
    assert errs[0] / errs[1] > 3.6 and errs[1] / errs[2] > 3.6


def test_variable_coefficient_problem_converges():
    # smooth nonconstant coefficients; two resolutions must agree closely
    a = lambda x: 1.0 + 0.3 * np.sin(x)
    q = lambda x: 0.5 * np.cos(x)
    dom = DomainSpec("interval", (PI,), a=a, q=q)
    coarse = compute_eigenpairs(dom, 6, alpha=0.0, nx=2000)
    fine = compute_eigenpairs(dom, 6, alpha=0.0, nx=4000)
    assert np.all(np.abs(coarse.lambda_sq - fine.lambda_sq)
                  < 1e-6 * (1 + np.abs(fine.lambda_sq)))


def test_rectangle_spectrum_and_multiplicity():
    dom = DomainSpec("rectangle", (PI, PI), gamma_subset=("right",))
    modes = compute_eigenpairs(dom, 8, alpha=0.0)
    lam = modes.lambda_sq
    assert lam[0] == pytest.approx(2.0)          # (1,1)
    assert lam[1] == pytest.approx(5.0)          # (1,2) and (2,1)
    assert lam[2] == pytest.approx(5.0)
    assert modes.trace.shape == (8, 257)         # edge profile nodes


def test_rectangle_trace_profile_is_sine():
    dom = DomainSpec("rectangle", (2.0, 1.0), gamma_subset=("right",))
    modes = compute_eigenpairs(dom, 1, alpha=0.0)
    y = np.linspace(0.0, 1.0, 257)
    # ground mode: phi = (2/sqrt(lx*ly)) sin(pi x/lx) sin(pi y/ly);
    # conormal x-derivative at x=lx picks up (pi/lx)cos(pi) = -pi/lx
    expected = -(2.0 / np.sqrt(2.0)) * (np.pi / 2.0) * np.sin(np.pi * y)
    assert np.max(np.abs(modes.trace[0] - expected)) < 1e-12


def test_rectangle_growth_exponent():
    # Weyl counting in d=2: lambda_(n) ~ const * n^(2/d) = n
    dom = DomainSpec("rectangle", (PI, PI))
    lam = compute_eigenpairs(dom, 60, alpha=0.0).lambda_sq
    n = np.arange(1, 61)
    slope = np.polyfit(np.log(n[9:]), np.log(lam[9:]), 1)[0]
    assert abs(slope - 1.0) < 0.1


def test_interval_growth_exponent():
    dom = DomainSpec("interval", (PI,))
    lam = compute_eigenpairs(dom, 40, alpha=0.0).lambda_sq
    n = np.arange(1, 41)
    slope = np.polyfit(np.log(n[4:]), np.log(lam[4:]), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_domain_validation():
    with pytest.raises(ConfigError):
        DomainSpec("triangle", (1.0,))
    with pytest.raises(ConfigError):
        DomainSpec("interval", (1.0, 2.0))
    with pytest.raises(ConfigError):
        DomainSpec("interval", (1.0,), gamma_subset=("top",))
    with pytest.raises(ConfigError):
        DomainSpec("rectangle", (1.0, 1.0), a=lambda x: x)
