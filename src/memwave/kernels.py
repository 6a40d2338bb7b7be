"""Relaxation kernels and their normalized form.

The wave model carries a convolution memory term M * (Aw).  All later
stages work instead with the normalized kernel N produced by the
exponential state rescaling with rate gamma = -M(0)/2, which forces
N(0) = 1 and N'(0) = 0.  Those two identities are load-bearing (the
modal equations downstream simplify against them), so they are enforced
analytically per kernel family rather than trusted to quadrature.

Derivative chain used throughout, writing Nt for 1 + int_0^t M and
E(t) = exp(2*gamma*t):

    N    = E * Nt
    N'   = E * (2g*Nt + M)            ->  N'(0)  = 2g + M(0) = 0
    N''  = E * (4g^2*Nt + 4g*M + M')
    N''' = E * (8g^3*Nt + 12g^2*M + 6g*M' + M'')
    N1   = exp(-alpha t) * N'
    N1'  = exp(-alpha t) * (N'' - alpha N')
    N1'' = exp(-alpha t) * (N''' - 2 alpha N'' + alpha^2 N')

The third derivative of N (hence M'' for tabulated input) is only
needed by the refined closeness diagnostics; closed-form families
supply it exactly.

For every closed-form family N is also known exactly as exp(2 gamma t)
times a polynomial plus integrals of decaying exponentials
(kernel_terms); the modal marches use that form to carry their memory
sums by recursion instead of re-summing the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
from scipy import fft as sfft

from .errors import ConfigError, ConvergenceError
from .grid import TimeGrid

KERNEL_FAMILIES = ("zero", "exponential_sum", "polynomial", "tabulated")


@dataclass(frozen=True)
class KernelSpec:
    """Relaxation kernel M(t) plus the velocity coefficient it pairs with.

    family one of:
      zero             M = 0 (memoryless comparator system)
      exponential_sum  M(t) = sum_k coefficients[k] * exp(-rates[k] t)
      polynomial       M(t) = sum_j coefficients[j] * t**j
      tabulated        samples of M (and optionally M', M'') on the run grid
    """

    family: str
    c: float = 0.0
    coefficients: tuple = ()
    rates: tuple = ()
    samples: Optional[np.ndarray] = None
    samples_d1: Optional[np.ndarray] = None
    samples_d2: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        if self.family == "exponential_sum":
            if len(self.coefficients) != len(self.rates):
                raise ConfigError("exponential_sum needs matching coefficients and rates")
            if any(b < 0 for b in self.rates):
                raise ConfigError("exponential_sum rates must be nonnegative")
        if self.family == "tabulated" and self.samples is None:
            raise ConfigError("tabulated kernel needs samples of M")

    def m0(self) -> float:
        if self.family == "zero":
            return 0.0
        if self.family == "exponential_sum":
            return float(sum(self.coefficients))
        if self.family == "polynomial":
            return float(self.coefficients[0]) if self.coefficients else 0.0
        return float(self.samples[0])


@dataclass(frozen=True)
class NormalizedKernel:
    """Grid samples of the normalized kernel and its derived fields."""

    gamma: float
    alpha: float
    N: np.ndarray
    Np: np.ndarray      # N'
    N1: np.ndarray      # exp(-alpha t) N'
    N1p: np.ndarray
    N1pp: np.ndarray
    grid: TimeGrid
    spec: KernelSpec = field(repr=False, default=None)
    # exact closed form of N (kernel_terms); None for tabulated
    terms: Optional["KernelTerms"] = None

    @cached_property
    def L(self) -> np.ndarray:
        """Resolvent kernel of N1, an O(m^2) march run on first read."""
        return resolvent(self.N1, self.grid)

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    def restrict(self, steps: int) -> "NormalizedKernel":
        """Restriction to the first `steps` intervals of the same grid.

        All stored fields are pointwise in t and the terms do not depend
        on the horizon, so restriction is exact; the lazy resolvent is a
        causal march, so computing it on the restriction gives the slice
        of the resolvent on [0, T].
        """
        g = self.grid.restrict(steps)
        k = steps + 1
        return NormalizedKernel(self.gamma, self.alpha, self.N[:k], self.Np[:k],
                                self.N1[:k], self.N1p[:k], self.N1pp[:k],
                                g, self.spec, self.terms)


def decay_integral(b: float, t):
    """phi_b(t) = int_0^t exp(-b s) ds = -expm1(-b t) / b.

    expm1 keeps it exact to rounding at any rate, where (1 - exp(-b t))/b
    loses ~log10(1/(b t)) digits; where b t is below rounding phi_b(t)
    is t (its series is t (1 - b t / 2 + ...)), which also covers b = 0.
    """
    x = b * np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x < 2.0 ** -53, t, -np.expm1(-x) / b)


class KernelTerms(NamedTuple):
    """Exact closed form N(t) = exp(rate t) (sum_p poly[p] t^p
    + sum_(a, b) in decays a phi_b(t)), with phi_b = decay_integral."""

    rate: float
    poly: tuple
    decays: tuple


def kernel_terms(spec: KernelSpec, gamma: float) -> Optional[KernelTerms]:
    """The exact closed form of N for a closed-form family, or None.

    N = exp(2 gamma t) (1 + int_0^t M), so an exponential a exp(-b t)
    adds the decay (a, b), that is a phi_b(t) (a t at b = 0), and a
    polynomial coefficient a_j adds a_j/(j+1) t^(j+1).  Decays with equal
    rates are merged and dropped if their coefficients cancel.  The pair
    a/b (exp(2 gamma t) - exp((2 gamma - b) t)) is never formed, so a
    small rate costs no digits.  Tabulated kernels have no closed form.
    """
    if spec.family == "zero":
        return KernelTerms(2.0 * gamma, (1.0,), ())
    if spec.family == "exponential_sum":
        decays = {}
        for a, b in zip(spec.coefficients, spec.rates):
            decays[float(b)] = decays.get(float(b), 0.0) + float(a)
        return KernelTerms(2.0 * gamma, (1.0,),
                           tuple((a, b) for b, a in decays.items() if a != 0.0))
    if spec.family == "polynomial":
        return KernelTerms(2.0 * gamma, (1.0,) + tuple(
            a / (j + 1) for j, a in enumerate(spec.coefficients)), ())
    return None


def _closed_form_m(spec: KernelSpec, t: np.ndarray):
    """M, M', M'' and int_0^t M for the closed-form families."""
    if spec.family == "zero":
        z = np.zeros_like(t)
        return z, z.copy(), z.copy(), z.copy()
    if spec.family == "exponential_sum":
        M = np.zeros_like(t)
        Mp = np.zeros_like(t)
        Mpp = np.zeros_like(t)
        I = np.zeros_like(t)
        for a, b in zip(spec.coefficients, spec.rates):
            e = np.exp(-b * t)
            M += a * e
            Mp += -a * b * e
            Mpp += a * b * b * e
            I += a * decay_integral(b, t)
        return M, Mp, Mpp, I
    if spec.family == "polynomial":
        cs = np.asarray(spec.coefficients, dtype=float)
        M = np.polynomial.polynomial.polyval(t, cs)
        Mp = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(cs)) \
            if len(cs) > 1 else np.zeros_like(t)
        Mpp = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyder(cs, 2)) \
            if len(cs) > 2 else np.zeros_like(t)
        I = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyint(cs))
        return M, Mp, Mpp, I
    raise ConfigError(f"no closed form for family {spec.family!r}")


def _tabulated_m(spec: KernelSpec, grid: TimeGrid):
    M = np.asarray(spec.samples, dtype=float)
    if M.shape != (grid.steps + 1,):
        raise ConfigError(f"tabulated samples shape {M.shape} does not match grid "
                          f"({grid.steps + 1} points)")
    h = grid.h
    if spec.samples_d1 is not None:
        Mp = np.asarray(spec.samples_d1, dtype=float)
    else:
        Mp = np.gradient(M, h, edge_order=2)
        # a second-difference roughness test: if the sampled kernel is too
        # coarse for stable differentiation the curvature estimate explodes
        rough = np.max(np.abs(np.diff(M, 2))) / (h * h)
        scale = max(1.0, np.max(np.abs(M)))
        if rough * h > 10.0 * scale:
            raise ConfigError("tabulated kernel too coarse to differentiate stably; "
                              "supply samples_d1/samples_d2")
    if spec.samples_d2 is not None:
        Mpp = np.asarray(spec.samples_d2, dtype=float)
    else:
        Mpp = np.gradient(Mp, h, edge_order=2)
    for name, arr in (("samples_d1", Mp), ("samples_d2", Mpp)):
        if arr.shape != M.shape:
            raise ConfigError(f"{name} shape {arr.shape} does not match samples")
    I = np.concatenate(([0.0], np.cumsum(h * (M[1:] + M[:-1]) / 2.0)))
    return M, Mp, Mpp, I


def convolve(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Product-trapezoidal causal convolution (f*g)(t_j) on a uniform grid.

    Equals h * (discrete linear convolution - half the two boundary
    products), which is the trapezoid rule applied to every partial
    integral at once; exact for piecewise-linear integrands.  The value
    at t = 0 is pinned to exactly zero.

    Time is axis 0 and the other axes broadcast, an operand with fewer
    axes taking trailing ones: an (m+1,) kernel convolves every column of
    an (m+1, K) batch.  Each operand is transformed once (rfft, or fft
    when either is complex, at next_fast_len(2m+1)), so a column equals
    its one-column call bit for bit.
    """
    f = f.reshape(f.shape + (1,) * (g.ndim - f.ndim))
    g = g.reshape(g.shape + (1,) * (f.ndim - g.ndim))
    if f.shape[0] != g.shape[0] or any(a != b and 1 not in (a, b) for a, b
                                       in zip(f.shape[1:], g.shape[1:])):
        raise ConfigError(f"convolve shape mismatch {f.shape} vs {g.shape}")
    n = f.shape[0]
    real = not (np.iscomplexobj(f) or np.iscomplexobj(g))
    fft, ifft = (sfft.rfft, sfft.irfft) if real else (sfft.fft, sfft.ifft)
    size = sfft.next_fast_len(2 * n - 1, real)
    full = ifft(fft(f, size, axis=0) * fft(g, size, axis=0), size, axis=0)[:n]
    out = h * (full - 0.5 * (f[0] * g + g[0] * f))
    out[0] = 0.0
    return out


def resolvent(N1: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Resolvent kernel L of N1: solves L + N1*L = N1 by marching.

    N1(0) = 0 makes the product-trapezoid step explicit.
    """
    h = grid.h
    m = grid.steps
    L = np.empty(m + 1)
    L[0] = 0.0
    if abs(N1[0]) > 1e-14:
        raise ConfigError("resolvent requires N1(0) = 0")
    for j in range(1, m + 1):
        # trapezoid of int N1(t_j - s) L(s) ds; both end weights vanish
        acc = np.dot(N1[j - 1:0:-1], L[1:j]) if j > 1 else 0.0
        L[j] = N1[j] - h * acc
    return L


def normalize(spec: KernelSpec, grid: TimeGrid) -> NormalizedKernel:
    """Normalized kernel fields on the shared grid.

    Closed-form families get exact derivatives; tabulated input falls
    back to finite differences with a stability guard.
    """
    t = grid.t
    if spec.family == "tabulated":
        M, Mp, Mpp, I = _tabulated_m(spec, grid)
    else:
        M, Mp, Mpp, I = _closed_form_m(spec, t)

    m0 = spec.m0()
    gamma = -0.5 * m0
    alpha = spec.c + gamma

    # a large kernel coefficient overflows the exponentials (exp(-alpha t)
    # with alpha ~ -M(0)/2); the finite check below reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        Nt = 1.0 + I
        E2 = np.exp(2.0 * gamma * t)
        N = E2 * Nt
        # 2*gamma + M(0) = 0 exactly, so Np[0] is an exact zero
        Np = E2 * (2.0 * gamma * Nt + M)
        Npp = E2 * (4.0 * gamma ** 2 * Nt + 4.0 * gamma * M + Mp)
        Nppp = E2 * (8.0 * gamma ** 3 * Nt + 12.0 * gamma ** 2 * M
                     + 6.0 * gamma * Mp + Mpp)

        Em = np.exp(-alpha * t)
        N1 = Em * Np
        N1[0] = 0.0
        N1p = Em * (Npp - alpha * Np)
        N1pp = Em * (Nppp - 2.0 * alpha * Npp + alpha ** 2 * Np)

    for name, values in (("N", N), ("Np", Np), ("N1", N1), ("N1p", N1p),
                         ("N1pp", N1pp)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ConvergenceError(
                f"normalize: kernel field {name} is not finite from step "
                f"{bad[0]} (t = {t[bad[0]]:.6g}); gamma = {gamma:.6g}, "
                f"alpha = {alpha:.6g}: the exponential rescaling overflows")

    return NormalizedKernel(gamma, alpha, N, Np, N1, N1p, N1pp, grid, spec,
                            kernel_terms(spec, gamma))
