"""Relaxation kernels and their normalized form.

The wave model carries a convolution memory term M * (Aw).  All later
stages work instead with the normalized kernel N produced by the
exponential state rescaling with rate gamma = -M(0)/2, which forces
N(0) = 1 and N'(0) = 0.  Those two identities are load-bearing (the
modal equations downstream simplify against them), so they are enforced
analytically per kernel family rather than trusted to quadrature.

N and its derivative, writing Nt for 1 + int_0^t M and
E(t) = exp(2*gamma*t):

    N    = E * Nt
    N'   = E * (2g*Nt + M)            ->  N'(0)  = 2g + M(0) = 0

No stage reads a higher derivative of N, so a tabulated kernel supplies
samples of M alone.

For every closed-form family N is also known exactly as exp(2 gamma t)
times a polynomial plus integrals of decaying exponentials
(kernel_terms); the modal marches use that form to carry their memory
sums by recursion instead of re-summing the history.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ConvergenceError
from .grid import TimeGrid

KERNEL_FAMILIES = ("zero", "exponential_sum", "polynomial", "tabulated")


class _KernelSpecFields(NamedTuple):
    family: str
    c: float
    coefficients: tuple
    rates: tuple
    samples: Optional[np.ndarray]


class KernelSpec(_KernelSpecFields):
    """Relaxation kernel M(t) plus the velocity coefficient it pairs with.

    family one of:
      zero             M = 0 (memoryless comparator system)
      exponential_sum  M(t) = sum_k coefficients[k] * exp(-rates[k] t)
      polynomial       M(t) = sum_j coefficients[j] * t**j
      tabulated        samples of M on the run grid
    """

    __slots__ = ()

    def __new__(cls, family: str, c: float = 0.0, coefficients: tuple = (),
                rates: tuple = (), samples: Optional[np.ndarray] = None):
        if family not in KERNEL_FAMILIES:
            raise ConfigError(f"unknown kernel family {family!r}")
        if family == "exponential_sum":
            if len(coefficients) != len(rates):
                raise ConfigError("exponential_sum needs matching coefficients and rates")
            if any(b < 0 for b in rates):
                raise ConfigError("exponential_sum rates must be nonnegative")
        if family == "tabulated" and samples is None:
            raise ConfigError("tabulated kernel needs samples of M")
        return super().__new__(cls, family, c, coefficients, rates, samples)

    def m0(self) -> float:
        if self.family == "zero":
            return 0.0
        if self.family == "exponential_sum":
            return float(sum(self.coefficients))
        if self.family == "polynomial":
            return float(self.coefficients[0]) if self.coefficients else 0.0
        return float(self.samples[0])


class NormalizedKernel(NamedTuple):
    """Grid samples of the normalized kernel and its derivative."""

    gamma: float
    alpha: float
    N: np.ndarray
    Np: np.ndarray      # N'
    grid: TimeGrid
    # exact closed form of N (kernel_terms); None for tabulated
    terms: Optional["KernelTerms"] = None

    def check_finite(self, *names: str) -> None:
        """ConvergenceError at the first of the named fields that is not
        finite, naming it and its first such step: the exponential
        rescaling overflowed there; normalize checks N and N'."""
        for name in names:
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise ConvergenceError(
                    f"normalize: kernel field {name} is not finite from "
                    f"step {bad[0]} (t = {self.t[bad[0]]:.6g}); gamma = "
                    f"{self.gamma:.6g}, alpha = {self.alpha:.6g}: the "
                    "exponential rescaling overflows")

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def t(self) -> np.ndarray:
        return self.grid.t

    def restrict(self, steps: int) -> "NormalizedKernel":
        """Restriction to the first `steps` intervals of the same grid.

        Both fields are pointwise in t and the terms do not depend on
        the horizon, so restriction is exact.
        """
        k = steps + 1
        return NormalizedKernel(self.gamma, self.alpha, self.N[:k],
                                self.Np[:k], self.grid.restrict(steps),
                                self.terms)


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
    """M and int_0^t M for the closed-form families."""
    if spec.family == "zero":
        return np.zeros_like(t), np.zeros_like(t)
    if spec.family == "exponential_sum":
        M, I = np.zeros_like(t), np.zeros_like(t)
        for a, b in zip(spec.coefficients, spec.rates):
            M += a * np.exp(-b * t)
            I += a * decay_integral(b, t)
        return M, I
    if spec.family == "polynomial":
        poly = np.polynomial.polynomial
        cs = np.asarray(spec.coefficients, dtype=float)
        return poly.polyval(t, cs), poly.polyval(t, poly.polyint(cs))
    raise ConfigError(f"no closed form for family {spec.family!r}")


def _tabulated_m(spec: KernelSpec, grid: TimeGrid):
    """M and its trapezoid integral from the samples of a tabulated
    kernel, after a resolution check on them."""
    M = np.asarray(spec.samples, dtype=float)
    if M.shape != (grid.steps + 1,):
        raise ConfigError(f"tabulated samples shape {M.shape} does not match grid "
                          f"({grid.steps + 1} points)")
    h = grid.h
    # a second-difference roughness test: if the samples are too coarse to
    # resolve the kernel, the curvature estimate explodes
    rough = np.max(np.abs(np.diff(M, 2))) / (h * h)
    scale = max(1.0, np.max(np.abs(M)))
    if rough * h > 10.0 * scale:
        raise ConfigError("tabulated kernel too rough for its grid; sample "
                          "it more finely")
    I = np.concatenate(([0.0], np.cumsum(h * (M[1:] + M[:-1]) / 2.0)))
    return M, I


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, an FFT size numpy's
    pocketfft transforms by its fastest radices (the size
    scipy.fft.next_fast_len(n, real=True) gives)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Rows per chunk of series_product's transforms: 24 real inverse rows of
# size 16000 (verify's assembly) take 2.4 ms four at a time against 3.7 ms
# one at a time, and larger chunks gain little more
INVERSE_ROWS = 4


def _fft_products(f: np.ndarray, g: np.ndarray, n: int,
                  h: Optional[float] = None) -> np.ndarray:
    """First n coefficients of f g over the broadcast leading axes, and
    with h given the product trapezoid h (f g - (f_0 g + g_0 f) / 2)
    (convolve before its pinned zero).

    The work runs through chunks of the last broadcast axis (the one an
    (m+1,) kernel broadcasts against a (K, m+1) batch), at most
    INVERSE_ROWS product rows at a time: an operand with one row on that
    axis is transformed once, the other chunk by chunk into one reused
    spectrum buffer; the product spectra of a chunk are formed in a
    second and inverted into the first, then copied into the result, or
    with h corrected into it in cache, the second buffer holding the
    g_0 f term.  So a call holds the result, the once-transformed
    spectrum and two chunk-sized buffers, and every transform runs
    along a contiguous row.
    """
    f, g = f[..., :n], g[..., :n]
    shape = np.broadcast_shapes(f.shape[:-1], g.shape[:-1])
    lead = shape or (1,)
    f, g = (a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape)
            for a in (f, g))
    real = not (np.iscomplexobj(f) or np.iscomplexobj(g))
    dtype = float if real else complex
    fft, ifft = ((np.fft.rfft, np.fft.irfft) if real
                 else (np.fft.fft, np.fft.ifft))
    size = _fast_len(f.shape[-1] + g.shape[-1] - 1)
    width = size // 2 + 1 if real else size
    out = np.empty(lead + (n,), dtype)
    outer, last = lead[:-1], lead[-1]
    rows = min(last, max(1, INVERSE_ROWS // math.prod(outer)))
    # a chunk's spectra are dead once its products are formed, and its
    # inverse is written after that: they share one complex work array,
    # the chunk spectra of each operand with more than one row on the
    # last axis one after the other, the inverse over its start
    shapes = [a.shape[:-2] + (rows, width) for a in (f, g)
              if a.shape[-2] > 1]
    ends = np.cumsum([0] + [math.prod(s) for s in shapes])
    inverse = outer + (rows, size)
    work = np.empty(max(ends[-1], math.prod(inverse) // (2 if real else 1)
                        + 1), complex)
    buffers = iter(work[a:b].reshape(s)
                   for a, b, s in zip(ends, ends[1:], shapes))
    spectra = [fft(a, size) if a.shape[-2] == 1 else next(buffers)
               for a in (f, g)]
    inverse = work.view(dtype)[:math.prod(inverse)].reshape(inverse)
    product = np.empty(outer + (rows, width), complex)
    for start in range(0, last, rows):
        chunk = slice(start, min(start + rows, last))
        k = chunk.stop - start
        fc, gc = (a if a.shape[-2] == 1 else a[..., chunk, :] for a in (f, g))
        F, G = (spec if a.shape[-2] == 1 else
                fft(a[..., chunk, :], size, out=spec[..., :k, :])
                for a, spec in zip((f, g), spectra))
        P = np.multiply(F, G, out=product[..., :k, :])
        fg = ifft(P, size, out=inverse[..., :k, :])[..., :n]
        block = out[..., chunk, :]
        if h is None:
            block[...] = fg
            continue
        np.multiply(fc[..., :1], gc, out=block)
        block += np.multiply(gc[..., :1], fc, out=P.view(dtype)[..., :n])
        block *= 0.5
        np.subtract(fg, block, out=block)
        block *= h
    return out.reshape(shape + (n,))


def series_product(f: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the power-series product f g.

    Coefficients run along the last axis and the leading axes broadcast
    as in convolve.  Each operand is cut to n terms and transformed once
    on numpy.fft (rfft, or fft when either is complex), at the 5-smooth
    size _fast_len(len f + len g - 1) that keeps the circular product
    free of wrap-around.  The transforms run through chunks of the last
    broadcast axis, INVERSE_ROWS product rows at a time, straight into
    the result (_fft_products), so only chunk-sized buffers are held
    beside it.  A row gets the same bits whatever batch or chunk it is
    in.
    """
    return _fft_products(f, g, n)


def series_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """First m+1 coefficients of q with q den = num, num of length m+1.

    The solve of the lower-triangular Toeplitz system of den, in
    O(m log m): Newton iteration g <- g + g (1 - den g) doubles the
    correct terms of 1/den each round (Brent & Kung, J. ACM 25, 1978),
    and q = num / den is one last product.  Coefficients run along the
    last axis; every product is a series_product, batched over leading
    axes like it, and 1/den is found on den's rows as one (rows, m+1)
    batch; den[..., 0] must not vanish.
    """
    n, shape = num.shape[-1], den.shape
    den = den.reshape(-1, shape[-1])
    inv = 1.0 / den[..., :1]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        # den inv = 1 + x^k e + O(x^k2): only e, its terms k..k2-1, is new
        e = series_product(den, inv, k2)[..., k:]
        inv = np.concatenate([inv, -series_product(inv, e, k2 - k)], axis=-1)
        k = k2
    return series_product(num, inv.reshape(shape[:-1] + (-1,)), n)


def _convolvable(f: np.ndarray, g: np.ndarray):
    """ConfigError unless f and g share the time axis, their last, and
    their leading axes broadcast."""
    if f.shape[-1:] != g.shape[-1:] or any(
            a != b and 1 not in (a, b)
            for a, b in zip(f.shape[-2::-1], g.shape[-2::-1])):
        raise ConfigError(f"convolve shape mismatch {f.shape} vs {g.shape}")


def convolve(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Product-trapezoidal causal convolution (f*g)(t_j) on a uniform grid.

    Equals h * (discrete linear convolution - half the two boundary
    products), which is the trapezoid rule applied to every partial
    integral at once; exact for piecewise-linear integrands.  The value
    at t = 0 is pinned to exactly zero.

    Time is the last axis and the leading axes broadcast: an (m+1,)
    kernel convolves every row of a (K, m+1) batch.  The discrete
    convolution is series_product's chunk loop (_fft_products), which
    transforms each operand once and each row of the result on its own,
    so a row equals its one-row call bit for bit.  The boundary
    correction is applied to each chunk of rows while it is in cache, in
    the order h (product - (f_0 g + g_0 f) / 2), with no full-length
    temporary.
    """
    _convolvable(f, g)
    out = _fft_products(f, g, f.shape[-1], h)
    out[..., 0] = 0.0
    return out


def convolve_end(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """convolve(f, g, h)[..., -1], the product trapezoid at the last
    sample only.

    h (sum_k f_k g_(m-k) - (f_0 g_m + g_0 f_m) / 2) as one contraction
    over the time axis, the last, O(m) where the whole convolution costs
    FFTs of twice the length.  Operands broadcast and are checked as in
    convolve; the value at m = 0 is exactly zero.  It agrees with
    convolve's last sample to rounding, not bit for bit.
    """
    _convolvable(f, g)
    if f.shape[-1] == 1:
        return np.zeros(np.broadcast_shapes(f.shape[:-1], g.shape[:-1]),
                        dtype=np.result_type(f, g))
    return h * (np.einsum("...i,...i->...", f, g[..., ::-1])
                - 0.5 * (f[..., 0] * g[..., -1] + g[..., 0] * f[..., -1]))


def resolvent(k: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Resolvent kernel L of a kernel k sampled on grid with k(0) = 0
    (for example exp(-alpha t) N'): solves L + k*L = k.

    k(0) = 0 drops both trapezoid end weights, so the product-trapezoid
    equation is the series division L (1 + h k) = k.
    """
    if abs(k[0]) > 1e-14:
        raise ConfigError("resolvent requires k(0) = 0")
    den = grid.h * k
    den[0] = 1.0
    return series_divide(k, den)


def normalize(spec: KernelSpec, grid: TimeGrid) -> NormalizedKernel:
    """Normalized kernel N and N' on the shared grid.

    Closed-form families give M and its integral exactly; tabulated
    input gives them from its samples, with a resolution guard.
    """
    if spec.family == "tabulated":
        M, I = _tabulated_m(spec, grid)
    else:
        M, I = _closed_form_m(spec, grid.t)
    gamma = -0.5 * spec.m0()
    alpha = spec.c + gamma
    # a large kernel coefficient overflows the exponentials (exp(-alpha t)
    # with alpha ~ -M(0)/2); the finite check reports it instead
    with np.errstate(over="ignore", invalid="ignore"):
        Nt = 1.0 + I
        E2 = np.exp(2.0 * gamma * grid.t)
        N = E2 * Nt
        # 2*gamma + M(0) = 0 exactly, so Np[0] is an exact zero
        Np = E2 * (2.0 * gamma * Nt + M)
    kernel = NormalizedKernel(gamma, alpha, N, Np, grid,
                              kernel_terms(spec, gamma))
    kernel.check_finite("N", "Np")
    return kernel

