"""Modal Volterra solvers and asymptotic diagnostics.

Each retained mode obeys an integro-differential equation driven by the
normalized kernel,

    z' = 2 alpha z - lambda^2 (N * z),                  z(0) = 1,
    Z' = 2 alpha Z - lambda^2 (N * Z) + N' + i beta N,  Z(0) = 1,

with beta replaced by 1 in the forcing on the degenerate set.  Both
are marched with an implicit trapezoidal step for the local terms and
a product trapezoid for the memory term.  The scheme is the
trapezoid rule of the equivalent second-order form, so it is
unconditionally stable at any step for the memoryless limit and remains
stable at the default grids for the smooth kernels supported here.

Cost model for a march of m steps over K modes.  For the closed-form
families N is known exactly (kernels.KernelTerms), so the
product-trapezoid history sum is carried exactly by a handful of states
per mode, and one step is a fixed linear map on d = 2 + (polynomial
terms) + (decay rates) numbers.  The march applies it BLOCK = B steps
at a time with batched matrix products (_march_blocks): O(m K (B + d))
flops and ceil(m/B) Python iterations.  A tabulated kernel has no
closed form and keeps the direct history sum, O(m^2 K), one
matrix-vector product per step.  The discretisation is the same either
way; only the rounding differs.

Z is additionally assembled by the variation-of-constants identity
Z = z + N'*z + i beta (N*z), and the two routes are cross-checked; the
assembled route is the one stored on ModeResponse because the forward
simulator shares its discrete ingredients, which keeps the synthesis /
verification loop exactly consistent.  The assembly uses FFT
convolutions of the sampled kernel, never the recurrence, so the check
stays independent of the march; it convolves N and N' against every
mode of a batch in one call each.  A ModeResponse keeps z, Z, N*z and
N'*z; S = exp(-alpha t) Z is computed when read.

The refined small-residual route (refined_S / comparator_profile) exists
because the marched phase error grows like T beta^3 h^2 / 12 and would
bury the O(1/beta^2) closeness signal at high modes: it recasts S as a
fixed-kernel integral equation whose quadrature error does not
accumulate with beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ConvergenceError, InternalConsistencyError
from .kernels import KernelTerms, NormalizedKernel, convolve, decay_integral
from .spectral import EigenPair


@dataclass(frozen=True)
class ModeResponse:
    n: int                   # signed index; negatives built by conjugation
    z: np.ndarray            # real
    Z: np.ndarray            # complex, variation-of-constants assembly
    lambda_sq: float = 0.0
    beta: complex = 0.0
    psi: np.ndarray = None
    trace: np.ndarray = None
    in_J: bool = False
    # shared discrete ingredients, reused verbatim by the simulator
    Nz: np.ndarray = field(default=None, repr=False)     # N * z
    Npz: np.ndarray = field(default=None, repr=False)    # N' * z

    # grid step and alpha of the kernel, for S
    _h: float = field(default=0.0, repr=False)
    _alpha: float = field(default=0.0, repr=False)

    @property
    def S(self) -> np.ndarray:
        """exp(-alpha t) Z, computed when read."""
        return np.exp(-self._alpha * (np.arange(len(self.Z)) * self._h)) * self.Z

    def conjugate(self) -> "ModeResponse":
        return replace(self, n=-self.n, Z=np.conj(self.Z),
                       beta=-np.conj(self.beta))

    def restrict(self, steps: int) -> "ModeResponse":
        """Exact restriction to a shorter horizon on the same step.

        The march and both convolutions are causal and Z is assembled
        pointwise from them, so slicing is the same computation on the
        shorter grid.
        """
        k = steps + 1
        return replace(self, z=self.z[:k], Z=self.Z[:k], Nz=self.Nz[:k],
                       Npz=self.Npz[:k])


def growth_envelope(alpha: float, T: float) -> float:
    """Gronwall-type validity bound exp((|2 alpha| + 1) T) for |z|."""
    return math.exp(min((abs(2.0 * alpha) + 1.0) * T, 500.0))


# Steps per block of the state-space march (fastest of 16..256 at K = 12
# modes, 7854 steps).
BLOCK = 64


def _step_map(terms: KernelTerms, h: float, A, B, Be0):
    """One march step as the linear map x_j = M x_{j-1} + b F_{j-1}.

    The state of a mode is x = (y, I, S_0..S_P, Phi_1..Phi_D): the value,
    the memory integral and the history sums of N's closed form
    (kernels.KernelTerms, rate r, poly P+1 long, D decays),
        S_q(j)   = sum_{k<j} ((j-k) h)^q rho^(j-k) u_k,
        Phi_i(j) = sum_{k<j} rho^(j-k) phi_i((j-k) h) u_k,
    with rho = exp(r h) and u_k = y_k, except u_0 = y_0 / 2 (the
    trapezoid end weight, folded into x_0 as S_0 = -y_0 / 2).  With
    s = (S, Phi), s_j = W (s_{j-1} + e_0 y_{j-1}) by the positive
    binomial rule for S and phi((n+1) h) = e^{-bh} phi(n h) + phi(h) for
    Phi, so no entry of W is a difference of large numbers.  The history
    part of the memory integral is P_j = g s_j with g = B h (poly, a),
    and the trapezoid step over D reads
        y_j = A y_{j-1} - I_{j-1} - P_j + F_{j-1},   I_j = P_j + Be0 y_j.
    A, B and Be0 are (K,) arrays; returns M (K, d, d) and b (K, d).
    """
    rho = math.exp(terms.rate * h)
    npoly = len(terms.poly)
    ns = npoly + len(terms.decays)
    W = np.zeros((ns, ns))
    for q in range(npoly):
        for i in range(q + 1):
            W[q, i] = rho * math.comb(q, i) * h ** (q - i)
    for i, (_, rate) in enumerate(terms.decays, start=npoly):
        W[i, 0] = rho * float(decay_integral(rate, h))
        W[i, i] = rho * math.exp(-rate * h)
    c = np.array(terms.poly + tuple(a for a, _ in terms.decays))
    gW = (B * h)[:, None] * (c @ W)
    K = len(A)
    M = np.zeros((K, ns + 2, ns + 2))
    M[:, 2:, 0] = W[:, 0]
    M[:, 2:, 2:] = W
    P = np.zeros((K, ns + 2))        # P_j = P x_{j-1}
    P[:, 0] = gW[:, 0]
    P[:, 2:] = gW
    M[:, 0] = -P
    M[:, 0, 0] += A
    M[:, 0, 1] = -1.0
    M[:, 1] = P + Be0[:, None] * M[:, 0]
    b = np.zeros((K, ns + 2))
    b[:, 0] = 1.0
    b[:, 1] = Be0
    return M, b


def _march_blocks(kernel: NormalizedKernel, A, B, Be0, y0, F,
                  dtype) -> np.ndarray:
    """y_0..y_m of x_j = M x_{j-1} + b F_{j-1} (_step_map), BLOCK steps
    per product.

    From a block start state x_s,
        y_{s+i} = e_0 M^i x_s + sum_{l<i} e_0 M^(i-1-l) b F_{s+l},
    a zero-input part and a lower-triangular Toeplitz zero-state part,
    each one batched matrix product over every block at once; only the
    block start states are carried, by a loop of ceil(m/BLOCK) tiny
    updates.  M is real, so complex data runs as its real and imaginary
    parts (rows of the same products).  Blocks are rows: BLAS gives a row
    the same bits whatever the row count, so a march restricted to k
    steps equals a fresh k-step march; a one-row product would go
    through gemv, which sums in another order, hence at least two blocks.
    F is (m, K) or None, and is released once copied; returns (m+1, K).
    """
    M, b = _step_map(kernel.terms, kernel.h, A, B, Be0)
    m = kernel.grid.steps
    K, d, _ = M.shape
    c = 2 if dtype is complex else 1
    nb = max(-(-m // BLOCK), 2)
    Mi = np.empty((BLOCK + 1, K, d, d))          # Mi[i] = M^i
    Mi[0] = np.eye(d)
    for i in range(1, BLOCK + 1):
        Mi[i] = Mi[i - 1] @ M
    # zero-input rows e_0 M^i (i = 1..B) as (K, d, B), M^i b (i < B)
    R = np.ascontiguousarray(Mi[1:, :, 0, :].transpose(1, 2, 0))
    Mb = np.einsum("ikde,ke->kid", Mi[:BLOCK], b)
    MBT = np.ascontiguousarray(Mi[BLOCK].transpose(0, 2, 1))
    y0_parts = np.asarray(y0, dtype=dtype).reshape(1).view(float)
    X = np.empty((nb, K, c, d))                   # block start states
    X[0] = 0.0
    X[0, :, :, 0] = y0_parts
    X[0, :, :, 2] = -0.5 * y0_parts
    if F is None:
        Y = np.zeros((K, c * nb, BLOCK))
        for k in range(nb - 1):
            X[k + 1] = X[k] @ MBT
    else:
        Fb = np.zeros((K, c, nb * BLOCK))
        Fb[:, :, :m] = F.view(float).reshape(m, K, c).transpose(1, 2, 0)
        del F       # peak memory: the caller keeps no reference
        Fb = Fb.reshape(K, c * nb, BLOCK)
        # zero-state: T[l, i] = e_0 M^(i-l) b for i >= l, else 0
        padded = np.concatenate([np.zeros((K, BLOCK - 1)), Mb[:, :, 0]], axis=1)
        T = np.lib.stride_tricks.sliding_window_view(padded, BLOCK, axis=1)
        Y = Fb @ np.ascontiguousarray(T[:, ::-1])
        # block-end state drive sum_l M^(B-1-l) b F_{s+l}
        GF = (Fb @ np.ascontiguousarray(Mb[:, ::-1])).reshape(
            K, c, nb, d).transpose(2, 0, 1, 3)
        del Fb      # freed before the zero-input product: peak memory
        for k in range(nb - 1):
            X[k + 1] = X[k] @ MBT + GF[k]
    Y += np.ascontiguousarray(X.transpose(1, 2, 0, 3)).reshape(
        K, c * nb, d) @ R
    out = np.empty((m + 1, K), dtype=dtype)
    out[0] = y0
    out[1:].view(float).reshape(m, K, c)[...] = Y.reshape(
        K, c, nb * BLOCK)[:, :, :m].transpose(2, 0, 1)
    return out


def _march_direct(kernel: NormalizedKernel, A, B, Be0, y0, F,
                  dtype) -> np.ndarray:
    """The same march with the history sum re-summed at every step, for
    kernels without a closed form: O(m^2 K), one matrix-vector product
    per step."""
    N, h, m = kernel.N, kernel.h, kernel.grid.steps
    Y = np.empty((m + 1, len(A)), dtype=dtype)
    Y[0] = y0
    y = Y[0]
    I_prev = 0.0
    for j in range(1, m + 1):
        P = B * (h * (0.5 * N[j] * y0 + np.dot(N[j - 1:0:-1], Y[1:j])))
        y = A * y - (I_prev + P)
        if F is not None:
            y = y + F[j - 1]
        I_prev = P + Be0 * y
        Y[j] = y
    return Y


def _first(bad: np.ndarray):
    """(step, column) of the first True of a time-major (steps, K) mask."""
    j = int(np.argmax(bad.any(axis=1)))
    return j, int(np.argmax(bad[j]))


def _trapezoid_forcing(forcing: np.ndarray, h: float, D, dtype, where: str,
                       label: str) -> np.ndarray:
    """F_{j-1} = h (f_{j-1} + f_j) / (2 D), the forcing of step j, (m, K).

    Raises ConvergenceError at the first step where it is not finite: a
    block product would spread 0 * NaN back to the start of the block.
    """
    f = forcing.reshape(len(forcing), -1)
    F = np.add(f[:-1], f[1:], dtype=dtype)      # in place: one temporary
    F *= 0.5 * h
    F /= D
    bad = ~np.isfinite(F)
    if bad.any():
        j, col = _first(bad)
        raise ConvergenceError(
            f"modal march forcing is not finite at step {j + 1} "
            f"(t={(j + 1) * h:.4g}){where.format(col)} {label}")
    return F


def march_modal(kernel: NormalizedKernel, lam_sq, alpha: float,
                y0=1.0, forcing: np.ndarray = None, label: str = "") -> np.ndarray:
    """Implicit-trapezoid / product-trapezoid march of the modal equation.

    Solves y' = 2 alpha y - lam_sq (N * y) + forcing with y(0) = y0.
    lam_sq is a scalar, or a (K,) array marched as one batch of modes
    with forcing of shape (m+1, K); the result is time-major, (m+1,) or
    (m+1, K).  A single mode is a batch of one.  Raises ConvergenceError
    at the first step whose forcing is not finite, and at the first step
    whose value is not finite or leaves the Gronwall envelope, which at
    these grids only happens for invalid input (a non-normalized kernel
    or a degenerate step).
    """
    h = kernel.h
    m = kernel.grid.steps
    N0 = float(kernel.N[0])
    lam = np.asarray(lam_sq, dtype=float)
    batch = lam.shape
    if len(batch) > 1:
        raise ConfigError(f"lam_sq must be a scalar or a 1-D array, got {batch}")
    if forcing is not None and forcing.shape != (m + 1,) + batch:
        raise ConfigError(f"forcing shape {forcing.shape} does not match "
                          f"{(m + 1,) + batch}")
    lam = lam.reshape(-1)
    where = " in batch column {}" if batch else ""
    D = 1.0 - alpha * h + lam * h * h * N0 / 4.0
    if not np.all(D > 1e-12):
        raise ConvergenceError(
            f"degenerate implicit step (D={np.min(D):.3e}) {label}")
    bound = growth_envelope(alpha, kernel.grid.T) * (1.0 + 1e-9)

    dtype = complex if np.iscomplexobj(forcing) or isinstance(y0, complex) \
        else float
    # The trapezoid step over D reads y_j = A y_{j-1} - (I_{j-1} + P_j) + F_j
    # with I the memory integral and P_j its history part
    # h (N_j y_0 / 2 + sum_{0<k<j} N_{j-k} y_k), both scaled by
    # B = lam_sq h / (2 D).
    A = (1.0 + alpha * h) / D
    B = 0.5 * lam * h / D
    Be0 = B * (0.5 * h * N0)
    march = _march_direct if kernel.terms is None else _march_blocks
    with np.errstate(over="ignore", invalid="ignore"):
        # F goes straight to the march, which may free it early
        Y = march(kernel, A, B, Be0, y0, None if forcing is None else
                  _trapezoid_forcing(forcing, h, D, dtype, where, label),
                  dtype)

    bad = ~(np.abs(Y) <= bound)
    if bad.any():
        j, col = _first(bad)
        raise ConvergenceError(
            f"modal march left the Gronwall envelope at step {j} "
            f"(t={j * h:.4g}){where.format(col)}: |y|={abs(Y[j, col]):.3e}, "
            f"bound {bound:.3e}; non-finite input or step too large {label}")
    return Y.reshape((m + 1,) + batch)


def solve_z(kernel: NormalizedKernel, lambda_sq: float,
            alpha: float = None) -> np.ndarray:
    """Homogeneous modal response z with z(0) = 1 (real)."""
    a = kernel.alpha if alpha is None else alpha
    return march_modal(kernel, lambda_sq, a, y0=1.0,
                       label=f"(lambda_sq={lambda_sq:.6g})")


def forcing_K(kernel: NormalizedKernel, pair: EigenPair) -> np.ndarray:
    factor = 1j if pair.in_J else 1j * pair.beta
    return kernel.Np + factor * kernel.N


def _consistency_tol(kernel: NormalizedKernel, pair: EigenPair) -> float:
    """Allowance 10 * C * h^2 for the two-route cross-check.

    C combines the Gronwall envelope with a phase-accumulation factor;
    it is deliberately generous (a real quadrature bug shows up orders
    of magnitude above it, while the measured route gap sits well
    below).
    """
    T = kernel.grid.T
    a = kernel.alpha
    C = (1.0 + abs(a) * T) * math.exp(min(2.0 * abs(a) * T, 60.0)) \
        * (1.0 + abs(pair.beta) * T / 10.0)
    return 10.0 * C * kernel.h ** 2


def _assemble_Z(kernel: NormalizedKernel, pairs, z: np.ndarray,
                Z_march: np.ndarray):
    """Variation-of-constants Z from z, checked against the marched Z.

    z and Z_march are (m+1, K), one column per pair.  Returns
    (Z_voc, N*z, N'*z), each (m+1, K); disagreement of a mode beyond its
    scheme allowance flags a quadrature bug.
    """
    Nz = convolve(kernel.N, z, kernel.h)
    Npz = convolve(kernel.Np, z, kernel.h)
    factor = np.array([1j if p.in_J else 1j * p.beta for p in pairs])
    Z_voc = z + Npz + factor * Nz
    gaps = np.max(np.abs(Z_march - Z_voc), axis=0)
    for p, gap in zip(pairs, gaps):
        tol = _consistency_tol(kernel, p)
        if gap > tol:
            raise InternalConsistencyError(
                f"Z routes disagree on mode {p.index}: gap {gap:.3e} "
                f"exceeds allowance {tol:.3e}")
    return Z_voc, Nz, Npz


def solve_Z(kernel: NormalizedKernel, pair: EigenPair,
            return_march: bool = False):
    """Forced modal response Z by two independent routes.

    Marches the forced equation directly, assembles the
    variation-of-constants identity from z, and cross-checks the two.
    Returns the assembled route (plus the marched one on request).
    """
    Z_march = march_modal(kernel, pair.lambda_sq, kernel.alpha, y0=1.0,
                          forcing=forcing_K(kernel, pair),
                          label=f"(mode {pair.index})")
    z = solve_z(kernel, pair.lambda_sq)
    Z_voc, Nz, Npz = (a[:, 0] for a in _assemble_Z(
        kernel, [pair], z[:, None], Z_march[:, None]))
    if return_march:
        return Z_voc, Z_march, z, Nz, Npz
    return Z_voc


def compute_response(kernel: NormalizedKernel, pair: EigenPair) -> ModeResponse:
    return compute_responses(kernel, [pair])[pair.index]


def compute_responses(kernel: NormalizedKernel, pairs) -> dict:
    """ModeResponse per positive index, every mode marched in one batch.

    One z march and one Z march advance all modes together, and the
    variation-of-constants assembly convolves the whole batch at once;
    its two-route check stays per mode.
    """
    pairs = list(pairs)
    if not pairs:
        return {}
    lam = np.array([p.lambda_sq for p in pairs])
    label = f"(modes {', '.join(str(p.index) for p in pairs)})"
    z = march_modal(kernel, lam, kernel.alpha, y0=1.0, label=label)
    K = np.stack([forcing_K(kernel, p) for p in pairs], axis=1)
    Z_march = march_modal(kernel, lam, kernel.alpha, y0=1.0, forcing=K,
                          label=label)
    # rows of the transposed batches: each mode's fields are contiguous
    z, Z, Nz, Npz = (np.ascontiguousarray(a.T) for a in
                     (z, *_assemble_Z(kernel, pairs, z, Z_march)))
    return {p.index: ModeResponse(p.index, z[i], Z[i], p.lambda_sq, p.beta,
                                  p.psi, p.trace, p.in_J, Nz[i], Npz[i],
                                  kernel.h, kernel.alpha)
            for i, p in enumerate(pairs)}


def transformed_exponential(pair: EigenPair, a: float, t: np.ndarray) -> np.ndarray:
    """exp(i beta t) + (a/beta) sin(beta t), or 1 + (a + i) t on the
    degenerate set: the base profile of the memoryless family with
    damping parameter a, and of the comparator and S equations with
    a = alpha."""
    if pair.in_J:
        return 1.0 + (a + 1j) * t
    b = pair.beta
    return np.exp(1j * b * t) + (a / b) * np.sin(b * t)


def refined_S(kernel: NormalizedKernel, pair: EigenPair) -> np.ndarray:
    """Mode-uniform S via its fixed-kernel integral equation.

    S = G + W * S with W = -mu N1 + (mu/beta) Q, where mu is
    lambda^2/beta^2 and Q = N1'(0) sin(beta t) + N1'' * sin(beta t).
    W(0) = 0 makes the product-trapezoid march explicit.  The quadrature
    error here stays O(h^2) uniformly in beta because the oscillatory
    factors sit inside nonaccumulating convolutions.
    """
    if pair.in_J:
        raise ConfigError("refined route needs beta != 0")
    b = pair.beta
    mu = pair.lambda_sq / (b * b)
    t = kernel.t
    h = kernel.h
    sb = np.sin(b * t)
    base = transformed_exponential(pair, kernel.alpha, t)
    G = base + convolve(kernel.N1, base, h)
    Q = kernel.N1p[0] * sb + convolve(kernel.N1pp, sb, h)
    W = -mu * kernel.N1 + (mu / b) * Q

    m = kernel.grid.steps
    S = np.empty(m + 1, dtype=complex)
    S[0] = G[0]
    for j in range(1, m + 1):
        acc = np.dot(W[j - 1:0:-1], S[1:j]) if j > 1 else 0.0
        S[j] = G[j] + h * (0.5 * W[j] * S[0] + acc)
    return S


def comparator_profile(kernel: NormalizedKernel, pair: EigenPair) -> np.ndarray:
    """Transformed-exponential comparator for the closeness study.

    C = base + (1/2) R * (t E) with R = N1' - L * N1',
    E = exp(i beta t) and base = E + (alpha/beta) sin(beta t)
    (transformed_exponential).  The sine correction in the base is what
    keeps S - C at O(1/beta^2) when alpha != 0; with alpha = 0 the base
    degenerates to the bare exponential.
    """
    if pair.in_J:
        raise ConfigError("comparator needs beta != 0")
    t = kernel.t
    h = kernel.h
    R = kernel.N1p - convolve(kernel.L, kernel.N1p, h)
    return transformed_exponential(pair, kernel.alpha, t) \
        + 0.5 * convolve(R, t * np.exp(1j * pair.beta * t), h)


def asymptotic_residual(responses, surrogate: dict = None) -> dict:
    """Distance of each S_n from its pure oscillation, with a decay fit.

    r_n = sup norm of S_n - exp(i beta_n t); the log-log slope against
    beta over the supplied modes is the headline number.  `surrogate`
    optionally substitutes alternative S samples per index (for the
    refined route) without rebuilding responses.
    """
    usable = [r for r in responses if r.n > 0 and r.beta.imag == 0
              and r.beta.real > 0]
    if len(usable) < 8:
        raise ConfigError("asymptotic fit needs at least 8 real-beta modes")
    betas, sups = [], []
    for r in usable:
        S = surrogate[r.n] if surrogate is not None else r.S
        t = np.arange(len(S)) * r._h
        rn = float(np.max(np.abs(S - np.exp(1j * r.beta.real * t))))
        betas.append(r.beta.real)
        sups.append(rn)
    betas = np.array(betas)
    sups = np.array(sups)
    ok = sups > 0
    if int(ok.sum()) < 2:
        raise ConfigError(
            "asymptotic fit is degenerate: residuals vanish identically "
            "(a memoryless kernel leaves nothing to fit)")
    slope, intercept = np.polyfit(np.log(betas[ok]), np.log(sups[ok]), 1)
    return {
        "indices": [r.n for r in usable],
        "beta": betas,
        "residuals": sups,
        "slope": float(slope),
        "intercept": float(intercept),
    }
