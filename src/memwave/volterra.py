"""Modal Volterra solvers and asymptotic diagnostics.

Each retained mode obeys an integro-differential equation driven by the
normalized kernel,

    z' = 2 alpha z - lambda^2 (N * z),            z(0) = 1,
    Z' = 2 alpha Z - lambda^2 (N * Z) + K(t),     Z(0) = 1,

with K = N' + i beta N off the degenerate set and K = N' + i N on it.
Both are marched with an implicit trapezoidal step for the local terms
and a product trapezoid for the memory term.  The scheme is the
trapezoid rule of the equivalent second-order form, so it is
unconditionally stable at any step for the memoryless limit and remains
stable at the default grids for the smooth kernels supported here.

Cost model for a march of m steps over K modes.  A closed-form kernel is
an exact sum of a few terms c t^p exp(r t) (kernels.kernel_terms), so
the product-trapezoid history sum obeys an exact linear recurrence in a
handful of states per rate: O(m K terms) work, with one Python time loop
advancing every mode of a call together.  A tabulated kernel has no
terms and keeps the direct history sum, O(m^2 K), one matrix-vector
product per step.  The discretisation is the same either way; only the
rounding differs.

Z is additionally assembled by the variation-of-constants identity
Z = z + N'*z + i beta (N*z), and the two routes are cross-checked; the
assembled route is the one stored on ModeResponse because the forward
simulator shares its discrete ingredients, which keeps the synthesis /
verification loop exactly consistent.  The assembly uses FFT
convolutions of the sampled kernel, never the recurrence, so the check
stays independent of the march.

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
from .kernels import NormalizedKernel, convolve
from .spectral import EigenPair


@dataclass(frozen=True)
class ModeResponse:
    n: int                   # signed index; negatives built by conjugation
    z: np.ndarray            # real
    Z: np.ndarray            # complex, variation-of-constants assembly
    S: np.ndarray            # exp(-alpha t) Z
    G: np.ndarray            # comparator forcing profile
    K: np.ndarray            # forcing kernel of the Z equation
    lambda_sq: float = 0.0
    beta: complex = 0.0
    psi: np.ndarray = None
    trace: np.ndarray = None
    in_J: bool = False
    # shared discrete ingredients, reused verbatim by the simulator
    Nz: np.ndarray = field(default=None, repr=False)     # N * z
    Npz: np.ndarray = field(default=None, repr=False)    # N' * z

    # stashed by compute_response so restrict() can rebuild S
    _h: float = field(default=0.0, repr=False)
    _alpha: float = field(default=0.0, repr=False)

    def conjugate(self) -> "ModeResponse":
        return replace(self, n=-self.n, Z=np.conj(self.Z), S=np.conj(self.S),
                       G=np.conj(self.G), K=np.conj(self.K),
                       beta=-np.conj(self.beta))

    def restrict(self, steps: int) -> "ModeResponse":
        """Exact restriction to a shorter horizon on the same step.

        The march and both convolutions are causal, so slicing is the
        same computation on the shorter grid; Z and S are reassembled
        from the sliced ingredients to keep their defining identities
        exact on the sub-grid.
        """
        k = steps + 1
        z = self.z[:k]
        Nz = self.Nz[:k]
        Npz = self.Npz[:k]
        factor = 1j if self.in_J else 1j * self.beta
        Z = z + Npz + factor * Nz
        t = np.arange(k) * self._h
        S = np.exp(-self._alpha * t) * Z
        return replace(self, z=z, Z=Z, S=S, G=self.G[:k], K=self.K[:k],
                       Nz=Nz, Npz=Npz)


def growth_envelope(alpha: float, T: float) -> float:
    """Gronwall-type validity bound exp((|2 alpha| + 1) T) for |z|."""
    return math.exp(min((abs(2.0 * alpha) + 1.0) * T, 500.0))


def _recursion_groups(terms, h, scale, const):
    """Recurrence data for the history sum, one group per kernel rate r.

    A group carries S_q = sum_{k<j} ((j-k) h)^q rho^(j-k) y_k for
    q = 0..p_max with rho = exp(r h), and advances them by the exact
    binomial rule S_q <- rho sum_{i<=q} C(q,i) h^(q-i) (S_i + [i=0] y_j),
    whose weights W[q][i] are all positive.  The term c t^p exp(r t)
    contributes scale c h S_p to the scaled history sum.  `const` turns
    a number into the march's operand type.
    Returns [(W, [(p, scale c h)], states)].
    """
    by_rate = {}
    for c, p, r in terms:
        by_rate.setdefault(r, []).append((p, c * h))
    groups = []
    for r, chs in by_rate.items():
        rho = math.exp(r * h)
        top = max(p for p, _ in chs)
        W = [[const(rho * math.comb(q, i) * h ** (q - i)) for i in range(q + 1)]
             for q in range(top + 1)]
        groups.append((W, [(p, scale * const(ch)) for p, ch in chs],
                       [const(0.0)] * (top + 1)))
    return groups


def march_modal(kernel: NormalizedKernel, lam_sq, alpha: float,
                y0=1.0, forcing: np.ndarray = None, label: str = "") -> np.ndarray:
    """Implicit-trapezoid / product-trapezoid march of the modal equation.

    Solves y' = 2 alpha y - lam_sq (N * y) + forcing with y(0) = y0.
    lam_sq is a scalar, or a (K,) array marched as one batch of modes
    with forcing of shape (m+1, K); the result is time-major, (m+1,) or
    (m+1, K).  The step body uses plain arithmetic only, so a single
    mode runs on Python scalars and a batch on (K,) arrays.  Raises
    ConvergenceError at the first step whose value is not finite or
    leaves the Gronwall envelope, which at these grids only happens for
    invalid input (a non-normalized kernel, a degenerate step or a
    non-finite forcing).
    """
    h = kernel.h
    m = kernel.grid.steps
    N = kernel.N
    N0 = float(N[0])
    lam = np.asarray(lam_sq, dtype=float)
    batch = lam.shape
    if len(batch) > 1:
        raise ConfigError(f"lam_sq must be a scalar or a 1-D array, got {batch}")
    if not batch:
        lam = float(lam)
    if forcing is not None and forcing.shape != (m + 1,) + batch:
        raise ConfigError(f"forcing shape {forcing.shape} does not match "
                          f"{(m + 1,) + batch}")
    D = 1.0 - alpha * h + lam * h * h * N0 / 4.0
    if not np.all(D > 1e-12):
        raise ConvergenceError(
            f"degenerate implicit step (D={np.min(D):.3e}) {label}")
    bound = growth_envelope(alpha, kernel.grid.T) * (1.0 + 1e-9)

    dtype = complex if np.iscomplexobj(forcing) or isinstance(y0, complex) \
        else float
    Y = np.empty((m + 1,) + batch, dtype=dtype)
    Y[0] = y0
    # Operands share one type: Python numbers for a single mode, (K,)
    # arrays of the run's dtype for a batch (mixed-type numpy operations
    # cost a cast per step).
    if batch:
        def const(v):
            return np.full(batch, v, dtype=dtype)
    else:
        def const(v):
            return dtype(v)
    # The trapezoid step over D reads y_j = A y_{j-1} - (I_{j-1} + P_j) + F_j
    # with I the memory integral and P_j its history part
    # h (N_j y_0 / 2 + sum_{0<k<j} N_{j-k} y_k), both scaled by
    # B = lam_sq h / (2 D).
    A = const((1.0 + alpha * h) / D)
    B = const(0.5 * lam * h / D)
    Be0 = B * const(0.5 * h * N0)
    groups = None if kernel.terms is None else \
        _recursion_groups(kernel.terms, h, B, const)
    with np.errstate(over="ignore", invalid="ignore"):
        F = None
        if forcing is not None:
            F = 0.5 * h * (forcing[:-1] + forcing[1:]) / D
            if not batch:
                F = F.tolist()
        y = const(y0)
        u = const(0.5 * y0)  # y_0 enters the history with trapezoid weight 1/2
        I_prev = const(0.0)
        for j in range(1, m + 1):
            if groups is None:
                P = B * (h * (0.5 * N[j] * y0 + np.dot(N[j - 1:0:-1], Y[1:j])))
            else:
                P = None
                for W, chs, st in groups:
                    st[0] = st[0] + u
                    for q in range(len(st) - 1, -1, -1):
                        acc = W[q][0] * st[0]
                        for i in range(1, q + 1):
                            acc = acc + W[q][i] * st[i]
                        st[q] = acc
                    for p, ch in chs:
                        term = ch * st[p]
                        P = term if P is None else P + term
            y = A * y - (I_prev + P)
            if F is not None:
                y = y + F[j - 1]
            I_prev = P + Be0 * y
            Y[j] = y
            u = y

    bad = ~(np.abs(Y) <= bound)
    if bad.any():
        rows = bad.reshape(m + 1, -1)
        j = int(np.argmax(rows.any(axis=1)))
        col = int(np.argmax(rows[j]))
        where = f" in batch column {col}" if batch else ""
        value = abs(Y.reshape(m + 1, -1)[j, col])
        raise ConvergenceError(
            f"modal march left the Gronwall envelope at step {j} "
            f"(t={j * h:.4g}){where}: |y|={value:.3e}, bound {bound:.3e}; "
            f"non-finite input or step too large {label}")
    return Y


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


def _march_Z(kernel: NormalizedKernel, pair: EigenPair) -> np.ndarray:
    return march_modal(kernel, pair.lambda_sq, kernel.alpha, y0=1.0,
                       forcing=forcing_K(kernel, pair),
                       label=f"(mode {pair.index})")


def _assemble_Z(kernel: NormalizedKernel, pair: EigenPair, z: np.ndarray,
                Z_march: np.ndarray):
    """Variation-of-constants Z from z, checked against the marched Z.

    Returns (Z_voc, N*z, N'*z); disagreement beyond the scheme
    allowance flags a quadrature bug.
    """
    Nz = convolve(kernel.N, z, kernel.h)
    Npz = convolve(kernel.Np, z, kernel.h)
    factor = 1j if pair.in_J else 1j * pair.beta
    Z_voc = z + Npz + factor * Nz
    gap = float(np.max(np.abs(Z_march - Z_voc)))
    tol = _consistency_tol(kernel, pair)
    if gap > tol:
        raise InternalConsistencyError(
            f"Z routes disagree on mode {pair.index}: gap {gap:.3e} "
            f"exceeds allowance {tol:.3e}")
    return Z_voc, Nz, Npz


def solve_Z(kernel: NormalizedKernel, pair: EigenPair,
            return_march: bool = False):
    """Forced modal response Z by two independent routes.

    Marches the forced equation directly, assembles the
    variation-of-constants identity from z, and cross-checks the two.
    Returns the assembled route (plus the marched one on request).
    """
    Z_march = _march_Z(kernel, pair)
    z = solve_z(kernel, pair.lambda_sq)
    Z_voc, Nz, Npz = _assemble_Z(kernel, pair, z, Z_march)
    if return_march:
        return Z_voc, Z_march, z, Nz, Npz
    return Z_voc


def build_S_G(kernel: NormalizedKernel, pair: EigenPair, Z: np.ndarray):
    """S = exp(-alpha t) Z and the quadrature of G's closed form."""
    t = kernel.t
    S = np.exp(-kernel.alpha * t) * Z
    if pair.in_J:
        base = 1.0 + (kernel.alpha + 1j) * t
    else:
        b = pair.beta
        base = np.exp(1j * b * t) + (kernel.alpha / b) * np.sin(b * t)
    G = base + convolve(kernel.N1, base.astype(complex), kernel.h)
    return S, G


def _response(kernel: NormalizedKernel, pair: EigenPair, z: np.ndarray,
              Z_march: np.ndarray) -> ModeResponse:
    Z, Nz, Npz = _assemble_Z(kernel, pair, z, Z_march)
    S, G = build_S_G(kernel, pair, Z)
    return ModeResponse(pair.index, z, Z, S, G, forcing_K(kernel, pair),
                        lambda_sq=pair.lambda_sq, beta=pair.beta,
                        psi=pair.psi, trace=pair.trace, in_J=pair.in_J,
                        Nz=Nz, Npz=Npz, _h=kernel.h, _alpha=kernel.alpha)


def compute_response(kernel: NormalizedKernel, pair: EigenPair) -> ModeResponse:
    return _response(kernel, pair, solve_z(kernel, pair.lambda_sq),
                     _march_Z(kernel, pair))


def compute_responses(kernel: NormalizedKernel, pairs) -> dict:
    """ModeResponse per positive index, every mode marched in one batch.

    One z march and one Z march advance all modes together; the
    variation-of-constants assembly and its two-route check then run
    per mode exactly as in compute_response.
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
    return {p.index: _response(kernel, p, z[:, i].copy(), Z_march[:, i])
            for i, p in enumerate(pairs)}


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
    base = np.exp(1j * b * t) + (kernel.alpha / b) * sb
    G = base + convolve(kernel.N1, base.astype(complex), h)
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

    C = base + (1/2) R * (t E) with R = N1' - L * N1' and
    base = E + (alpha/beta) sin(beta t), E = exp(i beta t).  The sine
    correction in the base is what keeps S - C at O(1/beta^2) when
    alpha != 0; with alpha = 0 the base degenerates to the bare
    exponential.
    """
    if pair.in_J:
        raise ConfigError("comparator needs beta != 0")
    b = pair.beta
    t = kernel.t
    h = kernel.h
    E = np.exp(1j * b * t)
    base = E + (kernel.alpha / b) * np.sin(b * t)
    R = kernel.N1p - convolve(kernel.L, kernel.N1p, h)
    return base + 0.5 * convolve(R.astype(complex), t * E, h)


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
