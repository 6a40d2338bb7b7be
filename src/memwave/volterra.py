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

One march, real columns.  The scheme is linear, so march_modal marches
real columns only: the response to y(0) = y0 and the zero-state
response to each real forcing row, the rows (r, m+1) shared by every
mode or (K, r, m+1) given per mode.  compute_responses makes one call
with the rows (N', N): column 0 is z, and the marched Z is
z + Y' + i beta Y with Y' and Y the responses to N' and N, never formed
as a complex forcing.

Cost model for a march of m steps over K modes and r rows.  For the
closed-form families N is known exactly (kernels.KernelTerms), so the
product-trapezoid history sum is carried exactly by a handful of states
per mode, and one step is a fixed linear map on d = 2 + (polynomial
terms) + (decay rates) numbers.  The march applies it BLOCK = B steps
at a time with batched matrix products (_march_blocks), the map and its
powers built once for every column: O(m K (1 + r) (B + d)) flops,
ceil(m/B) Python iterations for the response to y0 and log2(m/B)
doubling passes for the rows.  A tabulated kernel has no closed form;
eliminating the memory integral turns its whole march into one
power-series division over all modes and columns (_march_series,
kernels.series_divide), O(K (1 + r) m log m) by Newton iteration with
FFT products, each mode's 1/den found once.  On closed forms that
division is ~14x slower than the block march (~43 ms against ~3 ms for
the march of 12 modes with the rows N' and N at h = 1e-3), so they keep
the block march.  The discretisation is the same either way; only the
rounding differs.

Layout.  A batch of K modes is (K, m+1), time on the last axis, as
everywhere else in memwave (family profiles, the control, the
simulator): every column of march_modal's result, and every field of
the ModalResponses batch that compute_responses returns.  Every FFT
then runs along contiguous rows, and a row of a batch is its one-mode
call bit for bit.

Z is additionally assembled by the variation-of-constants identity
Z = z + N'*z + i beta (N*z), and the two routes are cross-checked, on
the real differences Y' - N'*z and Y - N*z; the assembled route is the
one the batch keeps because the forward simulator shares its discrete
ingredients, which keeps the synthesis / verification loop exactly
consistent.  The assembly uses FFT convolutions of the sampled kernel,
never the recurrence, so the check stays independent of the march; it
convolves N and N' together against every mode of a batch in one call,
which transforms z once and each of the 2K products back on its own.
The batch keeps z, N*z and N'*z; Z and S = exp(-alpha t) Z are computed
when read.

The refined small-residual route (refined_S / comparator_profile) exists
because the marched phase error grows like T beta^3 h^2 / 12 and would
bury the O(1/beta^2) closeness signal at high modes: it recasts S as a
fixed-kernel integral equation whose quadrature error does not
accumulate with beta.  It marches nothing and is a batch like the
marches: transformed_exponential, refined_S and comparator_profile take
a Spectrum batch (spectral) and return one (K, m+1) row per mode.
refined_S builds and solves the S equations REFINED_ROWS modes at a
time (one convolve per kernel field and one series division per chunk,
each chunk a Spectrum.take of the batch), so no division holds the
whole batch's spectra.  A row is its one-mode call bit for bit, in any
batch or chunk: the per-mode scalars that involve a complex division
are taken in Python complex arithmetic and stacked (_column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ConvergenceError, InternalConsistencyError
from .grid import TimeGrid
from .kernels import (KernelTerms, NormalizedKernel, convolve, decay_integral,
                      series_divide)
from .spectral import Spectrum


# the (K, m+1) fields of a ModalResponses batch
_ROWS = ("z", "Nz", "Npz")


@dataclass(frozen=True)
class ModalResponses:
    """The modal responses of a batch of modes, time on the last axis.

    Row i of z, Nz and Npz, and entry i of z_gap_ratio, belong to row i
    of modes.  Nz = N * z and Npz = N' * z are the discrete ingredients
    the simulator reuses verbatim; z_gap_ratio is each mode's two-route
    Z gap over its allowance on the grid the batch was marched on.  grid
    is TimeGrid(m h, m, h) on the kernel's step h.
    """

    modes: Spectrum
    z: np.ndarray            # (K, m+1) real
    Nz: np.ndarray           # (K, m+1)
    Npz: np.ndarray          # (K, m+1)
    z_gap_ratio: np.ndarray  # (K,)
    grid: TimeGrid
    alpha: float

    @property
    def Z(self) -> np.ndarray:
        """The variation-of-constants Z = z + N'*z + i beta (N*z), with i
        on the degenerate set, computed when read."""
        return self.z + self.Npz + _forcing_factors(self.modes)[:, None] \
            * self.Nz

    @property
    def S(self) -> np.ndarray:
        """exp(-alpha t) Z, computed when read."""
        t = np.arange(self.grid.steps + 1) * self.grid.h
        return np.exp(-self.alpha * t) * self.Z

    def head(self, k: int) -> "ModalResponses":
        """The batch of the first k modes."""
        return replace(self, modes=self.modes.take(slice(k)),
                       z_gap_ratio=self.z_gap_ratio[:k],
                       **{f: getattr(self, f)[:k] for f in _ROWS})

    def restrict(self, steps: int) -> "ModalResponses":
        """Exact restriction to [0, steps h] on the same step.

        The march and both convolutions are causal and Z is assembled
        pointwise from them, so slicing is the same computation on the
        shorter grid.  z_gap_ratio is not recomputed: it stays the full
        horizon's gap over the full horizon's allowance.
        """
        return replace(self, grid=self.grid.restrict(steps),
                       **{f: getattr(self, f)[:, :steps + 1] for f in _ROWS})


def growth_envelope(alpha: float, T: float) -> float:
    """Gronwall-type validity bound exp((|2 alpha| + 1) T) for |z|."""
    return math.exp(min((abs(2.0 * alpha) + 1.0) * T, 500.0))


# Steps per block of the state-space march (fastest of 16..256 at K = 12
# modes, 7854 steps).
BLOCK = 64

# Pairs per S equation solved at once in refined_S.  At m = 7854 one
# chunk of 8 peaks at 11.6 MB (tracemalloc), the 36 fitted modes of a
# responses run (N_modes 40, h = 1e-3) at 15 MB in chunks against 45 MB
# in one batch, for ~8% more time (259 against 239 ms).
REFINED_ROWS = 8


def _step_map(terms: KernelTerms, h: float, A, B, Be0, D):
    """One march step as the linear map x_j = M x_{j-1} + b G_{j-1}.

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
        y_j = A y_{j-1} - I_{j-1} - P_j + G_{j-1} / D,   I_j = P_j + Be0 y_j,
    with G the trapezoided forcing, whose 1/D the map carries in b.
    A, B, Be0 and D are (K,) arrays; returns M (K, d, d) and b (K, d).
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
    b[:, 0] = 1.0 / D
    b[:, 1] = Be0 / D
    return M, b


def _march_blocks(kernel: NormalizedKernel, A, B, Be0, D, y0: float,
                  G) -> np.ndarray:
    """y_0..y_m of x_j = M x_{j-1} + b G_{j-1} (_step_map), BLOCK steps
    per product: the response to y0 and the zero-state response to each
    row of G, (1 + r, K, m+1).

    From a block start state x_s,
        y_{s+i} = e_0 M^i x_s + sum_{l<i} e_0 M^(i-1-l) b G_{s+l},
    a zero-input part and a lower-triangular Toeplitz zero-state part,
    each one batched matrix product over every block at once; only the
    block start states are carried.  The response to y0 carries them by
    a loop of ceil(m/BLOCK) tiny updates and has a zero-input product of
    its own, in the shapes of a march without rows, so it gets the same
    bits with rows or without; it is zero, and not marched, when y0 is.
    The rows are G (r, m), shared by every mode, or (K, r, m): matmul
    broadcasts either against the per-mode matrices, so shared rows get
    the bits of the same rows given per mode.  Blocks are rows: BLAS
    gives a row the same bits whatever the row count, so a march
    restricted to k steps equals a fresh k-step march; a one-row product
    would go through gemv, which sums in another order, hence at least
    two blocks.  The zero-state product takes BLOCK rows at a time (a
    lone last row joins the chunk before it, for the same reason): a
    (BLOCK, BLOCK) @ (BLOCK, BLOCK) product runs on the calling thread,
    where all rows at once, on a long grid, wake OpenBLAS's worker pool
    to spin on the other cores (see control.node_blocks).
    """
    M, b = _step_map(kernel.terms, kernel.h, A, B, Be0, D)
    m = kernel.grid.steps
    K, d, _ = M.shape
    r = 0 if G is None else G.shape[-2]
    nb = max(-(-m // BLOCK), 2)
    Mi = np.empty((BLOCK + 1, K, d, d))          # Mi[i] = M^i
    Mi[0] = np.eye(d)
    for i in range(1, BLOCK + 1):
        Mi[i] = Mi[i - 1] @ M
    # zero-input rows e_0 M^i (i = 1..B) as (K, d, B)
    R = np.ascontiguousarray(Mi[1:, :, 0, :].transpose(1, 2, 0))
    MBT = np.ascontiguousarray(Mi[BLOCK].transpose(0, 2, 1))
    out = np.empty((1 + r, K, m + 1))
    out[:, :, 0] = 0.0
    if y0 == 0.0:
        out[0] = 0.0
    else:
        X = np.zeros((nb, K, 1, d))              # block start states
        X[0, :, 0, 0] = y0
        X[0, :, 0, 2] = -0.5 * y0
        for k in range(nb - 1):
            np.matmul(X[k], MBT, out=X[k + 1])
        Y = np.ascontiguousarray(X.transpose(1, 2, 0, 3)).reshape(
            K, nb, d) @ R
        out[0, :, 0] = y0
        out[0, :, 1:] = Y.reshape(K, nb * BLOCK)[:, :m]
    if r == 0:
        return out
    lead = G.shape[:-2]                          # () shared, (K,) per mode
    Gb = np.zeros(lead + (r, nb * BLOCK))
    Gb[..., :m] = G
    Gb = Gb.reshape(lead + (r * nb, BLOCK))
    # zero-state: T[l, i] = e_0 M^(i-l) b for i >= l, else 0, from the
    # drives M^i b (i < B)
    Mb = np.einsum("ikde,ke->kid", Mi[:BLOCK], b)
    padded = np.concatenate([np.zeros((K, BLOCK - 1)), Mb[:, :, 0]], axis=1)
    T = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        padded, BLOCK, axis=1)[:, ::-1])
    Y = np.empty((K, r * nb, BLOCK))
    stops = list(range(BLOCK, r * nb - 1, BLOCK)) + [r * nb]
    for start, stop in zip([0] + stops, stops):
        np.matmul(Gb[..., start:stop, :], T, out=Y[:, start:stop])
    # block-end state drive sum_l M^(B-1-l) b G_{s+l}
    GF = (Gb @ np.ascontiguousarray(Mb[:, ::-1])).reshape(K, r, nb, d)
    del Gb, T   # freed before the zero-input product: peak memory
    # block start states x_k = sum_{j<k} GF_j (M^B)^(k-1-j) as a prefix
    # scan by doubling: after the pass of shift s, x_k holds the terms
    # j >= k - 2s.  Each pass multiplies every block (at least two rows),
    # so a block's bits do not depend on the block count
    X = np.zeros((K, r, nb, d))
    X[:, :, 1:] = GF[:, :, :-1]
    P, s = MBT, 1
    while s < nb:
        X[:, :, s:] += (X.reshape(K, r * nb, d) @ P).reshape(
            K, r, nb, d)[:, :, :nb - s]
        P, s = P @ P, 2 * s
    Y += X.reshape(K, r * nb, d) @ R
    out[1:, :, 1:] = Y.reshape(K, r, nb * BLOCK)[..., :m].transpose(1, 0, 2)
    return out


def _march_series(kernel: NormalizedKernel, A, B, Be0, D, y0: float, G,
                  steps: int = None) -> np.ndarray:
    """The same march for kernels without a closed form, as one series
    division (kernels.series_divide) over all modes and columns,
    O(K (1 + r) m log m); (1 + r, K, steps+1) like _march_blocks.

    With Nt the series of N with Nt_0 = 0, the history part is
    P = B h (Nt y - Nt y_0 / 2) and the memory integral
    I = P + Be0 (y - y_0); summing the step over j >= 1 eliminates I:
        y [1 - (A - Be0) x + B h (1 + x) Nt]
            = y_0 (1 + Be0 x) + x G / D + B h (1 + x) Nt y_0 / 2.
    Every column of a mode shares its den, so each mode's 1/den is
    found once.  The division is causal: cut to its first steps+1 terms
    (G to its first steps samples) it is the march over the first
    `steps` steps.
    """
    n = (steps or kernel.grid.steps) + 1
    Nt = np.concatenate([[0.0], kernel.N[1:n]])
    # B h (1 + x) Nt, one row per mode
    den = (B * kernel.h)[:, None] * (Nt + np.concatenate([[0.0], Nt[:-1]]))
    r = 0 if G is None else G.shape[-2]
    num = np.zeros((1 + r, len(A), n))
    num[0] = (0.5 * y0) * den
    num[0, :, 0] = y0
    num[0, :, 1] += y0 * Be0
    if r:
        rows = np.broadcast_to(G, (len(A),) + G.shape[-2:])
        num[1:, :, 1:] = rows[..., :n - 1].transpose(1, 0, 2) / D[:, None]
    den[:, 0] = 1.0
    den[:, 1] -= A - Be0
    return series_divide(num, den)


def _series_overflow(kernel: NormalizedKernel, A, B, Be0, D, y0: float, G,
                     bound: float, Y: np.ndarray):
    """(step, column, mode, value) of the first step at which the series
    march Y (1 + r, K, m+1) leaves the envelope bound, its start y0
    lying inside.

    One FFT division spreads an overflow to every step, so Y cannot say
    where it began.  Bisection on the cut divisions of _march_series
    finds the k whose k-step march leaves the envelope while the
    (k-1)-step march stays inside: log2 m divisions, run only on the
    failure path.
    """
    lo, hi = 0, kernel.grid.steps    # the lo-step march stays inside, Y not
    with np.errstate(over="ignore", invalid="ignore"):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            cut = _march_series(kernel, A, B, Be0, D, y0, G, mid)
            if np.all(np.abs(cut) <= bound):
                lo = mid
            else:
                hi, Y = mid, cut
    mask = ~(np.abs(Y[..., hi]) <= bound)
    col, row = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return hi, int(col), int(row), Y[col, row, hi]


def _first(bad: np.ndarray):
    """(step, *index) of the first True in time of a (..., steps) mask,
    index the first True at that step over the leading axes."""
    j = int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))
    return (j,) + tuple(int(i) for i in np.unravel_index(
        int(np.argmax(bad[..., j])), bad.shape[:-1]))


def _where(mode, row) -> str:
    """' in batch row <mode>, forcing row <row>', each part where given."""
    parts = [f"{what} row {i}" for what, i in (("batch", mode),
                                              ("forcing", row))
             if i is not None]
    return " in " + ", ".join(parts) if parts else ""


def _trapezoid_forcing(forcing: np.ndarray, h: float,
                       label: str) -> np.ndarray:
    """G_{j-1} = h (f_{j-1} + f_j) / 2, the forcing of step j, of every
    row: (r, m) or (K, r, m).

    Raises ConvergenceError at the first step where it is not finite,
    naming the row (and the batch row of per-mode rows): a block product
    would spread 0 * NaN back to the start of the block.
    """
    G = np.add(forcing[..., :-1], forcing[..., 1:])
    G *= 0.5 * h
    bad = ~np.isfinite(G)
    if bad.any():
        j, *index = _first(bad)
        mode, row = index if len(index) == 2 else (None, index[0])
        raise ConvergenceError(
            f"modal march forcing is not finite at step {j + 1} "
            f"(t={(j + 1) * h:.4g}){_where(mode, row)} {label}")
    return G


def march_modal(kernel: NormalizedKernel, lam_sq, alpha: float,
                y0: float = 1.0, forcing: np.ndarray = None,
                label: str = "") -> np.ndarray:
    """Implicit-trapezoid / product-trapezoid march of the modal equation
    y' = 2 alpha y - lam_sq (N * y) + f, real, column by column.

    lam_sq is a scalar, or a (K,) array marched as one batch of modes.
    Without forcing the result is the response to y(0) = y0 (f = 0),
    (m+1,) or (K, m+1).  forcing holds r real rows f: (r, m+1), shared
    by every mode, or (K, r, m+1), r rows per mode.  The result is then
    (1 + r, m+1) or (K, 1 + r, m+1): column 0 the response to y0, column
    1 + i the zero-state response (y(0) = 0) to row i, so the response
    to y0 and a sum of rows is, by linearity, the sum of its columns.
    Time is the last axis.  A row of a batch is its one-mode march bit
    for bit, shared rows get the bits of the same rows given per mode,
    and the response to y0 gets the same bits with rows or without.  A
    single mode is a batch of one.  Raises ConvergenceError at the first
    step whose forcing is not finite, and at the first step whose value
    is not finite or leaves the Gronwall envelope, which at these grids
    only happens for invalid input (a non-normalized kernel or a
    degenerate step); both name the batch row and the forcing row.
    """
    h = kernel.h
    m = kernel.grid.steps
    N0 = float(kernel.N[0])
    lam = np.asarray(lam_sq, dtype=float)
    batch = lam.shape
    if len(batch) > 1:
        raise ConfigError(f"lam_sq must be a scalar or a 1-D array, got {batch}")
    if forcing is not None and (np.iscomplexobj(forcing) or forcing.ndim < 2
                                or forcing.shape[-1] != m + 1
                                or forcing.shape[:-2] not in ((), batch)):
        raise ConfigError(f"forcing must be real rows (r, {m + 1}), or "
                          f"(K, r, {m + 1}) for a batch of K modes, got "
                          f"{forcing.dtype} {forcing.shape}")
    y0 = float(y0)
    lam = lam.reshape(-1)
    D = 1.0 - alpha * h + lam * h * h * N0 / 4.0
    if not np.all(D > 1e-12):
        raise ConvergenceError(
            f"degenerate implicit step (D={np.min(D):.3e}) {label}")
    bound = growth_envelope(alpha, kernel.grid.T) * (1.0 + 1e-9)

    # The trapezoid step over D reads y_j = A y_{j-1} - (I_{j-1} + P_j) + F_j
    # with I the memory integral and P_j its history part
    # h (N_j y_0 / 2 + sum_{0<k<j} N_{j-k} y_k), both scaled by
    # B = lam_sq h / (2 D), and F the trapezoided forcing G over D.
    A = (1.0 + alpha * h) / D
    B = 0.5 * lam * h / D
    Be0 = B * (0.5 * h * N0)
    G = None if forcing is None else _trapezoid_forcing(forcing, h, label)
    march = _march_series if kernel.terms is None else _march_blocks
    with np.errstate(over="ignore", invalid="ignore"):
        Y = march(kernel, A, B, Be0, D, y0, G)       # (1 + r, K, m+1)

    # max and min carry a NaN through: it fails the comparison
    if not (Y.max() <= bound and -Y.min() <= bound):
        j, col, row = _first(~(np.abs(Y) <= bound))
        y = Y[col, row, j]
        if kernel.terms is None and abs(y0) <= bound:
            j, col, row, y = _series_overflow(kernel, A, B, Be0, D, y0, G,
                                              bound, Y)
        raise ConvergenceError(
            f"modal march left the Gronwall envelope at step {j} "
            f"(t={j * h:.4g})"
            f"{_where(row if batch else None, col - 1 if col else None)}"
            f": |y|={abs(y):.3e}, bound {bound:.3e}; non-finite input or "
            f"step too large {label}")
    Y = Y.transpose(1, 0, 2).reshape(batch + Y.shape[:1] + Y.shape[2:])
    return Y if forcing is not None else Y[..., 0, :]


def _forcing_factors(modes: Spectrum) -> np.ndarray:
    """i beta per mode, or i on the degenerate set: the factor of N in
    the forcing of Z and in its variation-of-constants assembly."""
    return np.where(modes.in_J, 1j, 1j * modes.beta)


def _consistency_tol(kernel: NormalizedKernel, beta) -> np.ndarray:
    """Allowance 10 * C * h^2 for the two-route cross-check, per beta.

    C combines the Gronwall envelope with a phase-accumulation factor;
    it is deliberately generous (a real quadrature bug shows up orders
    of magnitude above it, while the measured route gap sits well
    below).
    """
    T = kernel.grid.T
    a = kernel.alpha
    C = (1.0 + abs(a) * T) * math.exp(min(2.0 * abs(a) * T, 60.0)) \
        * (1.0 + np.abs(beta) * T / 10.0)
    return 10.0 * C * kernel.h ** 2


def _z_route_gaps(kernel: NormalizedKernel, modes: Spectrum, dNp: np.ndarray,
                  dN: np.ndarray) -> np.ndarray:
    """Each mode's two-route Z gap over its allowance, (K,).

    The marched Z is z + Y' + f Y and the assembled one z + N'*z + f N*z,
    with Y' and Y the marched responses to N' and N and f the forcing
    factor, so their difference is dNp + f dN, from the real differences
    dNp = Y' - N'*z and dN = Y - N*z, (K, m+1).  A mode whose gap passes
    its allowance (or is NaN) flags a quadrature bug.
    """
    f = _forcing_factors(modes)[:, None]
    re = dN * f.real            # |dNp + f dN|^2, two temporaries
    re += dNp
    re *= re
    im = dN * f.imag
    im *= im
    re += im
    gaps = np.sqrt(np.max(re, axis=1))
    tols = _consistency_tol(kernel, modes.beta)
    bad = ~(gaps <= tols)
    if bad.any():
        i = int(np.argmax(bad))
        raise InternalConsistencyError(
            f"Z routes disagree on mode {modes.index[i]}: gap {gaps[i]:.3e} "
            f"exceeds allowance {tols[i]:.3e}")
    return gaps / tols


def compute_responses(kernel: NormalizedKernel,
                      modes: Spectrum) -> ModalResponses:
    """The responses of modes, every mode marched in one batch.

    One march gives z and the zero-state responses to N' and N, from
    which the marched Z is z + Y' + i beta Y by linearity; the
    variation-of-constants assembly convolves the whole batch at once,
    and its two-route check stays per mode.
    """
    label = f"(modes {', '.join(map(str, modes.index.tolist()))})"
    Y = march_modal(kernel, modes.lambda_sq, kernel.alpha, y0=1.0,
                    forcing=np.stack([kernel.Np, kernel.N]), label=label)
    z = Y[:, 0].copy()          # the batch keeps z, not all three columns
    # N and N' against every mode in one call, (2, K, m+1): z is
    # transformed once, and each row is its one-row call bit for bit
    Nz, Npz = convolve(np.stack([kernel.N, kernel.Np])[:, None], z, kernel.h)
    # the real differences of the routes, over the marched columns
    dNp, dN = Y[:, 1], Y[:, 2]
    dNp -= Npz
    dN -= Nz
    ratios = _z_route_gaps(kernel, modes, dNp, dN)
    m, h = kernel.grid.steps, kernel.h
    return ModalResponses(modes, z, Nz, Npz, ratios, TimeGrid(m * h, m, h),
                          kernel.alpha)


def _column(values) -> np.ndarray:
    """A (K, 1) complex column of per-mode scalars.  The caller takes
    each complex quotient in Python complex arithmetic, as a one-mode
    call would: numpy's complex division rounds differently."""
    return np.array(values, dtype=complex).reshape(-1, 1)


def transformed_exponential(modes: Spectrum, a: float,
                            t: np.ndarray) -> np.ndarray:
    """exp(i beta t) + (a/beta) sin(beta t), or 1 + (a + i) t on the
    degenerate set, one (K, m+1) row per mode: the base profiles of the
    memoryless family with damping parameter a, and of the comparator
    and S equations with a = alpha."""
    beta = modes.beta[:, None]
    ab = _column([0.0 if J else a / b
                  for b, J in zip(modes.beta.tolist(), modes.in_J)])
    out = np.exp(1j * beta * t) + ab * np.sin(beta * t)
    out[modes.in_J] = 1.0 + (a + 1j) * t
    return out


def _finite_rows(modes: Spectrum, rows: np.ndarray, what: str) -> np.ndarray:
    """rows, or ConvergenceError naming the first mode whose row is not
    finite."""
    bad = ~np.all(np.isfinite(rows), axis=1)
    if bad.any():
        raise ConvergenceError(f"{what} of mode "
                               f"{modes.index[np.argmax(bad)]} is not finite")
    return rows


def _off_J(modes: Spectrum, what: str):
    if modes.in_J.any():
        raise ConfigError(f"{what} needs beta != 0")


def refined_S(kernel: NormalizedKernel, modes: Spectrum) -> np.ndarray:
    """Mode-uniform S of every mode, one (K, m+1) row each, via its
    fixed-kernel integral equation.

    S = G + W * S with W = -mu N1 + (mu/beta) Q, where mu is
    lambda^2/beta^2 and Q = N1'(0) sin(beta t) + N1'' * sin(beta t).
    W(0) = 0 drops the implicit weight, and the product trapezoid is one
    series division (kernels.series_divide) per REFINED_ROWS modes, after
    one convolve per kernel field.  The quadrature error here stays
    O(h^2) uniformly in beta because the oscillatory factors sit inside
    nonaccumulating convolutions.  Raises ConvergenceError naming the
    first mode whose row is not finite (the division spreads an overflow
    over the whole row, so no step is named).
    """
    _off_J(modes, "refined route")
    S = np.empty((len(modes), kernel.grid.steps + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(modes), REFINED_ROWS):
            rows = slice(start, start + REFINED_ROWS)
            S[rows] = series_divide(*_S_equation(kernel, modes.take(rows)))
    return _finite_rows(modes, S, "refined S")


def _S_equation(kernel: NormalizedKernel, modes: Spectrum):
    """The sides of S (1 - h W) = G - h W S(0) / 2, S(0) = G(0), as the
    (numerator, denominator) of refined_S's series division; the
    chunk's other fields are released on return."""
    beta = modes.beta.tolist()
    mu = [lam / (b * b) for lam, b in zip(modes.lambda_sq.tolist(), beta)]
    t, h = kernel.t, kernel.h
    sb = np.sin(modes.beta[:, None] * t)
    base = transformed_exponential(modes, kernel.alpha, t)
    G = base + convolve(kernel.N1, base, h)
    Q = kernel.N1p[0] * sb + convolve(kernel.N1pp, sb, h)
    W = -_column(mu) * kernel.N1 \
        + _column([m / b for m, b in zip(mu, beta)]) * Q
    den = -h * W
    den[:, 0] = 1.0
    return G - 0.5 * h * G[:, :1] * W, den


def comparator_profile(kernel: NormalizedKernel,
                       modes: Spectrum) -> np.ndarray:
    """Transformed-exponential comparators, one (K, m+1) row per mode,
    for the closeness study.

    C = base + (1/2) R * (t E) with R = N1' - L * N1',
    E = exp(i beta t) and base = E + (alpha/beta) sin(beta t)
    (transformed_exponential).  R does not depend on the mode and is
    formed once.  The sine correction in the base is what keeps S - C at
    O(1/beta^2) when alpha != 0; with alpha = 0 the base degenerates to
    the bare exponential.
    """
    _off_J(modes, "comparator")
    t, h = kernel.t, kernel.h
    R = kernel.N1p - convolve(kernel.L, kernel.N1p, h)
    E = np.exp(1j * modes.beta[:, None] * t)
    return transformed_exponential(modes, kernel.alpha, t) \
        + 0.5 * convolve(R, t * E, h)


def asymptotic_residual(modes: Spectrum, S: np.ndarray, h: float) -> dict:
    """Distance of each S_n from its pure oscillation, with a decay fit.

    Row i of S, sampled at j h, belongs to row i of modes, a mode of real
    positive beta.  r_n = sup norm of S_n - exp(i beta_n t); the log-log
    slope against beta over the supplied modes is the headline number.
    A row that is not finite raises ConvergenceError naming its mode.
    """
    betas = modes.beta.real
    if np.any((modes.beta.imag != 0) | ~(betas > 0)):
        raise ConfigError("asymptotic fit needs real positive beta")
    if len(modes) < 8:
        raise ConfigError("asymptotic fit needs at least 8 real-beta modes")
    _finite_rows(modes, S, "S")
    t = np.arange(S.shape[1]) * h
    sups = np.max(np.abs(S - np.exp(1j * betas[:, None] * t)), axis=1)
    ok = sups > 0
    if int(ok.sum()) < 2:
        raise ConfigError(
            "asymptotic fit is degenerate: residuals vanish identically "
            "(a memoryless kernel leaves nothing to fit)")
    slope, intercept = np.polyfit(np.log(betas[ok]), np.log(sups[ok]), 1)
    return {
        "indices": modes.index.tolist(),
        "beta": betas,
        "residuals": sups,
        "slope": float(slope),
        "intercept": float(intercept),
    }
