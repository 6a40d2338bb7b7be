"""The exact route of sweep-t and responses for closed-form kernels.

Both families of a closed-form kernel are finite exponential sums with
a known Laplace form (Pruss, Evolutionary Integral Equations, 1993):

- the memory family: N-hat = NQ / Q (kernels.KernelTerms), so each
  mode's rows U = z + N'*z and V = N*z are residue sums over the roots
  of Den = (s - 2 alpha) Q + lambda^2 NQ (exact_modes);
- the telegraph family: U = cos(beta t) + (c / beta) sin(beta t) and
  V = sin(beta t) / beta are two exponentials each
  (transformed_exponential_terms).

The responses experiment reads the memory modes in the S frame,
S = exp(-alpha t) (U + i beta V), on the rates roots - alpha
(s_frame_rows), sampled on its grid: the same numbers on any grid.

A family whose time profiles are exponential sums has its time Gram in
closed form at any horizon, with no grid (_exponential_time_grams, the
exponential-family Gram of Young, An Introduction to Nonharmonic Fourier
Series, 1980).  Both rows of a mode share its exponents, so the pair
integrals int_0^T exp((s + conj s') t) dt are formed once per pair of
distinct exponents and contracted with the two rows' weights, a block of
at most PAIR_BLOCK_BYTES at a time: several horizons, or a run of modes
at one horizon.
The rows are real functions, so the closed form is real up to rounding:
_real_time_grams checks each Gram's imaginary part against its scale
before taking the real part, the realness check of the pipeline.
exact_sweep puts the pieces together for cli._run_sweep from the
kernel's closed form (kernels.kernel_terms) and its shift alpha, with
no kernel sampled on a grid: it scales each family's exponential
weights with control._members, the helper that builds the grid families
(_exponential_members), and hands both families' real traces and time
Grams to one riesz.gram_reports pass, the report path of the grid route
too, which gives both families' reports at the levels
riesz.nested_levels names; or it returns None, and the sweep marches,
where the route does not apply or a mode is not certified.

The CLI imports this module only when a sweep or a responses run
reaches it, so no other run compiles it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .control import _members
from .errors import InternalConsistencyError
from .kernels import KernelTerms
from .riesz import gram_reports
from .spectral import Spectrum


# Relative distance at or below which two roots of a mode's Den, or a root
# of Den and a root of Q, count as one: exact_modes refuses the modes.
ROOT_GAP = 1e-6
# Allowance of the exact route's certificates, relative to the sum of the
# magnitudes each one adds up, and of the imaginary part of a closed-form
# time Gram, relative to the largest entry of its real part: rounding level.
EXACT_TOL = 1e-12


class ExactModes(NamedTuple):
    """The memory family's rows as exponential sums, one row per mode:
    U(t) = sum_k U[k] exp(roots[k] t) and V(t) = sum_k V[k] exp(roots[k] t)."""

    roots: np.ndarray        # (K, d) complex roots of Den
    U: np.ndarray            # (K, d) residues of U-hat = s NQ / Den
    V: np.ndarray            # (K, d) residues of V-hat = NQ / Den


def _horner(coefficients: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Polynomials, highest power first, at w (K, d): coefficients (n,)
    for one polynomial, or (K, n) for one per row of w."""
    c = np.atleast_2d(coefficients)
    out = np.broadcast_to(c[:, :1], w.shape).astype(complex)
    for k in range(1, c.shape[1]):
        out = out * w + c[:, k:k + 1]
    return out


def _rational_form(terms: KernelTerms):
    """(Q, NQ, the roots of Q) in w = s - rate, highest power first,
    with N-hat = NQ / Q in lowest terms at w = 0.

    Laplace takes exp(rate t) t^p to p! / w^(p+1) and exp(rate t) phi_b
    to 1 / (w (w + b)), so Q = w^(P+1) prod_i (w + b_i) and NQ, of
    degree deg Q - 1, is the sum of the terms over Q.  While both
    trailing coefficients are exactly 0, one factor w is cancelled from
    each: a common root at w = 0 that N does not have, from a zero top
    polynomial term or from decays that sum to a polynomial (M = -exp(-t)
    gives N = 1, NQ / Q = w / (w (w + 1))).
    """
    P = len(terms.poly) - 1
    factors = [np.array([1.0, b]) for _, b in terms.decays]

    def product(fs, power):
        out = np.zeros(power + 1)
        out[0] = 1.0
        for f in fs:
            out = np.convolve(out, f)
        return out

    Q = product(factors, P + 1)
    NQ = np.zeros(len(Q) - 1)
    for p, a in enumerate(terms.poly):
        NQ[p:] += math.factorial(p) * a * product(factors, P - p)
    for i, (a, _) in enumerate(terms.decays):
        NQ[1:] += a * product(factors[:i] + factors[i + 1:], P)
    roots = np.array([0.0] * (P + 1) + [-b for _, b in terms.decays])
    while Q[-1] == 0.0 and NQ[-1] == 0.0:
        Q, NQ, roots = Q[:-1], NQ[:-1], roots[1:]
    return Q, NQ, roots


def _reproduces_kernel(terms: KernelTerms, Q, NQ) -> bool:
    """Certificate (a): NQ / Q equals N-hat, summed term by term, at
    points of the right half plane clear of every root of Q."""
    rho = 1.0 + max([b for _, b in terms.decays], default=0.0)
    w = rho * np.array([[1.0, 1.0 + 1.0j, 1.0 - 1.0j, 2.0 + 1.0j]])
    parts = [math.factorial(p) * a / w ** (p + 1)
             for p, a in enumerate(terms.poly)]
    parts += [a / (w * (w + b)) for a, b in terms.decays]
    scale = np.sum(np.abs(parts), axis=0)
    gap = np.abs(_horner(NQ, w) / _horner(Q, w) - np.sum(parts, axis=0))
    return bool(np.all(gap <= EXACT_TOL * scale))


def _coincide(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a root of a row of a (K, n) lies within ROOT_GAP of a
    distinct entry of the same row of b (K, m), relative to the larger
    of the two magnitudes and 1."""
    gap = np.abs(a[:, :, None] - b[:, None, :])
    scale = np.maximum(1.0, np.maximum(np.abs(a)[:, :, None],
                                       np.abs(b)[:, None, :]))
    if a is b:
        gap[:, np.arange(a.shape[1]), np.arange(a.shape[1])] = np.inf
    return bool(np.any(gap <= ROOT_GAP * scale))


def exact_modes(terms: KernelTerms, alpha: float,
                modes: Spectrum) -> Optional[ExactModes]:
    """Exact modal responses of a closed-form kernel, or None.

    With N-hat = NQ / Q (_rational_form), the modal equation gives
    z-hat = Q / Den with Den = (s - 2 alpha) Q + lambda^2 NQ, monic of
    degree d = deg Q + 1, so V = N*z has V-hat = NQ / Den and
    U = z + N'*z has U-hat = s N-hat z-hat = s NQ / Den (N(0) = 1).  The
    roots of every mode's Den come from one np.linalg.eigvals call on a
    (K, d, d) stack of companion matrices, and the residues are
    s_k NQ(s_k) / Den'(s_k) and NQ(s_k) / Den'(s_k).

    Returns None, and the caller marches, when a mode is on the
    degenerate set, when Den's coefficients, a root or a residue are not
    finite, when two roots of a mode's Den, or a root of Den and one of
    Q, lie within ROOT_GAP of each other relative to the larger of their
    magnitudes and 1 (_coincide), or when a certificate fails.  The
    certificates, each to EXACT_TOL of the magnitudes it sums:
      (a) NQ / Q reproduces N-hat (_reproduces_kernel);
      (b) U(0) = 1 and V(0) = 0, the residues summed;
      (c) U'(0) = 2 alpha and V'(0) = 1, the modal equation at t = 0
          with N(0) = 1 and N'(0) = 0.
    """
    if not len(modes) or modes.in_J.any():
        return None
    # every overflow or NaN below ends in a refusal, not in a warning
    with np.errstate(all="ignore"):
        Q, NQ, q_roots = _rational_form(terms)
        if not _reproduces_kernel(terms, Q, NQ):
            return None
        lam = modes.lambda_sq
        K, d = len(modes), len(Q)
        den = np.convolve([1.0, terms.rate - 2.0 * alpha], Q) \
            + lam[:, None] * np.concatenate([[0.0, 0.0], NQ])
        if not np.all(np.isfinite(den)):
            return None
        companion = np.zeros((K, d, d))
        companion[:, 0] = -den[:, 1:]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        w = np.linalg.eigvals(companion).astype(complex)
        if not np.all(np.isfinite(w)):
            return None
        if _coincide(w, w) or _coincide(
                w, np.broadcast_to(q_roots, (K, len(q_roots)))):
            return None
        dden = _horner(den[:, :-1] * np.arange(d, 0, -1), w)
        s = w + terms.rate
        V = _horner(NQ, w) / dden
        U = s * V
        checks = ((U, 1.0), (V, 0.0), (U * s, 2.0 * alpha), (V * s, 1.0))
        ok = all(np.all(np.abs(np.sum(r, axis=1) - want)
                        <= EXACT_TOL * np.sum(np.abs(r), axis=1))
                 for r, want in checks)
        if not (ok and np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
            return None
        return ExactModes(s, U, V)


def s_frame_rows(terms: KernelTerms, alpha: float, modes: Spectrum,
                 t: np.ndarray) -> Optional[np.ndarray]:
    """S_n(t) = exp(-alpha t) (U_n + i beta_n V_n)(t) of every mode at
    the times t, one (K, len(t)) complex row per mode, or None where
    exact_modes refuses the modes.

    Each row is the residue sum sum_k (U_nk + i beta_n V_nk)
    exp((s_nk - alpha) t) on the S-frame rates s_nk - alpha, added one
    root at a time into the result, so a (K, d, len(t)) array is never
    formed.  An exponential that overflows leaves its row not finite,
    which the caller refuses."""
    exact = exact_modes(terms, alpha, modes)
    if exact is None:
        return None
    weights = exact.U + 1j * modes.beta[:, None] * exact.V
    rates = exact.roots - alpha
    S = np.zeros((len(modes), len(t)), dtype=complex)
    term = np.empty_like(S)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rates.shape[1]):
            np.multiply(rates[:, k, None], t, out=term)
            np.exp(term, out=term)
            term *= weights[:, k, None]
            S += term
    return S


def transformed_exponential_terms(modes: Spectrum, c: float):
    """The telegraph rows off the degenerate set as exponential sums on
    the rates (i beta, -i beta): V = sin(beta t) / beta has the weights
    (1, -1) / (2 i beta) and U = cos(beta t) + c V the weights
    (1/2, 1/2) + c (1, -1) / (2 i beta).  Rates, U and V weights, each
    (K, 2)."""
    ib = 1j * modes.beta
    V = np.stack([1.0 / (2.0 * ib), -1.0 / (2.0 * ib)], axis=1)
    return np.stack([ib, -ib], axis=1), 0.5 + c * V, V


# Bytes of one block of _exponential_time_grams' pair integrals: a block
# and the arrays contracted from it stay in a core's L2 cache.  Of 128 KiB
# to 2 MiB, 512 KiB timed best at K = 8, 80 and 320 on a 2-vCPU Xeon with
# 2 MiB of L2 per core (BENCH_exact_blocks.json).
PAIR_BLOCK_BYTES = 2**19


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """The leading entries of the flat array buf, as an array of shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _multiply_add(terms, out, prod):
    """out = the sum of a * b over the pairs (a, b) of terms, left to
    right, each product after the first written to prod."""
    for k, (a, b) in enumerate(terms):
        np.multiply(a, b, out=prod if k else out)
        if k:
            np.add(out, prod, out=out)


def _exponential_time_grams(rates, weights, horizons) -> np.ndarray:
    """int_0^T profile_k conj(profile_l) dt for every T, (H, count, count),
    of the profiles profile_k(t) = sum_j weights[k, j] exp(rates[i, j] t)
    with i = k // r: rates (R, d) and weights (count, d), count = R r with
    r <= d, so the rows i r ... i r + r - 1 share the exponents rates[i].

    The pair integrals I_T(p, q) = int_0^T exp(x t) dt, x = s_p +
    conj(s_q) (the scalar case of Van Loan's exponential integrals, IEEE
    Trans. Automat. Control 23, 1978), are formed once per pair of the
    R d distinct exponents: I_T = (e_p conj(e_q) - 1) / x with
    e = exp(s T), one exponential per exponent and horizon, except where
    |x| T < 1, where the difference would cancel and T E(x T),
    E(y) = expm1(y) / y and E(0) = 1, takes over.  With
    w[i, a, j] = weights[i r + a, j], the Gram is the contraction

        G_T[(i, a), (l, b)] = sum_m (sum_j w[i, a, j] I_T[(i, j), (l, m)])
                              conj(w[l, b, m]),

    two d-term multiply-adds (_multiply_add), elementwise, not BLAS.  The
    pair integrals' columns run over (m, l), l inner, so both sums read
    rows of R or R d contiguous entries; the Grams come out in (b, l)
    column order and are transposed into the result.

    The pair integrals are formed and contracted a block at a time, each
    block within PAIR_BLOCK_BYTES: as many horizons as fit when one
    horizon's fit, otherwise a run of modes (the rows (i, j) of modes
    i0 .. i1 - 1) at one horizon, the horizons inner so that the run's
    rows of 1 / x are read from cache.  Every entry takes the same
    operations in the same order whatever the blocks.  1 / x, the block's
    pair integrals, its half contraction and one product array are the
    work arrays, each reused from block to block; the block's Grams reuse
    the pair integrals' array.  Only the pairs with |x| min(horizons) < 1
    are tested at every horizon: rounding is monotone, so they hold every
    horizon's |x| T < 1.
    """
    R, d = rates.shape
    r = len(weights) // R
    H, n = len(horizons), R * d
    out = np.empty((H, R * r, R * r), dtype=complex)
    s = rates.reshape(-1)
    w = weights.reshape(R, r, d)
    wc = np.conj(w).transpose(2, 1, 0)              # [m, b, l]
    T = np.asarray(horizons, dtype=float)[:, None]
    inv = s[:, None] + np.conj(rates.T.reshape(-1))  # x, inverted below
    near = np.abs(inv).ravel()
    pairs = np.flatnonzero(near * min(horizons, default=0.0) < 1.0)
    # every horizon's pairs with |x| T < 1, in (horizon, pair) order, and
    # their positions in the pair integrals of all horizons, (H, n, n)
    hits, col = np.nonzero(near[pairs] * T < 1.0)
    del near
    pairs = pairs[col]
    y = inv.ravel()[pairs] * T[hits, 0]
    spots = hits * n * n + pairs
    # modes per block, and horizons per block where all modes fit
    M = max(1, PAIR_BLOCK_BYTES // (d * n * 16))
    P, M = max(1, M // R), min(M, R)
    pair_buf = np.empty(min(H, P) * M * d * n, dtype=complex)
    half_buf = np.empty(min(H, P) * M * r * n, dtype=complex)
    prod_buf = np.empty_like(half_buf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        near_terms = T[hits, 0] * np.where(y == 0.0, 1.0, np.expm1(y) / y)
        e = np.exp(s * T)
        ec = np.conj(e.reshape(H, R, d).transpose(0, 2, 1)).reshape(H, n)
        np.divide(1.0, inv, out=inv)
        for i0 in range(0, R, M):
            i1 = min(R, i0 + M)
            k, rows = i1 - i0, slice(i0 * d, i1 * d)
            for h0 in range(0, H, P):
                h1 = min(H, h0 + P)
                h = h1 - h0
                # the block is a run of spots: all of horizons h0 .. h1 - 1
                # (k = R), or modes i0 .. i1 - 1 of horizon h0 (h = 1)
                start = h0 * n * n + i0 * d * n
                first, end = np.searchsorted(
                    spots, (start, (h1 - 1) * n * n + i1 * d * n))
                I = _view(pair_buf, (h, k * d, n))
                np.multiply(e[h0:h1, rows, None], ec[h0:h1, None, :], out=I)
                np.subtract(I, 1.0, out=I)
                np.multiply(I, inv[rows], out=I)
                I.reshape(-1)[spots[first:end] - start] = \
                    near_terms[first:end]
                I = I.reshape(h, k, d, 1, n)
                half = _view(half_buf, (h, k, r, n))
                _multiply_add(((w[i0:i1, :, j, None], I[:, :, j])
                               for j in range(d)),
                              half, _view(prod_buf, half.shape))
                half = half.reshape(h, k, r, 1, d, R)
                gram = _view(pair_buf, (h, k, r, r, R))  # [h, i, a, b, l]
                _multiply_add(((half[:, :, :, :, m], wc[m])
                               for m in range(d)),
                              gram, _view(prod_buf, gram.shape))
                out[h0:h1].reshape(h, R, r, R, r)[:, i0:i1] = \
                    gram.transpose(0, 1, 2, 4, 3)
    return out


def _exponential_members(modes: Spectrum, rates, U, V):
    """Rates (K, d) and weights (2K, d) of the rows of modes whose time
    profiles U and V are exponential sums on the rates (K, d) with the
    weights U and V (K, d), and their real traces (2K, nodes): the
    weights scaled by control._members, as the grid families' profiles
    are, and both rows of mode n, 2n and 2n + 1, on its rates[n]
    (_exponential_time_grams)."""
    weights, _, traces = _members(modes, U, V)
    return rates, weights, traces


def _real_time_grams(grams: np.ndarray, label: str) -> np.ndarray:
    """The real part of the closed-form time Grams (H, count, count) of
    the real rows of the family label, once each Gram's imaginary part
    is within EXACT_TOL of the largest entry of its real part; otherwise
    the internal-consistency error.  A Gram whose real part is not
    finite is left to the report pass's finite check."""
    real = grams.real.copy()
    with np.errstate(invalid="ignore"):
        scale = np.max(np.abs(real), axis=(1, 2))
        leak = np.max(np.abs(grams.imag), axis=(1, 2))
    bad = np.isfinite(scale) & ~(leak <= EXACT_TOL * scale)
    if bad.any():
        i = int(np.argmax(bad))
        raise InternalConsistencyError(
            f"closed-form time Gram of {label!r} is not real (imaginary "
            f"part {leak[i]:.3e} of {scale[i]:.3e})")
    return real


def exact_sweep(terms: Optional[KernelTerms], alpha: float,
                modes_tel: Spectrum, modes_vis: Spectrum, c: float,
                gamma_weights, horizons: Sequence[float]):
    """Frame bounds of the telegraph family (modes_tel, parameter c) and
    the memory family (modes_vis) of the kernel with the closed form
    terms (kernels.kernel_terms) and the shift alpha at every horizon,
    as two lists of reports from one riesz.gram_reports pass, or None
    where the kernel is tabulated (terms is None), a telegraph mode is
    on the degenerate set or exact_modes refuses the modes.  No grid is
    sampled: a kernel whose exponentials overflow at the horizons leaves
    its Gram not finite, which the report pass refuses."""
    if terms is None or modes_tel.in_J.any():
        return None
    exact = exact_modes(terms, alpha, modes_vis)
    if exact is None:
        return None
    tel = _exponential_members(modes_tel,
                               *transformed_exponential_terms(modes_tel, c))
    vis = _exponential_members(modes_vis, *exact)
    return gram_reports([(traces, _real_time_grams(_exponential_time_grams(
                              rates, weights, horizons), label), label)
                         for (rates, weights, traces), label
                         in ((tel, "telegraph"), (vis, "viscoelastic"))],
                        gamma_weights)
