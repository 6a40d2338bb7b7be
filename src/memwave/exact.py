"""The exact route of sweep-t for closed-form kernels.

Both families of a closed-form kernel are finite exponential sums with
a known Laplace form (Pruss, Evolutionary Integral Equations, 1993):

- the memory family: N-hat = NQ / Q (kernels.KernelTerms), so each
  mode's z and Z are residue sums over the roots of
  Den = (s - 2 alpha) Q + lambda^2 NQ (exact_modes);
- the telegraph family: exp(i beta t) + (c / beta) sin(beta t) is two
  exponentials (transformed_exponential_terms).

A family whose time profiles are exponential sums has its time Gram in
closed form at any horizon, with no grid (_exponential_time_grams).
exact_sweep puts the pieces together for cli._run_sweep: it scales and
signs each family's exponential weights with control._members, the
helper that builds the grid families (_exponential_members), and hands
both families' real traces and time Grams to one riesz.gram_reports
pass, the report path of the grid route too, which gives both
families' reports at the levels riesz.nested_levels names; or it
returns None, and the sweep marches, where the route does not apply or
a mode is not certified.

The CLI imports this module only when a sweep reaches it, so no other
run compiles it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .control import _members
from .kernels import KernelTerms
from .riesz import gram_reports
from .volterra import _forcing_factors


# Relative distance at or below which two roots of a mode's Den, or a root
# of Den and a root of Q, count as one: exact_modes refuses the modes.
ROOT_GAP = 1e-6
# Allowance of the exact route's certificates, relative to the sum of the
# magnitudes each one adds up: rounding level.
EXACT_TOL = 1e-12


class ExactModes(NamedTuple):
    """Modal responses as exponential sums, one row per mode:
    z(t) = sum_k z[k] exp(roots[k] t) and Z(t) = sum_k Z[k] exp(roots[k] t)."""

    roots: np.ndarray        # (K, d) complex roots of Den
    z: np.ndarray            # (K, d) residues of z-hat
    Z: np.ndarray            # (K, d) residues of Z-hat


def _horner(coefficients: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Polynomials, highest power first, at w (K, d): coefficients (n,)
    for one polynomial, or (K, n) for one per row of w."""
    c = np.atleast_2d(coefficients)
    out = np.broadcast_to(c[:, :1], w.shape).astype(complex)
    for k in range(1, c.shape[1]):
        out = out * w + c[:, k:k + 1]
    return out


def _rational_form(terms: KernelTerms):
    """(Q, NQ, the polynomial terms kept, the roots of Q) in w = s - rate,
    highest power first, with N-hat = NQ / Q.

    Laplace takes exp(rate t) t^p to p! / w^(p+1) and exp(rate t) phi_b
    to 1 / (w (w + b)), so Q = w^(P+1) prod_i (w + b_i) and NQ, of
    degree deg Q - 1, is the sum of the terms over Q.  Trailing zero
    polynomial terms are dropped first: they would give Q and NQ a
    common root at w = 0 that N does not have.
    """
    poly = list(terms.poly)
    while len(poly) > 1 and poly[-1] == 0.0:
        poly.pop()
    P = len(poly) - 1
    factors = [np.array([1.0, b]) for _, b in terms.decays]

    def product(fs, power):
        out = np.zeros(power + 1)
        out[0] = 1.0
        for f in fs:
            out = np.convolve(out, f)
        return out

    Q = product(factors, P + 1)
    NQ = np.zeros(len(Q) - 1)
    for p, a in enumerate(poly):
        NQ[p:] += math.factorial(p) * a * product(factors, P - p)
    for i, (a, _) in enumerate(terms.decays):
        NQ[1:] += a * product(factors[:i] + factors[i + 1:], P)
    roots = np.array([0.0] * (P + 1) + [-b for _, b in terms.decays])
    return Q, NQ, poly, roots


def _reproduces_kernel(terms: KernelTerms, poly, Q, NQ) -> bool:
    """Certificate (a): NQ / Q equals N-hat, summed term by term, at
    points of the right half plane clear of every root of Q."""
    rho = 1.0 + max([b for _, b in terms.decays], default=0.0)
    w = rho * np.array([[1.0, 1.0 + 1.0j, 1.0 - 1.0j, 2.0 + 1.0j]])
    parts = [math.factorial(p) * a / w ** (p + 1) for p, a in enumerate(poly)]
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
                pairs) -> Optional[ExactModes]:
    """Exact modal responses of a closed-form kernel, or None.

    With N-hat = NQ / Q (_rational_form), the modal equations give
    z-hat = Q / Den and Z-hat = (s + i beta) NQ / Den with
    Den = (s - 2 alpha) Q + lambda^2 NQ, monic of degree d = deg Q + 1.
    The roots of every mode's Den come from one np.linalg.eigvals call
    on a (K, d, d) stack of companion matrices, and the residues are
    Q(s_k) / Den'(s_k) and (s_k + i beta) NQ(s_k) / Den'(s_k).

    Returns None, and the caller marches, when a pair is on the
    degenerate set, when Den's coefficients, a root or a residue are not
    finite, when two roots of a mode's Den, or a root of Den and one of
    Q, lie within ROOT_GAP of each other relative to the larger of their
    magnitudes and 1 (_coincide), or when a certificate fails.  The
    certificates, each to EXACT_TOL of the magnitudes it sums:
      (a) NQ / Q reproduces N-hat (_reproduces_kernel);
      (b) z(0) = Z(0) = 1, the residues summed;
      (c) z'(0) = 2 alpha and Z'(0) = 2 alpha + i beta, the modal
          equations at t = 0 with N(0) = 1 and N'(0) = 0.
    """
    if not pairs or any(p.in_J for p in pairs):
        return None
    # every overflow or NaN below ends in a refusal, not in a warning
    with np.errstate(all="ignore"):
        Q, NQ, poly, q_roots = _rational_form(terms)
        if not _reproduces_kernel(terms, poly, Q, NQ):
            return None
        lam = np.array([p.lambda_sq for p in pairs])
        K, d = len(pairs), len(Q)
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
        ib = _forcing_factors(pairs)
        dden = _horner(den[:, :-1] * np.arange(d, 0, -1), w)
        s = w + terms.rate
        z = _horner(Q, w) / dden
        Z = (s + ib[:, None]) * _horner(NQ, w) / dden
        checks = ((z, 1.0), (Z, 1.0), (z * s, 2.0 * alpha),
                  (Z * s, 2.0 * alpha + ib))
        ok = all(np.all(np.abs(np.sum(r, axis=1) - want)
                        <= EXACT_TOL * np.sum(np.abs(r), axis=1))
                 for r, want in checks)
        if not (ok and np.all(np.isfinite(z)) and np.all(np.isfinite(Z))):
            return None
        return ExactModes(s, z, Z)


def transformed_exponential_terms(pairs, a: float):
    """transformed_exponential off the degenerate set as an exponential
    sum, (1 + a/(2 i beta)) e^(i beta t) - (a/(2 i beta)) e^(-i beta t):
    rates and weights, each (K, 2)."""
    ib = 1j * np.array([p.beta for p in pairs])
    k = a / (2.0 * ib)
    return np.stack([ib, -ib], axis=1), np.stack([1.0 + k, -k], axis=1)


def _exponential_time_grams(rates, weights, horizons) -> np.ndarray:
    """int_0^T profile_k conj(profile_l) dt for every T, (H, count, count),
    of the profiles profile_k(t) = sum_j weights[k, j] exp(rates[k, j] t),
    rates and weights (count, d).

    Term by term, with x = s + conj(s') over every pair of exponents,
    int_0^T e^(x t) dt = T E(x T), E(y) = expm1(y) / y and E(0) = 1;
    it is (u(T) conj(u'(T)) - u(0) conj(u'(0))) / x with u = w e^(s t),
    which takes one exponential per exponent and horizon, except where
    |x| T < 1, where the difference would cancel and expm1 takes over.

    Three (count d)^2 arrays stay live: 1 / x, u(0) conj(u'(0)) and one
    work array that each horizon's terms reuse before they are summed
    into its slice of the preallocated result.  Only the pairs with
    |x| min(horizons) < 1 keep x, |x| and u(0) conj(u'(0)) apart:
    rounding is monotone, so they hold every horizon's |x| T < 1.
    """
    count, d = rates.shape
    s, w = rates.reshape(-1), weights.reshape(-1)
    out = np.empty((len(horizons), count, count), dtype=complex)
    inv = s[:, None] + np.conj(s)[None, :]          # x, inverted below
    near = np.abs(inv)
    ww = w[:, None] * np.conj(w)[None, :]
    pairs = np.flatnonzero(near * min(horizons, default=0.0) < 1.0)
    x, near, ww_near = (a.ravel()[pairs] for a in (inv, near, ww))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(1.0, inv, out=inv)
        work = np.empty_like(inv)
        for T, gram in zip(horizons, out):
            u = w * np.exp(s * T)
            np.multiply(u[:, None], np.conj(u)[None, :], out=work)
            np.subtract(work, ww, out=work)
            np.multiply(work, inv, out=work)
            small = near * T < 1.0
            y = x[small] * T
            work.ravel()[pairs[small]] = ww_near[small] * T * np.where(
                y == 0.0, 1.0, np.expm1(y) / y)
            work.reshape(count, d, count, d).sum(axis=(1, 3), out=gram)
    return out


def _exponential_members(pairs, rates, weights):
    """Rates and weights (2K, d) of the signed members of pairs whose
    time profiles are the exponential sums of rates and weights (K, d),
    and their real traces (2K, nodes): the weights scaled and signed by
    control._members, as the grid families' profiles are, and member
    -n, the conjugate of member +n, on the conjugate exponents."""
    weights, _, traces = _members(pairs, weights)
    rates = np.repeat(rates, 2, axis=0)
    np.conjugate(rates[1::2], out=rates[1::2])
    return rates, weights, traces


def exact_sweep(kernel, pairs_tel, pairs_vis, c: float, gamma_weights,
                horizons: Sequence[float]):
    """Frame bounds of the telegraph family (pairs_tel, parameter c) and
    the memory family (pairs_vis) at every horizon, as two lists of
    reports from one riesz.gram_reports pass, or None where the kernel
    is tabulated, a telegraph pair is on the degenerate set or
    exact_modes refuses the modes."""
    if kernel.terms is None or any(p.in_J for p in pairs_tel):
        return None
    modes = exact_modes(kernel.terms, kernel.alpha, pairs_vis)
    if modes is None:
        return None
    tel = _exponential_members(pairs_tel,
                               *transformed_exponential_terms(pairs_tel, c))
    vis = _exponential_members(pairs_vis, modes.roots, modes.Z)
    return gram_reports([(traces, _exponential_time_grams(rates, weights,
                                                          horizons), label)
                         for (rates, weights, traces), label
                         in ((tel, "telegraph"), (vis, "viscoelastic"))],
                        gamma_weights)
