"""Reference passes over a SequenceFamily and a dense grid function g
(nodes, steps+1), for the tests to check the pipeline's own passes
(control._RealPasses, the spot check, the Gram) against, and the complex
family whose eigenvalues the real one keeps.

Each pass is a single product through the family's factors, with the
second argument of an inner product conjugated:

    pairing(fam, g)[k]       = int member_k * g
    inner_against(fam, g)[k] = <g, member_k>
    norms_sq(fam)[k]         = |member_k|^2
    combination(fam, a)      = sum_k a_k member_k
    real_factors(fam, a)     = real factors (A, B) with A.T @ B that sum

The complex reference (paired_gram, paired_exponential_grams) is the
family of complex pairs paired at -beta: member +n the real trace of
mode n times (U_n + i beta_n V_n) / beta_n, member -n the same trace
times (U_n - i beta_n V_n) / beta_n, and U_n +- i V_n on the degenerate
set.
For real beta, member -n is the conjugate of member +n.  Per mode the
real rows sqrt2 U_n / |beta_n| and sqrt2 V_n are a unitary 2 x 2 map of
this pair, so the two Grams have the same eigenvalues.

Z_of and S_of build the complex response Z = z + N'*z + i beta N*z
(i on the degenerate set) and S = exp(-alpha t) Z of a batch of modal
responses, which the pipeline does not form.
"""

import numpy as np

from memwave.grid import trapezoid_weights


def _pair(fam, g, psi, profiles):
    dense = np.asarray(g).reshape(fam.psi.shape[1], fam.grid.steps + 1)
    wt = trapezoid_weights(fam.grid)
    return (((psi * fam.gamma_weights) @ dense) * profiles) @ wt


def pairing(fam, g):
    """Bilinear integrals int member_k * g (no conjugation)."""
    return _pair(fam, g, fam.psi, fam.profiles)


def inner_against(fam, g):
    """<g, member_k> for every k (second argument conjugated)."""
    return _pair(fam, g, np.conj(fam.psi), np.conj(fam.profiles))


def norms_sq(fam):
    wt = trapezoid_weights(fam.grid)
    return ((np.abs(fam.psi) ** 2 @ fam.gamma_weights)
            * (np.abs(fam.profiles) ** 2 @ wt))


def combination(fam, coefficients):
    """Dense (nodes, steps+1) sum_k a_k member_k."""
    return (fam.psi.T * np.asarray(coefficients)) @ fam.profiles


def real_factors(fam, coefficients):
    """Real factors A (count, nodes) and B (count, steps+1), member by
    member, with A.T @ B = sum_k a_k member_k for real a."""
    return fam.psi, np.asarray(coefficients)[:, None] * fam.profiles


def Z_of(responses):
    """The complex Z = z + N'*z + i beta N*z of every mode of a batch of
    modal responses, i beta replaced by i on the degenerate set."""
    m = responses.modes
    ib = np.where(m.in_J, 1j, 1j * m.beta)[:, None]
    return responses.z + responses.Npz + ib * responses.Nz


def S_of(responses, alpha):
    """exp(-alpha t) Z of every mode of a batch of modal responses."""
    return np.exp(-alpha * responses.grid.t) * Z_of(responses)


def paired_rows(modes, U, V):
    """The complex pairs (2K, ...) of modes with the time profiles (or
    exponential weights) U and V (K, ...), over (+1, -1, +2, ...):
    (U +- i beta V) / beta, and U +- i V on the degenerate set."""
    beta = np.where(modes.in_J, 1.0, modes.beta)
    ib = np.where(modes.in_J, 1j, 1j * modes.beta)
    shape = (-1,) + (1,) * (np.ndim(U) - 1)
    out = np.empty((2 * len(modes),) + np.shape(U)[1:], dtype=complex)
    out[::2] = (U + ib.reshape(shape) * V) / beta.reshape(shape)
    out[1::2] = (U - ib.reshape(shape) * V) / beta.reshape(shape)
    return out


def _boundary(modes, gamma_weights):
    psi = np.repeat(modes.trace, 2, axis=0)
    return (psi * gamma_weights) @ psi.T


def paired_gram(modes, U, V, grid, gamma_weights):
    """The complex Gram of the -beta paired family of modes (a
    spectral.Spectrum) with the unscaled time profiles U and V
    (K, steps+1) on grid."""
    Z = paired_rows(modes, U, V)
    return (_boundary(modes, gamma_weights)
            * ((Z * trapezoid_weights(grid)) @ np.conj(Z).T))


def paired_exponential_grams(modes, rates, U, V, horizons, gamma_weights):
    """The complex Grams (H, 2K, 2K) at horizons of the -beta paired
    family of modes whose unscaled time profiles U and V are exponential
    sums on rates (K, d) with the weights U and V (K, d)."""
    # imported here: the CLI tests import this module, and memwave.exact
    # loads only with the runs that reach it
    from memwave.exact import _exponential_time_grams
    return (_boundary(modes, gamma_weights)
            * _exponential_time_grams(np.repeat(rates, 2, axis=0),
                                      paired_rows(modes, U, V), horizons))


def telegraph_profiles(modes, c, t):
    """The telegraph family's unscaled U and V (K, len(t)), computed in
    complex arithmetic from the transformed exponential
    Z = exp(i beta t) + (c/beta) sin(beta t) = U + i beta V (1 + (c + i) t
    on the degenerate set): U = (Z + Z(-beta)) / 2, V = (Z - Z(-beta)) /
    (2 i beta)."""
    beta = np.where(modes.in_J, 1.0, modes.beta)[:, None]
    E = np.exp(1j * beta * t)
    U = 0.5 * (E + 1.0 / E) + (c / beta) * np.sin(beta * t)
    V = (E - 1.0 / E) / (2j * beta)
    U[modes.in_J], V[modes.in_J] = 1.0 + c * t, t
    return U, V
