"""Complex reference passes over a SequenceFamily and a dense grid
function g (nodes, steps+1), for the tests to check the pipeline's own
passes (control._RealPasses, the spot check, the Gram) against.

Each is a single complex product through the family's factors, with
the second argument of an inner product conjugated, as in riesz:

    pairing(fam, g)[k]       = int member_k * g
    inner_against(fam, g)[k] = <g, member_k>
    norms_sq(fam)[k]         = |member_k|^2
    combination(fam, a)      = sum_k a_k member_k  (or conj(member_k))
    real_factors(fam, a)     = real factors of Re sum_k a_k conj(member_k)

and the Gram of a family in the complex representation the pipeline
kept before a family's traces were real (complex_gram,
complex_exponential_grams): member +n the complex trace
trace_n / beta_n (EigenPair.psi) times the unscaled time profile,
member -n the conjugate of both.
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


def combination(fam, coefficients, conjugate=False):
    """Dense (nodes, steps+1) sum_k a_k member_k, or with conjugate set,
    sum_k a_k conj(member_k)."""
    a = np.asarray(coefficients)
    if conjugate:
        return (np.conj(fam.psi).T * a) @ np.conj(fam.profiles)
    return (fam.psi.T * a) @ fam.profiles


def real_factors(fam, coefficients):
    """Real factors A (2 count, nodes) and B (2 count, steps+1) with
    A.T @ B = Re sum_k a_k conj(member_k), member by member:
    Re(c z) = Re c Re z - Im c Im z with c = conj(psi_k) and
    z = a_k conj(Z_k)."""
    c = np.conj(fam.psi)
    z = np.asarray(coefficients)[:, None] * np.conj(fam.profiles)
    return np.concatenate([c.real, c.imag]), np.concatenate([z.real, -z.imag])


def conjugate_pairs(rows):
    """Rows over (+1, -1, +2, -2, ...), row -n the conjugate of row +n."""
    rows = np.asarray(rows, dtype=complex)
    out = np.empty((2 * len(rows),) + rows.shape[1:], dtype=complex)
    out[::2] = rows
    out[1::2] = np.conj(rows)
    return out


def _complex_boundary(pairs, gamma_weights):
    psi = conjugate_pairs([p.psi for p in pairs])
    return (psi * gamma_weights) @ np.conj(psi).T


def complex_gram(pairs, profiles, grid, gamma_weights):
    """The Gram of the family of pairs with the unscaled time profiles
    (K, steps+1) on grid, in the complex representation."""
    Z = conjugate_pairs(profiles)
    return (_complex_boundary(pairs, gamma_weights)
            * ((Z * trapezoid_weights(grid)) @ np.conj(Z).T))


def complex_exponential_grams(pairs, rates, weights, horizons,
                              gamma_weights):
    """The Grams (H, 2K, 2K) at horizons of the family of pairs whose
    unscaled time profiles are the exponential sums of rates and weights
    (K, d), in the complex representation."""
    # imported here: the CLI tests import this module, and memwave.exact
    # loads only with the runs that reach it
    from memwave.exact import _exponential_time_grams
    return (_complex_boundary(pairs, gamma_weights)
            * _exponential_time_grams(conjugate_pairs(rates),
                                      conjugate_pairs(weights), horizons))
