"""Complex reference passes over a SequenceFamily and a dense grid
function g (nodes, steps+1), for the tests to check the pipeline's own
passes (control._RealPasses, the spot check, the Gram) against.

Each is a single complex product through the family's factors, with
the second argument of an inner product conjugated, as in riesz:

    pairing(fam, g)[k]       = int member_k * g
    inner_against(fam, g)[k] = <g, member_k>
    norms_sq(fam)[k]         = |member_k|^2
    combination(fam, a)      = sum_k a_k member_k  (or conj(member_k))
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
