"""Factored families against the explicit dense outer products.

A family keeps psi_k and P_k apart; every quantity below is recomputed
here from the dense members psi_k(x) Z_k(t) and the (nodes, time)
quadrature weights, the way a family stored them before it was factored.
"""

import numpy as np
import pytest

from memwave import (ConfigError, DomainSpec, KernelSpec, SequenceFamily,
                     TargetState, build_moment_problem,
                     compute_eigenpairs, compute_responses, gram,
                     make_grid, normalize, synthesize, viscoelastic_family)
from memwave.control import _RealPasses
from memwave.grid import trapezoid_weights

from family_reference import combination, inner_against, norms_sq, pairing

PI = np.pi
RECT = DomainSpec("rectangle", (PI, PI), gamma_subset=("right",))
EXP = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
K = 3


def rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module")
def rect_modes():
    grid = make_grid(2.5 * PI, 2e-2)
    kernel = normalize(EXP, grid)
    return kernel, compute_eigenpairs(RECT, K, kernel.alpha)


@pytest.fixture(scope="module")
def rect_family(rect_modes):
    kernel, modes = rect_modes
    return viscoelastic_family(compute_responses(kernel, modes),
                               RECT.gamma_weights())


def dense(fam):
    """Explicit members (count, nodes, steps+1) and weights (nodes, steps+1)."""
    members = np.array([np.outer(fam.psi[k], fam.profiles[k])
                        for k in range(fam.count)])
    weights = np.outer(fam.gamma_weights, trapezoid_weights(fam.grid))
    return members, weights


def dense_gram(members, weights):
    A = members.reshape(len(members), -1)
    return (A * weights.reshape(-1)) @ np.conj(A).T


def test_family_is_factored(rect_family):
    fam = rect_family
    nodes = len(RECT.gamma_weights())
    assert fam.psi.shape == (2 * K, nodes) and nodes > 1
    assert fam.profiles.shape == (2 * K, fam.grid.steps + 1)
    members, _ = dense(fam)
    assert np.array_equal(fam.members, members)
    # the dense view is built on each read, never kept
    assert fam.members is not fam.members


def test_gram_matches_dense(rect_family):
    members, weights = dense(rect_family)
    want = dense_gram(members, weights)
    assert rel_err(gram(rect_family).gram, want) < 1e-12
    fam = rect_family
    head = SequenceFamily(fam.profiles[:4], fam.index_set[:4], fam.label,
                          fam.grid, fam.gamma_weights, fam.psi[:4])
    assert rel_err(gram(head).gram, want[:4, :4]) < 1e-12


def test_pairings_match_dense(rect_family):
    fam = rect_family
    members, weights = dense(fam)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(weights.shape) + 1j * rng.standard_normal(weights.shape)
    pair = np.sum(members * g * weights, axis=(1, 2))
    inner = np.sum(g * np.conj(members) * weights, axis=(1, 2))
    norms = np.sum(np.abs(members) ** 2 * weights, axis=(1, 2))
    assert rel_err(pairing(fam, g), pair) < 1e-12
    assert rel_err(inner_against(fam, g), inner) < 1e-12
    assert rel_err(norms_sq(fam), norms) < 1e-12
    # synthesize's real-arithmetic passes over a real factor pair
    passes = _RealPasses(fam)
    A = rng.standard_normal((2, weights.shape[0]))
    B = rng.standard_normal((2, weights.shape[1]))
    f = A.T @ B
    assert rel_err(np.sum(passes.separable_pairing(A, B), axis=0),
                   np.sum(members * f * weights, axis=(1, 2))) < 1e-12
    assert np.sum(passes.inner(A, B, A, B)) == pytest.approx(
        np.sum(f ** 2 * weights), rel=1e-12)
    a = rng.standard_normal(fam.count)
    assert rel_err(combination(fam, a),
                   np.tensordot(a, members, axes=1)) < 1e-12


def test_restrict_and_subfamily_match_dense(rect_family):
    fam = rect_family
    members, weights = dense(fam)
    k = fam.grid.steps * 3 // 5
    short = fam.restrict(k)
    w_short = np.outer(fam.gamma_weights, trapezoid_weights(short.grid))
    assert np.array_equal(short.members, members[:, :, :k + 1])
    assert rel_err(gram(short).gram,
                   dense_gram(members[:, :, :k + 1], w_short)) < 1e-12
    pos = [0, 3, 4]
    sub = SequenceFamily(fam.profiles[pos],
                         tuple(fam.index_set[p] for p in pos), fam.label,
                         fam.grid, fam.gamma_weights, fam.psi[pos])
    assert np.array_equal(sub.members, members[pos])
    assert rel_err(gram(sub).gram, dense_gram(members[pos], weights)) < 1e-12


def test_synthesized_control_matches_dense(rect_family, rect_modes):
    fam = rect_family
    rng = np.random.default_rng(11)
    target = TargetState(rng.standard_normal(K), rng.standard_normal(K), K)
    problem = build_moment_problem(fam, target)
    sig = synthesize(problem)
    members, weights = dense(fam)
    G = dense_gram(members, weights)
    a = np.linalg.solve(G, problem.rhs)
    g = np.tensordot(a, members, axes=1)
    assert rel_err(sig.coefficients, a) < 1e-12
    assert rel_err(sig.traces.T @ sig.profiles, g[:, ::-1]) < 1e-12
    assert sig.norm == pytest.approx(
        np.sqrt(np.sum(np.abs(g) ** 2 * weights)), rel=1e-12)
    moments = np.sum(members * g * weights, axis=(1, 2))
    assert np.max(np.abs(moments - problem.rhs)) < 1e-10


def test_profiles_must_be_two_dimensional(rect_family):
    fam = rect_family
    with pytest.raises(ConfigError):
        SequenceFamily(fam.members, fam.index_set, "dense", fam.grid)
    with pytest.raises(ConfigError):
        SequenceFamily(fam.profiles, fam.index_set, "bad", fam.grid,
                       psi=fam.psi[:-1])
