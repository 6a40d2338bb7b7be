"""The families the pipeline builds hold the real, unscaled boundary
trace once per member +-n, with the complex scale 1/beta_n (its
conjugate at -n) in the time profile.  Their Grams are those of the
complex representation the pipeline kept before (trace / beta against
the unscaled profile, rebuilt in family_reference), to rounding, on
both Gram routes: the grid route (riesz.gram) and the exact route
(exact.exact_sweep)."""

import numpy as np
import pytest

import memwave.exact
from memwave import (DomainSpec, KernelSpec, TimeGrid, compute_eigenpairs,
                     compute_responses, gram, gram_reports, normalize,
                     telegraph_family, viscoelastic_family)
from memwave.control import _RealPasses
from memwave.exact import (exact_modes, exact_sweep,
                           transformed_exponential_terms)
from memwave.volterra import transformed_exponential

from family_reference import complex_exponential_grams, complex_gram

PI = np.pi
EXP = KernelSpec("exponential_sum", coefficients=(1.0,), rates=(1.0,))
# name: (domain, kernel spec, telegraph parameter c)
CASES = {
    "interval": (DomainSpec("interval", (PI,)), EXP, 0.0),
    "rectangle-two-edges": (DomainSpec("rectangle", (PI, PI),
                                       gamma_subset=("right", "top")),
                            EXP, 0.5),
    # mode 1 on the degenerate set J of both families: beta_1 = 0
    "c=1": (DomainSpec("interval", (PI,), c=1.0),
            KernelSpec("zero", c=1.0), 1.0),
}
K = 6
HORIZONS = [1.5 * PI, 2.5 * PI]


def _setup(case, steps=400):
    dom, spec, c = CASES[case]
    grid = TimeGrid(2.5 * PI, steps)
    kernel = normalize(spec, grid)
    return (dom, grid, kernel, c, compute_eigenpairs(dom, K, c),
            compute_eigenpairs(dom, K, kernel.alpha))


def _exact_inputs(monkeypatch, case):
    """The families exact_sweep hands its report pass, or None where the
    route does not apply."""
    dom, grid, kernel, c, pairs_tel, pairs_vis = _setup(case)
    passes = []

    def recorded(families, gamma_weights):
        passes.append(families)
        return gram_reports(families, gamma_weights)
    monkeypatch.setattr(memwave.exact, "gram_reports", recorded)
    reps = exact_sweep(kernel, pairs_tel, pairs_vis, c, dom.gamma_weights(),
                       HORIZONS)
    return None if reps is None else (passes[0], reps)


def _real_traces(pairs):
    return np.repeat([p.trace.real for p in pairs], 2, axis=0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_families_hold_the_real_trace(case, monkeypatch):
    dom, grid, kernel, c, pairs_tel, pairs_vis = _setup(case)
    gw = dom.gamma_weights()
    families = [(telegraph_family(pairs_tel, c, grid, gw), pairs_tel),
                (viscoelastic_family(compute_responses(kernel, pairs_vis),
                                     gw), pairs_vis)]
    for fam, pairs in families:
        assert fam.psi.dtype == float
        assert np.array_equal(fam.psi, _real_traces(pairs))
        assert fam.index_set == tuple(x for n in range(1, K + 1)
                                      for x in (n, -n))
        # the synthesize passes keep the real traces, with no complex view
        passes = _RealPasses(fam)
        assert passes.psi.dtype == float
        assert passes.psi.shape == (fam.psi.shape[1], 2 * K)
    exact = _exact_inputs(monkeypatch, case)
    if case == "c=1":
        assert exact is None         # a telegraph mode on J: the sweep marches
        return
    for (psi, _, label), pairs in zip(exact[0], (pairs_tel, pairs_vis)):
        assert psi.dtype == float, label
        assert np.array_equal(psi, _real_traces(pairs)), label


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_route_gram_matches_the_complex_representation(case):
    dom, grid, kernel, c, pairs_tel, pairs_vis = _setup(case)
    gw = dom.gamma_weights()
    responses = compute_responses(kernel, pairs_vis)
    for fam, pairs, profiles in (
            (telegraph_family(pairs_tel, c, grid, gw), pairs_tel,
             transformed_exponential(pairs_tel, c, grid.t)),
            (viscoelastic_family(responses, gw), pairs_vis, responses.Z)):
        G = gram(fam).gram
        want = complex_gram(pairs, profiles, grid, gw)
        assert np.max(np.abs(G - want)) <= 1e-14 * np.max(np.abs(want)), \
            fam.label
        # and the synthesize passes' own Gram, from the real factors
        assert np.max(np.abs(_RealPasses(fam).gram() - want)) \
            <= 1e-14 * np.max(np.abs(want)), fam.label


@pytest.mark.parametrize("case", ["interval", "rectangle-two-edges"])
def test_exact_route_gram_matches_the_complex_representation(case,
                                                             monkeypatch):
    dom, grid, kernel, c, pairs_tel, pairs_vis = _setup(case)
    _, reps = _exact_inputs(monkeypatch, case)
    modes = exact_modes(kernel.terms, kernel.alpha, pairs_vis)
    wants = (complex_exponential_grams(
                 pairs_tel, *transformed_exponential_terms(pairs_tel, c),
                 HORIZONS, dom.gamma_weights()),
             complex_exponential_grams(pairs_vis, modes.roots, modes.Z,
                                       HORIZONS, dom.gamma_weights()))
    for family_reps, want in zip(reps, wants):
        for rep, G in zip(family_reps, want):
            assert np.max(np.abs(rep.gram - G)) <= 1e-14 * np.max(np.abs(G))
