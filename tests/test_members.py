"""The families the pipeline builds are real: each mode gives the rows
sqrt2 U_n / |beta_n| and sqrt2 V_n against the real, unscaled boundary
trace, bit for bit the trace spectral computes.  Per mode these are a
unitary 2 x 2 map of the complex pair paired at -beta (rebuilt in
family_reference), so their Grams have the same eigenvalues at every
even truncation level, on both Gram routes: the grid route
(riesz.gram) and the exact route (exact.exact_sweep), for real,
imaginary (overdamped) and degenerate-set modes."""

import json

import numpy as np
import pytest

import memwave.exact
from memwave import (DomainSpec, KernelSpec, TimeGrid, compute_eigenpairs,
                     compute_responses, gram, gram_reports, normalize,
                     telegraph_family, viscoelastic_family)
from memwave.cli import main
from memwave.control import _RealPasses
from memwave.exact import (exact_modes, exact_sweep,
                           transformed_exponential_terms)

from family_reference import (paired_exponential_grams, paired_gram,
                              telegraph_profiles)

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
    # mode 1 overdamped in both families: 3 exp(-t) gives alpha = -1.5
    # and c = 1.5 the telegraph alpha = 1.5, both past lambda_1 = 1
    "overdamped": (DomainSpec("interval", (PI,)),
                   KernelSpec("exponential_sum", coefficients=(3.0,),
                              rates=(1.0,)), 1.5),
}
K = 6
HORIZONS = [1.5 * PI, 2.5 * PI]
# where the eigenvalues are compared; the modes each case must reach
CONDITION = 1e4
MUST_COMPARE = {"interval": ("telegraph", 12), "c=1": ("telegraph", 2),
                "rectangle-two-edges": ("viscoelastic", 12),
                "overdamped": ("viscoelastic", 2)}


def _setup(case, steps=400):
    dom, spec, c = CASES[case]
    grid = TimeGrid(2.5 * PI, steps)
    kernel = normalize(spec, grid)
    return (dom, grid, kernel, c, compute_eigenpairs(dom, K, c),
            compute_eigenpairs(dom, K, kernel.alpha))


def _exact_inputs(monkeypatch, case):
    """The families exact_sweep hands its report pass, or None where the
    route does not apply."""
    dom, grid, kernel, c, modes_tel, modes_vis = _setup(case)
    passes = []

    def recorded(families, gamma_weights):
        passes.append(families)
        return gram_reports(families, gamma_weights)
    monkeypatch.setattr(memwave.exact, "gram_reports", recorded)
    reps = exact_sweep(kernel.terms, kernel.alpha, modes_tel, modes_vis, c,
                       dom.gamma_weights(), HORIZONS)
    return None if reps is None else (passes[0], reps)


def _real_traces(modes):
    return np.repeat(modes.trace, 2, axis=0)


def _compare_levels(rep, reference):
    """The even truncation levels 2j at which rep's condition is at most
    CONDITION, after checking that rep's bounds there are the extreme
    eigenvalues of the reference's leading 2j x 2j block: to 1e-12
    relative, plus the rounding floor k eps M_k the report pass itself
    allows a computed bound."""
    compared = []
    for k, lo, hi, cond in zip(rep.levels, rep.frame_lower,
                               rep.frame_upper, rep.condition):
        if k % 2 or not cond <= CONDITION:
            continue
        vals = np.linalg.eigvalsh(reference[:k, :k])
        floor = k * np.finfo(float).eps * vals[-1]
        assert abs(lo - vals[0]) <= 1e-12 * vals[0] + floor, k
        assert abs(hi - vals[-1]) <= 1e-12 * vals[-1] + floor, k
        compared.append(k)
    return compared


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_families_hold_the_real_trace(case, monkeypatch):
    dom, grid, kernel, c, modes_tel, modes_vis = _setup(case)
    gw = dom.gamma_weights()
    families = [(telegraph_family(modes_tel, c, grid, gw), modes_tel),
                (viscoelastic_family(compute_responses(kernel, modes_vis),
                                     gw), modes_vis)]
    for fam, modes in families:
        assert fam.psi.dtype == fam.profiles.dtype == float
        assert np.array_equal(fam.psi, _real_traces(modes))
        assert fam.index_set == tuple(x for n in range(1, K + 1)
                                      for x in (n, -n))
        # the synthesize passes keep the real factors
        passes = _RealPasses(fam)
        assert passes.psi.dtype == passes.P.dtype == float
        assert passes.psi.shape == (fam.psi.shape[1], 2 * K)
    exact = _exact_inputs(monkeypatch, case)
    if case == "c=1":
        assert exact is None         # a telegraph mode on J: the sweep marches
        return
    for (psi, temporal, label), modes in zip(exact[0],
                                             (modes_tel, modes_vis)):
        assert psi.dtype == temporal.dtype == float, label
        assert np.array_equal(psi, _real_traces(modes)), label


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_route_gram_matches_the_complex_representation(case):
    dom, grid, kernel, c, modes_tel, modes_vis = _setup(case)
    gw = dom.gamma_weights()
    responses = compute_responses(kernel, modes_vis)
    compared = {}
    for fam, modes, (U, V) in (
            (telegraph_family(modes_tel, c, grid, gw), modes_tel,
             telegraph_profiles(modes_tel, c, grid.t)),
            (viscoelastic_family(responses, gw), modes_vis,
             (responses.z + responses.Npz, responses.Nz))):
        rep = gram(fam)
        compared[fam.label] = _compare_levels(
            rep, paired_gram(modes, U, V, grid, gw))
        # and the synthesize passes' own Gram, from the real factors
        G = _RealPasses(fam).gram()
        assert np.max(np.abs(G - rep.gram)) <= 1e-14 * np.max(np.abs(G))
    label, level = MUST_COMPARE[case]
    assert level in compared[label], compared


@pytest.mark.parametrize("case", ["interval", "overdamped",
                                  "rectangle-two-edges"])
def test_exact_route_gram_matches_the_complex_representation(case,
                                                             monkeypatch):
    dom, grid, kernel, c, modes_tel, modes_vis = _setup(case)
    _, reps = _exact_inputs(monkeypatch, case)
    exact = exact_modes(kernel.terms, kernel.alpha, modes_vis)
    wants = (paired_exponential_grams(
                 modes_tel, *transformed_exponential_terms(modes_tel, c),
                 HORIZONS, dom.gamma_weights()),
             paired_exponential_grams(modes_vis, *exact, HORIZONS,
                                      dom.gamma_weights()))
    compared = {}
    for label, family_reps, want in zip(("telegraph", "viscoelastic"),
                                        reps, wants):
        for rep, G in zip(family_reps, want):
            compared.setdefault(label, []).extend(_compare_levels(rep, G))
    label, level = MUST_COMPARE[case]
    assert level in compared[label], compared


# the domains of the trace test, with the config's domain section
TRACE_CASES = {
    "interval": (DomainSpec("interval", (PI,)),
                 {"geometry": "interval", "lengths": [PI]}),
    "rectangle-two-edges": (DomainSpec("rectangle", (PI, PI),
                                       gamma_subset=("right", "top")),
                            {"geometry": "rectangle", "lengths": [PI, PI],
                             "gamma_subset": ["right", "top"]}),
}


def _formula_traces(dom, count):
    """The conormal traces (count, nodes) of the first count modes of a
    unit-coefficient interval (right end) or rectangle (right and top
    edges), one mode at a time, in the order of operations of spectral's
    analytic formulas."""
    a0 = 1.0
    if dom.geometry == "interval":
        (length,) = dom.lengths
        k, amp = np.pi / length, np.sqrt(2.0 / length)
        return np.array([[a0 * amp * n * k * (-1.0) ** n]
                         for n in range(1, count + 1)])
    lx, ly = dom.lengths
    amp = 2.0 / np.sqrt(lx * ly)
    modes = sorted(((a0 * ((mx * np.pi / lx) ** 2 + (my * np.pi / ly) ** 2),
                     mx, my) for mx in range(1, 9) for my in range(1, 9)),
                   key=lambda m: (m[0], m[1]))[:count]
    rows = []
    for _, mx, my in modes:
        right = amp * np.sin(my * np.pi * np.linspace(0.0, ly, 257) / ly)
        top = amp * np.sin(mx * np.pi * np.linspace(0.0, lx, 257) / lx)
        rows.append(np.concatenate([
            a0 * mx * np.pi / lx * (-1.0) ** mx * right,
            a0 * my * np.pi / ly * (-1.0) ** my * top]))
    return np.array(rows)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_families_and_control_traces_hold_the_computed_trace(case, tmp_path):
    # no 1/beta round trip: at alpha = -0.5 the families' traces and the
    # synthesized control's are the formula's values bit for bit (trace /
    # beta * beta missed them by one ulp in 5 of the interval's 12 values)
    dom, section = TRACE_CASES[case]
    want = _formula_traces(dom, 12)
    grid = TimeGrid(2.5 * PI, 400)
    kernel = normalize(EXP, grid)
    assert kernel.alpha == -0.5
    modes = compute_eigenpairs(dom, 12, kernel.alpha)
    assert np.array_equal(modes.trace, want)
    gw = dom.gamma_weights()
    for fam in (telegraph_family(modes, kernel.alpha, grid, gw),
                viscoelastic_family(compute_responses(kernel, modes), gw)):
        assert np.array_equal(fam.psi[::2], want), fam.label
    doc = {"experiment": "synthesize", "domain": section,
           "kernel": {"family": "exponential_sum", "coefficients": [1.0],
                      "rates": [1.0]},
           "T": 3.0 * PI, "h": 2e-3, "K": 12, "target": "random", "seed": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["synthesize", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    (csv,) = (tmp_path / "out").glob("*/control_traces.csv")
    table = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
    assert np.array_equal(table[:, 1:].T, want)
