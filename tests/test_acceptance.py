"""End-to-end acceptance battery.

Each test prints one ``criterion N PASS/FAIL`` line carrying the measured
numbers (visible under ``pytest -s``) and asserts the same condition, so
the suite doubles as a checklist.  Everything runs on the interval(pi)
domain with the control boundary at the right endpoint, step 1e-3, modes
up to 40; the memory kernel is exp(-t) unless a criterion says otherwise.

One master response set is computed once at T = 3*pi and restricted
exactly to shorter horizons: the marches and convolutions are causal, so
restriction is slicing, not recomputation, and every number below matches
a fresh run on the shorter grid.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from memwave import (DomainSpec, KernelSpec, NotControllableError,
                     SequenceFamily, TargetState, TimeGrid,
                     achieved_coefficients, asymptotic_residual,
                     build_moment_problem, compute_eigenpairs,
                     compute_responses, gram, make_grid, march_modal,
                     normalize, simulate_convolution, sturm_liouville_eigs,
                     synthesize, telegraph_family, trapezoid_weights,
                     viscoelastic_family)
from memwave.cli import main
from memwave.exact import s_frame_rows
from memwave.riesz import CONDITION_CAP
from memwave.volterra import _forcing_factors

from family_reference import Z_of, combination, inner_against

PI = np.pi
DOM = DomainSpec("interval", (PI,))


def _report(num, desc, ok):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _logfit(n, y):
    A = np.vstack([np.log(n), np.ones(len(n))]).T
    return float(np.linalg.lstsq(A, np.log(y), rcond=None)[0][0])


@pytest.fixture(scope="module")
def master():
    grid = make_grid(3 * PI, 1e-3)
    ker = normalize(KernelSpec("exponential_sum", coefficients=(1.0,),
                               rates=(1.0,)), grid)
    modes = compute_eigenpairs(DOM, 40, alpha=ker.alpha)
    resp = compute_responses(ker, modes)

    def restrict(T):
        steps = round(T / grid.h)
        return ker.restrict(steps), resp.restrict(steps)

    return SimpleNamespace(grid=grid, ker=ker, modes=modes, resp=resp,
                           restrict=restrict)


def test_criterion_1_spectrum():
    modes = compute_eigenpairs(DOM, 40, alpha=0.0)
    exact = bool(np.all(modes.lambda_sq == modes.index ** 2.0))

    # finite-difference path on the same operator; nx=6000 holds all 40
    # modes below 1e-6 (measured 2.15e-7; nx=4000 leaves mode 40 at 1.1e-6)
    dom_var = DomainSpec("interval", (PI,), a=lambda x: 1.0 + 0 * x,
                         q=lambda x: 0.0 * x)
    lam = compute_eigenpairs(dom_var, 40, 0.0, nx=6000).lambda_sq
    fd_err = float(np.max(np.abs(lam - np.arange(1, 41.0) ** 2)))

    # Weyl counting in d=2: lambda_(n) grows like n^(2/d) = n
    rect = compute_eigenpairs(DomainSpec("rectangle", (PI, PI)), 60, 0.0)
    lam2 = rect.lambda_sq
    slope = _logfit(np.arange(10, 61.0), lam2[9:])
    _report(1, f"spectrum: interval exact={exact}, fd err {fd_err:.2e}, "
               f"rectangle growth slope {slope:.3f}",
            exact and fd_err < 1e-6 and abs(slope - 1.0) < 0.1)


def test_criterion_2_memoryless_oracle():
    def damped(ker, lam, c):
        beta = np.sqrt(lam - c * c)
        return np.exp(c * ker.t) * (np.cos(beta * ker.t)
                                    + (c / beta) * np.sin(beta * ker.t))

    worst = 0.0
    ker0 = normalize(KernelSpec("zero"), make_grid(PI, 1e-3))
    for lam in (1.0, 4.0, 9.0):
        worst = max(worst, float(np.max(np.abs(
            march_modal(ker0, lam, ker0.alpha)
            - np.cos(np.sqrt(lam) * ker0.t)))))
    kerc = normalize(KernelSpec("zero", c=0.5), make_grid(2.0, 1e-3))
    for lam in (1.0, 4.0):
        worst = max(worst, float(np.max(np.abs(
            march_modal(kerc, lam, kerc.alpha)
            - damped(kerc, lam, 0.5)))))

    errs = []
    for h in (2e-3, 1e-3):
        kh = normalize(KernelSpec("zero", c=0.5), make_grid(2.0, h))
        errs.append(float(np.max(np.abs(march_modal(kh, 4.0, kh.alpha)
                                        - damped(kh, 4.0, 0.5)))))
    order = float(np.log2(errs[0] / errs[1]))
    _report(2, f"memoryless closed forms: max err {worst:.2e}, "
               f"halving order {order:.3f}",
            worst <= 1e-5 and order >= 1.9)


def test_criterion_3_two_route_consistency():
    gaps = {}
    for c in (0.0, 0.5):
        grid = make_grid(PI, 1e-3)
        ker = normalize(KernelSpec("exponential_sum", c=c,
                                   coefficients=(1.0,), rates=(1.0,)), grid)
        dom = DomainSpec("interval", (PI,), c=c)
        modes = compute_eigenpairs(dom, 40, alpha=ker.alpha)
        # the marched route against the assembled one, every mode at
        # once: z + Y' + i beta Y from one march with the rows (N', N)
        Y = march_modal(ker, modes.lambda_sq, ker.alpha,
                        forcing=np.stack([ker.Np, ker.N]))
        Zm = Y[:, 0] + Y[:, 1] + _forcing_factors(modes)[:, None] * Y[:, 2]
        Zv = Z_of(compute_responses(ker, modes))
        gaps[c] = float(np.max(np.abs(Zv - Zm)))
    _report(3, f"route gap over 40 modes: c=0 {gaps[0.0]:.2e}, "
               f"c=0.5 {gaps[0.5]:.2e}",
            max(gaps.values()) < 1e-5)


def _s_rows(kernel, modes):
    return s_frame_rows(kernel.terms, kernel.alpha, modes, kernel.t)


def test_criterion_4_residual_slope(master):
    ker_pi, _ = master.restrict(PI)
    usable = master.modes.take(slice(4, None))
    fit = asymptotic_residual(usable, _s_rows(ker_pi, usable), ker_pi.h)
    slope = fit["slope"]
    _report(4, f"high-mode residual slope {slope:.4f} (want -1.0 +/- 0.15)",
            abs(slope + 1.0) <= 0.15)


def test_criterion_5_quadratic_closeness(master):
    # the memory family in the S frame, the real rows sqrt2 U / beta and
    # sqrt2 V of exp(-alpha t) Z = exp(-alpha t) (U + i beta V), against
    # the telegraph rows with damping alpha, whose U + i beta V is
    # exp(i beta t) + (alpha / beta) sin(beta t): a member's squared
    # distance is |psi|^2 times the squared distance of its profiles
    ker_pi, _ = master.restrict(PI)
    modes = master.modes
    tel = telegraph_family(modes, ker_pi.alpha, ker_pi.grid)
    S = _s_rows(ker_pi, modes) * (np.sqrt(2.0) / modes.beta[:, None])
    rows = np.stack([S.real, S.imag], axis=1).reshape(tel.profiles.shape)
    d2 = ((tel.psi ** 2 @ tel.gamma_weights)
          * ((rows - tel.profiles) ** 2 @ trapezoid_weights(ker_pi.grid)))
    dist = np.sqrt(d2[::2] + d2[1::2])
    ns = np.arange(1, 41.0)
    slope = _logfit(ns[ns >= 5], dist[ns >= 5])
    blocks = d2.reshape(-1, 16).sum(axis=1)
    decreasing = bool(np.all(np.diff(blocks) < 0))
    _report(5, f"per-index distance slope {slope:.4f} "
               f"(want -1.0 +/- 0.15), blocks of 16 "
               f"{np.array2string(blocks, precision=3)} "
               f"decreasing={decreasing}",
            abs(slope + 1.0) <= 0.15 and decreasing)


def test_criterion_6_plateau_collapse(master):
    h = master.grid.h
    modes40 = master.modes
    ratios = {}
    for T in (2.5 * PI, 1.2 * PI):
        steps = round(T / h)
        rep_t = gram(telegraph_family(modes40, 0.0, TimeGrid(steps * h,
                                                             steps)))
        _, resp_T = master.restrict(T)
        rep_v = gram(viscoelastic_family(resp_T))
        # 40 signed modes -> 80 members, the last level; the first 10
        # modes, level 20, sit at position 19: every level to 32 is kept
        assert rep_t.levels[19] == 20 and rep_t.levels[-1] == 80
        ratios[T] = (rep_t.frame_lower[-1] / rep_t.frame_lower[19],
                     rep_v.frame_lower[-1] / rep_v.frame_lower[19])
    (rt25, rv25), (rt12, rv12) = ratios[2.5 * PI], ratios[1.2 * PI]
    # collapsed bounds are numerically zero and may round slightly
    # negative; the dichotomy test is one-sided on purpose
    dichotomy = (rt25 >= 0.5 and rv25 >= 0.5 and rt12 <= 0.1 and rv12 <= 0.1)

    horizons = PI * np.arange(4, 13) / 4
    modes5 = compute_eigenpairs(DOM, 5, 0.0)
    mt, mv = [], []
    for T in horizons:
        steps = round(T / h)
        mt.append(gram(telegraph_family(modes5, 0.0,
                                        TimeGrid(steps * h, steps))).m_N)
        _, rT = master.restrict(T)
        mv.append(gram(viscoelastic_family(rT.head(5))).m_N)
    mt, mv = np.array(mt), np.array(mv)
    diffs = []
    for thr in (1e-3, 1e-2, 1e-1):
        ct = int(np.argmax(mt / mt[-1] > thr))
        cv = int(np.argmax(mv / mv[-1] > thr))
        diffs.append(abs(ct - cv))
    _report(6, f"m40/m10 at 2.5pi tel {rt25:.3f} vis {rv25:.3f}, "
               f"at 1.2pi tel {rt12:.4f} vis {rv12:.4f}; "
               f"threshold-crossing step gaps {diffs}",
            dichotomy and max(diffs) <= 1)


def test_criterion_7_round_trip(master):
    ker_s, resp_s = master.restrict(2.5 * PI)
    head = resp_s.head(12)
    fam12 = viscoelastic_family(head)
    rng = np.random.default_rng(42)
    sc = 1 / np.arange(1, 13.0)
    targets = {
        "e1": TargetState(np.eye(12)[0], np.zeros(12), 12),
        "random": TargetState(rng.standard_normal(12) * sc,
                              rng.standard_normal(12) * sc, 12),
    }
    rows, ok = [], True
    for label, tgt in targets.items():
        sig = synthesize(build_moment_problem(fam12, tgt))
        xi, eta = achieved_coefficients(
            simulate_convolution(resp_s, ker_s, sig))
        rel = (np.linalg.norm(np.r_[xi[:12] - tgt.xi, eta[:12] - tgt.eta])
               / np.linalg.norm(np.r_[tgt.xi, tgt.eta]))
        ok = ok and (rel <= 1e-3
                     and sig.residual_max <= 1e-8 * sig.condition)
        rows.append(f"{label}: rel {rel:.2e} "
                    f"res {sig.residual_max:.2e}/cap {1e-8 * sig.condition:.1e}")
    _report(7, "round trip at 2.5pi " + "; ".join(rows), ok)


def test_criterion_8_fails_closed(master, tmp_path, capsys):
    _, resp_f = master.restrict(0.5 * PI)
    head = resp_f.head(12)
    fam = viscoelastic_family(head)
    tgt = TargetState(np.eye(12)[0], np.zeros(12), 12)
    caught = None
    try:
        synthesize(build_moment_problem(fam, tgt))
    except NotControllableError as e:
        caught = e
    reported = (caught is not None and caught.frame_lower < 1e-6
                and "m_N" in str(caught))

    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({
        "experiment": "synthesize", "T": 0.5 * PI, "K": 4, "K_sim": 4,
        "target": "random",
        "domain": {"geometry": "interval", "lengths": [PI]},
        "kernel": {"family": "exponential_sum",
                   "coefficients": [1.0], "rates": [1.0]}}))
    rc = main(["synthesize", "--config", str(cfg),
               "--out", str(tmp_path / "store"), "--grid-h", "5e-3"])
    err = capsys.readouterr().err
    _report(8, f"short horizon: raised={caught is not None} "
               f"m_N {getattr(caught, 'frame_lower', None)} "
               f"cli rc {rc}",
            reported and rc == 4 and "m_N" in err)


def test_criterion_9_cosine_bound():
    # {cos(beta_n t)} on [0, pi], beta_n of the interval's first 40 modes
    betas = compute_eigenpairs(DOM, 40, alpha=0.0).beta.real
    cgrid = TimeGrid(PI, round(PI / 1e-3))
    cos_fam = SequenceFamily(np.cos(np.outer(betas, cgrid.t)),
                             tuple(range(1, 41)), "cosine", cgrid)
    m_cos = gram(cos_fam).m_N

    # the exponentials exp(+-i k t) over [0, 2 pi] are sqrt2 times a
    # unitary map of the real rows cos(k t), sin(k t)
    grid = TimeGrid(2 * PI, 6000)
    idx = tuple(n for k in range(1, 41) for n in (k, -k))
    kt = np.outer(np.arange(1, 41), grid.t)
    members = np.stack([np.cos(kt), np.sin(kt)], axis=1).reshape(80, -1)
    m_exp = 2.0 * gram(SequenceFamily(members, idx, "exp", grid)).m_N
    _report(9, f"cosine lower bound {m_cos:.12f} vs pi/2 "
               f"(diff {abs(m_cos - PI / 2):.1e}), "
               f"ratio to exponential bound {m_cos / m_exp:.4f}",
            abs(m_cos - PI / 2) <= 1e-6 and m_cos >= m_exp / 8)


def test_criterion_10_decay_separation():
    modes = compute_eigenpairs(DOM, 40, 0.0)
    fam = telegraph_family(modes, 0.0, make_grid(2.5 * PI, 1e-3))
    rng = np.random.default_rng(5)
    phases = np.exp(2j * PI * rng.random(40))

    def signed_combo(expo):
        a_pos = np.arange(1, 41.0) ** expo * phases
        combo = np.empty(80, dtype=complex)
        combo[0::2] = a_pos
        combo[1::2] = np.conj(a_pos)
        return combo

    rep = gram(fam)
    assert rep.cond <= CONDITION_CAP
    n = np.abs(np.array(fam.index_set, dtype=float))

    def exponent(combo):
        # the coefficients read back through the certified Gram (its
        # moments against the members are G^T combo), then log |a_n|
        # fitted against log |n| over the signed indices
        a = np.linalg.solve(rep.gram.T,
                            inner_against(fam, combination(fam, combo)))
        return float(np.polyfit(np.log(n), np.log(np.abs(a)), 1)[0])

    smooth = exponent(signed_combo(-1.5))
    rough = exponent(signed_combo(-0.1))
    _report(10, f"decay exponents: smooth {smooth:.3f} (want <= -0.8), "
                f"rough {rough:.3f} (want > -0.5)",
            smooth <= -0.8 and rough > -0.5)
