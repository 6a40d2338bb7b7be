"""Gram-matrix certification of Riesz-sequence behavior.

The theoretical object is an infinite family; what is computable is the
finite-section story: eigenvalues of nested leading principal
submatrices of the Gram matrix.  A lower frame bound m_N that plateaus
as N grows certifies the family at that horizon, a collapse toward zero
is the signature of an undercritical horizon.  Cauchy interlacing makes
m_N nonincreasing and M_N nondecreasing, which doubles as a self-check
on the eigenvalue computation.

Inner-product convention: the second argument is conjugated.  Stated
once here, used everywhere.

Separable representation.  Every member is rank one, a boundary trace
times a time profile, m_k(x, t) = psi_k(x) Z_k(t), so a family keeps
the two factors, psi (count, nodes) and profiles (count, steps+1), and
never the dense (count, nodes, steps+1) outer products.  The weighted
inner product over the boundary cylinder splits with them:

    Gram_nk         = (sum_x w_x psi_n conj psi_k) * (sum_t w_t Z_n conj Z_k)
    int m_k g       = sum_t ((psi w_x) @ g)_kt Z_kt w_t
    sum_k a_k m_k   = (psi.T * a) @ profiles

The Gram is the entrywise (Hadamard) product of a boundary Gram and a
time Gram; a dense grid function g (nodes, steps+1) is made only where
one is needed, for the synthesized control.  One-node families (the
interval) take psi = 1.

Horizon sweeps.  The composite trapezoid rule is additive over
adjacent segments: with 0 = k_0 < k_1 < ... the rule on [0, k_i h] is
the rule on [0, k_{i-1} h] plus the rule on [k_{i-1} h, k_i h] (each
segment with half weights at its own ends).  `gram_sweep` therefore
sums the time Gram segment by segment, one pass over the grid, forms
the boundary Gram once, and takes the nested frame bounds of all
horizons in one batched eigenvalue call per truncation level; `gram`
is its one-horizon case, a single segment over the whole grid.

Exact Grams.  A family whose profiles are exponential sums
(exact.ExponentialFamily: the telegraph family, and the memory family
of a closed-form kernel) has time Grams in closed form,
T sum_{j,l} w_kj conj(w_ml) E((s_kj + conj s_ml) T) with
E(y) = expm1(y) / y, at any horizon and on no grid
(exact.exponential_gram_sweep, which `sweep-t` uses where it can).  The
boundary Gram, the checks and the reports (_checked, _reports) are the
grid route's.  On either route,
every horizon's Gram passes the finite and Hermitian checks, and its
frame bounds the interlacing check, on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, ConvergenceError, InternalConsistencyError,
                     NotControllableError)
from .grid import TimeGrid, trapezoid_weights
from .spectral import EigenPair

CONDITION_CAP = 1e8


@dataclass(frozen=True)
class SequenceFamily:
    """Indexed family of separable Gamma-valued grid functions on [0, T].

    Member k is psi[k] (x) profiles[k]; psi defaults to ones (count, 1),
    a one-node family.  gamma_weights are the boundary quadrature
    weights (ones by default).
    """

    profiles: np.ndarray         # (count, steps+1) complex time profiles
    index_set: tuple             # signed indices aligned with the rows
    label: str
    grid: TimeGrid
    gamma_weights: np.ndarray = None
    psi: np.ndarray = None       # (count, nodes) complex boundary traces

    def __post_init__(self):
        z = np.asarray(self.profiles, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self.grid.steps + 1:
            raise ConfigError(f"profile array shape {z.shape} does not match grid")
        if z.shape[0] != len(self.index_set):
            raise ConfigError("index_set length does not match member count")
        psi = (np.ones((z.shape[0], 1), dtype=complex) if self.psi is None
               else np.asarray(self.psi, dtype=complex))
        if psi.ndim != 2 or psi.shape[0] != z.shape[0]:
            raise ConfigError(f"trace array shape {psi.shape} does not match "
                              f"{z.shape[0]} members")
        gw = self.gamma_weights
        gw = np.ones(psi.shape[1]) if gw is None else np.asarray(gw, dtype=float)
        if gw.shape != (psi.shape[1],):
            raise ConfigError("gamma_weights shape does not match member nodes")
        object.__setattr__(self, "profiles", z)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "gamma_weights", gw)

    @property
    def count(self) -> int:
        return self.profiles.shape[0]

    @property
    def members(self) -> np.ndarray:
        """Dense (count, nodes, steps+1) members, built on every read.

        For inspection only: nothing in the pipeline needs them.
        """
        return self.psi[:, :, None] * self.profiles[:, None, :]

    def _dense(self, g: np.ndarray) -> np.ndarray:
        return np.asarray(g).reshape(self.psi.shape[1], self.grid.steps + 1)

    def _pair(self, g, psi, profiles) -> np.ndarray:
        wt = trapezoid_weights(self.grid)
        return (((psi * self.gamma_weights) @ self._dense(g)) * profiles) @ wt

    def norms_sq(self) -> np.ndarray:
        wt = trapezoid_weights(self.grid)
        return ((np.abs(self.psi) ** 2 @ self.gamma_weights)
                * (np.abs(self.profiles) ** 2 @ wt))

    def inner_against(self, g: np.ndarray) -> np.ndarray:
        """<g, member_k> for every k (second argument conjugated)."""
        return self._pair(g, np.conj(self.psi), np.conj(self.profiles))

    def pairing(self, g: np.ndarray) -> np.ndarray:
        """Bilinear integrals int member_k * g (no conjugation)."""
        return self._pair(g, self.psi, self.profiles)

    def combination(self, coefficients: np.ndarray,
                    conjugate: bool = False) -> np.ndarray:
        """Dense (nodes, steps+1) sum_k a_k member_k, or with conjugate
        set, sum_k a_k conj(member_k)."""
        a = np.asarray(coefficients)
        if conjugate:
            return (np.conj(self.psi).T * a) @ np.conj(self.profiles)
        return (self.psi.T * a) @ self.profiles

    def subfamily(self, positions: Sequence[int], label: str = None) -> "SequenceFamily":
        pos = list(positions)
        return SequenceFamily(self.profiles[pos], tuple(self.index_set[p] for p in pos),
                              label or self.label, self.grid, self.gamma_weights,
                              self.psi[pos])

    def restrict(self, steps: int) -> "SequenceFamily":
        """The family on [0, steps*h] of the same grid.  Profiles are causal
        in t (marched responses, or closed forms sampled on the grid), so
        slicing is the family a fresh build on the shorter grid gives."""
        grid = self.grid.restrict(steps)
        return SequenceFamily(self.profiles[:, :steps + 1], self.index_set,
                              self.label, grid, self.gamma_weights, self.psi)


@dataclass(frozen=True)
class GramReport:
    gram: np.ndarray
    frame_lower: np.ndarray      # m_k for k = 1..N
    frame_upper: np.ndarray      # M_k
    condition: np.ndarray

    @property
    def m_N(self) -> float:
        return float(self.frame_lower[-1])

    @property
    def M_N(self) -> float:
        return float(self.frame_upper[-1])

    @property
    def cond(self) -> float:
        return float(self.condition[-1])


def _truncation(family: SequenceFamily, truncation) -> int:
    N = family.count if truncation is None else truncation
    if not (1 <= N <= family.count):
        raise ConfigError(f"truncation {N} outside [1, {family.count}]")
    return N


def _checked(G: np.ndarray, label: str) -> np.ndarray:
    """G after the finite and Hermitian checks, symmetrised."""
    if not np.all(np.isfinite(G)):
        raise ConvergenceError(
            f"Gram of {label!r} is not finite (NaN or Inf entries); "
            "the members overflow")
    herm_gap = float(np.max(np.abs(G - np.conj(G).T)))
    scale = max(1.0, float(np.max(np.abs(G))))
    if herm_gap > 1e-12 * scale:
        raise InternalConsistencyError(
            f"Gram of {label!r} is non-Hermitian (gap {herm_gap:.3e}); "
            "quadrature inconsistency")
    return 0.5 * (G + np.conj(G).T)


def _grams(family: SequenceFamily, steps: Sequence[int], N: int) -> list:
    """Checked Grams of the first N members on [0, k h], k in steps.

    One pass over the grid: the trapezoid rule on [0, k_i h] is the rule
    on [0, k_{i-1} h] plus the rule on [k_{i-1} h, k_i h], so the time
    Gram of each horizon adds one segment's product to the last one's.
    """
    psi, Z = family.psi[:N], family.profiles[:N]
    boundary = (psi * family.gamma_weights) @ np.conj(psi).T
    h = family.grid.h
    grams, temporal, start = [], None, 0
    for k in steps:
        seg = Z[:, start:k + 1]
        w = np.full(k - start + 1, h)
        w[0] = w[-1] = 0.5 * h
        part = (seg * w) @ np.conj(seg).T
        temporal = part if temporal is None else temporal + part
        grams.append(_checked(boundary * temporal, family.label))
        start = k
    return grams


def cholesky_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for a Hermitian positive definite G: G = L L^H, then
    one solve against L and one against L^H."""
    L = np.linalg.cholesky(G)
    return np.linalg.solve(np.conj(L).T, np.linalg.solve(L, b))


def _reports(grams: list, label: str) -> list:
    """Frame bounds of every nested level of every checked Gram (one per
    horizon): one batched eigenvalue call per level, each horizon checked
    on its own."""
    Gs = np.stack(grams)
    N = Gs.shape[1]
    lows = np.empty((len(Gs), N))
    highs = np.empty((len(Gs), N))
    for k in range(1, N + 1):
        vals = np.linalg.eigvalsh(Gs[:, :k, :k])
        lows[:, k - 1] = vals[:, 0]
        highs[:, k - 1] = vals[:, -1]
    reports = []
    for G, lo, hi in zip(Gs, lows, highs):
        # Cauchy interlacing, with a little room for eigensolver roundoff
        slack = 1e-10 * max(1.0, float(hi[-1]))
        if np.any(np.diff(lo) > slack) or np.any(np.diff(hi) < -slack):
            raise InternalConsistencyError(
                f"frame bounds of {label!r} violate interlacing")
        cond = np.full(N, np.inf)
        pos = lo > 0
        with np.errstate(over="ignore"):   # an overflow is an infinite condition
            cond[pos] = hi[pos] / lo[pos]
        reports.append(GramReport(G, lo, hi, cond))
    return reports


def gram(family: SequenceFamily, truncation: int = None) -> GramReport:
    """Gram matrix plus frame bounds of every nested truncation level."""
    N = _truncation(family, truncation)
    return _reports(_grams(family, (family.grid.steps,), N), family.label)[0]


def gram_sweep(family: SequenceFamily, steps: Sequence[int]) -> list:
    """gram(family.restrict(k)) for every k of a strictly ascending
    sequence of step counts, from one pass over the grid."""
    steps = list(steps)
    if not (steps and 2 <= steps[0] and steps[-1] <= family.grid.steps
            and all(a < b for a, b in zip(steps, steps[1:]))):
        raise ConfigError(f"horizon step counts {steps} do not ascend "
                          f"strictly within [2, {family.grid.steps}]")
    return _reports(_grams(family, steps, family.count), family.label)


def quadratic_closeness(a: SequenceFamily, b: SequenceFamily,
                        block: int = 8) -> dict:
    """Per-index squared distances and their tail block sums.

    The block sums are the Cauchy diagnostic: summability of the
    squared distances is the quadratic-closeness hypothesis of the
    perturbation theorems, and decreasing blocks are its observable
    finite-section form.
    """
    if a.index_set != b.index_set:
        raise ConfigError("closeness needs identical index sets")
    if a.grid.steps != b.grid.steps or a.profiles.shape != b.profiles.shape:
        raise ConfigError("closeness needs identical grids and member shapes")
    if not np.array_equal(a.psi, b.psi):
        raise ConfigError("closeness needs identical boundary traces")
    # |psi_k (x) (Z_k - Z'_k)|^2 = |psi_k|^2 |Z_k - Z'_k|^2: the profile
    # difference is taken before squaring, so nothing cancels
    D = a.profiles - b.profiles
    d2 = ((np.abs(a.psi) ** 2 @ a.gamma_weights)
          * (np.real(D * np.conj(D)) @ trapezoid_weights(a.grid)))
    nblocks = len(d2) // block
    blocks = [float(np.sum(d2[i * block:(i + 1) * block])) for i in range(nblocks)]
    return {
        "index_set": a.index_set,
        "dist_sq": d2,
        "block": block,
        "block_sums": blocks,
        "total": float(np.sum(d2)),
    }


def biorthogonal(family: SequenceFamily, truncation: int = None):
    """In-span biorthogonal family via the inverse Gram.

    Raises the near-degenerate error (carrying m_N) when the Gram
    condition exceeds CONDITION_CAP: at that point the duals are numerically
    meaningless, which is the finite-section signature of a horizon
    below the sharp control time or of too deep a truncation.  The duals
    of a one-node family are one-node again, with profiles
    Cinv @ (psi * profiles); multi-node families are refused.
    """
    if family.psi.shape[1] != 1:
        raise ConfigError(
            f"biorthogonal duals need a one-node family; {family.label!r} "
            f"has {family.psi.shape[1]} boundary nodes")
    rep = gram(family, truncation)
    N = rep.gram.shape[0]
    if not np.isfinite(rep.cond) or rep.cond > CONDITION_CAP:
        raise NotControllableError(
            f"family {family.label!r} near-degenerate at truncation {N}: "
            f"m_N={rep.m_N:.3e}, condition {rep.cond:.3e} over cap {CONDITION_CAP:.1e}",
            frame_lower=rep.m_N, condition=rep.cond)
    Cinv = cholesky_solve(rep.gram, np.eye(N, dtype=complex))
    residual = float(np.max(np.abs(Cinv @ rep.gram - np.eye(N))))
    if residual > 1e-8 * max(rep.cond, 1.0):
        raise InternalConsistencyError(
            f"biorthogonal residual {residual:.3e} above 1e-8 * condition")
    profiles = Cinv @ (family.psi[:N] * family.profiles[:N])
    duals = SequenceFamily(profiles, family.index_set[:N],
                           f"{family.label}-dual", family.grid, family.gamma_weights)
    return duals, rep, residual


def sine_cosine_family(pairs: Sequence[EigenPair], T: float,
                       weights: Optional[np.ndarray] = None,
                       steps: int = None):
    """Real cosine/sine families spawned by the exponential family.

    Members k_n cos(beta_n t) and k_n sin(beta_n t) on [0, T], built
    from the conjugate-symmetric exponential extension (beta_{-n} =
    -beta_n, k_{-n} = k_n) by half-sum and half-difference.  Weights
    default to 1.
    """
    betas = []
    for p in pairs:
        if p.beta.imag != 0 or p.beta.real <= 0:
            raise ConfigError(
                "sine/cosine construction needs real positive beta "
                f"(mode {p.index} has beta={p.beta})")
        betas.append(p.beta.real)
    betas = np.array(betas)
    k = np.ones(len(betas)) if weights is None else np.asarray(weights, dtype=float)
    if k.shape != betas.shape:
        raise ConfigError("weight vector length must match pairs")
    grid = TimeGrid(T, steps if steps is not None else max(2, round(T / 1e-3)))
    t = grid.t
    cos_members = k[:, None] * np.cos(np.outer(betas, t))
    sin_members = k[:, None] * np.sin(np.outer(betas, t))
    idx = tuple(p.index for p in pairs)
    return (SequenceFamily(cos_members, idx, "cosine", grid),
            SequenceFamily(sin_members, idx, "sine", grid))


def coefficient_decay_check(family: SequenceFamily, combo: np.ndarray,
                            betas: Optional[np.ndarray] = None) -> dict:
    """Recover a combination's coefficients and fit their decay.

    Synthesizes Phi = sum combo_n member_n, recovers the coefficients
    against the biorthogonal family, and fits log |coef| against
    log beta over the nonzero entries.  An H1-regular combination shows
    an exponent at or below -1; refuses to run when the family is not
    certified (recovery through a near-singular Gram is meaningless).
    """
    combo = np.asarray(combo, dtype=complex)
    if combo.shape != (family.count,):
        raise ConfigError("combo length must match family size")
    duals, rep, _ = biorthogonal(family)
    Phi = family.combination(combo)
    recovered = duals.inner_against(Phi)
    err = float(np.max(np.abs(recovered - combo)))
    if betas is None:
        betas = np.array([abs(i) for i in family.index_set], dtype=float)
    nz = np.abs(recovered) > 1e-13
    exponent = None
    if int(np.sum(nz)) >= 3:
        exponent = float(np.polyfit(np.log(betas[nz]),
                                    np.log(np.abs(recovered[nz])), 1)[0])
    return {
        "recovered": recovered,
        "recovery_error": err,
        "exponent": exponent,
        "condition": rep.cond,
    }


def paley_wiener_check(family: SequenceFamily, comparator: SequenceFamily,
                       start: int) -> dict:
    """Quantitative perturbation bound on the tail families.

    If the comparator tail (members from `start` on) has lower frame
    bound m and the cumulative squared distance to the family tail is
    rho < m, then the family tail's lower bound is at least
    (sqrt(m) - sqrt(rho))^2.  Returns the measured quantities and
    whether the hypothesis held; when it holds, the implication is
    asserted against the directly computed bound.
    """
    pos = list(range(start, family.count))
    fam_t = family.subfamily(pos)
    comp_t = comparator.subfamily(pos)
    rho = quadratic_closeness(fam_t, comp_t)["total"]
    m_comp = gram(comp_t).m_N
    result = {"start": start, "rho": rho, "m_comparator": m_comp,
              "hypothesis": rho < m_comp}
    if result["hypothesis"]:
        predicted = (np.sqrt(m_comp) - np.sqrt(rho)) ** 2
        measured = gram(fam_t).m_N
        result["predicted_lower"] = float(predicted)
        result["measured_lower"] = float(measured)
        if measured < predicted * (1.0 - 1e-8):
            raise InternalConsistencyError(
                f"perturbation bound violated: measured m {measured:.3e} "
                f"below predicted {predicted:.3e}")
    return result
