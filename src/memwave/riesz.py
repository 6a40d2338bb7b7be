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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigvalsh

from .errors import ConfigError, InternalConsistencyError, NotControllableError
from .grid import TimeGrid, trapezoid_weights
from .spectral import EigenPair

CONDITION_CAP = 1e8


@dataclass(frozen=True)
class SequenceFamily:
    """Indexed family of Gamma-valued grid functions on [0, T]."""

    members: np.ndarray          # (count, nodes, steps+1) complex
    index_set: tuple             # signed indices aligned with members
    label: str
    grid: TimeGrid
    gamma_weights: np.ndarray = None

    def __post_init__(self):
        m = np.asarray(self.members, dtype=complex)
        if m.ndim == 2:
            m = m[:, None, :]
        if m.ndim != 3 or m.shape[2] != self.grid.steps + 1:
            raise ConfigError(f"member array shape {m.shape} does not match grid")
        if m.shape[0] != len(self.index_set):
            raise ConfigError("index_set length does not match member count")
        object.__setattr__(self, "members", m)
        gw = self.gamma_weights
        gw = np.ones(m.shape[1]) if gw is None else np.asarray(gw, dtype=float)
        if gw.shape != (m.shape[1],):
            raise ConfigError("gamma_weights shape does not match member nodes")
        object.__setattr__(self, "gamma_weights", gw)

    @property
    def count(self) -> int:
        return self.members.shape[0]

    def flat(self) -> np.ndarray:
        """Members flattened over (node, time) with quadrature weights
        pre-multiplied into a parallel weight vector."""
        return self.members.reshape(self.count, -1)

    def weight_vector(self) -> np.ndarray:
        wt = trapezoid_weights(self.grid)
        return np.outer(self.gamma_weights, wt).reshape(-1)

    def norms_sq(self) -> np.ndarray:
        A = self.flat()
        return np.real(np.sum((A * self.weight_vector()) * np.conj(A), axis=1))

    def inner_against(self, g: np.ndarray) -> np.ndarray:
        """<g, member_k> for every k (second argument conjugated)."""
        gf = np.asarray(g, dtype=complex).reshape(-1)
        return (np.conj(self.flat()) * self.weight_vector()) @ gf

    def pairing(self, g: np.ndarray) -> np.ndarray:
        """Bilinear integrals int member_k * g (no conjugation)."""
        gf = np.asarray(g, dtype=complex).reshape(-1)
        return (self.flat() * self.weight_vector()) @ gf

    def subfamily(self, positions: Sequence[int], label: str = None) -> "SequenceFamily":
        pos = list(positions)
        return SequenceFamily(self.members[pos], tuple(self.index_set[p] for p in pos),
                              label or self.label, self.grid, self.gamma_weights)

    def restrict(self, steps: int) -> "SequenceFamily":
        """The family on [0, steps*h] of the same grid.  Members are causal
        in t (marched responses, or closed forms sampled on the grid), so
        slicing is the family a fresh build on the shorter grid gives."""
        grid = self.grid.restrict(steps)
        return SequenceFamily(self.members[:, :, :steps + 1], self.index_set,
                              self.label, grid, self.gamma_weights)


@dataclass(frozen=True)
class GramReport:
    gram: np.ndarray
    frame_lower: np.ndarray      # m_k for k = 1..N
    frame_upper: np.ndarray      # M_k
    condition: np.ndarray
    label: str
    index_order: tuple

    @property
    def m_N(self) -> float:
        return float(self.frame_lower[-1])

    @property
    def M_N(self) -> float:
        return float(self.frame_upper[-1])

    @property
    def cond(self) -> float:
        return float(self.condition[-1])


def gram_matrix(family: SequenceFamily, truncation: int = None) -> np.ndarray:
    N = family.count if truncation is None else truncation
    if not (1 <= N <= family.count):
        raise ConfigError(f"truncation {N} outside [1, {family.count}]")
    A = family.flat()[:N]
    G = (A * family.weight_vector()) @ np.conj(A).T
    herm_gap = float(np.max(np.abs(G - np.conj(G).T)))
    scale = max(1.0, float(np.max(np.abs(G))))
    if herm_gap > 1e-12 * scale:
        raise InternalConsistencyError(
            f"Gram of {family.label!r} is non-Hermitian (gap {herm_gap:.3e}); "
            "quadrature inconsistency")
    return 0.5 * (G + np.conj(G).T)


def gram(family: SequenceFamily, truncation: int = None) -> GramReport:
    """Gram matrix plus frame bounds of every nested truncation level."""
    G = gram_matrix(family, truncation)
    N = G.shape[0]
    lows = np.empty(N)
    highs = np.empty(N)
    for k in range(1, N + 1):
        vals = eigvalsh(G[:k, :k])
        lows[k - 1] = vals[0]
        highs[k - 1] = vals[-1]
    # Cauchy interlacing, with a little room for eigensolver roundoff
    slack = 1e-10 * max(1.0, float(highs[-1]))
    if np.any(np.diff(lows) > slack) or np.any(np.diff(highs) < -slack):
        raise InternalConsistencyError(
            f"frame bounds of {family.label!r} violate interlacing")
    with np.errstate(divide="ignore"):
        cond = np.where(lows > 0, highs / np.maximum(lows, 1e-300), np.inf)
    return GramReport(G, lows, highs, cond, family.label,
                      tuple(family.index_set[:N]))


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
    if a.grid.steps != b.grid.steps or a.members.shape != b.members.shape:
        raise ConfigError("closeness needs identical grids and member shapes")
    D = a.flat() - b.flat()
    d2 = np.real(np.sum((D * a.weight_vector()) * np.conj(D), axis=1))
    nblocks = len(d2) // block
    blocks = [float(np.sum(d2[i * block:(i + 1) * block])) for i in range(nblocks)]
    return {
        "index_set": a.index_set,
        "dist_sq": d2,
        "block": block,
        "block_sums": blocks,
        "total": float(np.sum(d2)),
    }


def biorthogonal(family: SequenceFamily, truncation: int = None,
                 condition_cap: float = CONDITION_CAP):
    """In-span biorthogonal family via the inverse Gram.

    Raises the near-degenerate error (carrying m_N) when the Gram
    condition exceeds the cap: at that point the duals are numerically
    meaningless, which is the finite-section signature of a horizon
    below the sharp control time or of too deep a truncation.
    """
    rep = gram(family, truncation)
    N = rep.gram.shape[0]
    if not np.isfinite(rep.cond) or rep.cond > condition_cap:
        raise NotControllableError(
            f"family {family.label!r} near-degenerate at truncation {N}: "
            f"m_N={rep.m_N:.3e}, condition {rep.cond:.3e} over cap {condition_cap:.1e}",
            frame_lower=rep.m_N, condition=rep.cond)
    factor = cho_factor(rep.gram)
    Cinv = cho_solve(factor, np.eye(N, dtype=complex))
    residual = float(np.max(np.abs(Cinv @ rep.gram - np.eye(N))))
    if residual > 1e-8 * max(rep.cond, 1.0):
        raise InternalConsistencyError(
            f"biorthogonal residual {residual:.3e} above 1e-8 * condition")
    members = np.tensordot(Cinv, family.members[:N], axes=(1, 0))
    duals = SequenceFamily(members, family.index_set[:N],
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
                            betas: Optional[np.ndarray] = None,
                            condition_cap: float = CONDITION_CAP) -> dict:
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
    duals, rep, _ = biorthogonal(family, condition_cap=condition_cap)
    Phi = np.tensordot(combo, family.members, axes=(0, 0))
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
