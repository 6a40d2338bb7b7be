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

One report path.  gram_reports turns the traces, their boundary
quadrature weights and a stack of time Grams, one per horizon, into
reports: it forms the boundary Gram once, takes its entrywise product
with each time Gram, and every horizon's Gram passes the finite and
Hermitian checks, and its nested frame bounds the interlacing check, on
its own.  Both routes of `sweep-t` feed it:

- the grid route (`gram_sweep`; `gram` is its one-horizon case, a
  single segment over the whole grid).  The composite trapezoid rule is
  additive over adjacent segments: with 0 = k_0 < k_1 < ... the rule on
  [0, k_i h] is the rule on [0, k_{i-1} h] plus the rule on
  [k_{i-1} h, k_i h] (each segment with half weights at its own ends),
  so the time Grams of all horizons come from one pass over the grid;
- the exact route (exact.exact_sweep).  Exponential-sum profiles have
  time Grams in closed form,
  T sum_{j,l} w_kj conj(w_ml) E((s_kj + conj s_ml) T) with
  E(y) = expm1(y) / y, at any horizon and on no grid.

The nested frame bounds of all horizons take one batched eigenvalue
call per truncation level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, InternalConsistencyError
from .grid import TimeGrid, trapezoid_weights

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


def cholesky_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for a Hermitian positive definite G: G = L L^H, then
    one solve against L and one against L^H."""
    L = np.linalg.cholesky(G)
    return np.linalg.solve(np.conj(L).T, np.linalg.solve(L, b))


def gram_reports(psi: np.ndarray, gamma_weights: np.ndarray,
                 temporal, label: str) -> list:
    """One report per time Gram of temporal (one per horizon): the Gram
    is the boundary Gram of the traces psi (count, nodes) under the
    quadrature gamma_weights times the time Gram, entrywise.  Every
    horizon's Gram passes the finite and Hermitian checks, and its frame
    bounds, one batched eigenvalue call per nested level, the
    interlacing check, on its own."""
    boundary = (psi * gamma_weights) @ np.conj(psi).T
    Gs = np.stack([_checked(boundary * t, label) for t in temporal])
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


def _trapezoid_time_grams(profiles: np.ndarray, h: float,
                          steps: Sequence[int]) -> list:
    """sum_t w_t Z_n conj Z_k on [0, k h] for every k of steps, from one
    pass over the grid: the trapezoid rule on [0, k_i h] is the rule on
    [0, k_{i-1} h] plus the rule on [k_{i-1} h, k_i h], so the time Gram
    of each horizon adds one segment's product to the last one's."""
    temporal, start = [], 0
    for k in steps:
        seg = profiles[:, start:k + 1]
        w = np.full(k - start + 1, h)
        w[0] = w[-1] = 0.5 * h
        part = (seg * w) @ np.conj(seg).T
        temporal.append(temporal[-1] + part if temporal else part)
        start = k
    return temporal


def gram_sweep(family: SequenceFamily, steps: Sequence[int]) -> list:
    """gram(family.restrict(k)) for every k of steps, which must ascend
    strictly from 2 to at most the grid's step count, from one pass over
    the grid (cli._sweep_grid checks a sweep's steps before either route
    runs)."""
    return gram_reports(family.psi, family.gamma_weights,
                        _trapezoid_time_grams(family.profiles,
                                              family.grid.h, steps),
                        family.label)


def gram(family: SequenceFamily) -> GramReport:
    """Gram matrix plus frame bounds of every nested truncation level."""
    return gram_sweep(family, (family.grid.steps,))[0]


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
