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
never the dense (count, nodes, steps+1) outer products.  psi is the
real, unscaled trace, the conormal derivative of a real eigenfunction;
any complex scale of a member (1/beta, and its conjugate at -n: see
control._members) lives in its time profile.  The weighted inner
product over the boundary cylinder splits with the factors:

    Gram_nk         = (sum_x w_x psi_n psi_k) * (sum_t w_t Z_n conj Z_k)
    int m_k g       = sum_t ((psi w_x) @ g)_kt Z_kt w_t
    sum_k a_k m_k   = (psi.T * a) @ profiles

The Gram is the entrywise (Hadamard) product of a boundary Gram and a
time Gram; a dense grid function g (nodes, steps+1) is made only where
one is needed, for the synthesized control.  One-node families (the
interval) take psi = 1.

One report pass per sweep.  gram_reports takes every family of a sweep
at once, each as its traces and a stack of time Grams, one per horizon:
it forms each family's boundary Gram once, fills one stack with its
entrywise products with the time Grams, runs the finite and Hermitian
checks on each family's part of the stack, batched over its horizons,
and takes the nested frame bounds of every Gram with one batched
eigenvalue call per truncation level.  A lower bound below its level's
rounding floor k eps M_k is reported as 0 and flagged (at_floor), after
the interlacing check has read the computed value; one below -k eps M_k
stops the pass (the Gram is indefinite).  Each
Gram's figures are bit for bit those of a pass over it alone, and the
first Gram to fail a check, in family order and then horizon order,
stops the pass with that Gram's error.  Both routes of `sweep-t` feed
it:

- the grid route (`gram_sweep`; `gram` is its one-family, one-horizon
  case, a single segment over the whole grid).  The composite
  trapezoid rule is additive over adjacent segments: with
  0 = k_0 < k_1 < ... the rule on [0, k_i h] is the rule on
  [0, k_{i-1} h] plus the rule on [k_{i-1} h, k_i h] (each segment with
  half weights at its own ends), so the time Grams of all horizons come
  from one pass over the grid;
- the exact route (exact.exact_sweep).  Exponential-sum profiles have
  time Grams in closed form,
  T sum_{j,l} w_kj conj(w_ml) E((s_kj + conj s_ml) T) with
  E(y) = expm1(y) / y, at any horizon and on no grid.

The level set.  A report of n members holds the frame bounds of every
level up to ALL_LEVELS = 32, then of k -> ceil(1.25 k), and of n
(nested_levels), so the eigenvalue work per Gram is O(n^3), not the
O(n^4) of every level.  Interlacing holds along any nested subsequence
of levels, so the check keeps its meaning (Parlett, The Symmetric
Eigenvalue Problem, 1980, on the interlacing of nested principal
submatrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, InternalConsistencyError
from .grid import TimeGrid, trapezoid_weights

CONDITION_CAP = 1e8
# a report holds the frame bounds of every truncation level up to this
# many members, and of a geometric subsequence of levels above it
ALL_LEVELS = 32


@dataclass(frozen=True)
class SequenceFamily:
    """Indexed family of separable Gamma-valued grid functions on [0, T].

    Member k is psi[k] (x) profiles[k], psi the real trace; psi
    defaults to ones (count, 1), a one-node family, and a complex psi is
    a config error.  gamma_weights are the boundary quadrature weights
    (ones by default).
    """

    profiles: np.ndarray         # (count, steps+1) complex time profiles
    index_set: tuple             # signed indices aligned with the rows
    label: str
    grid: TimeGrid
    gamma_weights: np.ndarray = None
    psi: np.ndarray = None       # (count, nodes) real boundary traces

    def __post_init__(self):
        z = np.asarray(self.profiles, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self.grid.steps + 1:
            raise ConfigError(f"profile array shape {z.shape} does not match grid")
        if z.shape[0] != len(self.index_set):
            raise ConfigError("index_set length does not match member count")
        if np.iscomplexobj(self.psi):
            raise ConfigError("boundary traces must be real; a complex "
                              "scale belongs in the time profile")
        psi = (np.ones((z.shape[0], 1)) if self.psi is None
               else np.asarray(self.psi, dtype=float))
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
    frame_lower: np.ndarray      # m_k for every k of levels, 0 at the floor
    frame_upper: np.ndarray      # M_k
    condition: np.ndarray
    at_floor: np.ndarray         # m_k computed within k eps M_k of 0
    levels: tuple                # truncation levels k, ascending to N

    @property
    def m_N(self) -> float:
        return float(self.frame_lower[-1])

    @property
    def M_N(self) -> float:
        return float(self.frame_upper[-1])

    @property
    def cond(self) -> float:
        return float(self.condition[-1])


def nested_levels(n: int) -> tuple:
    """The truncation levels a report of n members holds: every level up
    to ALL_LEVELS, then k -> ceil(1.25 k), and always n."""
    levels = list(range(1, min(n, ALL_LEVELS) + 1))
    while levels[-1] < n:
        levels.append(min(n, -(-5 * levels[-1] // 4)))
    return tuple(levels)


def _check(Gs: np.ndarray, label: str) -> None:
    """Run the finite and Hermitian checks on every Gram of the stack Gs
    of the family label, then symmetrise the stack in place.  The first
    Gram to fail, in stack order, raises.

    Each Gram's figures are those of the Gram alone: conj(G).T is written
    out, so the gap and the symmetrised Gram take the same elementwise
    operations on the same operands as they would one Gram at a time.
    """
    finite = np.all(np.isfinite(Gs), axis=(1, 2))
    # conj(G).T as a copy, then conjugated in place: a ufunc reading the
    # transposed view would buffer a second stack
    flip = Gs.transpose(0, 2, 1).copy()
    np.conjugate(flip, out=flip)
    with np.errstate(invalid="ignore"):     # Inf - Inf where not finite
        np.subtract(Gs, flip, out=flip)
        size = np.abs(flip)
        herm_gap = np.max(size, axis=(1, 2))
        np.abs(Gs, out=size)
        scale = np.maximum(1.0, np.max(size, axis=(1, 2)))
    bad = ~finite | (herm_gap > 1e-12 * scale)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not finite[i]:
            raise ConvergenceError(
                f"Gram of {label!r} is not finite (NaN or Inf entries); "
                "the members overflow")
        raise InternalConsistencyError(
            f"Gram of {label!r} is non-Hermitian (gap {herm_gap[i]:.3e}); "
            "quadrature inconsistency")
    flip[...] = Gs.transpose(0, 2, 1)
    np.conjugate(flip, out=flip)
    np.add(Gs, flip, out=flip)
    np.multiply(0.5, flip, out=Gs)


def cholesky_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for a Hermitian positive definite G: G = L L^H, then
    one solve against L and one against L^H."""
    L = np.linalg.cholesky(G)
    return np.linalg.solve(np.conj(L).T, np.linalg.solve(L, b))


def gram_reports(families: Sequence[tuple],
                 gamma_weights: np.ndarray) -> list:
    """One list of reports per family, one report per horizon.

    families holds, for each family, (psi, temporal, label): its traces
    psi (count, nodes), real in every family the pipeline builds, and its
    time Grams temporal (H, count, count), one per horizon; every family
    has the same count and H.  A family's Gram at a horizon is its
    boundary Gram under the quadrature gamma_weights times the time
    Gram, entrywise.  All of them fill one
    (families * H, count, count) stack; each family's part passes the
    finite and Hermitian checks (_check) as it is filled, which keeps
    their temporaries to one family's Grams, and the whole stack takes
    one eigenvalue call per level of nested_levels(count).  Every Gram's
    frame bounds then pass the interlacing check on their own.
    """
    n, H = families[0][0].shape[0], len(families[0][1])
    Gs = np.empty((len(families) * H, n, n), dtype=complex)
    for f, (psi, temporal, label) in enumerate(families):
        if psi.shape[0] != n or len(temporal) != H:
            raise ConfigError(f"family {label!r} has {psi.shape[0]} members "
                              f"and {len(temporal)} horizons, not {n} and {H}")
        # complex once: a real boundary would be cast again in every
        # product below
        boundary = ((psi * gamma_weights) @ np.conj(psi).T).astype(complex)
        G = Gs[f * H:(f + 1) * H]
        # one product per horizon: a broadcast one would buffer a stack
        for i, t in enumerate(temporal):
            np.multiply(boundary, t, out=G[i])
        _check(G, label)
    levels = nested_levels(n)
    lows = np.empty((len(Gs), len(levels)))
    highs = np.empty((len(Gs), len(levels)))
    for j, k in enumerate(levels):
        vals = np.linalg.eigvalsh(Gs[:, :k, :k])
        lows[:, j] = vals[:, 0]
        highs[:, j] = vals[:, -1]
    # Cauchy interlacing along the levels, with a little room for
    # eigensolver roundoff
    slack = 1e-10 * np.maximum(1.0, highs[:, -1:])
    broken = (np.any(np.diff(lows) > slack, axis=1)
              | np.any(np.diff(highs) < -slack, axis=1))
    if np.any(broken):
        label = families[int(np.argmax(broken)) // H][2]
        raise InternalConsistencyError(
            f"frame bounds of {label!r} violate interlacing")
    # within k eps M_k of 0, m_k is rounding (a singular Gram's can come
    # out at -1e-16 M_k); below -k eps M_k, the Gram is indefinite
    floor = np.array(levels) * np.finfo(float).eps * highs
    if np.any(lows < -floor):
        g = int(np.argmax(np.any(lows < -floor, axis=1)))
        raise InternalConsistencyError(
            f"Gram of {families[g // H][2]!r} is not positive semidefinite "
            f"(lower frame bound {np.min(lows[g]):.3e})")
    at_floor = lows < floor
    lows[at_floor] = 0.0
    cond = np.full(lows.shape, np.inf)
    pos = lows > 0
    with np.errstate(over="ignore"):   # an overflow is an infinite condition
        cond[pos] = highs[pos] / lows[pos]
    reports = [GramReport(*parts, levels)
               for parts in zip(Gs, lows, highs, cond, at_floor)]
    return [reports[f * H:(f + 1) * H] for f in range(len(families))]


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


def gram_sweep(families: Sequence[SequenceFamily],
               steps: Sequence[int]) -> list:
    """[gram(f.restrict(k)) for k in steps] for every family f, from one
    pass over each family's grid and one report pass over all of them.
    steps must ascend strictly from 2 to at most every grid's step count
    (cli._sweep_grid checks a sweep's steps before either route runs),
    and the families share their count and gamma_weights."""
    gw = families[0].gamma_weights
    if any(not np.array_equal(f.gamma_weights, gw) for f in families):
        raise ConfigError("families of one sweep need the same gamma_weights")
    return gram_reports([(f.psi, _trapezoid_time_grams(f.profiles, f.grid.h,
                                                       steps), f.label)
                         for f in families], gw)


def gram(family: SequenceFamily) -> GramReport:
    """Gram matrix plus frame bounds at the nested truncation levels."""
    return gram_sweep([family], (family.grid.steps,))[0][0]


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
    # |psi_k (x) (Z_k - Z'_k)|^2 = psi_k^2 |Z_k - Z'_k|^2: the profile
    # difference is taken before squaring, so nothing cancels
    D = a.profiles - b.profiles
    d2 = ((a.psi ** 2 @ a.gamma_weights)
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
