"""Gram-matrix certification of Riesz-sequence behavior.

The theoretical object is an infinite family; what is computable is the
finite-section story: eigenvalues of nested leading principal
submatrices of the Gram matrix.  A lower frame bound m_N that plateaus
as N grows certifies the family at that horizon, a collapse toward zero
is the signature of an undercritical horizon.  Cauchy interlacing makes
m_N nonincreasing and M_N nondecreasing, which doubles as a self-check
on the eigenvalue computation.

Real families.  Every member is rank one and real, a boundary trace
times a time profile, m_k(x, t) = psi_k(x) P_k(t), so a family keeps
the two real factors, psi (count, nodes) and profiles (count, steps+1),
and never the dense (count, nodes, steps+1) outer products.  psi is the
unscaled trace, the conormal derivative of a real eigenfunction; the
scale of a member lives in its time profile (control._members makes
the rows U_n and V_n of each mode).  A complex trace or profile is a
config error.  The weighted inner product over the boundary cylinder
splits with the factors:

    Gram_nk         = (sum_x w_x psi_n psi_k) * (sum_t w_t P_n P_k)
    int m_k g       = sum_t ((psi w_x) @ g)_kt P_kt w_t
    sum_k a_k m_k   = (psi.T * a) @ profiles

so every Gram is real symmetric, and its eigenvalues come from a real
eigvalsh.

The Gram is the entrywise (Hadamard) product of a boundary Gram and a
time Gram; a dense grid function g (nodes, steps+1) is made only where
one is needed, for the synthesized control.  One-node families (the
interval) take psi = 1.

One report pass per sweep.  gram_reports takes every family of a sweep
at once, each as its traces and a stack of time Grams, one per horizon:
it forms each family's boundary Gram once, fills one stack with its
entrywise products with the time Grams, runs the finite and symmetry
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
  E(y) = expm1(y) / y, at any horizon and on no grid; the profiles are
  real, so exact takes the real part of each Gram once its imaginary
  part is checked to be rounding.

The level set.  A report of n members holds the frame bounds of every
level up to ALL_LEVELS = 32, then of k -> ceil(1.25 k), and of n
(nested_levels), so the eigenvalue work per Gram is O(n^3), not the
O(n^4) of every level.  Interlacing holds along any nested subsequence
of levels, so the check keeps its meaning (Parlett, The Symmetric
Eigenvalue Problem, 1980, on the interlacing of nested principal
submatrices).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, InternalConsistencyError
from .grid import TimeGrid

CONDITION_CAP = 1e8
# OpenBLAS (0.3, as numpy's wheels ship it) runs a real matrix product of
# fewer multiply-adds than this on the calling thread; a larger one wakes
# its worker pool, whose threads then spin on the other cores after the
# call returns
CALLING_THREAD_MACS = 2**19
# a report holds the frame bounds of every truncation level up to this
# many members, and of a geometric subsequence of levels above it
ALL_LEVELS = 32


def node_blocks(nodes: int, row_macs: int) -> list:
    """Slices of consecutive node rows that cover range(nodes): as many
    rows each (at least one) as keep a product of row_macs multiply-adds
    per row under CALLING_THREAD_MACS."""
    rows = max(1, (CALLING_THREAD_MACS - 1) // row_macs)
    return [slice(s, min(s + rows, nodes)) for s in range(0, nodes, rows)]


def _blocked(X, Y) -> np.ndarray:
    """X @ Y summed over chunks of the inner axis, each chunk's product
    under CALLING_THREAD_MACS (node_blocks)."""
    return sum(X[:, c] @ Y[c]
               for c in node_blocks(len(Y), len(X) * Y.shape[1]))


class _SequenceFamilyFields(NamedTuple):
    profiles: np.ndarray         # (count, steps+1) real time profiles
    index_set: tuple             # signed indices aligned with the rows
    label: str
    grid: TimeGrid
    gamma_weights: np.ndarray    # (nodes,)
    psi: np.ndarray              # (count, nodes) real boundary traces


class SequenceFamily(_SequenceFamilyFields):
    """Indexed family of separable Gamma-valued grid functions on [0, T].

    Member k is psi[k] (x) profiles[k], both real; psi defaults to ones
    (count, 1), a one-node family, and a complex psi or profile is a
    config error.  gamma_weights are the boundary quadrature weights
    (ones by default).
    """

    __slots__ = ()

    def __new__(cls, profiles: np.ndarray, index_set: tuple, label: str,
                grid: TimeGrid, gamma_weights: np.ndarray = None,
                psi: np.ndarray = None):
        if np.iscomplexobj(profiles):
            raise ConfigError("time profiles must be real: a family is "
                              "the real rows U_n and V_n of each mode")
        z = np.asarray(profiles, dtype=float)
        if z.ndim != 2 or z.shape[1] != grid.steps + 1:
            raise ConfigError(f"profile array shape {z.shape} does not match grid")
        if z.shape[0] != len(index_set):
            raise ConfigError("index_set length does not match member count")
        if np.iscomplexobj(psi):
            raise ConfigError("boundary traces must be real")
        psi = (np.ones((z.shape[0], 1)) if psi is None
               else np.asarray(psi, dtype=float))
        if psi.ndim != 2 or psi.shape[0] != z.shape[0]:
            raise ConfigError(f"trace array shape {psi.shape} does not match "
                              f"{z.shape[0]} members")
        gw = (np.ones(psi.shape[1]) if gamma_weights is None
              else np.asarray(gamma_weights, dtype=float))
        if gw.shape != (psi.shape[1],):
            raise ConfigError("gamma_weights shape does not match member nodes")
        return super().__new__(cls, z, index_set, label, grid, gw, psi)

    @property
    def count(self) -> int:
        return self.profiles.shape[0]

    @property
    def members(self) -> np.ndarray:
        """Dense (count, nodes, steps+1) members, built on every read.

        For inspection only: nothing in the pipeline needs them.
        """
        return self.psi[:, :, None] * self.profiles[:, None, :]

    def restrict(self, steps: int) -> "SequenceFamily":
        """The family on [0, steps*h] of the same grid.  Profiles are causal
        in t (marched responses, or closed forms sampled on the grid), so
        slicing is the family a fresh build on the shorter grid gives."""
        grid = self.grid.restrict(steps)
        return SequenceFamily(self.profiles[:, :steps + 1], self.index_set,
                              self.label, grid, self.gamma_weights, self.psi)


class GramReport(NamedTuple):
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
    """Run the finite and symmetry checks on every Gram of the real stack
    Gs of the family label, then symmetrise the stack in place.  The
    first Gram to fail, in stack order, raises.

    Each Gram's figures are those of the Gram alone: G.T is written out,
    so the gap and the symmetrised Gram take the same elementwise
    operations on the same operands as they would one Gram at a time.
    """
    finite = np.all(np.isfinite(Gs), axis=(1, 2))
    # G.T as a copy: a ufunc reading the transposed view would buffer a
    # second stack
    flip = Gs.transpose(0, 2, 1).copy()
    with np.errstate(invalid="ignore"):     # Inf - Inf where not finite
        np.subtract(Gs, flip, out=flip)
        np.abs(flip, out=flip)
        sym_gap = np.max(flip, axis=(1, 2))
        np.abs(Gs, out=flip)
        scale = np.maximum(1.0, np.max(flip, axis=(1, 2)))
    bad = ~finite | (sym_gap > 1e-12 * scale)
    if np.any(bad):
        i = int(np.argmax(bad))
        if not finite[i]:
            raise ConvergenceError(
                f"Gram of {label!r} is not finite (NaN or Inf entries); "
                "the members overflow")
        raise InternalConsistencyError(
            f"Gram of {label!r} is not symmetric (gap {sym_gap[i]:.3e}); "
            "quadrature inconsistency")
    flip[...] = Gs.transpose(0, 2, 1)
    np.add(Gs, flip, out=flip)
    np.multiply(0.5, flip, out=Gs)


def cholesky_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for a symmetric positive definite G: G = L L^T, then
    one solve against L and one against L^T."""
    L = np.linalg.cholesky(G)
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def gram_reports(families: Sequence[tuple],
                 gamma_weights: np.ndarray) -> list:
    """One list of reports per family, one report per horizon.

    families holds, for each family, (psi, temporal, label): its real
    traces psi (count, nodes) and its real time Grams temporal
    (H, count, count), one per horizon; every family has the same count
    and H.  A family's Gram at a horizon is its
    boundary Gram under the quadrature gamma_weights times the time
    Gram, entrywise.  All of them fill one
    (families * H, count, count) stack; each family's part passes the
    finite and symmetry checks (_check) as it is filled, which keeps
    their temporaries to one family's Grams, and the whole stack takes
    one eigenvalue call per level of nested_levels(count).  Every Gram's
    frame bounds then pass the interlacing check on their own.
    """
    n, H = families[0][0].shape[0], len(families[0][1])
    Gs = np.empty((len(families) * H, n, n))
    for f, (psi, temporal, label) in enumerate(families):
        if psi.shape[0] != n or len(temporal) != H:
            raise ConfigError(f"family {label!r} has {psi.shape[0]} members "
                              f"and {len(temporal)} horizons, not {n} and {H}")
        boundary = (psi * gamma_weights) @ psi.T
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
    """sum_t w_t P_n P_k on [0, k h] for every k of steps, from one
    pass over the grid: the trapezoid rule on [0, k_i h] is the rule on
    [0, k_{i-1} h] plus the rule on [k_{i-1} h, k_i h], so the time Gram
    of each horizon adds one segment's product to the last one's.  Each
    segment's product is summed over chunks of its samples, every chunk
    under CALLING_THREAD_MACS (_blocked)."""
    temporal, start = [], 0
    for k in steps:
        seg = profiles[:, start:k + 1]
        w = np.full(k - start + 1, h)
        w[0] = w[-1] = 0.5 * h
        part = _blocked(seg * w, seg.T)
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

