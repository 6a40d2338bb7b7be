"""Moment-problem assembly and minimum-norm control synthesis.

The controllability question reduces to prescribing the pairings of the
reversed-time control against the modal family: with members m_n and
data c_n, find g with  int m_n g = c_n  over the boundary cylinder,
then read the physical control as f(x, t) = g(x, T - t).

Index convention.  Families live on the signed index set without zero,
interleaved (+1, -1, +2, -2, ...) so that nested Gram truncations grow
symmetrically.  The member at -n is the conjugate of the member at n,
and the data extend as c_{-n} = conj(c_n); together these make the
minimum-norm solution real automatically (its conjugate solves the same
constraints inside the same span, and the solution there is unique).
The realness of the synthesized control is still asserted numerically.

Minimum-norm mechanics.  The solution is sought in span{conj(m_k)}:
writing g = sum a_k conj(m_k), the constraints become Gram . a = c with
the Hermitian Gram G_{nk} = <m_n, m_k> (second argument conjugated).
Solving by Cholesky and assembling g gives the unique minimum-norm
solution; any admissible perturbation is orthogonal to the span and can
only increase the norm, which the seeded spot-check verifies.  Members
are kept as factors psi_n (x) Z_n (see riesz); g is the one dense
(nodes, steps+1) array, built once from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigError, InternalConsistencyError, NotControllableError
from .grid import TimeGrid, make_grid
from .kernels import NormalizedKernel
from .riesz import CONDITION_CAP, SequenceFamily, gram
from .spectral import EigenPair
from .volterra import (ModeResponse, comparator_profile, refined_S,
                       transformed_exponential)


@dataclass(frozen=True)
class TargetState:
    """Target position/velocity coefficients over the first K modes.

    xi pairs with the eigenfunction basis of the position space; eta
    pairs with the beta-weighted basis of the velocity space (with the
    weight dropped on the degenerate set, where the velocity coefficient
    is read directly).
    """

    xi: np.ndarray
    eta: np.ndarray
    K: int

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if xi.shape != (self.K,) or eta.shape != (self.K,):
            raise ConfigError(f"targets need shape ({self.K},)")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class MomentProblem:
    family: SequenceFamily
    rhs: np.ndarray              # aligned with family.index_set
    horizon: float


@dataclass(frozen=True)
class ControlSignal:
    f: np.ndarray                # real, (nodes, steps+1)
    coefficients: np.ndarray
    residual: np.ndarray
    imag_max: float
    condition: float
    frame_lower: float
    norm: float
    grid: TimeGrid
    index_set: tuple

    @property
    def residual_max(self) -> float:
        return float(np.max(self.residual)) if len(self.residual) else 0.0


def assemble_rhs(target: TargetState) -> np.ndarray:
    """Moment data c_n = -(eta_n + i xi_n) for n = 1..K."""
    return -(target.eta + 1j * target.xi)


def _interleave(items):
    out = []
    for x in items:
        out.extend(x)
    return out


def _signed(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Rows over (+1, -1, +2, -2, ...) with conjugate negatives."""
    rows = [np.asarray(r, dtype=complex) for r in rows]
    return np.array(_interleave((r, np.conj(r)) for r in rows))


def _signed_index(indices):
    return tuple(_interleave([(n, -n) for n in indices]))


def telegraph_family(pairs: Sequence[EigenPair], c: float, T: float,
                     gamma_param: Optional[float] = None,
                     steps: int = None,
                     gamma_weights=None) -> SequenceFamily:
    """Memoryless comparator family on [0, T].

    The time profile is the transformed exponential with a = gp,
    exp(i beta t) + (gp/beta) sin(beta t), and 1 + (gp + i) t on the
    degenerate set, against the unscaled trace.  gp defaults to the
    velocity coefficient c; any other value (zero included) spans the
    same space, and gp = 0 gives pure exponentials.  gamma_weights are the boundary quadrature
    weights (DomainSpec.gamma_weights; ones by default).
    """
    gp = c if gamma_param is None else gamma_param
    grid = make_grid(T, 1e-3) if steps is None else TimeGrid(T, steps)
    t = grid.t
    profiles = [transformed_exponential(p, gp, t) for p in pairs]
    return SequenceFamily(_signed(profiles), _signed_index([p.index for p in pairs]),
                          "telegraph", grid, gamma_weights,
                          _signed([p.psi for p in pairs]))


def viscoelastic_family(responses: Sequence[ModeResponse],
                        gamma_weights=None) -> SequenceFamily:
    """Family of modal responses against their trace profiles, Z_n psi_n.

    gamma_weights are the boundary quadrature weights the simulator
    pairs the control with (DomainSpec.gamma_weights; ones by default).
    """
    rs = sorted(responses, key=lambda r: r.n)
    if any(r.n <= 0 for r in rs):
        raise ConfigError("pass positive-index responses; negatives are built here")
    steps = len(rs[0].z) - 1
    grid = TimeGrid(steps * rs[0]._h, steps, rs[0]._h)
    return SequenceFamily(_signed([r.Z for r in rs]), _signed_index([r.n for r in rs]),
                          "viscoelastic", grid, gamma_weights,
                          _signed([r.psi for r in rs]))


def s_family(kernel: NormalizedKernel, pairs: Sequence[EigenPair]) -> SequenceFamily:
    """Positive-index family S_n psi_n via the mode-uniform route."""
    return SequenceFamily(np.array([refined_S(kernel, p) for p in pairs]),
                          tuple(p.index for p in pairs), "s-refined",
                          kernel.grid, psi=np.array([p.psi for p in pairs]))


def comparator_family(kernel: NormalizedKernel,
                      pairs: Sequence[EigenPair]) -> SequenceFamily:
    """Positive-index transformed-exponential comparator, C_n psi_n."""
    return SequenceFamily(np.array([comparator_profile(kernel, p) for p in pairs]),
                          tuple(p.index for p in pairs), "comparator",
                          kernel.grid, psi=np.array([p.psi for p in pairs]))


def build_moment_problem(family: SequenceFamily, target: TargetState,
                         horizon: float = None) -> MomentProblem:
    """Align the moment data with the family's signed index set."""
    c_pos = assemble_rhs(target)
    rhs = np.empty(family.count, dtype=complex)
    for i, n in enumerate(family.index_set):
        k = abs(n) - 1
        if k >= target.K:
            raise ConfigError(f"family index {n} beyond target truncation {target.K}")
        rhs[i] = c_pos[k] if n > 0 else np.conj(c_pos[k])
    return MomentProblem(family, rhs, horizon if horizon is not None
                         else family.grid.T)


def _is_symmetric(index_set) -> bool:
    s = set(index_set)
    return all(-n in s for n in s)


def synthesize(problem: MomentProblem,
               condition_cap: float = CONDITION_CAP,
               spot_check_seed: Optional[int] = 0,
               spot_check_dirs: int = 5) -> ControlSignal:
    """Minimum-norm real control for the moment problem.

    Fails closed with the not-controllable error (carrying the measured
    lower frame bound) when the Gram condition exceeds the cap; that is
    the numerical signature of a horizon at or below the sharp time.
    """
    fam = problem.family
    rep = gram(fam)
    if not np.isfinite(rep.cond) or rep.cond > condition_cap or rep.m_N <= 0:
        raise NotControllableError(
            f"moment problem not solvable at T={problem.horizon:.6g}: "
            f"m_N={rep.m_N:.3e}, condition={rep.cond:.3e} (cap {condition_cap:.1e})",
            frame_lower=rep.m_N, condition=rep.cond)
    a = cho_solve(cho_factor(rep.gram), problem.rhs)
    g = fam.combination(a, conjugate=True)
    residual = np.abs(fam.pairing(g) - problem.rhs)
    rhs_scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    if float(np.max(residual)) > 1e-6 * max(1.0, rep.cond) * rhs_scale:
        raise InternalConsistencyError(
            f"moment residual {float(np.max(residual)):.3e} out of scale "
            "for the solved condition number")

    f = g[:, ::-1]
    imag_max = float(np.max(np.abs(f.imag)))
    scale = max(1.0, float(np.max(np.abs(f))))
    if _is_symmetric(fam.index_set) and imag_max > 1e-8 * scale:
        raise InternalConsistencyError(
            f"synthesized control is not real (sup imag {imag_max:.3e}); "
            "rhs extension inconsistent with member conjugation")

    norm = float(np.sqrt(fam.dense_norm_sq(g)))

    if spot_check_seed is not None and spot_check_dirs > 0:
        _min_norm_spot_check(fam, rep, g, norm, spot_check_seed, spot_check_dirs)

    return ControlSignal(np.real(f).copy(), a, residual, imag_max,
                         rep.cond, rep.m_N, norm, fam.grid, fam.index_set)


def _min_norm_spot_check(fam: SequenceFamily, rep, g, norm,
                         seed: int, dirs: int):
    """Perturb g by random span-orthogonal directions; the norm must not drop.

    Moments of a conjugated-member combination are exactly Gram-column
    sums (pairing conj(m_j) against m_n gives G_{nj}), so removing the
    span component is a plain Gram solve; what remains has zero moments
    and by Pythagoras can only add norm.
    """
    rng = np.random.default_rng(seed)
    for _ in range(dirs):
        v = rng.standard_normal(g.shape)
        moments_v = fam.pairing(v)
        x = np.linalg.solve(rep.gram, moments_v)
        v_perp = v - fam.combination(x, conjugate=True)
        moments = np.max(np.abs(fam.pairing(v_perp)))
        vnorm = np.sqrt(fam.dense_norm_sq(v_perp))
        if moments > 1e-7 * (1.0 + float(np.max(np.abs(moments_v)))) * rep.cond:
            raise InternalConsistencyError(
                f"span projection left residual moments {moments:.3e}")
        perturbed = np.sqrt(fam.dense_norm_sq(g + v_perp))
        if perturbed < norm * (1.0 - 1e-9) - 1e-12 and vnorm > 0:
            raise InternalConsistencyError(
                "minimum-norm violated by a span-orthogonal perturbation")
