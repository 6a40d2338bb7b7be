"""Independent verification of synthesized controls in modal form.

Two routes compute the end state of the controlled modes:

  * the convolution route evaluates the closed-form representations
      theta_n  = -(N * z_n) * F_n
      theta_n' = -(z_n + N' * z_n) * F_n
    where F_n(s) is the boundary pairing of the control with the mode's
    unscaled trace.  It reuses the exact discrete ingredients of the
    batch compute_responses returns (volterra.ModalResponses), so a
    control solved against the assembled family hits its targets to
    solver precision, with no extra scheme error;

  * the march route integrates the forced modal equation
      theta' = 2 alpha theta - lambda^2 (N * theta) - (N * F_n)
    directly and knows nothing about the family.  Agreement of the two
    within the scheme allowance is the end-to-end cross-validation.

Both routes run the K_sim simulated modes as one batch with time on the
last axis: the forcings F_n form one (K_sim, steps+1) array, a row per
mode, like the marched theta_n.  The verdict reads
the end state only, so each convolution the end state needs is
evaluated at the final time alone (kernels.convolve_end, one O(m)
contraction): the convolution route contracts N * z_n, z_n and N' * z_n
against F_n in one call, and the march route reads theta_n'(T) from the
contraction of N against the marched theta_n.

The march route's forcing N * F_n is needed at every sample.  F = W f,
with W the (K_sim, nodes) weighted traces and f the (nodes, steps+1)
control, so by linearity of the product trapezoid N * F = W (N * f):
the same discrete quantity, rounded otherwise.  When the control has
fewer node rows than there are simulated modes (one on the interval,
against K_sim = 12 on the benchmark), the route convolves N against
the node rows and pairs the result with W, 3 transforms where the K_sim
rows of F take 25; otherwise (the rectangle's 257-node edge) it
convolves the rows of F.

The simulation grid may extend past the control horizon (the control is
zero-padded), which is how post-control energy conservation is checked
in the memoryless limit: the end states of runs on grids restricted to
several horizons past the release (NormalizedKernel.restrict) carry the
same energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .control import ControlSignal, node_blocks
from .errors import ConfigError, InternalConsistencyError
from .grid import TimeGrid
from .kernels import NormalizedKernel, convolve, convolve_end
from .spectral import EigenPair
from .volterra import ModalResponses, march_modal, _consistency_tol


@dataclass(frozen=True)
class SimResult:
    theta_T: np.ndarray          # per mode 1..K_sim, value at the final time
    theta_t_T: np.ndarray
    tail_energy: float           # spillover into modes K+1..K_sim, summed in
                                 # the state norm (position^2 + velocity^2
                                 # with the velocity read in the mode basis,
                                 # theta'/beta); the naive theta'^2+lam^2
                                 # theta^2 weighting diverges with K_sim for
                                 # boundary-controlled states and is not used
    K: int
    K_sim: int
    lambda_sq: np.ndarray
    beta: np.ndarray
    grid: TimeGrid


def _mode_forcing(weighted: np.ndarray, u: np.ndarray,
                  length: int) -> np.ndarray:
    """weighted @ u on the simulation grid, (K_sim, length): with u the
    (nodes, k) control and weighted the weighted traces, the boundary
    pairing F_n of the control with each mode's trace, zero past the
    horizon.  Summed over node-row blocks (control.node_blocks) so that
    no product wakes OpenBLAS's worker pool."""
    out = np.zeros((len(weighted), length))
    for rows in node_blocks(len(u), u.shape[1] * len(weighted)):
        out[:, :u.shape[1]] += weighted[:, rows] @ u[rows]
    return out


def _forcing_convolution(kernel: NormalizedKernel, weighted: np.ndarray,
                         f: np.ndarray, length: int) -> np.ndarray:
    """H_n = N * F_n on the simulation grid, (K_sim, length).

    F = W f with W the weighted traces, so by linearity of the product
    trapezoid H = W (N * f): the same discrete quantity, rounded
    otherwise.  A control with fewer node rows than simulated modes
    (one on the interval, against K_sim) convolves its node rows,
    zero-padded to the grid, and pairs the result; one with more (the
    rectangle's edge) convolves the K_sim rows of F.
    """
    if len(f) >= len(weighted):
        return convolve(kernel.N, _mode_forcing(weighted, f, length),
                        kernel.h)
    padded = np.zeros((len(f), length))
    padded[:, :f.shape[1]] = f
    return _mode_forcing(weighted, convolve(kernel.N, padded, kernel.h),
                         length)


def _check_grids(kernel: NormalizedKernel, control: ControlSignal):
    if abs(kernel.h - control.grid.h) > 1e-12 * kernel.h:
        raise ConfigError(
            f"control step {control.grid.h!r} does not match simulation step "
            f"{kernel.h!r}; runs own exactly one step size")
    if control.f.shape[1] > kernel.grid.steps + 1:
        raise ConfigError("control grid longer than simulation grid")


def mode_energies(theta_T, theta_t_T, beta) -> np.ndarray:
    """Per-mode state-norm energy; beta = 0 marks the degenerate basis."""
    safe = np.where(beta == 0.0, 1.0, beta)
    vel = np.where(beta == 0.0, theta_t_T, theta_t_T / safe)
    return np.abs(theta_T) ** 2 + np.abs(vel) ** 2


def _finalize(theta_T, theta_t_T, K, lam_sq, beta, grid):
    """SimResult of modes 1..K_sim from their (K_sim,) end states."""
    tail = float(np.sum(mode_energies(theta_T, theta_t_T, beta)[K:]))
    return SimResult(theta_T, theta_t_T, tail, K, len(theta_T), lam_sq,
                     beta, grid)


def simulate_convolution(responses: ModalResponses, kernel: NormalizedKernel,
                         control: ControlSignal, K_sim: int,
                         gamma_weights: Optional[np.ndarray] = None,
                         K: int = None) -> SimResult:
    """Primary verification route, via the convolution representations
    of the first K_sim rows of responses, which must be modes 1..K_sim."""
    _check_grids(kernel, control)
    gw = np.ones(control.f.shape[0]) if gamma_weights is None else gamma_weights
    length = kernel.grid.steps + 1
    K = K if K is not None else max(abs(n) for n in control.index_set)
    sim = responses.head(K_sim)
    if [p.index for p in sim.pairs] != list(range(1, K_sim + 1)):
        raise ConfigError(f"simulation needs the responses of modes 1..{K_sim}")
    if sim.grid.steps + 1 != length:
        raise ConfigError("responses live on a different grid")
    F = _mode_forcing(np.array([p.trace.real for p in sim.pairs]) * gw,
                      control.f, length)
    # N*z, z and N'*z against F in one call, (3, K_sim) at the end.  z
    # and N'*z are convolved apart and summed after: summing them first
    # moves theta' by rounding, and the verify artifacts with it
    parts = convolve_end(np.stack([sim.Nz, sim.z, sim.Npz]), F, kernel.h)
    theta = -parts[0]
    theta_t = -(parts[1] + parts[2])
    return _finalize(theta, theta_t, K,
                     np.array([p.lambda_sq for p in sim.pairs]),
                     np.array([p.beta.real for p in sim.pairs]), kernel.grid)


def simulate_march(kernel: NormalizedKernel, pairs: Sequence[EigenPair],
                   control: ControlSignal, K_sim: int,
                   gamma_weights: Optional[np.ndarray] = None,
                   K: int = None) -> SimResult:
    """Independent route: direct time-marching of the forced modal system."""
    _check_grids(kernel, control)
    gw = np.ones(control.f.shape[0]) if gamma_weights is None else gamma_weights
    length = kernel.grid.steps + 1
    K = K if K is not None else max(abs(n) for n in control.index_set)
    h = kernel.h
    by_index = {p.index: p for p in pairs}
    missing = [n for n in range(1, K_sim + 1) if n not in by_index]
    if missing:
        raise ConfigError(f"simulation needs eigenpair {missing[0]}")
    sim = [by_index[n] for n in range(1, K_sim + 1)]
    lam_sq = np.array([p.lambda_sq for p in sim])
    beta = np.array([p.beta.real for p in sim])
    weighted = np.array([p.trace.real for p in sim]) * gw
    H = _forcing_convolution(kernel, weighted, control.f, length)
    theta = march_modal(kernel, lam_sq, kernel.alpha, y0=0.0, forcing=-H,
                        label=f"(sim modes 1..{K_sim})")
    memory = convolve_end(kernel.N, theta, h)
    theta = theta[:, -1].copy()
    theta_t = 2.0 * kernel.alpha * theta - lam_sq * memory - H[:, -1]
    return _finalize(theta, theta_t, K, lam_sq, beta, kernel.grid)


def achieved_coefficients(result: SimResult, pairs: Sequence[EigenPair]):
    """Read (xi, eta) off the final state, honoring the degenerate-set basis."""
    by_index = {p.index: p for p in pairs}
    xi = result.theta_T.copy()
    eta = np.empty_like(xi)
    for n in range(1, len(xi) + 1):
        p = by_index[n]
        if p.in_J:
            eta[n - 1] = result.theta_t_T[n - 1]
        else:
            eta[n - 1] = result.theta_t_T[n - 1] / p.beta.real
    return xi, eta


def mode_gaps(a: SimResult, b: SimResult) -> np.ndarray:
    """End-state disagreement of two routes per mode 1..K_sim, the larger
    of |delta theta_T| and |delta theta'_T|."""
    return np.maximum(np.abs(a.theta_T - b.theta_T),
                      np.abs(a.theta_t_T - b.theta_t_T))


def route_gap(a: SimResult, b: SimResult, kernel: NormalizedKernel,
              pairs: Sequence[EigenPair]) -> float:
    """Largest end-state disagreement between the two routes.

    The gap is validated against the scheme allowance of the stiffest
    simulated mode; violation means one of the routes (or a shared
    ingredient) is broken, not merely inaccurate.
    """
    gap = float(np.max(mode_gaps(a, b)))
    by_index = {p.index: p for p in pairs}
    worst = max(_consistency_tol(kernel, by_index[n])
                for n in range(1, a.K_sim + 1) if n in by_index)
    scale = max(1.0, float(np.max(np.abs(a.theta_t_T))))
    # not (a <= tol) rather than a > tol: a NaN fails closed
    if not gap <= worst * scale:
        raise InternalConsistencyError(
            f"simulation routes disagree: gap {gap:.3e} exceeds "
            f"allowance {worst * scale:.3e}")
    return gap
