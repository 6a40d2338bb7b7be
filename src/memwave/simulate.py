"""Independent verification of synthesized controls in modal form.

Two routes compute the controlled trajectories:

  * the convolution route evaluates the closed-form representations
      theta_n  = -(N * z_n) * F_n
      theta_n' = -(z_n + N' * z_n) * F_n
    where F_n(s) is the boundary pairing of the control with the mode's
    unscaled trace.  It reuses the exact discrete ingredients stored on
    ModeResponse, so a control solved against the assembled family hits
    its targets to solver precision, with no extra scheme error;

  * the march route integrates the forced modal equation
      theta' = 2 alpha theta - lambda^2 (N * theta) - (N * F_n)
    directly and knows nothing about the family.  Agreement of the two
    within the scheme allowance is the end-to-end cross-validation.

Both routes run the K_sim simulated modes as one batch: the forcings
F_n form one (steps+1, K_sim) array.  The convolution route convolves
N * z_n, z_n and N' * z_n against F_n in one call, the march route N
against F_n and against the marched theta_n in two.

The simulation grid may extend past the control horizon (the control is
zero-padded), which is how post-control energy conservation is checked
in the memoryless limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .control import ControlSignal
from .errors import ConfigError, InternalConsistencyError
from .grid import TimeGrid
from .kernels import NormalizedKernel, convolve
from .spectral import EigenPair
from .volterra import march_modal, _consistency_tol


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
    trajectories: Optional[dict] = None   # n -> (theta_n(t), theta_n'(t))


def _mode_forcing(traces: np.ndarray, control: ControlSignal,
                  gamma_weights: np.ndarray, length: int) -> np.ndarray:
    """F_n on the simulation grid, (length, K_sim): the boundary pairing
    of the control with each mode's trace, zero past the horizon."""
    f = control.f
    if f.shape[1] > length:
        raise ConfigError("control grid longer than simulation grid")
    F = np.zeros((length, len(traces)))
    F[:f.shape[1]] = ((np.real(traces) * gamma_weights) @ f).T
    return F


def _check_grids(kernel: NormalizedKernel, control: ControlSignal):
    if abs(kernel.h - control.grid.h) > 1e-12 * kernel.h:
        raise ConfigError(
            f"control step {control.grid.h!r} does not match simulation step "
            f"{kernel.h!r}; runs own exactly one step size")


def mode_energies(theta_T, theta_t_T, beta) -> np.ndarray:
    """Per-mode state-norm energy; beta = 0 marks the degenerate basis."""
    safe = np.where(beta == 0.0, 1.0, beta)
    vel = np.where(beta == 0.0, theta_t_T, theta_t_T / safe)
    return np.abs(theta_T) ** 2 + np.abs(vel) ** 2


def _finalize(theta, theta_t, K, lam_sq, beta, grid, keep):
    """SimResult from the (length, K_sim) trajectories of modes 1..K_sim."""
    theta_T, theta_t_T = theta[-1].copy(), theta_t[-1].copy()
    tail = float(np.sum(mode_energies(theta_T, theta_t_T, beta)[K:]))
    traj = {n: (theta[:, n - 1], theta_t[:, n - 1])
            for n in range(1, theta.shape[1] + 1)} if keep else None
    return SimResult(theta_T, theta_t_T, tail, K, theta.shape[1], lam_sq,
                     beta, grid, traj)


def simulate_convolution(responses: dict, kernel: NormalizedKernel,
                         control: ControlSignal, K_sim: int,
                         gamma_weights: Optional[np.ndarray] = None,
                         K: int = None, trajectories: bool = False) -> SimResult:
    """Primary verification route, via the convolution representations."""
    _check_grids(kernel, control)
    gw = np.ones(control.f.shape[0]) if gamma_weights is None else gamma_weights
    length = kernel.grid.steps + 1
    K = K if K is not None else max(abs(n) for n in control.index_set)
    h = kernel.h
    sim = []
    for n in range(1, K_sim + 1):
        if n not in responses:
            raise ConfigError(f"simulation needs the response of mode {n}")
        if len(responses[n].z) != length:
            raise ConfigError(f"response of mode {n} lives on a different grid")
        sim.append(responses[n])
    F = _mode_forcing(np.array([r.trace for r in sim]), control, gw, length)
    # N*z, z and N'*z against F in one call, (length, 3, K_sim).  z and
    # N'*z are convolved apart and summed after: summing them first moves
    # theta' by rounding, and the verify artifacts with it
    parts = convolve(np.array([(r.Nz, r.z, r.Npz) for r in sim]).T,
                     F[:, None], h)
    theta = -parts[:, 0]
    theta_t = -(parts[:, 1] + parts[:, 2])
    return _finalize(theta, theta_t, K, np.array([r.lambda_sq for r in sim]),
                     np.array([r.beta.real for r in sim]), kernel.grid,
                     trajectories)


def simulate_march(kernel: NormalizedKernel, pairs: Sequence[EigenPair],
                   control: ControlSignal, K_sim: int,
                   gamma_weights: Optional[np.ndarray] = None,
                   K: int = None, trajectories: bool = False) -> SimResult:
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
    H = convolve(kernel.N, _mode_forcing(np.array([p.trace for p in sim]),
                                         control, gw, length), h)
    theta = march_modal(kernel, lam_sq, kernel.alpha, y0=0.0, forcing=-H,
                        label=f"(sim modes 1..{K_sim})")
    theta_t = 2.0 * kernel.alpha * theta \
        - lam_sq * convolve(kernel.N, theta, h) - H
    return _finalize(theta, theta_t, K, lam_sq, beta, kernel.grid, trajectories)


def back_transform(result: SimResult, gamma: float) -> dict:
    """Physical-state coefficients from the rescaled ones (exact algebra)."""
    e = np.exp(-2.0 * gamma * result.grid.T)
    out = {
        "w_T": e * result.theta_T,
        "w_t_T": e * (result.theta_t_T - 2.0 * gamma * result.theta_T),
    }
    if result.trajectories is not None:
        t = result.grid.t
        et = np.exp(-2.0 * gamma * t)
        out["trajectories"] = {
            n: (et * th, et * (tht - 2.0 * gamma * th))
            for n, (th, tht) in result.trajectories.items()
        }
    return out


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


def route_gap(a: SimResult, b: SimResult, kernel: NormalizedKernel,
              pairs: Sequence[EigenPair], check: bool = True) -> float:
    """Largest end-state disagreement between the two routes.

    With check=True the gap is validated against the scheme allowance
    of the stiffest simulated mode; violation means one of the routes
    (or a shared ingredient) is broken, not merely inaccurate.
    """
    gap = max(float(np.max(np.abs(a.theta_T - b.theta_T))),
              float(np.max(np.abs(a.theta_t_T - b.theta_t_T))))
    if check:
        by_index = {p.index: p for p in pairs}
        worst = max(_consistency_tol(kernel, by_index[n])
                    for n in range(1, a.K_sim + 1) if n in by_index)
        scale = max(1.0, float(np.max(np.abs(a.theta_t_T))))
        if gap > worst * scale:
            raise InternalConsistencyError(
                f"simulation routes disagree: gap {gap:.3e} exceeds "
                f"allowance {worst * scale:.3e}")
    return gap
