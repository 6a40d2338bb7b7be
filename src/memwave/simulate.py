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

The simulator takes the control the family was solved for: its traces
must be the simulated modes' own, bit for bit (both are spectral's
computed trace), so a control solved on another boundary is refused.
An overdamped mode (imaginary beta) has no settled velocity basis, so
the read-off (achieved_coefficients) and the energies refuse it.

Both routes simulate the Spectrum batch (spectral) they are handed,
which must be the modes 1..K_sim, as one batch with time on the last
axis: the forcings F_n form one (K_sim, steps+1) array, a row per mode,
like the marched theta_n.  The verdict reads the end state only, so
each convolution the end state needs is evaluated at the final time
alone (kernels.convolve_end, one O(m) contraction): the convolution
route contracts N * z_n, z_n and N' * z_n against F_n, and the march
route reads theta_n'(T) from the contraction of N against the marched
theta_n.

The control arrives as its factor pair (control.ControlSignal),
f = traces.T @ profiles, and carries the boundary quadrature weights
and the modes 1..K of the family it was solved against, so the
forcings are F = W f = (W @ traces.T) @ profiles, W the (K_sim, nodes)
real traces of the simulated modes under the control's weights.  The
march route needs N * F at every sample; by linearity of the product
trapezoid it convolves the fewest rows among the node rows of f, the
K_sim rows of F and the K profiles (_forcing_convolution): one node row
on the interval (3 transforms where the 12 rows of F take 25), the rows
of F on the rectangle benchmark's 257-node edge.  The march is linear
too, and takes its forcing as real rows (volterra.march_modal): on a
one-node boundary, as on the interval, N * F_n = w_n (N * f), so the
one row N * f is marched as a row every mode shares and each response
is scaled by -w_n afterwards, with no (K_sim, steps+1) forcing built;
other boundaries march N * F, a row per mode.

The simulation grid may extend past the control horizon (the control is
zero-padded), which is how post-control energy conservation is checked
in the memoryless limit: the end states of runs on grids restricted to
several horizons past the release (NormalizedKernel.restrict) carry the
same energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlSignal, node_blocks
from .errors import ConfigError, InternalConsistencyError
from .grid import TimeGrid
from .kernels import NormalizedKernel, convolve, convolve_end
from .spectral import Spectrum
from .volterra import ModalResponses, march_modal, _consistency_tol


@dataclass(frozen=True)
class SimResult:
    theta_T: np.ndarray          # per simulated mode, value at the final time
    theta_t_T: np.ndarray
    tail_energy: float           # spillover into modes K+1..K_sim, summed in
                                 # the state norm (position^2 + velocity^2
                                 # with the velocity read in the mode basis,
                                 # theta'/beta); the naive theta'^2+lam^2
                                 # theta^2 weighting diverges with K_sim for
                                 # boundary-controlled states and is not used
    K: int                       # the control's modes 1..K
    modes: Spectrum              # the simulated modes 1..K_sim
    grid: TimeGrid


def _mode_forcing(coupling: np.ndarray, profiles: np.ndarray,
                  length: int) -> np.ndarray:
    """coupling @ profiles, zero-padded to length, over chunks of time
    samples (control.node_blocks, half the bound for one row) so that no
    product wakes OpenBLAS's worker pool."""
    out = np.zeros((len(coupling), length))
    for cols in node_blocks(profiles.shape[1],
                            coupling.shape[1] * max(2, len(coupling))):
        out[:, cols] = coupling @ profiles[:, cols]
    return out


def _forcing_convolution(kernel: NormalizedKernel, weighted: np.ndarray,
                         control: ControlSignal, length: int) -> np.ndarray:
    """H = N * F on the simulation grid, (K_sim, length), as
    W (N * f), N * F or (W traces.T) (N * profiles), whichever convolves
    the fewest rows (ties in that order)."""
    T, P = control.traces, control.profiles
    if T.shape[1] <= min(len(weighted), len(T)):     # the node rows of f
        return _mode_forcing(weighted, convolve(
            kernel.N, _mode_forcing(T.T, P, length), kernel.h), length)
    coupling = weighted @ T.T
    if len(weighted) <= len(T):                       # the K_sim rows of F
        return convolve(kernel.N, _mode_forcing(coupling, P, length),
                        kernel.h)
    padded = np.pad(P, ((0, 0), (0, length - P.shape[1])))   # K profiles
    return _mode_forcing(coupling, convolve(kernel.N, padded, kernel.h),
                         length)


def _forcing_rows(kernel: NormalizedKernel, weighted: np.ndarray,
                  control: ControlSignal, length: int):
    """The march's forcing rows and the per-mode scale s that makes them
    the forcings H = N * F, H_k = s_k rows_k.  A one-node control forces
    mode k with w_k (N * f): the one row N * f, (1, length), is shared by
    every mode and s = w, (K_sim,).  Any other control gives H
    (_forcing_convolution), a row per mode, (K_sim, 1, length), and
    s = 1."""
    if control.traces.shape[1] == 1:
        return convolve(kernel.N, _mode_forcing(
            control.traces.T, control.profiles, length),
            kernel.h), weighted[:, 0]
    return _forcing_convolution(kernel, weighted, control,
                                length)[:, None], 1.0


def _setup(kernel: NormalizedKernel, control: ControlSignal,
           modes: Spectrum):
    """Check the simulated modes (1..K_sim in order, at least the
    control's modes 1..K), the control's grid against the simulation's,
    and the control's traces against the traces of modes 1..K, which
    they are, bit for bit, when the control was solved for these modes
    (the family carries spectral's computed trace): the (K_sim, nodes)
    weighted traces of the modes, the grid length and K."""
    K = max(abs(n) for n in control.index_set)
    if not np.array_equal(modes.index, np.arange(1, len(modes) + 1)):
        raise ConfigError("simulation needs the modes 1..K_sim in order")
    if K > len(modes):
        raise ConfigError(f"control over modes 1..{K} but only "
                          f"{len(modes)} simulated modes")
    if abs(kernel.h - control.grid.h) > 1e-12 * kernel.h:
        raise ConfigError(
            f"control step {control.grid.h!r} does not match simulation step "
            f"{kernel.h!r}; runs own exactly one step size")
    if control.profiles.shape[1] > kernel.grid.steps + 1:
        raise ConfigError("control grid longer than simulation grid")
    if not np.array_equal(control.traces, modes.trace[:K]):
        raise ConfigError(
            f"control traces {control.traces.shape} are not the traces of "
            f"the simulated modes 1..{K} {modes.trace[:K].shape}: the "
            f"control was solved on another boundary or for other modes")
    return modes.trace * control.gamma_weights, kernel.grid.steps + 1, K


def _damped_basis(beta, index):
    """ConfigError naming the first overdamped mode (imaginary beta off
    the degenerate set), whose velocity basis is not settled."""
    over = np.asarray(beta).imag != 0.0
    if over.any():
        i = int(np.argmax(over))
        raise ConfigError(
            f"mode {index[i]} is overdamped (beta = {complex(beta[i]):.4g}): "
            f"its velocity coefficient and state energy are not defined yet")


def mode_energies(theta_T, theta_t_T, beta) -> np.ndarray:
    """Per-mode state-norm energy of the modes 1..n with beta (complex or
    real); beta = 0 marks the degenerate basis.  An overdamped mode
    (imaginary beta) raises ConfigError naming it."""
    _damped_basis(beta, np.arange(1, len(beta) + 1))
    beta = np.real(beta)
    safe = np.where(beta == 0.0, 1.0, beta)
    vel = np.where(beta == 0.0, theta_t_T, theta_t_T / safe)
    return np.abs(theta_T) ** 2 + np.abs(vel) ** 2


def _finalize(theta_T, theta_t_T, K, modes, grid):
    """SimResult of modes 1..K_sim from their (K_sim,) end states."""
    tail = float(np.sum(mode_energies(theta_T, theta_t_T, modes.beta)[K:]))
    return SimResult(theta_T, theta_t_T, tail, K, modes, grid)


def simulate_convolution(responses: ModalResponses, kernel: NormalizedKernel,
                         control: ControlSignal) -> SimResult:
    """Primary verification route, via the convolution representations
    of every row of responses, which must be modes 1..K_sim."""
    weighted, length, K = _setup(kernel, control, responses.modes)
    if responses.grid.steps + 1 != length:
        raise ConfigError("responses live on a different grid")
    F = _mode_forcing(weighted @ control.traces.T, control.profiles, length)
    # one call each: a stack would copy the batches.  z and N'*z are
    # summed after: summing them first moves theta' by rounding
    Nz, z, Npz = (convolve_end(r, F, kernel.h)
                  for r in (responses.Nz, responses.z, responses.Npz))
    return _finalize(-Nz, -(z + Npz), K, responses.modes, kernel.grid)


def simulate_march(kernel: NormalizedKernel, modes: Spectrum,
                   control: ControlSignal) -> SimResult:
    """Independent route: direct time-marching of the forced modal
    system of modes, which must be modes 1..K_sim.

    The march gives the zero-state response u of mode k to its forcing
    row (_forcing_rows), and theta_k = -s_k u is scaled afterwards.
    """
    weighted, length, K = _setup(kernel, control, modes)
    rows, scale = _forcing_rows(kernel, weighted, control, length)
    u = march_modal(kernel, modes.lambda_sq, kernel.alpha, y0=0.0,
                    forcing=rows, label=f"(sim modes 1..{len(modes)})")[:, 1]
    memory = convolve_end(kernel.N, u, kernel.h)
    u_T = u[:, -1]
    u_t = 2.0 * kernel.alpha * u_T - modes.lambda_sq * memory \
        + rows[..., 0, -1]
    return _finalize(-scale * u_T, -scale * u_t, K, modes, kernel.grid)


def achieved_coefficients(result: SimResult):
    """Read (xi, eta) off the final state, honoring the degenerate-set
    basis; an overdamped mode raises ConfigError naming it."""
    m = result.modes
    _damped_basis(m.beta, m.index)
    return (result.theta_T.copy(),
            result.theta_t_T / np.where(m.in_J, 1.0, m.beta.real))


def mode_gaps(a: SimResult, b: SimResult) -> np.ndarray:
    """End-state disagreement of two routes per mode 1..K_sim, the larger
    of |delta theta_T| and |delta theta'_T|."""
    return np.maximum(np.abs(a.theta_T - b.theta_T),
                      np.abs(a.theta_t_T - b.theta_t_T))


def route_gap(a: SimResult, b: SimResult, kernel: NormalizedKernel) -> float:
    """Largest end-state disagreement between the two routes.

    The gap is validated against the scheme allowance of the stiffest
    simulated mode; violation means one of the routes (or a shared
    ingredient) is broken, not merely inaccurate.
    """
    gap = float(np.max(mode_gaps(a, b)))
    worst = float(np.max(_consistency_tol(kernel, a.modes.beta)))
    scale = max(1.0, float(np.max(np.abs(a.theta_t_T))))
    # not (a <= tol) rather than a > tol: a NaN fails closed
    if not gap <= worst * scale:
        raise InternalConsistencyError(
            f"simulation routes disagree: gap {gap:.3e} exceeds "
            f"allowance {worst * scale:.3e}")
    return gap
