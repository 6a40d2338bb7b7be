"""Moment-problem assembly and minimum-norm control synthesis.

The controllability question reduces to prescribing the pairings of the
reversed-time control against the modal family: with members m_k and
data c_k, find g with  int m_k g = c_k  over the boundary cylinder,
then read the physical control as f(x, t) = g(x, T - t).

Real two-profile families.  Mode n ends a control at
theta_n(T) = -int V_n g and theta_n'(T) = -int U_n g (see simulate),
against its real boundary trace (the conormal derivative of a real
eigenfunction) times the real time profiles

    memory family:     U_n = z + N'*z,                    V_n = N*z
    telegraph family:  U_n = cos(beta t) + (c/beta) sin(beta t),
                       V_n = sin(beta t) / beta

(U_n = 1 + c t and V_n = t on the degenerate set, beta_n = 0).  A family
holds the real rows sqrt2 U_n / |beta_n| and sqrt2 V_n, with |beta_n|
replaced by 1 on the degenerate set, interleaved U_1, V_1, U_2, V_2, ...
over the signed index set (+1, -1, +2, -2, ...): +n is U_n and -n is
V_n.  _members is the one place that knows this scale and order.  The
data are c_{+n} = -sqrt2 eta_n and c_{-n} = -sqrt2 xi_n, with
eta_n = theta_n'(T) / |beta_n| (theta_n'(T) on the degenerate set).

Per mode the two rows are a unitary 2 x 2 map of the complex pair
m_+- = (U_n +- i beta_n V_n) / beta_n, the response
Z_n = z + N'*z + i beta_n N*z and its partner at -beta_n:
(m_+ + m_-) / sqrt2 = sqrt2 U_n / beta_n and
(m_+ - m_-) / sqrt2 = i sqrt2 V_n.  So the real Gram has the complex
Gram's eigenvalues, and the minimum-norm control is the same function.
For an overdamped mode (imaginary beta_n) the partner at -beta_n is not
the conjugate of m_+, and the rows stay independent where conjugate
pairs are real multiples of one function (Russell, SIAM Review 20,
1978; Avdonin & Ivanov, Families of Exponentials, 1995).

Minimum-norm mechanics.  The solution is sought in span{m_k}: writing
g = sum a_k m_k, the constraints become Gram . a = c with the symmetric
Gram G_{nk} = <m_n, m_k>.  Solving by Cholesky (numpy's factor L, then
one solve against L and one against L^T: riesz.cholesky_solve) and
assembling g gives the unique minimum-norm solution, real because the
members and the data are; any admissible perturbation is orthogonal to
the span and can only increase the norm, which the seeded spot-check
verifies on rank-one directions u (x) s, a uniform draw per node times
a uniform draw per time sample, each of zero mean and unit variance:
their covariance is the identity, the first two moments of an iid
Gaussian field.

Factor form.  The control is a sum of K real boundary traces times K
real time profiles.  The rows U_n and V_n share the trace of mode n, so

    f(x, t) = sum_n trace_n(x) g_n(t),
    g_n(t)  = a_{+n} P_{+n}(T - t) + a_{-n} P_{-n}(T - t),

two real coefficients per mode, read off the family alone
(_factor_form), with P_k the family's scaled profiles.  synthesize
returns the control as this pair only (ControlSignal.traces and
.profiles), and no (nodes, steps+1) array of it is ever kept.  The
members are rank one too, psi_k (x) P_k (see riesz), so every integral
of a factor pair against the family or against another factor pair
splits into a node sum times a time sum: the moment residual, the L2
norm and the min-norm spot check read the pair in O(K^2 steps)
products.

Sup norm.  The factor gap (sup |traces.T @ profiles - g| over sup |g|)
reads every grid value of g = sum_k a_k m_k, combined from the family
and the coefficients alone, in one pass over tiles of g (_sup_pass),
each dropped once read: blocks of node rows (riesz.node_blocks), a
single long row cut into chunks of time samples.  Every product stays
under the multiply-adds OpenBLAS runs on the calling thread
(riesz.CALLING_THREAD_MACS).  It is the one part of synthesize that
grows as nodes x steps x K.  Each tile takes two products (g, and the
factors' rebuild of it), one difference, and one max and one min over
g and the difference together: sup |x| = max(max x, -min x), read with
no |x| written.  |x| is exact, so the gap keeps the bits of max |x|; a
NaN propagates through max and min, and abs makes a zero +0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InternalConsistencyError, NotControllableError
from .grid import TimeGrid, trapezoid_weights
from .riesz import (CONDITION_CAP, SequenceFamily, _blocked, cholesky_solve,
                    gram, node_blocks)
from .spectral import Spectrum
from .volterra import ModalResponses

# largest |traces.T @ profiles - g| synthesize accepts, relative to sup |g|
FACTOR_GAP_TOL = 1e-12
SQRT2 = np.sqrt(2.0)


class _TargetStateFields(NamedTuple):
    xi: np.ndarray
    eta: np.ndarray
    K: int


class TargetState(_TargetStateFields):
    """Target position/velocity coefficients over the first K modes.

    xi pairs with the eigenfunction basis of the position space; eta
    pairs with the |beta|-weighted basis of the velocity space (with the
    weight dropped on the degenerate set, where the velocity coefficient
    is read directly).
    """

    __slots__ = ()

    def __new__(cls, xi, eta, K: int):
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if xi.shape != (K,) or eta.shape != (K,):
            raise ConfigError(f"targets need shape ({K},)")
        return super().__new__(cls, xi, eta, K)


class MomentProblem(NamedTuple):
    family: SequenceFamily
    rhs: np.ndarray              # real, aligned with family.index_set


class ControlSignal(NamedTuple):
    """The control f = traces.T @ profiles on the boundary cylinder, one
    row per mode in each factor; profiles run in the control's time t,
    the reverse of the family's."""

    traces: np.ndarray           # real, (K, nodes)
    profiles: np.ndarray         # real, (K, steps+1)
    gamma_weights: np.ndarray    # the family's boundary quadrature weights
    coefficients: np.ndarray     # real, aligned with index_set
    residual: np.ndarray
    factor_gap: float            # sup |f - g(T - t)| / sup |g|
    condition: float
    frame_lower: float
    norm: float
    grid: TimeGrid
    index_set: tuple

    @property
    def residual_max(self) -> float:
        return float(np.max(self.residual)) if len(self.residual) else 0.0


def assemble_rhs(target: TargetState) -> np.ndarray:
    """Moment data over the signed index set (+1, -1, +2, -2, ...):
    -sqrt2 eta_n on U_n and -sqrt2 xi_n on V_n, (2K,)."""
    return -SQRT2 * np.stack([target.eta, target.xi], axis=1).reshape(-1)


def _row_scale(beta) -> np.ndarray:
    """|beta| per mode, 1 on the degenerate set (beta = 0): a family's
    row U_n is sqrt2 U_n over it, and mode n's velocity coefficient is
    theta_n' over it (simulate)."""
    b = np.abs(beta)
    return np.where(b == 0.0, 1.0, b)


def _members(modes: Spectrum, U: np.ndarray, V: np.ndarray):
    """The rows of the family of modes with the time profiles U and V
    (K, ...), one row of each per mode in the batch's order: the rows
    (2K, ...) sqrt2 U_n / |beta_n| and sqrt2 V_n (sqrt2 U_n on the
    degenerate set), interleaved over the signed index set
    (+1, -1, +2, -2, ...), and the real traces (2K, nodes), the trace
    of mode n at both.
    """
    rows = np.empty((2 * len(modes),) + U.shape[1:], np.result_type(U, V))
    scale = SQRT2 / _row_scale(modes.beta)
    np.multiply(U, scale.reshape((-1,) + (1,) * (U.ndim - 1)), out=rows[::2])
    np.multiply(V, SQRT2, out=rows[1::2])
    return (rows, tuple(x for n in modes.index.tolist() for x in (n, -n)),
            np.repeat(modes.trace, 2, axis=0))


def telegraph_family(modes: Spectrum, c: float, grid: TimeGrid,
                     gamma_weights=None) -> SequenceFamily:
    """Memoryless comparator family on grid.

    The time profiles are U = cos(beta t) + c V and
    V = sin(beta t) / beta, with cosh and sinh of |beta| t for an
    overdamped mode (beta = i |beta|), and U = 1 + c t, V = t on the
    degenerate set (_members scales them).  gamma_weights are the
    boundary quadrature weights (DomainSpec.gamma_weights; ones by
    default).
    """
    over = modes.beta.imag != 0.0
    b = _row_scale(modes.beta)[:, None]
    bt = b * grid.t
    V, U = np.sin(bt), np.cos(bt)
    V[over], U[over] = np.sinh(bt[over]), np.cosh(bt[over])
    V /= b
    U += c * V
    V[modes.in_J] = grid.t
    U[modes.in_J] = 1.0 + c * grid.t
    rows, index, traces = _members(modes, U, V)
    return SequenceFamily(rows, index, "telegraph", grid, gamma_weights,
                          traces)


def viscoelastic_family(responses: ModalResponses,
                        gamma_weights=None) -> SequenceFamily:
    """Family of the modal responses, U_n = z + N'*z and V_n = N*z
    (_members scales them), against their real traces, in the batch's
    order of modes, on the batch's grid.

    gamma_weights are the boundary quadrature weights the simulator
    pairs the control with (DomainSpec.gamma_weights; ones by default).
    """
    rows, index, traces = _members(responses.modes,
                                   responses.z + responses.Npz, responses.Nz)
    return SequenceFamily(rows, index, "viscoelastic", responses.grid,
                          gamma_weights, traces)


def build_moment_problem(family: SequenceFamily,
                         target: TargetState) -> MomentProblem:
    """Align the moment data with the family's signed index set."""
    n = np.array(family.index_set)
    beyond = np.abs(n) > target.K
    if beyond.any():
        raise ConfigError(f"family index {n[np.argmax(beyond)]} beyond "
                          f"target truncation {target.K}")
    return MomentProblem(family,
                         assemble_rhs(target)[2 * np.abs(n) - 2 + (n < 0)])


class _RealPasses:
    """Passes of a family against real factor pairs and against its own
    dense combinations, every product small enough to run on the calling
    thread.
    """

    def __init__(self, fam: SequenceFamily):
        self.wt = trapezoid_weights(fam.grid)
        self.gw = fam.gamma_weights
        self.P = fam.profiles                           # (count, steps+1)
        self.psi = np.ascontiguousarray(fam.psi.T)      # (nodes, count)
        # tiles of a dense combination: blocks of node rows, a block of
        # one row cut into chunks of time samples when the row is too long.
        # A one-row product goes to OpenBLAS's gemv, whose worker threads
        # start below the bound (~0.88 x 2^19 here): it takes half of it
        self.tiles = [(r, t) for r in node_blocks(len(self.gw), self.P.size)
                      for t in node_blocks(len(self.wt), len(self.P)
                                           * max(2, r.stop - r.start))]

    def combination(self, a, rows, cols, out):
        """sum_k a_k member_k on the node rows and time samples cols,
        into out (rows, cols)."""
        return np.matmul(self.psi[rows] * a, self.P[:, cols], out=out)

    def gram(self):
        """The Gram <m_n, m_k> from the factors alone: the boundary Gram
        (sum_x w_x psi_n psi_k) times the time Gram
        (sum_t w_t P_n P_k), entrywise."""
        return (_blocked(self.psi.T * self.gw, self.psi)
                * _blocked(self.P * self.wt, self.P.T))

    def separable_pairing(self, A, B):
        """int member_k * (A_r (x) B_r) for every k and every row r of
        the real factors A (r, nodes) and B (r, steps+1), (r, count): the
        node sum (A_r w_x . psi_k) times the time sum (B_r w_t . P_k),
        two small real products, with no dense pass."""
        return (_blocked(A * self.gw, self.psi)
                * _blocked(B * self.wt, self.P.T))

    def inner(self, A, B, C, D):
        """<A_r (x) B_r, C_q (x) D_q> for every row r of the real factor
        pair (A, B) and every row q of (C, D), (r, q)."""
        return _blocked(A * self.gw, C.T) * _blocked(B * self.wt, D.T)


def _factor_form(family: SequenceFamily, coefficients: np.ndarray):
    """Real traces (K, nodes) and time profiles (K, steps+1), one row per
    mode, with traces.T @ profiles the reversed-time combination
    sum_k a_k member_k: the rows U_n and V_n share a trace, and mode n's
    profile is a_{+n} P_{+n} + a_{-n} P_{-n}.

    Raises the config error when the rows are not such pairs of one
    trace, as _members makes them.
    """
    psi, P, a = family.psi, family.profiles, coefficients[:, None]
    if family.count % 2 or not np.array_equal(psi[::2], psi[1::2]):
        raise ConfigError("family rows are not (U_n, V_n) pairs of one "
                          "real trace; the control has no factor form")
    return psi[::2].copy(), np.ascontiguousarray(
        (a[::2] * P[::2] + a[1::2] * P[1::2])[:, ::-1])


def _sup_pass(dense: _RealPasses, a, traces, forward):
    """The factor gap, sup |traces.T @ forward - g| over sup |g|, for
    g = sum_k a_k member_k and the control's profiles forward in the
    family's time: one pass over the tiles of g (dense.tiles), each
    dropped once read."""
    # g on a tile and the gap on it, each tile contiguous in its row
    rows, t = dense.tiles[0]
    buf = np.empty((2, rows.stop * t.stop))
    highs, lows = [], []
    for rows, t in dense.tiles:
        shape = rows.stop - rows.start, t.stop - t.start
        pair = buf[:, :shape[0] * shape[1]]
        tile = dense.combination(a, rows, t, pair[0].reshape(shape))
        d = np.matmul(traces[:, rows].T, forward[:, t],
                      out=pair[1].reshape(shape))
        np.subtract(tile, d, out=d)
        # sup |x| = max(max x, -min x), read with no |x| written
        highs.append(pair.max(axis=1))
        lows.append(pair.min(axis=1))
    # np.maximum, not max: a NaN stays NaN; abs makes a zero +0
    g_max, gap = abs(np.maximum(np.max(highs, axis=0),
                                -np.min(lows, axis=0)))
    return gap / g_max if g_max > 0 else gap


def synthesize(problem: MomentProblem) -> ControlSignal:
    """Minimum-norm real control for the moment problem, in factor form
    over the family's modes (_factor_form).

    Fails closed with the not-controllable error (carrying the measured
    lower frame bound) when the Gram condition exceeds CONDITION_CAP;
    that is the numerical signature of a horizon at or below the sharp
    time.  A moment residual of the factor pair or a factor gap above
    its threshold, or a NaN in either, fails closed with the
    internal-consistency error.  The result always passes the min-norm
    spot check (seed 0, 5 rank-one directions, in factor form; see
    _min_norm_spot_check).
    """
    fam = problem.family
    rep = gram(fam)
    if not np.isfinite(rep.cond) or rep.cond > CONDITION_CAP or rep.m_N <= 0:
        raise NotControllableError(
            f"moment problem not solvable at T={fam.grid.T:.6g}: "
            f"m_N={rep.m_N:.3e}, condition={rep.cond:.3e} (cap {CONDITION_CAP:.1e})",
            frame_lower=rep.m_N, condition=rep.cond)
    a = cholesky_solve(rep.gram, problem.rhs)
    traces, profiles = _factor_form(fam, a)
    dense = _RealPasses(fam)
    # the pair in the family's time
    g = traces, np.ascontiguousarray(profiles[:, ::-1])
    residual = np.abs(dense.separable_pairing(*g).sum(axis=0) - problem.rhs)
    rhs_scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    # not (a <= tol) rather than a > tol: a NaN fails closed
    if not float(np.max(residual)) <= 1e-6 * max(1.0, rep.cond) * rhs_scale:
        raise InternalConsistencyError(
            f"moment residual {float(np.max(residual)):.3e} out of scale "
            "for the solved condition number")

    factor_gap = _sup_pass(dense, a, *g)
    if not factor_gap <= FACTOR_GAP_TOL:
        raise InternalConsistencyError(
            f"control factors rebuild the control to {factor_gap:.3e} of "
            f"its maximum, above {FACTOR_GAP_TOL:.0e}")

    # np.maximum, not max: a NaN stays NaN
    norm = float(np.sqrt(np.maximum(np.sum(dense.inner(*g, *g)), 0.0)))
    _min_norm_spot_check(dense, rep, *g, norm, seed=0, dirs=5)

    return ControlSignal(traces, profiles, fam.gamma_weights, a, residual,
                         factor_gap, rep.cond, rep.m_N, norm, fam.grid,
                         fam.index_set)


def _spot_direction(rng, out):
    """Fill out in place with uniform draws on [-sqrt 3, sqrt 3): zero
    mean and unit variance, the spot check's seeded directions."""
    rng.random(out=out)
    out -= 0.5
    out *= 2.0 * np.sqrt(3.0)
    return out


def _spot_terms(dense: _RealPasses, rep, A, B, seed: int, dirs: int):
    """For each of the spot check's directions v = u (x) s: the moments
    m_v of v, the moments of v_perp = v - sum_k x_k m_k with
    x = rep.gram^-1 m_v, |v_perp|^2 and |g + v_perp|^2, in factor form,
    for the control g = A.T @ B given as real factors A (r, nodes) and
    B (r, steps+1) in the family's time.

    With G_f the Gram of the factors (_RealPasses.gram, not rep.gram) and
    p_g the moments of g:

        moments(v_perp) = m_v - G_f x
        |v_perp|^2      = |u|^2 |s|^2 - 2 x . m_v + x . G_f x
        |g + v_perp|^2  = |g|^2 + 2 (<g, u (x) s> - x . p_g) + |v_perp|^2

    p_g, |g|^2 and <g, u_d (x) s_d> are sums of products of the rows
    of the factors, r (count + r + dirs) of them, with no dense pass.
    """
    U, S = np.empty((dirs, A.shape[1])), np.empty((dirs, B.shape[1]))
    rng = np.random.default_rng(seed)
    for u, s in zip(U, S):
        _spot_direction(rng, u)
        _spot_direction(rng, s)
    moments_v = dense.separable_pairing(U, S)
    uv_sq = (np.square(U) @ dense.gw) * (np.square(S) @ dense.wt)
    xs = np.array([np.linalg.solve(rep.gram, m) for m in moments_v])
    Gx = xs @ dense.gram().T
    p_g = np.sum(dense.separable_pairing(A, B), axis=0)
    g_sq = np.sum(dense.inner(A, B, A, B))
    g_s = np.sum(dense.inner(A, B, U, S), axis=0)
    v_sq = (uv_sq - 2.0 * np.sum(xs * moments_v, axis=1)
            + np.sum(xs * Gx, axis=1))
    perturbed_sq = g_sq + 2.0 * (g_s - xs @ p_g) + v_sq
    return moments_v, moments_v - Gx, v_sq, perturbed_sq


def _min_norm_spot_check(dense: _RealPasses, rep, A, B, norm,
                         seed: int, dirs: int):
    """Perturb the control g = A.T @ B, real factors A (r, nodes) and
    B (r, steps+1) of any rank r in the family's time, by random
    span-orthogonal directions; the norm must not drop.

    Moments of a member combination are exactly Gram-column sums
    (pairing m_j against m_n gives G_{nj}), so removing the
    span component is a plain Gram solve; what remains has zero moments
    and by Pythagoras can only add norm.

    Each direction is a rank-one field v = u (x) s: u holds one draw per
    node and s one per time sample (_spot_direction, u first, then s),
    independent with zero mean and unit variance.  Then E v = 0 and
    E v_ij v_kl = E u_i u_k E s_j s_l = delta_ik delta_jl: Cov(v) = I,
    the first two moments of an iid Gaussian field.  For an error e
    outside the span, <e, v_perp> has mean 0 and variance |e|^2, and
    E|v_perp|^2 is unchanged, so the check is as strong.

    The members, v and the rows of the factors are rank one, so every
    term has a factor form (_spot_terms): the Gram solve uses rep.gram,
    the moments and norms of v_perp use the Gram rebuilt from the
    factors, so a wrong rep.gram leaves residual moments.  No field of
    g, v or v_perp is ever built.  A NaN in the factors, in norm or in
    the moments fails the check; |g + v_perp|^2, a difference of terms,
    is clipped at 0 against rounding.
    """
    moments_v, moments, v_sq, perturbed_sq = _spot_terms(dense, rep, A, B,
                                                         seed, dirs)
    # np.maximum, not max: a NaN stays NaN
    perturbed = np.sqrt(np.maximum(perturbed_sq, 0.0))
    bound = norm * (1.0 - 1e-9) - 1e-12
    for d in range(dirs):
        residual = float(np.max(np.abs(moments[d])))
        tol = 1e-7 * (1.0 + float(np.max(np.abs(moments_v[d])))) * rep.cond
        if not residual <= tol:
            raise InternalConsistencyError(
                f"span projection left residual moments {residual:.3e}")
        if not perturbed[d] >= bound and v_sq[d] > 0:
            raise InternalConsistencyError(
                "minimum-norm violated by a span-orthogonal perturbation")
