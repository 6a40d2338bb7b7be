"""Moment-problem assembly and minimum-norm control synthesis.

The controllability question reduces to prescribing the pairings of the
reversed-time control against the modal family: with members m_n and
data c_n, find g with  int m_n g = c_n  over the boundary cylinder,
then read the physical control as f(x, t) = g(x, T - t).

Index convention.  Families live on the signed index set without zero,
interleaved (+1, -1, +2, -2, ...) so that nested Gram truncations grow
symmetrically.  Member +n is the real boundary trace of mode n, the
conormal derivative of a real eigenfunction, times s_n P_n, its time
profile P_n scaled by s_n = 1/beta_n (1 on the degenerate set); member
-n is the same trace times conj(s_n P_n), the conjugate of member +n.
_members is the one place that knows this sign and scale convention.
The data extend as c_{-n} = conj(c_n); together these make the
minimum-norm solution real automatically (its conjugate solves the same
constraints inside the same span, and the solution there is unique).
The realness of the synthesized control is still asserted numerically,
on every family.

Minimum-norm mechanics.  The solution is sought in span{conj(m_k)}:
writing g = sum a_k conj(m_k), the constraints become Gram . a = c with
the Hermitian Gram G_{nk} = <m_n, m_k> (second argument conjugated).
Solving by Cholesky (numpy's factor L, then one solve against L and one
against L^H: riesz.cholesky_solve) and assembling g gives the unique
minimum-norm solution; any admissible perturbation is orthogonal to the
span and can only increase the norm, which the seeded spot-check
verifies on rank-one directions u (x) s, a uniform draw per node times
a uniform draw per time sample, each of zero mean and unit variance:
their covariance is the identity, the first two moments of an iid
Gaussian field.

Factor form.  The control is a sum of K real boundary traces times K
real time profiles.  A family's traces psi_k are real, the same trace
for the members +n and -n, so

    f(x, t) = Re sum_k a_k psi_k(x) conj(P_k(T - t))
            = sum_n trace_n(x) g_n(t),
    g_n(t)  = sum_{k = +-n} Re(a_k conj(P_k(T - t))),

read off the family alone (_factor_form), with P_k the family's scaled
profiles.  synthesize returns the control as this pair only
(ControlSignal.traces and .profiles), and no (nodes, steps+1) array of
it is ever kept.  The members are rank one too, psi_k (x) P_k (see
riesz), so every integral of a factor pair against the family or
against another factor pair splits into a node sum times a time sum:
the moment residual, the L2 norm and the min-norm spot check read the
pair in O(K^2 steps) products.

Sup norms.  The realness check (sup |Im g|) and the factor gap (sup
|traces.T @ profiles - Re g| over sup |Re g|) read every grid value of
g = sum_k a_k conj(m_k), combined from the family and the coefficients
alone, in one pass over tiles of g (_sup_pass), each dropped once read:
blocks of node rows (node_blocks; 8 of the rectangle benchmark's 257),
a single long row cut into chunks of time samples.  Every product stays
under the multiply-adds OpenBLAS runs on the calling thread; a larger
one, even a complex (4, 8) @ (8, 3928), wakes its worker pool, whose
threads then spin on the other cores after the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InternalConsistencyError, NotControllableError
from .grid import TimeGrid, trapezoid_weights
from .riesz import CONDITION_CAP, SequenceFamily, cholesky_solve, gram
from .spectral import EigenPair
from .volterra import ModalResponses, transformed_exponential

# OpenBLAS (0.3, as numpy's wheels ship it) runs a real matrix product of
# fewer multiply-adds than this on the calling thread
CALLING_THREAD_MACS = 2**19
# largest |traces.T @ profiles - Re g| synthesize accepts, relative to
# sup |Re g|
FACTOR_GAP_TOL = 1e-12


def node_blocks(nodes: int, row_macs: int) -> list:
    """Slices of consecutive node rows that cover range(nodes): as many
    rows each (at least one) as keep a product of row_macs multiply-adds
    per row under CALLING_THREAD_MACS."""
    rows = max(1, (CALLING_THREAD_MACS - 1) // row_macs)
    return [slice(s, min(s + rows, nodes)) for s in range(0, nodes, rows)]


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


@dataclass(frozen=True)
class ControlSignal:
    """The control f = traces.T @ profiles on the boundary cylinder, one
    row per mode in each factor; profiles run in the control's time t,
    the reverse of the family's."""

    traces: np.ndarray           # real, (K, nodes)
    profiles: np.ndarray         # real, (K, steps+1)
    gamma_weights: np.ndarray    # the family's boundary quadrature weights
    coefficients: np.ndarray
    residual: np.ndarray
    imag_max: float
    factor_gap: float            # sup |f - Re g(T - t)| / sup |Re g|
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


def _members(pairs: Sequence[EigenPair], profiles: np.ndarray):
    """The signed members of pairs with the time profiles P (K, ...),
    one row per pair in the order given: the rows (2K, ...), over the
    signed index set (+1, -1, +2, -2, ...), and the real traces
    (2K, nodes).  Row +n is s_n P_n and row -n its conjugate, with
    s_n = 1/beta_n (1 on the degenerate set), against the real trace of
    mode n at both; the rows are scaled in place, so the signed rows
    are the one array made.

    Raises the internal-consistency error when a trace is not real.
    """
    traces = np.array([p.trace for p in pairs])
    if np.any(traces.imag != 0):
        raise InternalConsistencyError(
            "boundary trace with a nonzero imaginary part; the control "
            "has no real factor form")
    rows = np.empty((2 * len(pairs),) + profiles.shape[1:], dtype=complex)
    rows[::2] = profiles
    scale = np.array([1.0 if p.in_J else 1.0 / p.beta for p in pairs])
    rows[::2] *= scale.reshape((-1,) + (1,) * (rows.ndim - 1))
    np.conjugate(rows[::2], out=rows[1::2])
    return (rows, tuple(x for p in pairs for x in (p.index, -p.index)),
            np.repeat(traces.real, 2, axis=0))


def telegraph_family(pairs: Sequence[EigenPair], c: float, grid: TimeGrid,
                     gamma_weights=None) -> SequenceFamily:
    """Memoryless comparator family on grid.

    The time profile is the transformed exponential with a = c,
    exp(i beta t) + (c/beta) sin(beta t), and 1 + (c + i) t on the
    degenerate set (_members scales and signs it).  gamma_weights are
    the boundary quadrature weights (DomainSpec.gamma_weights; ones by
    default).
    """
    rows, index, traces = _members(pairs,
                                   transformed_exponential(pairs, c, grid.t))
    return SequenceFamily(rows, index, "telegraph", grid, gamma_weights,
                          traces)


def viscoelastic_family(responses: ModalResponses,
                        gamma_weights=None) -> SequenceFamily:
    """Family of the modal responses Z_n (_members scales and signs
    them) against their real traces, in the batch's order of modes, on
    the batch's grid.

    gamma_weights are the boundary quadrature weights the simulator
    pairs the control with (DomainSpec.gamma_weights; ones by default).
    """
    rows, index, traces = _members(responses.pairs, responses.Z)
    return SequenceFamily(rows, index, "viscoelastic", responses.grid,
                          gamma_weights, traces)


def build_moment_problem(family: SequenceFamily,
                         target: TargetState) -> MomentProblem:
    """Align the moment data with the family's signed index set."""
    c_pos = assemble_rhs(target)
    rhs = np.empty(family.count, dtype=complex)
    for i, n in enumerate(family.index_set):
        k = abs(n) - 1
        if k >= target.K:
            raise ConfigError(f"family index {n} beyond target truncation {target.K}")
        rhs[i] = c_pos[k] if n > 0 else np.conj(c_pos[k])
    return MomentProblem(family, rhs)


def _blocked(X, Y) -> np.ndarray:
    """X @ Y summed over chunks of the inner axis, each chunk's product
    under CALLING_THREAD_MACS (node_blocks)."""
    return sum(X[:, c] @ Y[c]
               for c in node_blocks(len(Y), len(X) * Y.shape[1]))


def _conj_products(X, Y, w) -> np.ndarray:
    """sum_r w_r X_rn conj(Y_rk) for complex X and Y given as real (rows,
    2 count) arrays of interleaved real and imaginary columns: one real
    (2 count, 2 count) product per chunk of rows (_blocked)."""
    P = _blocked(X.T * w, Y)
    n = len(P) // 2
    P = P.reshape(n, 2, n, 2)
    return (P[:, 0, :, 0] + P[:, 1, :, 1]) + 1j * (P[:, 1, :, 0] - P[:, 0, :, 1])


class _RealPasses:
    """Real-arithmetic passes of a family against real factor pairs and
    against its own dense combinations.  The traces are real; the
    complex profiles enter as interleaved real and imaginary rows, and
    every product is small enough to run on the calling thread.
    """

    def __init__(self, fam: SequenceFamily):
        self.wt = trapezoid_weights(fam.grid)
        self.gw = fam.gamma_weights
        # rows Re Z_0, Im Z_0, Re Z_1, ...: B.view(float) @ Zs = Re(B @ conj Z)
        self.Zs = np.stack([fam.profiles.real, fam.profiles.imag],
                           axis=1).reshape(-1, len(self.wt))
        self.psi = np.ascontiguousarray(fam.psi.T)      # (nodes, count)
        # tiles of a dense combination: blocks of node rows, a block of
        # one row cut into chunks of time samples when the row is too long.
        # A one-row product goes to OpenBLAS's gemv, whose worker threads
        # start below the bound (~0.88 x 2^19 here): it takes half of it
        self.tiles = [(r, t) for r in node_blocks(len(self.gw), self.Zs.size)
                      for t in node_blocks(len(self.wt), len(self.Zs)
                                           * max(2, r.stop - r.start))]

    def combination(self, a, rows, cols, out):
        """Re and Im of sum_k a_k conj(member_k) on the node rows and time
        samples cols, into out (2, rows, cols);
        Im(B @ conj Z) = Re((-i B) @ conj Z)."""
        B = self.psi[rows] * a
        return np.matmul(np.stack([B.view(float), (-1j * B).view(float)]),
                         self.Zs[:, cols], out=out)

    def gram(self):
        """The Gram <m_n, m_k> from the factors alone: the boundary Gram
        (sum_x w_x psi_n psi_k) times the time Gram
        (sum_t w_t Z_n conj Z_k), entrywise."""
        return (_blocked(self.psi.T * self.gw, self.psi)
                * _conj_products(self.Zs.T, self.Zs.T, self.wt))

    def separable_pairing(self, A, B):
        """int member_k * (A_r (x) B_r) for every k and every row r of
        the real factors A (r, nodes) and B (r, steps+1), (r, count): the
        node sum (A_r w_x . psi_k) times the time sum (B_r w_t . Z_k),
        two small real products, with no dense pass."""
        return (_blocked(A * self.gw, self.psi)
                * _blocked(B * self.wt, self.Zs.T).view(complex))

    def inner(self, A, B, C, D):
        """<A_r (x) B_r, C_q (x) D_q> for every row r of the real factor
        pair (A, B) and every row q of (C, D), (r, q)."""
        return _blocked(A * self.gw, C.T) * _blocked(B * self.wt, D.T)


def _factor_form(family: SequenceFamily, coefficients: np.ndarray):
    """Real traces (K, nodes) and time profiles (K, steps+1), one row per
    (+n, -n) pair of the family's rows, with traces.T @ profiles the
    real part of the reversed-time combination sum_k a_k conj(member_k).

    Raises the config error when the rows are not such pairs of one
    trace, as _members makes them.
    """
    index, psi = family.index_set, family.psi
    if (family.count % 2 or any(n <= 0 or m != -n for n, m
                                in zip(index[::2], index[1::2]))
            or not np.array_equal(psi[::2], psi[1::2])):
        raise ConfigError("family rows are not (+n, -n) pairs of one real "
                          "trace; the control has no factor form")
    profiles = np.zeros((family.count // 2, family.profiles.shape[1]))
    for k, (ak, P) in enumerate(zip(coefficients, family.profiles)):
        profiles[k // 2] += (ak * np.conj(P[::-1])).real
    return psi[::2].copy(), profiles


def _sup_pass(dense: _RealPasses, a, traces, forward):
    """sup |Im g|, the realness scale max(1, sup |g|) and the factor gap,
    sup |traces.T @ forward - Re g| over sup |Re g|, for
    g = sum_k a_k conj(member_k) and the control's profiles forward in
    the family's time: one pass over the tiles of g (dense.tiles), each
    dropped once read."""
    # Re g and Im g of a tile, and a work tile
    g = np.empty((3, dense.tiles[0][0].stop, dense.tiles[0][1].stop))
    imag_max, sq, gap, f_max = 0.0, 0.0, 0.0, 0.0
    for rows, t in dense.tiles:
        n, m = rows.stop - rows.start, t.stop - t.start
        re, im = dense.combination(a, rows, t, g[:2, :n, :m])
        d = np.matmul(traces[:, rows].T, forward[:, t], out=g[2, :n, :m])
        np.subtract(re, d, out=d)
        # np.maximum, not max: a NaN stays NaN
        gap = np.maximum(gap, np.max(np.abs(d, out=d)))
        f_max = np.maximum(f_max, np.max(np.abs(re, out=d)))
        imag_max = np.maximum(imag_max, np.max(np.abs(im, out=d)))
        np.add(np.square(re, out=d), np.square(im, out=im), out=d)
        sq = np.maximum(sq, np.max(d))
    return imag_max, max(1.0, np.sqrt(sq)), gap / f_max if f_max > 0 else gap


def synthesize(problem: MomentProblem) -> ControlSignal:
    """Minimum-norm real control for the moment problem, in factor form
    over the family's modes (_factor_form).

    Fails closed with the not-controllable error (carrying the measured
    lower frame bound) when the Gram condition exceeds CONDITION_CAP;
    that is the numerical signature of a horizon at or below the sharp
    time.  A moment residual of the factor pair, a realness defect or a
    factor gap above its threshold, or a NaN in any of them, fails
    closed with the internal-consistency error.  The result always
    passes the min-norm spot check (seed 0, 5 rank-one directions, in
    factor form; see _min_norm_spot_check).
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

    imag_max, scale, factor_gap = _sup_pass(dense, a, *g)
    if not imag_max <= 1e-8 * scale:
        raise InternalConsistencyError(
            f"synthesized control is not real (sup imag {imag_max:.3e}); "
            "rhs extension inconsistent with member conjugation")
    if not factor_gap <= FACTOR_GAP_TOL:
        raise InternalConsistencyError(
            f"control factors rebuild the control to {factor_gap:.3e} of "
            f"its maximum, above {FACTOR_GAP_TOL:.0e}")

    # np.maximum, not max: a NaN stays NaN
    norm = float(np.sqrt(np.maximum(np.sum(dense.inner(*g, *g)), 0.0)))
    _min_norm_spot_check(dense, rep, *g, norm, seed=0, dirs=5)

    return ControlSignal(traces, profiles, fam.gamma_weights, a, residual,
                         imag_max, factor_gap, rep.cond, rep.m_N, norm,
                         fam.grid, fam.index_set)


def _spot_direction(rng, out):
    """Fill out in place with uniform draws on [-sqrt 3, sqrt 3): zero
    mean and unit variance, the spot check's seeded directions."""
    rng.random(out=out)
    out -= 0.5
    out *= 2.0 * np.sqrt(3.0)
    return out


def _spot_terms(dense: _RealPasses, rep, A, B, seed: int, dirs: int):
    """For each of the spot check's directions v = u (x) s: the moments
    m_v of v, the moments of v_perp = v - sum_k x_k conj(m_k) with
    x = rep.gram^-1 m_v, |v_perp|^2 and |g + v_perp|^2, in factor form,
    for the control g = A.T @ B given as real factors A (r, nodes) and
    B (r, steps+1) in the family's time.

    With G_f the Gram of the factors (_RealPasses.gram, not rep.gram) and
    p_g the moments of g:

        moments(v_perp) = m_v - G_f x
        |v_perp|^2      = |u|^2 |s|^2 - 2 Re(x^H m_v) + x^H G_f x
        |g + v_perp|^2  = |g|^2 + 2 (<g, u (x) s> - Re(x^H p_g))
                          + |v_perp|^2

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
    xh = np.conj(xs)
    v_sq = (uv_sq - 2.0 * np.real(np.sum(xh * moments_v, axis=1))
            + np.real(np.sum(xh * Gx, axis=1)))
    perturbed_sq = g_sq + 2.0 * (g_s - np.real(xh @ p_g)) + v_sq
    return moments_v, moments_v - Gx, v_sq, perturbed_sq


def _min_norm_spot_check(dense: _RealPasses, rep, A, B, norm,
                         seed: int, dirs: int):
    """Perturb the control g = A.T @ B, real factors A (r, nodes) and
    B (r, steps+1) of any rank r in the family's time, by random
    span-orthogonal directions; the norm must not drop.

    Moments of a conjugated-member combination are exactly Gram-column
    sums (pairing conj(m_j) against m_n gives G_{nj}), so removing the
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
