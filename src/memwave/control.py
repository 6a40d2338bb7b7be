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
Solving by Cholesky (numpy's factor L, then one solve against L and one
against L^H: riesz.cholesky_solve) and assembling g gives the unique
minimum-norm solution; any admissible perturbation is orthogonal to the
span and can only increase the norm, which the seeded spot-check
verifies on rank-one directions u (x) s, a uniform draw per node times
a uniform draw per time sample, each of zero mean and unit variance:
their covariance is the identity, the first two moments of an iid
Gaussian field.  Members are kept as factors psi_n (x) Z_n (see riesz),
so a direction, its projection off the span and the Gram all stay in
factor form: the moments of u (x) s are a node sum times a time sum,
and the moments and norm of the projected direction are small
expressions in the Gram rebuilt from the factors.  g is held as two
real (nodes, steps+1) arrays, Re g and Im g, and the control f is a
time-reversed copy of Re g.

Dense passes.  Every pass over a (nodes, steps+1) array (building g,
its moments, its realness, its norm, and the spot check's one pass over
g) is real arithmetic on blocks of node rows (_RealPasses), as many
rows as keep each product under the multiply-adds OpenBLAS runs on the
calling thread (node_blocks): 8 of the rectangle benchmark's 257 (6 for
the spot check's product, widened by one column per direction), all
nodes of a small grid.  The spot check's Gram of the factors sums real
products over chunks of nodes and of time samples under the same bound.
A larger product, and even a complex (4, 8) @ (8, 3928), wakes
OpenBLAS's worker pool, whose threads then spin on the other cores for
a while after the call returns.

Factor form.  The control is a sum of K real boundary traces times K
real time profiles.  Each psi_k is a scalar times the real trace of its
mode, psi_{+n} = s_n trace_n and psi_{-n} = conj(s_n) trace_n with
s_n = 1/beta_n (1 on the degenerate set), so for any coefficients

    f(x, t) = Re sum_k conj(psi_k(x)) a_k conj(Z_k(T - t))
            = sum_n trace_n(x) g_n(t),
    g_n(t)  = sum_{k = +-n} Re(conj(s_k) a_k conj(Z_k(T - t))).

control_factors returns (trace_n) and (g_n); the CLI writes these and
not the dense f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InternalConsistencyError, NotControllableError
from .grid import TimeGrid, make_grid, trapezoid_weights
from .kernels import NormalizedKernel
from .riesz import CONDITION_CAP, SequenceFamily, cholesky_solve, gram
from .spectral import EigenPair
from .volterra import (ModalResponses, comparator_profile, refined_S,
                       transformed_exponential)

# OpenBLAS (0.3, as numpy's wheels ship it) runs a real matrix product of
# fewer multiply-adds than this on the calling thread
CALLING_THREAD_MACS = 2**19


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


def viscoelastic_family(responses: ModalResponses,
                        gamma_weights=None) -> SequenceFamily:
    """Family of modal responses against their trace profiles, Z_n psi_n,
    in the batch's order of modes, on the batch's grid.

    gamma_weights are the boundary quadrature weights the simulator
    pairs the control with (DomainSpec.gamma_weights; ones by default).
    """
    pairs = responses.pairs
    return SequenceFamily(_signed(responses.Z),
                          _signed_index([p.index for p in pairs]),
                          "viscoelastic", responses.grid, gamma_weights,
                          _signed([p.psi for p in pairs]))


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


def _conj_products(X, Y, chunks) -> np.ndarray:
    """sum_r X_rn conj(Y_rk) for complex X and Y given as real (rows,
    2 count) arrays of interleaved real and imaginary columns: one real
    (2 count, 2 count) product per chunk of rows."""
    P = sum(X[r].T @ Y[r] for r in chunks)
    n = len(P) // 2
    P = P.reshape(n, 2, n, 2)
    return (P[:, 0, :, 0] + P[:, 1, :, 1]) + 1j * (P[:, 1, :, 0] - P[:, 0, :, 1])


class _RealPasses:
    """Real-arithmetic passes over dense (nodes, steps+1) grid functions
    u = re + i im of a family, one block of node rows (node_blocks) at a
    time: each product of a block, (rows, 2 count) @ (2 count, steps+1)
    or (rows, steps+1) @ (steps+1, 2 count), is real and small enough to
    run on the calling thread.  Complex factors enter as interleaved real
    and imaginary rows or columns.
    """

    def __init__(self, fam: SequenceFamily):
        self.wt = trapezoid_weights(fam.grid)
        self.gw = fam.gamma_weights
        # u @ W, viewed as complex, is u @ (Z w_t).T for a real dense u
        self.W = np.ascontiguousarray((fam.profiles * self.wt).T).view(float)
        # rows Re Z_0, Im Z_0, Re Z_1, ...: B.view(float) @ Zs = Re(B @ conj Z)
        self.Zs = np.stack([fam.profiles.real, fam.profiles.imag],
                           axis=1).reshape(-1, len(self.wt))
        self.psi_w = (fam.psi * fam.gamma_weights).T
        # u @ psi_wf, viewed as complex, is u @ psi_w for a real u; a
        # copy, since psi_w's transposed layout fixes pairing's sum order
        self.psi_wf = np.ascontiguousarray(self.psi_w).view(float)
        self.conj_psi = np.ascontiguousarray(np.conj(fam.psi).T)
        self.blocks = node_blocks(len(self.gw), self.W.size)
        # time samples per (2 count, 2 count) product of the time Gram
        self.chunks = node_blocks(len(self.wt), len(self.Zs) ** 2)
        self.sq = np.empty((self.blocks[0].stop, len(self.wt)))

    def combination(self, a, rows, out):
        """Re and Im of sum_k a_k conj(member_k) on the node rows, into
        out (2, rows, steps+1); Im(B @ conj Z) = Re((-i B) @ conj Z)."""
        B = self.conj_psi[rows] * a
        return np.matmul(np.stack([B.view(float), (-1j * B).view(float)]),
                         self.Zs, out=out)

    def gram(self):
        """The Gram <m_n, m_k> from the factors alone: the boundary Gram
        (sum_x w_x psi_n conj psi_k) times the time Gram
        (sum_t w_t Z_n conj Z_k), entrywise."""
        psi = np.conj(self.conj_psi).view(float)
        boundary = _conj_products(self.psi_wf, psi,
                                  node_blocks(len(psi), len(self.Zs) ** 2))
        return boundary * _conj_products(self.W, self.Zs.T, self.chunks)

    def pairing(self, rows, re, im):
        """The node rows' share of int member_k * u, for every k."""
        q = (re @ self.W).view(complex) + 1j * (im @ self.W).view(complex)
        return np.sum(self.psi_w[rows] * q, axis=0)

    def separable_pairing(self, u, s):
        """int member_k * (u (x) s) for every k, for real node values u
        and time values s: the product (u . psi_w[:, k]) (s @ W)_k of
        two small real products, with no dense pass."""
        return (u @ self.psi_wf).view(complex) * (s @ self.W).view(complex)

    def abs_sq(self, rows, re, im):
        """|u|^2 = re^2 + im^2 on the node rows, a new block, and its
        weighted integral: the node rows' share of the norm squared."""
        sq = np.square(re)
        sq += np.square(im, out=self.sq[:rows.stop - rows.start])
        return sq, float(self.gw[rows] @ (sq @ self.wt))

    def norm_sq(self, rows, re, im):
        """The node rows' share of the weighted L2 norm squared of u, with
        no block allocated."""
        sq = self.sq[:rows.stop - rows.start]
        total = np.square(re, out=sq) @ self.wt
        total += np.square(im, out=sq) @ self.wt
        return float(self.gw[rows] @ total)


def synthesize(problem: MomentProblem) -> ControlSignal:
    """Minimum-norm real control for the moment problem.

    Fails closed with the not-controllable error (carrying the measured
    lower frame bound) when the Gram condition exceeds CONDITION_CAP;
    that is the numerical signature of a horizon at or below the sharp
    time.  A moment residual or a realness defect above its threshold,
    or a NaN in either, fails closed with the internal-consistency
    error.  The result always passes the min-norm spot check (seed 0,
    5 rank-one directions in factor form, one dense pass over g; see
    _min_norm_spot_check).
    """
    fam = problem.family
    rep = gram(fam)
    if not np.isfinite(rep.cond) or rep.cond > CONDITION_CAP or rep.m_N <= 0:
        raise NotControllableError(
            f"moment problem not solvable at T={problem.horizon:.6g}: "
            f"m_N={rep.m_N:.3e}, condition={rep.cond:.3e} (cap {CONDITION_CAP:.1e})",
            frame_lower=rep.m_N, condition=rep.cond)
    a = cholesky_solve(rep.gram, problem.rhs)
    dense = _RealPasses(fam)
    g = np.empty((2, fam.psi.shape[1], fam.grid.steps + 1))   # Re g, Im g
    moments, norm_sq, g_sq_max, imag_max = 0.0, 0.0, 0.0, 0.0
    for rows in dense.blocks:
        re, im = dense.combination(a, rows, g[:, rows])
        moments = moments + dense.pairing(rows, re, im)
        # one square of the block gives the norm and the realness scale
        sq, block_norm_sq = dense.abs_sq(rows, re, im)
        norm_sq += block_norm_sq
        # np.maximum, not max: a NaN stays NaN
        g_sq_max = np.maximum(g_sq_max, np.max(sq))
        imag_max = np.maximum(imag_max, np.max(np.abs(im)))
    residual = np.abs(moments - problem.rhs)
    rhs_scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    # not (a <= tol) rather than a > tol: a NaN fails closed
    if not float(np.max(residual)) <= 1e-6 * max(1.0, rep.cond) * rhs_scale:
        raise InternalConsistencyError(
            f"moment residual {float(np.max(residual)):.3e} out of scale "
            "for the solved condition number")

    imag_max = float(imag_max)
    scale = max(1.0, float(np.sqrt(g_sq_max)))
    if _is_symmetric(fam.index_set) and not imag_max <= 1e-8 * scale:
        raise InternalConsistencyError(
            f"synthesized control is not real (sup imag {imag_max:.3e}); "
            "rhs extension inconsistent with member conjugation")

    norm = float(np.sqrt(norm_sq))
    _min_norm_spot_check(dense, rep, g, norm, seed=0, dirs=5)

    return ControlSignal(g[0, :, ::-1].copy(), a, residual, imag_max,
                         rep.cond, rep.m_N, norm, fam.grid, fam.index_set)


def control_factors(family: SequenceFamily, coefficients: np.ndarray,
                    pairs: Sequence[EigenPair]):
    """Real traces (K, nodes) and time profiles (K, steps+1), one row per
    pair in the order given, with traces.T @ profiles the real part of
    the reversed-time combination sum_k a_k conj(member_k).

    Raises the internal-consistency error when a trace is not real.
    """
    row = {p.index: i for i, p in enumerate(pairs)}
    if {abs(n) for n in family.index_set} != set(row):
        raise ConfigError("pairs do not match the family's modes")
    traces = np.array([p.trace for p in pairs])
    if np.any(traces.imag != 0):
        raise InternalConsistencyError(
            "boundary trace with a nonzero imaginary part; the control "
            "has no real factor form")
    s = np.array([1.0 if p.in_J else 1.0 / p.beta for p in pairs])
    s_k = np.array([s[row[n]] if n > 0 else np.conj(s[row[-n]])
                    for n in family.index_set])
    w = np.conj(s_k) * np.asarray(coefficients)
    terms = np.real(w[:, None] * np.conj(family.profiles[:, ::-1]))
    profiles = np.zeros((len(pairs), terms.shape[1]))
    np.add.at(profiles, [row[abs(n)] for n in family.index_set], terms)
    return traces.real.copy(), profiles


def _spot_direction(rng, out):
    """Fill out in place with uniform draws on [-sqrt 3, sqrt 3): zero
    mean and unit variance, the spot check's seeded directions."""
    rng.random(out=out)
    out -= 0.5
    out *= 2.0 * np.sqrt(3.0)
    return out


def _spot_terms(dense: _RealPasses, rep, g, seed: int, dirs: int):
    """For each of the spot check's directions v = u (x) s: the moments
    m_v of v, the moments of v_perp = v - sum_k x_k conj(m_k) with
    x = rep.gram^-1 m_v, |v_perp|^2 and |g + v_perp|^2, in factor form.

    With G_f the Gram of the factors (_RealPasses.gram, not rep.gram) and
    p_g the moments of g:

        moments(v_perp) = m_v - G_f x
        |v_perp|^2      = |u|^2 |s|^2 - 2 Re(x^H m_v) + x^H G_f x
        |g + v_perp|^2  = |g|^2 + 2 (<Re g, u (x) s> - Re(x^H p_g))
                          + |v_perp|^2

    Only p_g, |g|^2 and <Re g, u_d (x) s_d> read g, all from one pass
    over its node-row blocks: one real product of a block of Re g and
    Im g against W widened by the columns s_d w_t, and the block's
    squares.
    """
    nodes, samples = g.shape[1:]
    n = len(dense.Zs)
    # the one product's columns: W, then s_d w_t per direction
    wide = np.empty((samples, n + dirs))
    wide[:, :n] = dense.W
    U, s = np.empty((dirs, nodes)), np.empty(samples)
    moments_v, uv_sq = np.empty((dirs, n // 2), dtype=complex), np.empty(dirs)
    rng = np.random.default_rng(seed)
    for d, u in enumerate(U):
        _spot_direction(rng, u)
        _spot_direction(rng, s)
        moments_v[d] = dense.separable_pairing(u, s)
        uv_sq[d] = (np.square(u) @ dense.gw) * (np.square(s) @ dense.wt)
        np.multiply(s, dense.wt, out=wide[:, n + d])
    xs = np.array([np.linalg.solve(rep.gram, m) for m in moments_v])
    Gx = xs @ dense.gram().T
    p_g, g_s, g_sq = 0.0, 0.0, 0.0
    for rows in node_blocks(nodes, wide.size):
        q = np.matmul(g[:, rows], wide)
        q_c = q[..., :n].view(complex)
        p_g = p_g + np.sum(dense.psi_w[rows] * (q_c[0] + 1j * q_c[1]), axis=0)
        g_s = g_s + np.einsum("dx,x,xd->d", U[:, rows], dense.gw[rows],
                              q[0, :, n:])
        g_sq += dense.norm_sq(rows, *g[:, rows])
    xh = np.conj(xs)
    v_sq = (uv_sq - 2.0 * np.real(np.sum(xh * moments_v, axis=1))
            + np.real(np.sum(xh * Gx, axis=1)))
    perturbed_sq = g_sq + 2.0 * (g_s - np.real(xh @ p_g)) + v_sq
    return moments_v, moments_v - Gx, v_sq, perturbed_sq


def _min_norm_spot_check(dense: _RealPasses, rep, g, norm,
                         seed: int, dirs: int):
    """Perturb g, given as (2, nodes, steps+1) Re g and Im g, by random
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

    The members and v are rank one, so everything the check reads from
    v_perp has a factor form (_spot_terms): the Gram solve uses rep.gram,
    the moments and norms of v_perp use the Gram rebuilt from the
    factors, so a wrong rep.gram leaves residual moments.  The one dense
    pass is over g, and no field of v or v_perp is ever built.  A NaN in
    g, in norm or in the moments fails the check; |g + v_perp|^2, a
    difference of terms, is clipped at 0 against rounding.
    """
    moments_v, moments, v_sq, perturbed_sq = _spot_terms(dense, rep, g,
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
