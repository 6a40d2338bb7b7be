"""Dirichlet spectrum of the elliptic operator and its boundary traces.

Supported geometries are the interval and the rectangle, where the
spectrum is available to spectral accuracy: analytically for constant
coefficients, through a symmetric finite-difference Sturm-Liouville
solve with Richardson extrapolation for variable 1-D coefficients.

Conventions.  Eigenfunctions are L2-normalized and satisfy
A phi_n = -lambda_n^2 phi_n with A = div(a grad) + q.  The conormal
trace is a * (outward normal derivative) on the controlled boundary
part, stored real and unscaled, exactly as the geometry code computes
it.  beta_n = sqrt(lambda_n^2 - alpha^2), 0 on the degenerate set J,
takes the principal branch, so beta is purely imaginary with
nonnegative imaginary part whenever lambda_n^2 < alpha^2.  The
1/|beta| scale of a family's rows belongs to the consumer
(control._members).

compute_eigenpairs returns the modes as one Spectrum batch, an array
per field with one row per mode in ascending lambda_n^2; Spectrum.take
is its one row selection.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, ConvergenceError

Coefficient = Union[float, Callable[[np.ndarray], np.ndarray]]

# Relative tolerance for deciding membership of the degenerate sets.
_SET_TOL = 1e-10

# Edge quadrature resolution for rectangle traces (trapezoid nodes).
_EDGE_NODES = 257

# Trace norm below which trace_diagnostics flags a mode as unobservable.
EPS_TRACE = 1e-10


class _DomainSpecFields(NamedTuple):
    geometry: str                    # "interval" | "rectangle"
    lengths: tuple                   # (l,) or (lx, ly)
    a: Coefficient
    q: Coefficient
    c: float
    gamma_subset: tuple


class DomainSpec(_DomainSpecFields):
    __slots__ = ()

    def __new__(cls, geometry: str, lengths: tuple, a: Coefficient = 1.0,
                q: Coefficient = 0.0, c: float = 0.0,
                gamma_subset: tuple = ("right",)):
        if geometry not in ("interval", "rectangle"):
            raise ConfigError(f"unknown geometry {geometry!r}")
        want = 1 if geometry == "interval" else 2
        if len(lengths) != want or any(l <= 0 for l in lengths):
            raise ConfigError(f"{geometry} needs {want} positive length(s)")
        allowed = ("left", "right") if geometry == "interval" \
            else ("left", "right", "bottom", "top")
        if not gamma_subset or any(s not in allowed for s in gamma_subset):
            raise ConfigError(f"gamma_subset must be a nonempty subset of {allowed}")
        if geometry == "rectangle":
            if callable(a) or callable(q):
                raise ConfigError("rectangle geometry requires constant a and q")
        if not callable(a) and a <= 0:
            raise ConfigError("diffusion coefficient must be positive")
        return super().__new__(cls, geometry, lengths, a, q, c, gamma_subset)

    def gamma_weights(self) -> np.ndarray:
        """Quadrature weights for the controlled boundary part.

        Interval endpoints carry the counting measure (weight 1 each);
        rectangle edges carry a trapezoid rule with _EDGE_NODES points.
        """
        if self.geometry == "interval":
            return np.ones(len(self.gamma_subset))
        ws = []
        for edge in self.gamma_subset:
            length = self.lengths[1] if edge in ("left", "right") else self.lengths[0]
            he = length / (_EDGE_NODES - 1)
            w = np.full(_EDGE_NODES, he)
            w[0] = w[-1] = 0.5 * he
            ws.append(w)
        return np.concatenate(ws)


class Spectrum(NamedTuple):
    """The modes 1..K, one row per mode in ascending lambda_sq.

    len is the mode count, not the field count, so _replace and _make,
    which check len against the field count, do not serve a Spectrum: a
    changed copy is a new Spectrum, or take's row selection.
    """

    index: np.ndarray        # (K,) int, the mode numbers
    lambda_sq: np.ndarray    # (K,)
    beta: np.ndarray         # (K,) complex
    trace: np.ndarray        # (K, nodes) real conormal traces on Gamma
    in_J: np.ndarray         # (K,) bool, beta = 0
    in_O: np.ndarray         # (K,) bool, lambda_sq = 0

    def __len__(self) -> int:
        return len(self.index)

    def take(self, rows) -> "Spectrum":
        """The batch of rows: a slice, an index array or a boolean mask."""
        return Spectrum(*(field[rows] for field in self))


def _spectrum(lambda_sq, trace, alpha: float) -> Spectrum:
    """The batch of modes 1..K from their eigenvalues (K,) and traces
    (K, nodes)."""
    lam = np.asarray(lambda_sq, dtype=float)
    d = lam - alpha * alpha
    # principal branch, imaginary part >= 0 for d < 0
    beta = np.where(np.abs(d) <= _SET_TOL * (1.0 + np.abs(lam) + alpha * alpha),
                    0.0, np.sqrt(d.astype(complex)))
    return Spectrum(np.arange(1, len(lam) + 1), lam, beta,
                    np.asarray(trace, dtype=float), beta == 0,
                    np.abs(lam) <= _SET_TOL)


def sturm_liouville_eigs(a, q, length: float, count: int, nx: int):
    """FD eigenvalues/vectors of -(a u')' - q u on (0, length), Dirichlet.

    Returns (lambda_sq, vectors, x_interior); vectors are L2-normalized
    columns with the sign fixed so the first interior value is positive.
    Second-order symmetric scheme on nx subintervals.  This is the one
    scipy call in memwave, imported here so that the constant-coefficient
    pipeline (every CLI experiment) loads numpy only.
    """
    from scipy.linalg import eigh_tridiagonal

    h = length / nx
    x = np.linspace(0.0, length, nx + 1)
    xin = x[1:-1]
    xhalf = x[:-1] + 0.5 * h
    av = a(xhalf) if callable(a) else np.full(nx, float(a))
    qv = q(xin) if callable(q) else np.full(nx - 1, float(q))
    if np.any(av <= 0):
        raise ConfigError("diffusion coefficient must be positive everywhere")
    diag = (av[:-1] + av[1:]) / (h * h) - qv
    off = -av[1:-1] / (h * h)
    try:
        lam, vec = eigh_tridiagonal(diag, off, select="i",
                                    select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Sturm-Liouville eigensolve failed: {exc}")
    # discrete l2 -> L2 normalization (interior trapezoid, boundary zeros)
    vec = vec / np.sqrt(h)
    sign = np.where(vec[0, :] >= 0, 1.0, -1.0)
    return lam, vec * sign, xin


def _interval_variable(dom: DomainSpec, count: int, alpha: float, nx: int):
    """Variable-coefficient interval path: two grids + Richardson."""
    length = dom.lengths[0]
    lam_c, _, _ = sturm_liouville_eigs(dom.a, dom.q, length, count, nx)
    lam_f, vec, xin = sturm_liouville_eigs(dom.a, dom.q, length, count, 2 * nx)
    lam = (4.0 * lam_f - lam_c) / 3.0
    if np.any(np.abs(lam_f - lam_c) > 0.2 * (1.0 + np.abs(lam_f))):
        raise ConvergenceError(
            "eigenvalue pair (h, h/2) not in the asymptotic regime",
            residual=float(np.max(np.abs(lam_f - lam_c))))
    h = length / (2 * nx)
    a_l = dom.a(np.array([0.0]))[0] if callable(dom.a) else float(dom.a)
    a_r = dom.a(np.array([length]))[0] if callable(dom.a) else float(dom.a)
    # one-sided second-order derivatives, outward normal -x on the left
    trace = [-a_l * (4.0 * vec[0] - vec[1]) / (2.0 * h) if side == "left"
             else a_r * (-4.0 * vec[-1] + vec[-2]) / (2.0 * h)
             for side in dom.gamma_subset]
    return _spectrum(lam, np.stack(trace, axis=1), alpha)


def _interval_constant(dom: DomainSpec, count: int, alpha: float):
    length = dom.lengths[0]
    a0, q0 = float(dom.a), float(dom.q)
    k = np.pi / length
    amp = np.sqrt(2.0 / length)
    n = np.arange(1, count + 1)
    # Python's float power: numpy's square rounds some (n k)^2 differently
    lam_sq = [a0 * (m * k) ** 2 - q0 for m in n.tolist()]
    trace = [-a0 * amp * n * k if side == "left"
             else a0 * amp * n * k * (-1.0) ** n for side in dom.gamma_subset]
    return _spectrum(lam_sq, np.stack(trace, axis=1), alpha)


def _rectangle(dom: DomainSpec, count: int, alpha: float):
    lx, ly = dom.lengths
    a0, q0 = float(dom.a), float(dom.q)
    # enumeration bound: lambda grows monotonically in each index, so a
    # square sweep wide enough to cover `count` modes along one axis is safe
    mmax = int(np.ceil(np.sqrt(count))) * 4 + 8
    modes = []
    for mx in range(1, mmax + 1):
        for my in range(1, mmax + 1):
            lam_sq = a0 * ((mx * np.pi / lx) ** 2 + (my * np.pi / ly) ** 2) - q0
            modes.append((lam_sq, mx, my))
    modes.sort(key=lambda m: (m[0], m[1]))
    if modes[count - 1][0] >= a0 * (mmax * np.pi / max(lx, ly)) ** 2 - q0:
        raise ConfigError("mode count too large for the enumeration bound")
    lam_sq, mx, my = zip(*modes[:count])
    mx, my = np.array(mx)[:, None], np.array(my)[:, None]

    amp = 2.0 / np.sqrt(lx * ly)
    trace = []
    for edge in dom.gamma_subset:
        # the edge's own index m, the index n along it, and their lengths
        m, n, lm, ln = (mx, my, lx, ly) if edge in ("left", "right") \
            else (my, mx, ly, lx)
        s = np.linspace(0.0, ln, _EDGE_NODES)
        profile = amp * np.sin(n * np.pi * s / ln)
        deriv = a0 * m * np.pi / lm
        trace.append(-deriv * profile if edge in ("left", "bottom")
                     else deriv * (-1.0) ** m * profile)
    return _spectrum(lam_sq, np.concatenate(trace, axis=1), alpha)


def compute_eigenpairs(domain: DomainSpec, count: int, alpha: float,
                       nx: int = 4000) -> Spectrum:
    """The first `count` modes as one Spectrum batch, sorted by
    lambda_sq, traces on Gamma.

    nx controls the coarse mesh of the variable-coefficient path (the
    fine mesh is 2*nx and the reported eigenvalues are Richardson
    extrapolated); it is ignored on analytic paths.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    try:
        # an overflow ends in the finiteness check, not in a warning
        with np.errstate(all="ignore"):
            if domain.geometry == "rectangle":
                modes = _rectangle(domain, count, alpha)
            elif callable(domain.a) or callable(domain.q):
                modes = _interval_variable(domain, count, alpha, nx)
            else:
                modes = _interval_constant(domain, count, alpha)
    except OverflowError:
        modes = None
    if modes is None or not all(np.all(np.isfinite(x)) for x in (
            modes.lambda_sq, modes.beta, modes.trace)):
        raise ConfigError(
            f"the first {count} eigenpairs of {domain.geometry} "
            f"{list(domain.lengths)} (alpha = {alpha:.6g}) leave the "
            "floating-point range")
    return modes


def trace_diagnostics(modes: Spectrum,
                      gamma_weights: Optional[np.ndarray] = None) -> dict:
    """Per-mode norms of the beta-scaled trace, with a dead-trace flag
    list.

    The norm is the weighted L2 norm over Gamma of trace / beta off the
    degenerate set and of the trace itself on it, |trace| / |beta| and
    |trace|.  A vanishing trace would contradict the observability of
    the mode from the chosen boundary part, so flagged indices indicate
    a badly chosen Gamma rather than a numerical artifact.
    """
    if not len(modes):
        raise ConfigError("trace_diagnostics needs at least one mode")
    if gamma_weights is None:
        gamma_weights = np.ones(modes.trace.shape[1])
    scaled = modes.trace / np.where(modes.in_J, 1.0, modes.beta)[:, None]
    norms = np.sqrt(np.sum(gamma_weights * np.abs(scaled) ** 2, axis=1))
    return {
        "indices": modes.index.tolist(),
        "norms": norms,
        "min": float(norms.min()),
        "max": float(norms.max()),
        "flagged": modes.index[norms < EPS_TRACE].tolist(),
        "eps_trace": EPS_TRACE,
    }
