"""Dirichlet spectrum of the elliptic operator and its boundary traces.

Supported geometries are the interval and the rectangle, where the
spectrum is available to spectral accuracy: analytically for constant
coefficients, through a symmetric finite-difference Sturm-Liouville
solve with Richardson extrapolation for variable 1-D coefficients.

Conventions.  Eigenfunctions are L2-normalized and satisfy
A phi_n = -lambda_n^2 phi_n with A = div(a grad) + q.  The conormal
trace is a * (outward normal derivative) on the controlled boundary
part.  Off the degenerate set J the stored trace profile is divided by
beta_n = sqrt(lambda_n^2 - alpha^2); on J it is stored unscaled.  The
square root uses the principal branch, so beta is purely imaginary with
nonnegative imaginary part whenever lambda_n^2 < alpha^2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ConvergenceError

Coefficient = Union[float, Callable[[np.ndarray], np.ndarray]]

# Relative tolerance for deciding membership of the degenerate sets.
_SET_TOL = 1e-10

# Edge quadrature resolution for rectangle traces (trapezoid nodes).
_EDGE_NODES = 257

# Trace norm below which trace_diagnostics flags a mode as unobservable.
EPS_TRACE = 1e-10


@dataclass(frozen=True)
class DomainSpec:
    geometry: str                    # "interval" | "rectangle"
    lengths: tuple                   # (l,) or (lx, ly)
    a: Coefficient = 1.0
    q: Coefficient = 0.0
    c: float = 0.0
    gamma_subset: tuple = ("right",)

    def __post_init__(self):
        if self.geometry not in ("interval", "rectangle"):
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        want = 1 if self.geometry == "interval" else 2
        if len(self.lengths) != want or any(l <= 0 for l in self.lengths):
            raise ConfigError(f"{self.geometry} needs {want} positive length(s)")
        allowed = ("left", "right") if self.geometry == "interval" \
            else ("left", "right", "bottom", "top")
        if not self.gamma_subset or any(s not in allowed for s in self.gamma_subset):
            raise ConfigError(f"gamma_subset must be a nonempty subset of {allowed}")
        if self.geometry == "rectangle":
            if callable(self.a) or callable(self.q):
                raise ConfigError("rectangle geometry requires constant a and q")
        if not callable(self.a) and self.a <= 0:
            raise ConfigError("diffusion coefficient must be positive")

    @property
    def dim(self) -> int:
        return 1 if self.geometry == "interval" else 2

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


@dataclass(frozen=True)
class EigenPair:
    index: int
    lambda_sq: float
    beta: complex
    psi: np.ndarray          # trace profile on Gamma nodes (complex)
    in_J: bool
    in_O: bool

    @property
    def trace(self) -> np.ndarray:
        """Unscaled conormal trace values (psi with the beta scaling undone)."""
        return self.psi if self.in_J else self.psi * self.beta


def _beta_from(lambda_sq: float, alpha: float) -> complex:
    d = lambda_sq - alpha * alpha
    if abs(d) <= _SET_TOL * (1.0 + abs(lambda_sq) + alpha * alpha):
        return 0.0 + 0.0j
    b = cmath.sqrt(complex(d, 0.0))
    if b.imag < 0:
        b = -b
    return b


def _pair(index, lambda_sq, trace, alpha) -> EigenPair:
    beta = _beta_from(lambda_sq, alpha)
    in_J = beta == 0
    in_O = abs(lambda_sq) <= _SET_TOL
    trace = np.asarray(trace, dtype=complex)
    psi = trace if in_J else trace / beta
    return EigenPair(index, float(lambda_sq), beta, psi, in_J, in_O)


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
    pairs = []
    for i in range(count):
        v = vec[:, i]
        tr = []
        for side in dom.gamma_subset:
            if side == "left":
                # one-sided second-order derivative, outward normal -x
                tr.append(-a_l * (4.0 * v[0] - v[1]) / (2.0 * h))
            else:
                tr.append(a_r * (-4.0 * v[-1] + v[-2]) / (2.0 * h))
        pairs.append(_pair(i + 1, lam[i], np.array(tr), alpha))
    return pairs


def _interval_constant(dom: DomainSpec, count: int, alpha: float):
    length = dom.lengths[0]
    a0, q0 = float(dom.a), float(dom.q)
    k = np.pi / length
    amp = np.sqrt(2.0 / length)
    pairs = []
    for n in range(1, count + 1):
        lam_sq = a0 * (n * k) ** 2 - q0
        tr = []
        for side in dom.gamma_subset:
            if side == "left":
                tr.append(-a0 * amp * n * k)
            else:
                tr.append(a0 * amp * n * k * (-1.0) ** n)
        pairs.append(_pair(n, lam_sq, np.array(tr), alpha))
    return pairs


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
    modes = modes[:count]

    amp = 2.0 / np.sqrt(lx * ly)
    pairs = []
    for idx, (lam_sq, mx, my) in enumerate(modes):
        tr = []
        for edge in dom.gamma_subset:
            if edge in ("left", "right"):
                s = np.linspace(0.0, ly, _EDGE_NODES)
                profile = amp * np.sin(my * np.pi * s / ly)
                deriv = a0 * mx * np.pi / lx
                tr.append(-deriv * profile if edge == "left"
                          else deriv * (-1.0) ** mx * profile)
            else:
                s = np.linspace(0.0, lx, _EDGE_NODES)
                profile = amp * np.sin(mx * np.pi * s / lx)
                deriv = a0 * my * np.pi / ly
                tr.append(-deriv * profile if edge == "bottom"
                          else deriv * (-1.0) ** my * profile)
        pairs.append(_pair(idx + 1, lam_sq, np.concatenate(tr), alpha))
    return pairs


def compute_eigenpairs(domain: DomainSpec, count: int, alpha: float,
                       nx: int = 4000) -> list:
    """First `count` eigenpairs sorted by lambda_sq, traces on Gamma.

    nx controls the coarse mesh of the variable-coefficient path (the
    fine mesh is 2*nx and the reported eigenvalues are Richardson
    extrapolated); it is ignored on analytic paths.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    try:
        if domain.geometry == "rectangle":
            pairs = _rectangle(domain, count, alpha)
        elif callable(domain.a) or callable(domain.q):
            pairs = _interval_variable(domain, count, alpha, nx)
        else:
            pairs = _interval_constant(domain, count, alpha)
    except OverflowError:
        pairs = None
    if pairs is None or not all(
            np.isfinite(p.lambda_sq) and np.isfinite(p.beta)
            and np.all(np.isfinite(p.psi)) for p in pairs):
        raise ConfigError(
            f"the first {count} eigenpairs of {domain.geometry} "
            f"{list(domain.lengths)} (alpha = {alpha:.6g}) leave the "
            "floating-point range")
    return pairs


def trace_diagnostics(pairs: Sequence[EigenPair],
                      gamma_weights: Optional[np.ndarray] = None) -> dict:
    """Per-mode trace norms with a dead-trace flag list.

    A vanishing trace would contradict the observability of the mode
    from the chosen boundary part, so flagged indices indicate a badly
    chosen Gamma rather than a numerical artifact.
    """
    if not pairs:
        raise ConfigError("trace_diagnostics needs at least one pair")
    if gamma_weights is None:
        gamma_weights = np.ones(len(pairs[0].psi))
    norms = np.array([np.sqrt(np.sum(gamma_weights * np.abs(p.psi) ** 2))
                      for p in pairs])
    flagged = [p.index for p, nrm in zip(pairs, norms) if nrm < EPS_TRACE]
    return {
        "indices": [p.index for p in pairs],
        "norms": norms,
        "min": float(norms.min()),
        "max": float(norms.max()),
        "flagged": flagged,
        "eps_trace": EPS_TRACE,
    }
