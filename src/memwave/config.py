"""Run configuration: a single JSON document drives every experiment.

Fail-closed parsing: any key the schema does not know is an error that
names the offending path, so a typo cannot silently fall back to a
default.  The config hash (first 12 hex digits of the sha256 of the
canonicalized document) names the artifact directory and is stamped
into every file written, which makes reruns byte-reproducible and
collisions between different configs visible.
"""

from __future__ import annotations

import json
import math
import sys
from typing import NamedTuple, Optional

import numpy as np

try:        # CPython's own sha256: hashlib loads OpenSSL's (~3 ms)
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import ConfigError
from .kernels import KernelSpec
from .spectral import DomainSpec

EXPERIMENTS = ("spectrum", "responses", "gram", "synthesize", "verify", "sweep-T")

# section -> allowed keys; None marks a scalar leaf
_SCHEMA = {
    "experiment": None,
    "domain": {"geometry", "lengths", "a", "q", "c", "gamma_subset"},
    "kernel": {"family", "coefficients", "rates", "samples"},
    "T": None,
    "h": None,
    "K": None,
    "N_modes": None,
    "K_sim": None,
    "target": {"xi", "eta"},
    "sweep": {"T_min", "T_max", "steps"},
    "out": None,
    "seed": None,
}


class SweepSpec(NamedTuple):
    T_min: float
    T_max: float
    steps: int

    def horizons(self) -> np.ndarray:
        return np.linspace(self.T_min, self.T_max, self.steps)


class RunConfig(NamedTuple):
    experiment: str
    domain: DomainSpec
    kernel: KernelSpec
    T: Optional[float]
    h: object                   # float or the literal string "auto"
    K: int
    N_modes: int
    K_sim: int
    target: object              # {"xi": [...], "eta": [...]}, "random", or None
    sweep: Optional[SweepSpec]
    out: Optional[str]
    seed: int
    raw: dict                   # the document, canonicalized into hash

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()[:12]


def _unknown_keys(doc: dict) -> list:
    bad = []
    for key, val in doc.items():
        if key not in _SCHEMA:
            bad.append(key)
            continue
        allowed = _SCHEMA[key]
        if allowed is not None and isinstance(val, dict):
            bad.extend(f"{key}.{sub}" for sub in val if sub not in allowed)
    return bad


def _number(doc, key, default=None, required=False, integer=False, low=None):
    if key not in doc or doc[key] is None:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key} must be a number, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {val!r}")
    if integer:
        if int(val) != val:
            raise ConfigError(f"{key} must be an integer, got {val!r}")
        val = int(val)
    if low is not None and val <= low:
        raise ConfigError(f"{key} must be > {low}, got {val}")
    return val


def _numbers(values, path) -> tuple:
    """A list-valued key, every entry checked as _number checks a scalar."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path} must be a list")
    return tuple(_number({path: v}, path, required=True) for v in values)


def _build_domain(doc: dict) -> DomainSpec:
    sec = doc.get("domain")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'domain' section")
    if "geometry" not in sec or "lengths" not in sec:
        raise ConfigError("domain section needs 'geometry' and 'lengths'")
    lengths = tuple(float(l) for l in _numbers(sec["lengths"],
                                               "domain.lengths"))
    # the config surface supports constant coefficients only; variable
    # a(x), q(x) are a library-level feature (callables cannot be JSON)
    a = _number(sec, "a", default=1.0, low=0.0)
    q = _number(sec, "q", default=0.0)
    c = _number(sec, "c", default=0.0)
    gamma = sec.get("gamma_subset", ["right"])
    if not (isinstance(gamma, (list, tuple))
            and all(isinstance(edge, str) for edge in gamma)):
        raise ConfigError("domain.gamma_subset must be a list of edge names")
    if len(set(gamma)) != len(gamma):
        # a repeated edge would count its quadrature weights twice
        raise ConfigError(f"domain.gamma_subset repeats an edge: {gamma}")
    return DomainSpec(sec["geometry"], lengths,
                      a=a, q=q, c=c, gamma_subset=tuple(gamma))


def _build_kernel(doc: dict, c: float) -> KernelSpec:
    sec = doc.get("kernel")
    if sec is None:
        return KernelSpec("zero", c=c)
    if not isinstance(sec, dict) or "family" not in sec:
        raise ConfigError("kernel section needs a 'family'")
    samples = sec.get("samples")
    if samples is not None:
        samples = np.asarray(_numbers(samples, "kernel.samples"), dtype=float)
    return KernelSpec(sec["family"], c=c,
                      coefficients=_numbers(sec.get("coefficients", ()),
                                            "kernel.coefficients"),
                      rates=_numbers(sec.get("rates", ()), "kernel.rates"),
                      samples=samples)


def _build_target(doc: dict, K: int):
    tgt = doc.get("target")
    if tgt is None or tgt == "random":
        return tgt
    if not isinstance(tgt, dict):
        raise ConfigError("target must be 'random' or an object with xi, eta")
    xi = np.asarray(_numbers(tgt.get("xi", ()), "target.xi"), dtype=float)
    eta = np.asarray(_numbers(tgt.get("eta", ()), "target.eta"), dtype=float)
    if xi.shape != (K,) or eta.shape != (K,):
        raise ConfigError(
            f"target.xi and target.eta must each list K={K} numbers")
    return {"xi": xi, "eta": eta}


def from_dict(doc: dict, experiment: Optional[str] = None) -> RunConfig:
    """Validate a parsed config document.  `experiment` is the CLI
    subcommand; it fills in a missing experiment key and must agree
    with an explicit one."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    bad = _unknown_keys(doc)
    if bad:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(bad)))

    exp = doc.get("experiment", experiment)
    if exp == "sweep-t":
        exp = "sweep-T"
    if exp is None:
        raise ConfigError("no experiment requested (key or subcommand)")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; one of {EXPERIMENTS}")
    if experiment is not None and exp != experiment:
        raise ConfigError(
            f"config says experiment={exp!r} but the {experiment!r} "
            "subcommand was invoked")

    domain = _build_domain(doc)
    kernel = _build_kernel(doc, domain.c)

    K = _number(doc, "K", default=12, integer=True, low=0)
    N_modes = _number(doc, "N_modes", default=max(40, K), integer=True, low=0)
    if N_modes < K:
        raise ConfigError(f"N_modes={N_modes} smaller than truncation K={K}")
    K_sim = _number(doc, "K_sim", default=4 * K, integer=True, low=0)
    if exp == "verify" and K_sim < K:
        raise ConfigError(f"verify simulates the K={K} controlled modes, "
                          f"so K_sim={K_sim} must be at least K")

    needs_T = exp in ("responses", "gram", "synthesize", "verify")
    T = _number(doc, "T", required=needs_T, low=0.0)

    h = doc.get("h", "auto")
    if h != "auto":
        h = _number(doc, "h", low=0.0)

    sweep = None
    if "sweep" in doc and doc["sweep"] is not None:
        sec = doc["sweep"]
        if not isinstance(sec, dict):
            raise ConfigError("sweep must be an object with T_min, T_max, "
                              "steps")
        sweep = SweepSpec(_number(sec, "T_min", required=True, low=0.0),
                          _number(sec, "T_max", required=True, low=0.0),
                          _number(sec, "steps", required=True, integer=True,
                                  low=0))
        if sweep.steps == 1 and sweep.T_min != sweep.T_max:
            raise ConfigError(
                "a one-horizon sweep needs T_min == T_max, got "
                f"[{sweep.T_min}, {sweep.T_max}]")
        if sweep.steps > 1 and not sweep.T_min < sweep.T_max:
            raise ConfigError(
                f"sweep needs T_min < T_max, got [{sweep.T_min}, {sweep.T_max}]")
    if exp == "sweep-T" and sweep is None:
        raise ConfigError("experiment sweep-T needs a 'sweep' section")

    target = _build_target(doc, K)
    if exp in ("synthesize", "verify") and target is None:
        raise ConfigError(f"experiment {exp} needs a 'target'")

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    seed = _number(doc, "seed", default=0, integer=True)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")

    return RunConfig(exp, domain, kernel, T, h, K, N_modes, K_sim,
                     target, sweep, out, seed, raw=doc)


def _reject_constant(token):
    raise ConfigError(f"config holds the non-finite number {token}")


def load(path: str, experiment: Optional[str] = None,
         h: Optional[float] = None) -> RunConfig:
    """Read and validate a config file.  A step h (the CLI's --grid-h)
    is written into the document as its "h" key before validation, so
    it is checked like one and enters the config hash."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if h is not None and isinstance(doc, dict):
        doc["h"] = h
    return from_dict(doc, experiment)
