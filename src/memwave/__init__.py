"""Boundary control of 1-D/2-D wave equations with viscoelastic memory.

The package turns a relaxation kernel and a domain into: normalized
kernel data, modal Volterra responses, Riesz-basis diagnostics for the
associated exponential-like family, minimum-norm boundary controls via
the moment method, and an independent forward verification of those
controls.  See README.md for the pipeline and the `memwave` CLI.
"""

from .config import RunConfig, SweepSpec, config_hash, from_dict, load
from .control import (ControlSignal, MomentProblem, TargetState,
                      assemble_rhs, build_moment_problem,
                      synthesize, telegraph_family, viscoelastic_family)
from .errors import (ConfigError, ConvergenceError, InternalConsistencyError,
                     MemwaveError, NotControllableError)
from .grid import TimeGrid, auto_step, make_grid, trapezoid_weights
from .kernels import (KernelSpec, NormalizedKernel, convolve, convolve_end,
                      normalize, resolvent)
from .riesz import (CONDITION_CAP, GramReport, SequenceFamily, gram,
                    gram_reports, gram_sweep)
from .simulate import (SimResult, achieved_coefficients, mode_energies,
                       mode_gaps, route_gap, simulate_convolution,
                       simulate_march)
from .spectral import (DomainSpec, Spectrum, compute_eigenpairs,
                       sturm_liouville_eigs, trace_diagnostics)
from .volterra import (ModalResponses, asymptotic_residual,
                       compute_responses, march_modal)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
