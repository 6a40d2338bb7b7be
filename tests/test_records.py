"""memwave's records are immutable NamedTuples.  The five that check
their input (TimeGrid, KernelSpec, DomainSpec, SequenceFamily,
TargetState) refuse bad input and normalise good input at construction;
the batch records select rows and horizons without changing a bit."""

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import memwave
from memwave import (ConfigError, DomainSpec, KernelSpec, SequenceFamily,
                     TargetState, TimeGrid, build_moment_problem,
                     compute_eigenpairs, compute_responses, from_dict, gram,
                     normalize, simulate_convolution, synthesize,
                     viscoelastic_family)
from memwave.exact import exact_modes

PI = math.pi
RECORDS = ("ControlSignal", "DomainSpec", "ExactModes", "GramReport",
           "KernelSpec", "KernelTerms", "ModalResponses", "MomentProblem",
           "NormalizedKernel", "RunConfig", "SequenceFamily", "SimResult",
           "Spectrum", "SweepSpec", "TargetState", "TimeGrid")


@pytest.fixture(scope="module")
def examples():
    """One record of each class, from a K = 3 synthesis and simulation
    on the interval of length pi with M = exp(-t)."""
    cfg = from_dict({"experiment": "sweep-T",
                     "domain": {"geometry": "interval", "lengths": [PI]},
                     "kernel": {"family": "exponential_sum",
                                "coefficients": [1.0], "rates": [1.0]},
                     "K": 3, "sweep": {"T_min": PI, "T_max": 2 * PI,
                                       "steps": 2}})
    kernel = normalize(cfg.kernel, TimeGrid(2.5 * PI, 400))
    modes = compute_eigenpairs(cfg.domain, 3, kernel.alpha)
    responses = compute_responses(kernel, modes)
    family = viscoelastic_family(responses, cfg.domain.gamma_weights())
    target = TargetState([1.0, 0.0, 0.5], [0.0, 1.0, 0.0], 3)
    problem = build_moment_problem(family, target)
    control = synthesize(problem)
    records = (cfg, cfg.sweep, cfg.domain, cfg.kernel, kernel, kernel.grid,
               kernel.terms, modes, responses, family, gram(family), target,
               problem, control, simulate_convolution(responses, kernel,
                                                      control),
               exact_modes(kernel.terms, kernel.alpha, modes))
    return {type(r).__name__: r for r in records}


def test_the_record_list_is_every_namedtuple_in_memwave():
    found = set()
    for info in pkgutil.iter_modules(memwave.__path__):
        mod = importlib.import_module(f"memwave.{info.name}")
        found |= {name for name, obj in vars(mod).items()
                  if isinstance(obj, type) and issubclass(obj, tuple)
                  and obj.__module__ == mod.__name__
                  and not name.startswith("_")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(examples, name):
    record = examples[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):      # no instance __dict__
        record.extra = None


_BAD = {
    "TimeGrid": (lambda ex: TimeGrid(1.0, 1),
                 "step count 1 outside [2, "),
    "KernelSpec": (lambda ex: KernelSpec("gaussian"),
                   "unknown kernel family 'gaussian'"),
    "DomainSpec": (lambda ex: DomainSpec("disk", (1.0,)),
                   "unknown geometry 'disk'"),
    "SequenceFamily": (lambda ex: SequenceFamily(
        ex["SequenceFamily"].profiles * (1 + 1j),
        ex["SequenceFamily"].index_set, "complex", ex["TimeGrid"]),
        "time profiles must be real"),
    "TargetState": (lambda ex: TargetState(np.zeros(4), np.zeros(4), 3),
                    "targets need shape (3,)"),
}


@pytest.mark.parametrize("name", sorted(_BAD))
def test_validating_records_refuse_bad_input(examples, name):
    build, message = _BAD[name]
    with pytest.raises(ConfigError, match=re.escape(message)):
        build(examples)


def test_validating_records_normalise_their_input():
    for T, steps in ((2.5 * PI, 7854), (1.0, 3), (0.1, 1000)):
        grid = TimeGrid(T, steps)
        assert grid.h == T / steps and len(grid) == steps + 1
        assert TimeGrid(T, steps, grid.h) == grid
    grid = TimeGrid(1.0, 4)
    fam = SequenceFamily([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]], (1, -1), "ints",
                         grid)
    assert fam.profiles.dtype == float and fam.profiles.shape == (2, 5)
    assert fam.psi.shape == (2, 1) and np.all(fam.psi == 1.0)
    assert fam.gamma_weights.shape == (1,) and fam.gamma_weights[0] == 1.0
    assert fam.count == 2
    target = TargetState([1, 2], (3, 4), 2)
    for values, want in ((target.xi, [1.0, 2.0]), (target.eta, [3.0, 4.0])):
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert values.tolist() == want


def test_batch_selections_keep_shapes_and_bits(examples):
    modes, resp = examples["Spectrum"], examples["ModalResponses"]
    rows = [2, 0]
    some = modes.take(rows)
    assert len(modes) == 3 and len(some) == 2
    for field in modes._fields:
        assert np.array_equal(getattr(some, field),
                              getattr(modes, field)[rows])
    head = resp.head(2)
    assert len(head.modes) == 2 and head.grid is resp.grid
    assert np.array_equal(head.z_gap_ratio, resp.z_gap_ratio[:2])
    for field in ("z", "Nz", "Npz"):
        assert np.array_equal(getattr(head, field), getattr(resp, field)[:2])
    steps = resp.grid.steps * 3 // 4
    short = resp.restrict(steps)
    assert short.grid == resp.grid.restrict(steps)
    assert short.modes is resp.modes
    assert np.array_equal(short.z_gap_ratio, resp.z_gap_ratio)
    for field in ("z", "Nz", "Npz"):
        assert getattr(short, field).shape == (3, steps + 1)
        assert np.array_equal(getattr(short, field),
                              getattr(resp, field)[:, :steps + 1])
