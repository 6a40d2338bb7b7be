"""Uniform time grids.

Every run owns exactly one (step, horizon) grid and all modules share
it; cross-grid interpolation is deliberately unsupported.  Grids are
always built from an integer step count, and the step is carried as a
field: a fresh grid takes h = T/steps, a restriction inherits its
parent's h, so shorter horizons reuse the same step and the same sample
times bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError

# Hard cap so a bad config fails fast instead of thrashing memory.
MAX_STEPS = 20_000_000


class _TimeGridFields(NamedTuple):
    T: float
    steps: int
    h: float


class TimeGrid(_TimeGridFields):
    """The grid of steps + 1 samples j*h on [0, T]; h defaults to T / steps."""

    __slots__ = ()

    def __new__(cls, T: float, steps: int, h: Optional[float] = None):
        if not (math.isfinite(T) and T > 0):
            raise ConfigError(f"horizon must be positive and finite, got {T}")
        if not (2 <= steps <= MAX_STEPS):
            raise ConfigError(f"step count {steps} outside [2, {MAX_STEPS}]")
        if h is None:
            h = T / steps
        elif not abs(h * steps - T) <= 1e-12 * T:
            raise ConfigError(f"step {h!r} does not divide horizon "
                              f"{T!r} into {steps} steps")
        return super().__new__(cls, T, steps, h)

    @property
    def t(self) -> np.ndarray:
        """Samples j*h, with the last one pinned to T exactly."""
        t = np.arange(self.steps + 1) * self.h
        t[-1] = self.T
        return t

    def __len__(self) -> int:
        return self.steps + 1

    def restrict(self, steps: int) -> "TimeGrid":
        """Sub-grid [0, steps*h] carrying self.h, so its step and its
        sample times equal the parent's bit for bit (a fresh division
        steps*h/steps can miss h by one ulp)."""
        if not (2 <= steps <= self.steps):
            raise ConfigError(f"cannot restrict {self.steps}-step grid to {steps}")
        if steps == self.steps:
            return self
        return TimeGrid(steps * self.h, steps, self.h)


def make_grid(T: float, h: float) -> TimeGrid:
    """Grid on [0, T] whose step is the closest achievable to h."""
    if not (h > 0):
        raise ConfigError(f"step must be positive, got {h}")
    return TimeGrid(T, max(2, round(T / h)))


def auto_step(T: float, beta_max: float) -> float:
    """Default step rule: at least 1000 points per horizon and at least
    ~30 points per period of the fastest retained oscillation."""
    return min(T / 1000.0, 0.2 / max(float(beta_max), 1.0))


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.steps + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w
