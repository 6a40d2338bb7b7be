import numpy as np
import pytest
from hypothesis import given, strategies as st

from memwave import ConfigError, TimeGrid, auto_step, make_grid, trapezoid_weights


def test_grid_basic_shape():
    g = TimeGrid(2.0, 4)
    assert g.h == 0.5
    assert np.allclose(g.t, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(g) == 5


def test_make_grid_rounds_to_integer_steps():
    g = make_grid(np.pi, 1e-3)
    assert g.steps == 3142
    assert abs(g.h - 1e-3) < 1e-6


def test_restrict_keeps_step_exactly():
    g = make_grid(3 * np.pi, 1e-3)
    r = g.restrict(1000)
    assert r.steps == 1000
    assert r.h == g.h          # bitwise, not merely close
    assert np.array_equal(r.t, g.t[:1001])


def test_restrict_rejects_extension():
    g = TimeGrid(1.0, 10)
    with pytest.raises(ConfigError):
        g.restrict(11)


def test_degenerate_grids_rejected():
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1)
    with pytest.raises(ConfigError):
        TimeGrid(-1.0, 100)
    with pytest.raises(ConfigError):
        make_grid(1.0, -0.1)


def test_trapezoid_weights_integrate_linears_exactly():
    g = TimeGrid(2.0, 7)
    w = trapezoid_weights(g)
    assert w.sum() == pytest.approx(2.0, abs=1e-14)
    assert np.dot(w, g.t) == pytest.approx(2.0, abs=1e-13)  # integral of t


def test_auto_step_resolves_fastest_mode():
    h = auto_step(np.pi, 40.0)
    assert h <= 0.2 / 40.0
    assert auto_step(np.pi, 0.5) == pytest.approx(np.pi / 1000)


@given(st.floats(0.1, 50.0), st.integers(2, 5000))
def test_grid_endpoint_is_exact(T, steps):
    g = TimeGrid(T, steps)
    assert g.t[0] == 0.0
    assert g.t[-1] == pytest.approx(T, rel=1e-15)
    assert len(g.t) == steps + 1


@given(st.floats(0.1, 50.0), st.floats(1e-3, 1.0), st.data())
def test_restrict_keeps_step_and_samples(T, h, data):
    g = make_grid(T, h)
    k = data.draw(st.integers(2, g.steps))
    r = g.restrict(k)
    assert r.h == g.h
    assert np.array_equal(r.t, g.t[:k + 1])
