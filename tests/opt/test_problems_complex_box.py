"""Tests for objective functions and the Complex Box optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt import complex_box, rosenbrock
from repro.opt.complex_box import complex_box_engine
from repro.sim.randomness import rng_stream


def sphere(x: np.ndarray) -> float:
    """``sum x_i^2``: the optimizer's easy test objective."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x * x))


def rastrigin(x: np.ndarray) -> float:
    """Highly multimodal; global minimum 0 at the origin."""
    x = np.asarray(x, dtype=np.float64)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


# -- objectives -----------------------------------------------------------------


def test_rosenbrock_minimum_is_zero_at_ones():
    for n in (2, 5, 30, 100):
        assert rosenbrock(np.ones(n)) == 0.0


def test_rosenbrock_known_values():
    assert rosenbrock(np.zeros(2)) == 1.0
    assert rosenbrock(np.array([0.0, 0.0, 0.0])) == 2.0
    # f(x, y) = 100 (y - x^2)^2 + (1 - x)^2 at (-1, 1) = 1 + 4 = 4? No:
    # (1-(-1))^2 = 4 and (1 - 1)^2 * 100 = 0 -> 4.
    assert rosenbrock(np.array([-1.0, 1.0])) == 4.0


def test_rosenbrock_rejects_bad_shapes():
    with pytest.raises(ValueError):
        rosenbrock(np.array([1.0]))
    with pytest.raises(ValueError):
        rosenbrock(np.ones((2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0),
        min_size=2,
        max_size=12,
    )
)
def test_rosenbrock_nonnegative_property(values):
    assert rosenbrock(np.array(values)) >= 0.0


# -- complex box -------------------------------------------------------------------


def run_box(func, dim, max_iterations=600, seed=4, **kwargs):
    lower = np.full(dim, -2.048)
    upper = np.full(dim, 2.048)
    rng = rng_stream(seed, "box-test")
    return complex_box(func, lower, upper, rng, max_iterations=max_iterations, **kwargs)


def test_minimizes_sphere():
    result = run_box(sphere, 3, max_iterations=800)
    assert result.fun < 1e-4
    np.testing.assert_allclose(result.x, 0.0, atol=0.05)


def test_minimizes_2d_rosenbrock():
    result = run_box(rosenbrock, 2, max_iterations=1500)
    assert result.fun < 1e-3
    np.testing.assert_allclose(result.x, 1.0, atol=0.1)


def test_respects_bounds():
    # Minimum of sphere shifted outside the box lands on the boundary.
    def shifted(x):
        return sphere(x - 5.0)

    result = run_box(shifted, 2, max_iterations=500)
    assert np.all(result.x <= 2.048 + 1e-12)
    np.testing.assert_allclose(result.x, 2.048, atol=0.05)


def test_deterministic_given_seed():
    a = run_box(rosenbrock, 3, max_iterations=300, seed=9)
    b = run_box(rosenbrock, 3, max_iterations=300, seed=9)
    assert a.fun == b.fun
    np.testing.assert_array_equal(a.x, b.x)
    c = run_box(rosenbrock, 3, max_iterations=300, seed=10)
    assert c.fun != a.fun


def test_iteration_budget_respected():
    result = run_box(rosenbrock, 4, max_iterations=25)
    assert result.iterations <= 25
    assert result.evaluations >= result.iterations


def test_zero_iterations_returns_best_initial_point():
    result = run_box(sphere, 3, max_iterations=0)
    assert result.iterations == 0
    assert result.evaluations == max(4, 6)  # k = max(n+1, 2n) = 6


def test_convergence_flag_on_flat_function():
    result = run_box(lambda x: 1.0, 2, max_iterations=100, tolerance=1e-6)
    assert result.converged
    assert result.iterations == 0


def test_x0_seeds_the_complex():
    x0 = np.array([1.0, 1.0])
    result = run_box(rosenbrock, 2, max_iterations=0, x0=x0)
    assert result.fun == 0.0  # x0 is the optimum and is in the complex


def test_history_recorded_when_requested():
    result = run_box(sphere, 2, max_iterations=50, record_history=True)
    assert len(result.history) > 0
    # Best value is monotonically non-increasing.
    assert all(b <= a + 1e-12 for a, b in zip(result.history, result.history[1:]))


def test_invalid_arguments_rejected():
    rng = rng_stream(0, "x")
    with pytest.raises(ValueError):
        complex_box(sphere, np.array([1.0]), np.array([0.0]), rng)
    with pytest.raises(ValueError):
        complex_box(sphere, np.zeros(2), np.ones(2), rng, max_iterations=-1)
    with pytest.raises(ValueError):
        complex_box(sphere, np.zeros(2), np.ones(2), rng, n_points=2)


def test_x0_of_wrong_shape_rejected():
    # a length-1 x0 used to be broadcast over all n coordinates
    for x0 in ([0.5], [0.5] * 3, [0.5] * 5, [[0.5] * 4]):
        with pytest.raises(ValueError, match="x0 must have shape"):
            run_box(sphere, 4, max_iterations=5, x0=np.array(x0))


def test_nan_bounds_rejected():
    rng = rng_stream(0, "x")
    for lower, upper in (
        ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
        ([np.nan, 0.0], [np.nan, 1.0]),
        ([0.0, 1.0], [1.0, 1.0]),
    ):
        with pytest.raises(ValueError, match="lower bound"):
            complex_box(sphere, np.array(lower), np.array(upper), rng)


def test_engine_coroutine_protocol():
    """The engine yields points and receives values — drivable manually."""
    lower, upper = np.zeros(2), np.ones(2)
    rng = rng_stream(1, "engine")
    engine = complex_box_engine(lower, upper, rng, max_iterations=10)
    evaluations = 0
    try:
        point = next(engine)
        while True:
            assert point.shape == (2,)
            assert np.all((lower <= point) & (point <= upper))
            evaluations += 1
            point = engine.send(sphere(point))
    except StopIteration as stop:
        result = stop.value
    assert result.evaluations == evaluations


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_result_within_bounds_property(dim, seed):
    result = run_box(rastrigin, dim, max_iterations=60, seed=seed)
    assert np.all(result.x >= -2.048 - 1e-9)
    assert np.all(result.x <= 2.048 + 1e-9)
    assert np.isfinite(result.fun)
