"""The Complex Box engine and the Rosenbrock objective agree with their
NumPy forms (``tests/opt/numpy_oracle.py``) bit for bit.

Both engines are driven with the same seeded generator and each with its
own objective; the ``float.hex`` of every yielded point, every objective
value and every field of the result must match.  This is what lets the
simulated results stay put: simulated cost is charged from nominal
iteration counts, so only a changed float could move them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt import DecomposedRosenbrock, rosenbrock
from repro.opt.complex_box import complex_box_engine
from repro.sim.randomness import rng_stream

from tests.opt import numpy_oracle


def trace(engine_factory, objective, dim, seed, **kwargs):
    """Every (point, value) the engine asks about, then its result, as hex."""
    lower = np.full(dim, -2.048)
    upper = np.full(dim, 2.048)
    engine = engine_factory(
        lower, upper, rng_stream(seed, "parity"), kwargs.pop("max_iterations"), **kwargs
    )
    steps = []
    try:
        point = next(engine)
        while True:
            value = objective(point)
            steps.append((tuple(v.hex() for v in point.tolist()), value.hex()))
            point = engine.send(value)
    except StopIteration as stop:
        result = stop.value
    return steps, (
        tuple(v.hex() for v in result.x.tolist()),
        result.fun.hex(),
        result.iterations,
        result.evaluations,
        result.converged,
        tuple(v.hex() for v in result.history),
    )


def assert_parity(dim, seed, **kwargs):
    ours = trace(complex_box_engine, rosenbrock, dim, seed, **dict(kwargs))
    oracle = trace(
        numpy_oracle.complex_box_engine, numpy_oracle.rosenbrock, dim, seed, **kwargs
    )
    assert ours[0] == oracle[0]
    assert ours[1] == oracle[1]
    return ours


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    iterations=st.integers(min_value=0, max_value=60),
    extra_points=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    max_contractions=st.integers(min_value=0, max_value=7),
    tolerance=st.sampled_from([1e-10, 1.0, 50.0, 1e4]),
    restart_on_collapse=st.booleans(),
    record_history=st.booleans(),
    warm=st.booleans(),
)
def test_engine_matches_numpy_oracle(
    dim, seed, iterations, extra_points, max_contractions, tolerance,
    restart_on_collapse, record_history, warm,
):
    x0 = rng_stream(seed, "x0").uniform(-3.0, 3.0, dim) if warm else None
    assert_parity(
        dim, seed,
        max_iterations=iterations,
        n_points=None if extra_points is None else dim + 1 + extra_points,
        max_contractions=max_contractions,
        tolerance=tolerance,
        restart_on_collapse=restart_on_collapse,
        record_history=record_history,
        x0=x0,
    )


@pytest.mark.parametrize("seed", range(8))
def test_manager_shape_matches_numpy_oracle(seed):
    """The 100/7 manager problem: 6 coupling variables, history recorded."""
    _, result = assert_parity(6, seed, max_iterations=30, record_history=True)
    assert len(result[5]) == result[2] > 0


@pytest.mark.parametrize("seed", range(4))
def test_collapse_restarts_and_contraction_limits_match(seed):
    _, restarted = assert_parity(
        4, seed, max_iterations=80, tolerance=50.0, restart_on_collapse=True,
        max_contractions=3, n_points=9,
    )
    assert restarted[2] == 80 and not restarted[4]
    _, collapsed = assert_parity(4, seed, max_iterations=80, tolerance=50.0)
    assert collapsed[4]


@pytest.mark.parametrize("layout", [(100, 7), (30, 3)])
def test_worker_solves_match_numpy_oracle(layout):
    """A seeded sweep over every worker of the paper's two layouts, cold
    and warm-started, through ``solve_worker`` itself."""
    problem = DecomposedRosenbrock(*layout)
    for seed in range(3):
        coupling = rng_stream(seed, "parity-coupling").uniform(-2.048, 2.048, layout[1] - 1)
        for worker in range(problem.num_workers):
            dim = problem.worker(worker).dimension
            lower, upper = np.full(dim, problem.lower), np.full(dim, problem.upper)

            def oracle_objective(block):
                return numpy_oracle.rosenbrock(
                    numpy_oracle.extended_vector(problem, worker, block, coupling)
                )

            x0 = None
            for start in range(2):
                ours = problem.solve_worker(
                    worker, coupling, rng_stream(seed + start, "w"), 96, x0=x0
                )
                oracle = numpy_oracle.complex_box(
                    oracle_objective, lower, upper, rng_stream(seed + start, "w"),
                    max_iterations=96, x0=x0,
                )
                assert ours.fun.hex() == oracle.fun.hex()
                assert [v.hex() for v in ours.x.tolist()] == [
                    v.hex() for v in oracle.x.tolist()
                ]
                assert ours.evaluations == oracle.evaluations
                x0 = ours.x


def test_rosenbrock_matches_numpy_oracle_for_every_length():
    """Lengths 2..300: sequential under 8 terms, eight partial sums up to
    128, recursive halving above — every branch of NumPy's pairwise sum."""
    rng = np.random.default_rng(20000611)
    sequential_differs = 0
    for length in range(2, 301):
        for _ in range(4):
            x = rng.uniform(-2.048, 2.048, length)
            expected = numpy_oracle.rosenbrock(x).hex()
            assert rosenbrock(x).hex() == expected, length
            assert rosenbrock(x.tolist()).hex() == expected, length
            head, tail = x[:-1], x[1:]
            terms = (100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2).tolist()
            sequential_differs += sum(terms, 0.0).hex() != expected
    # the sweep can tell the summation orders apart
    assert sequential_differs > 100


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=300))
def test_rosenbrock_matches_numpy_oracle_property(values):
    assert rosenbrock(values).hex() == numpy_oracle.rosenbrock(np.array(values)).hex()
