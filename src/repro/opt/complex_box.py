"""Box's Complex method ("Complex Box" in the paper, after [4]).

A direct-search method for bound-constrained minimization: maintain a
*complex* of k >= n+1 points; repeatedly reflect the worst point through
the centroid of the others by a factor alpha (Box recommends 1.3),
contracting toward the centroid while the reflected point stays worst.

Two entry points share one implementation:

* :func:`complex_box` — the plain synchronous optimizer (what each worker
  runs on its subproblem);
* :func:`complex_box_engine` — a coroutine that *yields* points to
  evaluate and receives their objective values, so the manager can run the
  identical algorithm while farming evaluations out to CORBA workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

import numpy as np

from repro.sim.randomness import RandomStream


@dataclass
class ComplexBoxResult:
    """Outcome of a Complex Box run."""

    x: np.ndarray
    fun: float
    iterations: int
    evaluations: int
    converged: bool
    history: list[float] = field(default_factory=list)


def complex_box_engine(
    lower: np.ndarray,
    upper: np.ndarray,
    rng: RandomStream,
    max_iterations: int,
    x0: Optional[np.ndarray] = None,
    n_points: Optional[int] = None,
    alpha: float = 1.3,
    tolerance: float = 1e-10,
    max_contractions: int = 12,
    record_history: bool = False,
    restart_on_collapse: bool = False,
) -> Generator[np.ndarray, float, ComplexBoxResult]:
    """The Complex Box coroutine.

    Yields candidate points (1-D float arrays); the driver sends back the
    objective value for each.  Returns a :class:`ComplexBoxResult`.

    :param max_iterations: reflection steps (the paper's stopping
        criterion: "the increasing number of iterations results in longer
        runtimes of the worker problems because it is a stopping criterion
        of the algorithm").
    :param x0: a start point of shape ``(n,)``, clipped into the box and
        kept as the first point of the initial complex.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be 1-D arrays of equal length")
    if not (lower < upper).all():  # also rejects NaN bounds
        raise ValueError("each lower bound must be below its upper bound")
    n = lower.shape[0]
    k = n_points if n_points is not None else max(n + 1, 2 * n)
    if k < n + 1:
        raise ValueError(f"complex needs at least n+1={n + 1} points, got {k}")
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")

    # The complex stays a (k, n) array: one ``np.add.reduce`` sums its
    # columns faster than any Python loop.  Every step below is the
    # cheapest spelling of the same IEEE operations in the same order (the
    # array forms are held to it bit for bit by the tests' NumPy oracle).
    add_reduce, maximum, minimum = np.add.reduce, np.maximum, np.minimum

    # -- initial complex -------------------------------------------------------
    points = np.empty((k, n))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
        points[0] = minimum(maximum(x0, lower), upper)
        start = 1
    else:
        start = 0
    span = upper - lower
    # one draw for the whole complex: row by row, the doubles of one
    # ``random(n)`` per point
    points[start:] = lower + rng.random((k - start) * n).reshape(k - start, n) * span

    values = np.empty(k)
    evaluations = 0
    for i in range(k):
        values[i] = yield points[i].copy()
        evaluations += 1

    history: list[float] = []
    iterations = 0
    converged = False
    others = k - 1
    toward_centroid = max_contractions // 2
    while iterations < max_iterations:
        worst = int(values.argmax())
        best = int(values.argmin())
        worst_value = values[worst]
        if record_history:
            history.append(float(values[best]))
        if float(worst_value - values[best]) <= tolerance:
            if not restart_on_collapse:
                converged = True
                break
            # Collapse restart (extension beyond Box's original method):
            # keep the best point, redraw the rest of the complex, spend
            # the remaining iteration budget escaping the stagnation point.
            for i in range(k):
                if i == best:
                    continue
                points[i] = lower + rng.random(n) * span
                values[i] = yield points[i].copy()
                evaluations += 1
            iterations += 1
            continue

        worst_point = points[worst]
        centroid = (add_reduce(points, 0) - worst_point) / others
        candidate = minimum(
            maximum(centroid + alpha * (centroid - worst_point), lower), upper
        )
        candidate_value = yield candidate.copy()
        evaluations += 1

        contractions = 0
        while candidate_value >= worst_value and contractions < max_contractions:
            # Reflected point is still the worst: contract toward the
            # centroid (Box's original rule), then — Guin's modification —
            # toward the best point, so repeated failures cannot collapse
            # the complex onto a bad centroid in curved valleys.
            toward = centroid if contractions < toward_centroid else points[best]
            candidate = minimum(maximum(0.5 * (candidate + toward), lower), upper)
            candidate_value = yield candidate.copy()
            evaluations += 1
            contractions += 1

        points[worst] = candidate
        values[worst] = candidate_value
        iterations += 1

    best = int(values.argmin())
    return ComplexBoxResult(
        x=points[best].copy(),
        fun=float(values[best]),
        iterations=iterations,
        evaluations=evaluations,
        converged=converged,
        history=history,
    )


def complex_box(
    func: Callable[[np.ndarray], float],
    lower: np.ndarray,
    upper: np.ndarray,
    rng: RandomStream,
    max_iterations: int = 1000,
    **kwargs,
) -> ComplexBoxResult:
    """Synchronous Complex Box minimization of ``func`` over the box."""
    engine = complex_box_engine(lower, upper, rng, max_iterations, **kwargs)
    try:
        point = next(engine)
        while True:
            point = engine.send(func(point))
    except StopIteration as stop:
        return stop.value
