"""The NumPy Complex Box engine and Rosenbrock objective: the parity oracle.

``repro.opt`` performs Complex Box and the Rosenbrock sum with plain
floats and as few NumPy calls as the same IEEE operations allow.  These
are the array forms they were derived from, kept verbatim here, outside
the product code, so ``tests/opt/test_numpy_parity.py`` can hold every
yielded point, every objective value and every result to them bit for
bit.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from repro.opt.complex_box import ComplexBoxResult


def rosenbrock(x: np.ndarray) -> float:
    """Generalized Rosenbrock function.

    ``f(x) = sum_{i=0}^{n-2} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2``

    Global minimum 0 at ``x = (1, ..., 1)``.  Defined for ``n >= 2``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"rosenbrock needs a 1-D vector of length >= 2, got {x.shape}")
    head, tail = x[:-1], x[1:]
    return float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))


def complex_box_engine(
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
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
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be 1-D arrays of equal length")
    if np.any(lower >= upper):
        raise ValueError("each lower bound must be below its upper bound")
    n = lower.shape[0]
    k = n_points if n_points is not None else max(n + 1, 2 * n)
    if k < n + 1:
        raise ValueError(f"complex needs at least n+1={n + 1} points, got {k}")
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")

    # -- initial complex -------------------------------------------------------
    points = np.empty((k, n))
    if x0 is not None:
        x0 = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
        points[0] = x0
        start = 1
    else:
        start = 0
    span = upper - lower
    for i in range(start, k):
        points[i] = lower + rng.random(n) * span

    values = np.empty(k)
    evaluations = 0
    for i in range(k):
        values[i] = yield points[i].copy()
        evaluations += 1

    history: list[float] = []
    iterations = 0
    converged = False
    while iterations < max_iterations:
        worst = int(np.argmax(values))
        best = int(np.argmin(values))
        if record_history:
            history.append(float(values[best]))
        spread = float(values[worst] - values[best])
        if spread <= tolerance:
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

        centroid = (np.sum(points, axis=0) - points[worst]) / (k - 1)
        candidate = np.clip(
            centroid + alpha * (centroid - points[worst]), lower, upper
        )
        candidate_value = yield candidate.copy()
        evaluations += 1

        contractions = 0
        while candidate_value >= values[worst] and contractions < max_contractions:
            if contractions < max_contractions // 2:
                # Reflected point is still the worst: contract toward the
                # centroid (Box's original rule).
                candidate = np.clip(0.5 * (candidate + centroid), lower, upper)
            else:
                # Guin's modification: repeated failures pull toward the
                # best point instead, preventing the complex from
                # collapsing onto a bad centroid in curved valleys.
                candidate = np.clip(0.5 * (candidate + points[best]), lower, upper)
            candidate_value = yield candidate.copy()
            evaluations += 1
            contractions += 1

        points[worst] = candidate
        values[worst] = candidate_value
        iterations += 1

    best = int(np.argmin(values))
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
    rng: np.random.Generator,
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
