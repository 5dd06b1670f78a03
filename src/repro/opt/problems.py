"""Benchmark objective functions.

The Rosenbrock function is the paper's benchmark: "The well known
Rosenbrock test function is widely used for benchmarking optimization
algorithms because of its special mathematical properties" — a narrow
curved valley that makes progress slow, which is what makes runtimes long
enough to measure.  Sphere and Rastrigin are included for the examples.
"""

from __future__ import annotations

import numpy as np


#: NumPy's ``PW_BLOCKSIZE``: longer sums split in two.
_PAIRWISE_BLOCK = 128


def _pairwise_sum(terms: list) -> float:
    """``float(np.sum(terms))`` to the last bit, without NumPy.

    NumPy sums a float64 vector pairwise: under 8 terms sequentially; up to
    128 in 8 interleaved partial sums combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail sequentially;
    longer vectors split at half (rounded down to a multiple of 8) and
    recurse.
    """
    count = len(terms)
    if count < 8:
        total = 0.0
        for term in terms:
            total += term
        return total
    if count <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
        stop = count - count % 8
        for i in range(8, stop, 8):
            r0 += terms[i]
            r1 += terms[i + 1]
            r2 += terms[i + 2]
            r3 += terms[i + 3]
            r4 += terms[i + 4]
            r5 += terms[i + 5]
            r6 += terms[i + 6]
            r7 += terms[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for term in terms[stop:]:
            total += term
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def rosenbrock(x) -> float:
    """Generalized Rosenbrock function.

    ``f(x) = sum_{i=0}^{n-2} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2``

    Global minimum 0 at ``x = (1, ..., 1)``.  Defined for ``n >= 2``.

    ``x`` is a list of floats (the workers' hot path) or anything
    ``np.asarray`` takes as a 1-D float vector.  The terms are formed and
    summed with plain floats in exactly NumPy's operation order, so the
    value equals the array formula ``np.sum(100 (tail - head**2)**2 +
    (1 - head)**2)`` bit for bit (see :func:`_pairwise_sum`).
    """
    if not isinstance(x, list):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"rosenbrock needs a 1-D vector, got shape {x.shape}")
        x = x.tolist()
    if len(x) < 2:
        raise ValueError(f"rosenbrock needs a vector of length >= 2, got {len(x)}")
    terms = []
    a = x[0]
    for b in x[1:]:
        rise = b - a * a
        fall = 1.0 - a
        terms.append(100.0 * (rise * rise) + fall * fall)
        a = b
    return _pairwise_sum(terms)


def sphere(x: np.ndarray) -> float:
    """``f(x) = sum x_i^2``; global minimum 0 at the origin."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(x * x))


def rastrigin(x: np.ndarray) -> float:
    """Highly multimodal; global minimum 0 at the origin."""
    x = np.asarray(x, dtype=np.float64)
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


#: conventional search box for the Rosenbrock experiments.
ROSENBROCK_LOWER = -2.048
ROSENBROCK_UPPER = 2.048
