"""Bit-exact golden of the worker solves and one manager run, recorded
across commits.

The numeric core of every paper experiment is a worker solving its
Rosenbrock subproblem with Complex Box at the bench iteration cap (96).
The golden (``solve_golden_values.py``, literals only) pins, for every
worker of the paper's 100/7 and 30/3 layouts over three seeds, a cold solve
and a solve warm-started from the cold result: ``float.hex`` of ``fun``
and of every coordinate of ``x``, and the evaluation count.  It also pins
one reduced Table 1 manager run (100/7 under Winner, with FT proxies, two
manager iterations): ``fun``, the best-value ``history``, ``worker_calls``
and the simulated runtime, all as ``float.hex`` where they are floats.

Simulated cost is charged from the nominal iteration count, so a faster
optimizer may not move any of these values: it has to perform the same
floating-point operations in the same order.

Re-record (only when a change is *meant* to move a result)::

    PYTHONPATH=src:. python tests/opt/test_solve_golden.py --record
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.harness import BENCH_SETTINGS, PAPER_CONFIGS, _scenario
from repro.opt import DecomposedRosenbrock
from repro.sim.randomness import rng_stream

from tests.opt.solve_golden_values import MANAGER_RUN, WORKER_SOLVES

ITERATIONS = 96
SEEDS = (1, 2, 3)
LAYOUTS = ("100/7", "30/3")


def worker_solves() -> dict[tuple, tuple]:
    """``(layout, worker, seed, start) -> (fun hex, x hexes, evaluations)``."""
    out = {}
    for layout in LAYOUTS:
        dimension, workers, _ = PAPER_CONFIGS[layout]
        problem = DecomposedRosenbrock(dimension, workers)
        for seed in SEEDS:
            coupling = rng_stream(seed, "golden-coupling").uniform(
                problem.lower, problem.upper, problem.manager_dimension
            )
            for worker in range(workers):
                cold = problem.solve_worker(
                    worker, coupling, rng_stream(seed, "worker-solve"), ITERATIONS
                )
                warm = problem.solve_worker(
                    worker, coupling, rng_stream(seed + 100, "worker-solve"),
                    ITERATIONS, x0=cold.x,
                )
                for start, result in (("cold", cold), ("warm", warm)):
                    out[(layout, worker, seed, start)] = (
                        result.fun.hex(),
                        tuple(float(v).hex() for v in result.x),
                        result.evaluations,
                    )
    return out


def manager_run() -> dict:
    """One reduced Table 1 cell: 100/7, Winner, FT proxies, 2 manager
    iterations at 10 000 nominal worker iterations."""
    result = _scenario(
        "100/7", "CORBA/Winner", background_hosts=0, worker_iterations=10_000,
        fault_tolerant=True, seed=7, settings=BENCH_SETTINGS, manager_iterations=2,
    ).run()
    return {
        "fun": result.result.fun.hex(),
        "history": tuple(v.hex() for v in result.result.history),
        "worker_calls": result.result.worker_calls,
        "runtime": result.runtime_seconds.hex(),
    }


def test_worker_solves_as_recorded():
    solves = worker_solves()
    assert len(solves) == len(WORKER_SOLVES) == 2 * len(SEEDS) * (7 + 3)
    for key, expected in WORKER_SOLVES.items():
        assert solves[key] == expected, key


def test_manager_run_as_recorded():
    assert manager_run() == MANAGER_RUN


def _record() -> None:
    lines = [
        '"""Recorded by ``tests/opt/test_solve_golden.py --record``; '
        'do not edit by hand."""',
        "",
        "#: (layout, worker, seed, start) -> (fun, x, evaluations)",
        "WORKER_SOLVES = {",
    ]
    for key, value in worker_solves().items():
        lines.append(f"    {key!r}: {value!r},")
    lines += ["}", "", f"MANAGER_RUN = {manager_run()!r}"]
    target = Path(__file__).with_name("solve_golden_values.py")
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        sys.exit("usage: test_solve_golden.py --record")
