"""Scalability: runtime vs. worker count for a fixed 100-dim problem.

The paper motivates the runtime support with "applications with a maximum
degree of parallelism (e.g. scalable optimization algorithms)".  This
bench varies the decomposition width on the 100-dim Rosenbrock workload:

* with DII (deferred-synchronous dispatch, the paper's §3 mechanism) each
  manager evaluation runs all subproblems concurrently, so runtime falls
  superlinearly in worker count (more workers also mean smaller blocks);
* with plain synchronous calls the subproblems serialize and adding
  workers barely helps — quantifying what DII buys the application.
"""

from repro.bench import format_table
from repro.core import Scenario
from repro.opt import WorkerSettings

SETTINGS = WorkerSettings(work_per_eval_per_dim=2e-7, real_iteration_cap=64)
WORKER_COUNTS = (2, 4, 7)


def run_grid():
    rows = []
    for use_dii in (True, False):
        for workers in WORKER_COUNTS:
            result = Scenario(
                dimension=100,
                num_workers=workers,
                pool_size=9,
                background_hosts=0,
                naming_strategy="winner",
                worker_iterations=30_000,
                manager_iterations=8,
                manager_points=12,  # fixed complex size across widths
                worker_settings=SETTINGS,
                use_dii=use_dii,
                seed=7,
            ).run()
            rows.append(
                {
                    "dispatch": "DII" if use_dii else "synchronous",
                    "workers": workers,
                    "runtime": result.runtime_seconds,
                }
            )
    return rows


def test_scalability(benchmark, save_result):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    text = format_table(
        ["dispatch", "workers", "runtime [s]"],
        [[row["dispatch"], row["workers"], f"{row['runtime']:.2f}"] for row in rows],
        title="Scalability: 100-dim Rosenbrock, runtime vs decomposition width",
    )

    by_key = {(row["dispatch"], row["workers"]): row["runtime"] for row in rows}
    # DII scales: 7 workers much faster than 2.
    assert by_key[("DII", 7)] < by_key[("DII", 2)] * 0.55
    # Serialized dispatch wastes the parallel hosts at every width.
    for workers in WORKER_COUNTS:
        assert by_key[("synchronous", workers)] > by_key[("DII", workers)] * 1.5

    save_result("scalability", text, {"rows": rows})
