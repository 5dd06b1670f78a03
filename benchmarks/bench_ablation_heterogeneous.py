"""Ablation: heterogeneous workstations.

Winner was designed for "networks of mixed uniprocessor/multiprocessor
workstations" (reference [1] of the paper).  The Fig. 3 experiments use a
homogeneous NOW, where load-oblivious selection only loses under
background load; on a *heterogeneous* NOW the Winner strategy wins even on
an idle cluster, because it places workers on the fast machines.

Cluster: ws00 (services/manager) plus a pool mixing slow 1.0x
uniprocessors, 2.0x machines, and a 2-core 1.5x multiprocessor."""

from repro.bench import format_table
from repro.core import Scenario
from repro.opt import WorkerSettings

SPEEDS = [1.0, 0.8, 2.0, 0.8, 1.5, 2.0, 0.8, 1.0, 1.0, 1.0]
CORES = [1, 1, 1, 1, 2, 1, 1, 1, 1, 1]
SETTINGS = WorkerSettings(work_per_eval_per_dim=2e-7, real_iteration_cap=96)


def run_grid():
    rows = []
    for strategy in ("round-robin", "winner"):
        for bg in (0, 2):
            result = Scenario(
                dimension=30,
                num_workers=3,
                pool_size=6,
                num_hosts=10,
                speeds=SPEEDS,
                cores=CORES,
                background_hosts=bg,
                naming_strategy=strategy,
                worker_iterations=50_000,
                manager_iterations=10,
                worker_settings=SETTINGS,
                seed=7,
            ).run()
            rows.append(
                {
                    "strategy": strategy,
                    "bg": bg,
                    "runtime": result.runtime_seconds,
                    "placements": list(result.worker_placements),
                }
            )
    return rows


def test_heterogeneous_cluster_ablation(benchmark, save_result):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    text = format_table(
        ["strategy", "bg hosts", "runtime [s]", "placements"],
        [
            [row["strategy"], row["bg"], f"{row['runtime']:.2f}", " ".join(row["placements"])]
            for row in rows
        ],
        title="Heterogeneous NOW (speeds 0.8-2.0x, one 2-core host)",
    )

    by_key = {(row["strategy"], row["bg"]): row for row in rows}
    # Winner beats round-robin even with NO background load: it places on
    # the fast machines (ws02: 2.0x, ws04: 2-core 1.5x, ws05: 2.0x).
    assert (
        by_key[("winner", 0)]["runtime"]
        < by_key[("round-robin", 0)]["runtime"] * 0.75
    )
    fast_hosts = {"ws02", "ws04", "ws05"}
    assert set(by_key[("winner", 0)]["placements"]) <= fast_hosts
    # And the advantage persists under load.
    assert (
        by_key[("winner", 2)]["runtime"]
        <= by_key[("round-robin", 2)]["runtime"]
    )

    save_result("ablation_heterogeneous", text, {"rows": rows})
