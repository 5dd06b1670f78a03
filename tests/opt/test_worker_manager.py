"""End-to-end tests of the distributed worker/manager optimization over the
ORB — the paper's §4 application."""

import numpy as np
import pytest

from repro.core import Runtime, RuntimeConfig
from repro.opt import (
    DecomposedRosenbrock,
    DistributedRosenbrockOptimizer,
    RosenbrockWorkerServant,
    RosenbrockWorkerStub,
    WorkerSettings,
    worker_idl,
)
from repro.services.naming.names import to_name


def build_runtime(num_hosts=6, seed=5, **kwargs):
    runtime = Runtime(RuntimeConfig(num_hosts=num_hosts, seed=seed, **kwargs)).start()
    return runtime


def deploy_workers(runtime, problem, hosts, settings=None):
    settings = settings or WorkerSettings()
    runtime.register_type(
        "RosenbrockWorker", lambda: RosenbrockWorkerServant(problem, settings)
    )
    return runtime.run(
        runtime.deploy_group("workers.service", "RosenbrockWorker", hosts)
    )


# -- worker servant ------------------------------------------------------------------


def test_worker_solves_subproblem_remotely():
    runtime = build_runtime()
    problem = DecomposedRosenbrock(10, 2)
    iors = deploy_workers(runtime, problem, [1])
    stub = runtime.orb(0).stub(iors[0], RosenbrockWorkerStub)

    def client():
        fun = yield stub.solve(0, [1.0], 100, 42)
        block = yield stub.best_block(0)
        evals = yield stub.evaluations()
        host = yield stub.host_name()
        return fun, block, evals, host

    fun, block, evals, host = runtime.run(client())
    assert np.isfinite(fun)
    assert len(block) == 5
    assert evals > 0
    assert host == "ws01"


def test_worker_solve_time_scales_with_iterations():
    runtime = build_runtime()
    problem = DecomposedRosenbrock(10, 2)
    iors = deploy_workers(
        runtime, problem, [1], settings=WorkerSettings(work_per_eval_per_dim=1e-5)
    )
    stub = runtime.orb(0).stub(iors[0], RosenbrockWorkerStub)
    durations = {}

    def client():
        for iterations in (1000, 5000):
            start = runtime.sim.now
            yield stub.solve(0, [1.0], iterations, 1)
            durations[iterations] = runtime.sim.now - start

    runtime.run(client())
    # Simulated cost is proportional to the *nominal* iteration count.
    ratio = durations[5000] / durations[1000]
    assert ratio == pytest.approx(5.0, rel=0.15)


def test_worker_validates_arguments():
    runtime = build_runtime()
    problem = DecomposedRosenbrock(10, 2)
    iors = deploy_workers(runtime, problem, [1])
    stub = runtime.orb(0).stub(iors[0], RosenbrockWorkerStub)

    def client():
        outcomes = []
        for args in [(5, [1.0], 10, 1), (0, [1.0, 2.0], 10, 1), (0, [1.0], -1, 1)]:
            try:
                yield stub.solve(*args)
                outcomes.append("ok")
            except worker_idl.BadSubproblem:
                outcomes.append("rejected")
        try:
            yield stub.best_block(1)  # never solved
            outcomes.append("ok")
        except worker_idl.BadSubproblem:
            outcomes.append("rejected")
        return outcomes

    assert runtime.run(client()) == ["rejected"] * 4


def test_worker_checkpoint_roundtrip_preserves_state():
    runtime = build_runtime()
    problem = DecomposedRosenbrock(10, 2)
    iors = deploy_workers(runtime, problem, [1, 2])
    stub_a = runtime.orb(0).stub(iors[0], RosenbrockWorkerStub)
    stub_b = runtime.orb(0).stub(iors[1], RosenbrockWorkerStub)

    def client():
        yield stub_a.solve(0, [1.0], 50, 7)
        state = yield stub_a.get_checkpoint()
        yield stub_b.restore_from(state)
        block_a = yield stub_a.best_block(0)
        block_b = yield stub_b.best_block(0)
        evals_a = yield stub_a.evaluations()
        evals_b = yield stub_b.evaluations()
        return block_a, block_b, evals_a, evals_b

    block_a, block_b, evals_a, evals_b = runtime.run(client())
    np.testing.assert_array_equal(block_a, block_b)
    assert evals_a == evals_b


def test_worker_restore_rejects_block_of_wrong_length():
    """A restored block is the next warm start: a wrong length must not
    get in (the engine would broadcast a length-1 block over the complex's
    first point)."""
    problem = DecomposedRosenbrock(10, 2)
    servant = RosenbrockWorkerServant(problem)

    def state(worker_id, block):
        return {
            "evaluations": 5,
            "solve_calls": 1,
            "best": {
                str(worker_id): {"fun": 1.0, "block": block, "coupling": [1.0]}
            },
        }

    for worker_id, block in ((0, [0.5]), (0, [0.5] * 4), (1, [0.5] * 5), (2, [0.5] * 4)):
        with pytest.raises(worker_idl.BadSubproblem):
            servant.restore_from(state(worker_id, block))
    assert servant.solve_calls == 0  # a rejected state leaves nothing behind
    servant.restore_from(state(1, [0.5] * 4))
    np.testing.assert_array_equal(servant.best_block(1), [0.5] * 4)


def test_worker_warm_start_reuses_best_block():
    runtime = build_runtime()
    problem = DecomposedRosenbrock(10, 2)
    iors = deploy_workers(runtime, problem, [1])
    stub = runtime.orb(0).stub(iors[0], RosenbrockWorkerStub)

    def client():
        first = yield stub.solve(0, [1.0], 150, 3)
        second = yield stub.solve(0, [1.0], 150, 4)
        return first, second

    first, second = runtime.run(client())
    # Warm start can only improve (or match) the subproblem value.
    assert second <= first + 1e-12


# -- distributed manager -------------------------------------------------------------------


def run_distributed(
    runtime, problem, worker_hosts, manager_iterations=8, use_dii=True, ft=False
):
    iors = deploy_workers(
        runtime,
        problem,
        worker_hosts,
        settings=WorkerSettings(real_iteration_cap=64, work_per_eval_per_dim=2e-5),
    )
    outcome = {}

    def client():
        naming = runtime.naming_stub(0)
        references = []
        for worker_id in range(problem.num_workers):
            ior = yield naming.resolve(to_name("workers.service"))
            if ft:
                references.append(
                    runtime.ft_proxy(
                        RosenbrockWorkerStub,
                        ior,
                        key=f"w{worker_id}",
                        type_name="RosenbrockWorker",
                    )
                )
            else:
                references.append(runtime.orb(0).stub(ior, RosenbrockWorkerStub))
        optimizer = DistributedRosenbrockOptimizer(
            runtime.orb(0),
            problem,
            references,
            worker_iterations=500,
            manager_iterations=manager_iterations,
            seed=runtime.config.seed,
            use_dii=use_dii,
        )
        outcome["result"] = yield from optimizer.optimize()

    runtime.run(client())
    return outcome["result"]


def test_distributed_optimization_produces_consistent_result():
    runtime = build_runtime()
    problem = DecomposedRosenbrock(12, 2)
    result = run_distributed(runtime, problem, [1, 2, 3])
    assert np.isfinite(result.fun)
    assert result.x.shape == (12,)
    assert result.full_value >= 0.0
    assert result.worker_calls >= result.manager_evaluations * 2
    assert result.runtime > 0.0


def test_distributed_result_deterministic_across_runs():
    problem = DecomposedRosenbrock(12, 2)
    first = run_distributed(build_runtime(seed=9), problem, [1, 2, 3])
    second = run_distributed(build_runtime(seed=9), problem, [1, 2, 3])
    assert first.fun == second.fun
    np.testing.assert_array_equal(first.coupling, second.coupling)


def test_dii_parallelism_beats_sequential_dispatch():
    problem = DecomposedRosenbrock(12, 2)
    parallel = run_distributed(build_runtime(seed=4), problem, [1, 2], use_dii=True)
    sequential = run_distributed(build_runtime(seed=4), problem, [1, 2], use_dii=False)
    # Identical numeric outcome, different wall time.
    assert parallel.fun == sequential.fun
    assert parallel.runtime < sequential.runtime


def test_distributed_with_ft_proxies_matches_plain_result():
    problem = DecomposedRosenbrock(12, 2)
    plain = run_distributed(build_runtime(seed=6), problem, [1, 2], ft=False)
    with_ft = run_distributed(build_runtime(seed=6), problem, [1, 2], ft=True)
    assert with_ft.fun == plain.fun
    assert with_ft.runtime > plain.runtime  # checkpointing costs time


def test_distributed_optimization_survives_worker_crash():
    runtime = build_runtime(num_hosts=7)
    problem = DecomposedRosenbrock(12, 2)
    iors = deploy_workers(
        runtime, problem, [1, 2, 3, 4],
        settings=WorkerSettings(real_iteration_cap=64, work_per_eval_per_dim=1e-5),
    )
    outcome = {}

    def client():
        naming = runtime.naming_stub(0)
        references = []
        placements = []
        for worker_id in range(problem.num_workers):
            ior = yield naming.resolve(to_name("workers.service"))
            placements.append(ior.host)
            references.append(
                runtime.ft_proxy(
                    RosenbrockWorkerStub,
                    ior,
                    key=f"w{worker_id}",
                    type_name="RosenbrockWorker",
                    group_name="workers.service",
                )
            )
        # Crash the first worker's host half a second into the run.
        runtime.sim.schedule(0.5, runtime.cluster.host(placements[0]).crash)
        optimizer = DistributedRosenbrockOptimizer(
            runtime.orb(0),
            problem,
            references,
            worker_iterations=2000,
            manager_iterations=6,
            seed=2,
        )
        outcome["result"] = yield from optimizer.optimize()

    runtime.settle()
    runtime.run(client())
    assert np.isfinite(outcome["result"].fun)
    assert runtime.coordinator(0).recoveries >= 1


def test_mismatched_worker_count_rejected():
    from repro.errors import ConfigurationError

    runtime = build_runtime()
    problem = DecomposedRosenbrock(12, 2)
    with pytest.raises(ConfigurationError):
        DistributedRosenbrockOptimizer(runtime.orb(0), problem, [object()])
