"""Tests for the experiment scenario driver (small, fast configurations)."""

import pytest

from repro.core import Scenario
from repro.core.scenario import WARMUP
from repro.errors import ConfigurationError
from repro.opt import WorkerSettings

FAST = WorkerSettings(real_iteration_cap=32)


def small_scenario(**kwargs):
    defaults = dict(
        dimension=12,
        num_workers=2,
        pool_size=4,
        num_hosts=6,
        worker_iterations=5_000,
        manager_iterations=5,
        worker_settings=FAST,
        seed=3,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def test_scenario_runs_and_reports():
    result = small_scenario().run()
    assert result.runtime_seconds > 0
    assert len(result.worker_placements) == 2
    assert result.result.x.shape == (12,)
    assert result.checkpoints == 0 and result.recoveries == 0
    assert "CORBA/Winner" in result.label


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        small_scenario(pool_size=6, num_hosts=6).run()
    with pytest.raises(ConfigurationError):
        small_scenario(num_workers=5, pool_size=4).run()


def test_background_load_slows_round_robin_but_not_winner():
    base = {"background_hosts": 2}
    rr = small_scenario(naming_strategy="round-robin", **base).run()
    winner = small_scenario(naming_strategy="winner", **base).run()
    rr_clean = small_scenario(naming_strategy="round-robin").run()
    # Round-robin lands on the loaded hosts; Winner avoids them.
    assert rr.runtime_seconds > 1.5 * winner.runtime_seconds
    assert winner.runtime_seconds < 1.3 * rr_clean.runtime_seconds
    assert set(winner.worker_placements).isdisjoint({"ws01", "ws02"})


def test_same_runtime_at_zero_background_load():
    rr = small_scenario(naming_strategy="round-robin").run()
    winner = small_scenario(naming_strategy="winner").run()
    assert rr.runtime_seconds == pytest.approx(winner.runtime_seconds, rel=0.15)


def test_numeric_result_independent_of_strategy_and_load():
    results = [
        small_scenario(naming_strategy="round-robin").run(),
        small_scenario(naming_strategy="winner").run(),
        small_scenario(naming_strategy="winner", background_hosts=2).run(),
    ]
    funs = {round(result.result.fun, 12) for result in results}
    assert len(funs) == 1


def test_fault_tolerant_scenario_checkpoints():
    plain = small_scenario().run()
    with_ft = small_scenario(fault_tolerant=True).run()
    assert with_ft.checkpoints > 0
    assert with_ft.runtime_seconds > plain.runtime_seconds
    assert with_ft.result.fun == plain.result.fun


def test_scenario_with_failure_injection_recovers():
    from repro.cluster import FailurePlan

    result = small_scenario(
        fault_tolerant=True,
        worker_iterations=20_000,
        worker_settings=WorkerSettings(
            real_iteration_cap=32, work_per_eval_per_dim=2e-6
        ),
        # half a second into the optimization, after the Winner warm-up
        failures=[FailurePlan("ws01", crash_at=WARMUP + 0.5)],
        manager_iterations=6,
    ).run()
    assert result.recoveries >= 1
    assert result.result.fun is not None


def test_sequential_dispatch_slower_than_dii():
    parallel = small_scenario(
        worker_settings=WorkerSettings(
            real_iteration_cap=32, work_per_eval_per_dim=2e-6
        )
    ).run()
    sequential = small_scenario(
        use_dii=False,
        worker_settings=WorkerSettings(
            real_iteration_cap=32, work_per_eval_per_dim=2e-6
        ),
    ).run()
    assert sequential.result.fun == parallel.result.fun
    assert sequential.runtime_seconds > parallel.runtime_seconds


def test_background_overflow_beyond_pool():
    # 8 background hosts with a pool of 4: extras land outside the pool.
    result = small_scenario(background_hosts=8, num_hosts=10, pool_size=4).run()
    assert result.runtime_seconds > 0
