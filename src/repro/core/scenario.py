"""Experiment scenarios: the paper's §4 setup as a parameterized driver.

One :class:`Scenario` reproduces one cell of Fig. 3 / Table 1:

* a NOW of ``num_hosts`` workstations (paper: 10);
* worker service replicas deployed on a *pool* of hosts (paper's 30-dim
  case: "6 workstations were available for the 4 processes" — here the
  manager client and the infrastructure services run on ws00 and the
  worker pool is ws01..ws06);
* CPU-bound background load on the first ``background_hosts`` hosts of the
  pool (overflowing onto the remaining cluster hosts, as in the paper
  where up to 8 of 10 machines were loaded);
* the naming service resolving each of the ``num_workers`` worker
  references with the configured strategy — ``round-robin`` is the
  load-oblivious "CORBA" baseline, ``winner`` is "CORBA/Winner";
* optionally fault-tolerance proxies around every worker reference
  (Table 1's "with proxy" column), checkpointing to the store on ws00.

The measured ``runtime`` is the manager's optimization wall time
(deployment and Winner warm-up excluded), which is what Fig. 3 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.config import RuntimeConfig
from repro.orb.core import OrbConfig
from repro.core.runtime import Runtime
from repro.errors import ConfigurationError
from repro.cluster import FailurePlan
from repro.ft import FtPolicy
from repro.opt import (
    DecomposedRosenbrock,
    DistributedRosenbrockOptimizer,
    ManagerResult,
    RosenbrockWorkerServant,
    RosenbrockWorkerStub,
    WorkerSettings,
)
from repro.services.naming.names import to_name

WORKER_GROUP = "workers.service"
WORKER_TYPE = "RosenbrockWorker"
#: simulated seconds Winner reports accumulate before the manager starts.
WARMUP = 4.0


@dataclass
class Scenario:
    """One experiment cell."""

    dimension: int = 30
    num_workers: int = 3
    #: size of the worker-replica host pool (hosts ws01..wsNN).
    pool_size: int = 6
    background_hosts: int = 0
    naming_strategy: str = "winner"
    fault_tolerant: bool = False
    checkpoint_processing_work: float = 0.015
    #: checkpoint fast-path knobs (sync + full states = paper behaviour).
    checkpoint_mode: str = "sync"
    checkpoint_deltas: bool = False
    worker_iterations: int = 20_000
    manager_iterations: int = 18
    manager_points: Optional[int] = None
    worker_settings: WorkerSettings = field(default_factory=WorkerSettings)
    num_hosts: int = 10
    #: per-host relative speeds/cores (scalar = homogeneous); the mixed
    #: uniprocessor/multiprocessor setting Winner was built for.
    speeds: float | Sequence[float] = 1.0
    cores: int | Sequence[int] = 1
    seed: int = 0
    use_dii: bool = True
    failures: Sequence[FailurePlan] = ()
    winner_interval: float = 1.0
    #: resolve fast-path knobs (all off = paper behaviour).
    resolve_cache: bool = False
    resolve_scoring_work: float = 0.0
    winner_delta_reports: bool = False
    connection_reuse: bool = False
    connection_handshake_rtts: int = 0

    def validate(self) -> None:
        if self.pool_size >= self.num_hosts:
            raise ConfigurationError(
                "pool must leave ws00 free for the manager and services"
            )
        if self.num_workers > self.pool_size:
            raise ConfigurationError("more workers than pool hosts")

    # -- execution ------------------------------------------------------------

    def run(self) -> "ScenarioResult":
        self.validate()
        runtime = Runtime(
            RuntimeConfig(
                num_hosts=self.num_hosts,
                speeds=self.speeds,
                cores=self.cores,
                seed=self.seed,
                naming_strategy=self.naming_strategy,
                checkpoint_processing_work=self.checkpoint_processing_work,
                winner_interval=self.winner_interval,
                resolve_cache=self.resolve_cache,
                resolve_scoring_work=self.resolve_scoring_work,
                winner_delta_reports=self.winner_delta_reports,
                orb=OrbConfig(
                    connection_reuse=self.connection_reuse,
                    connection_handshake_rtts=self.connection_handshake_rtts,
                ),
            )
        ).start()
        problem = DecomposedRosenbrock(self.dimension, self.num_workers)
        runtime.register_type(
            WORKER_TYPE,
            lambda: RosenbrockWorkerServant(problem, self.worker_settings),
        )

        pool = list(range(1, self.pool_size + 1))
        runtime.run(runtime.deploy_group(WORKER_GROUP, WORKER_TYPE, pool))

        # Background load: first B pool hosts, overflow onto the rest of
        # the cluster (they hold no replicas; the overflow only matters to
        # mirror the paper's "N hosts with background load" setup).
        loaded: list[int] = []
        overflow = []
        for i in range(self.background_hosts):
            if i < len(pool):
                loaded.append(pool[i])
            else:
                overflow.append(self.pool_size + 1 + (i - len(pool)))
        runtime.background_load(loaded + [h for h in overflow if h < self.num_hosts])

        runtime.settle(WARMUP)
        runtime.failures.schedule_all(list(self.failures))

        outcome: dict = {}

        def client():
            naming = runtime.naming_stub(0)
            references = []
            placements = []
            for worker_id in range(self.num_workers):
                ior = yield naming.resolve(to_name(WORKER_GROUP))
                placements.append(ior.host)
                if self.fault_tolerant:
                    reference = runtime.ft_proxy(
                        RosenbrockWorkerStub,
                        ior,
                        key=f"worker-{worker_id}",
                        type_name=WORKER_TYPE,
                        group_name=WORKER_GROUP,
                        policy=FtPolicy(
                            checkpoint_mode=self.checkpoint_mode,
                            checkpoint_deltas=self.checkpoint_deltas,
                        ),
                    )
                else:
                    reference = runtime.orb(0).stub(ior, RosenbrockWorkerStub)
                references.append(reference)
            optimizer = DistributedRosenbrockOptimizer(
                runtime.orb(0),
                problem,
                references,
                worker_iterations=self.worker_iterations,
                manager_iterations=self.manager_iterations,
                seed=self.seed,
                n_points=self.manager_points,
                use_dii=self.use_dii,
            )
            result = yield from optimizer.optimize()
            outcome["result"] = result
            outcome["placements"] = placements
            outcome["references"] = references

        runtime.run(client(), limit=1e7)
        result: ManagerResult = outcome["result"]

        checkpoints = 0
        recoveries = 0
        if self.fault_tolerant:
            checkpoints = sum(
                ref._ft.checkpoints_taken for ref in outcome["references"]
            )
            recoveries = sum(
                c.recoveries for c in runtime._coordinators.values()
            )
        return ScenarioResult(
            scenario=self,
            runtime_seconds=result.runtime,
            result=result,
            worker_placements=outcome["placements"],
            checkpoints=checkpoints,
            recoveries=recoveries,
            runtime_obj=runtime,
        )


@dataclass
class ScenarioResult:
    """Measured outcome of one scenario."""

    scenario: Scenario
    runtime_seconds: float
    result: ManagerResult
    worker_placements: list[str]
    checkpoints: int
    recoveries: int
    runtime_obj: Runtime

    @property
    def label(self) -> str:
        strategy = "CORBA/Winner" if self.scenario.naming_strategy == "winner" else "CORBA"
        return (
            f"{strategy} {self.scenario.dimension}/{self.scenario.num_workers} "
            f"bg={self.scenario.background_hosts}"
        )

    def report(self) -> dict:
        """Full deployment debrief (host utilization, network, ORB stats,
        FT activity) for this scenario's runtime."""
        from repro.core.report import runtime_report

        return runtime_report(self.runtime_obj)
