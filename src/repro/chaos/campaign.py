"""The chaos campaign runner.

A campaign runs every (scenario, seed) cell of a matrix.  Each cell
deploys one full runtime (Winner + naming + checkpoint store + per-host
factories), runs the two paper workloads *concurrently* —

* a stateful accumulator behind a fault-tolerance proxy receiving a
  paced call stream (the §3 checkpoint/restart workload), and
* the §4 distributed Rosenbrock optimization over FT request proxies —

while the scenario injects its faults, then checks the invariants in
:mod:`repro.chaos.invariants` against what actually happened.  Runtime
configuration leans on the adaptive failure handling this package
exists to exercise: decorrelated-jitter backoff, a per-recovery
deadline, per-host circuit breakers and degraded-mode checkpointing.

:func:`breaker_ablation` is the controlled companion experiment: the
same flapping-host trap run with the fixed-backoff/no-breaker policy
and with breakers on, showing the breaker pays for itself in avoided
recovery attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.bench.ftbench import AccumulatorImpl, ns as acc_ns
from repro.chaos.invariants import (
    check_report,
    counter_total,
    histogram_max,
    stale_primary_violations,
)
from repro.chaos.scenarios import (
    ChaosScenario,
    ScenarioEnv,
    get_scenario,
    scenario_names,
)
from repro.core import Runtime, RuntimeConfig
from repro.errors import SystemException
from repro.ft import FtPolicy
from repro.ft.recovery import FACTORY_GROUP
from repro.obs.slo import DEFAULT_SLOS, evaluate_slos, export_slo_metrics
from repro.opt import (
    DecomposedRosenbrock,
    DistributedRosenbrockOptimizer,
    RosenbrockWorkerServant,
    RosenbrockWorkerStub,
    WorkerSettings,
)
from repro.orb.core import OrbConfig
from repro.services.naming.names import to_name
from repro.sim import all_of

#: hosts per cell: ws00 runs the services, ws01..ws04 the workloads.
NUM_HOSTS = 6
#: CPU work of one accumulator call (simulated seconds on a speed-1 host).
CALL_WORK = 0.02
#: dimension of the concurrent Rosenbrock optimization (two workers).
OPT_DIM = 8
#: the policy's per-recovery deadline (simulated seconds).
RECOVERY_DEADLINE = 6.0
#: ORB request timeout, so a partitioned or wedged host surfaces as TIMEOUT.
REQUEST_TIMEOUT = 0.8
#: Winner warm-up before the faults start (simulated seconds).
SETTLE = 1.0
#: replicas of the accumulator group in the replication modes.
REPLICATION_FACTOR = 3


@dataclass
class CampaignConfig:
    """Shape of one campaign matrix."""

    seeds: Sequence[int] = (11, 12, 13, 14, 15)
    #: scenario names to run; empty = the whole catalogue.
    scenarios: Sequence[str] = ()
    #: length of the fault window (simulated seconds).
    horizon: float = 4.0
    acc_calls: int = 24
    manager_iterations: int = 3
    worker_iterations: int = 400
    #: checkpoint fast-path knobs under chaos: "sync" is the paper path;
    #: "pipelined" (and deltas) must satisfy the same invariants.
    checkpoint_mode: str = "sync"
    checkpoint_deltas: bool = False
    #: resolve fast path under chaos: the cache must never serve a
    #: selection on a dead host (the no-stale-resolve invariant).
    resolve_cache: bool = False
    #: fault-tolerance mode for the *accumulator* proxy: "checkpoint"
    #: (the paper path, default), "warm-passive" or "active".  The
    #: optimizer proxies always stay on the checkpoint path, so every
    #: cell exercises both designs side by side.
    ft_mode: str = "checkpoint"
    #: SLO gating: failures are always *recorded* per cell (and exported
    #: as ``slo_ok`` gauges); with ``enforce_slos`` they also count as
    #: invariant violations and fail the campaign.
    enforce_slos: bool = False

    @classmethod
    def fast(cls, seeds: Sequence[int] = (11, 12, 13)) -> "CampaignConfig":
        """A trimmed matrix for CI: same scenarios, smaller workload."""
        return cls(
            seeds=tuple(seeds),
            horizon=2.5,
            acc_calls=12,
            manager_iterations=2,
            worker_iterations=250,
        )

    def scenario_list(self) -> list[ChaosScenario]:
        names = list(self.scenarios) or scenario_names()
        return [get_scenario(name) for name in names]

    def policy(self) -> FtPolicy:
        return FtPolicy(
            backoff="decorrelated-jitter",
            retry_backoff=0.05,
            backoff_cap=0.8,
            recovery_deadline=RECOVERY_DEADLINE,
            max_recover_attempts=10,
            max_call_retries=6,
            breaker_failure_threshold=2,
            breaker_reset_timeout=1.0,
            on_checkpoint_failure="degraded",
            checkpoint_buffer_limit=16,
            checkpoint_mode=self.checkpoint_mode,
            checkpoint_deltas=self.checkpoint_deltas,
        )

    def acc_policy(self) -> FtPolicy:
        """The accumulator proxy's policy: the base policy, switched to
        the configured replication mode (with a failure detector so a
        suspected primary is promoted between calls too)."""
        policy = self.policy()
        if self.ft_mode == "checkpoint":
            return policy
        return replace(
            policy,
            ft_mode=self.ft_mode,
            replication_factor=REPLICATION_FACTOR,
            detector_interval=0.25,
        )


@dataclass
class ScenarioReport:
    """Everything measured in one (scenario, seed) cell."""

    scenario: str
    seed: int
    expects: dict
    sim_seconds: float = 0.0
    # accumulator stream
    acc_ok: int = 0
    acc_failed: int = 0
    acc_final_total: Optional[float] = None
    acc_errors: dict = field(default_factory=dict)
    # optimizer
    opt_enabled: bool = True
    opt_fun: Optional[float] = None
    opt_converged: Optional[bool] = None
    opt_error: Optional[str] = None
    # recovery coordinator
    recoveries: int = 0
    failed_recoveries: int = 0
    coalesced: int = 0
    attempts_total: int = 0
    factory_failures: int = 0
    breaker_skips: int = 0
    deadline_failures: int = 0
    recovery_time_total: float = 0.0
    recovery_max_seconds: float = 0.0
    recovery_deadline: Optional[float] = None
    # breakers
    breaker_snapshot: list = field(default_factory=list)
    metric_breaker_opens: float = 0.0
    metric_breaker_rejections: float = 0.0
    # checkpoints
    checkpoints_buffered: int = 0
    checkpoints_flushed: int = 0
    restores_from_buffer: float = 0.0
    checkpoint_buffer_depth_end: int = 0
    # checkpoint fast path
    checkpoints_skipped: int = 0
    deltas_sent: int = 0
    fulls_sent: int = 0
    delta_fallbacks: int = 0
    pipeline_stalls: int = 0
    checkpoint_pipeline_depth_end: int = 0
    # resolve fast path
    resolve_cache_enabled: bool = False
    resolve_cache_hits: int = 0
    resolve_cache_misses: int = 0
    resolve_stale_served: int = 0
    # replication modes (accumulator proxy)
    ft_mode: str = "checkpoint"
    promotions: int = 0
    lead_changes: int = 0
    replacements: int = 0
    replicas_retired: int = 0
    state_ships: int = 0
    duplicates_suppressed: int = 0
    stale_primary: list = field(default_factory=list)
    # SLOs (evaluated from the metrics registry at harvest time)
    slo_failures: list = field(default_factory=list)
    # plumbing
    drop_listener_errors: int = 0
    chaos_events: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return dict(self.__dict__)


# -- one cell ------------------------------------------------------------------


def run_scenario(
    scenario: ChaosScenario | str,
    seed: int,
    config: Optional[CampaignConfig] = None,
) -> ScenarioReport:
    """Run one scenario under one seed and check every invariant."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    config = config or CampaignConfig()
    policy = config.policy()
    runtime = Runtime(
        RuntimeConfig(
            num_hosts=NUM_HOSTS,
            seed=seed,
            winner_interval=0.25,
            auto_heal_delay=0.5,
            checkpoint_processing_work=0.002,
            breakers=True,
            recovery_policy=policy,
            resolve_cache=config.resolve_cache,
            orb=OrbConfig(request_timeout=REQUEST_TIMEOUT),
        )
    ).start()
    sim = runtime.sim

    worker_hosts = [runtime.cluster.host(i).name for i in range(1, 5)]
    report = ScenarioReport(
        scenario=scenario.name,
        seed=seed,
        expects=dict(scenario.expects),
        recovery_deadline=policy.recovery_deadline,
        ft_mode=config.ft_mode,
    )

    # deploy the workload servants ------------------------------------------------
    runtime.register_type("BenchAccumulator", AccumulatorImpl)
    acc_iors = runtime.run(
        runtime.deploy_group(
            "chaos-acc.service", "BenchAccumulator", [worker_hosts[0]]
        )
    )
    acc_proxy = runtime.ft_proxy(
        acc_ns.BenchAccumulatorStub,
        acc_iors[0],
        key="chaos-acc",
        type_name="BenchAccumulator",
        group_name="chaos-acc.service",
        policy=config.acc_policy(),
    )
    contexts = [acc_proxy._ft]

    opt_references = []
    problem = DecomposedRosenbrock(OPT_DIM, 2)
    settings = WorkerSettings(real_iteration_cap=48, work_per_eval_per_dim=2e-5)
    runtime.register_type(
        "RosenbrockWorker",
        lambda: RosenbrockWorkerServant(problem, settings),
    )
    runtime.run(
        runtime.deploy_group("workers.service", "RosenbrockWorker", worker_hosts)
    )

    runtime.settle(SETTLE)

    # Replication modes provision their group BEFORE the faults start, so
    # the scenarios can aim at the actual primary / standbys.
    primary_host = worker_hosts[0]
    standby_hosts = list(worker_hosts[1:])
    if config.ft_mode != "checkpoint":

        def provision():
            yield acc_proxy.provision_now()

        runtime.run(provision())
        group = acc_proxy._ft.group
        primary_host = group.members[0].ior.host
        standby_hosts = [m.ior.host for m in group.members[1:]]

    # install the scenario's faults over [now, now + horizon] --------------------
    env = ScenarioEnv(
        runtime=runtime,
        injector=runtime.failures,
        start=sim.now,
        horizon=config.horizon,
        service_host=runtime.cluster.host(0).name,
        worker_hosts=worker_hosts,
        primary_host=primary_host,
        standby_hosts=standby_hosts,
    )
    scenario.install(env)
    drain_until = env.start + config.horizon + 0.5

    # the two workloads, concurrently --------------------------------------------
    acc_out: dict = {}
    opt_out: dict = {}

    def acc_client():
        ok = failed = 0
        errors: dict[str, int] = {}
        gap = config.horizon / max(1, config.acc_calls)
        calls = 0
        # Keep calling through the fault window and a little past it, so
        # late heals are exercised and degraded-mode buffers get their
        # chance to flush into the recovered store.
        while calls < config.acc_calls or sim.now < drain_until:
            try:
                yield acc_proxy.add(1.0, CALL_WORK)
                ok += 1
            # analysis: ignore[EXC002]: chaos client counts every failure type into the error histogram
            except Exception as exc:
                failed += 1
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            calls += 1
            yield sim.timeout(gap * 0.6)
        final = None
        for _ in range(3):  # the final read retries around a late fault
            try:
                final = yield acc_proxy.total()
                break
            # analysis: ignore[EXC002]: chaos client counts every failure type into the error histogram
            except Exception as exc:
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                yield sim.timeout(0.3)
        acc_out.update(ok=ok, failed=failed, final=final, errors=errors)

    def opt_client():
        naming = runtime.naming_stub(0)
        try:
            for worker_id in range(problem.num_workers):
                ior = yield naming.resolve(to_name("workers.service"))
                proxy = runtime.ft_proxy(
                    RosenbrockWorkerStub,
                    ior,
                    key=f"chaos-w{worker_id}",
                    type_name="RosenbrockWorker",
                    group_name="workers.service",
                )
                opt_references.append(proxy)
                contexts.append(proxy._ft)
            optimizer = DistributedRosenbrockOptimizer(
                runtime.orb(0),
                problem,
                opt_references,
                worker_iterations=config.worker_iterations,
                manager_iterations=config.manager_iterations,
                seed=seed,
            )
            result = yield from optimizer.optimize()
            opt_out.update(fun=float(result.fun), converged=bool(result.converged))
        # analysis: ignore[EXC002]: outcome (incl. the error) is recorded; the scenario invariants judge it
        except Exception as exc:
            opt_out.update(error=f"{type(exc).__name__}: {exc}")

    def drive():
        procs = [
            sim.spawn(acc_client(), name="chaos-acc-client"),
            sim.spawn(opt_client(), name="chaos-opt-client"),
        ]
        yield all_of(sim, procs)
        # Shutdown drain, in two steps.  First settle any pipelined
        # persists still in flight (a failed one lands in the degraded
        # buffer) ...
        for proxy in [acc_proxy, *opt_references]:
            if proxy._ft.shipper.inflight or proxy._ft.group is not None:
                yield proxy.drain_checkpoints()
        # ... then: a workload that finished *during* the storage
        # outage still holds buffered checkpoints; one more checkpoint
        # attempt flushes them now that the store has healed.
        for proxy in [acc_proxy, *opt_references]:
            if proxy._ft.buffered_checkpoints:
                try:
                    yield proxy.checkpoint_now()
                # analysis: ignore[EXC003]: store still down — buffers stay and the stranded-buffer invariant reports them
                except SystemException:
                    pass

    started = sim.now
    runtime.run(drive())
    report.sim_seconds = sim.now - started

    # harvest ---------------------------------------------------------------------
    report.acc_ok = acc_out.get("ok", 0)
    report.acc_failed = acc_out.get("failed", 0)
    report.acc_final_total = acc_out.get("final")
    report.acc_errors = acc_out.get("errors", {})
    report.opt_fun = opt_out.get("fun")
    report.opt_converged = opt_out.get("converged")
    report.opt_error = opt_out.get("error")

    coordinator = runtime.coordinator(0)
    report.recoveries = coordinator.recoveries
    report.failed_recoveries = coordinator.failed_recoveries
    report.coalesced = coordinator.coalesced
    report.attempts_total = coordinator.attempts_total
    report.factory_failures = coordinator.factory_failures
    report.breaker_skips = coordinator.breaker_skips
    report.deadline_failures = coordinator.deadline_failures
    report.recovery_time_total = coordinator.recovery_time_total

    metrics = runtime.obs.metrics
    report.recovery_max_seconds = histogram_max(metrics, "ft_recovery_seconds")
    report.breaker_snapshot = runtime.breakers.snapshot()
    report.metric_breaker_opens = counter_total(
        metrics, "ft_breaker_transitions_total", to="open"
    )
    report.metric_breaker_rejections = counter_total(
        metrics, "ft_breaker_rejections_total"
    )
    report.checkpoints_buffered = sum(c.checkpoints_buffered for c in contexts)
    report.checkpoints_flushed = sum(c.checkpoints_flushed for c in contexts)
    report.restores_from_buffer = counter_total(
        metrics, "ft_restores_from_buffer_total"
    )
    report.checkpoint_buffer_depth_end = sum(
        len(c.buffered_checkpoints) for c in contexts
    )
    shippers = [c.shipper for c in contexts]
    report.checkpoints_skipped = sum(s.skipped for s in shippers)
    report.deltas_sent = sum(s.deltas for s in shippers)
    report.fulls_sent = sum(s.fulls for s in shippers)
    report.delta_fallbacks = sum(s.fallbacks for s in shippers)
    report.pipeline_stalls = sum(s.stalls for s in shippers)
    report.checkpoint_pipeline_depth_end = sum(
        len(s.inflight) for s in shippers
    )
    naming = runtime.naming_root
    if naming is not None and naming.resolve_cache is not None:
        report.resolve_cache_enabled = True
        report.resolve_cache_hits = naming.resolve_cache.stats.hits
        report.resolve_cache_misses = naming.resolve_cache.stats.misses
        report.resolve_stale_served = naming.resolve_cache.stats.stale_served
    group = acc_proxy._ft.group
    if group is not None:
        snap = group.snapshot()
        report.promotions = snap["promotions"]
        report.lead_changes = snap["lead_changes"]
        report.replacements = snap["replacements"]
        report.replicas_retired = snap["retired"]
        report.state_ships = (
            snap["state_ships_full"] + snap["state_ships_delta"]
        )
    report.duplicates_suppressed = sum(
        m.duplicates_suppressed for m in runtime._replica_members
    )
    report.stale_primary = stale_primary_violations(runtime)
    slo_results = evaluate_slos(metrics.snapshot(), DEFAULT_SLOS)
    export_slo_metrics(metrics, slo_results)
    report.slo_failures = [
        f"{r.spec.name}: {r.detail}" for r in slo_results if not r.ok
    ]
    report.drop_listener_errors = runtime.network.drop_listener_errors
    report.chaos_events = list(runtime.failures.chaos_events) + [
        {"kind": "crash-restart", "host": p.host, "at": p.crash_at,
         "restart_after": p.restart_after}
        for p in runtime.failures.injected
    ]
    report.violations = check_report(report)
    if config.enforce_slos:
        report.violations += [f"slo: {f}" for f in report.slo_failures]
    return report


# -- the matrix ----------------------------------------------------------------


@dataclass
class CampaignResult:
    reports: list[ScenarioReport]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def violations(self) -> list[str]:
        return [
            f"{r.scenario}/seed={r.seed}: {v}"
            for r in self.reports
            for v in r.violations
        ]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": len(self.reports),
            "reports": [r.to_dict() for r in self.reports],
        }


def run_campaign(
    config: Optional[CampaignConfig] = None,
    progress=None,
) -> CampaignResult:
    """Run the full scenario × seed matrix of ``config``."""
    config = config or CampaignConfig()
    reports = []
    for scenario in config.scenario_list():
        for seed in config.seeds:
            report = run_scenario(scenario, seed, config)
            reports.append(report)
            if progress is not None:
                progress(report)
    return CampaignResult(reports)


def export_campaign_metrics(result: CampaignResult, registry) -> None:
    """Publish per-cell campaign results through a metrics registry (the
    same machine-readable surface the runtime's exporters consume)."""
    for r in result.reports:
        labels = {"scenario": r.scenario, "seed": r.seed}
        registry.gauge("chaos_invariant_violations", **labels).set(
            len(r.violations)
        )
        registry.gauge("chaos_acc_ok_calls", **labels).set(r.acc_ok)
        registry.gauge("chaos_acc_failed_calls", **labels).set(r.acc_failed)
        registry.gauge("chaos_recoveries", **labels).set(r.recoveries)
        registry.gauge("chaos_recovery_attempts", **labels).set(r.attempts_total)
        registry.gauge("chaos_recovery_max_seconds", **labels).set(
            r.recovery_max_seconds
        )
        registry.gauge("chaos_breaker_opens", **labels).set(
            r.metric_breaker_opens
        )
        registry.gauge("chaos_checkpoints_buffered", **labels).set(
            r.checkpoints_buffered
        )
        registry.gauge("chaos_checkpoints_flushed", **labels).set(
            r.checkpoints_flushed
        )
        registry.gauge("chaos_checkpoint_deltas", **labels).set(r.deltas_sent)
        registry.gauge("chaos_checkpoints_skipped", **labels).set(
            r.checkpoints_skipped
        )
        registry.gauge("chaos_pipeline_stalls", **labels).set(
            r.pipeline_stalls
        )
        registry.gauge("chaos_resolve_cache_hits", **labels).set(
            r.resolve_cache_hits
        )
        registry.gauge("chaos_resolve_stale_served", **labels).set(
            r.resolve_stale_served
        )
        registry.gauge("chaos_slo_failures", **labels).set(
            len(r.slo_failures)
        )
        registry.gauge("chaos_promotions", **labels).set(r.promotions)
        registry.gauge("chaos_replacements", **labels).set(r.replacements)
        registry.gauge("chaos_stale_primary_hits", **labels).set(
            len(r.stale_primary)
        )


# -- the breaker ablation -------------------------------------------------------


@dataclass
class AblationReport:
    mode: str
    recoveries: int
    failed_recoveries: int
    attempts_total: int
    factory_failures: int
    breaker_skips: int
    recovery_time_total: float
    placements_on_flapper: int
    acc_ok: int
    acc_failed: int
    final_total: Optional[float]
    state_correct: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def breaker_ablation(
    seed: int = 7, calls: int = 40, call_work: float = 0.02
) -> list[AblationReport]:
    """Fixed-backoff baseline vs. breakers, same flapping-host trap.

    One host flaps throughout the run while the accumulator's current
    host is killed (and restarted) once a second.  Every recovery must
    pick a factory host; the baseline keeps walking into the flapper —
    paying dead round trips when it is down and doomed placements when
    it is up — while the breaker configuration learns to route around
    it.  Returns one report per mode; the bench asserts the breaker
    strictly reduces wasted recovery attempts.
    """
    reports = []
    for mode in ("fixed", "breakers"):
        policy = FtPolicy(
            backoff="fixed" if mode == "fixed" else "decorrelated-jitter",
            retry_backoff=0.1,
            backoff_cap=0.8,
            max_recover_attempts=10,
            max_call_retries=6,
            breaker_failure_threshold=2,
            breaker_reset_timeout=2.0,
        )
        runtime = Runtime(
            RuntimeConfig(
                num_hosts=4,
                seed=seed,
                winner_interval=0.25,
                naming_strategy="round-robin",
                auto_heal_delay=0.15,
                checkpoint_processing_work=0.002,
                breakers=mode == "breakers",
                recovery_policy=policy,
            )
        ).start()
        sim = runtime.sim
        flapper = runtime.cluster.host(2).name
        runtime.register_type("BenchAccumulator", AccumulatorImpl)
        runtime.settle(0.6)  # lets the async factory binds land first

        # Recoveries must land on real worker hosts, so take the service
        # host's factory out of the group: chaos-testing never touches
        # ws00, and a servant recovered there could no longer be killed.
        def drop_service_factory():
            naming = runtime.naming_stub(0)
            group = to_name(FACTORY_GROUP)
            iors = yield naming.resolve_all(group)
            for ior in iors:
                if ior.host == runtime.cluster.host(0).name:
                    yield naming.unbind_service(group, ior)

        runtime.run(drop_service_factory())

        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        proxy = runtime.ft_proxy(
            acc_ns.BenchAccumulatorStub,
            ior,
            key="abl-acc",
            type_name="BenchAccumulator",
        )

        # The trap: host 2 flaps for the whole run ...
        runtime.failures.schedule_flapping(
            flapper, at=sim.now + 0.3, cycles=6, down_time=0.35, up_time=0.65
        )

        # ... while the accumulator's current host dies once a second.
        def kill_current():
            host_name = proxy.ior.host
            if host_name == runtime.cluster.host(0).name:
                return  # the coordinator host is off-limits
            host = runtime.cluster.host(host_name)
            if host.up and host_name != flapper:
                host.crash()
                sim.schedule(0.4, host.restart)
            # A flapper placement needs no extra kill: the flap schedule
            # will take it down.

        for k in range(6):
            sim.schedule_at(sim.now + 0.5 + k * 1.0, kill_current)

        placements: list[str] = []

        def client():
            ok = failed = 0
            for _ in range(calls):
                try:
                    yield proxy.add(1.0, call_work)
                    ok += 1
                # analysis: ignore[EXC002]: ablation client records any failure shape as a failed call
                except Exception:
                    failed += 1
                if not placements or placements[-1] != proxy.ior.host:
                    placements.append(proxy.ior.host)
                yield sim.timeout(0.12)
            try:
                final = yield proxy.total()
            # analysis: ignore[EXC002]: ablation client records any failure shape as a failed call
            except Exception:
                final = None
            return ok, failed, final

        ok, failed, final = runtime.run(client())
        coordinator = runtime.coordinator(0)
        reports.append(
            AblationReport(
                mode=mode,
                recoveries=coordinator.recoveries,
                failed_recoveries=coordinator.failed_recoveries,
                attempts_total=coordinator.attempts_total,
                factory_failures=coordinator.factory_failures,
                breaker_skips=coordinator.breaker_skips,
                recovery_time_total=coordinator.recovery_time_total,
                placements_on_flapper=sum(1 for h in placements if h == flapper),
                acc_ok=ok,
                acc_failed=failed,
                final_total=final,
                state_correct=final is not None and abs(final - ok) < 1e-9,
            )
        )
    return reports
