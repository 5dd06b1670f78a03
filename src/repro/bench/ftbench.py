"""Drivers for the fault-tolerance ablation benches (DESIGN.md: abl-ft,
abl-recovery, abl-migration).

The workload is a stateful ``Accumulator`` service receiving a stream of
calls of fixed simulated cost — a distilled version of the worker traffic
in Table 1, small enough that each ablation cell runs in well under a
second of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.cluster import BackgroundLoad
from repro.core import Runtime, RuntimeConfig
from repro.ft import FtPolicy, MigrationPolicy
from repro.ft.checkpointable import CHECKPOINTABLE_IDL
from repro.orb import compile_idl

ACCUMULATOR_IDL = CHECKPOINTABLE_IDL + """
interface BenchAccumulator : FT::Checkpointable {
    double add(in double amount, in double work);
    double total();
};
"""

ns = compile_idl(ACCUMULATOR_IDL, name="bench-accumulator")


class AccumulatorImpl(ns.BenchAccumulatorSkeleton):
    def __init__(self) -> None:
        self._total = 0.0

    def add(self, amount, work):
        yield self._host().execute(work)
        self._total += amount
        return self._total

    def total(self):
        return self._total

    def get_checkpoint(self):
        return {"total": self._total}

    def restore_from(self, state):
        self._total = float(state["total"])


class PayloadAccumulatorImpl(ns.BenchAccumulatorSkeleton):
    """Accumulator whose checkpoint is dominated by a large static blob.

    The shape delta checkpoints exploit: per call only the scalar total
    changes, while the ``weights`` payload — think model parameters or a
    lookup table — rides along unchanged in every full snapshot.
    """

    def __init__(self, payload_floats: int = 512) -> None:
        self._total = 0.0
        self._weights = [float(i) * 0.5 for i in range(payload_floats)]

    def add(self, amount, work):
        yield self._host().execute(work)
        self._total += amount
        return self._total

    def total(self):
        return self._total

    def get_checkpoint(self):
        return {"total": self._total, "weights": list(self._weights)}

    def restore_from(self, state):
        self._total = float(state["total"])
        self._weights = [float(w) for w in state["weights"]]


def _runtime(num_hosts=6, seed=17, **kwargs) -> Runtime:
    runtime = Runtime(
        RuntimeConfig(
            num_hosts=num_hosts, seed=seed, winner_interval=0.5, **kwargs
        )
    ).start()
    runtime.register_type("BenchAccumulator", AccumulatorImpl)
    runtime.settle(3.0)
    return runtime


@dataclass(frozen=True)
class AblationRow:
    label: str
    runtime: float
    extra: dict


def checkpoint_interval_sweep(
    intervals: Sequence[int] = (1, 2, 5, 10),
    calls: int = 40,
    call_work: float = 0.02,
) -> list[AblationRow]:
    """Runtime of a call stream vs. checkpoint frequency (every k-th call).

    ``interval=1`` is the paper's configuration; larger intervals trade
    recovery granularity for overhead — the obvious §5 "optimizing the
    prototype" direction."""
    rows = []
    for interval in intervals:
        runtime = _runtime()
        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        proxy = runtime.ft_proxy(
            ns.BenchAccumulatorStub,
            ior,
            key="acc",
            type_name="BenchAccumulator",
            policy=FtPolicy(checkpoint_interval=interval),
        )

        def client():
            start = runtime.sim.now
            for _ in range(calls):
                yield proxy.add(1.0, call_work)
            return runtime.sim.now - start

        elapsed = runtime.run(client())
        rows.append(
            AblationRow(
                label=f"every {interval}",
                runtime=elapsed,
                extra={
                    "interval": interval,
                    "checkpoints": proxy._ft.checkpoints_taken,
                },
            )
        )
    return rows


#: FtPolicy overrides for the checkpoint fast-path ablation cells.
FASTPATH_MODES = {
    "sync": {},
    "pipelined": {"checkpoint_mode": "pipelined"},
    "deltas": {"checkpoint_deltas": True},
    "pipelined+deltas": {
        "checkpoint_mode": "pipelined",
        "checkpoint_deltas": True,
    },
}


def checkpoint_fastpath_sweep(
    modes: Sequence[str] = ("sync", "pipelined", "deltas", "pipelined+deltas"),
    calls: int = 40,
    call_work: float = 0.02,
    payload_floats: int = 512,
    reads: int = 4,
) -> list[AblationRow]:
    """The checkpoint fast-path ablation on a distilled Table 1 workload.

    A ``plain`` row (raw stub, no FT proxy) anchors the overhead
    percentages; each mode row is the same call stream through an FT proxy
    with that mode's :data:`FASTPATH_MODES` policy.  The trailing ``total``
    reads leave the state unchanged, so delta mode's content-hash skip gets
    exercised alongside the deltas themselves.
    """
    rows: list[AblationRow] = []

    def stream(runtime, target):
        def client():
            start = runtime.sim.now
            for _ in range(calls):
                yield target.add(1.0, call_work)
            for _ in range(reads):
                yield target.total()
            return runtime.sim.now - start

        return client()

    runtime = _runtime()
    ior = runtime.orb(1).poa.activate(PayloadAccumulatorImpl(payload_floats))
    stub = runtime.orb(0).stub(ior, ns.BenchAccumulatorStub)
    baseline = runtime.run(stream(runtime, stub))
    rows.append(AblationRow(label="plain", runtime=baseline, extra={}))

    for mode in modes:
        policy = FtPolicy(**FASTPATH_MODES[mode])
        runtime = _runtime()
        runtime.register_type(
            "PayloadAccumulator",
            lambda: PayloadAccumulatorImpl(payload_floats),
        )
        ior = runtime.orb(1).poa.activate(
            PayloadAccumulatorImpl(payload_floats)
        )
        proxy = runtime.ft_proxy(
            ns.BenchAccumulatorStub,
            ior,
            key="acc",
            type_name="PayloadAccumulator",
            policy=policy,
        )
        elapsed = runtime.run(stream(runtime, proxy))

        def settle():
            yield proxy.drain_checkpoints()

        runtime.run(settle())
        ft = proxy._ft
        shipper = ft.shipper
        backend = runtime.store_servant.backend
        rows.append(
            AblationRow(
                label=mode,
                runtime=elapsed,
                extra={
                    "overhead_percent": 100.0 * (elapsed / baseline - 1.0),
                    "checkpoints_taken": ft.checkpoints_taken,
                    "checkpoints_skipped": shipper.skipped,
                    "deltas_sent": shipper.deltas,
                    "fulls_sent": shipper.fulls,
                    "delta_fallbacks": shipper.fallbacks,
                    "pipeline_stalls": shipper.stalls,
                    "pipeline_peak_depth": shipper.peak_depth,
                    "bytes_shipped": shipper.bytes,
                    "store_bytes_written": backend.bytes_written,
                    "store_delta_bytes": backend.delta_bytes_written,
                },
            )
        )
    return rows


def store_backend_compare(
    calls: int = 30, call_work: float = 0.02
) -> list[AblationRow]:
    """Memory vs. simulated-disk checkpoint store ("no real persistency
    like storing checkpoints on disk media has been implemented, yet")."""
    rows = []
    for backend in ("memory", "disk"):
        runtime = _runtime(checkpoint_backend=backend)
        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        proxy = runtime.ft_proxy(
            ns.BenchAccumulatorStub, ior, key="acc", type_name="BenchAccumulator"
        )

        def client():
            start = runtime.sim.now
            for _ in range(calls):
                yield proxy.add(1.0, call_work)
            return runtime.sim.now - start

        rows.append(
            AblationRow(
                label=backend,
                runtime=runtime.run(client()),
                extra={"backend": backend},
            )
        )
    return rows


#: label → FtPolicy overrides for :func:`replication_compare` cells.
REPLICATION_STYLES = {
    "plain": None,
    "checkpoint": {},
    "passive": {"ft_mode": "warm-passive"},
    "active": {"ft_mode": "active"},
}


def replication_compare(
    calls: int = 30,
    call_work: float = 0.05,
    replicas: int = 3,
) -> list[AblationRow]:
    """Checkpointing vs. the first-class replication modes: the §3
    resource argument, measured against the *real* ``ft_mode``
    implementations (the same code path the chaos campaign exercises).
    Reports both completion time and total CPU work burned."""
    rows = []
    for style in ("plain", "checkpoint", "passive", "active"):
        runtime = _runtime(num_hosts=max(6, replicas + 2))
        work_before = _total_cpu_work(runtime)
        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        overrides = REPLICATION_STYLES[style]
        replicated = style in ("passive", "active")

        if overrides is None:
            target = runtime.orb(0).stub(ior, ns.BenchAccumulatorStub)
        else:
            if replicated:
                overrides = dict(overrides, replication_factor=replicas)
            target = runtime.ft_proxy(
                ns.BenchAccumulatorStub,
                ior,
                key="acc",
                type_name="BenchAccumulator",
                policy=FtPolicy(**overrides),
                with_store=style == "checkpoint",
            )
        if replicated:
            # Provision outside the measured window: the ablation compares
            # steady-state per-call cost, not group construction.
            def prep():
                yield target.provision_now()

            runtime.run(prep())

        def client(target=target, replicated=replicated):
            start = runtime.sim.now
            for _ in range(calls):
                yield target.add(1.0, call_work)
            if replicated:
                # Wait for straggler replicas / background ships so their
                # CPU use is fully accounted.
                yield target.drain_checkpoints()
                yield runtime.sim.timeout(call_work * calls)
            return runtime.sim.now - start

        elapsed = runtime.run(client())
        extra = {
            "cpu_work": _total_cpu_work(runtime) - work_before,
            "hosts_dedicated": replicas if replicated else 1,
        }
        if replicated:
            extra["group"] = target._ft.group.snapshot()
        rows.append(AblationRow(label=style, runtime=elapsed, extra=extra))
    return rows


def _total_cpu_work(runtime: Runtime) -> float:
    return sum(host.cpu.work_completed for host in runtime.cluster)


def _histogram_max(registry, name: str) -> float:
    largest = 0.0
    for instrument in registry:
        if instrument.kind == "histogram" and instrument.name == name:
            if instrument.count:
                largest = max(largest, instrument.max)
    return largest


#: label → (FtPolicy overrides, needs checkpoint store) for the
#: checkpoint-vs-replication ablation cells.  ``None`` replica counts
#: mean the design does not replicate (one servant, store-backed).
ABLATION_DESIGNS = {
    "checkpoint-sync": ({}, True),
    "checkpoint-pipelined": ({"checkpoint_mode": "pipelined"}, True),
    "warm-passive": ({"ft_mode": "warm-passive"}, False),
    "active": ({"ft_mode": "active"}, False),
}


def replication_ablation(
    replica_counts: Sequence[int] = (2, 3, 4),
    calls: int = 24,
    call_work: float = 0.05,
) -> list[AblationRow]:
    """The checkpoint-vs-replication ablation (Table-1-style matrix).

    Every design runs two deterministic cells over identical call
    streams: a fault-free one for steady-state overhead (anchored by a
    shared proxy-free ``plain`` baseline) and a crash cell where the
    service's *current primary host* dies halfway through the stream.
    The crash cell reports the client-observed unavailability window —
    crash instant to the next acknowledged call — plus the disruption
    net of one steady-state call.  Checkpoint designs pay detect →
    re-create → restore-from-store; warm-passive promotes an
    already-warm standby with no store round trip; active masks the
    fault inside the vote.  Replicated designs sweep ``replica_counts``.
    """
    crash_index = calls // 2

    def run_cell(overrides, with_store, replicas, crash):
        runtime = _runtime(num_hosts=7)
        work_before = _total_cpu_work(runtime)
        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        if overrides is None:
            target = runtime.orb(0).stub(ior, ns.BenchAccumulatorStub)
        else:
            policy_kwargs = dict(overrides)
            if replicas:
                policy_kwargs["replication_factor"] = replicas
            target = runtime.ft_proxy(
                ns.BenchAccumulatorStub,
                ior,
                key="acc",
                type_name="BenchAccumulator",
                policy=FtPolicy(**policy_kwargs),
                with_store=with_store,
            )
            if replicas:
                # Group construction happens outside the measured stream:
                # the ablation compares steady-state and failover cost.
                def prep():
                    yield target.provision_now()

                runtime.run(prep())

        def primary_host():
            if replicas:
                return target._ft.group.members[0].ior.host
            return target.ior.host

        timing: dict = {}

        def client():
            start = runtime.sim.now
            for index in range(calls):
                if crash and index == crash_index:
                    # Drain in-flight checkpoints/ships first so every
                    # design enters the fault from a fully persisted
                    # state: the cell measures recovery latency, not the
                    # pipelined acked-but-not-captured window.
                    yield target.drain_checkpoints()
                    timing["crash_at"] = runtime.sim.now
                    runtime.cluster.host(primary_host()).crash()
                before = runtime.sim.now
                yield target.add(1.0, call_work)
                if index == crash_index:
                    timing["ack_at"] = runtime.sim.now
                elif index == crash_index - 1:
                    timing["clean_call"] = runtime.sim.now - before
            elapsed = runtime.sim.now - start
            final = yield target.total()
            if overrides is not None:
                yield target.drain_checkpoints()
            return elapsed, final

        elapsed, final = runtime.run(client())
        cell = {
            "elapsed": elapsed,
            "final": final,
            "state_correct": abs(final - calls) < 1e-9,
            "cpu_work": _total_cpu_work(runtime) - work_before,
        }
        if crash:
            cell["unavailability"] = timing["ack_at"] - timing["crash_at"]
            cell["disruption"] = cell["unavailability"] - timing["clean_call"]
            metrics = runtime.obs.metrics
            cell["recovery_seconds"] = _histogram_max(
                metrics, "ft_recovery_seconds"
            )
            cell["failover_seconds"] = _histogram_max(
                metrics, "ft_failover_seconds"
            )
            cell["recoveries"] = runtime.coordinator(0).recoveries
            if replicas:
                cell["group"] = target._ft.group.snapshot()
        return cell

    rows: list[AblationRow] = []
    baseline = run_cell(None, False, None, crash=False)
    rows.append(
        AblationRow(
            label="plain",
            runtime=baseline["elapsed"],
            extra={"replicas": 1, "cpu_work": baseline["cpu_work"]},
        )
    )
    for label, (overrides, with_store) in ABLATION_DESIGNS.items():
        counts: Iterable[Optional[int]] = (
            replica_counts if "ft_mode" in overrides else (None,)
        )
        for replicas in counts:
            clean = run_cell(overrides, with_store, replicas, crash=False)
            crashed = run_cell(overrides, with_store, replicas, crash=True)
            rows.append(
                AblationRow(
                    label=label,
                    runtime=clean["elapsed"],
                    extra={
                        "replicas": replicas or 1,
                        "overhead_percent": 100.0
                        * (clean["elapsed"] / baseline["elapsed"] - 1.0),
                        "cpu_work": clean["cpu_work"],
                        "unavailability": crashed["unavailability"],
                        "disruption": crashed["disruption"],
                        "recovery_seconds": crashed["recovery_seconds"],
                        "failover_seconds": crashed["failover_seconds"],
                        "recoveries": crashed["recoveries"],
                        "state_correct": clean["state_correct"]
                        and crashed["state_correct"],
                        "group": crashed.get("group"),
                    },
                )
            )
    return rows


def replicated_store_compare(
    replica_counts: Sequence[int] = (1, 3),
    calls: int = 20,
    call_work: float = 0.02,
) -> list[AblationRow]:
    """Cost of removing the checkpoint-store SPOF: write overhead of N
    store replicas vs. one, plus proof that the FT path survives a store
    host crash only in the replicated configuration."""
    from repro.ft.replicated_store import ReplicatedCheckpointStore
    from repro.services.checkpoint import CheckpointStoreServant, CheckpointStoreStub

    rows = []
    for replicas in replica_counts:
        runtime = _runtime(num_hosts=max(6, replicas + 3))
        store_hosts = list(range(2, 2 + replicas))
        stubs = []
        for host in store_hosts:
            servant = CheckpointStoreServant(processing_work=0.002)
            ior = runtime.orb(host).poa.activate(servant)
            stubs.append(runtime.orb(0).stub(ior, CheckpointStoreStub))
        store = (
            stubs[0]
            if replicas == 1
            else ReplicatedCheckpointStore(runtime.orb(0), stubs)
        )
        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        proxy = runtime.ft_proxy(
            ns.BenchAccumulatorStub, ior, key="acc", type_name="BenchAccumulator"
        )
        proxy._ft.store = store
        proxy._ft.recovery.store = store

        def client():
            start = runtime.sim.now
            for _ in range(calls // 2):
                yield proxy.add(1.0, call_work)
            # Crash one store host mid-stream, then crash the service too.
            runtime.cluster.host(store_hosts[0]).crash()
            survived = True
            try:
                for _ in range(calls // 2):
                    yield proxy.add(1.0, call_work)
                runtime.cluster.host(proxy.ior.host).crash()
                total = yield proxy.total()
            # analysis: ignore[EXC002]: survival measurement — any failure counts as non-survival in the ablation row
            except Exception:
                survived = False
                total = None
            return runtime.sim.now - start, survived, total

        elapsed, survived, total = runtime.run(client())
        rows.append(
            AblationRow(
                label=f"{replicas} store replica(s)",
                runtime=elapsed,
                extra={
                    "replicas": replicas,
                    "survived_store_crash": survived,
                    "final_total": total,
                },
            )
        )
    return rows


def recovery_cell(
    failures: int,
    calls: int = 40,
    call_work: float = 0.05,
    **runtime_kwargs,
) -> tuple[Runtime, float, float]:
    """One failure-injection cell: a checkpointed accumulator stream of
    ``calls`` calls whose current host crashes ``failures`` times.

    Returns ``(runtime, elapsed, final_total)``.  ``runtime_kwargs``
    forward to :class:`RuntimeConfig` (e.g. ``seed``, or the resolve
    fast-path knobs for an optimized-mode recovery column)."""
    runtime = _runtime(num_hosts=7, **runtime_kwargs)
    ior = runtime.orb(1).poa.activate(AccumulatorImpl())
    proxy = runtime.ft_proxy(
        ns.BenchAccumulatorStub, ior, key="acc", type_name="BenchAccumulator"
    )
    # Crash the service's *current* host at evenly spaced times.  ws00
    # runs the client and the infrastructure; a real operator's fault
    # injection would not take down the coordinator, so a service that
    # recovered onto ws00 is spared.
    def crash_current():
        host = proxy.ior.host
        if host != "ws00":
            runtime.cluster.host(host).crash()

    span = calls * call_work * 1.6
    for index in range(failures):
        at = runtime.sim.now + span * (index + 1) / (failures + 1)
        runtime.sim.schedule_at(at, crash_current)

    def client():
        start = runtime.sim.now
        for _ in range(calls):
            yield proxy.add(1.0, call_work)
        final = yield proxy.total()
        return runtime.sim.now - start, final

    elapsed, final = runtime.run(client())
    return runtime, elapsed, final


def recovery_bench(
    failure_counts: Sequence[int] = (0, 1, 2),
    calls: int = 40,
    call_work: float = 0.05,
    **runtime_kwargs,
) -> list[AblationRow]:
    """Failure injection: runtime, recovery count and state correctness.

    The correct final total is ``calls`` regardless of crashes — checkpoint
    restore plus call retry must never lose or duplicate an update.
    ``runtime_kwargs`` forward to :func:`recovery_cell`."""
    rows = []
    for failures in failure_counts:
        runtime, elapsed, final = recovery_cell(
            failures, calls, call_work, **runtime_kwargs
        )
        coordinator = runtime.coordinator(0)
        rows.append(
            AblationRow(
                label=f"{failures} failure(s)",
                runtime=elapsed,
                extra={
                    "failures": failures,
                    "recoveries": coordinator.recoveries,
                    "recovery_time": coordinator.recovery_time_total,
                    "final_total": final,
                    "state_correct": abs(final - calls) < 1e-9,
                },
            )
        )
    return rows


def migration_bench(
    calls: int = 40, call_work: float = 0.05
) -> list[AblationRow]:
    """Completion time of a call stream when heavy competing load arrives
    on the service's host mid-run, with and without the migration policy."""
    rows = []
    for migrate in (False, True):
        runtime = _runtime(num_hosts=6)
        ior = runtime.orb(1).poa.activate(AccumulatorImpl())
        proxy = runtime.ft_proxy(
            ns.BenchAccumulatorStub, ior, key="acc", type_name="BenchAccumulator"
        )
        policy = None
        if migrate:
            policy = MigrationPolicy(
                proxy,
                runtime.naming_stub(0),
                runtime.system_manager,
                interval=1.0,
                improvement_factor=1.5,
            ).start()
        # Competing load arrives a quarter of the way in.
        runtime.sim.schedule(
            calls * call_work * 0.25,
            lambda: BackgroundLoad(
                runtime.cluster.host(proxy.ior.host), intensity=3, chunk=0.25
            ).start(),
        )

        def client():
            start = runtime.sim.now
            for _ in range(calls):
                yield proxy.add(1.0, call_work)
            return runtime.sim.now - start

        elapsed = runtime.run(client())
        if policy is not None:
            policy.stop()
        rows.append(
            AblationRow(
                label="migration on" if migrate else "migration off",
                runtime=elapsed,
                extra={
                    "migrations": policy.migrations if policy else 0,
                    "final_host": proxy.ior.host,
                },
            )
        )
    return rows
