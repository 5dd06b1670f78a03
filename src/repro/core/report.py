"""Deployment reports: what happened on the simulated NOW.

Aggregates per-host CPU accounting, network counters, per-operation ORB
statistics and fault-tolerance activity into one structure — the
run record that tests and benchmarks read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.slo import slo_report
from repro.orb import cdr

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Runtime


def runtime_report(runtime: "Runtime") -> dict:
    """Collect a structured snapshot of a runtime's activity."""
    sim = runtime.sim
    hosts = []
    for host in runtime.cluster:
        busy = host.cpu.utilization_integral()
        hosts.append(
            {
                "host": host.name,
                "up": host.up,
                "speed": host.speed,
                "cores": host.cores,
                "cpu_busy_seconds": busy,
                "utilization": busy / sim.now / host.cores if sim.now > 0 else 0.0,
                "work_completed": host.cpu.work_completed,
                "crashes": host.crash_count,
            }
        )
    network = runtime.network
    operations: dict[str, dict] = {}
    for orb in runtime._orbs.values():
        for name, stats in orb.call_stats.items():
            entry = operations.setdefault(
                name,
                {"calls": 0, "failures": 0, "total_latency": 0.0, "max_latency": 0.0},
            )
            entry["calls"] += stats.calls
            entry["failures"] += stats.failures
            entry["total_latency"] += stats.total_latency
            entry["max_latency"] = max(entry["max_latency"], stats.max_latency)
    for entry in operations.values():
        entry["mean_latency"] = (
            entry["total_latency"] / entry["calls"] if entry["calls"] else 0.0
        )

    servant = runtime.store_servant
    ft = {
        "checkpoints_stored": servant.stores if servant else 0,
        "checkpoint_bytes": (
            servant.backend.bytes_written if servant else 0
        ),
        "delta_stores": servant.delta_stores if servant else 0,
        "delta_bytes": (
            servant.backend.delta_bytes_written if servant else 0
        ),
        "delta_rejections": servant.delta_rejections if servant else 0,
        "recoveries": sum(c.recoveries for c in runtime._coordinators.values()),
        "failed_recoveries": sum(
            c.failed_recoveries for c in runtime._coordinators.values()
        ),
        "recovery_time_total": sum(
            c.recovery_time_total for c in runtime._coordinators.values()
        ),
    }

    # Per-proxy checkpoint fast-path behaviour, aggregated across every
    # FtContext the runtime handed out.
    contexts = runtime._ft_contexts
    shippers = [c.shipper for c in contexts]
    proxies = {
        "proxies": len(contexts),
        "calls": sum(c.calls for c in contexts),
        "checkpoints_taken": sum(c.checkpoints_taken for c in contexts),
        "retries": sum(c.retries for c in contexts),
        "checkpoints_buffered": sum(c.checkpoints_buffered for c in contexts),
        "checkpoints_flushed": sum(c.checkpoints_flushed for c in contexts),
        "checkpoints_skipped": sum(s.skipped for s in shippers),
        "deltas_sent": sum(s.deltas for s in shippers),
        "fulls_sent": sum(s.fulls for s in shippers),
        "delta_fallbacks": sum(s.fallbacks for s in shippers),
        "bytes_shipped": sum(s.bytes for s in shippers),
        "pipeline_stalls": sum(s.stalls for s in shippers),
        "pipeline_peak_depth": max((s.peak_depth for s in shippers), default=0),
        "pipeline_inflight": sum(len(s.inflight) for s in shippers),
        "buffer_depth": sum(len(c.buffered_checkpoints) for c in contexts),
    }

    # First-class replication groups (warm-passive / active ft_mode) plus
    # the server-side replica wrappers the factories created for them.
    groups = [c.group for c in contexts if c.group is not None]
    members = runtime._replica_members
    replication = {
        "groups": len(groups),
        "modes": sorted({g.mode for g in groups}),
        "members": sum(len(g.members) for g in groups),
        "retired": sum(len(g.retired) for g in groups),
        "calls": sum(g.calls for g in groups),
        "promotions": sum(g.promotions for g in groups),
        "lead_changes": sum(g.lead_changes for g in groups),
        "state_ships_full": sum(g.shipper.fulls for g in groups),
        "state_ships_delta": sum(g.shipper.deltas for g in groups),
        "ship_bytes": sum(g.shipper.bytes for g in groups),
        "ship_stalls": sum(g.shipper.stalls for g in groups),
        "delta_fallbacks": sum(g.shipper.fallbacks for g in groups),
        "replacements": sum(g.replacements for g in groups),
        "replacement_failures": sum(
            g.replacement_failures for g in groups
        ),
        "votes": sum(g.votes for g in groups),
        "vote_rounds": sum(g.vote_rounds for g in groups),
        "divergences": sum(g.divergences for g in groups),
        "resyncs": sum(g.resyncs for g in groups),
        "replicas_created": len(members),
        "dispatches": sum(m.dispatches for m in members),
        "applies": sum(m.applies for m in members),
        "duplicates_suppressed": sum(
            m.duplicates_suppressed for m in members
        ),
        "state_restores": sum(m.state_restores for m in members),
    }

    # The resolve fast path: naming-side cache, Winner delta reports and
    # ORB connection reuse (all zeros/disabled unless the flags are on).
    naming = runtime.naming_root
    if naming is not None and naming.resolve_cache is not None:
        resolve_cache = naming.resolve_cache.snapshot()
    else:
        resolve_cache = {"enabled": False}
    connections: dict = {"enabled": False}
    for orb in runtime._orbs.values():
        if orb.connections is None:
            continue
        snap = orb.connections.snapshot()
        if not connections["enabled"]:
            connections = snap
        else:
            for key, value in snap.items():
                if key not in ("enabled", "capacity"):
                    connections[key] += value
    winner_reports = {
        "full_reports_sent": sum(
            nm.full_reports_sent for nm in runtime._node_managers.values()
        ),
        "delta_reports_sent": sum(
            nm.delta_reports_sent for nm in runtime._node_managers.values()
        ),
        "report_bytes_sent": sum(
            nm.report_bytes_sent for nm in runtime._node_managers.values()
        ),
    }

    return {
        "simulated_time": sim.now,
        "hosts": hosts,
        "network": {
            "messages_sent": network.messages_sent,
            "messages_delivered": network.messages_delivered,
            "messages_dropped": network.messages_dropped,
            "bytes_sent": network.bytes_sent,
        },
        "operations": operations,
        "fault_tolerance": ft,
        "ft_proxies": proxies,
        "replication": replication,
        "resolve_cache": resolve_cache,
        "connection_cache": connections,
        "winner_reports": winner_reports,
        "cdr_plan_cache": {
            key: count - runtime._plan_stats_at_start[key]
            for key, count in cdr.plan_cache_stats().items()
        },
        "observability": sim.obs.report(),
        "slo": slo_report(sim.obs.metrics.snapshot()),
    }
