"""Deployment reports: what happened on the simulated NOW.

Aggregates per-host CPU accounting, network counters, per-operation ORB
statistics and fault-tolerance activity into one structure — the
"experiment debrief" every bench and example can print.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bench.reporting import format_table
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
        "reports_coalesced": sum(
            nm.reports_coalesced for nm in runtime._node_managers.values()
        ),
        "report_bytes_sent": sum(
            nm.report_bytes_sent for nm in runtime._node_managers.values()
        ),
        "delta_reports_received": (
            runtime.system_manager.delta_reports_received
            if runtime.system_manager
            else 0
        ),
        "delta_reports_ignored": (
            runtime.system_manager.delta_reports_ignored
            if runtime.system_manager
            else 0
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


def format_runtime_report(report: dict) -> str:
    """Human-readable rendering of :func:`runtime_report`."""
    sections = []
    sections.append(
        format_table(
            ["host", "up", "speed", "cores", "busy [s]", "util", "crashes"],
            [
                [
                    row["host"],
                    "yes" if row["up"] else "DOWN",
                    row["speed"],
                    row["cores"],
                    f"{row['cpu_busy_seconds']:.2f}",
                    f"{row['utilization']:.2%}",
                    row["crashes"],
                ]
                for row in report["hosts"]
            ],
            title=f"Hosts after {report['simulated_time']:.2f} simulated seconds",
        )
    )
    net = report["network"]
    sections.append(
        f"Network: {net['messages_sent']} sent, {net['messages_delivered']} "
        f"delivered, {net['messages_dropped']} dropped, "
        f"{net['bytes_sent']} bytes"
    )
    if report["operations"]:
        sections.append(
            format_table(
                ["operation", "calls", "failures", "mean latency [s]", "max [s]"],
                [
                    [
                        name,
                        stats["calls"],
                        stats["failures"],
                        f"{stats['mean_latency']:.4f}",
                        f"{stats['max_latency']:.4f}",
                    ]
                    for name, stats in sorted(report["operations"].items())
                ],
                title="ORB operations (all client ORBs)",
            )
        )
    ft = report["fault_tolerance"]
    ft_line = (
        f"Fault tolerance: {ft['checkpoints_stored']} checkpoints "
        f"({ft['checkpoint_bytes']} bytes), {ft['recoveries']} recoveries "
        f"({ft['recovery_time_total']:.3f}s), "
        f"{ft['failed_recoveries']} failed"
    )
    if ft["delta_stores"] or ft["delta_rejections"]:
        ft_line += (
            f"; store-side deltas: {ft['delta_stores']} applied "
            f"({ft['delta_bytes']} bytes), "
            f"{ft['delta_rejections']} rejected"
        )
    sections.append(ft_line)
    proxies = report.get("ft_proxies")
    if proxies and proxies["proxies"]:
        line = (
            f"FT proxies: {proxies['proxies']} proxies, "
            f"{proxies['calls']} calls "
            f"({proxies['retries']} retries), "
            f"{proxies['checkpoints_taken']} checkpoints taken "
            f"({proxies['checkpoints_buffered']} buffered, "
            f"{proxies['checkpoints_flushed']} flushed)"
        )
        fastpath = (
            proxies["checkpoints_skipped"]
            or proxies["deltas_sent"]
            or proxies["pipeline_stalls"]
            or proxies["pipeline_peak_depth"]
        )
        if fastpath:
            line += (
                f"; fast path: {proxies['deltas_sent']} deltas / "
                f"{proxies['fulls_sent']} fulls "
                f"({proxies['delta_fallbacks']} fallbacks, "
                f"{proxies['checkpoints_skipped']} skipped, "
                f"{proxies['bytes_shipped']} bytes shipped), "
                f"pipeline peak depth {proxies['pipeline_peak_depth']} "
                f"({proxies['pipeline_stalls']} stalls, "
                f"{proxies['pipeline_inflight']} in flight and "
                f"{proxies['buffer_depth']} buffered at report time)"
            )
        sections.append(line)
    repl = report.get("replication")
    if repl and repl["groups"]:
        line = (
            f"Replication: {repl['groups']} group(s) "
            f"[{'/'.join(repl['modes'])}], {repl['calls']} calls, "
            f"{repl['promotions']} promotions, "
            f"{repl['lead_changes']} lead changes, "
            f"{repl['replacements']} replacements "
            f"({repl['replacement_failures']} failed); ships "
            f"{repl['state_ships_full']} full / "
            f"{repl['state_ships_delta']} delta "
            f"({repl['ship_bytes']} bytes, "
            f"{repl['delta_fallbacks']} fallbacks, "
            f"{repl['ship_stalls']} stalls)"
        )
        if repl["vote_rounds"]:
            line += (
                f"; votes {repl['votes']}/{repl['vote_rounds']} rounds "
                f"({repl['divergences']} divergences, "
                f"{repl['resyncs']} resyncs)"
            )
        line += (
            f"; replicas {repl['replicas_created']} created, "
            f"{repl['applies']} applies, "
            f"{repl['duplicates_suppressed']} duplicates suppressed"
        )
        sections.append(line)
    cache = report.get("resolve_cache")
    if cache and cache.get("enabled"):
        sections.append(
            f"Resolve cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(epoch {cache['epoch_invalidations']}, "
            f"ttl {cache['ttl_invalidations']}, "
            f"breaker {cache['breaker_invalidations']}, "
            f"churn {cache['churn_invalidations']}; "
            f"stale served {cache['stale_served']})"
        )
    conns = report.get("connection_cache")
    if conns and conns.get("enabled"):
        sections.append(
            f"Connection cache: {conns['hits']} hits / {conns['misses']} "
            f"misses, {conns['opens']} opened, "
            f"{conns['handshake_joins']} handshakes joined, "
            f"{conns['evictions']} evicted, "
            f"{conns['invalidations']} invalidated, "
            f"{conns['failures']} failed"
        )
    reports = report.get("winner_reports")
    if reports and (
        reports["delta_reports_sent"] or reports["reports_coalesced"]
    ):
        sections.append(
            f"Winner reports: {reports['full_reports_sent']} full / "
            f"{reports['delta_reports_sent']} delta sent "
            f"({reports['report_bytes_sent']} bytes, "
            f"{reports['reports_coalesced']} coalesced); collector got "
            f"{reports['delta_reports_received']} deltas, ignored "
            f"{reports['delta_reports_ignored']}"
        )
    plans = report.get("cdr_plan_cache")
    if plans and (plans["encoder_plan_hits"] or plans["decoder_plan_hits"]):
        sections.append(
            f"CDR plan cache: {plans['encoder_plan_hits']} encoder hits / "
            f"{plans['encoder_plans_compiled']} compiled, "
            f"{plans['decoder_plan_hits']} decoder hits / "
            f"{plans['decoder_plans_compiled']} compiled, "
            f"any-memo {plans['any_memo_hits']} hits / "
            f"{plans['any_memo_misses']} misses"
        )
    obs = report.get("observability")
    if obs:
        line = (
            f"Observability: {obs['metrics']} metric series, "
            f"{obs['spans_finished']} spans across {obs['traces']} traces "
            f"({obs['spans_open']} open, {obs['spans_dropped']} dropped, "
            f"ring {obs.get('span_ring_utilization', 0.0):.1%} of "
            f"{obs.get('span_capacity', 0)})"
        )
        if obs["spans_dropped"]:
            line += (
                " — WARNING: the span ring wrapped; traces are truncated "
                "and critical-path analysis will refuse them"
            )
        sections.append(line)
    slo = report.get("slo")
    if slo and slo["checked"]:
        line = (
            f"SLOs: {slo['checked'] - slo['failed'] - slo['skipped']} ok, "
            f"{slo['failed']} failed, {slo['skipped']} skipped"
        )
        for result in slo["results"]:
            if not result["ok"]:
                line += f"\n  FAIL {result['slo']}: {result['detail']}"
        sections.append(line)
    return "\n\n".join(sections)
