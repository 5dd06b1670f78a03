"""The one place a workload or a metric of the end-to-end benchmark is defined.

``BENCHMARK.json`` at the repo root is a projection of this file::

    python3 benchmarks/e2e/catalog.py > BENCHMARK.json

and ``selftest.py`` fails when the two differ.  Every metric records its
unit, direction, layer, the workloads it is measured on (its *homes*) and
the end-to-end metric it should move — written down before measuring, so
a later change can be held against the prediction.

Host numbers (``*_us``, ``*_ms``, ``*_s`` of the harness, shares, RSS) are
properties of the machine; simulated numbers (``*.sim_*``, ``*_per_op``
counts, ``sim_runtime_s``) are exact and repeat bit for bit.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import Optional

from layertrace import LAYERS

RUN_SECONDS = 20
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: the seed a run uses when none is given, and the one never used while
#: sizing workloads or choosing estimators (kept for confirming a claim).
DEFAULT_SEED = 7
HELD_OUT_SEED = 20000611

T1, READS, STREAM, SCALE = (
    "table1_ft",
    "orb_small_reads",
    "ft_state_stream",
    "scale_open_loop",
)
ALL = (T1, READS, STREAM, SCALE)
RUNTIME_WORKLOADS = (T1, READS, STREAM)
#: unit of simulated seconds: exact, equal on every run of a seed, and so
#: kept apart from the host's ``s``/``ms``/``us``, which are measured.
SIM_S = "sim_s"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, goes to BENCHMARK.json; README.md has the long form


WORKLOADS = (
    Workload(
        T1,
        "The paper's Table 1 row 100/7 with and without FT proxies; "
        "opt+numpy dominate, so kernel/ORB/FT speed-ups predict little change",
    ),
    Workload(
        READS,
        "ORB-bound tiny messages (the SLS pattern): 200 clients read one "
        "servant; sim.* and orb.* do the work, opt/ft/checkpoint/winner none",
    ),
    Workload(
        STREAM,
        "Bulk any-typed state through both state-shipping pipelines with "
        "crashes; orb.cdr is ~91 % of host time, FT design shows in sim time",
    ),
    Workload(
        SCALE,
        "ORB-free bypass and the memory workload: 1 000 hosts, 1e6 clients, "
        "open loop; orb.*, ft.*, opt and cluster.network run zero calls",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    layer: str
    homes: tuple[str, ...]  # workloads it is measured on (0 elsewhere)
    moves: str  # which end-to-end metric it should move, on which workload
    bound: Optional[float] = None  # end-to-end metrics only


# -- end to end ---------------------------------------------------------------------

END_TO_END = (
    Metric(
        "setup_s", "s", "lower", "harness", ALL,
        "median over 7 fresh interpreters of the CPU seconds from exec to: "
        "import repro -> IDL compile -> first runtime/cluster built -> 1/10 "
        "warm-up pass done; moved by orb.idl.compile_ms and "
        "core.runtime.start_ms on the three Runtime workloads, by "
        "cluster.host construction on scale_open_loop",
        bound=0.25,
    ),
    Metric(
        "ops_per_cpu_s", "1/s", "higher", "harness", ALL,
        "operations completed in a pass / median process-CPU seconds of the "
        "timed passes; a faster layer saves at most its self_share here",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MiB", "lower", "harness", ALL,
        "ru_maxrss of the measuring child after its timed passes; moved by "
        "per-client/per-host state on scale_open_loop, by retained spans and "
        "checkpoints elsewhere",
        bound=0.05,
    ),
)


# -- per layer ----------------------------------------------------------------------

_SHARE_MOVES = {
    "sim.kernel": "ops_per_cpu_s on orb_small_reads and scale_open_loop",
    "sim.process": "ops_per_cpu_s on orb_small_reads; zero on scale_open_loop",
    "sim.events": "ops_per_cpu_s on orb_small_reads and scale_open_loop",
    "sim.resources": "ops_per_cpu_s on scale_open_loop and orb_small_reads",
    "cluster.network": "ops_per_cpu_s on orb_small_reads; zero on scale_open_loop",
    "cluster.loadgen": "ops_per_cpu_s and peak_rss_mb on scale_open_loop; zero elsewhere",
    "cluster.host": "ops_per_cpu_s on scale_open_loop; setup_s there (1 000 hosts built)",
    "orb.cdr": "ops_per_cpu_s on ft_state_stream (~91 %), table1_ft (~22 %), "
    "orb_small_reads (~17 %); zero on scale_open_loop",
    "orb.giop": "ops_per_cpu_s on orb_small_reads; zero on scale_open_loop",
    "orb.core": "ops_per_cpu_s on orb_small_reads; zero on scale_open_loop",
    "services.naming": "ops_per_cpu_s on scale_open_loop (sharded directory); <1 % elsewhere",
    "services.checkpoint": "sim_runtime_s on ft_state_stream and table1_ft; <1 % of host time",
    "ft.proxies": "sim_runtime_s and ft.sim_overhead_pct on table1_ft and ft_state_stream",
    "ft.replication": "sim_runtime_s and ft.sim_failover_s on ft_state_stream",
    "ft.recovery": "sim_runtime_s and ft.sim_recovery_s on ft_state_stream",
    "winner": "ops_per_cpu_s on scale_open_loop; <1 % elsewhere",
    "opt": "ops_per_cpu_s on table1_ft only",
    "obs": "ops_per_cpu_s on orb_small_reads (~10 %); zero on scale_open_loop",
    "core": "setup_s on the Runtime workloads; <0.1 % of a pass",
}


def _rollup_metrics() -> list[Metric]:
    metrics = []
    for layer in LAYERS:
        moves = _SHARE_MOVES[layer]
        metrics.append(
            Metric(f"{layer}.self_share", "ratio", "lower", layer, ALL,
                   f"share of the traced pass's self time; moves {moves}")
        )
        metrics.append(
            Metric(f"{layer}.calls_per_op", "count", "lower", layer, ALL,
                   f"Python calls into the layer per operation; moves {moves}")
        )
    return metrics


def _harness_metrics() -> list[Metric]:
    own = "the benchmark's own cost, not the program's; should move nothing"
    phase = (
        "share of a pass's CPU spent in this phase of the benchmark's own "
        "calls (0 where the workload has no such phase); moves nothing itself"
    )
    return [
        Metric("harness.self_share", "ratio", "lower", "harness", ALL,
               f"self time of the benchmark's clients and servants; {own}"),
        Metric("harness.unattributed_share", "ratio", "lower", "harness", ALL,
               "traced self time no repro/ frame answers for; must stay < 0.03"),
        Metric("harness.build_share", "ratio", "lower", "harness", ALL, phase),
        Metric("harness.deploy_share", "ratio", "lower", "harness",
               (READS, STREAM, SCALE), phase),
        Metric("harness.settle_share", "ratio", "lower", "harness",
               (READS, STREAM), phase),
        Metric("harness.drive_share", "ratio", "higher", "harness", ALL, phase),
        Metric("harness.drain_share", "ratio", "lower", "harness",
               (STREAM, SCALE), phase),
        Metric("harness.report_share", "ratio", "lower", "harness", ALL, phase),
        Metric("harness.trace_overhead_ratio", "ratio", "lower", "harness", ALL,
               "traced pass CPU / untraced median; what cProfile costs, why shares "
               "are read as proportions and never as seconds"),
        Metric("harness.pass_cpu_iqr_share", "ratio", "lower", "harness", ALL,
               "quartile spread of the untraced passes' CPU; the noise tell-tale"),
        Metric("harness.pass_cpu_min_s", "s", "lower", "harness", ALL,
               "cheapest untraced pass; ops_per_cpu_s uses the median instead"),
        Metric("harness.wall_over_cpu", "ratio", "lower", "harness", ALL,
               "wall / CPU of the untraced passes; > 1.05 means the box was contended"),
        Metric("harness.py_calls_per_op", "count", "lower", "harness", ALL,
               "all Python-level calls of the traced pass per operation; "
               "tracks ops_per_cpu_s inversely on every workload"),
        Metric("sim_runtime_s", SIM_S, "lower", "harness", ALL,
               "simulated seconds of the pass's measured windows, summed over its "
               "cells; exact — a host-only change must leave it bit-identical"),
        Metric("failed_op_share", "ratio", "lower", "harness", ALL,
               "operations failed, dropped, refused or wrong, and failed checks, "
               "/ attempted; must be 0"),
    ]


def _probe(name: str, unit: str, layer: str, home: str, moves: str) -> Metric:
    return Metric(name, unit, "lower", layer, (home,), moves)


def _probe_metrics() -> list[Metric]:
    reads = f"ops_per_cpu_s on {READS}"
    stream = f"ops_per_cpu_s on {STREAM}"
    scale = f"ops_per_cpu_s on {SCALE}"
    setup = "setup_s on the Runtime workloads"
    return [
        _probe("sim.kernel.dispatch_us", "us", "sim.kernel", READS,
               f"schedule+run of a no-op event; {reads} and {SCALE}"),
        _probe("sim.process.switch_us", "us", "sim.process", READS,
               f"generator resume on sim.timeout; {reads}"),
        _probe("sim.process.spawn_us", "us", "sim.process", READS,
               f"spawn+finish of a trivial process with 1 000 live; {reads}"),
        _probe("cluster.network.send_us", "us", "cluster.network", READS,
               f"64-byte datagram sent and delivered; {reads}"),
        _probe("orb.giop.codec_us", "us", "orb.giop", READS,
               f"encode_message+decode_message of a 16-byte-body request; {reads}"),
        _probe("orb.cdr.encode_struct_us", "us", "orb.cdr", READS,
               f"marshal of the worker-exchange struct; ops_per_cpu_s on {T1}"),
        _probe("orb.cdr.decode_struct_us", "us", "orb.cdr", READS,
               f"unmarshal of the worker-exchange struct; ops_per_cpu_s on {T1}"),
        _probe("orb.core.null_call_us", "us", "orb.core", READS,
               f"one client, one total() round trip, host cost; {reads}"),
        _probe("obs.span_us", "us", "obs", READS, f"start+finish of one span; {reads}"),
        _probe("obs.metrics.observe_us", "us", "obs", READS,
               f"one histogram observation; {reads}"),
        _probe("orb.cdr.encode_any512_us", "us", "orb.cdr", STREAM,
               f"encode_any of the 512-double state; {stream}"),
        _probe("orb.cdr.decode_any512_us", "us", "orb.cdr", STREAM,
               f"decode_any of the 512-double state; {stream}"),
        _probe("services.checkpoint.store_us", "us", "services.checkpoint", STREAM,
               f"store() of the state through the store stub, host cost; {stream}"),
        _probe("services.checkpoint.load_us", "us", "services.checkpoint", STREAM,
               f"load() of the state through the store stub, host cost; {stream}"),
        _probe("ft.plain.cpu_ms_per_op", "ms", "ft.proxies", STREAM,
               "the same add() stream through a raw stub (the FT bypass); "
               "the floor the two FT pipelines are compared against"),
        _probe("ft.checkpoint.cpu_ms_per_op", "ms", "ft.proxies", STREAM,
               f"crash-free sync-checkpoint cell; {stream}"),
        _probe("ft.warm_passive.cpu_ms_per_op", "ms", "ft.replication", STREAM,
               f"crash-free warm-passive cell; {stream}"),
        _probe("ft.recovery.cpu_ms_per_crash", "ms", "ft.recovery", STREAM,
               f"extra host CPU of the 2-crash checkpoint cell per crash; {stream}"),
        _probe("ft.failover.cpu_ms_per_crash", "ms", "ft.replication", STREAM,
               f"extra host CPU of the 2-crash warm-passive cell per crash; {stream}"),
        _probe("cluster.host.execute_us", "us", "cluster.host", SCALE,
               f"processor-sharing job, 4 concurrent; {scale}"),
        _probe("winner.hierarchy.refresh_ms", "ms", "winner", SCALE,
               f"one refresh over 1 000 hosts; {scale}"),
        _probe("winner.hierarchy.best_host_us", "us", "winner", SCALE,
               f"one site best_host(); {scale}"),
        _probe("services.naming.sharded_resolve_us", "us", "services.naming", SCALE,
               f"one sharded-directory resolve; {scale}"),
        _probe("opt.complex_box.iter_us", "us", "opt", T1,
               f"one Complex Box iteration on a 15-dim block; ops_per_cpu_s on {T1}"),
        _probe("winner.system_manager.best_host_us", "us", "winner", T1,
               f"flat system manager ranking 10 hosts; <1 % of {T1}"),
        _probe("services.naming.resolve_us", "us", "services.naming", T1,
               f"resolve() through the naming stub, host cost; <1 % of {T1}"),
        _probe("orb.idl.compile_ms", "ms", "orb.core", T1, f"compile_idl of a small interface; {setup}"),
        _probe("core.runtime.start_ms", "ms", "core", T1, f"Runtime(10 hosts).start(); {setup}"),
        _probe("core.report.build_ms", "ms", "core", T1,
               "runtime_report() of a settled runtime; harness.report_s"),
    ]


def _exact_metrics() -> list[Metric]:
    cpu = "ops_per_cpu_s with sim_runtime_s unchanged"
    return [
        Metric("sim.events_per_op", "count", "lower", "sim.kernel", ALL,
               f"events scheduled per operation; {cpu} on {READS} and {SCALE}"),
        Metric("cluster.network.msgs_per_op", "count", "lower", "cluster.network",
               RUNTIME_WORKLOADS, f"datagrams per operation; {cpu} on {READS}"),
        Metric("cluster.network.bytes_per_op", "B", "lower", "cluster.network",
               RUNTIME_WORKLOADS, f"wire bytes per operation; sim_runtime_s and {cpu} on {STREAM}"),
        Metric("orb.requests_per_op", "count", "lower", "orb.core", RUNTIME_WORKLOADS,
               f"ORB invocations (incl. naming, store, checkpoints) per operation; {cpu}"),
        Metric("orb.cdr.plan_hits_per_op", "count", "lower", "orb.cdr", RUNTIME_WORKLOADS,
               f"CDR plan-cache hits per operation, i.e. typed values marshalled; {cpu} on {STREAM}"),
        Metric("obs.spans_per_op", "count", "lower", "obs", RUNTIME_WORKLOADS,
               f"tracer spans per operation; {cpu} on {READS}"),
        Metric("ft.checkpoints_per_op", "count", "lower", "ft.proxies", (T1, STREAM),
               "checkpoints taken per operation; sim_runtime_s"),
        Metric("ft.checkpoint_bytes_per_op", "B", "lower", "services.checkpoint", (T1, STREAM),
               f"bytes written to the store per operation; the only way ft.* reaches ops_per_cpu_s on {STREAM}"),
        Metric("ft.replication.ship_bytes_per_op", "B", "lower", "ft.replication", (STREAM,),
               f"state bytes shipped to standbys per operation; as above, on {STREAM}"),
        Metric("ft.recoveries", "count", "lower", "ft.recovery", (STREAM,),
               "checkpoint/restart recoveries in a pass; equals crashes injected (2)"),
        Metric("ft.replication.promotions", "count", "lower", "ft.replication", (STREAM,),
               "standby promotions in a pass; equals primary crashes injected (2)"),
        Metric("winner.reports_per_sim_s", "1/s", "lower", "winner", ALL,
               "load reports (site sweeps on scale_open_loop) per simulated second"),
        Metric("ft.sim_overhead_pct", "%", "lower", "ft.proxies", (T1,),
               "Table 1's overhead column: FT runtime / plain runtime - 1"),
        Metric("ft.sim_recovery_s", SIM_S, "lower", "ft.recovery", (STREAM,),
               "crash to next acknowledged call, checkpoint/restart (simulated)"),
        Metric("ft.sim_failover_s", SIM_S, "lower", "ft.replication", (STREAM,),
               "crash to next acknowledged call, warm-passive (simulated)"),
        Metric("ft.sim_call_p95_s", SIM_S, "lower", "ft.proxies", (STREAM,),
               "p95 simulated latency of an acknowledged add() over all cells"),
        Metric("orb.sim_read_p95_s", SIM_S, "lower", "orb.core", (READS,),
               "p95 simulated latency of a total() read"),
        Metric("cluster.loadgen.sim_latency_p50_s", SIM_S, "lower", "cluster.loadgen", (SCALE,),
               "median simulated request latency, timed from its scheduled arrival"),
        Metric("cluster.loadgen.sim_latency_p99_s", SIM_S, "lower", "cluster.loadgen", (SCALE,),
               "p99 simulated request latency (~260 samples beyond it per pass)"),
        Metric("cluster.loadgen.sim_throughput_per_s", "1/s", "higher", "cluster.loadgen", (SCALE,),
               "completions per simulated second at the offered rate"),
        Metric("cluster.loadgen.lateness_s", SIM_S, "lower", "cluster.loadgen", (SCALE,),
               "how late the generator ran: 0 by construction, the arrival schedule "
               "lives in simulated time and cannot fall behind the host"),
        Metric("services.naming.peak_shard_share", "ratio", "lower", "services.naming", (SCALE,),
               "busiest directory shard's share of resolves"),
    ]


PER_LAYER = tuple(
    _rollup_metrics() + _harness_metrics() + _probe_metrics() + _exact_metrics()
)

BY_NAME = {metric.name: metric for metric in (*END_TO_END, *PER_LAYER)}

#: the catalogue's limits, as the benchmark contract states them.
MAX_WORKLOADS, MAX_END_TO_END, MAX_PER_LAYER = 8, 16, 128
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def problems() -> list[str]:
    """Everything wrong with the catalogue (empty when it is sound)."""
    found = []
    names = [w.name for w in WORKLOADS] + [m.name for m in (*END_TO_END, *PER_LAYER)]
    for name in names:
        if not _NAME.fullmatch(name):
            found.append(f"bad name {name!r}")
    for name in sorted({n for n in names if names.count(n) > 1}):
        found.append(f"name used twice: {name}")
    for metric in (*END_TO_END, *PER_LAYER):
        if not _UNIT.fullmatch(metric.unit):
            found.append(f"bad unit {metric.unit!r} on {metric.name}")
        if metric.better not in ("lower", "higher"):
            found.append(f"bad direction on {metric.name}")
        if not set(metric.homes) <= set(ALL) or not metric.homes:
            found.append(f"bad home workloads on {metric.name}")
    for metric in END_TO_END:
        if metric.bound is None or not 0 < metric.bound <= 0.25:
            found.append(f"bound of {metric.name} outside (0, 0.25]")
    for workload in WORKLOADS:
        if len(workload.why) > 200 or "\n" in workload.why:
            found.append(f"why of {workload.name} is not one line of <= 200 chars")
    if not 2 <= len(WORKLOADS) <= MAX_WORKLOADS:
        found.append("workload count outside 2..8")
    if not 1 <= len(END_TO_END) <= MAX_END_TO_END:
        found.append("end-to-end metric count outside 1..16")
    if not 1 <= len(PER_LAYER) <= MAX_PER_LAYER:
        found.append("per-layer metric count outside 1..128")
    if "setup_s" not in {m.name for m in END_TO_END}:
        found.append("no setup_s end-to-end metric")
    return found


def benchmark_json() -> str:
    """The text of ``BENCHMARK.json``."""
    document = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
    return json.dumps(document, indent=2) + "\n"


if __name__ == "__main__":
    issues = problems()
    if issues:
        sys.exit("catalogue is unsound:\n  " + "\n  ".join(issues))
    sys.stdout.write(benchmark_json())
