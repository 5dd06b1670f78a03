"""The four workloads of the end-to-end benchmark.

Each workload is one function ``run(seed, scale, spans) -> PassSummary``:
it derives its inputs from the seed, drives the system through public API
only, checks the outputs and reads the exact counters a pass leaves behind
(``runtime_report()``, population stats, client-side ``sim.now`` stamps).
A *pass* is one call; every pass of a run does identical deterministic
work, so two passes differ only in what the host charged for them.

Why these four, which layer each one loads and which it bypasses, is
recorded in ``catalog.py`` (and rendered into ``README.md``).

The benchmark owns its IDL and servants and depends only on the stable
public API named in the README — not on the ``repro.bench.ftbench`` /
``scalebench`` helpers a later one-path-per-layer change may move.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.harness import BENCH_SETTINGS
from repro.cluster import Host, OpenLoopPopulation
from repro.core import Runtime, RuntimeConfig, Scenario
from repro.core.report import runtime_report
from repro.errors import SystemException
from repro.ft import FtPolicy
from repro.ft.checkpointable import CHECKPOINTABLE_IDL
from repro.orb import cdr, compile_idl
from repro.services.naming import ShardedServiceDirectory
from repro.sim import Simulator, rng_stream
from repro.winner.hierarchy import HierarchicalWinner

#: doubles in the accumulator's checkpointed state (the bulk ``any``).
STATE_DOUBLES = 512

ACCUMULATOR_IDL = CHECKPOINTABLE_IDL + """
interface E2eAccumulator : FT::Checkpointable {
    double add(in double amount, in double work);
    double total();
};
"""

accumulator_ns = compile_idl(ACCUMULATOR_IDL, name="e2e-accumulator")
ACCUMULATOR_TYPE = "E2eAccumulator"


class Accumulator(accumulator_ns.E2eAccumulatorSkeleton):
    """A running total beside ``STATE_DOUBLES`` doubles of static state.

    ``orb_small_reads`` reads ``total()`` (a 16-byte reply);
    ``ft_state_stream`` calls ``add()`` through FT proxies, which ship the
    whole any-typed state after every call.
    """

    def __init__(self, total: float = 0.0) -> None:
        self._total = total
        self._weights = [0.5 * i for i in range(STATE_DOUBLES)]

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


# -- what a pass hands back ------------------------------------------------------


@dataclass
class PassSummary:
    """Outcome of one pass: the end-to-end counts, the named checks and
    the exact per-layer totals (divided by ``ops`` when reported)."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    sim_runtime: float = 0.0
    #: CRC-32 over the pass's outputs; equal fingerprints = equal behaviour.
    fingerprint: int = 0
    #: check name -> passed.  A failed check counts as one failed operation.
    checks: dict[str, bool] = field(default_factory=dict)
    #: exact totals of the pass, keyed by the per-layer metric that
    #: reports them divided by ``ops`` (``sim.events_per_op``: events).
    totals: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics reported as they are (simulated percentiles,
    #: overhead, recovery counts), keyed by metric name.
    figures: dict[str, float] = field(default_factory=dict)
    #: load reports received, and the simulated seconds they spread over.
    winner_reports: int = 0
    winner_seconds: float = 0.0
    #: ``scale_open_loop`` only: the population's completion fingerprint,
    #: comparable with ``repro.bench.scalebench.scale_run``'s.
    population_fingerprint: int = 0

    def add_total(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def add_figure(self, name: str, value: float) -> None:
        self.figures[name] = self.figures.get(name, 0.0) + value

    def per_layer(self) -> dict[str, float]:
        """The exact per-layer metrics of this pass, by metric name."""
        ops = max(1, self.ops)
        metrics = {name: total / ops for name, total in self.totals.items()}
        metrics.update(self.figures)
        metrics["winner.reports_per_sim_s"] = self.winner_reports / max(
            self.winner_seconds, 1e-12
        )
        return metrics

    def stamp(self, *parts: object) -> None:
        text = ",".join(repr(part) for part in parts)
        self.fingerprint = zlib.crc32(text.encode("ascii"), self.fingerprint)

    def sealed(self) -> "PassSummary":
        """Fold every exact total and simulated figure into the
        fingerprint, so equal fingerprints mean equal counts too."""
        self.stamp(sorted(self.per_layer().items()))
        return self

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    @property
    def failed_total(self) -> int:
        return self.failed + sum(1 for ok in self.checks.values() if not ok)

    @property
    def attempted_total(self) -> int:
        return self.attempted + len(self.checks)


def nearest_rank(values: list[float], percent: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def _scaled(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def _events_scheduled(sim: Simulator) -> int:
    """Events scheduled so far: the sequence number the next one gets."""
    probe = sim.schedule(0.0, lambda: None)
    probe.cancel()
    return probe.seq


def _runtime_totals(summary: PassSummary, runtime: Runtime, report: dict) -> None:
    """Fold one finished runtime's public counters into the pass totals."""
    network = report["network"]
    replication = report["replication"]
    observability = report["observability"]
    reports = report["winner_reports"]
    summary.add_total("sim.events_per_op", _events_scheduled(runtime.sim))
    summary.add_total("cluster.network.msgs_per_op", network["messages_sent"])
    summary.add_total("cluster.network.bytes_per_op", network["bytes_sent"])
    summary.add_total(
        "orb.requests_per_op",
        sum(op["calls"] for op in report["operations"].values()),
    )
    summary.add_total(
        "obs.spans_per_op",
        observability["spans_finished"] + observability["spans_dropped"],
    )
    summary.add_total(
        "ft.checkpoints_per_op", report["ft_proxies"]["checkpoints_taken"]
    )
    summary.add_total(
        "ft.checkpoint_bytes_per_op", report["fault_tolerance"]["checkpoint_bytes"]
    )
    summary.add_total("ft.replication.ship_bytes_per_op", replication["ship_bytes"])
    summary.add_figure("ft.recoveries", report["fault_tolerance"]["recoveries"])
    summary.add_figure("ft.replication.promotions", replication["promotions"])
    summary.winner_reports += (
        reports["full_reports_sent"] + reports["delta_reports_sent"]
    )
    summary.winner_seconds += report["simulated_time"]


def _plan_hits() -> int:
    stats = cdr.plan_cache_stats()
    return stats["encoder_plan_hits"] + stats["decoder_plan_hits"]


# -- table1_ft -----------------------------------------------------------------

#: (dimension, workers, pool hosts): the paper's 100/7 configuration, and
#: its 30/3 one for reduced-size passes — the manager's starting complex
#: (2 × 6 points × 7 workers) is most of a short 100/7 run, so cutting
#: manager iterations alone would not make a warm-up pass small.
TABLE1_FULL = (100, 7, 9)
TABLE1_REDUCED = (30, 3, 6)
#: the worker interface's operations; every one goes through the proxy.
WORKER_OPERATIONS = ("solve", "best_block")


def table1_ft(
    seed: int, scale: float, spans, expect_shift: float = 0.0
) -> PassSummary:
    """Table 1 row 100/7 at 30 000 worker iterations, without and with
    fault-tolerance proxies.  Closed loop: one manager drives seven
    workers by DII; an operation is one call on a worker (``solve``, or
    the closing ``best_block``)."""
    summary = PassSummary()
    hits_before = _plan_hits()
    dimension, workers, pool = TABLE1_FULL if scale >= 1.0 else TABLE1_REDUCED
    results = {}
    calls = {}
    for label, fault_tolerant in (("plain", False), ("ft", True)):
        with spans.span("harness.build"):
            scenario = Scenario(
                dimension=dimension,
                num_workers=workers,
                pool_size=pool,
                naming_strategy="winner",
                fault_tolerant=fault_tolerant,
                worker_iterations=30_000,
                manager_iterations=_scaled(10, scale),
                worker_settings=BENCH_SETTINGS,
                seed=seed,
            )
        with spans.span("harness.drive"):
            result = scenario.run()
        with spans.span("harness.report"):
            report = result.report()
        results[label] = result
        operations = report["operations"]
        calls[label] = sum(operations[op]["calls"] for op in WORKER_OPERATIONS)
        failures = sum(operations[op]["failures"] for op in WORKER_OPERATIONS)
        summary.attempted += calls[label]
        summary.ops += calls[label] - failures
        summary.failed += failures
        summary.sim_runtime += result.runtime_seconds
        summary.stamp(label, result.runtime_seconds, result.result.fun)
        _runtime_totals(summary, result.runtime_obj, report)
        summary.check(
            f"{label}.distinct_pool_hosts",
            len(set(result.worker_placements)) == workers
            and "ws00" not in result.worker_placements,
        )
    plain, ft = results["plain"], results["ft"]
    summary.check("same_fun", ft.result.fun == plain.result.fun + expect_shift)
    summary.check("checkpoint_per_call", ft.checkpoints == calls["ft"])
    summary.check("no_checkpoints_without_ft", plain.checkpoints == 0)
    summary.add_total("orb.cdr.plan_hits_per_op", _plan_hits() - hits_before)
    summary.figures["ft.sim_overhead_pct"] = 100.0 * (
        ft.runtime_seconds / plain.runtime_seconds - 1.0
    )
    return summary.sealed()


# -- orb_small_reads -------------------------------------------------------------

READ_CLIENT_HOSTS = 5
READ_CLIENTS_PER_HOST = 40
READS_PER_CLIENT = 25


def orb_small_reads(
    seed: int, scale: float, spans, expect_shift: float = 0.0
) -> PassSummary:
    """200 closed-loop clients on five hosts each read one shared
    servant's ``total()`` 25 times: tiny requests, tiny replies, no
    servant work — the SLS high-level-applications pattern, where the ORB
    and the simulation kernel are all there is to pay for."""
    rng = rng_stream(seed, "e2e", "orb_small_reads")
    reads = _scaled(READS_PER_CLIENT, scale)
    clients = READ_CLIENT_HOSTS * READ_CLIENTS_PER_HOST
    value = float(rng.integers(1, 1_000_000)) / 8.0
    # Each client pauses a seeded think time before every read, so the
    # servant sees a steady trickle of tiny requests, not 200 at once.
    thinks = [float(v) for v in rng.uniform(0.02, 0.04, clients)]

    summary = PassSummary()
    hits_before = _plan_hits()
    with spans.span("harness.build"):
        runtime = Runtime(
            RuntimeConfig(num_hosts=2 + READ_CLIENT_HOSTS, seed=seed)
        ).start()
    with spans.span("harness.deploy"):
        ior = runtime.orb(1).poa.activate(Accumulator(total=value))
    with spans.span("harness.settle"):
        runtime.settle()

    sim = runtime.sim
    latencies: list[float] = []
    outcome = {"replies": 0, "wrong": 0}
    expected = value + expect_shift

    def client(stub, think):
        for _ in range(reads):
            yield sim.timeout(think)
            asked = sim.now
            try:
                got = yield stub.total()
            # analysis: ignore[EXC003]: the benchmark counts a failed read as a failed operation (attempted - ops) instead of aborting the pass
            except SystemException:
                continue
            latencies.append(sim.now - asked)
            outcome["replies"] += 1
            if got != expected:
                outcome["wrong"] += 1

    def drive():
        processes = []
        for index in range(clients):
            host = 2 + index % READ_CLIENT_HOSTS
            stub = runtime.orb(host).stub(ior, accumulator_ns.E2eAccumulatorStub)
            processes.append(
                runtime.cluster.host(host).spawn(
                    client(stub, thinks[index]), name=f"reader{index}"
                )
            )
        yield sim.all_of(processes)

    with spans.span("harness.drive"):
        started = sim.now
        runtime.run(drive())
        summary.sim_runtime = sim.now - started
    with spans.span("harness.report"):
        report = runtime_report(runtime)

    summary.attempted = clients * reads
    summary.ops = outcome["replies"] - outcome["wrong"]
    summary.failed = summary.attempted - summary.ops
    summary.stamp(summary.sim_runtime, outcome["replies"], sum(latencies))
    summary.check(
        "replies_equal_requests",
        report["operations"]["total"]["calls"] == summary.attempted
        and report["operations"]["total"]["failures"] == 0,
    )
    _runtime_totals(summary, runtime, report)
    summary.add_total("orb.cdr.plan_hits_per_op", _plan_hits() - hits_before)
    summary.figures["orb.sim_read_p95_s"] = nearest_rank(latencies, 95)
    return summary.sealed()


# -- ft_state_stream -------------------------------------------------------------

STREAM_HOSTS = 7
#: ws00 (client, naming, store, Winner) is the slow box, so Winner never
#: ranks it first and a recovered service never lands on the coordinator.
STREAM_SPEEDS = (0.5,) + (1.0,) * (STREAM_HOSTS - 1)
CHECKPOINT_CALLS = 32
WARM_PASSIVE_CALLS = 20
STREAM_CRASHES = 2
WARM_PASSIVE_POLICY = {"ft_mode": "warm-passive", "replication_factor": 3}


def stream_cell(
    summary: PassSummary,
    seed: int,
    scale: float,
    spans,
    design: str,
    crashes: int,
    expect_shift: float,
) -> tuple[list[float], list[float]]:
    """One cell: a stream of ``add()`` calls from one closed-loop client
    through ``design`` (``plain`` raw stub, ``checkpoint`` sync FT proxy,
    ``warm-passive`` r=3 group), with ``crashes`` crashes of the
    service's current host landing in the middle of a call.  Folds the
    cell into ``summary``; returns the simulated latency of every
    acknowledged call and the crash-to-next-acknowledgement outages."""
    label = f"{design}.{crashes}"
    calls = stream_calls(design, scale)
    rng = rng_stream(seed, "e2e", "ft_state_stream", label)
    amounts = [float(v) for v in rng.integers(1, 4, calls)]
    works = [float(v) for v in rng.uniform(0.04, 0.06, calls)]
    crash_calls = {calls * (k + 1) // (crashes + 1) for k in range(crashes)}

    with spans.span("harness.build"):
        runtime = Runtime(
            RuntimeConfig(
                num_hosts=STREAM_HOSTS,
                speeds=STREAM_SPEEDS,
                seed=seed,
                winner_interval=0.5,
            )
        ).start()
        runtime.register_type(ACCUMULATOR_TYPE, Accumulator)
    with spans.span("harness.deploy"):
        ior = runtime.orb(1).poa.activate(Accumulator())
        if design == "plain":
            target = runtime.orb(0).stub(ior, accumulator_ns.E2eAccumulatorStub)
        else:
            warm = design == "warm-passive"
            target = runtime.ft_proxy(
                accumulator_ns.E2eAccumulatorStub,
                ior,
                key="acc",
                type_name=ACCUMULATOR_TYPE,
                policy=FtPolicy(**(WARM_PASSIVE_POLICY if warm else {})),
                with_store=not warm,
            )
    with spans.span("harness.settle"):
        runtime.settle(3.0)
        if design == "warm-passive":
            # Group construction is deployment, not stream traffic.
            runtime.run(_provision(target))

    sim = runtime.sim
    cell = {"acked": 0, "crashed": 0, "final": None}
    latencies: list[float] = []
    outages: list[float] = []

    def crash_current():
        # ws00 runs the client and the infrastructure services; a service
        # that recovered onto it is spared, as an operator would spare it.
        host = target.ior.host
        if host != "ws00":
            runtime.cluster.host(host).crash()
            cell["crashed"] += 1
            cell["crash_at"] = sim.now

    def client():
        for index in range(calls):
            if index in crash_calls:
                sim.schedule(works[index] / 2, crash_current)
            asked = sim.now
            try:
                yield target.add(amounts[index], works[index])
            # analysis: ignore[EXC003]: an add() the FT layer could not complete is counted as a failed operation (calls - acked), which fails the run
            except SystemException:
                continue
            cell["acked"] += 1
            latencies.append(sim.now - asked)
            if "crash_at" in cell:
                outages.append(sim.now - cell.pop("crash_at"))
        cell["final"] = yield target.total()

    with spans.span("harness.drive"):
        started = sim.now
        runtime.run(client())
        sim_runtime = sim.now - started
    with spans.span("harness.drain"):
        if design != "plain":
            runtime.run(_drain(target))
    with spans.span("harness.report"):
        report = runtime_report(runtime)

    summary.ops += cell["acked"]
    summary.attempted += calls
    summary.failed += calls - cell["acked"]
    summary.sim_runtime += sim_runtime
    summary.stamp(label, sim_runtime, cell["final"], cell["crashed"])
    summary.check(
        f"{label}.exactly_once", cell["final"] == sum(amounts) + expect_shift
    )
    summary.check(f"{label}.all_crashes_land", cell["crashed"] == crashes)
    recovered = (
        report["replication"]["promotions"]
        if design == "warm-passive"
        else report["fault_tolerance"]["recoveries"]
    )
    summary.check(f"{label}.one_recovery_per_crash", recovered == cell["crashed"])
    _runtime_totals(summary, runtime, report)
    return latencies, outages


def stream_calls(design: str, scale: float) -> int:
    """Calls in one cell's stream (never fewer than the crashes need)."""
    full = WARM_PASSIVE_CALLS if design == "warm-passive" else CHECKPOINT_CALLS
    return max(_scaled(full, scale), 2 * (STREAM_CRASHES + 1))


def _provision(proxy):
    yield proxy.provision_now()


def _drain(proxy):
    yield proxy.drain_checkpoints()


def ft_state_stream(
    seed: int, scale: float, spans, expect_shift: float = 0.0
) -> PassSummary:
    """Bulk any-typed state through both state-shipping pipelines, with
    crashes: sync-checkpoint proxy × {0, 2 crashes} and warm-passive r=3 ×
    {0, 2 primary crashes}.  An operation is one acknowledged ``add``."""
    summary = PassSummary()
    hits_before = _plan_hits()
    latencies: list[float] = []
    outages = {"checkpoint": [], "warm-passive": []}
    for design in ("checkpoint", "warm-passive"):
        for crashes in (0, STREAM_CRASHES):
            cell_latencies, cell_outages = stream_cell(
                summary, seed, scale, spans, design, crashes, expect_shift
            )
            latencies.extend(cell_latencies)
            outages[design].extend(cell_outages)
    summary.add_total("orb.cdr.plan_hits_per_op", _plan_hits() - hits_before)
    summary.figures["ft.sim_call_p95_s"] = nearest_rank(latencies, 95)
    summary.figures["ft.sim_recovery_s"] = _mean(outages["checkpoint"])
    summary.figures["ft.sim_failover_s"] = _mean(outages["warm-passive"])
    return summary.sealed()


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- scale_open_loop -------------------------------------------------------------

SCALE_HOSTS = 1_000
SCALE_CLIENTS = 1_000_000
SCALE_LOAD = 0.55
SCALE_DURATION = 25.0
SCALE_SHARDS = 8
SCALE_SERVICES = 32


def scale_capacity(num_hosts: int) -> float:
    """Work units per simulated second of the scale cluster (Σ speed × cores)."""
    return sum(_host_speed(i) * _host_cores(i) for i in range(num_hosts))


def _host_speed(index: int) -> float:
    return 1.0 + 0.25 * (index % 3)


def _host_cores(index: int) -> int:
    return 1 + index % 2


def scale_hosts(sim: Simulator) -> list[Host]:
    """The scale cluster: mixed speeds and cores, assigned by index, so
    that ranking has real work to do."""
    return [
        Host(sim, i, f"ws{i:05d}", speed=_host_speed(i), cores=_host_cores(i))
        for i in range(SCALE_HOSTS)
    ]


def scale_services(
    sim: Simulator, hosts: list[Host]
) -> tuple[HierarchicalWinner, ShardedServiceDirectory]:
    """The site -> region Winner tree over ``hosts`` (not yet started) and
    the sharded directory: each service is held by a stride of sites."""
    winner = HierarchicalWinner(
        sim, hosts, site_fanout=128, region_fanout=16, refresh_interval=0.5
    )
    directory = ShardedServiceDirectory(SCALE_SHARDS)
    leaves = winner.leaves
    for index in range(SCALE_SERVICES):
        for leaf in leaves[index % len(leaves) :: SCALE_SERVICES]:
            directory.register(f"svc-{index:04d}", leaf)
    return winner, directory


def scale_open_loop(
    seed: int, scale: float, spans, expect_shift: float = 0.0
) -> PassSummary:
    """1 000 hosts, 10⁶ clients, open loop at 55 % of capacity for 25
    simulated seconds.  Request path: sharded-directory resolve → the
    site's ``best_host`` → ``host.execute``; no ORB, no FT, no network.
    The arrival schedule lives in simulated time, so the generator is
    never late, whatever the host charges for a pass."""
    summary = PassSummary()
    duration = SCALE_DURATION * scale
    rate = SCALE_LOAD * scale_capacity(SCALE_HOSTS)
    with spans.span("harness.build"):
        sim = Simulator(seed=seed)
        hosts = scale_hosts(sim)
        by_name = {host.name: host for host in hosts}
    with spans.span("harness.deploy"):
        winner, directory = scale_services(sim, hosts)
        winner.start()

        def place(client: int):
            leaf = directory.resolve(f"svc-{client % SCALE_SERVICES:04d}")
            name = leaf.best_host()
            if name is None:
                name = winner.best_host()  # site dark: fall back to the tree
            return by_name.get(name) if name is not None else None

        population = OpenLoopPopulation(
            sim,
            num_clients=SCALE_CLIENTS,
            arrival_rate=rate,
            place=place,
            request_work=1.0,
            name="scale",
        )
    with spans.span("harness.drive"):
        population.start()
        sim.run(until=duration)
        population.stop()
        winner.stop()
    with spans.span("harness.drain"):
        sim.run()
        sim.check_unhandled()
    with spans.span("harness.report"):
        stats = population.stats()
        spread = directory.spread()

    summary.attempted = stats["arrivals"]
    summary.ops = stats["completions"]
    summary.failed = summary.attempted - summary.ops
    summary.sim_runtime = sim.now
    summary.stamp(stats["fingerprint"], stats["arrivals"], sim.now)
    summary.check("no_drops", stats["dropped"] == 0 and stats["failures"] == 0)
    summary.check(
        "every_arrival_completes",
        stats["completions"] == stats["arrivals"] + expect_shift,
    )
    summary.check(
        "rate_within_12pct", abs(stats["empirical_rate"] / rate - 1.0) <= 0.12
    )
    summary.add_total("sim.events_per_op", _events_scheduled(sim))
    summary.winner_reports = sum(leaf.refreshes for leaf in winner.leaves)
    summary.winner_seconds = duration
    latency = stats["latency"]
    summary.figures["cluster.loadgen.sim_latency_p50_s"] = latency["p50"]
    summary.figures["cluster.loadgen.sim_latency_p99_s"] = latency["p99"]
    summary.figures["cluster.loadgen.sim_throughput_per_s"] = stats["throughput"]
    # Arrivals are scheduled in simulated time: the generator cannot run late.
    summary.figures["cluster.loadgen.lateness_s"] = 0.0
    summary.figures["services.naming.peak_shard_share"] = spread["peak_share"]
    summary.population_fingerprint = stats["fingerprint"]
    return summary.sealed()


WORKLOADS: dict[str, Callable[..., PassSummary]] = {
    "table1_ft": table1_ft,
    "orb_small_reads": orb_small_reads,
    "ft_state_stream": ft_state_stream,
    "scale_open_loop": scale_open_loop,
}
