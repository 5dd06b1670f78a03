"""Layer probes: timed loops over one layer's public functions.

A probe answers "what does one call into this layer cost on this host?"
— the number a change to that layer moves first.  Each probe is a
``make()`` that builds a fresh fixture (untimed) and returns ``(run,
units)``; ``run()`` is timed in process-CPU seconds and the probe reports
the median of five rounds per unit.  Probes do not depend on the workload:
they run in every traced run (``catalog.py`` names the workload each one
predicts) and never during timed passes.
"""

from __future__ import annotations

import gc
import statistics
from typing import Callable

import hostclock
from repro.cluster import Cluster, ClusterConfig, Host
from repro.core import Runtime, RuntimeConfig
from repro.core.report import runtime_report
from repro.opt import DecomposedRosenbrock
from repro.orb import (
    CdrInputStream,
    CdrOutputStream,
    compile_idl,
    decode_any,
    encode_any,
)
from repro.orb.giop import RequestMessage, decode_message, encode_message
from repro.services.naming.names import to_name
from repro.sim import Simulator, rng_stream

from layertrace import SpanRecorder
from workloads import (
    ACCUMULATOR_TYPE,
    SCALE_SERVICES,
    STREAM_CRASHES,
    Accumulator,
    PassSummary,
    accumulator_ns,
    scale_hosts,
    scale_services,
    stream_calls,
    stream_cell,
)

ROUNDS = 5

Run = tuple[Callable[[], object], int]
Make = Callable[[int], Run]

PROBE_IDL = """
module E2eProbe {
    struct Point { sequence<double> coords; double value; };
    struct Stats { long evals; double best; double elapsed; };
    // What a worker and its manager exchange: a best point, counters,
    // scratch values and a label (about 1.3 kB on the wire).
    struct Exchange {
        Point best_point;
        Stats stats;
        sequence<double> scratch;
        string label;
    };
};
"""

#: compiled afresh by ``orb.idl.compile_ms`` (nothing else uses it).
COMPILE_PROBE_IDL = """
interface E2eCompileProbe {
    double add(in double amount, in double work);
    double total();
    sequence<double> history(in long last);
};
"""

probe_ns = compile_idl(PROBE_IDL, name="e2e-probe")


def measure(make: Make, count: int, per_second: float, rounds: int) -> float:
    """Median over ``rounds`` rounds of CPU time per unit of ``run()``, in
    units of ``1 / per_second`` seconds (``US`` or ``MS``)."""
    samples = []
    for _ in range(rounds):
        run, units = make(count)
        gc.collect()
        started = hostclock.cpu()
        run()
        samples.append((hostclock.cpu() - started) / units * per_second)
    return statistics.median(samples)


def _noop() -> None:
    return None


# -- sim ---------------------------------------------------------------------------


def kernel_dispatch(count: int) -> Run:
    sim = Simulator(seed=0)

    def run():
        schedule = sim.schedule
        for index in range(count):
            schedule(index * 1e-6, _noop)
        sim.run()

    return run, count


def process_switch(count: int) -> Run:
    sim = Simulator(seed=0)

    def ticker():
        for _ in range(count):
            yield sim.timeout(1e-3)

    sim.spawn(ticker())
    return sim.run, count


def process_spawn(count: int, live: int = 1_000) -> Run:
    sim = Simulator(seed=0)

    def parked():
        yield sim.future()

    def trivial():
        return
        yield  # pragma: no cover - makes this a generator

    for _ in range(live):
        sim.spawn(parked())
    sim.run()

    def run():
        for _ in range(count):
            sim.spawn(trivial())
        sim.run()

    return run, count


def host_execute(count: int) -> Run:
    sim = Simulator(seed=0)
    host = Host(sim, 0, "ws00000", speed=1.0, cores=1)

    batches = max(1, count // 4)

    def run():
        for _ in range(batches):
            for _ in range(4):
                host.execute(1.0)
            sim.run()

    return run, 4 * batches


# -- cluster.network ---------------------------------------------------------------


def network_send(count: int) -> Run:
    sim = Simulator(seed=0)
    cluster = Cluster(sim, ClusterConfig(num_hosts=2))
    source, target = cluster.host(0), cluster.host(1)
    network = cluster.network
    network.bind(target, 9)
    payload = b"x" * 64

    def run():
        for _ in range(count):
            network.send(source, 1, target.name, 9, payload, size=64)
        sim.run()
        if network.messages_delivered != count:
            raise RuntimeError("network probe lost datagrams")

    return run, count


# -- orb ---------------------------------------------------------------------------


def giop_codec(count: int) -> Run:
    message = RequestMessage(
        request_id=7,
        response_expected=True,
        object_key=b"obj-000001",
        operation="total",
        target_incarnation=1,
        reply_host="ws00",
        reply_port=40001,
        body=b"\x00" * 16,
    )

    def run():
        for _ in range(count):
            decode_message(encode_message(message))

    return run, count


def _exchange_value():
    rng = rng_stream(1, "e2e", "probe-exchange")
    return probe_ns.Exchange(
        best_point=probe_ns.Point(
            coords=[float(v) for v in rng.random(100)], value=float(rng.random())
        ),
        stats=probe_ns.Stats(evals=12345, best=0.25, elapsed=3.5),
        scratch=[float(v) for v in rng.random(50)],
        label="state-0042",
    )


def cdr_encode_struct(count: int) -> Run:
    tc = probe_ns.Exchange.__tc__
    value = _exchange_value()

    def run():
        for _ in range(count):
            CdrOutputStream().write_value(tc, value)

    return run, count


def cdr_decode_struct(count: int) -> Run:
    tc = probe_ns.Exchange.__tc__
    out = CdrOutputStream()
    out.write_value(tc, _exchange_value())
    data = out.getvalue()

    def run():
        for _ in range(count):
            CdrInputStream(data).read_value(tc)

    return run, count


def cdr_encode_any512(count: int) -> Run:
    state = Accumulator().get_checkpoint()

    def run():
        for _ in range(count):
            encode_any(state)

    return run, count


def cdr_decode_any512(count: int) -> Run:
    data = encode_any(Accumulator().get_checkpoint())

    def run():
        for _ in range(count):
            decode_any(data)

    return run, count


def _small_runtime(num_hosts: int = 2) -> Runtime:
    runtime = Runtime(RuntimeConfig(num_hosts=num_hosts, seed=1)).start()
    runtime.settle()
    return runtime


def orb_null_call(count: int) -> Run:
    runtime = _small_runtime()
    ior = runtime.orb(1).poa.activate(Accumulator(total=1.0))
    stub = runtime.orb(0).stub(ior, accumulator_ns.E2eAccumulatorStub)

    def client():
        for _ in range(count):
            yield stub.total()

    return (lambda: runtime.run(client())), count


def idl_compile(count: int) -> Run:
    def run():
        for _ in range(count):
            compile_idl(COMPILE_PROBE_IDL, name="e2e-compile-probe")

    return run, count


# -- obs ---------------------------------------------------------------------------


def obs_span(count: int) -> Run:
    tracer = Simulator(seed=0).obs.tracer

    def run():
        for _ in range(count):
            tracer.start_span("probe", parent=None, host="ws00").finish()

    return run, count


def obs_observe(count: int) -> Run:
    histogram = Simulator(seed=0).obs.metrics.histogram("e2e_probe_seconds")

    def run():
        for _ in range(count):
            histogram.observe(0.001)

    return run, count


# -- services ----------------------------------------------------------------------


def checkpoint_store(count: int) -> Run:
    runtime = _small_runtime()
    store = runtime.store_stub(1)
    state = Accumulator().get_checkpoint()

    def client():
        for version in range(1, count + 1):
            yield store.store("probe", version, state)

    return (lambda: runtime.run(client())), count


def checkpoint_load(count: int) -> Run:
    runtime = _small_runtime()
    store = runtime.store_stub(1)

    def prime():
        yield store.store("probe", 1, Accumulator().get_checkpoint())

    runtime.run(prime())

    def client():
        for _ in range(count):
            yield store.load("probe")

    return (lambda: runtime.run(client())), count


def naming_resolve(count: int) -> Run:
    runtime = _small_runtime(num_hosts=4)
    runtime.register_type(ACCUMULATOR_TYPE, Accumulator)
    runtime.run(runtime.deploy_group("probe.service", ACCUMULATOR_TYPE, [1, 2, 3]))
    naming = runtime.naming_stub(0)
    name = to_name("probe.service")

    def client():
        for _ in range(count):
            yield naming.resolve(name)

    return (lambda: runtime.run(client())), count


class _ScaleFixture:
    """The 1 000-host hierarchy and directory, built once per probe set."""

    def __init__(self) -> None:
        sim = Simulator(seed=1)
        self.winner, self.directory = scale_services(sim, scale_hosts(sim))
        self.winner.refresh()

    def refresh(self, count: int) -> Run:
        def run():
            for _ in range(count):
                self.winner.refresh()

        return run, count

    def best_host(self, count: int) -> Run:
        leaf = self.winner.leaves[0]

        def run():
            for _ in range(count):
                leaf.best_host()
            leaf.refresh()  # clear the placement feedback the loop charged

        return run, count

    def resolve(self, count: int) -> Run:
        directory = self.directory

        def run():
            for index in range(count):
                directory.resolve(f"svc-{index % SCALE_SERVICES:04d}")

        return run, count


# -- winner, opt, core -------------------------------------------------------------


def system_manager_best_host(count: int) -> Run:
    manager = _small_runtime(num_hosts=10).system_manager

    def run():
        for _ in range(count):
            manager.best_host()

    return run, count


def complex_box_iterations(iterations: int) -> Run:
    problem = DecomposedRosenbrock(100, 7)
    coupling = [0.5] * problem.manager_dimension
    rng = rng_stream(1, "e2e", "probe-box")

    def run():
        problem.solve_worker(0, coupling, rng, max_iterations=iterations)

    return run, iterations


def runtime_start(count: int) -> Run:
    def run():
        for _ in range(count):
            Runtime(RuntimeConfig(num_hosts=10, seed=1)).start()

    return run, count


def report_build(count: int) -> Run:
    runtime = _small_runtime(num_hosts=10)

    def run():
        for _ in range(count):
            runtime_report(runtime)

    return run, count


US, MS = 1e6, 1e3


def probe_table() -> tuple[tuple[str, Make, int, float], ...]:
    """``(metric, make, full-size count, unit)`` of every timed-loop probe."""
    fixture = _ScaleFixture()
    return (
        ("sim.kernel.dispatch_us", kernel_dispatch, 20_000, US),
        ("sim.process.switch_us", process_switch, 10_000, US),
        ("sim.process.spawn_us", process_spawn, 500, US),
        ("cluster.network.send_us", network_send, 5_000, US),
        ("cluster.host.execute_us", host_execute, 4_000, US),
        ("orb.giop.codec_us", giop_codec, 3_000, US),
        ("orb.cdr.encode_struct_us", cdr_encode_struct, 2_000, US),
        ("orb.cdr.decode_struct_us", cdr_decode_struct, 2_000, US),
        ("orb.cdr.encode_any512_us", cdr_encode_any512, 20, US),
        ("orb.cdr.decode_any512_us", cdr_decode_any512, 20, US),
        ("orb.core.null_call_us", orb_null_call, 300, US),
        ("orb.idl.compile_ms", idl_compile, 2, MS),
        ("obs.span_us", obs_span, 5_000, US),
        ("obs.metrics.observe_us", obs_observe, 10_000, US),
        ("services.checkpoint.store_us", checkpoint_store, 12, US),
        ("services.checkpoint.load_us", checkpoint_load, 12, US),
        ("services.naming.resolve_us", naming_resolve, 150, US),
        ("services.naming.sharded_resolve_us", fixture.resolve, 10_000, US),
        ("winner.hierarchy.refresh_ms", fixture.refresh, 10, MS),
        ("winner.hierarchy.best_host_us", fixture.best_host, 3_000, US),
        ("winner.system_manager.best_host_us", system_manager_best_host, 2_000, US),
        ("opt.complex_box.iter_us", complex_box_iterations, 96, US),
        ("core.runtime.start_ms", runtime_start, 2, MS),
        ("core.report.build_ms", report_build, 5, MS),
    )


def run_probes(scale: float) -> dict[str, float]:
    """Every timed-loop probe: metric name -> value.  A reduced-size run
    (the self-test's, at 1/10) shrinks the loop counts and makes one round."""
    rounds = ROUNDS if scale >= 1.0 else 1
    return {
        name: measure(make, max(1, round(count * scale)), unit, rounds)
        for name, make, count, unit in probe_table()
    }


# -- the FT pipelines, cell by cell --------------------------------------------------

#: rounds and stream size of the FT cell probe (half of a pass's cells).
FT_ROUNDS = 3
FT_SCALE = 0.5


def ft_cell_costs(seed: int, scale: float) -> dict[str, float]:
    """Host CPU of the ``add()`` stream itself (the drive phase, without
    runtime build and settling) through a raw stub — the FT bypass — and
    through each FT design, with and without crashes; median of
    ``FT_ROUNDS`` rounds."""
    size = FT_SCALE * min(1.0, scale)
    rounds = FT_ROUNDS if scale >= 1.0 else 1

    def drive_ms(design: str, crashes: int) -> float:
        samples = []
        for _ in range(rounds):
            spans = SpanRecorder()
            gc.collect()
            stream_cell(PassSummary(), seed, size, spans, design, crashes, 0.0)
            samples.append(MS * sum(spans.phase_cpu("harness.drive")))
        return statistics.median(samples)

    cost = {
        (design, crashes): drive_ms(design, crashes)
        for design, crashes in (
            ("plain", 0),
            ("checkpoint", 0),
            ("checkpoint", STREAM_CRASHES),
            ("warm-passive", 0),
            ("warm-passive", STREAM_CRASHES),
        )
    }
    calls = {design: stream_calls(design, size) for design, _ in cost}
    return {
        "ft.plain.cpu_ms_per_op": cost["plain", 0] / calls["plain"],
        "ft.checkpoint.cpu_ms_per_op": cost["checkpoint", 0] / calls["checkpoint"],
        "ft.warm_passive.cpu_ms_per_op": cost["warm-passive", 0]
        / calls["warm-passive"],
        "ft.recovery.cpu_ms_per_crash": (
            cost["checkpoint", STREAM_CRASHES] - cost["checkpoint", 0]
        ) / STREAM_CRASHES,
        "ft.failover.cpu_ms_per_crash": (
            cost["warm-passive", STREAM_CRASHES] - cost["warm-passive", 0]
        ) / STREAM_CRASHES,
    }
