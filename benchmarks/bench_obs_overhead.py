"""Observability overhead: spans must be cheap.

Two runs of the same recovery scenario (the ``bench_recovery`` cell:
checkpointed accumulator stream, one mid-run host crash):

* ``obs-off`` — tracer disabled;
* ``spans``   — tracing on (the default).

The hard claim is correctness, not speed: tracing is strictly
observational, so the *simulated* results (simulated runtime, recovery
time, final total) must be bit-identical across both modes.  Host
wall time per mode is reported as ``bench_wall_*`` metrics — the loose
regression-gate lane — with only a very generous sanity bound asserted,
because wall time jitters across machines.
"""

import time

from repro.bench import format_table
from repro.bench.ftbench import AccumulatorImpl, _runtime, ns

CALLS = 40
CALL_WORK = 0.05
FAILURES = 1
SEED = 17


def _run_cell(mode):
    """One recovery cell; returns simulated + wall measurements."""
    runtime = _runtime(num_hosts=7, seed=SEED)
    if mode == "obs-off":
        runtime.obs.tracer.enabled = False
    ior = runtime.orb(1).poa.activate(AccumulatorImpl())
    proxy = runtime.ft_proxy(
        ns.BenchAccumulatorStub, ior, key="acc", type_name="BenchAccumulator"
    )

    def crash_current():
        host = proxy.ior.host
        if host != "ws00":
            runtime.cluster.host(host).crash()

    span = CALLS * CALL_WORK * 1.6
    for index in range(FAILURES):
        at = runtime.sim.now + span * (index + 1) / (FAILURES + 1)
        runtime.sim.schedule_at(at, crash_current)

    def client():
        start = runtime.sim.now
        for _ in range(CALLS):
            yield proxy.add(1.0, CALL_WORK)
        final = yield proxy.total()
        return runtime.sim.now - start, final

    spans_before = len(runtime.obs.tracer.spans)
    # analysis: ignore[DET001]: the point of this bench is the host-side wall cost of observability; simulated results come from runtime.sim.now, wall time is reported separately
    wall0 = time.perf_counter()
    elapsed, final = runtime.run(client())
    # analysis: ignore[DET001]: host-side overhead measurement, not simulated time
    wall = time.perf_counter() - wall0

    return {
        "mode": mode,
        "wall": wall,
        "elapsed": elapsed,
        "final": final,
        "recovery_time": runtime.coordinator(0).recovery_time_total,
        "spans": len(runtime.obs.tracer.spans) - spans_before,
    }


def obs_overhead_bench():
    return [_run_cell(mode) for mode in ("obs-off", "spans")]


def test_obs_overhead(benchmark, save_result, export_bench_metrics):
    rows = benchmark.pedantic(obs_overhead_bench, rounds=1, iterations=1)
    base, spans = rows

    # The contract: observability never perturbs the simulation.
    assert spans["elapsed"] == base["elapsed"]
    assert spans["final"] == base["final"]
    assert spans["recovery_time"] == base["recovery_time"]
    assert base["spans"] == 0  # disabled tracer records nothing new
    assert spans["spans"] > 0

    # Wall-time sanity only — a generous bound, wall time is machine noise.
    assert spans["wall"] < base["wall"] * 3.0

    text = format_table(
        ["mode", "wall [s]", "overhead", "sim runtime [s]", "spans"],
        [
            [
                row["mode"],
                f"{row['wall']:.3f}",
                f"{row['wall'] / base['wall'] - 1:+.1%}",
                f"{row['elapsed']:.3f}",
                row["spans"],
            ]
            for row in rows
        ],
        title=(
            f"Observability overhead ({CALLS} calls, {FAILURES} failure, "
            "simulated results bit-identical across modes)"
        ),
    )

    save_result("obs_overhead", text, {"rows": rows})
    export_bench_metrics(
        "obs_overhead",
        {
            "bench_wall_seconds": [
                ({"mode": row["mode"]}, row["wall"]) for row in rows
            ],
            "bench_wall_overhead_percent": [
                ({"mode": row["mode"]},
                 100.0 * (row["wall"] / base["wall"] - 1))
                for row in rows[1:]
            ],
            "bench_runtime_seconds": [
                ({"mode": row["mode"]}, row["elapsed"]) for row in rows
            ],
        },
    )
