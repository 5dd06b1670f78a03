"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload table1_ft --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 unless a check failed or the program could not be run.

The parent process measures nothing itself: every pass runs in a fresh,
single-threaded child interpreter pinned to one CPU with
``PYTHONHASHSEED=0``.  A *run* is: set-up (import, IDL compile, one
warm-up pass at 1/10 size), then identical timed passes for ``--seconds``
seconds of wall time (at least three) with ``gc.collect()`` between them
and tracing off.  ``setup_s`` is the median over seven fresh interpreters
of the CPU seconds each has used when its warm-up pass is done.
A traced run spends a third of ``--seconds`` on untraced passes (with
phase spans), then runs one pass under cProfile and the layer probes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import hostclock
from catalog import ALL, BY_NAME, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS
from layertrace import (
    HARNESS,
    LAYERS,
    NULL_SPANS,
    SpanRecorder,
    profile_pass,
    rollup,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"

SETUP_PROBES = 7
MIN_PASSES = 3
WARMUP_SCALE = 0.1
#: share of ``--seconds`` a traced run spends on un-profiled passes; the
#: profiled pass (2-3.5x a plain one) and the probes take the rest.
TRACE_BUDGET_SHARE = 1.0 / 3.0
#: a child that has not answered after this long is killed (contract: 180 s).
CHILD_TIMEOUT = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For selftest.py only: pass size, and an expectation shifted on purpose
    # so that the output checks must fail.
    hidden = argparse.SUPPRESS
    parser.add_argument("--scale", type=float, default=1.0, help=hidden)
    parser.add_argument("--expect-shift", type=float, default=0.0, help=hidden)
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=hidden)
    return parser.parse_args(argv)


# -- the child: everything that imports repro ---------------------------------------


def child_main(args: argparse.Namespace) -> int:
    hostclock.pin_to_one_cpu()
    import workloads  # imports repro and compiles the benchmark's IDL

    run_pass = workloads.WORKLOADS[args.workload]
    warmup = run_pass(args.seed, WARMUP_SCALE * min(1.0, args.scale), NULL_SPANS)
    # CPU seconds since this interpreter was exec'ed: start-up, imports,
    # IDL compile, first runtime built, warm-up pass done.
    result: dict = {"setup_s": hostclock.cpu()}
    if args.child == "measure":
        result.update(measure(args, run_pass, warmup))
    elif args.child == "trace":
        result.update(trace(args, run_pass))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def timed_passes(args, run_pass, spans, budget: float) -> dict:
    """Identical passes until ``budget`` wall seconds are used (at least
    ``MIN_PASSES``); returns per-pass CPU and wall seconds and summaries."""
    cpu_seconds: list[float] = []
    wall_seconds: list[float] = []
    summaries = []
    started = hostclock.wall()
    while len(summaries) < MIN_PASSES or hostclock.wall() - started < budget:
        gc.collect()
        spans.next_pass()
        cpu_before, wall_before = hostclock.cpu(), hostclock.wall()
        with spans.span("harness.pass"):
            summary = run_pass(args.seed, args.scale, spans, args.expect_shift)
        cpu_seconds.append(hostclock.cpu() - cpu_before)
        wall_seconds.append(hostclock.wall() - wall_before)
        summaries.append(summary)
    return {"cpu": cpu_seconds, "wall": wall_seconds, "summaries": summaries}


def outcome(summaries: list, run_checks: dict[str, bool]) -> dict:
    """Counts over all passes.  ``run_checks`` are checks of the run as a
    whole; that all passes were identical is always one of them."""
    first = summaries[0]
    checks = dict(run_checks)
    checks["passes_identical"] = all(
        (s.fingerprint, s.sim_runtime, s.ops)
        == (first.fingerprint, first.sim_runtime, first.ops)
        for s in summaries
    )
    failed_runs = sorted(name for name, ok in checks.items() if not ok)
    failed_passes = sorted(
        {name for s in summaries for name, ok in s.checks.items() if not ok}
    )
    return {
        "ops_per_pass": first.ops,
        "attempted": sum(s.attempted_total for s in summaries) + len(checks),
        "failed": sum(s.failed_total for s in summaries) + len(failed_runs),
        "failed_checks": failed_passes + failed_runs,
        "sim_runtime_s": first.sim_runtime,
        "fingerprint": first.fingerprint,
    }


def measure(args, run_pass, warmup) -> dict:
    run_checks = {}
    if args.workload == "scale_open_loop":
        run_checks = scale_reference_check(args, warmup)
    passes = timed_passes(args, run_pass, NULL_SPANS, args.seconds)
    result = outcome(passes["summaries"], run_checks)
    result["pass_cpu_s"] = passes["cpu"]
    result["pass_wall_s"] = passes["wall"]
    result["peak_rss_mb"] = hostclock.peak_rss_mib()
    return result


def scale_reference_check(args, warmup) -> dict[str, bool]:
    """The warm-up pass must leave the completion fingerprint that
    ``repro.bench.scalebench.scale_run`` leaves for the same arguments —
    for as long as that function exists."""
    try:
        from repro.bench.scalebench import scale_run
    except ImportError:
        return {}
    import workloads

    scale = WARMUP_SCALE * min(1.0, args.scale)
    reference = scale_run(
        num_hosts=workloads.SCALE_HOSTS,
        num_clients=workloads.SCALE_CLIENTS,
        arrival_rate=workloads.SCALE_LOAD
        * workloads.scale_capacity(workloads.SCALE_HOSTS),
        duration=workloads.SCALE_DURATION * scale,
        seed=args.seed,
        num_shards=workloads.SCALE_SHARDS,
        services_per_shard=workloads.SCALE_SERVICES // workloads.SCALE_SHARDS,
    )
    same = reference.fingerprint == warmup.population_fingerprint
    return {"scale_run_fingerprint": same}


def trace(args, run_pass) -> dict:
    import probes

    spans = SpanRecorder()
    passes = timed_passes(args, run_pass, spans, args.seconds * TRACE_BUDGET_SHARE)
    result = outcome(passes["summaries"], {})
    summary = passes["summaries"][0]
    ops = max(1, summary.ops)
    cpu = passes["cpu"]
    median_cpu = statistics.median(cpu)

    gc.collect()
    cpu_before = hostclock.cpu()
    stats = profile_pass(
        lambda: run_pass(args.seed, args.scale, NULL_SPANS, args.expect_shift)
    )
    traced_cpu = hostclock.cpu() - cpu_before
    layers = rollup(stats)
    total = layers["total_seconds"] or 1.0

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layers["self_seconds"][layer] / total
        metrics[f"{layer}.calls_per_op"] = layers["calls"][layer] / ops
    metrics["harness.self_share"] = layers["self_seconds"][HARNESS] / total
    metrics["harness.unattributed_share"] = layers["unattributed_seconds"] / total
    metrics["harness.py_calls_per_op"] = layers["total_calls"] / ops
    metrics["harness.trace_overhead_ratio"] = traced_cpu / median_cpu
    metrics["harness.pass_cpu_iqr_share"] = hostclock.quartile_spread(cpu)
    metrics["harness.pass_cpu_min_s"] = min(cpu)
    metrics["harness.wall_over_cpu"] = sum(passes["wall"]) / sum(cpu)
    for phase in ("build", "deploy", "settle", "drive", "drain", "report"):
        samples = spans.phase_cpu(f"harness.{phase}")
        phase_cpu = statistics.median(samples) if samples else 0.0
        metrics[f"harness.{phase}_share"] = phase_cpu / median_cpu
    metrics["sim_runtime_s"] = summary.sim_runtime
    metrics["failed_op_share"] = result["failed"] / result["attempted"]
    metrics.update(summary.per_layer())
    metrics.update(probes.run_probes(args.scale))
    metrics.update(probes.ft_cell_costs(args.seed, args.scale))

    span_file = HERE / "results" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.write_jsonl(span_file)
    result["metrics"] = metrics
    result["span_file"] = str(span_file.relative_to(ROOT))
    result["pass_cpu_s"] = cpu
    return result


# -- the parent: spawn, collect, print ---------------------------------------------


def spawn_child(args: argparse.Namespace, mode: str) -> dict:
    """Run one child interpreter to completion; returns its JSON answer."""
    environment = dict(os.environ)
    environment.update(
        PYTHONPATH=str(SOURCE),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--expect-shift", str(args.expect_shift),
    ]
    completed = subprocess.run(
        command, env=environment, cwd=ROOT, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT, check=True, text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def parent_main(args: argparse.Namespace) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"run.py: nothing to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2

    if args.trace:
        answer = spawn_child(args, "trace")
        values = answer["metrics"]
        names = [metric.name for metric in PER_LAYER]
        print(f"phase spans written to {answer['span_file']}")
    else:
        setups = [
            spawn_child(args, "setup")["setup_s"] for _ in range(SETUP_PROBES - 1)
        ]
        answer = spawn_child(args, "measure")
        setups.append(answer["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_cpu_s": answer["ops_per_pass"]
            / statistics.median(answer["pass_cpu_s"]),
            "peak_rss_mb": answer["peak_rss_mb"],
        }
        names = [metric.name for metric in END_TO_END]
        print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setups))
        print("pass_wall_s: " + " ".join(f"{v:.4f}" for v in answer["pass_wall_s"]))

    print("pass_cpu_s: " + " ".join(f"{v:.4f}" for v in answer["pass_cpu_s"]))
    print(f"sim_runtime_s: {answer['sim_runtime_s']!r}")
    print(f"fingerprint: {answer['fingerprint']:#010x}")
    metrics = {}
    for name in names:
        # An exact count or simulated figure of a layer the workload never
        # enters (checkpoints on scale_open_loop) is not produced: it is 0.
        value = float(values.get(name, 0.0))
        unit = BY_NAME[name].unit
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:16.6f} {unit}")
    correct = answer["failed"] == 0
    if not correct:
        print("FAILED: " + (", ".join(answer["failed_checks"]) or "operations"))
    print(json.dumps({
        "correct": correct,
        "attempted": answer["attempted"],
        "failed": answer["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except subprocess.TimeoutExpired:
        print("run.py: a child interpreter did not finish in time", file=sys.stderr)
    except subprocess.CalledProcessError as error:
        print(f"run.py: a child exited with {error.returncode}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
