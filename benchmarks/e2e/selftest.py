"""Self-test of the end-to-end benchmark, at 1/10 size, in under a minute.

    python3 benchmarks/e2e/selftest.py

Checks, for every workload: all catalogued metrics are printed with their
units; simulated results and exact counts are identical across passes and
across child processes; another ``--seed`` changes the fingerprint; a
deliberately wrong expected total makes ``failed_op_share`` > 0 and the
command exit non-zero; every host-time metric is measured (non-zero) on
every workload; layer shares sum to 1 ± 0.02 with < 3 %
unattributed; every layer has a home workload and the bypassed layers read
exactly 0 on ``scale_open_loop``.  Also: ``BENCHMARK.json`` is what
``catalog.py`` generates and the catalogue is within the contract's limits.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import catalog
from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SCALE = "0.1"
SECONDS = "0.5"
#: units of measured host time: such a metric is never 0 on any workload.
HOST_TIME_UNITS = ("s", "ms", "us")
#: every other layer must do at least this share of some workload's pass.
HOME_FLOOR = 0.05
#: layers below the floor on every workload, by design: the FT layers and
#: the checkpoint store cost simulated time, not host time (catalog.py says
#: where they show); the other four are thin everywhere (README, "Layer
#: shares"), so their probes, not their shares, are what a change moves.
THIN_LAYERS = {
    "ft.proxies", "ft.recovery", "ft.replication", "services.checkpoint",
    "cluster.network", "cluster.host", "orb.giop", "core",
}
#: layers that must run no call at all on scale_open_loop.
BYPASSED_ON_SCALE = tuple(
    layer for layer in LAYERS
    if layer.startswith(("orb.", "ft.")) or layer in ("opt", "cluster.network")
)


def run(workload: str, *extra: str) -> tuple[int, dict, str]:
    """One ``run.py`` invocation: exit code, the JSON result, the text."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--scale", SCALE, "--seconds", SECONDS, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-1]), completed.stdout


def stamped(text: str, key: str) -> str:
    match = re.search(rf"^{key}: (\S+)$", text, re.MULTILINE)
    return match.group(1) if match else ""


class Failures(list):
    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.append(message)
            print("FAIL " + message)


def check_catalogue(failures: Failures) -> None:
    for problem in catalog.problems():
        failures.expect(False, f"catalogue: {problem}")
    recorded = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    failures.expect(
        recorded == catalog.benchmark_json(),
        "BENCHMARK.json differs from `python3 benchmarks/e2e/catalog.py`",
    )


def check_metrics(failures: Failures, workload: str, result: dict, expected) -> None:
    metrics = result["metrics"]
    failures.expect(
        set(metrics) == {m.name for m in expected},
        f"{workload}: printed metrics are not the catalogued ones",
    )
    for metric in expected:
        entry = metrics.get(metric.name, {})
        failures.expect(
            entry.get("unit") == metric.unit and isinstance(entry.get("value"), float),
            f"{workload}: {metric.name} lacks a value or its unit {metric.unit}",
        )


def check_workload(failures: Failures, workload: str, shares: dict) -> None:
    code, plain, plain_text = run(workload, "--trace", "0")
    failures.expect(
        code == 0 and plain["correct"], f"{workload}: end-to-end run failed"
    )
    check_metrics(failures, workload, plain, catalog.END_TO_END)
    for name, entry in plain["metrics"].items():
        failures.expect(entry["value"] > 0, f"{workload}: {name} is not positive")

    code, traced, traced_text = run(workload, "--trace", "1")
    failures.expect(code == 0 and traced["correct"], f"{workload}: traced run failed")
    check_metrics(failures, workload, traced, catalog.PER_LAYER)
    values = {name: entry["value"] for name, entry in traced["metrics"].items()}

    # Two child processes, several passes each: same simulated results and
    # same exact counts (the fingerprint covers both).
    failures.expect(
        stamped(plain_text, "fingerprint") == stamped(traced_text, "fingerprint") != ""
        and stamped(plain_text, "sim_runtime_s")
        == stamped(traced_text, "sim_runtime_s"),
        f"{workload}: two child processes disagree on the simulated results",
    )
    failures.expect(
        values["failed_op_share"] == 0.0, f"{workload}: failed_op_share != 0"
    )

    for metric in catalog.PER_LAYER:
        if metric.unit in HOST_TIME_UNITS:
            failures.expect(
                values[metric.name] != 0.0,
                f"{workload}: host time {metric.name} was not measured",
            )
    total = values["harness.self_share"] + sum(
        values[f"{layer}.self_share"] for layer in LAYERS
    )
    failures.expect(
        abs(total - 1.0) <= 0.02, f"{workload}: layer shares sum to {total:.4f}"
    )
    unattributed = values["harness.unattributed_share"]
    failures.expect(
        unattributed < 0.03,
        f"{workload}: {unattributed:.2%} of the trace is unattributed",
    )
    failures.expect(values["harness.trace_overhead_ratio"] > 1.0,
                    f"{workload}: tracing appears to cost nothing")
    shares[workload] = {layer: values[f"{layer}.self_share"] for layer in LAYERS}
    shares[workload].update(
        {f"{layer}.calls": values[f"{layer}.calls_per_op"] for layer in LAYERS}
    )

    code, other, other_text = run(
        workload, "--trace", "1", "--seed", "8", "--expect-shift", "1"
    )
    failures.expect(
        stamped(other_text, "fingerprint") != stamped(plain_text, "fingerprint"),
        f"{workload}: another --seed left the fingerprint unchanged",
    )
    failures.expect(
        code != 0 and not other["correct"] and other["failed"] > 0
        and other["metrics"]["failed_op_share"]["value"] > 0,
        f"{workload}: a wrong expected total went unnoticed",
    )


def check_homes(failures: Failures, shares: dict) -> None:
    for layer in LAYERS:
        best = max(shares[w][layer] for w in shares)
        floor = 0.0 if layer in THIN_LAYERS else HOME_FLOOR
        failures.expect(
            best > floor,
            f"layer {layer} has no home workload (largest share {best:.1%})",
        )
    for layer in BYPASSED_ON_SCALE:
        failures.expect(
            shares["scale_open_loop"][layer] == 0.0
            and shares["scale_open_loop"][f"{layer}.calls"] == 0.0,
            f"layer {layer} runs on scale_open_loop, which should bypass it",
        )


def main() -> int:
    failures = Failures()
    check_catalogue(failures)
    shares: dict = {}
    # One thread per CPU, each confined to its CPU: a thread's affinity is
    # inherited by the interpreters it spawns, which pin themselves inside
    # it, so the workloads of two threads never share a CPU.
    cpus = sorted(os.sched_getaffinity(0))

    def check_group(index: int) -> None:
        os.sched_setaffinity(0, {cpus[index]})
        for workload in catalog.ALL[index :: len(cpus)]:
            check_workload(failures, workload, shares)
            print(f"checked {workload}")

    with ThreadPoolExecutor(max_workers=len(cpus)) as pool:
        list(pool.map(check_group, range(len(cpus))))
    check_homes(failures, shares)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
