"""Scale harness: 100× cluster/population curves.

Two experiments share one artifact:

* the **hosts-vs-throughput curve** — clusters from 1k to 10k hosts under
  an open-loop population whose offered load scales with cluster
  capacity, placed through the hierarchical Winner and the sharded
  service directory;
* the **clients-vs-latency curve** — a fixed 1k-host cluster as the
  client population grows from 10⁵ to 10⁶, each client offering a fixed
  rate, so rising population means rising utilization and the latency
  quantiles climb.

A fixed **smoke cell** (200 hosts / 10⁴ clients) runs in both quick and
full mode with identical parameters, and is re-run with the same seed;
both runs must produce bit-identical completion fingerprints.  (The
scalar oracle the vector board is held to lives in
``tests/winner/scalar_oracle.py``.)

The file doubles as the CI scale-smoke gate::

    PYTHONPATH=src python benchmarks/bench_scale.py --quick

which exits non-zero when any cell drops or fails a request, the
delivered rate drifts from the configured Poisson rate, the naming shards
lose their spread, or the determinism re-run diverges.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from repro.bench import format_table
from repro.bench.scalebench import (
    ScaleRunResult,
    clients_latency_curve,
    cluster_capacity,
    hosts_throughput_curve,
    scale_run,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: the smoke cell: identical in quick and full mode, so the pinned
#: deterministic metrics stay comparable across both.
SMOKE_HOSTS = 200
SMOKE_CLIENTS = 10_000
SMOKE_DURATION = 2.0
SMOKE_SEED = 1

#: full-mode curve shapes (the ISSUE's 1k–10k hosts / 10⁵–10⁶ clients).
FULL_HOST_COUNTS = [1_000, 2_000, 4_000, 10_000]
FULL_HOSTS_CLIENTS = 100_000
FULL_CLIENT_COUNTS = [100_000, 300_000, 1_000_000]
FULL_CLIENTS_HOSTS = 1_000
#: per-client offered rate: the 10⁶-client top cell lands at ~0.8
#: utilization of the 1k-host cluster, so latency visibly climbs.
FULL_PER_CLIENT_RATE = 0.8 * 1875.0 / 1_000_000

#: quick-mode (CI smoke) curve shapes.
QUICK_HOST_COUNTS = [100, 200]
QUICK_HOSTS_CLIENTS = 10_000
QUICK_CLIENT_COUNTS = [5_000, 10_000]
QUICK_CLIENTS_HOSTS = 200
QUICK_PER_CLIENT_RATE = 0.8 * cluster_capacity(200) / 10_000
QUICK_DURATION = 2.0

#: delivered arrival rate must sit within this of the configured Poisson
#: rate (12% ≈ 3-4 sigma at the smallest cell's sample count).
RATE_RTOL = 0.12
#: no naming shard may absorb more than half the resolve traffic.
MAX_PEAK_SHARE = 0.5


def run_bench(quick: bool = False) -> dict:
    smoke_kwargs = dict(
        num_hosts=SMOKE_HOSTS,
        num_clients=SMOKE_CLIENTS,
        arrival_rate=0.55 * cluster_capacity(SMOKE_HOSTS),
        duration=SMOKE_DURATION,
        seed=SMOKE_SEED,
    )
    smoke = scale_run(**smoke_kwargs)
    smoke_again = scale_run(**smoke_kwargs)

    if quick:
        hosts_curve = hosts_throughput_curve(
            QUICK_HOST_COUNTS,
            clients=QUICK_HOSTS_CLIENTS,
            duration=QUICK_DURATION,
        )
        clients_curve = clients_latency_curve(
            QUICK_CLIENT_COUNTS,
            num_hosts=QUICK_CLIENTS_HOSTS,
            per_client_rate=QUICK_PER_CLIENT_RATE,
            duration=QUICK_DURATION,
        )
    else:
        hosts_curve = hosts_throughput_curve(
            FULL_HOST_COUNTS,
            clients=FULL_HOSTS_CLIENTS,
        )
        clients_curve = clients_latency_curve(
            FULL_CLIENT_COUNTS,
            num_hosts=FULL_CLIENTS_HOSTS,
            per_client_rate=FULL_PER_CLIENT_RATE,
            duration=6.0,
        )

    return {
        "quick": quick,
        "smoke": smoke,
        "determinism": {
            "fingerprint": smoke.fingerprint,
            "rerun_match": smoke_again.fingerprint == smoke.fingerprint,
        },
        "hosts_curve": hosts_curve,
        "clients_curve": clients_curve,
    }


def _check_cell(label: str, cell: ScaleRunResult, failures: list) -> None:
    if cell.dropped:
        failures.append(f"{label}: {cell.dropped} request(s) dropped")
    if cell.failures:
        failures.append(f"{label}: {cell.failures} request(s) failed")
    if cell.completions != cell.arrivals:
        failures.append(
            f"{label}: {cell.completions} completions for "
            f"{cell.arrivals} arrivals (requests lost)"
        )
    empirical = cell.arrivals / cell.duration
    if abs(empirical - cell.arrival_rate) > RATE_RTOL * cell.arrival_rate:
        failures.append(
            f"{label}: delivered rate {empirical:.1f}/s is not within "
            f"{RATE_RTOL:.0%} of the configured {cell.arrival_rate:.1f}/s"
        )
    if cell.naming_peak_share > MAX_PEAK_SHARE:
        failures.append(
            f"{label}: busiest naming shard took "
            f"{cell.naming_peak_share:.0%} of resolves (> {MAX_PEAK_SHARE:.0%})"
        )
    if not 0.0 < cell.latency_p50 <= cell.latency_p99:
        failures.append(
            f"{label}: latency quantiles implausible "
            f"(p50={cell.latency_p50}, p99={cell.latency_p99})"
        )


def check_results(results: dict) -> list:
    """Every violated acceptance condition (empty = pass)."""
    failures: list = []
    if not results["determinism"]["rerun_match"]:
        failures.append(
            "determinism: rerun of the smoke cell diverged from the "
            "reference fingerprint"
        )
    _check_cell("smoke", results["smoke"], failures)
    for cell in results["hosts_curve"]:
        _check_cell(f"hosts={cell.hosts}", cell, failures)
    for cell in results["clients_curve"]:
        _check_cell(f"clients={cell.clients}", cell, failures)
    clients_curve = results["clients_curve"]
    if clients_curve[-1].latency_mean <= clients_curve[0].latency_mean:
        failures.append(
            "clients curve: latency did not rise with offered load "
            f"({clients_curve[0].latency_mean:.4f}s at "
            f"{clients_curve[0].clients} clients vs "
            f"{clients_curve[-1].latency_mean:.4f}s at "
            f"{clients_curve[-1].clients})"
        )
    return failures


def _curve_rows(cells: list) -> list:
    return [
        [
            cell.hosts,
            cell.clients,
            f"{cell.arrival_rate:.0f}",
            f"{cell.throughput:.0f}",
            f"{cell.latency_p50 * 1e3:.1f}",
            f"{cell.latency_p99 * 1e3:.1f}",
            cell.sites,
            f"{cell.naming_peak_share:.2f}",
            f"{cell.events_per_sec / 1e3:.0f}k",
            f"{cell.wall_seconds:.2f}",
        ]
        for cell in cells
    ]


def render(results: dict) -> str:
    headers = [
        "hosts",
        "clients",
        "offered/s",
        "throughput/s",
        "p50 [ms]",
        "p99 [ms]",
        "sites",
        "peak share",
        "sim ev/s",
        "wall [s]",
    ]
    hosts_table = format_table(
        headers,
        _curve_rows(results["hosts_curve"]),
        title="Hosts vs throughput (offered load tracks cluster capacity)",
    )
    clients_table = format_table(
        headers,
        _curve_rows(results["clients_curve"]),
        title="Clients vs latency (fixed cluster, load tracks population)",
    )
    det = results["determinism"]
    det_line = (
        f"determinism: smoke fingerprint {det['fingerprint']:#010x} — "
        f"rerun {'ok' if det['rerun_match'] else 'DIVERGED'}"
    )
    return "\n\n".join([hosts_table, clients_table, det_line])


def payload(results: dict) -> dict:
    return {
        "quick": results["quick"],
        "smoke": asdict(results["smoke"]),
        "determinism": results["determinism"],
        "hosts_curve": [asdict(cell) for cell in results["hosts_curve"]],
        "clients_curve": [asdict(cell) for cell in results["clients_curve"]],
    }


def metric_series(results: dict) -> dict:
    cells = (
        [("smoke", results["smoke"])]
        + [("hosts", cell) for cell in results["hosts_curve"]]
        + [("clients", cell) for cell in results["clients_curve"]]
    )

    def labels(curve: str, cell: ScaleRunResult) -> dict:
        return {
            "curve": curve,
            "hosts": str(cell.hosts),
            "clients": str(cell.clients),
        }

    return {
        # wall-clock lane (bench_wall prefix -> ±50% gate).
        "bench_wall_time": [
            (labels(curve, cell), cell.wall_seconds) for curve, cell in cells
        ],
        # deterministic lane (±5% gate; bit-identical run to run).
        "bench_scale_throughput_per_sec": [
            (labels(curve, cell), cell.throughput) for curve, cell in cells
        ],
        "bench_scale_p50_latency": [
            (labels(curve, cell), cell.latency_p50) for curve, cell in cells
        ],
        "bench_scale_p99_latency": [
            (labels(curve, cell), cell.latency_p99) for curve, cell in cells
        ],
        # recorded, ungated.
        "bench_scale_arrivals": [
            (labels(curve, cell), cell.arrivals) for curve, cell in cells
        ],
        "bench_scale_naming_peak_share": [
            (labels(curve, cell), cell.naming_peak_share)
            for curve, cell in cells
        ],
        "bench_scale_fingerprint": [
            ({}, results["determinism"]["fingerprint"])
        ],
    }


def export_artifacts(results: dict) -> None:
    """Write the same artifact set the pytest fixtures would."""
    from repro.bench.reporting import write_json
    from repro.obs import MetricsRegistry
    from repro.obs.exporters import prometheus_text

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "scale.txt").write_text(render(results) + "\n")
    write_json(RESULTS_DIR / "scale.json", payload(results))
    registry = MetricsRegistry()
    for metric_name, samples in metric_series(results).items():
        for labels, value in samples:
            registry.gauge(metric_name, **labels).set(float(value))
    write_json(RESULTS_DIR / "BENCH_scale.json", registry.snapshot())
    (RESULTS_DIR / "BENCH_scale.prom").write_text(prometheus_text(registry))


def test_scale_harness(benchmark, save_result, export_bench_metrics):
    results = benchmark.pedantic(
        run_bench, kwargs={"quick": True}, rounds=1, iterations=1
    )
    failures = check_results(results)
    assert not failures, "\n".join(failures)
    save_result("scale", render(results), payload(results))
    export_bench_metrics("scale", metric_series(results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Scale harness (CI scale-smoke gate)."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI shape: 100-200 hosts, 10⁴ clients",
    )
    args = parser.parse_args(argv)
    results = run_bench(quick=args.quick)
    print(render(results))
    export_artifacts(results)
    print(f"\nwrote {RESULTS_DIR / 'BENCH_scale.json'}")
    failures = check_results(results)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("scale harness: all acceptance checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
