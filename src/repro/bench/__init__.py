"""Benchmark harness: drivers that regenerate the paper's tables/figures.

Each experiment (Fig. 3, Table 1, and the ablations in DESIGN.md) has a
driver here that runs the parameter sweep on the simulated NOW and returns
rows shaped like the paper's artifact; ``benchmarks/`` wraps them in
pytest-benchmark targets and prints/saves the results.
"""

from repro.bench.harness import (
    Fig3Point,
    Table1Row,
    fig3_curves,
    fig3_sweep,
    table1_sweep,
)
from repro.bench.reporting import format_table, write_json
from repro.bench.resolvebench import RESOLVE_MODES, resolve_fastpath_sweep
from repro.bench.scalebench import (
    ScaleRunResult,
    clients_latency_curve,
    cluster_capacity,
    hosts_throughput_curve,
    scale_run,
)

__all__ = [
    "Fig3Point",
    "RESOLVE_MODES",
    "ScaleRunResult",
    "Table1Row",
    "clients_latency_curve",
    "cluster_capacity",
    "fig3_curves",
    "fig3_sweep",
    "format_table",
    "hosts_throughput_curve",
    "resolve_fastpath_sweep",
    "scale_run",
    "table1_sweep",
    "write_json",
]
