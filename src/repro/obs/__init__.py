"""End-to-end observability for the runtime: metrics, traces, exporters.

The paper's whole argument rests on measured behaviour — Winner load
samples, checkpoint overhead (Table 1), recovery latency — so the runtime
carries a first-class observability layer instead of ad-hoc counters:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms, labelled by host/operation/service;
* :class:`~repro.obs.trace.Tracer` — span-based distributed tracing with
  cross-process context propagation over a GIOP service context;
* :mod:`repro.obs.exporters` — Chrome ``trace_event`` and Prometheus text
  renderings of the two.

Access is through ``sim.obs`` (created lazily per simulation), so every
layer shares one registry and one tracer — the only record of a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    Span,
    TRACE_CONTEXT_SERVICE_ID,
    TraceContext,
    Tracer,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TRACE_CONTEXT_SERVICE_ID",
    "TraceContext",
    "Tracer",
]


class Observability:
    """The per-simulation observability hub: one registry, one tracer."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sim)

    # -- export conveniences ---------------------------------------------------

    def export_chrome_trace(self, path) -> "object":
        from repro.obs.exporters import write_chrome_trace

        return write_chrome_trace(path, self.tracer)

    def export_prometheus(self, path) -> "object":
        from repro.obs.exporters import write_prometheus

        return write_prometheus(path, self.metrics)

    def report(self) -> dict:
        """Summary block for :func:`repro.core.report.runtime_report`."""
        return {
            "metrics": len(self.metrics),
            "spans_finished": len(self.tracer.spans),
            "spans_dropped": self.tracer.dropped,
        }
