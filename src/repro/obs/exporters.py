"""Render metrics and spans as standard artifact formats.

Two exporters, both keyed to *simulated* time:

* **Chrome ``trace_event``** — a JSON document loadable in
  ``chrome://tracing`` / Perfetto; spans become complete (``"ph": "X"``)
  events with microsecond timestamps, grouped by host (pid) and process
  (tid);
* **Prometheus text exposition** — counters and gauges verbatim, histograms
  as ``_count``/``_sum`` plus quantile series.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Span, Tracer


# -- Chrome trace_event -----------------------------------------------------------

#: simulated seconds -> trace_event microseconds.
_US = 1e6


def chrome_trace(
    spans: Iterable["Span"], now: Optional[float] = None
) -> dict[str, Any]:
    """Spans as a Chrome ``trace_event`` JSON document (dict form).

    Hosts map to pids, originating simulation processes to tids; metadata
    events name both so Perfetto renders readable track labels.  Open spans
    are clamped to ``now`` (or their start) so a crashed call still shows.
    """
    spans = list(spans)
    hosts: dict[str, int] = {}
    threads: dict[tuple[str, str], int] = {}
    events: list[dict[str, Any]] = []
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        host = span.host or "-"
        pid = hosts.setdefault(host, len(hosts) + 1)
        thread_key = (host, span.process or "-")
        tid = threads.setdefault(thread_key, len(threads) + 1)
        end = span.end
        if end is None:
            end = now if now is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.status,
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(0.0, end - span.start) * _US,
                "pid": pid,
                "tid": tid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                    **({"error": span.error} if span.error else {}),
                    **span.attrs,
                },
            }
        )
    metadata: list[dict[str, Any]] = []
    for host, pid in hosts.items():
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": host},
            }
        )
    for (host, process), tid in threads.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": hosts[host],
                "tid": tid,
                "args": {"name": process},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, tracer: "Tracer") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace(tracer.spans, now=tracer.sim.now)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


# -- Prometheus text exposition ------------------------------------------------------


def _prom_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: "MetricsRegistry") -> str:
    """Prometheus-style text exposition of a registry."""
    lines: list[str] = []
    typed: set[str] = set()
    for instrument in registry:
        if instrument.name not in typed:
            typed.add(instrument.name)
            kind = "summary" if instrument.kind == "histogram" else instrument.kind
            lines.append(f"# TYPE {instrument.name} {kind}")
        labels = instrument.label_dict
        if instrument.kind == "histogram":
            summary = instrument.value_repr()
            for quantile in ("p50", "p95", "p99"):
                q = {"p50": "0.5", "p95": "0.95", "p99": "0.99"}[quantile]
                quantile_label = 'quantile="%s"' % q
                lines.append(
                    f"{instrument.name}"
                    f"{_prom_labels(labels, quantile_label)}"
                    f" {summary[quantile]:.9g}"
                )
            lines.append(
                f"{instrument.name}_sum{_prom_labels(labels)} {summary['sum']:.9g}"
            )
            lines.append(
                f"{instrument.name}_count{_prom_labels(labels)} {summary['count']}"
            )
        else:
            lines.append(
                f"{instrument.name}{_prom_labels(labels)} "
                f"{instrument.value_repr():.9g}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path: str | Path, registry: "MetricsRegistry") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(registry))
    return path
