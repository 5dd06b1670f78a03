"""Exporter round-trips: Chrome trace_event, Prometheus text."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.exporters import chrome_trace, prometheus_text
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


def _sample_spans(sim):
    tracer = sim.obs.tracer
    with tracer.span("ft:call", host="ws00") as root:
        root.set_attr("service", "counter")
        sim.now = 0.25
        with tracer.span("serve:call", host="ws01"):
            sim.now = 0.75
    return list(tracer.spans)


def test_chrome_trace_document_shape(sim):
    spans = _sample_spans(sim)
    document = chrome_trace(spans, now=sim.now)
    # Valid JSON, the exact document back.
    assert json.loads(json.dumps(document)) == document
    events = document["traceEvents"]
    assert all(event["ph"] in ("X", "M") for event in events)
    complete = [event for event in events if event["ph"] == "X"]
    assert len(complete) == len(spans)
    # Simulated seconds scaled to microseconds.
    root = next(e for e in complete if e["name"] == "ft:call")
    assert root["ts"] == 0.0
    assert root["dur"] == pytest.approx(0.75e6)
    # Hosts map to distinct pids with metadata names.
    names = {
        event["args"]["name"]
        for event in events
        if event["name"] == "process_name"
    }
    assert names == {"ws00", "ws01"}


def test_chrome_trace_clamps_open_spans(sim):
    tracer = sim.obs.tracer
    tracer.start_span("stuck", parent=None)
    sim.now = 2.0
    open_spans = list(tracer._open.values())
    document = chrome_trace(open_spans, now=sim.now)
    (event,) = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert event["dur"] == pytest.approx(2.0e6)


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("requests_total", host="ws00").inc(2)
    registry.gauge("depth").set(1.5)
    histogram = registry.histogram("latency_seconds", operation="solve")
    for value in (0.1, 0.2, 0.3):
        histogram.observe(value)
    text = prometheus_text(registry)
    assert "# TYPE requests_total counter" in text
    assert 'requests_total{host="ws00"} 2' in text
    assert "depth 1.5" in text
    assert "# TYPE latency_seconds summary" in text
    assert 'latency_seconds{operation="solve",quantile="0.5"} 0.2' in text
    assert 'latency_seconds_count{operation="solve"} 3' in text
    assert 'latency_seconds_sum{operation="solve"} 0.6' in text
