"""Metrics registry: instruments, labels, percentile math, the reservoir."""

import random

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import HISTOGRAM_SAMPLES


def test_counter_get_or_create_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("requests_total", host="ws00")
    b = registry.counter("requests_total", host="ws00")
    c = registry.counter("requests_total", host="ws01")
    assert a is b
    assert a is not c
    a.inc()
    a.inc(2.0)
    assert a.value == 3.0
    assert c.value == 0.0


def test_counter_rejects_decrease():
    registry = MetricsRegistry()
    for amount in (-1, float("nan")):
        with pytest.raises(ValueError):
            registry.counter("n").inc(amount)
    assert registry.counter("n").value == 0.0


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue_depth", host="ws00")
    gauge.set(4)
    gauge.inc()
    gauge.inc(-2)
    assert gauge.value == 3.0


def test_name_kind_conflict_rejected():
    registry = MetricsRegistry()
    registry.counter("latency")
    with pytest.raises(ValueError):
        registry.gauge("latency", host="ws00")


def test_name_kind_conflict_rejected_on_an_existing_label_set():
    """The same name and labels asked for as another kind: the registry
    must not hand back the instrument of the first kind."""
    registry = MetricsRegistry()
    counter = registry.counter("x", a="1")
    for conflicting in (registry.histogram, registry.gauge):
        with pytest.raises(ValueError, match="already registered as a counter"):
            conflicting("x", a="1")
        with pytest.raises(ValueError, match="already registered as a counter"):
            conflicting("x", a=1)  # a label value that is not str
    assert registry.counter("x", a="1") is counter
    assert len(registry) == 1


def test_percentiles_nearest_rank():
    registry = MetricsRegistry()
    histogram = registry.histogram("latency_seconds")
    for value in range(1, 101):  # 1..100
        histogram.observe(float(value))
    assert histogram.percentile(50) == 50.0
    assert histogram.percentile(95) == 95.0
    assert histogram.percentile(99) == 99.0
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0


def test_percentile_of_empty_histogram_is_zero():
    registry = MetricsRegistry()
    assert registry.histogram("empty").percentile(50) == 0.0


def test_percentile_single_sample():
    registry = MetricsRegistry()
    histogram = registry.histogram("one")
    histogram.observe(7.5)
    for p in (1, 50, 99):
        assert histogram.percentile(p) == 7.5


def test_summary_fields():
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == 10.0
    assert summary["mean"] == 2.5
    assert summary["min"] == 1.0
    assert summary["max"] == 4.0
    assert summary["p50"] == 2.0  # nearest rank: ceil(4*0.5)=2nd value


def test_histogram_reservoir_is_bounded():
    registry = MetricsRegistry()
    histogram = registry.histogram("bounded")
    for value in range(HISTOGRAM_SAMPLES + 100):
        histogram.observe(float(value))
    assert len(histogram._samples) == HISTOGRAM_SAMPLES
    assert histogram.count == HISTOGRAM_SAMPLES + 100  # never dropped
    assert histogram.min == 0.0
    assert histogram.percentile(0) == 100.0  # oldest retained sample


#: ``float.hex`` of each summary field, recorded before the reservoir lost
#: its time stamps: count, sum, mean, min, max, p50, p95, p99.
_SUMMARY_FIELDS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")
_GOLDEN_SMALL = (
    "0x1.9000000000000p+6",
    "0x1.37a0000000000p+6",
    "0x1.8ee147ae147aep-1",
    "0x0.0p+0",
    "0x1.9000000000000p+0",
    "0x1.8800000000000p-1",
    "0x1.7c00000000000p+0",
    "0x1.8c00000000000p+0",
)
_GOLDEN_WRAPPED = (
    "0x1.3880000000000p+13",
    "0x1.36ea306ca8ba5p+9",
    "0x1.fd671e98a1c17p-5",
    "0x1.a67b768382272p-47",
    "0x1.ffd7d1a382c25p-3",
    "0x1.e1b4a63b60b04p-6",
    "0x1.b9d275b96f66ap-3",
    "0x1.f40a3a66ea6eap-3",
)


def test_histogram_summaries_match_golden():
    """100 observations, and 10 000 from a seeded stream: the second
    histogram's 4096-sample reservoir has wrapped, so its percentiles run
    over the newest 4096 values while count/sum/min/max cover all."""
    registry = MetricsRegistry()
    small = registry.histogram("golden_small_seconds")
    for i in range(100):
        small.observe((i * 37 % 101) / 64.0)
    wrapped = registry.histogram("golden_wrapped_seconds", host="ws00")
    rng = random.Random(29)
    for _ in range(10_000):
        wrapped.observe(rng.random() ** 3 * 0.25)
    for histogram, golden in ((small, _GOLDEN_SMALL), (wrapped, _GOLDEN_WRAPPED)):
        summary = histogram.summary()
        assert tuple(
            float(summary[field]).hex() for field in _SUMMARY_FIELDS
        ) == golden, histogram.name


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("a", host="ws00").inc()
    registry.histogram("b").observe(1.0)
    snapshot = registry.snapshot()
    assert [entry["name"] for entry in snapshot] == ["a", "b"]
    assert snapshot[0] == {
        "name": "a",
        "kind": "counter",
        "labels": {"host": "ws00"},
        "value": 1.0,
    }
    assert snapshot[1]["value"]["count"] == 1
