"""SLO evaluation and the snapshot regression gate."""

import math

import pytest

from repro.obs import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloSpec,
    compare_snapshots,
    evaluate_slos,
    export_slo_metrics,
    format_deltas,
    metric_direction,
    regressions,
    slo_report,
)


def _gauge(name, value, **labels):
    return {"name": name, "kind": "gauge", "labels": labels, "value": value}


def _histogram(name, summary, **labels):
    return {"name": name, "kind": "histogram", "labels": labels,
            "value": summary}


# -- SLO evaluation -------------------------------------------------------------


def test_max_bound_pass_and_fail():
    spec = SloSpec(name="s", metric="m", max_value=1.0)
    (ok,) = evaluate_slos([_gauge("m", 0.5)], [spec])
    assert ok.ok and not ok.skipped and ok.value == 0.5
    (bad,) = evaluate_slos([_gauge("m", 2.0)], [spec])
    assert not bad.ok
    assert "> max" in bad.detail
    (nan,) = evaluate_slos([_gauge("m", math.nan)], [spec])
    assert not nan.ok
    assert "nan > max" in nan.detail


def test_histogram_summary_field():
    summary = {"count": 3, "sum": 0.6, "mean": 0.2, "min": 0.1,
               "max": 0.3, "p50": 0.2, "p95": 0.3, "p99": 0.3}
    spec = SloSpec(name="s", metric="lat", summary_field="p99",
                   max_value=0.25)
    (result,) = evaluate_slos([_histogram("lat", summary)], [spec])
    assert result.value == 0.3
    assert not result.ok


def test_label_subset_narrows_series():
    snapshot = [
        _gauge("m", 1.0, operation="resolve", host="ws00"),
        _gauge("m", 9.0, operation="add"),
    ]
    spec = SloSpec(
        name="s", metric="m", max_value=5.0, labels=(("operation", "resolve"),)
    )
    (result,) = evaluate_slos(snapshot, [spec])
    assert result.ok and result.value == 1.0


def test_worst_aggregate_matches_bound_direction():
    snapshot = [_gauge("m", 1.0, h="a"), _gauge("m", 3.0, h="b")]
    (capped,) = evaluate_slos(
        snapshot, [SloSpec(name="s", metric="m", max_value=10.0)]
    )
    assert capped.value == 3.0  # worst for a max bound is the largest
    # A NaN series is the worst case wherever it sits: max() alone would
    # drop it unless it came first.
    (recovery,) = [s for s in DEFAULT_SLOS if s.name == "recovery-time-max"]
    for maxima in ((0.1, math.nan), (math.nan, 0.1)):
        snapshot = [
            _histogram("ft_recovery_seconds", {"max": value}, service=str(i))
            for i, value in enumerate(maxima)
        ]
        (result,) = evaluate_slos(snapshot, [recovery])
        assert not result.ok and math.isnan(result.value)


def test_export_slo_metrics_publishes_gauges():
    registry = MetricsRegistry()
    specs = [SloSpec(name="s", metric="m", max_value=1.0)]
    export_slo_metrics(registry, evaluate_slos([_gauge("m", 2.0)], specs))
    snapshot = {
        (entry["name"], entry["labels"]["slo"]): entry["value"]
        for entry in registry.snapshot()
    }
    assert snapshot[("slo_ok", "s")] == 0.0
    assert snapshot[("slo_value", "s")] == 2.0


def test_slo_report_counts():
    report = slo_report([_gauge("ft_recovery_seconds", 0.5)])
    assert report["checked"] == len(DEFAULT_SLOS)
    assert report["failed"] == 0
    assert report["skipped"] == len(DEFAULT_SLOS) - 1
    assert len(report["results"]) == len(DEFAULT_SLOS)


# -- direction inference ---------------------------------------------------------


@pytest.mark.parametrize(
    "name, direction",
    [
        ("bench_runtime_seconds", "lower"),
        ("ckpt_payload_bytes", "lower"),
        ("ft_overhead_percent", "lower"),
        ("chaos_slo_failures", "lower"),
        ("sim_events_per_sec", "higher"),
        ("resolve_cache_hits", "higher"),
        ("acc_ok_calls", "higher"),
        ("bench_state_correct", None),
        ("bench_recoveries", None),
    ],
)
def test_metric_direction(name, direction):
    assert metric_direction(name) == direction


# -- the regression gate ---------------------------------------------------------


def test_regression_beyond_tolerance_flagged():
    baseline = [_gauge("bench_runtime_seconds", 2.0, failures="1")]
    current = [_gauge("bench_runtime_seconds", 2.4, failures="1")]
    (delta,) = compare_snapshots(current, baseline, tolerance=0.05)
    assert delta.regressed
    assert delta.change == pytest.approx(0.2)
    assert regressions([delta]) == [delta]
    assert "REGRESSED" in format_deltas([delta])
    (nan,) = compare_snapshots(
        [_gauge("bench_runtime_seconds", math.nan, failures="1")], baseline
    )
    assert nan.regressed


def test_improvement_and_noise_pass():
    baseline = [_gauge("bench_runtime_seconds", 2.0)]
    for value in (1.5, 2.04):  # better, and within tolerance
        (delta,) = compare_snapshots([_gauge(
            "bench_runtime_seconds", value)], baseline)
        assert not delta.regressed
    assert "no regressions" in format_deltas(
        compare_snapshots([_gauge("bench_runtime_seconds", 1.5)], baseline)
    )


def test_higher_better_metric_regresses_downwards():
    baseline = [_gauge("bench_wall_events_per_sec", 10000.0)]
    (delta,) = compare_snapshots(
        [_gauge("bench_wall_events_per_sec", 4000.0)], baseline
    )
    assert delta.direction == "higher"
    assert delta.regressed
    (nan,) = compare_snapshots(
        [_gauge("bench_wall_events_per_sec", math.nan)], baseline
    )
    assert nan.regressed


def test_wall_clock_metrics_get_loose_tolerance():
    baseline = [_gauge("bench_wall_events_per_sec", 10000.0)]
    # 30% down: far beyond the 5% simulated tolerance, inside the 50%
    # wall-clock lane — host throughput jitters across machines.
    (delta,) = compare_snapshots(
        [_gauge("bench_wall_events_per_sec", 7000.0)], baseline
    )
    assert delta.tolerance == 0.5
    assert not delta.regressed


def test_undirected_and_unmatched_metrics_not_gated():
    baseline = [
        _gauge("bench_state_correct", 1.0),  # no direction suffix
        _gauge("bench_runtime_seconds", 2.0, failures="0"),
    ]
    current = [
        _gauge("bench_state_correct", 0.0),
        _gauge("bench_runtime_seconds", 2.0, failures="1"),  # labels differ
        _gauge("bench_new_metric_seconds", 9.0),  # not in baseline
    ]
    assert compare_snapshots(current, baseline) == []


def test_histogram_snapshots_gate_per_summary_field():
    summary = {"count": 10, "sum": 1.0, "mean": 0.1, "min": 0.05,
               "max": 0.2, "p50": 0.1, "p95": 0.18, "p99": 0.2}
    worse = dict(summary, p99=0.5, max=0.5)
    deltas = compare_snapshots(
        [_histogram("orb_dispatch_seconds", worse)],
        [_histogram("orb_dispatch_seconds", summary)],
    )
    by_field = {d.summary_field: d for d in deltas}
    assert by_field["p99"].regressed
    assert by_field["max"].regressed
    assert not by_field["p50"].regressed
    assert all(d.metric == "orb_dispatch_seconds" for d in deltas)


def test_delta_key_is_readable():
    (delta,) = compare_snapshots(
        [_gauge("bench_runtime_seconds", 3.0, failures="1")],
        [_gauge("bench_runtime_seconds", 2.0, failures="1")],
    )
    assert delta.key == "bench_runtime_seconds{failures=1}"
    assert delta.to_dict()["regressed"] is True
