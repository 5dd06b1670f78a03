"""Declarative SLOs and the benchmark regression gate.

Two related facilities, both operating on the *snapshot form* shared by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` and the
``benchmarks/results/BENCH_*.json`` artifacts — a list of
``{"name", "kind", "labels", "value"}`` dicts:

* **SLO evaluation** — an :class:`SloSpec` names a metric (optionally a
  summary field like ``p99`` and a label subset), caps it
  (``max_value``), and :func:`evaluate_slos` turns a snapshot into
  pass/fail :class:`SloResult` rows.  The runtime report
  and the chaos campaign surface these, and
  :func:`export_slo_metrics` republishes them as ``slo_ok`` /
  ``slo_value`` gauges so the Prometheus exporter carries the verdicts.

* **Regression gating** — :func:`compare_snapshots` diffs a current
  snapshot against a pinned baseline BENCH artifact, inferring the good
  direction from the metric name (``*_seconds`` down, ``*_per_sec`` up)
  and flagging changes beyond tolerance.  Wall-clock-derived metrics
  (host throughput) get a much looser tolerance than simulated results,
  which are bit-deterministic and regress only when behaviour changes.

A NaN fails both: every bound is written so that an unordered comparison
(``not value <= bound``) counts against the value.

``python -m repro.obs check`` wraps the gate for CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

Snapshot = Sequence[dict]

#: summary fields a histogram snapshot value exposes.
_SUMMARY_FIELDS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")


# -- SLO specs ----------------------------------------------------------------


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a snapshot metric."""

    name: str
    metric: str
    #: upper bound on the worst (largest) matching series.
    max_value: float
    #: summary field for histogram values (``p99``, ``max``, ...);
    #: ignored for scalar metrics.
    summary_field: str = "p99"
    #: label subset the series must match (empty = every series).
    labels: tuple = ()
    description: str = ""


@dataclass
class SloResult:
    """The verdict of one spec against one snapshot."""

    spec: SloSpec
    value: Optional[float]
    ok: bool
    skipped: bool = False
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "slo": self.spec.name,
            "metric": self.spec.metric,
            "value": self.value,
            "ok": self.ok,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def _scalar(value: Any, summary_field: str) -> Optional[float]:
    if isinstance(value, dict):
        out = value.get(summary_field)
        return float(out) if out is not None else None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _labels_match(series_labels: dict, wanted: tuple) -> bool:
    return all(series_labels.get(k) == v for k, v in wanted)


def evaluate_slos(
    snapshot: Snapshot, specs: Iterable[SloSpec]
) -> list[SloResult]:
    """Check every spec against a metrics snapshot.

    A missing metric is skipped (and passes); otherwise the largest
    matching series is held to ``max_value``, and a NaN in any of them
    fails the spec.
    """
    results = []
    for spec in specs:
        values = [
            v
            for entry in snapshot
            if entry["name"] == spec.metric
            and _labels_match(entry.get("labels", {}), spec.labels)
            for v in (_scalar(entry["value"], spec.summary_field),)
            if v is not None
        ]
        if not values:
            results.append(SloResult(
                spec,
                None,
                ok=True,
                skipped=True,
                detail=f"metric {spec.metric!r} not in snapshot",
            ))
            continue
        value = max(values)
        for v in values:
            if v != v:  # NaN: max() would skip it unless it came first
                value = v
                break
        ok = value <= spec.max_value
        detail = "" if ok else f"{value:.6g} > max {spec.max_value:.6g}"
        results.append(SloResult(spec, value, ok=ok, detail=detail))
    return results


#: SLOs every runtime/scenario run is judged against by default.  Bounds
#: are generous — they catch pathologies (a recovery stuck for seconds, a
#: resolve tail blowing up), not noise.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(
        name="resolve-p99",
        metric="orb_dispatch_seconds",
        labels=(("operation", "resolve"),),
        summary_field="p99",
        max_value=0.05,
        description="naming resolve server-side p99 under 50 ms",
    ),
    SloSpec(
        name="recovery-time-max",
        metric="ft_recovery_seconds",
        summary_field="max",
        max_value=5.0,
        description="no single recovery episode above 5 s",
    ),
    SloSpec(
        name="dispatch-p99",
        metric="orb_dispatch_seconds",
        summary_field="p99",
        max_value=1.0,
        description="server dispatch p99 under 1 s across all operations",
    ),
    SloSpec(
        name="warm_passive_failover_time",
        metric="ft_failover_seconds",
        summary_field="max",
        max_value=1.0,
        description="warm-passive promotion (retire + sync + naming swap)"
        " completes within 1 s — the headline win over checkpoint/restart",
    ),
    SloSpec(
        name="active_vote_quorum_latency",
        metric="ft_vote_quorum_seconds",
        summary_field="p99",
        max_value=0.5,
        description="active-mode quorum reached within 0.5 s p99 — voting"
        " must mask failures without stalling the caller",
    ),
)


def export_slo_metrics(registry, results: Iterable[SloResult]) -> None:
    """Publish SLO verdicts as gauges (``slo_ok``, ``slo_value``)."""
    for result in results:
        labels = {"slo": result.spec.name, "metric": result.spec.metric}
        registry.gauge("slo_ok", **labels).set(
            1.0 if result.ok else 0.0
        )
        if result.value is not None:
            registry.gauge("slo_value", **labels).set(result.value)


def slo_report(snapshot: Snapshot, specs: Iterable[SloSpec] = DEFAULT_SLOS) -> dict:
    """SLO section for :func:`repro.core.report.runtime_report`."""
    results = evaluate_slos(snapshot, specs)
    return {
        "checked": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "skipped": sum(1 for r in results if r.skipped),
        "results": [r.to_dict() for r in results],
    }


# -- regression gate ---------------------------------------------------------------


@dataclass
class MetricDelta:
    """One baseline-vs-current comparison row."""

    metric: str
    labels: dict
    summary_field: Optional[str]
    baseline: float
    current: float
    direction: str  # "lower" | "higher"
    change: float  # relative change, signed (+ = value went up)
    tolerance: float
    regressed: bool

    @property
    def key(self) -> str:
        labels = ",".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        name = self.metric + (f".{self.summary_field}" if self.summary_field else "")
        return f"{name}{{{labels}}}" if labels else name

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.key,
            "baseline": self.baseline,
            "current": self.current,
            "direction": self.direction,
            "change": self.change,
            "tolerance": self.tolerance,
            "regressed": self.regressed,
        }


#: metric-name suffixes implying "lower is better".
_LOWER_BETTER = (
    "_seconds", "_bytes", "_percent", "_failures", "_violations",
    "_dropped", "_stalls", "_retries", "_fallbacks", "_rejections",
    "_time", "_latency", "_overhead",
)
#: metric-name suffixes implying "higher is better".
_HIGHER_BETTER = ("_per_sec", "_throughput", "_ok_calls", "_hits")

#: metrics measured on the host wall clock: deterministic across seeds
#: but not across machines or runs, so they get the loose tolerance.
_WALL_CLOCK_PREFIXES = ("bench_wall",)


def metric_direction(name: str) -> Optional[str]:
    """Infer which way a metric should move; None = not gated."""
    if name.endswith(_HIGHER_BETTER):
        return "higher"
    if name.endswith(_LOWER_BETTER):
        return "lower"
    return None


def _flatten(snapshot: Snapshot) -> dict[tuple, tuple[float, Optional[str]]]:
    """Index a snapshot: (name, labels, field) -> scalar value."""
    out: dict[tuple, tuple[float, Optional[str]]] = {}
    for entry in snapshot:
        labels = tuple(sorted(entry.get("labels", {}).items()))
        value = entry["value"]
        if isinstance(value, dict):
            for summary_field in _SUMMARY_FIELDS:
                if summary_field in value:
                    out[(entry["name"], labels, summary_field)] = (
                        float(value[summary_field]),
                        summary_field,
                    )
        else:
            out[(entry["name"], labels, None)] = (float(value), None)
    return out


def compare_snapshots(
    current: Snapshot,
    baseline: Snapshot,
    tolerance: float = 0.05,
    wall_tolerance: float = 0.5,
) -> list[MetricDelta]:
    """Diff two snapshots; returns one row per gated metric pair.

    Only metrics whose name implies a direction are gated; a change
    beyond ``tolerance`` (relative) in the bad direction marks the row
    regressed.  Metrics in both snapshots only — new or removed series
    are not regressions.
    """
    current_index = _flatten(current)
    baseline_index = _flatten(baseline)
    deltas: list[MetricDelta] = []
    for key in sorted(
        set(current_index) & set(baseline_index),
        key=lambda k: (k[0], k[1], k[2] or ""),
    ):
        name, labels, summary_field = key
        direction = metric_direction(name)
        if direction is None:
            continue
        base_value = baseline_index[key][0]
        cur_value = current_index[key][0]
        limit = (
            wall_tolerance
            if name.startswith(_WALL_CLOCK_PREFIXES)
            else tolerance
        )
        scale = max(abs(base_value), 1e-12)
        change = (cur_value - base_value) / scale
        worse = (
            not change <= limit
            if direction == "lower"
            else not change >= -limit
        )
        deltas.append(MetricDelta(
            metric=name,
            labels=dict(labels),
            summary_field=summary_field,
            baseline=base_value,
            current=cur_value,
            direction=direction,
            change=change,
            tolerance=limit,
            regressed=worse,
        ))
    return deltas


def regressions(deltas: Iterable[MetricDelta]) -> list[MetricDelta]:
    return [d for d in deltas if d.regressed]


def format_deltas(deltas: Sequence[MetricDelta], all_rows: bool = False) -> str:
    """Render the comparison as a table (regressions only by default)."""
    rows = list(deltas) if all_rows else regressions(deltas)
    if not rows:
        checked = len(list(deltas))
        return f"no regressions ({checked} gated metrics checked)"
    lines = [
        f"{'metric':<56} {'baseline':>12} {'current':>12} {'change':>8}"
    ]
    for row in rows:
        marker = " REGRESSED" if row.regressed else ""
        lines.append(
            f"{row.key:<56} {row.baseline:>12.6g} {row.current:>12.6g} "
            f"{row.change:>+7.1%}{marker}"
        )
    return "\n".join(lines)
