"""Critical-path analysis over :class:`~repro.obs.trace.Tracer` spans.

A trace is a tree of timed spans — ``ft:add`` over ``call:add`` over
``serve:add`` over a nested ``call:store`` — linked by parent ids within a
host and by the GIOP service-context propagation across hosts.  This module
reconstructs that tree and answers the question latency percentiles can't:
*which component was the request actually waiting on, instant by instant?*

The algorithm walks the root span's window backwards, always descending
into the child whose span covers the latest yet-unexplained instant.  The
resulting :class:`Segment` list **partitions** the root's ``[start, end]``
window exactly — every simulated nanosecond of the request (or recovery
episode) is attributed to exactly one span — so the component breakdown
sums to the root duration *by construction*.  That identity is what lets
the test suite tie the recovery breakdown to the pinned
``bench_recovery_time_seconds`` golden.

Component attribution maps each segment's owning span to one of the
buckets the paper's Table 1 story is told in: ``marshal`` (CDR encode /
decode work tagged onto spans by the ORB), ``transport`` (wire RTTs,
connection handshake and queueing — the client-side gap no child span
covers), ``servant`` work, ``checkpoint_store``, ``naming``, ``factory``
and the FT layer's own coordination.

A trace whose tracer ring has evicted spans cannot be trusted — a missing
middle span would silently misattribute its window to the parent — so
:func:`from_tracer` refuses with :class:`EvictedSpansError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Span, Tracer


class CriticalPathError(RuntimeError):
    """The requested trace cannot be analyzed."""


class EvictedSpansError(CriticalPathError):
    """The tracer ring dropped spans; the causal tree has holes."""


# -- span views ---------------------------------------------------------------


class SpanView:
    """Read-only view of a finished ``Span`` (an open one ends at its start)."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end",
                 "host", "process", "status", "attrs")

    def __init__(self, name, trace_id, span_id, parent_id, start, end,
                 host, process, status, attrs) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.host = host
        self.process = process
        self.status = status
        self.attrs = attrs

    @classmethod
    def of(cls, span: "Span") -> "SpanView":
        return cls(
            span.name, span.trace_id, span.span_id, span.parent_id,
            span.start, span.end if span.end is not None else span.start,
            span.host, span.process, span.status, span.attrs,
        )

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- component attribution ------------------------------------------------------

#: server-side operations that belong to infrastructure services rather
#: than application servant work.
_CHECKPOINT_OPS = frozenset(
    {"store", "load", "store_delta", "latest_version", "versions", "drop"}
)
_NAMING_OPS = frozenset(
    {"resolve", "resolve_all", "bind", "rebind", "unbind", "bind_service",
     "unbind_service", "list", "resolve_epoch"}
)
_FACTORY_OPS = frozenset({"create", "create_object", "destroy"})
_LOAD_OPS = frozenset({"report_load", "sample_load", "loads"})


def component_of(span: SpanView) -> str:
    """The component a span's *self time* is charged to."""
    name = span.name
    if name.startswith("call:"):
        # Client-side self time is the part of the invocation no server
        # span covers: wire latency, connection handshake, queueing.
        return "transport"
    if name.startswith("serve:"):
        op = name[len("serve:"):]
        if op in _CHECKPOINT_OPS:
            return "checkpoint_store"
        if op in _NAMING_OPS:
            return "naming"
        if op in _FACTORY_OPS:
            return "factory"
        if op in _LOAD_OPS:
            return "load_monitoring"
        return "servant"
    if name == "ft:recover":
        return "recovery_coordination"
    if name == "ft:checkpoint":
        return "checkpointing"
    if name == "ft:migrate":
        return "migration"
    if name.startswith("ft:"):
        return "ft_proxy"
    return name


def _marshal_share(span: SpanView) -> float:
    """CDR work tagged onto the span by the ORB, charged to ``marshal``.

    Client spans carry the reply-unmarshal cost (the request marshal
    happens *before* the span opens); server spans carry the reply-marshal
    cost (request decode happens before the span opens).
    """
    if span.name.startswith("call:"):
        return float(span.attrs.get("unmarshal_work", 0.0) or 0.0)
    if span.name.startswith("serve:"):
        return float(span.attrs.get("reply_marshal_work", 0.0) or 0.0)
    return 0.0


# -- the walk -----------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One critical-path interval, attributed to one span."""

    span_name: str
    span_id: str
    host: str
    component: str
    start: float
    end: float
    depth: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span": self.span_name,
            "span_id": self.span_id,
            "host": self.host,
            "component": self.component,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
        }


class CriticalPath:
    """The analyzed path: ordered segments partitioning the root window."""

    def __init__(
        self,
        root: SpanView,
        segments: list[Segment],
        spans_by_id: dict[str, SpanView],
    ) -> None:
        self.root = root
        self.segments = segments
        self._spans_by_id = spans_by_id

    @property
    def total(self) -> float:
        return self.root.duration

    def breakdown(self) -> dict[str, float]:
        """Seconds per component; sums to :attr:`total` exactly.

        Each span's self time goes to its :func:`component_of` bucket,
        except the CDR work the ORB tagged onto it, which moves to
        ``marshal`` (clamped so the invariant holds even if a tag is
        larger than the observed self time).
        """
        self_time: dict[str, float] = {}
        for segment in self.segments:
            self_time[segment.span_id] = (
                self_time.get(segment.span_id, 0.0) + segment.duration
            )
        out: dict[str, float] = {}
        for span_id, seconds in self_time.items():
            span = self._spans_by_id[span_id]
            marshal = min(_marshal_share(span), seconds)
            if marshal > 0.0:
                out["marshal"] = out.get("marshal", 0.0) + marshal
            component = component_of(span)
            out[component] = out.get(component, 0.0) + (seconds - marshal)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.root.trace_id,
            "root": self.root.name,
            "start": self.root.start,
            "end": self.root.end,
            "total": self.total,
            "segments": [s.to_dict() for s in self.segments],
            "breakdown": self.breakdown(),
        }

    def format(self) -> str:
        """Human-readable rendering: segment timeline plus breakdown."""
        lines = [
            f"critical path of {self.root.name} "
            f"(trace {self.root.trace_id}): {self.total * 1e3:.3f} ms",
            "",
            f"{'t [ms]':>10}  {'dur [ms]':>9}  {'component':<22} span",
        ]
        t0 = self.root.start
        for seg in self.segments:
            indent = "  " * seg.depth
            lines.append(
                f"{(seg.start - t0) * 1e3:>10.3f}  "
                f"{seg.duration * 1e3:>9.3f}  "
                f"{seg.component:<22} {indent}{seg.span_name}"
                + (f" @{seg.host}" if seg.host else "")
            )
        lines.append("")
        lines.append("breakdown:")
        breakdown = self.breakdown()
        for component, seconds in sorted(
            breakdown.items(), key=lambda kv: -kv[1]
        ):
            share = seconds / self.total if self.total > 0 else 0.0
            lines.append(
                f"  {component:<22} {seconds * 1e3:>9.3f} ms  {share:>6.1%}"
            )
        lines.append(
            f"  {'total':<22} {sum(breakdown.values()) * 1e3:>9.3f} ms"
        )
        return "\n".join(lines)


def analyze(
    spans: Iterable["Span"],
    root: Optional[str] = None,
) -> CriticalPath:
    """Critical path of one trace's spans.

    ``spans`` must all belong to one trace.  ``root`` selects the root
    span by name (e.g. ``"ft:recover"``); by default the parentless span
    (or, failing that, the span whose parent is missing from the set)
    with the widest window is used.
    """
    views = [SpanView.of(s) for s in spans]
    if not views:
        raise CriticalPathError("trace has no finished spans")
    trace_ids = {v.trace_id for v in views}
    if len(trace_ids) > 1:
        raise CriticalPathError(
            f"spans belong to {len(trace_ids)} different traces; "
            "analyze one trace at a time"
        )
    by_id = {v.span_id: v for v in views}
    children: dict[Optional[str], list[SpanView]] = {}
    for view in views:
        parent = view.parent_id if view.parent_id in by_id else None
        children.setdefault(parent, []).append(view)

    if root is not None:
        candidates = [v for v in views if v.name == root]
        if not candidates:
            raise CriticalPathError(
                f"no span named {root!r} in trace {views[0].trace_id}"
            )
        root_view = max(candidates, key=lambda v: v.duration)
    else:
        tops = children.get(None, [])
        if not tops:
            raise CriticalPathError("trace has no root span (cycle?)")
        root_view = max(tops, key=lambda v: v.duration)

    segments: list[Segment] = []

    def walk(span: SpanView, lo: float, hi: float, depth: int) -> None:
        t = hi
        kids = sorted(
            (k for k in children.get(span.span_id, ()) if k.start < t),
            key=lambda k: (k.end, k.start),
            reverse=True,
        )
        for kid in kids:
            if t <= lo:
                break
            kid_end = min(kid.end, t)
            if kid_end <= lo:
                continue
            if kid_end < t:
                # the parent's own gap after this child
                segments.append(Segment(
                    span.name, span.span_id, span.host,
                    component_of(span), kid_end, t, depth,
                ))
            kid_start = max(kid.start, lo)
            walk(kid, kid_start, kid_end, depth + 1)
            t = kid_start
        if t > lo:
            segments.append(Segment(
                span.name, span.span_id, span.host,
                component_of(span), lo, t, depth,
            ))

    walk(root_view, root_view.start, root_view.end, 0)
    segments.reverse()
    return CriticalPath(root_view, segments, by_id)


# -- tracer-level entry points ---------------------------------------------------


def from_tracer(
    tracer: "Tracer",
    trace_id: Optional[str] = None,
    root: Optional[str] = None,
) -> CriticalPath:
    """Analyze one trace out of a live tracer.

    Refuses (``EvictedSpansError``) when the tracer's ring has dropped
    spans: the causal tree would have holes and whole windows would be
    silently misattributed to ancestor spans.
    """
    if tracer.dropped > 0:
        raise EvictedSpansError(
            f"tracer evicted {tracer.dropped} spans (ring capacity "
            f"{tracer.spans.maxlen}); the trace is incomplete — raise the "
            "Tracer capacity or analyze a shorter run"
        )
    if trace_id is None:
        ids = tracer.trace_ids()
        if not ids:
            raise CriticalPathError("tracer holds no finished spans")
        if root is not None:
            ids = [
                t for t in ids
                if any(s.name == root and s.trace_id == t for s in tracer.spans)
            ]
            if not ids:
                raise CriticalPathError(f"no trace contains a {root!r} span")
        trace_id = ids[-1]
    return analyze(tracer.trace(trace_id), root=root)


def recovery_path(tracer: "Tracer") -> CriticalPath:
    """Critical path of the most recent recovery episode."""
    return from_tracer(tracer, root="ft:recover")


def request_path(tracer: "Tracer", operation: Optional[str] = None) -> CriticalPath:
    """Critical path of the most recent client request.

    ``operation`` narrows to traces rooted at ``ft:<operation>`` or
    ``call:<operation>``; by default the last trace is analyzed whole.
    """
    if operation is None:
        return from_tracer(tracer)
    for name in (f"ft:{operation}", f"call:{operation}"):
        try:
            return from_tracer(tracer, root=name)
        except CriticalPathError as exc:
            if isinstance(exc, EvictedSpansError):
                raise
    raise CriticalPathError(
        f"no trace rooted at an {operation!r} invocation"
    )
