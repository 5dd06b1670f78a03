"""Span-based distributed tracing over the simulation.

One logical call produces a *trace*: a tree of timed spans causally linked
across processes and hosts — client proxy call, naming ``resolve()``, server
dispatch, checkpoint fetch, recovery — all sharing one trace id.

Context propagation is two-layered:

* **within a simulation**: the active :class:`TraceContext` is stored on the
  currently running :class:`~repro.sim.process.Process` or
  :class:`~repro.sim.process.Activity`; each inherits its creator's
  context, so an FT proxy's root span automatically covers every ORB
  invocation it issues;
* **across the wire**: :class:`repro.obs.interceptor.ObservabilityInterceptor`
  encodes the context into a GIOP service-context entry on each request and
  restores it in the server's dispatch activity.

Finished spans accumulate in a bounded ring (oldest dropped, counted) and
are rendered by :mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: GIOP service-context id carrying an encoded TraceContext ("TRCX").
TRACE_CONTEXT_SERVICE_ID = 0x54524358


class TraceContext:
    """The propagated part of a span: (trace id, span id).  A value: equal
    ids are an equal context, and no code changes one once it is built."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return self.trace_id == other.trace_id and self.span_id == other.span_id

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"

    def encode(self) -> bytes:
        """Wire form for the GIOP service context."""
        return f"{self.trace_id}:{self.span_id}".encode("ascii")

    @classmethod
    def decode(cls, data: bytes) -> Optional["TraceContext"]:
        """Parse the wire form; None when the blob is malformed."""
        try:
            trace_id, span_id = data.decode("ascii").split(":", 1)
        except (UnicodeDecodeError, ValueError):
            return None
        if not trace_id or not span_id:
            return None
        return cls(trace_id, span_id)


class Span:
    """One timed operation within a trace."""

    __slots__ = (
        "tracer",
        "name",
        "context",
        "parent_id",
        "start",
        "end",
        "status",
        "error",
        "host",
        "process",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        context: TraceContext,
        parent_id: Optional[str],
        start: float,
        host: str = "",
        process: str = "",
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.host = host
        self.process = process
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}

    # -- mutation ----------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def mark_error(self, error: BaseException | str) -> None:
        self.status = "error"
        self.error = (
            type(error).__name__ if isinstance(error, BaseException) else str(error)
        )

    def finish(self) -> None:
        """Close the span (idempotent) and hand it to the tracer's ring."""
        if self.end is None:
            self.tracer._finish(self)

    # -- introspection ------------------------------------------------------

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def is_open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else self.tracer.sim.now
        return end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.is_open else f"{self.duration:.6f}s"
        return f"<Span {self.name} trace={self.trace_id} [{state}]>"


class Tracer:
    """Creates, links and retains spans for one simulation.

    :param capacity: maximum finished spans retained (ring buffer; the
        oldest are dropped and counted in :attr:`dropped`).
    """

    def __init__(self, sim: "Simulator", capacity: int = 65536) -> None:
        self.sim = sim
        self.enabled = True
        self.spans: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: spans started but not yet finished, by (trace_id, span_id).
        self._open: dict[tuple[str, str], Span] = {}

    # -- current-context management (process-local) --------------------------

    @property
    def current(self) -> Optional[TraceContext]:
        """The active context: process-local when a process is running,
        otherwise the simulator's ambient slot (driver code, tests)."""
        process = self.sim.current_process
        if process is not None:
            return process.trace_context
        return self.sim.ambient_trace_context

    def set_current(self, context: Optional[TraceContext]) -> Optional[TraceContext]:
        """Install ``context`` as current; returns the previous one."""
        process = self.sim.current_process
        if process is not None:
            previous = process.trace_context
            process.trace_context = context
        else:
            previous = self.sim.ambient_trace_context
            self.sim.ambient_trace_context = context
        return previous

    # -- span lifecycle ---------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Optional[TraceContext] | str = "current",
        host: str = "",
        **attrs: Any,
    ) -> Span:
        """Open a span.  ``parent="current"`` links under the active
        context; ``parent=None`` starts a fresh trace; an explicit
        :class:`TraceContext` links under a remote parent."""
        if parent == "current":
            parent = self.current
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace_id = f"{next(self._trace_ids):012x}"
            parent_id = None
        context = TraceContext(trace_id, f"{next(self._span_ids):08x}")
        process = self.sim.current_process
        span = Span(
            self,
            name,
            context,
            parent_id,
            start=self.sim.now,
            host=host,
            process=process.name if process is not None else "",
            attrs=attrs,
        )
        if self.enabled:
            self._open[(context.trace_id, context.span_id)] = span
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.sim.now
        if not self.enabled:
            return
        self._open.pop((span.trace_id, span.span_id), None)
        if len(self.spans) == self.spans.maxlen:
            self.dropped += 1
        self.spans.append(span)

    def open_span(self, context: Optional[TraceContext]) -> Optional[Span]:
        """The still-open span with ``context``'s ids, if any."""
        if context is None:
            return None
        return self._open.get((context.trace_id, context.span_id))

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[TraceContext] | str = "current",
        host: str = "",
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a span, make it current for the duration, finish on exit.

        An exception escaping the block marks the span as an error before
        re-raising.  Works inside simulation processes (the context rides
        on the process across yields) and in plain driver code.
        """
        span = self.start_span(name, parent=parent, host=host, **attrs)
        previous = self.set_current(span.context)
        try:
            yield span
        except BaseException as exc:
            span.mark_error(exc)
            raise
        finally:
            self.set_current(previous)
            span.finish()

    # -- ring introspection ------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum finished spans the ring retains."""
        return self.spans.maxlen or 0

    @property
    def utilization(self) -> float:
        """Fill fraction of the ring (1.0 = the next span evicts one)."""
        if not self.spans.maxlen:
            return 0.0
        return len(self.spans) / self.spans.maxlen

    # -- queries -----------------------------------------------------------------

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans of one trace, in start order."""
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def trace_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        self.spans.clear()
        self._open.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)
