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
* **across the wire**: a traced :class:`~repro.orb.core.Orb` writes its own
  spans — a ``call:<op>`` span per request sent, whose context it encodes
  into a GIOP service-context entry, and a ``serve:<op>`` span per request
  dispatched, opened under the decoded context and made the dispatch
  activity's own.

Finished spans are packed into a bounded log (:class:`SpanLog`: oldest
dropped, counted) and rendered by :mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import itertools
import marshal
import re
from collections import deque
from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: GIOP service-context id carrying an encoded TraceContext ("TRCX").
TRACE_CONTEXT_SERVICE_ID = 0x54524358

#: The only wire form :meth:`TraceContext.decode` accepts: the tracer's
#: own, two non-empty lower-case hex ids of at most 32 digits.
_WIRE_FORM = re.compile(r"([0-9a-f]{1,32}):([0-9a-f]{1,32})")

#: Finished spans packed into one ``marshal`` segment of a :class:`SpanLog`.
#: A segment writes each string its spans share (span names, hosts, attr
#: keys, the trace id of a client and its server span) once and a
#: back-reference after that: ≈ 112 bytes an ORB span, ≈ 113 at 64 rows,
#: ≈ 183 for a row packed alone (and a ``bytes`` object of its own).
SEGMENT_ROWS = 256

#: The attr value types a segment stores as themselves; ``marshal`` would
#: write any other buffer-protocol object (a NumPy scalar) as ``bytes``.
_PLAIN_ATTR_TYPES = frozenset({str, int, float, bool, type(None)})


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
        """Parse the wire form; None for anything but the tracer's own
        form, so a peer's blob is never kept for the life of the ring."""
        try:
            match = _WIRE_FORM.fullmatch(data.decode("ascii"))
        except UnicodeDecodeError:
            return None
        if match is None:
            return None
        return cls(match[1], match[2])


class Span:
    """One timed operation within a trace.

    A span holds each fact once: its two ids as strings of its own (a
    parent open in the same tracer lends its strings to the child), a
    name and a process name its makers bound once, and the attrs dict
    :meth:`Tracer.start_span` handed it.  It keeps no
    :class:`TraceContext`; one is built only where a context is
    propagated.  Once it finishes, the tracer's :class:`SpanLog` keeps its
    fields as a row (the attrs dict itself until the row is packed), and
    the span object is free to go.
    """

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
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
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        host: str = "",
        process: str = "",
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.host = host
        self.process = process
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}

    #: the wire form of this span's context, written from its ids
    encode_context = TraceContext.encode

    # -- mutation ----------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> None:
        if self.end is not None:
            # The log may still hold this dict in its unpacked tail; a
            # late attr goes to a copy, so the log keeps what finished.
            self.attrs = dict(self.attrs)
        self.attrs[key] = value

    def mark_error(self, error: BaseException | str) -> None:
        self.status = "error"
        self.error = (
            type(error).__name__ if isinstance(error, BaseException) else str(error)
        )

    def finish(self) -> None:
        """Close the span (idempotent) and hand it to the tracer's log."""
        if self.end is None:
            self.tracer._finish(self)

    # -- introspection ------------------------------------------------------

    @property
    def context(self) -> TraceContext:
        """This span's ids as a context to propagate, built on each use."""
        return TraceContext(self.trace_id, self.span_id)

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


class SpanLog:
    """The finished spans of one :class:`Tracer`, oldest first: a read-only
    ring with the semantics of ``deque(maxlen=maxlen)``.

    A finished span is kept as a row, the tuple of its fields, and no
    :class:`Span` object.  :meth:`Tracer._finish` appends rows to a short
    tail (in line: it runs twice a call); every :data:`SEGMENT_ROWS` rows
    are packed into one ``bytes`` segment by ``marshal``, which writes a
    float as its eight raw bytes and each shared string once.  A full log
    drops its oldest row; dropped rows are the first ``_skip`` rows of the
    oldest segment, which goes when all of its rows have.  Reading decodes
    each segment once and yields new spans equal, field for field and bit
    for bit, to the spans that finished.
    """

    def __init__(self, tracer: "Tracer", maxlen: int) -> None:
        self.maxlen = maxlen
        self._tracer = tracer
        self._segments: deque[bytes] = deque()
        #: rows of the oldest segment already dropped
        self._skip = 0
        self._tail: list[tuple] = []
        #: rows the tail takes before it is packed
        self._room = SEGMENT_ROWS
        #: rows held, dropped ones not counted
        self._kept = 0

    def __len__(self) -> int:
        return self._kept

    def __iter__(self) -> Iterator[Span]:
        # What the log holds when reading starts: spans that finish while
        # a reader is paused are not seen.
        revive = self._revive
        skip = self._skip
        tail = self._tail[:]
        for segment in tuple(self._segments):
            rows = marshal.loads(segment)
            del rows[:skip]
            skip = 0
            for row in rows:
                yield revive(row)
        for row in tail:
            yield revive(row)

    def __reversed__(self) -> Iterator[Span]:
        revive = self._revive
        segments = tuple(self._segments)
        skip = self._skip
        for row in reversed(self._tail[:]):
            yield revive(row)
        for index in range(len(segments) - 1, -1, -1):
            rows = marshal.loads(segments[index])
            if index == 0:
                del rows[:skip]
            for row in reversed(rows):
                yield revive(row)

    def _revive(self, row: tuple) -> Span:
        (name, trace_id, span_id, parent_id, start, end,
         host, process, status, error, attrs) = row
        # A copy: a tail row still holds the finished span's own dict,
        # and a reader's edits must not reach the log.
        span = Span(
            self._tracer, name, trace_id, span_id, parent_id, start,
            host, process, dict(attrs),
        )
        span.end = end
        span.status = status
        span.error = error
        return span

    def _pack(self) -> None:
        """Pack the full tail into one segment.  A row with an attr value
        a segment would not store as itself is refused: it leaves the log,
        counts as dropped, and a ``TypeError`` names it."""
        tail = self._tail
        values = itertools.chain.from_iterable(
            map(dict.values, map(itemgetter(-1), tail))
        )
        if not _PLAIN_ATTR_TYPES.issuperset(map(type, values)):
            kept: list[tuple] = []
            refused: list[tuple] = []
            for row in tail:
                plain = _PLAIN_ATTR_TYPES.issuperset(map(type, row[-1].values()))
                (kept if plain else refused).append(row)
            self._tail = kept
            self._room = SEGMENT_ROWS - len(kept)
            self._kept -= len(refused)
            self._tracer.dropped += len(refused)
            name, trace_id, span_id = refused[0][:3]
            key, value = next(
                (key, value) for key, value in refused[0][-1].items()
                if type(value) not in _PLAIN_ATTR_TYPES
            )
            raise TypeError(
                f"span {name!r} ({trace_id}:{span_id}) attr {key!r} "
                f"holds a {type(value).__qualname__}; a span attr is a str, "
                "int, float, bool or None"
            )
        self._segments.append(marshal.dumps(tail))
        self._tail = []
        self._room = SEGMENT_ROWS


class Tracer:
    """Creates, links and retains spans for one simulation.

    :param capacity: maximum finished spans retained in :attr:`spans`
        (a ring; the oldest are dropped and counted in :attr:`dropped`).
    """

    def __init__(self, sim: "Simulator", capacity: int = 65536) -> None:
        self.sim = sim
        self.enabled = True
        self.spans = SpanLog(self, capacity)
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
        if type(parent) is str:  # "current"
            parent = self.current
        elif parent is not None:
            # A remote parent still open here (the client span of a call
            # inside this simulation) lends its own id strings, so the
            # child keeps no decoded copies.
            parent = self._open.get((parent.trace_id, parent.span_id), parent)
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            trace_id = f"{next(self._trace_ids):012x}"
            parent_id = None
        span_id = f"{next(self._span_ids):08x}"
        process = self.sim.current_process
        span = Span(
            self,
            name,
            trace_id,
            span_id,
            parent_id,
            self.sim.now,
            host,
            process.name if process is not None else "",
            attrs,
        )
        if self.enabled:
            self._open[(trace_id, span_id)] = span
        return span

    def _finish(self, span: Span) -> None:
        span.end = end = self.sim.now
        if not self.enabled:
            return
        self._open.pop((span.trace_id, span.span_id), None)
        log = self.spans
        if log._kept == log.maxlen:
            # A full log drops its oldest row, as a deque(maxlen) would.
            self.dropped += 1
            if log._segments:
                log._skip += 1
                if log._skip == SEGMENT_ROWS:
                    log._segments.popleft()
                    log._skip = 0
            elif log._tail:
                del log._tail[0]
                log._room += 1
            else:  # a log of capacity 0 keeps nothing
                return
        else:
            log._kept += 1
        log._tail.append((
            span.name, span.trace_id, span.span_id, span.parent_id,
            span.start, end, span.host, span.process, span.status,
            span.error, span.attrs,
        ))
        log._room -= 1
        if not log._room:
            log._pack()

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

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)
