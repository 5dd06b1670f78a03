"""The ORB-side face of the observability layer.

One :class:`ObservabilityInterceptor` per ORB does three jobs through the
portable-interceptor hooks, without touching application code:

* **client side** — opens a ``call:<op>`` span per outgoing request
  (parented under the invoking process's current context) and injects the
  span's :class:`~repro.obs.trace.TraceContext` into the request's GIOP
  service-context list;
* **server side** — extracts the propagated context from the incoming
  request, opens a ``serve:<op>`` span under it and installs it as the
  dispatch's current context, so servant-issued nested calls (the naming
  service walking a federation, a factory creating an object) stay
  causally linked; the span ends at the reply, or with an error when the
  dispatch dies without one;
* **metrics** — per-operation counters of the requests sent and served,
  in the simulation's metrics registry.  Each is looked up once, at the
  operation's first request through this ORB, and kept: a warm call
  increments two counters it already holds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.trace import TRACE_CONTEXT_SERVICE_ID, TraceContext
from repro.orb.interceptors import RequestInfo, RequestInterceptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Counter
    from repro.obs.trace import Span
    from repro.orb.core import Orb


class ObservabilityInterceptor(RequestInterceptor):
    """Traces and meters every request through one ORB."""

    def __init__(self, orb: "Orb") -> None:
        self._orb = orb
        self._obs = orb.sim.obs
        #: open client-side spans by request id (ids are unique per ORB).
        self._client_spans: dict[int, "Span"] = {}
        #: per operation, bound at its first request: the sent and served
        #: counters.
        self._sent: dict[str, "Counter"] = {}
        self._served: dict[str, "Counter"] = {}

    # -- client side ------------------------------------------------------------

    def send_request(self, info: RequestInfo) -> None:
        tracer = self._obs.tracer
        span = tracer.start_span(
            f"call:{info.operation}",
            host=self._orb.host.name,
            kind="client",
            request_id=info.request_id,
            target=info.target.host if info.target is not None else "",
        )
        span.attrs.update(info.attrs)
        info.service_contexts.append(
            (TRACE_CONTEXT_SERVICE_ID, span.context.encode())
        )
        sent = self._sent.get(info.operation)
        if sent is None:
            sent = self._sent[info.operation] = self._obs.metrics.counter(
                "orb_requests_sent_total",
                host=self._orb.host.name,
                operation=info.operation,
            )
        sent.inc()
        if not info.response_expected:
            span.set_attr("oneway", True)
            span.finish()
            return
        self._client_spans[info.request_id] = span

    def receive_reply(self, info: RequestInfo) -> None:
        span = self._client_spans.pop(info.request_id, None)
        if span is not None:
            span.attrs.update(info.attrs)
            span.finish()

    def receive_exception(self, info: RequestInfo) -> None:
        span = self._client_spans.pop(info.request_id, None)
        if span is not None:
            if info.exception is not None:
                span.mark_error(info.exception)
            span.finish()

    # -- server side ---------------------------------------------------------------

    def receive_request(self, info: RequestInfo) -> None:
        tracer = self._obs.tracer
        parent = None
        for context_id, data in info.service_contexts:
            if context_id == TRACE_CONTEXT_SERVICE_ID:
                parent = TraceContext.decode(bytes(data))
                break
        span = tracer.start_span(
            f"serve:{info.operation}",
            parent=parent,
            host=self._orb.host.name,
            kind="server",
        )
        # Make the dispatch causally visible to nested servant calls: the
        # hook runs inside the ORB's per-request dispatch.
        tracer.set_current(span.context)
        served = self._served.get(info.operation)
        if served is None:
            served = self._served[info.operation] = self._obs.metrics.counter(
                "orb_requests_served_total",
                host=self._orb.host.name,
                operation=info.operation,
            )
        served.inc()

    def send_reply(self, info: RequestInfo) -> None:
        tracer = self._obs.tracer
        span = tracer.open_span(tracer.current)
        if span is not None and span.name == f"serve:{info.operation}":
            span.set_attr("reply_bytes", info.body_size)
            span.attrs.update(info.attrs)
            span.finish()
            tracer.set_current(None)

    def abort_reply(self, info: RequestInfo) -> None:
        tracer = self._obs.tracer
        span = tracer.open_span(tracer.current)
        if span is not None and span.name == f"serve:{info.operation}":
            span.mark_error(info.exception or "aborted")
            span.finish()
            tracer.set_current(None)
