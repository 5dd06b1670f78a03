"""Request interceptors (CORBA Portable-Interceptor style).

Interceptors observe the invocation path without touching application
code: client-side hooks fire around each outgoing request, server-side
hooks around each dispatched request.  The fault-tolerance and load
experiments use them for instrumentation; they are also the natural hook
for the "ORB-level" load-distribution designs §2 discusses (and rejects
for portability) — implementable here without modifying the ORB core.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.ior import IOR


class RequestInfo:
    """What an interceptor sees about one request."""

    __slots__ = (
        "operation",
        "request_id",
        "target",
        "object_key",
        "exception",
        "body_size",
        "response_expected",
        "service_contexts",
        "attrs",
    )

    def __init__(
        self,
        operation: str,
        request_id: int,
        target: Optional["IOR"] = None,
        object_key: Optional[bytes] = None,
        exception: Optional[BaseException] = None,
        body_size: int = 0,
        response_expected: bool = True,
        service_contexts: Optional[list] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self.operation = operation
        self.request_id = request_id
        #: client side: the target IOR; server side: the object key.
        self.target = target
        self.object_key = object_key
        #: set for receive_exception.
        self.exception = exception
        #: wire size of the request body in bytes.
        self.body_size = body_size
        #: whether the client awaits a reply (False for oneway calls).
        self.response_expected = response_expected
        #: GIOP service contexts as ``(context_id, data)`` pairs.  In
        #: ``send_request`` the list is writable: entries appended by an
        #: interceptor are marshalled into the outgoing request (this is how
        #: the observability layer propagates its trace context); in
        #: ``receive_request`` it holds the contexts decoded off the wire.
        self.service_contexts: list = (
            [] if service_contexts is None else service_contexts
        )
        #: ORB-attached attribution tags (e.g. the CDR marshal/unmarshal work
        #: charged around this hook); the observability interceptor copies
        #: them onto its spans so the critical-path analyzer can split
        #: marshalling out of transport and servant time.
        self.attrs: dict = {} if attrs is None else attrs


class RequestInterceptor:
    """Base class; override any subset of the hooks."""

    # -- client side ------------------------------------------------------

    def send_request(self, info: RequestInfo) -> None:
        """Before the request datagram leaves the client."""

    def receive_reply(self, info: RequestInfo) -> None:
        """After a successful reply was unmarshalled."""

    def receive_exception(self, info: RequestInfo) -> None:
        """After the invocation failed (system or user exception)."""

    # -- server side ---------------------------------------------------------

    def receive_request(self, info: RequestInfo) -> None:
        """After the server demarshalled an incoming request."""

    def send_reply(self, info: RequestInfo) -> None:
        """Before the reply datagram leaves the server."""

    def abort_reply(self, info: RequestInfo) -> None:
        """After a dispatch that passed ``receive_request`` ended without
        a reply: its host crashed, the client cancelled it, or it raised
        past the reply mapping.  ``info.exception`` says which."""
