"""ORB core: object adapter, request dispatch and static invocation.

One :class:`Orb` instance models one CORBA server/client process resident
on a host.  It owns a listening endpoint on the simulated network, a
:class:`POA` holding activated servants, and the client-side table of
pending calls.

Every invocation is one :class:`~repro.sim.process.Activity`, ``_Call``,
which is also the future its caller waits on; every incoming request is
another, ``_Serve``.  Both are host-bound, so marshalling and dispatch
consume the host's CPU (and die with it on a crash), and both resume in
the kernel event that unblocks them — a CPU charge completing, a datagram
arriving — without a process switch.  The network hands each datagram
straight to the ORB's endpoint handler.  Servant methods may be plain
Python (instantaneous) or generators that yield simulation futures —
typically ``self._host().execute(work)`` for real compute, which is how
the optimization workers burn simulated CPU time; such a servant runs as a
process started inside the upcall, its first step in the upcall's event.

Failure semantics (the part the paper's fault tolerance builds on):

* request datagram dropped (host down / server process gone / partition at
  delivery) → synthesized reset → ``COMM_FAILURE`` (COMPLETED_NO);
* server host crashes while processing → crash notification after one
  network latency → ``COMM_FAILURE`` (COMPLETED_MAYBE);
* servant deactivated or IOR from a previous server incarnation →
  ``OBJECT_NOT_EXIST``.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import (
    BAD_OPERATION,
    CdrError,
    COMM_FAILURE,
    CompletionStatus,
    INV_OBJREF,
    MARSHAL,
    NO_IMPLEMENT,
    OBJECT_NOT_EXIST,
    OBJ_ADAPTER,
    ProcessKilled,
    SimulationError,
    SystemException,
    TIMEOUT,
    TRANSIENT,
    UNKNOWN,
    UserException,
)
from repro.orb import giop
from repro.orb.cdr import CdrInputStream, CdrOutputStream
from repro.orb.forwarding import LocationForward as _LocationForward, MAX_FORWARDS
from repro.orb.interceptors import RequestInfo
from repro.orb.ior import IOR
from repro.orb.stubs import ObjectStub, OpInfo, USER_EXCEPTION_REGISTRY
from repro.orb.transport import ConnectionCache, install_reset_synthesis
from repro.sim.events import _FAILED, _PENDING, SimFuture
from repro.sim.process import Activity, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.network import Network
    from repro.obs.metrics import Counter, Histogram


#: CPU work (seconds on a speed-1 host) per marshal/unmarshal step.
MARSHAL_FIXED_WORK = 50e-6
#: additional CPU work per payload byte.
MARSHAL_PER_BYTE_WORK = 5e-9
#: server-side fixed dispatch work per request (demux, POA lookup).
DISPATCH_FIXED_WORK = 100e-6
#: timeout for LocateRequest pings and connection handshakes (these must
#: always terminate).
LOCATE_TIMEOUT = 0.05


@dataclass
class OrbConfig:
    """Policy switches of one ORB instance."""

    #: optional round-trip timeout for invocations (None = wait forever,
    #: matching the era's default ORB behaviour).
    request_timeout: Optional[float] = None
    #: round trips paid to set up a connection before a request may travel
    #: (ConnectMessage/Ack exchanges).  0 = connectionless datagrams, the
    #: baseline model — and the default, so existing runs are unchanged.
    connection_handshake_rtts: int = 0
    #: cache established connections per (host, port, incarnation) and
    #: reuse them across requests instead of paying the handshake each
    #: time; off = every request pays ``connection_handshake_rtts``.
    connection_reuse: bool = False


class Servant:
    """Base class of all IDL skeletons (server-side implementations)."""

    __repo_id__ = "IDL:omg.org/CORBA/Object:1.0"
    __operations__: dict[str, OpInfo] = {}

    _poa: Optional["POA"] = None
    _object_key: Optional[bytes] = None

    def _this(self) -> IOR:
        """The IOR of this activated servant (CORBA's ``_this()``)."""
        if self._poa is None or self._object_key is None:
            raise OBJ_ADAPTER(f"servant {type(self).__name__} is not activated")
        return self._poa.ior_for_key(self._object_key, self.__repo_id__)

    def _host(self) -> "Host":
        """The host this servant runs on (for yielding CPU work)."""
        if self._poa is None:
            raise OBJ_ADAPTER(f"servant {type(self).__name__} is not activated")
        return self._poa.orb.host


class POA:
    """Portable-Object-Adapter subset: an object-key → servant map."""

    def __init__(self, orb: "Orb") -> None:
        self.orb = orb
        self._servants: dict[bytes, Servant] = {}
        self._counter = itertools.count()

    def activate(self, servant: Servant, key: Optional[bytes] = None) -> IOR:
        """Activate ``servant`` and return its IOR."""
        if servant._object_key is not None and servant._poa is self:
            raise OBJ_ADAPTER("servant is already activated")
        if key is None:
            key = f"{type(servant).__name__}:{next(self._counter):06d}".encode()
        if key in self._servants:
            raise OBJ_ADAPTER(f"object key {key!r} already in use")
        self._servants[key] = servant
        servant._poa = self
        servant._object_key = key
        return self.ior_for_key(key, servant.__repo_id__)

    def deactivate(self, servant_or_key: Servant | bytes) -> None:
        key = (
            servant_or_key
            if isinstance(servant_or_key, bytes)
            else servant_or_key._object_key
        )
        if key is None or key not in self._servants:
            raise OBJ_ADAPTER(f"no active object with key {key!r}")
        servant = self._servants.pop(key)
        servant._poa = None
        servant._object_key = None

    def lookup(self, key: bytes) -> Optional[Servant]:
        return self._servants.get(key)

    def ior_for_key(self, key: bytes, type_id: str) -> IOR:
        return IOR(
            type_id=type_id,
            host=self.orb.host.name,
            port=self.orb.port,
            object_key=key,
            incarnation=self.orb.orb_id,
        )

    def __len__(self) -> int:
        return len(self._servants)


class _Pending(SimFuture):
    """The future of one outstanding request — a call's reply, a locate's
    status or a handshake's ack — and the host it went to."""

    __slots__ = ("target_host", "kind")

    def __init__(self, sim, label: str, target_host: str, kind: str) -> None:
        super().__init__(sim, label)
        self.target_host = target_host
        self.kind = kind  # "call", "locate" or "connect"


class _Endpoint:
    """An ORB's listening endpoint: delivery hands each datagram straight
    to ``put``, the ORB's handler (see :meth:`Network.listen
    <repro.cluster.network.Network.listen>`)."""

    __slots__ = ("put", "closed")

    def __init__(self, handler) -> None:
        self.put = handler
        self.closed = False

    def close(self) -> None:
        self.closed = True


class CallStats:
    """Aggregated client-side statistics of one operation of one ORB, and
    the two instruments its calls feed: the call-latency histogram, bound
    at the first recorded call, and the failures counter, bound at the
    first failure."""

    __slots__ = (
        "operation",
        "calls",
        "failures",
        "total_latency",
        "max_latency",
        "_orb",
        "_latency_seconds",
        "_failures_total",
    )

    def __init__(self, operation: str, orb: "Orb") -> None:
        self.operation = operation
        self.calls = 0
        self.failures = 0
        self.total_latency = 0.0
        self.max_latency = 0.0
        self._orb = orb
        self._latency_seconds: Optional[Histogram] = None
        self._failures_total: Optional[Counter] = None

    def record(self, latency: float, failed: bool) -> None:
        self.calls += 1
        if failed:
            self.failures += 1
        self.total_latency += latency
        self.max_latency = max(self.max_latency, latency)
        histogram = self._latency_seconds
        if histogram is None:
            histogram = self._latency_seconds = self._orb.sim.obs.metrics.histogram(
                "orb_call_latency_seconds",
                operation=self.operation,
                host=self._orb.host.name,
            )
        histogram.observe(latency)
        if failed:
            counter = self._failures_total
            if counter is None:
                counter = self._failures_total = self._orb.sim.obs.metrics.counter(
                    "orb_call_failures_total",
                    operation=self.operation,
                    host=self._orb.host.name,
                )
            counter.inc()

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.calls if self.calls else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CallStats {self.operation}: n={self.calls} "
            f"fail={self.failures} mean={self.mean_latency:.6f}s>"
        )


class Orb:
    """One ORB instance (client and/or server role) on a host."""

    def __init__(
        self,
        host: "Host",
        network: "Network",
        port: Optional[int] = None,
        config: Optional[OrbConfig] = None,
        name: str = "",
    ) -> None:
        self.host = host
        self.network = network
        self.config = config or OrbConfig()
        self.sim = host.sim
        self.name = name or f"orb@{host.name}"
        install_reset_synthesis(network)
        counter = getattr(network, "_orb_id_counter", None)
        if counter is None:
            counter = itertools.count(1)
            network._orb_id_counter = counter  # type: ignore[attr-defined]
        self.orb_id = next(counter)
        self.port = port if port is not None else network.ephemeral_port(host.name)
        network.listen(host, self.port, _Endpoint(self._on_datagram))
        self.poa = POA(self)
        self._pending: dict[int, _Pending] = {}
        self._request_ids = itertools.count(1)
        self._watched_hosts: set[str] = set()
        self._shut_down = False
        host.on_crash(lambda _h: self._fail_local_pending())
        #: counters for reports
        self.requests_sent = 0
        self.requests_served = 0
        #: per-operation client-side statistics (the instrumentation an
        #: ORB's interceptors would provide): operation -> CallStats.
        self.call_stats: dict[str, CallStats] = {}
        #: per-operation server-side dispatch-time histograms, each bound
        #: at the operation's first reply.
        self._dispatch_seconds: dict[str, Histogram] = {}
        #: portable-interceptor-style request interceptors.
        self.interceptors: list = []
        #: in-flight server dispatches by (client host, client port,
        #: request id), so CancelRequest can abort them.
        self._inflight_serves: dict[tuple[str, int, int], "_Serve"] = {}
        self.requests_cancelled = 0
        #: client-side connection cache (None unless reuse is enabled).
        self.connections: Optional[ConnectionCache] = (
            ConnectionCache(self.sim) if self.config.connection_reuse else None
        )
        #: ConnectMessage/Ack exchanges this ORB initiated.
        self.handshakes_sent = 0
        #: service contexts of the request currently being dispatched —
        #: valid only during the synchronous prefix of a servant method
        #: call (set immediately before the method is invoked, consumed
        #: before its first yield).
        self.current_service_contexts: tuple = ()
        #: the body of the request being dispatched, during the synchronous
        #: prefix of its upcall only (None otherwise): a servant that must
        #: know the encoding of an argument it was handed can hash this
        #: instead of marshalling the argument again
        self.current_request_body: Optional[bytes] = None

    def add_request_interceptor(self, interceptor) -> None:
        """Register a :class:`repro.orb.interceptors.RequestInterceptor`."""
        self.interceptors.append(interceptor)

    def _intercept(self, hook: str, info) -> None:
        for interceptor in self.interceptors:
            getattr(interceptor, hook)(info)

    # -- lifecycle --------------------------------------------------------------

    @property
    def running(self) -> bool:
        return not self._shut_down and self.host.up

    def shutdown(self) -> None:
        """Stop this server process: unbind the port, fail its own calls.

        Clients with outstanding calls receive resets (their requests now
        drop) — modelling "a crashed server process" distinct from a whole
        host crash, one of the error cases §3 lists.  Dispatches already
        under way run to their end.
        """
        if self._shut_down:
            return
        self._shut_down = True
        if self.network.is_bound(self.host.name, self.port):
            self.network.unbind(self.host.name, self.port)
        self._fail_local_pending()
        if self.connections is not None:
            self.connections.clear()

    def _fail_local_pending(self) -> None:
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            entry.try_fail(
                COMM_FAILURE(
                    f"ORB {self.name} shut down with call in flight",
                    completed=CompletionStatus.COMPLETED_MAYBE,
                )
            )

    # -- object references ---------------------------------------------------------

    def stub(self, ior: IOR, stub_class: type = ObjectStub) -> Any:
        """Narrow an IOR to a typed stub instance.

        Narrowing to the reference's own interface or any registered base
        interface succeeds; a known-incompatible narrow raises
        ``INV_OBJREF``; unknown interfaces narrow optimistically.
        """
        from repro.orb.stubs import can_narrow

        expected = getattr(stub_class, "__repo_id__", ObjectStub.__repo_id__)
        if not can_narrow(ior.type_id, expected):
            raise INV_OBJREF(
                f"cannot narrow {ior.type_id} reference to {expected}"
            )
        return stub_class(self, ior)

    # -- client side -------------------------------------------------------------

    def invoke(
        self,
        ior: IOR,
        info: OpInfo,
        args: tuple,
        reference=None,
        service_contexts: tuple = (),
    ) -> SimFuture:
        """Invoke ``info`` on the object ``ior``; returns the call, the
        future of its result.

        ``reference`` is the client-side object reference (stub/proxy), if
        any — it carries the per-reference LOCATION_FORWARD cache.
        ``service_contexts`` are extra GIOP service contexts shipped with
        the request (beyond those interceptors attach) — the replication
        layer uses them to carry logical request ids for duplicate
        suppression.
        """
        if len(args) != len(info.params):
            raise MARSHAL(
                f"{info.name} expects {len(info.params)} arguments, got {len(args)}"
            )
        return _Call(self, ior, info, args, reference, service_contexts)

    def locate(self, ior: IOR) -> SimFuture:
        """LocateRequest ping; resolves to True when the object is
        reachable and active, False otherwise. Never fails."""
        outer = self.sim.future(label=f"locate@{ior.host}")
        process = self.host.spawn(self._locate_proc(ior, outer), name="locate")
        process.add_done_callback(
            lambda p: outer.try_succeed(False) if p.failed else None
        )
        return outer

    def _encode_args(self, info: OpInfo, args: tuple) -> bytes:
        stream = CdrOutputStream()
        for (param_name, tc), value in zip(info.params, args):
            try:
                stream.write_value(tc, value)
            except CdrError as exc:
                raise MARSHAL(
                    f"{info.name}: cannot marshal parameter {param_name!r}: {exc}"
                ) from exc
        return stream.getvalue()

    def _decode_args(self, info: OpInfo, body: bytes) -> list:
        stream = CdrInputStream(body)
        return [stream.read_value(tc) for _, tc in info.params]

    def _intercept_outcome(
        self,
        operation: str,
        request_id: int,
        exception: Optional[BaseException],
        attrs: Optional[dict] = None,
    ) -> None:
        if not self.interceptors:
            return
        info = RequestInfo(
            operation=operation,
            request_id=request_id,
            exception=exception,
            attrs=attrs or {},
        )
        self._intercept(
            "receive_reply" if exception is None else "receive_exception", info
        )

    # -- connection setup --------------------------------------------------------

    def _ensure_connection(self, target: IOR):
        """Have a usable connection to ``target`` before the request travels.

        With reuse off every request pays the full handshake.  With reuse
        on, an established cached connection is free (no yields at all on
        this path), and a handshake already in flight to the same endpoint
        is *joined* — the request pipelines behind the opener instead of
        opening a second connection.  Raises ``COMM_FAILURE``
        (COMPLETED_NO) if the connection cannot be set up.
        """
        cache = self.connections
        if cache is None:
            yield from self._handshake(target)
            return
        key = (target.host, target.port, target.incarnation)
        entry = cache.lookup(key)
        if entry is not None:
            if entry.established.is_pending:
                cache.bump("handshake_joins")
                outcome = yield entry.established
                if isinstance(outcome, SystemException):
                    raise outcome
                return
            if not isinstance(entry.established.value, SystemException):
                cache.bump("hits")
                return
            # A failed entry the opener has not discarded yet: re-open.
            cache.discard(key, entry)
        # analysis: atomic-begin(connect-miss-to-open)
        # No yield between deciding "miss" and registering the in-flight
        # entry: a second caller slipping in here would open a duplicate
        # handshake instead of joining this one.
        cache.bump("misses")
        entry = cache.begin(
            key,
            target.host,
            self.sim.future(label=f"conn:{target.host}:{target.port}"),
        )
        # analysis: atomic-end(connect-miss-to-open)
        try:
            yield from self._handshake(target)
        except SystemException as exc:
            cache.discard(key, entry)
            cache.bump("failures")
            # Resolve with the exception as a *value* so joiners (and the
            # kernel) see a clean resolution; they re-raise it themselves.
            entry.established.try_succeed(exc)
            raise
        cache.bump("opens")
        entry.established.try_succeed(None)

    def _handshake(self, target: IOR):
        """Pay the connection-setup cost: one ConnectMessage/Ack exchange
        per configured round trip, each bounded by ``LOCATE_TIMEOUT``."""
        for _ in range(self.config.connection_handshake_rtts):
            request_id = next(self._request_ids)
            raw = giop.encode_message(
                giop.ConnectMessage(request_id, self.host.name, self.port)
            )
            inner = _Pending(self.sim, f"connect:{request_id}", target.host, "connect")
            self._pending[request_id] = inner
            self._watch_host(target.host)
            self.handshakes_sent += 1
            self.network.send(
                self.host, self.port, target.host, target.port, raw, len(raw)
            )
            winner = yield self.sim.any_of(
                [inner, self.sim.timeout(LOCATE_TIMEOUT)]
            )
            if winner[0] == 1:
                self._pending.pop(request_id, None)
                raise COMM_FAILURE(
                    f"connection setup to {target.host}:{target.port} "
                    "timed out",
                    completed=CompletionStatus.COMPLETED_NO,
                )
            # Reset/crash resolves the connect future with the exception
            # as a value (see _on_datagram) so the failure is prompt.
            if isinstance(winner[1], SystemException):
                raise winner[1]

    def _locate_proc(self, ior: IOR, outer: SimFuture):
        request_id = next(self._request_ids)
        message = giop.LocateRequestMessage(
            request_id=request_id,
            object_key=ior.object_key,
            target_incarnation=ior.incarnation,
            reply_host=self.host.name,
            reply_port=self.port,
        )
        raw = giop.encode_message(message)
        inner = _Pending(self.sim, f"locate:{request_id}", ior.host, "locate")
        self._pending[request_id] = inner
        try:
            self.network.send(self.host, self.port, ior.host, ior.port, raw, len(raw))
        except SimulationError:
            # own host crashed mid-probe or the peer name is unknown:
            # treat as "object is not there" rather than a client error.
            self._pending.pop(request_id, None)
            outer.try_succeed(False)
            return
        winner = yield self.sim.any_of(
            [inner, self.sim.timeout(LOCATE_TIMEOUT)]
        )
        if winner[0] == 1:
            self._pending.pop(request_id, None)
            outer.try_succeed(False)
            return
        outer.try_succeed(winner[1] is giop.LocateStatus.OBJECT_HERE)

    def _watch_host(self, host_name: str) -> None:
        if host_name in self._watched_hosts:
            return
        self._watched_hosts.add(host_name)
        target = self.network.host(host_name)

        def on_crash(_host) -> None:
            # Peer-death notification reaches us after one network latency.
            self.sim.schedule(
                self.network.latency, lambda: self._fail_pending_to(host_name)
            )

        target.on_crash(on_crash)

    def _fail_pending_to(self, host_name: str) -> None:
        if self.connections is not None:
            self.connections.invalidate_host(host_name)
        for request_id in [
            rid for rid, p in self._pending.items() if p.target_host == host_name
        ]:
            entry = self._pending.pop(request_id)
            if entry.kind == "locate":
                entry.try_succeed(giop.LocateStatus.UNKNOWN_OBJECT)
            elif entry.kind == "connect":
                entry.try_succeed(
                    COMM_FAILURE(
                        f"host {host_name} crashed during connection setup",
                        completed=CompletionStatus.COMPLETED_NO,
                    )
                )
            else:
                entry.try_fail(
                    COMM_FAILURE(
                        f"host {host_name} crashed during call",
                        completed=CompletionStatus.COMPLETED_MAYBE,
                    )
                )

    # -- server side ----------------------------------------------------------------

    def _on_datagram(self, datagram) -> None:
        """The endpoint's handler: every datagram to this ORB's port, in
        its delivery event.  A datagram no decoder accepts is dropped."""
        try:
            message = giop.decode_message(bytes(datagram.payload))
        except MARSHAL:
            return
        if isinstance(message, giop.RequestMessage):
            _Serve(self, message, len(datagram.payload))
        elif isinstance(message, giop.ReplyMessage):
            entry = self._pending.pop(message.request_id, None)
            if entry is not None:
                entry.try_succeed(message)
        elif isinstance(message, giop.CancelRequestMessage):
            key = (
                datagram.src_host,
                datagram.src_port,
                message.request_id,
            )
            serve = self._inflight_serves.pop(key, None)
            if serve is not None and serve.is_pending:
                self.requests_cancelled += 1
                serve.kill()
        elif isinstance(message, giop.ResetMessage):
            entry = self._pending.pop(message.request_id, None)
            if entry is not None:
                if self.connections is not None:
                    # A reset proves the endpoint is gone: any cached
                    # connection to that host is dead too.
                    self.connections.invalidate_host(entry.target_host)
                if entry.kind == "locate":
                    entry.try_succeed(giop.LocateStatus.UNKNOWN_OBJECT)
                elif entry.kind == "connect":
                    entry.try_succeed(
                        COMM_FAILURE(
                            f"connection refused: {message.reason}",
                            completed=CompletionStatus.COMPLETED_NO,
                        )
                    )
                else:
                    entry.try_fail(
                        COMM_FAILURE(
                            f"connection reset: {message.reason}",
                            completed=CompletionStatus.COMPLETED_NO,
                        )
                    )
        elif isinstance(message, giop.ConnectMessage):
            # Accepting a connection is pure wire protocol: ack it
            # straight from the handler (no CPU charged), like a
            # kernel-level SYN/ACK.
            ack = giop.encode_message(giop.ConnectAckMessage(message.request_id))
            self._answer_peer(message.reply_host, message.reply_port, ack)
        elif isinstance(message, giop.ConnectAckMessage):
            entry = self._pending.pop(message.request_id, None)
            if entry is not None:
                entry.try_succeed(None)
        elif isinstance(message, giop.LocateRequestMessage):
            self._serve_locate(message)
        elif isinstance(message, giop.LocateReplyMessage):
            entry = self._pending.pop(message.request_id, None)
            if entry is not None:
                entry.try_succeed(message.status)

    def _serve_locate(self, message: giop.LocateRequestMessage) -> None:
        servant = self.poa.lookup(message.object_key)
        here = servant is not None and message.target_incarnation == self.orb_id
        reply = giop.LocateReplyMessage(
            message.request_id,
            giop.LocateStatus.OBJECT_HERE if here else giop.LocateStatus.UNKNOWN_OBJECT,
        )
        self._answer_peer(
            message.reply_host, message.reply_port, giop.encode_message(reply)
        )

    def _answer_peer(self, host: str, port: int, raw: bytes) -> None:
        """Answer a peer straight from the handler.  A forged datagram may
        name a host the network does not know: there is nobody to answer,
        and the handler must not raise into the kernel."""
        try:
            self.network.send(self.host, self.port, host, port, raw, len(raw))
        except SimulationError:
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Orb {self.name} port={self.port} servants={len(self.poa)}>"


class _Call(Activity):
    """One invocation, and the future its caller waits on.

    Steps: the request-marshal charge, started inside :meth:`Orb.invoke`;
    the send (interceptors, GIOP, an unknown host, the handshake, oneway,
    the reply wait or the ``request_timeout`` race with its CancelRequest);
    the unmarshal charge; delivery.  A LOCATION_FORWARD, or a cached
    forward whose target is dead, sends again — at most ``MAX_FORWARDS``
    sends after the first.
    """

    __slots__ = (
        "orb",
        "ior",
        "info",
        "reference",
        "extra_contexts",
        "stats",
        "started",
        "body",
        "request_work",
        "target",
        "using_cached",
        "sends",
        "request_id",
        "raw",
        "outcome_due",
        "reply",
        "reply_work",
    )

    def __init__(
        self,
        orb: Orb,
        ior: IOR,
        info: OpInfo,
        args: tuple,
        reference: Any,
        extra_contexts: tuple,
    ) -> None:
        super().__init__(orb.host, f"call:{info.name}", f"call:{info.name}@{ior.host}")
        self.orb = orb
        self.ior = ior
        self.info = info
        self.reference = reference
        self.extra_contexts = extra_contexts
        self.started = orb.sim.now
        stats = orb.call_stats.get(info.name)
        if stats is None:
            stats = orb.call_stats[info.name] = CallStats(info.name, orb)
        self.stats = stats
        self.target: Optional[IOR] = None
        self.sends = 0
        #: the current send's GIOP request id (ids start at 1)
        self.request_id = 0
        #: an interceptor saw this request go and has not seen its outcome
        self.outcome_due = False
        # The outcome is recorded before anyone waiting on the call hears it.
        self._callbacks = [self._record]
        self._next = self._marshal
        self._step(args)

    def _record(self, _call: SimFuture) -> None:
        # Whoever holds the call's future after it resolved (a DII request,
        # a vote round) holds the call: let its payloads go now.
        self.body = self.raw = self.reply = None
        self.stats.record(self.orb.sim.now - self.started, self._state is _FAILED)

    # -- steps ------------------------------------------------------------------

    def _marshal(self, args: tuple) -> None:
        orb = self.orb
        self.body = body = orb._encode_args(self.info, args)
        work = MARSHAL_FIXED_WORK + MARSHAL_PER_BYTE_WORK * len(body)
        self.request_work = work
        self._wait(orb.host.execute(work), self._send)

    def _send(self, _charge: Optional[SimFuture] = None) -> None:
        orb = self.orb
        info = self.info
        target = self.target
        if target is None:
            # The first send, once the request is marshalled: to the
            # reference's cached forward if it has one.
            cached = getattr(self.reference, "_forward_target", None)
            self.using_cached = cached is not None
            self.target = target = cached if cached is not None else self.ior
        if self.sends > MAX_FORWARDS:
            self.try_fail(
                TRANSIENT(
                    f"{info.name}: more than {MAX_FORWARDS} chained location "
                    "forwards (forwarding loop?)"
                )
            )
            return
        self.sends += 1
        self.request_id = request_id = next(orb._request_ids)
        body = self.body
        service_contexts: tuple = tuple(self.extra_contexts)
        if orb.interceptors:
            # send_request runs before the message is built so that
            # interceptors can attach service contexts to the wire (e.g.
            # the observability layer's trace context).
            send_info = RequestInfo(
                operation=info.name,
                request_id=request_id,
                target=target,
                body_size=len(body),
                response_expected=not info.oneway,
                attrs={"request_marshal_work": self.request_work},
            )
            orb._intercept("send_request", send_info)
            self.outcome_due = not info.oneway
            service_contexts = service_contexts + tuple(send_info.service_contexts)
        message = giop.RequestMessage(
            request_id=request_id,
            response_expected=not info.oneway,
            object_key=target.object_key,
            operation=info.name,
            target_incarnation=target.incarnation,
            reply_host=orb.host.name,
            reply_port=orb.port,
            body=body,
            service_contexts=service_contexts,
        )
        self.raw = giop.encode_message(message)
        orb.requests_sent += 1

        try:
            orb.network.host(target.host)
        except Exception:
            self.try_fail(INV_OBJREF(f"IOR names unknown host {target.host!r}"))
            return

        if orb.config.connection_handshake_rtts > 0:
            handshake = self._start(
                orb._ensure_connection(target), f"call:{info.name}", self._connected
            )
            if handshake._state is not _PENDING:
                self._connected(handshake)
            return
        self._transmit()

    def _connected(self, handshake: SimFuture) -> None:
        if handshake._state is _FAILED:
            exc = handshake._exception
            assert exc is not None
            self._lost(exc)
            return
        self._transmit()

    def _transmit(self) -> None:
        orb = self.orb
        target = self.target
        raw = self.raw
        if self.info.oneway:
            orb.network.send(
                orb.host, orb.port, target.host, target.port, raw, len(raw)
            )
            self.try_succeed(None)
            return
        request_id = self.request_id
        reply = _Pending(orb.sim, f"reply:{request_id}", target.host, "call")
        orb._pending[request_id] = reply
        orb._watch_host(target.host)
        orb.network.send(orb.host, orb.port, target.host, target.port, raw, len(raw))
        timeout = orb.config.request_timeout
        if timeout is None:
            self._wait(reply, self._replied)
        else:
            sim = orb.sim
            self._wait(sim.any_of([reply, sim.timeout(timeout)]), self._raced)

    def _replied(self, reply: SimFuture) -> None:
        if reply._state is _FAILED:
            exc = reply._exception
            assert exc is not None
            self._lost(exc)
            return
        self._unmarshal(reply._value)

    def _raced(self, race: SimFuture) -> None:
        index, reply = race._value
        if index == 0:
            self._unmarshal(reply)
            return
        orb = self.orb
        target = self.target
        orb._pending.pop(self.request_id, None)
        # GIOP CancelRequest: tell the server we gave up so it can stop
        # working on our behalf.
        cancel = giop.encode_message(giop.CancelRequestMessage(self.request_id))
        orb.network.send(
            orb.host, orb.port, target.host, target.port, cancel, len(cancel)
        )
        self._refuse(
            TIMEOUT(
                f"{self.info.name} timed out after {orb.config.request_timeout}s",
                completed=CompletionStatus.COMPLETED_MAYBE,
            )
        )

    def _unmarshal(self, reply: giop.ReplyMessage) -> None:
        self.reply = reply
        work = MARSHAL_FIXED_WORK + MARSHAL_PER_BYTE_WORK * len(reply.body)
        self.reply_work = work
        self._wait(self.orb.host.execute(work), self._unmarshalled)

    def _unmarshalled(self, _charge: SimFuture) -> None:
        reply = self.reply
        status = reply.status
        if self.using_cached and status is giop.ReplyStatus.SYSTEM_EXCEPTION:
            decoded = giop.decode_system_exception(reply.body)
            if isinstance(decoded, (OBJECT_NOT_EXIST, TRANSIENT)):
                # The cached forward points at a dead object: fall back.
                self._outcome(decoded)
                self._fall_back()
                return
        if status is giop.ReplyStatus.LOCATION_FORWARD:
            # Transparent retry at the forwarded reference; cache it on the
            # object reference (GIOP client behaviour).  The hop's
            # interceptor round is closed as a received reply.
            self._outcome(None)
            try:
                target = CdrInputStream(reply.body).read_ior()
            except CdrError as exc:
                self.try_fail(MARSHAL(f"bad LOCATION_FORWARD body: {exc}"))
                return
            self.using_cached = False
            if self.reference is not None:
                self.reference._forward_target = target
            self.target = target
            self._send()
            return
        self._deliver(reply)

    def _deliver(self, reply: giop.ReplyMessage) -> None:
        info = self.info
        status = reply.status
        if status is giop.ReplyStatus.NO_EXCEPTION:
            try:
                result = CdrInputStream(reply.body).read_value(info.result)
            except CdrError as exc:
                self._refuse(MARSHAL(f"bad reply body for {info.name}: {exc}"))
                return
            if self.outcome_due:
                # The reply-unmarshal charge, paid just before, lands
                # *inside* the client span; tag it so the critical-path
                # analyzer can split marshalling out of transport.
                self._outcome(None, {"unmarshal_work": self.reply_work})
            self.try_succeed(result)
        elif status is giop.ReplyStatus.USER_EXCEPTION:
            stream = CdrInputStream(reply.body)
            repo_id = stream.read_string()
            cls = USER_EXCEPTION_REGISTRY.get(repo_id)
            if cls is None:
                self._refuse(UNKNOWN(f"unregistered user exception {repo_id}"))
                return
            decoded = stream.read_value(cls.__tc__)
            kwargs = {name: getattr(decoded, name) for name in cls.__fields__}
            self._refuse(cls(**kwargs))
        else:
            self._refuse(giop.decode_system_exception(reply.body))

    # -- outcomes ---------------------------------------------------------------

    def _lost(self, exc: BaseException) -> None:
        """The request got no answer (no connection, a reset, the server's
        host crashed): a cached forward falls back to the original
        reference once; anything else fails the call."""
        if not isinstance(exc, SystemException):
            raise exc
        self._outcome(exc)
        if self.using_cached:
            self._fall_back()
        else:
            self.try_fail(exc)

    def _fall_back(self) -> None:
        """Drop the cached forward and send again to the original IOR."""
        if self.reference is not None:
            self.reference._forward_target = None
        self.using_cached = False
        self.target = self.ior
        self._send()

    def _refuse(self, exc: BaseException) -> None:
        self._outcome(exc)
        self.try_fail(exc)

    def _outcome(
        self, exc: Optional[BaseException], attrs: Optional[dict] = None
    ) -> None:
        """Close this send's interceptor round."""
        self.outcome_due = False
        self.orb._intercept_outcome(self.info.name, self.request_id, exc, attrs)

    def _release(self, exc: BaseException) -> None:
        # Killed with its host, or a step raised: the reply will never be
        # read, and the client span ends with the error.
        self.orb._pending.pop(self.request_id, None)
        if self.outcome_due:
            self._outcome(exc)


class _Serve(Activity):
    """One incoming request: the dispatch charge, the upcall, the reply
    charge and the send.  A servant that returns a generator runs as a
    process started inside the upcall step, so its first step — where a
    replicated servant reads ``current_service_contexts`` — runs before
    any other dispatch."""

    __slots__ = (
        "orb",
        "message",
        "key",
        "started",
        "info",
        "servant",
        "span_open",
        "status",
        "body",
        "reply_work",
    )

    def __init__(self, orb: Orb, message: giop.RequestMessage, wire_size: int) -> None:
        super().__init__(orb.host, f"{orb.name}:serve:{message.operation}")
        self.orb = orb
        self.message = message
        self.started = orb.sim.now
        self.info: Optional[OpInfo] = None
        self.servant: Optional[Process] = None
        #: receive_request ran and send_reply has not
        self.span_open = False
        # by (client host, client port, request id), so CancelRequest can
        # abort the dispatch
        self.key = key = (message.reply_host, message.reply_port, message.request_id)
        orb._inflight_serves[key] = self
        self._wait(
            orb.host.execute(DISPATCH_FIXED_WORK + MARSHAL_PER_BYTE_WORK * wire_size),
            self._answer,
        )

    def _upcall(self) -> Optional[bytes]:
        """Demultiplex, unmarshal and call the servant; the reply body of
        its result, or None while a yielding servant runs on."""
        orb = self.orb
        orb.requests_served += 1
        message = self.message
        servant = orb.poa.lookup(message.object_key)
        if servant is None or message.target_incarnation != orb.orb_id:
            raise OBJECT_NOT_EXIST(
                f"no active object for key {message.object_key!r} "
                f"(incarnation {message.target_incarnation} vs {orb.orb_id})",
                completed=CompletionStatus.COMPLETED_NO,
            )
        info = servant.__operations__.get(message.operation)
        if info is None:
            raise BAD_OPERATION(
                f"{type(servant).__name__} has no operation "
                f"{message.operation!r}",
                completed=CompletionStatus.COMPLETED_NO,
            )
        try:
            args = orb._decode_args(info, message.body)
        except CdrError as exc:
            raise MARSHAL(
                f"cannot unmarshal request for {info.name}: {exc}",
                completed=CompletionStatus.COMPLETED_NO,
            ) from exc
        if orb.interceptors:
            orb._intercept(
                "receive_request",
                RequestInfo(
                    operation=message.operation,
                    request_id=message.request_id,
                    object_key=message.object_key,
                    body_size=len(message.body),
                    response_expected=message.response_expected,
                    service_contexts=list(message.service_contexts),
                ),
            )
            self.span_open = True
        method = getattr(servant, message.operation, None)
        if method is None or not callable(method):
            raise NO_IMPLEMENT(
                f"{type(servant).__name__}.{message.operation} not implemented",
                completed=CompletionStatus.COMPLETED_NO,
            )
        self.info = info
        # Valid only for the synchronous prefix of the call: nothing runs
        # between here and the method's first statement, so a replicated
        # servant can capture its request-id context before any other
        # dispatch runs.
        orb.current_service_contexts = message.service_contexts
        orb.current_request_body = message.body
        try:
            result = method(*args)
        finally:
            orb.current_request_body = None
        if inspect.isgenerator(result):
            process = self._start(
                result, f"{orb.name}:serve:{message.operation}", self._answer
            )
            if process._state is _PENDING:
                self.servant = process
                return None
            result = process.value
        return self._result_body(result)

    def _result_body(self, result: Any) -> bytes:
        info = self.info
        assert info is not None
        stream = CdrOutputStream()
        try:
            stream.write_value(info.result, result)
        except CdrError as exc:
            raise MARSHAL(
                f"{info.name}: cannot marshal result {result!r}: {exc}"
            ) from exc
        return stream.getvalue()

    def _answer(self, resolved: SimFuture) -> None:
        """The step after the dispatch charge (the upcall) and after a
        yielding servant (its result): make the reply, mapping what either
        raises — the one place an exception becomes a reply."""
        status = giop.ReplyStatus.NO_EXCEPTION
        try:
            if resolved is self.servant:
                self.servant = None
                body = self._result_body(resolved.value)
            else:
                body = self._upcall()
                if body is None:
                    return
        except _LocationForward as forward:
            status = giop.ReplyStatus.LOCATION_FORWARD
            stream = CdrOutputStream()
            stream.write_ior(forward.target)
            body = stream.getvalue()
        except UserException as exc:
            status = giop.ReplyStatus.USER_EXCEPTION
            stream = CdrOutputStream()
            stream.write_string(exc.__repo_id__)
            stream.write_value(type(exc).__tc__, exc.fields)
            body = stream.getvalue()
        # analysis: ignore[EXC003]: marshalled into the SYSTEM_EXCEPTION reply — propagates to the client
        except SystemException as exc:
            status = giop.ReplyStatus.SYSTEM_EXCEPTION
            body = giop.encode_system_exception(exc)
        except ProcessKilled:
            raise
        # analysis: ignore[EXC002]: CORBA-mandated mapping — a servant bug becomes an UNKNOWN reply
        except Exception as exc:  # noqa: BLE001 - servant bug -> UNKNOWN
            status = giop.ReplyStatus.SYSTEM_EXCEPTION
            body = giop.encode_system_exception(
                UNKNOWN(f"servant raised {type(exc).__name__}: {exc}")
            )
        self._reply(status, body)

    def _reply(self, status: giop.ReplyStatus, body: bytes) -> None:
        orb = self.orb
        message = self.message
        histogram = orb._dispatch_seconds.get(message.operation)
        if histogram is None:
            histogram = orb._dispatch_seconds[message.operation] = (
                orb.sim.obs.metrics.histogram(
                    "orb_dispatch_seconds",
                    operation=message.operation,
                    host=orb.host.name,
                )
            )
        histogram.observe(orb.sim.now - self.started)
        if not message.response_expected:
            orb._inflight_serves.pop(self.key, None)
            self.message = None
            self.try_succeed(None)
            return
        self.status = status
        self.body = body
        self.reply_work = work = MARSHAL_FIXED_WORK + MARSHAL_PER_BYTE_WORK * len(body)
        self._wait(orb.host.execute(work), self._send_reply)

    def _send_reply(self, _charge: SimFuture) -> None:
        orb = self.orb
        message = self.message
        body = self.body
        if orb.interceptors:
            orb._intercept(
                "send_reply",
                RequestInfo(
                    operation=message.operation,
                    request_id=message.request_id,
                    object_key=message.object_key,
                    body_size=len(body),
                    attrs={"reply_marshal_work": self.reply_work},
                ),
            )
            self.span_open = False
        reply = giop.ReplyMessage(message.request_id, self.status, body)
        raw = giop.encode_message(reply)
        orb.network.send(
            orb.host, orb.port, message.reply_host, message.reply_port, raw, len(raw)
        )
        orb._inflight_serves.pop(self.key, None)
        # A finished dispatch stays on its host's list for a while: let the
        # request and the reply go now.
        self.message = self.body = None
        self.try_succeed(None)

    def _release(self, exc: BaseException) -> None:
        # Killed with its host or by a CancelRequest, or a step raised: no
        # reply goes out, and the server span ends with the error.
        orb = self.orb
        orb._inflight_serves.pop(self.key, None)
        if self.servant is not None:
            self.servant.kill()
        if self.span_open:
            self.span_open = False
            message = self.message
            orb._intercept(
                "abort_reply",
                RequestInfo(
                    operation=message.operation,
                    request_id=message.request_id,
                    object_key=message.object_key,
                    exception=exc,
                ),
            )
        self.message = self.body = None
