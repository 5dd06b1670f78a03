"""ORB core: object adapter, request dispatch and static invocation.

One :class:`Orb` instance models one CORBA server/client process resident
on a host.  It owns a listening endpoint on the simulated network, a
:class:`POA` holding activated servants, and the client-side table of
pending calls.

Request handling runs as host-bound simulation processes, so marshalling
and dispatch consume the host's CPU (and die with it on a crash); servant
methods may be plain Python (instantaneous) or generators that yield
simulation futures — typically ``self._host().execute(work)`` for real
compute, which is how the optimization workers burn simulated CPU time.

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
from repro.sim.events import SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.network import Network


@dataclass
class OrbConfig:
    """Cost model and policy knobs of one ORB instance."""

    #: CPU work (seconds on a speed-1 host) per marshal/unmarshal step.
    marshal_fixed_work: float = 50e-6
    #: additional CPU work per payload byte.
    marshal_per_byte_work: float = 5e-9
    #: server-side fixed dispatch work per request (demux, POA lookup).
    dispatch_fixed_work: float = 100e-6
    #: optional round-trip timeout for invocations (None = wait forever,
    #: matching the era's default ORB behaviour).
    request_timeout: Optional[float] = None
    #: timeout for LocateRequest pings (these must always terminate).
    locate_timeout: float = 0.05
    #: round trips paid to set up a connection before a request may travel
    #: (ConnectMessage/Ack exchanges).  0 = connectionless datagrams, the
    #: baseline model — and the default, so existing runs are unchanged.
    connection_handshake_rtts: int = 0
    #: cache established connections per (host, port, incarnation) and
    #: reuse them across requests instead of paying the handshake each
    #: time; off = every request pays ``connection_handshake_rtts``.
    connection_reuse: bool = False
    #: LRU capacity of the connection cache.
    connection_cache_size: int = 32


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


class _Pending:
    __slots__ = ("future", "target_host", "kind")

    def __init__(self, future: SimFuture, target_host: str, kind: str) -> None:
        self.future = future
        self.target_host = target_host
        self.kind = kind  # "call", "locate" or "connect"


class CallStats:
    """Aggregated client-side statistics of one operation."""

    __slots__ = ("operation", "calls", "failures", "total_latency", "max_latency")

    def __init__(self, operation: str) -> None:
        self.operation = operation
        self.calls = 0
        self.failures = 0
        self.total_latency = 0.0
        self.max_latency = 0.0

    def record(self, latency: float, failed: bool) -> None:
        self.calls += 1
        if failed:
            self.failures += 1
        self.total_latency += latency
        self.max_latency = max(self.max_latency, latency)

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
        self.inbox = network.bind(host, self.port)
        self.poa = POA(self)
        self._pending: dict[int, _Pending] = {}
        self._request_ids = itertools.count(1)
        self._watched_hosts: set[str] = set()
        self._shut_down = False
        self._dispatcher = host.spawn(self._dispatch_loop(), name=f"{self.name}:disp")
        host.on_crash(lambda _h: self._fail_local_pending())
        #: counters for reports
        self.requests_sent = 0
        self.requests_served = 0
        #: per-operation client-side statistics (the instrumentation an
        #: ORB's interceptors would provide): operation -> CallStats.
        self.call_stats: dict[str, CallStats] = {}
        #: portable-interceptor-style request interceptors.
        self.interceptors: list = []
        #: in-flight server dispatches by (client host, client port,
        #: request id), so CancelRequest can abort them.
        self._inflight_serves: dict[tuple[str, int, int], Any] = {}
        self.requests_cancelled = 0
        #: client-side connection cache (None unless reuse is enabled).
        self.connections: Optional[ConnectionCache] = (
            ConnectionCache(self.sim, capacity=self.config.connection_cache_size)
            if self.config.connection_reuse
            else None
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
        """Stop this server process: unbind the port, kill the dispatcher.

        Clients with outstanding calls receive resets (their requests now
        drop) — modelling "a crashed server process" distinct from a whole
        host crash, one of the error cases §3 lists.
        """
        if self._shut_down:
            return
        self._shut_down = True
        if self.network.is_bound(self.host.name, self.port):
            self.network.unbind(self.host.name, self.port)
        self._dispatcher.kill()
        self._fail_local_pending()
        if self.connections is not None:
            self.connections.clear()

    def _fail_local_pending(self) -> None:
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            entry.future.try_fail(
                COMM_FAILURE(
                    f"ORB {self.name} shut down with call in flight",
                    completed=CompletionStatus.COMPLETED_MAYBE,
                )
            )

    # -- object references ---------------------------------------------------------

    def object_to_string(self, ior: IOR) -> str:
        return ior.to_string()

    def string_to_object(self, text: str) -> IOR:
        """Parse a stringified IOR or a ``corbaloc:`` URL."""
        from repro.orb.url import string_to_object

        return string_to_object(self, text)

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
        """Invoke ``info`` on the object ``ior``; returns the result future.

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
        outer = SimFuture(self.sim, label=f"call:{info.name}@{ior.host}")
        process = self.host.spawn(
            self._invoke_proc(ior, info, args, outer, reference, service_contexts),
            name=f"call:{info.name}",
        )

        def propagate(proc_future: SimFuture) -> None:
            if proc_future.failed and outer.is_pending:
                outer.try_fail(proc_future.exception)  # type: ignore[arg-type]

        process.add_done_callback(propagate)

        started = self.sim.now
        stats = self.call_stats.get(info.name)
        if stats is None:
            stats = self.call_stats[info.name] = CallStats(info.name)
        outer.add_done_callback(
            lambda f: self._record_call_outcome(info.name, stats, started, f)
        )
        return outer

    def _record_call_outcome(
        self, operation: str, stats: CallStats, started: float, future: SimFuture
    ) -> None:
        latency = self.sim.now - started
        stats.record(latency, future.failed)
        metrics = self.sim.obs.metrics
        metrics.histogram(
            "orb_call_latency_seconds",
            operation=operation,
            host=self.host.name,
        ).observe(latency)
        if future.failed:
            metrics.counter(
                "orb_call_failures_total",
                operation=operation,
                host=self.host.name,
            ).inc()

    def locate(self, ior: IOR) -> SimFuture:
        """LocateRequest ping; resolves to True when the object is
        reachable and active, False otherwise. Never fails."""
        outer = self.sim.future(label=f"locate@{ior.host}")
        process = self.host.spawn(self._locate_proc(ior, outer), name="locate")
        process.add_done_callback(
            lambda p: outer.try_succeed(False) if p.failed else None
        )
        return outer

    def _marshal_work(self, nbytes: int) -> float:
        cfg = self.config
        return cfg.marshal_fixed_work + cfg.marshal_per_byte_work * nbytes

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

    def _invoke_proc(
        self,
        ior: IOR,
        info: OpInfo,
        args: tuple,
        outer: SimFuture,
        reference=None,
        extra_contexts: tuple = (),
    ):
        body = self._encode_args(info, args)
        request_work = self._marshal_work(len(body))
        yield self.host.execute(request_work)

        cached_forward = getattr(reference, "_forward_target", None)
        target = cached_forward if cached_forward is not None else ior
        using_cached = cached_forward is not None
        for _hop in range(MAX_FORWARDS + 1):
            request_id = next(self._request_ids)
            service_contexts: tuple = tuple(extra_contexts)
            if self.interceptors:
                # send_request runs before the message is built so that
                # interceptors can attach service contexts to the wire
                # (e.g. the observability layer's trace context).
                send_info = RequestInfo(
                    operation=info.name,
                    request_id=request_id,
                    target=target,
                    body_size=len(body),
                    response_expected=not info.oneway,
                    attrs={"request_marshal_work": request_work},
                )
                self._intercept("send_request", send_info)
                service_contexts = service_contexts + tuple(
                    send_info.service_contexts
                )
            message = giop.RequestMessage(
                request_id=request_id,
                response_expected=not info.oneway,
                object_key=target.object_key,
                operation=info.name,
                target_incarnation=target.incarnation,
                reply_host=self.host.name,
                reply_port=self.port,
                body=body,
                service_contexts=service_contexts,
            )
            raw = giop.encode_message(message)
            self.requests_sent += 1

            try:
                self.network.host(target.host)
            except Exception:
                outer.try_fail(
                    INV_OBJREF(f"IOR names unknown host {target.host!r}")
                )
                return

            if self.config.connection_handshake_rtts > 0:
                try:
                    yield from self._ensure_connection(target)
                except SystemException as exc:
                    self._intercept_outcome(info.name, request_id, exc)
                    if using_cached:
                        # Could not even connect to the forwarded target:
                        # drop the cache and retry at the original IOR.
                        if reference is not None:
                            reference._forward_target = None
                        using_cached = False
                        target = ior
                        continue
                    outer.try_fail(exc)
                    return

            if info.oneway:
                self.network.send(
                    self.host, self.port, target.host, target.port, raw, len(raw)
                )
                outer.try_succeed(None)
                return

            inner = SimFuture(self.sim, label=f"reply:{request_id}")
            self._pending[request_id] = _Pending(inner, target.host, "call")
            self._watch_host(target.host)
            self.network.send(
                self.host, self.port, target.host, target.port, raw, len(raw)
            )

            if self.config.request_timeout is not None:
                winner = yield self.sim.any_of(
                    [inner, self.sim.timeout(self.config.request_timeout)]
                )
                if winner[0] == 1:
                    self._pending.pop(request_id, None)
                    # GIOP CancelRequest: tell the server we gave up so it
                    # can stop working on our behalf.
                    cancel = giop.encode_message(
                        giop.CancelRequestMessage(request_id)
                    )
                    self.network.send(
                        self.host,
                        self.port,
                        target.host,
                        target.port,
                        cancel,
                        len(cancel),
                    )
                    timeout_exc = TIMEOUT(
                        f"{info.name} timed out after "
                        f"{self.config.request_timeout}s",
                        completed=CompletionStatus.COMPLETED_MAYBE,
                    )
                    self._intercept_outcome(info.name, request_id, timeout_exc)
                    outer.try_fail(timeout_exc)
                    return
                reply = winner[1]
            else:
                try:
                    reply = yield inner
                except SystemException as exc:
                    self._intercept_outcome(info.name, request_id, exc)
                    if using_cached:
                        # The forwarded target died: drop the cache and
                        # fall back to the original reference once.
                        if reference is not None:
                            reference._forward_target = None
                        using_cached = False
                        target = ior
                        continue
                    outer.try_fail(exc)
                    return

            reply_work = self._marshal_work(len(reply.body))
            yield self.host.execute(reply_work)
            if using_cached and reply.status is giop.ReplyStatus.SYSTEM_EXCEPTION:
                decoded = giop.decode_system_exception(reply.body)
                if isinstance(decoded, (OBJECT_NOT_EXIST, TRANSIENT)):
                    # The cached forward points at a dead object: fall back.
                    self._intercept_outcome(info.name, request_id, decoded)
                    if reference is not None:
                        reference._forward_target = None
                    using_cached = False
                    target = ior
                    continue
            if reply.status is giop.ReplyStatus.LOCATION_FORWARD:
                # Transparent retry at the forwarded reference; cache it
                # on the object reference (GIOP client behaviour).  The
                # hop's interceptor round is closed as a received reply.
                self._intercept_outcome(info.name, request_id, None)
                try:
                    target = CdrInputStream(reply.body).read_ior()
                except CdrError as exc:
                    outer.try_fail(
                        MARSHAL(f"bad LOCATION_FORWARD body: {exc}")
                    )
                    return
                using_cached = False
                if reference is not None:
                    reference._forward_target = target
                continue
            self._deliver_reply(info, reply, outer, request_id, reply_work)
            return
        outer.try_fail(
            TRANSIENT(
                f"{info.name}: more than {MAX_FORWARDS} chained location "
                "forwards (forwarding loop?)"
            )
        )

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

    def _deliver_reply(
        self,
        info: OpInfo,
        reply: giop.ReplyMessage,
        outer: SimFuture,
        request_id: int,
        unmarshal_work: float,
    ) -> None:
        def fail(exc: BaseException) -> None:
            self._intercept_outcome(info.name, request_id, exc)
            outer.try_fail(exc)

        if reply.status is giop.ReplyStatus.NO_EXCEPTION:
            stream = CdrInputStream(reply.body)
            try:
                result = stream.read_value(info.result)
            except CdrError as exc:
                fail(MARSHAL(f"bad reply body for {info.name}: {exc}"))
                return
            if self.interceptors:
                # The reply-unmarshal CPU charge (paid just before this
                # call, in _invoke_proc) lands *inside* the client span;
                # tag it so the critical-path analyzer can split
                # marshalling out of transport.
                self._intercept_outcome(
                    info.name,
                    request_id,
                    None,
                    attrs={"unmarshal_work": unmarshal_work},
                )
            outer.try_succeed(result)
        elif reply.status is giop.ReplyStatus.USER_EXCEPTION:
            stream = CdrInputStream(reply.body)
            repo_id = stream.read_string()
            cls = USER_EXCEPTION_REGISTRY.get(repo_id)
            if cls is None:
                fail(UNKNOWN(f"unregistered user exception {repo_id}"))
                return
            decoded = stream.read_value(cls.__tc__)
            kwargs = {name: getattr(decoded, name) for name in cls.__fields__}
            fail(cls(**kwargs))
        else:
            fail(giop.decode_system_exception(reply.body))

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
        per configured round trip, each bounded by ``locate_timeout``."""
        for _ in range(self.config.connection_handshake_rtts):
            request_id = next(self._request_ids)
            raw = giop.encode_message(
                giop.ConnectMessage(request_id, self.host.name, self.port)
            )
            inner = self.sim.future(label=f"connect:{request_id}")
            self._pending[request_id] = _Pending(inner, target.host, "connect")
            self._watch_host(target.host)
            self.handshakes_sent += 1
            self.network.send(
                self.host, self.port, target.host, target.port, raw, len(raw)
            )
            winner = yield self.sim.any_of(
                [inner, self.sim.timeout(self.config.locate_timeout)]
            )
            if winner[0] == 1:
                self._pending.pop(request_id, None)
                raise COMM_FAILURE(
                    f"connection setup to {target.host}:{target.port} "
                    "timed out",
                    completed=CompletionStatus.COMPLETED_NO,
                )
            # Reset/crash resolves the connect future with the exception
            # as a value (see _dispatch_loop) so the failure is prompt.
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
        inner = self.sim.future(label=f"locate:{request_id}")
        self._pending[request_id] = _Pending(inner, ior.host, "locate")
        try:
            self.network.send(self.host, self.port, ior.host, ior.port, raw, len(raw))
        except SimulationError:
            # own host crashed mid-probe or the peer name is unknown:
            # treat as "object is not there" rather than a client error.
            self._pending.pop(request_id, None)
            outer.try_succeed(False)
            return
        winner = yield self.sim.any_of(
            [inner, self.sim.timeout(self.config.locate_timeout)]
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
                entry.future.try_succeed(giop.LocateStatus.UNKNOWN_OBJECT)
            elif entry.kind == "connect":
                entry.future.try_succeed(
                    COMM_FAILURE(
                        f"host {host_name} crashed during connection setup",
                        completed=CompletionStatus.COMPLETED_NO,
                    )
                )
            else:
                entry.future.try_fail(
                    COMM_FAILURE(
                        f"host {host_name} crashed during call",
                        completed=CompletionStatus.COMPLETED_MAYBE,
                    )
                )

    # -- server side ----------------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            datagram = yield self.inbox.get()
            try:
                message = giop.decode_message(bytes(datagram.payload))
            except MARSHAL:
                self.sim.trace.emit("orb", f"{self.name}: undecodable datagram")
                continue
            if isinstance(message, giop.RequestMessage):
                process = self.host.spawn(
                    self._serve(message, len(datagram.payload)),
                    name=f"{self.name}:serve:{message.operation}",
                )
                key = (message.reply_host, message.reply_port, message.request_id)
                self._inflight_serves[key] = process
                process.add_done_callback(
                    lambda _p, key=key: self._inflight_serves.pop(key, None)
                )
            elif isinstance(message, giop.CancelRequestMessage):
                key = (
                    datagram.src_host,
                    datagram.src_port,
                    message.request_id,
                )
                process = self._inflight_serves.pop(key, None)
                if process is not None and process.is_pending:
                    self.requests_cancelled += 1
                    process.kill()
            elif isinstance(message, giop.ReplyMessage):
                entry = self._pending.pop(message.request_id, None)
                if entry is not None:
                    entry.future.try_succeed(message)
            elif isinstance(message, giop.ResetMessage):
                entry = self._pending.pop(message.request_id, None)
                if entry is not None:
                    if self.connections is not None:
                        # A reset proves the endpoint is gone: any cached
                        # connection to that host is dead too.
                        self.connections.invalidate_host(entry.target_host)
                    if entry.kind == "locate":
                        entry.future.try_succeed(giop.LocateStatus.UNKNOWN_OBJECT)
                    elif entry.kind == "connect":
                        entry.future.try_succeed(
                            COMM_FAILURE(
                                f"connection refused: {message.reason}",
                                completed=CompletionStatus.COMPLETED_NO,
                            )
                        )
                    else:
                        entry.future.try_fail(
                            COMM_FAILURE(
                                f"connection reset: {message.reason}",
                                completed=CompletionStatus.COMPLETED_NO,
                            )
                        )
            elif isinstance(message, giop.ConnectMessage):
                # Accepting a connection is pure wire protocol: ack it
                # straight from the dispatch loop (no CPU charged), like
                # a kernel-level SYN/ACK.
                ack = giop.encode_message(
                    giop.ConnectAckMessage(message.request_id)
                )
                self.network.send(
                    self.host,
                    self.port,
                    message.reply_host,
                    message.reply_port,
                    ack,
                    len(ack),
                )
            elif isinstance(message, giop.ConnectAckMessage):
                entry = self._pending.pop(message.request_id, None)
                if entry is not None:
                    entry.future.try_succeed(None)
            elif isinstance(message, giop.LocateRequestMessage):
                self._serve_locate(message)
            elif isinstance(message, giop.LocateReplyMessage):
                entry = self._pending.pop(message.request_id, None)
                if entry is not None:
                    entry.future.try_succeed(message.status)

    def _serve_locate(self, message: giop.LocateRequestMessage) -> None:
        servant = self.poa.lookup(message.object_key)
        here = servant is not None and message.target_incarnation == self.orb_id
        reply = giop.LocateReplyMessage(
            message.request_id,
            giop.LocateStatus.OBJECT_HERE if here else giop.LocateStatus.UNKNOWN_OBJECT,
        )
        raw = giop.encode_message(reply)
        self.network.send(
            self.host, self.port, message.reply_host, message.reply_port, raw, len(raw)
        )

    def _serve(self, message: giop.RequestMessage, wire_size: int):
        cfg = self.config
        dispatch_started = self.sim.now
        yield self.host.execute(
            cfg.dispatch_fixed_work + cfg.marshal_per_byte_work * wire_size
        )
        self.requests_served += 1

        status = giop.ReplyStatus.NO_EXCEPTION
        reply_body = b""
        try:
            servant = self.poa.lookup(message.object_key)
            if servant is None or message.target_incarnation != self.orb_id:
                raise OBJECT_NOT_EXIST(
                    f"no active object for key {message.object_key!r} "
                    f"(incarnation {message.target_incarnation} vs {self.orb_id})",
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
                args = self._decode_args(info, message.body)
            except CdrError as exc:
                raise MARSHAL(
                    f"cannot unmarshal request for {info.name}: {exc}",
                    completed=CompletionStatus.COMPLETED_NO,
                ) from exc
            if self.interceptors:
                self._intercept(
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
            method = getattr(servant, message.operation, None)
            if method is None or not callable(method):
                raise NO_IMPLEMENT(
                    f"{type(servant).__name__}.{message.operation} "
                    "not implemented",
                    completed=CompletionStatus.COMPLETED_NO,
                )
            # Valid only for the synchronous prefix of the call: there
            # is no yield between here and the method's first statement,
            # so a replicated servant can capture its request-id context
            # before any other dispatch runs.
            self.current_service_contexts = message.service_contexts
            self.current_request_body = message.body
            try:
                result = method(*args)
            finally:
                self.current_request_body = None
            if inspect.isgenerator(result):
                result = yield from result
            stream = CdrOutputStream()
            try:
                stream.write_value(info.result, result)
            except CdrError as exc:
                raise MARSHAL(
                    f"{info.name}: cannot marshal result {result!r}: {exc}"
                ) from exc
            reply_body = stream.getvalue()
        except _LocationForward as forward:
            status = giop.ReplyStatus.LOCATION_FORWARD
            stream = CdrOutputStream()
            stream.write_ior(forward.target)
            reply_body = stream.getvalue()
        except UserException as exc:
            status = giop.ReplyStatus.USER_EXCEPTION
            stream = CdrOutputStream()
            stream.write_string(exc.__repo_id__)
            stream.write_value(type(exc).__tc__, exc.fields)
            reply_body = stream.getvalue()
        # analysis: ignore[EXC003]: marshalled into the SYSTEM_EXCEPTION reply — propagates to the client
        except SystemException as exc:
            status = giop.ReplyStatus.SYSTEM_EXCEPTION
            reply_body = giop.encode_system_exception(exc)
        except ProcessKilled:
            raise
        # analysis: ignore[EXC002]: CORBA-mandated mapping — a servant bug becomes an UNKNOWN reply
        except Exception as exc:  # noqa: BLE001 - servant bug -> UNKNOWN
            self.sim.trace.emit(
                "orb",
                f"{self.name}: servant raised {type(exc).__name__}",
                operation=message.operation,
            )
            status = giop.ReplyStatus.SYSTEM_EXCEPTION
            reply_body = giop.encode_system_exception(
                UNKNOWN(f"servant raised {type(exc).__name__}: {exc}")
            )

        self.sim.obs.metrics.histogram(
            "orb_dispatch_seconds",
            operation=message.operation,
            host=self.host.name,
        ).observe(self.sim.now - dispatch_started)
        if not message.response_expected:
            return
        reply_work = self._marshal_work(len(reply_body))
        yield self.host.execute(reply_work)
        if self.interceptors:
            self._intercept(
                "send_reply",
                RequestInfo(
                    operation=message.operation,
                    request_id=message.request_id,
                    object_key=message.object_key,
                    body_size=len(reply_body),
                    attrs={"reply_marshal_work": reply_work},
                ),
            )
        reply = giop.ReplyMessage(message.request_id, status, reply_body)
        raw = giop.encode_message(reply)
        self.network.send(
            self.host, self.port, message.reply_host, message.reply_port, raw, len(raw)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Orb {self.name} port={self.port} servants={len(self.poa)}>"
