"""Fault-tolerance object proxies — generated, not hand-written.

The paper's design alternative (c): "introduction of proxy classes derived
from the stub classes on the client side ... This proxy class is derived
from the stub class and therefore provides all of the methods of the stub
class.  The additional methods handle the creation of a checkpoint and the
restoring of an object's state according to a checkpoint."

And its automation remark: "With the current implementation, the proxy
class for each service class has to be implemented manually.  This could be
easily automated by parsing the class definition."  :func:`make_ft_proxy`
*is* that automation — it walks the stub's operation table (which came from
the IDL) and generates the wrapped methods.

Per wrapped call the proxy:

1. invokes the operation through the normal stub path;
2. on ``COMM_FAILURE`` (or ``OBJECT_NOT_EXIST``/``TRANSIENT``) runs the
   recovery coordinator — re-resolve, re-create, restore checkpoint,
   rebind — and retries the call (bounded);
3. after success, fetches a checkpoint from the server
   (``get_checkpoint``) and stores it in the checkpoint storage service
   (every call by default; every k-th with ``checkpoint_interval=k``).

The checkpoint *fast path* (off by default — the paper's fully synchronous
step 3 is what Table 1 measures) splits step 3 in two:

- ``checkpoint_mode="pipelined"`` — the caller's future is resolved as
  soon as the invocation succeeds.  The state fetch still runs under the
  per-proxy lock (a snapshot must not observe effects of a later call),
  but the store round-trip runs in a background process, FIFO-chained so
  versions arrive at the store in order, with at most
  ``checkpoint_pipeline_depth`` stores outstanding.
- ``checkpoint_deltas=True`` — consecutive states are diffed; only the
  changed entries ship (``store_delta``), with a content-hash skip when
  nothing changed at all and a full snapshot every
  ``CHECKPOINT_FULL_INTERVAL``-th checkpoint to bound the restore chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.errors import RecoveryError, SystemException
from repro.ft.checkpointable import CAPTURE_CHECKPOINT, CHECKPOINT_OPERATIONS
from repro.ft.policy import CHECKPOINT_FULL_INTERVAL, FtPolicy
from repro.ft.recovery import RECOVERABLE, RecoveryCoordinator
from repro.ft.shipping import Shipment, StateShipper
from repro.orb.stubs import ObjectStub

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import SimFuture

#: shipper counter → the obs series the checkpoint path exports it as.
_SHIP_SERIES = {
    "skipped": "ft_checkpoints_skipped_total",
    "deltas": "ft_checkpoint_deltas_total",
    "fulls": "ft_checkpoint_fulls_total",
    "fallbacks": "ft_checkpoint_delta_fallbacks_total",
    "bytes": "ft_checkpoint_bytes_total",
    "stalls": "ft_pipeline_stalls_total",
}


@dataclass
class FtContext:
    """Per-proxy fault-tolerance state.

    :param key: logical identity of the service instance — the checkpoint
        key (survives re-creations on other hosts).
    :param type_name: factory type used to re-create the servant.
    :param store: CheckpointStore stub (None = no checkpointing).
    :param recovery: RecoveryCoordinator (None = failures propagate).
    :param group_name: optional naming-service group to keep updated when
        the replica moves.
    """

    key: str
    type_name: str = ""
    store: Optional[object] = None
    recovery: Optional[RecoveryCoordinator] = None
    policy: FtPolicy = field(default_factory=FtPolicy)
    group_name: Optional[str] = None
    #: replica group (built by the proxy when ``policy.ft_mode`` selects
    #: a replication mode; None on the paper's checkpoint path).
    group: Optional[object] = None
    #: encode / skip / delta / pipeline machinery and its counters (built by
    #: the proxy, which knows the host the background persists run on).
    shipper: Optional[StateShipper] = None
    # runtime counters
    calls: int = 0
    checkpoints_taken: int = 0
    retries: int = 0
    _calls_since_checkpoint: int = 0
    #: degraded mode: ``(version, state)`` checkpoints captured while the
    #: storage service was unreachable, oldest first.  Flushed (in order)
    #: the next time the store answers; recovery restores from the newest
    #: entry when it beats the store's copy.
    buffered_checkpoints: list = field(default_factory=list)
    checkpoints_buffered: int = 0
    checkpoints_flushed: int = 0
    #: pipelined + ``on_checkpoint_failure="raise"``: a background persist
    #: failure parks here and fails the *next* wrapped call (the one it
    #: belonged to was already acknowledged).
    _pipeline_error: Optional[BaseException] = None

    @property
    def degraded(self) -> bool:
        """True while checkpoints are parked client-side."""
        return bool(self.buffered_checkpoints)

    def latest_buffered(self):
        """Newest buffered ``(version, state)`` or None."""
        return self.buffered_checkpoints[-1] if self.buffered_checkpoints else None


class _FtProxyBase:
    """Mixin holding the wrapped-call machinery (stub class is mixed in by
    :func:`make_ft_proxy`).

    Wrapped calls, checkpoints and migrations of one proxy are serialized
    through a per-proxy FIFO lock: the paper's "checkpoint after each
    method call" is only meaningful if snapshots cannot interleave with
    other calls on the same object.
    """

    def __init__(self, orb, ior, ft: FtContext) -> None:
        from repro.sim.sync import Lock

        ObjectStub.__init__(self, orb, ior)
        self._ft = ft
        self._ft_lock = Lock(orb.sim, name=f"ft:{ft.key}")
        policy = ft.policy
        metrics, key = orb.sim.obs.metrics, ft.key

        def export(counter: str, amount: int, **labels) -> None:
            # Closes over the registry and the key only: a reference back to
            # the proxy or its context would tie the whole runtime into a
            # cycle that only the cyclic collector frees.
            metrics.counter(_SHIP_SERIES[counter], service=key, **labels).inc(amount)

        # The paper path (no deltas) leaves all marshalling to the stub
        # layer: no digest, no skip, every checkpoint a full store.
        ft.shipper = StateShipper(
            orb.host,
            f"ft-persist:{ft.key}",
            depth=policy.checkpoint_pipeline_depth,
            digests=policy.checkpoint_deltas,
            deltas=policy.checkpoint_deltas,
            full_interval=CHECKPOINT_FULL_INTERVAL,
            on_count=export,
        )
        if policy.ft_mode != "checkpoint" and ft.group is None:
            from repro.ft.replication import build_group

            ft.group = build_group(self)

    # -- the wrapped invocation path ------------------------------------------------

    def _locked_task(self, name: str, label: str, body) -> "SimFuture":
        """Run ``body(outer)`` (a generator) in its own process under the
        proxy lock and return ``outer``: failed with whatever escapes the
        body, resolved with None once it returns unless the body settled it
        first.  Every entry point of the proxy — wrapped calls, DII
        requests, manual controls — goes through here."""
        orb = self._orb
        outer = orb.sim.future(label=label)

        def run():
            yield self._ft_lock.acquire()
            try:
                yield from body(outer)
            finally:
                self._ft_lock.release()
            outer.try_succeed(None)

        process = orb.host.spawn(run(), name=name)
        process.add_done_callback(
            lambda p: outer.try_fail(p.exception) if p.failed else None
        )
        return outer

    def _ft_call(self, operation: str, args: tuple) -> "SimFuture":
        return self._locked_task(
            f"ft:{operation}",
            f"ft:{operation}",
            lambda outer: self._ft_call_locked(operation, args, outer),
        )

    def _ft_call_locked(
        self, operation: str, args: tuple, outer, issue=None, dii=False
    ):
        """Generator: one logical call under the proxy lock — Fig. 2's
        object-proxy *and* request-proxy path.  ``issue()`` starts one
        attempt and returns its reply future (default: the static stub
        invocation; a request proxy passes a fresh DII Request)."""
        ft = self._ft
        policy = ft.policy
        obs = self._orb.sim.obs
        attempts = 0
        # The root span of the logical call: every retry, recovery step and
        # checkpoint below shares its trace id (the context rides on this
        # process and propagates over the wire via the GIOP service context).
        with obs.tracer.span(
            f"ft:{operation}", host=self._orb.host.name, service=ft.key
        ) as span:
            if dii:
                span.set_attr("dii", True)
            if ft.group is not None:
                # Replication modes: the group owns retry, failover and
                # state transfer; no checkpoint store is involved.
                span.set_attr("mode", policy.ft_mode)
                result = yield from ft.group.call(operation, args)
                ft.calls += 1
                obs.metrics.counter("ft_calls_total", service=ft.key).inc()
                outer.try_succeed(result)
                return
            if ft._pipeline_error is not None:
                error = ft._pipeline_error
                ft._pipeline_error = None
                span.mark_error(error)
                outer.try_fail(error)
                return
            while True:
                try:
                    result = yield (
                        issue()
                        if issue is not None
                        else ObjectStub._invoke(self, operation, args)
                    )
                    break
                except RECOVERABLE as exc:
                    attempts += 1
                    ft.retries += 1
                    obs.metrics.counter(
                        "ft_retries_total", service=ft.key
                    ).inc()
                    if ft.recovery is None:
                        span.mark_error(exc)
                        outer.try_fail(exc)
                        return
                    if attempts > policy.max_call_retries:
                        error = RecoveryError(
                            f"{operation} still failing after {attempts - 1} "
                            f"recoveries"
                        )
                        span.mark_error(error)
                        outer.try_fail(error)
                        return
                    try:
                        yield from ft.recovery.recover(self)
                    except RecoveryError as recovery_error:
                        span.mark_error(recovery_error)
                        outer.try_fail(recovery_error)
                        return
            span.set_attr("attempts", attempts + 1)
            yield from self._after_success(span, outer, result)

    def _after_success(self, span, outer, result):
        """Generator: post-success bookkeeping plus the checkpoint step.
        Settles ``outer`` — in pipelined mode *before* the checkpoint work,
        otherwise after it (or fails it, per ``on_checkpoint_failure``).
        """
        ft = self._ft
        policy = ft.policy
        obs = self._orb.sim.obs
        ft.calls += 1
        obs.metrics.counter("ft_calls_total", service=ft.key).inc()
        ft._calls_since_checkpoint += 1
        if (
            ft.store is None
            or ft._calls_since_checkpoint < policy.checkpoint_interval
        ):
            outer.try_succeed(result)
            return
        if policy.checkpoint_mode == "pipelined":
            # The caller resumes now; capture + persist continue behind it
            # (capture under the lock, persist in the background).
            outer.try_succeed(result)
            yield from self._checkpoint_pipelined()
            return
        try:
            yield from self._take_checkpoint()
        except Exception as exc:  # noqa: BLE001 - policy decides
            if policy.on_checkpoint_failure == "raise":
                span.mark_error(exc)
                outer.try_fail(exc)
                return
        outer.try_succeed(result)

    def _take_checkpoint(self):
        """Fetch state from the server and persist it in the store —
        synchronously (any in-flight pipelined stores drain first, so a
        forced checkpoint never commits out of order).

        In degraded mode (``on_checkpoint_failure="degraded"``) a storage
        failure buffers the checkpoint client-side instead of raising; the
        buffer is flushed, oldest first, as soon as the store answers
        again.
        """
        ft = self._ft
        obs = self._orb.sim.obs
        started = self._orb.sim.now
        yield from ft.shipper.drain()
        with obs.tracer.span(
            "ft:checkpoint", host=self._orb.host.name, service=ft.key
        ):
            state = yield self._capture()
            shipment = ft.shipper.prepare(state, incremental=not ft.degraded)
            if shipment is None:
                ft._calls_since_checkpoint = 0
                return
            if ft.policy.on_checkpoint_failure == "degraded":
                yield from self._store_or_buffer(shipment)
            else:
                yield from self._store(shipment)
        ft.checkpoints_taken += 1
        ft._calls_since_checkpoint = 0
        obs.metrics.counter("ft_checkpoints_total", service=ft.key).inc()
        obs.metrics.histogram(
            "ft_checkpoint_seconds", service=ft.key
        ).observe(self._orb.sim.now - started)

    def _capture(self) -> "SimFuture":
        """``get_checkpoint`` on the current target; resolves to the state's
        :class:`~repro.orb.cdr.AnyImage` (or the decoded state)."""
        return self._orb.invoke(self._ior, CAPTURE_CHECKPOINT, (), reference=self)

    def _checkpoint_pipelined(self):
        """Pipelined step 3: capture the state under the proxy lock, then
        hand the store round-trip to the shipper's background window
        (bounded by ``checkpoint_pipeline_depth``: once it is full the
        *capture* stalls, which in turn stalls the next call on this proxy;
        FIFO-chained, so versions arrive at the store in order).
        """
        ft = self._ft
        orb = self._orb
        obs = orb.sim.obs
        shipper = ft.shipper
        yield from shipper.wait_for_slot()
        started = orb.sim.now
        with obs.tracer.span(
            "ft:checkpoint", host=orb.host.name, service=ft.key
        ):
            try:
                state = yield self._capture()
            except Exception as exc:  # noqa: BLE001 - policy decides
                self._note_persist_failure(exc)
                return
            # analysis: atomic-begin(pipelined-capture)
            # Capture-to-enqueue must not yield: a second call's capture
            # interleaving between version assignment and the enqueue would
            # break the version ordering the store relies on.
            shipment = shipper.prepare(state, incremental=not ft.degraded)
        ft._calls_since_checkpoint = 0
        if shipment is None:
            return
        gauge = obs.metrics.gauge("ft_checkpoint_pipeline_depth", service=ft.key)

        def settled():
            gauge.set(len(shipper.inflight))
            obs.metrics.histogram(
                "ft_checkpoint_seconds", service=ft.key
            ).observe(orb.sim.now - started)

        shipper.enqueue(shipment, self._persist_pipelined, settled)
        # analysis: atomic-end(pipelined-capture)
        gauge.set(len(shipper.inflight))
        ft.checkpoints_taken += 1
        obs.metrics.counter("ft_checkpoints_total", service=ft.key).inc()

    def _persist_pipelined(self, shipment: Shipment):
        """Background half of a pipelined checkpoint.  Never lets an
        exception escape (the call it belongs to was already acknowledged):
        degraded mode buffers, raise mode parks the error for the next
        call, ignore mode drops it."""
        if self._ft.policy.on_checkpoint_failure == "degraded":
            yield from self._store_or_buffer(shipment)
            return
        try:
            yield from self._store(shipment)
        except Exception as exc:  # noqa: BLE001 - policy decides
            self._note_persist_failure(exc)

    def _note_persist_failure(self, exc) -> None:
        ft = self._ft
        if ft.policy.on_checkpoint_failure == "raise":
            ft._pipeline_error = exc

    def _store(self, shipment: Shipment):
        """Ship one prepared checkpoint to the store (sink: delta base =
        version).  On failure, forget the delta/skip base — its content
        never reached the store — and re-raise."""
        ft = self._ft
        try:
            yield from ft.shipper.deliver(
                shipment,
                partial(ft.store.store, ft.key, shipment.version, shipment.state),
                partial(
                    ft.store.store_delta,
                    ft.key,
                    shipment.base_version,
                    shipment.version,
                    shipment.delta,
                ),
            )
        except Exception:
            ft.shipper.forget_base()
            raise

    def _store_or_buffer(self, shipment: Shipment):
        """Degraded-mode store: flush any buffered checkpoints, then store
        the new one; on a storage failure, park it client-side (the call it
        belongs to has already succeeded — losing the *call* to a storage
        outage would invert the fault-tolerance guarantee)."""
        ft = self._ft
        obs = self._orb.sim.obs
        try:
            while ft.buffered_checkpoints:
                pending_version, pending_state = ft.buffered_checkpoints[0]
                yield ft.store.store(ft.key, pending_version, pending_state)
                ft.buffered_checkpoints.pop(0)
                ft.checkpoints_flushed += 1
                obs.metrics.counter(
                    "ft_checkpoints_flushed_total", service=ft.key
                ).inc()
            yield from self._store(shipment)
        # analysis: ignore[EXC003]: buffering IS the degraded-mode handling — the flush loop retries on the next checkpoint
        except SystemException:
            ft.buffered_checkpoints.append((shipment.version, shipment.state))
            del ft.buffered_checkpoints[: -ft.policy.checkpoint_buffer_limit]
            ft.checkpoints_buffered += 1
            obs.metrics.counter(
                "ft_checkpoints_buffered_total", service=ft.key
            ).inc()
        obs.metrics.gauge(
            "ft_checkpoint_buffer_depth", service=ft.key
        ).set(len(ft.buffered_checkpoints))

    # -- manual controls (used by migration and tests) ----------------------------------

    def provision_now(self) -> "SimFuture":
        """Provision the replica group eagerly (replication modes) instead
        of on the first wrapped call.  A no-op in checkpoint mode."""
        group = self._ft.group
        return self._locked_task(
            "ft-provision",
            f"ft-provision:{self._ft.key}",
            lambda outer: group.ensure_provisioned() if group is not None else (),
        )

    def checkpoint_now(self) -> "SimFuture":
        """Force an immediate synchronous checkpoint of the current server
        state (in pipelined mode, after draining in-flight stores)."""
        return self._locked_task(
            "ft-checkpoint",
            f"ft-checkpoint:{self._ft.key}",
            lambda outer: self._take_checkpoint(),
        )

    def drain_checkpoints(self) -> "SimFuture":
        """Wait until every pipelined state shipment has settled (stored,
        buffered, acked by the standbys, or noted as failed).  A no-op in
        sync mode."""

        def drain(outer):
            yield from self._ft.shipper.drain()
            if self._ft.group is not None:
                yield from self._ft.group.drain()

        return self._locked_task("ft-drain", f"ft-drain:{self._ft.key}", drain)


def make_ft_proxy(stub_class: type, name: Optional[str] = None) -> type:
    """Generate a fault-tolerance proxy class derived from ``stub_class``.

    Every operation in the stub's table is wrapped with the
    checkpoint/recover/retry logic except the checkpoint machinery itself
    (``get_checkpoint``/``restore_from``), which must use the raw path.

    The generated class is instantiated as ``Proxy(orb, ior, ft_context)``.
    """
    if not issubclass(stub_class, ObjectStub):
        raise TypeError(f"{stub_class.__name__} is not a stub class")
    namespace: dict = {}
    for operation in stub_class.__operations__:
        if operation in CHECKPOINT_OPERATIONS:
            continue

        def wrapped(self, *args, __operation=operation):
            return self._ft_call(__operation, args)

        info = stub_class.__operations__[operation]
        wrapped.__name__ = operation
        wrapped.__doc__ = (
            f"Fault-tolerant invocation of ``{operation}"
            f"({', '.join(info.param_names)})``."
        )
        # Attribute accessors live under their stub method names.
        if operation.startswith("_get_"):
            namespace[f"get_{operation[5:]}"] = wrapped
        elif operation.startswith("_set_"):
            namespace[f"set_{operation[5:]}"] = wrapped
        else:
            namespace[operation] = wrapped
    namespace["__init__"] = _FtProxyBase.__init__
    proxy_name = name or stub_class.__name__.replace("Stub", "") + "FtProxy"
    return type(proxy_name, (_FtProxyBase, stub_class), namespace)
