"""The recovery coordinator: restart a failed service from its checkpoint.

"Using the concepts for the naming service already described, it is
possible to request a new reference to a service if a call to a server
object fails. ... it is inevitable to (a) save the state (checkpoint) of
the server object ... and (b) have the opportunity to restore this state
in a newly created server object." (§3)

The recovery path, end to end:

1. resolve the **factory service group** through the load-distributing
   naming service — Winner picks the best surviving host;
2. ask that host's factory to ``create`` a fresh servant of the service's
   type (retrying elsewhere if the chosen factory is itself dead);
3. load the latest checkpoint from the checkpoint store and
   ``restore_from`` it on the new object;
4. rebind the caller's proxy to the new reference and (optionally) swap
   the dead replica for the new one in the service's own naming group.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import (
    COMM_FAILURE,
    OBJECT_NOT_EXIST,
    RecoveryError,
    SystemException,
    TIMEOUT,
    TRANSIENT,
)
from repro.ft.breaker import HostBreakerRegistry
from repro.ft.checkpointable import CheckpointableStub
from repro.ft.factory import ObjectFactoryStub, UnknownType
from repro.ft.policy import FtPolicy
from repro.services.checkpoint import NoCheckpoint
from repro.services.naming import idl as naming_idl
from repro.services.naming.names import to_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb

#: exceptions that mean "the target is gone (or unreachable); recovery may
#: help".  TIMEOUT joins the list for gray failures: a partitioned or
#: wedged host never answers, so with an ORB request timeout configured the
#: stalled call surfaces here instead of hanging the proxy forever.
RECOVERABLE = (COMM_FAILURE, OBJECT_NOT_EXIST, TRANSIENT, TIMEOUT)

#: the subset of RECOVERABLE that clearly blames the *target host* (a
#: TRANSIENT may come from a backend service, e.g. the checkpoint store
#: during an outage, and must not trip the target host's breaker).
HOST_BLAMING = (COMM_FAILURE, OBJECT_NOT_EXIST, TIMEOUT)

RESTORE_FROM = CheckpointableStub.__operations__["restore_from"]

#: the naming-service group every host's object factory is bound under.
FACTORY_GROUP = "factories.service"


class RecoveryCoordinator:
    """Client-side orchestration of checkpoint/restart recovery."""

    def __init__(
        self,
        orb: "Orb",
        naming,  # LoadDistributingNamingContextStub
        store,  # CheckpointStoreStub
        factory_group: str = FACTORY_GROUP,
        policy: Optional[FtPolicy] = None,
        breakers: Optional[HostBreakerRegistry] = None,
    ) -> None:
        self.orb = orb
        self.naming = naming
        self.store = store
        self.factory_group = to_name(factory_group)
        self.policy = policy or FtPolicy()
        #: shared per-host circuit breakers (None = breakers disabled).
        self.breakers = breakers
        #: in-flight recoveries by service key (single-flight coalescing:
        #: concurrent failed calls to the same service trigger ONE restart,
        #: not one per call).
        self._inflight: dict[str, object] = {}
        #: counters for the recovery bench
        self.recoveries = 0
        self.failed_recoveries = 0
        self.recovery_time_total = 0.0
        self.coalesced = 0
        #: recovery-attempt accounting (the chaos bench compares these
        #: between fixed-backoff and breaker-guarded configurations).
        self.attempts_total = 0
        self.factory_failures = 0
        self.breaker_skips = 0
        self.deadline_failures = 0
        #: replica-group provisioning (replication modes).
        self.replica_provisions = 0
        self.replica_provision_failures = 0

    # -- main entry point -----------------------------------------------------

    def recover(self, proxy):
        """Generator: restart ``proxy``'s service; rebinds the proxy.

        Concurrent recoveries of the same service key are coalesced: the
        first caller performs the restart, the rest wait for its outcome
        and simply rebind.  Raises :class:`RecoveryError` when no factory
        host works or the service has no registered type to restart.
        """
        sim = self.orb.sim
        context = proxy._ft
        # Pipelined mode: settle every in-flight checkpoint store first.
        # The failing call holds the proxy lock, so no new captures can
        # start; persists that fail against a down store land in the
        # degraded buffer, which _restore already prefers when newer.
        yield from context.shipper.drain()
        inflight = self._inflight.get(context.key)
        if inflight is not None:
            self.coalesced += 1
            new_ior = yield inflight  # raises if the restart fails
            proxy._rebind(new_ior)
            return new_ior
        future = sim.future(label=f"recovery:{context.key}")
        self._inflight[context.key] = future
        try:
            new_ior = yield from self._recover_now(proxy)
        except BaseException as exc:
            future.try_fail(exc)
            raise
        finally:
            self._inflight.pop(context.key, None)
        future.try_succeed(new_ior)
        return new_ior

    def _recover_now(self, proxy):
        sim = self.orb.sim
        started = sim.now
        context = proxy._ft
        dead_ior = proxy.ior
        with sim.obs.tracer.span(
            "ft:recover",
            host=self.orb.host.name,
            service=context.key,
            dead_host=dead_ior.host,
        ) as span:
            new_ior = yield from self._recover_attempts(
                proxy, span, started, dead_ior
            )
        return new_ior

    def _recover_attempts(self, proxy, span, started, dead_ior):
        sim = self.orb.sim
        policy = self.policy
        context = proxy._ft
        if self.breakers is not None:
            # The failed call is evidence against the dead host: feed the
            # breaker so re-resolution steers around it immediately.
            self.breakers.record_failure(dead_ior.host)
        rng = sim.rng("ft-backoff")
        last_error: Optional[BaseException] = None
        delay = 0.0
        for attempt in range(policy.max_recover_attempts):
            if attempt:
                delay = policy.backoff_delay(delay, rng)
                if policy.recovery_deadline is not None:
                    remaining = policy.recovery_deadline - (sim.now - started)
                    delay = min(delay, max(0.0, remaining))
                yield sim.timeout(delay)
            if (
                policy.recovery_deadline is not None
                and sim.now - started >= policy.recovery_deadline
            ):
                self.deadline_failures += 1
                self.failed_recoveries += 1
                sim.obs.metrics.counter(
                    "ft_recovery_deadline_exceeded_total", service=context.key
                ).inc()
                sim.obs.metrics.counter(
                    "ft_failed_recoveries_total", service=context.key
                ).inc()
                raise RecoveryError(
                    f"recovery of {context.key} exceeded its "
                    f"{policy.recovery_deadline}s deadline "
                    f"(after {attempt} attempts)"
                ) from last_error
            self.attempts_total += 1
            try:
                factory_ior = yield self.naming.resolve(self.factory_group)
            except naming_idl.NotFound as exc:
                raise RecoveryError(
                    f"factory group {self.factory_group!r} is not bound"
                ) from exc
            new_ior, error = yield from self._create_on(
                factory_ior, "create", context.type_name
            )
            if new_ior is None:
                # A breaker skip counts as an attempt, so a fully
                # blacklisted group still terminates.
                last_error = error or RecoveryError(
                    f"circuit breaker open for host {factory_ior.host}"
                )
                continue
            try:
                yield from self._restore(context, new_ior)
            except RECOVERABLE as exc:
                last_error = exc
                self._blame(new_ior.host, exc)
                continue  # new host died during restore; start over

            yield from self._swap_group_binding(context, dead_ior, new_ior)
            proxy._rebind(new_ior)
            self.recoveries += 1
            elapsed = sim.now - started
            self.recovery_time_total += elapsed
            span.set_attr("attempts", attempt + 1)
            span.set_attr("new_host", new_ior.host)
            sim.obs.metrics.counter(
                "ft_recoveries_total", service=context.key
            ).inc()
            sim.obs.metrics.histogram(
                "ft_recovery_seconds", service=context.key
            ).observe(elapsed)
            return new_ior
        self.failed_recoveries += 1
        sim.obs.metrics.counter(
            "ft_failed_recoveries_total", service=context.key
        ).inc()
        raise RecoveryError(
            f"recovery of {context.key} failed after "
            f"{self.policy.max_recover_attempts} attempts"
        ) from last_error

    # -- replica-group provisioning (replication modes) ---------------------------

    def provision_member(
        self,
        context,
        group_id: str,
        exclude_hosts: frozenset = frozenset(),
        seed_state=None,
    ):
        """Generator: create one replica-group member via the factory
        group, preferring hosts outside ``exclude_hosts`` (replicas on
        distinct hosts are the whole point of a group).

        Seeds the new member with ``seed_state`` when given — a raw
        servant checkpoint or a member-state envelope; either way no
        checkpoint-store round trip is involved.  Returns the member's
        IOR, or None when no factory host worked (the group degrades
        redundancy instead of failing the wrapped call).
        """
        sim = self.orb.sim
        policy = self.policy
        rng = sim.rng("ft-backoff")
        delay = 0.0
        for attempt in range(policy.max_recover_attempts):
            if attempt:
                delay = policy.backoff_delay(delay, rng)
                yield sim.timeout(delay)
            self.attempts_total += 1
            try:
                factories = yield self.naming.resolve_all(self.factory_group)
            except naming_idl.NotFound as exc:
                raise RecoveryError(
                    f"factory group {self.factory_group!r} is not bound"
                ) from exc
            preferred = [
                ior for ior in factories if ior.host not in exclude_hosts
            ]
            for factory_ior in preferred or list(factories):
                member_ior, _ = yield from self._create_on(
                    factory_ior, "create_member", context.type_name, group_id
                )
                if member_ior is None:
                    continue
                if seed_state is not None:
                    try:
                        yield self.orb.invoke(
                            member_ior, RESTORE_FROM, (seed_state,)
                        )
                    except RECOVERABLE as exc:
                        self._blame(member_ior.host, exc)
                        continue
                self.replica_provisions += 1
                sim.obs.metrics.counter(
                    "ft_replica_provisions_total", group=group_id
                ).inc()
                return member_ior
        self.replica_provision_failures += 1
        return None

    # -- steps -------------------------------------------------------------------

    def _create_on(self, factory_ior, operation: str, type_name: str, *args):
        """Generator: one attempt at one factory host — breaker gate →
        ``create`` / ``create_member`` → blame, drop or record.  Returns
        ``(new_ior, None)``, ``(None, error)`` when the factory host is dead
        too, or ``(None, None)`` when its breaker is open (the doomed round
        trip is skipped)."""
        host = factory_ior.host
        if self.breakers is not None and not self.breakers.allow(host):
            self.breaker_skips += 1
            self.orb.sim.obs.metrics.counter(
                "ft_recovery_breaker_skips_total", host=host
            ).inc()
            return None, None
        factory = self.orb.stub(factory_ior, ObjectFactoryStub)
        try:
            new_ior = yield getattr(factory, operation)(type_name, *args)
        except UnknownType as exc:
            raise RecoveryError(
                f"no factory knows type {type_name!r}"
            ) from exc
        except RECOVERABLE as exc:
            # Drop the dead factory from the group so the naming service
            # stops offering it; the caller tries again elsewhere.
            self.factory_failures += 1
            self._blame(host, exc)
            yield from self._drop_replica(self.factory_group, factory_ior)
            return None, exc
        if self.breakers is not None:
            self.breakers.record_success(host)
        return new_ior, None

    def _blame(self, host: str, exc: BaseException) -> None:
        """Feed the host's breaker — only for failures that clearly blame
        the target host (see :data:`HOST_BLAMING`)."""
        if self.breakers is not None and isinstance(exc, HOST_BLAMING):
            self.breakers.record_failure(host)

    def _restore(self, context, new_ior):
        """Restore the newest checkpoint onto ``new_ior``.

        Checkpoints buffered client-side by degraded mode (storage outage)
        take precedence over the store's copy when they are newer — and
        stand in for it entirely while the store is unreachable, so a
        service can be recovered *during* a storage outage.
        """
        key = context.key
        buffered = context.latest_buffered()
        store_version: Optional[int] = None
        if buffered is not None:
            try:
                store_version = yield self.store.latest_version(key)
            except (NoCheckpoint, *RECOVERABLE):
                store_version = None
        if buffered is not None and (
            store_version is None or buffered[0] > store_version
        ):
            state = buffered[1]
            self.orb.sim.obs.metrics.counter(
                "ft_restores_from_buffer_total", service=key
            ).inc()
        else:
            try:
                state = yield self.store.load(key)
            except NoCheckpoint:
                return  # stateless service (or nothing checkpointed yet)
            except RECOVERABLE:
                if buffered is None:
                    raise  # store down and nothing buffered: cannot restore
                state = buffered[1]
        yield self.orb.invoke(new_ior, RESTORE_FROM, (state,))

    def _drop_replica(self, group_name, dead_ior):
        try:
            yield self.naming.unbind_service(group_name, dead_ior)
        except (naming_idl.NotFound, SystemException):
            pass  # someone else already removed it

    def _swap_group_binding(self, context, dead_ior, new_ior):
        if context.group_name is None:
            return
        group = to_name(context.group_name)
        yield from self._drop_replica(group, dead_ior)
        try:
            yield self.naming.bind_service(group, new_ior)
        except naming_idl.AlreadyBound:
            pass
