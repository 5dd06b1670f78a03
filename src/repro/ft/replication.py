"""First-class replication groups: warm-passive and active FT.

"Especially for applications with a maximum degree of parallelism ... it
is not desirable to use a large amount of the computational resources
(i.e. hosts in the network) exclusively for availability purposes as in
the case of active replication." (§3)

The paper makes that argument and then builds checkpoint/restart.  To
make the trade *measurable* the alternatives are implemented for real —
not as bench mock-ups but as proxy-integrated replication modes selected
by :class:`~repro.ft.policy.FtPolicy.ft_mode`:

* **warm-passive** (:class:`WarmPassiveGroup`) — the primary executes,
  its post-call state is shipped to warm standbys (by the same
  :class:`~repro.ft.shipping.StateShipper` the checkpoint path uses, with
  the standbys as sinks); on a failed call or
  a FailureDetector suspicion a standby is *promoted* without any
  checkpoint-store round trip.
* **active** (:class:`ActiveGroup`) — every replica executes every call;
  replies are majority-voted, so up to ``r - quorum`` failures are masked
  with zero failover latency at ~r× the CPU cost.

Exactly-once is carried by a **logical request id** in a GIOP service
context: every server-side replica is wrapped in a
:class:`ReplicatedServant` that suppresses duplicate applies per request
id, and the reply cache *travels inside the shipped state*, so a standby
promoted (or a replacement seeded) mid-retry still refuses to re-apply a
request its lineage has already seen.
"""

from __future__ import annotations

import inspect
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    RecoveryError,
    UserException,
)
from repro.ft.checkpointable import (
    CAPTURE_CHECKPOINT,
    CHECKPOINT_OPERATIONS,
    CheckpointableStub,
)
from repro.ft.detector import FailureDetector
from repro.ft.recovery import RECOVERABLE
from repro.ft.shipping import Shipment, StateShipper
from repro.orb.cdr import encode_any
from repro.orb.core import Servant
from repro.services.checkpoint import BadDeltaBase, apply_delta, state_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.ior import IOR
    from repro.sim.events import SimFuture

#: GIOP service context carrying the logical request id ("FTRQ").
REQUEST_ID_SERVICE_CONTEXT = 0x46545251

#: key marking a state payload as a member-state envelope (inner state +
#: reply cache) rather than a raw servant checkpoint.
MEMBER_STATE_MARK = "__ft_member_state__"

#: key marking a state ship as a delta against the standby's acked state.
SHIP_DELTA_MARK = "__ft_ship_delta__"

#: replies remembered per replica.  The per-proxy FIFO lock admits one
#: logical request at a time, so a small window is enough to cover every
#: retry of the requests that can still be in flight.
REPLY_CACHE_LIMIT = 32


class ReplicatedServant(Servant):
    """Server-side wrapper giving any servant exactly-once semantics.

    Created by the factory's ``create_member``: delegates every IDL
    operation to the wrapped servant, but when the request carries a
    logical request id (the replication proxies always attach one) the
    apply is recorded per id — a retried request returns the cached reply
    instead of executing twice.  ``get_checkpoint``/``restore_from`` wrap
    and unwrap the reply cache together with the inner state, so the
    dedup history survives state ships, promotions and re-seeding.
    """

    def __init__(self, inner: Servant, group_id: str) -> None:
        # _inner must exist before anything else: __getattr__ consults it.
        self._inner = inner
        self.group_id = group_id
        self.__operations__ = dict(type(inner).__operations__)
        self.__repo_id__ = inner.__repo_id__
        self.ior: Optional["IOR"] = None
        #: request id → cached reply (insertion-ordered, bounded).
        self._replies: dict = {}
        #: request id → future of an apply still executing (a racing
        #: duplicate waits on it instead of starting a second apply).
        self._inflight: dict = {}
        self._ship_base: Optional[dict] = None
        self._ship_digest: Optional[str] = None
        # audit counters (the chaos no-stale-primary invariant reads the
        # timestamps; the report aggregates the rest).
        self.dispatches = 0
        self.applies = 0
        self.duplicates_suppressed = 0
        self.state_restores = 0
        #: highest request sequence number ever delivered here — compared
        #: against the group's seq-at-retirement to detect stale sends.
        self.last_request_seq = 0
        self.last_dispatch_at: Optional[float] = None
        self.last_applied_at: Optional[float] = None

    def adopt(self, ior: "IOR") -> None:
        """Record the activated IOR and mirror the POA plumbing onto the
        inner servant so its ``_this()``/``_host()`` keep working."""
        self.ior = ior
        self._inner._poa = self._poa
        self._inner._object_key = self._object_key

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(name)
        operations = self.__dict__.get("__operations__") or {}
        if name in operations and name not in CHECKPOINT_OPERATIONS:
            return self._operation_dispatcher(name)
        return getattr(inner, name)

    def _operation_dispatcher(self, operation: str):
        inner_method = getattr(self._inner, operation)

        def dispatch(*args):
            orb = self._poa.orb  # type: ignore[union-attr]
            self.dispatches += 1
            self.last_dispatch_at = orb.sim.now
            request_key = None
            # Synchronous prefix of the dispatch: the ORB set
            # current_service_contexts immediately before calling us.
            for context_id, data in orb.current_service_contexts:
                if context_id == REQUEST_ID_SERVICE_CONTEXT:
                    request_key = bytes(data).decode("utf-8")
                    break
            if request_key is None:
                # Direct (unreplicated) caller: nothing to dedup against.
                return inner_method(*args)
            seq = request_key.rsplit(":", 1)[-1]
            if seq.isdigit():
                self.last_request_seq = max(
                    self.last_request_seq, int(seq)
                )
            return self._deduped(request_key, operation, inner_method, args)

        dispatch.__name__ = operation
        return dispatch

    def _deduped(self, request_key: str, operation: str, inner_method, args):
        """Generator: apply ``operation`` at most once per request id."""
        sim = self._poa.orb.sim  # type: ignore[union-attr]
        while True:
            if request_key in self._replies:
                self.duplicates_suppressed += 1
                sim.obs.metrics.counter(
                    "ft_duplicates_suppressed_total", group=self.group_id
                ).inc()
                return self._replies[request_key]
            inflight = self._inflight.get(request_key)
            if inflight is not None:
                # A retry raced the original execution: wait, then
                # re-check (a failed apply leaves no cached reply, so the
                # retry executes; a successful one hits the cache above).
                yield inflight
                continue
            # analysis: atomic-begin(register-inflight)
            # Registering the in-flight marker must not yield — a racing
            # duplicate could otherwise start a second apply.
            future = sim.future(label=f"ft-apply:{request_key}")
            self._inflight[request_key] = future
            # analysis: atomic-end(register-inflight)
            try:
                result = inner_method(*args)
                if inspect.isgenerator(result):
                    result = yield from result
                # analysis: atomic-begin(record-reply)
                # Reply recording happens before any waiter resumes (done
                # callbacks run at the next scheduler step).
                self._replies[request_key] = result
                self.applies += 1
                self.last_applied_at = sim.now
                while len(self._replies) > REPLY_CACHE_LIMIT:
                    self._replies.pop(next(iter(self._replies)))
                # analysis: atomic-end(record-reply)
                return result
            finally:
                if self._inflight.get(request_key) is future:
                    del self._inflight[request_key]
                future.try_succeed(None)

    # -- state transfer (the envelope carries the reply cache) ---------------------

    def _wrap_state(self, state) -> dict:
        return {
            MEMBER_STATE_MARK: 1,
            "state": state,
            "replies": dict(self._replies),
        }

    def get_checkpoint(self):
        result = self._inner.get_checkpoint()
        if inspect.isgenerator(result):
            return self._capture_checkpoint(result)
        return self._wrap_state(result)

    def _capture_checkpoint(self, gen):
        state = yield from gen
        return self._wrap_state(state)

    def restore_from(self, payload):
        # Synchronous prefix of the upcall: the body this payload was
        # decoded from is its encoding, so hashing it stands in for
        # marshalling the payload again (None when called directly).
        body = self._poa.orb.current_request_body if self._poa else None
        digest: Optional[str] = None
        if isinstance(payload, dict) and SHIP_DELTA_MARK in payload:
            envelope = payload
            if (
                self._ship_base is None
                or self._ship_digest != envelope.get("base")
            ):
                # Our acked state is not the delta's base (we missed a
                # ship): the group falls back to a full state transfer.
                raise BadDeltaBase(key=self.group_id, expected=0, got=0)
            payload = apply_delta(self._ship_base, envelope[SHIP_DELTA_MARK])
            digest = envelope.get("target")
        if isinstance(payload, dict) and MEMBER_STATE_MARK in payload:
            self._ship_base = payload
            if digest is None:
                digest = state_digest(
                    body if body is not None else encode_any(payload)
                )
            self._ship_digest = digest
            self._replies = dict(payload.get("replies") or {})
            inner_state = payload.get("state")
        else:
            # Raw servant state (e.g. seeded straight from the origin
            # object at provisioning): no dedup history travels with it.
            self._ship_base = None
            self._ship_digest = None
            self._replies = {}
            inner_state = payload
        self.state_restores += 1
        return self._inner.restore_from(inner_state)

    def snapshot(self) -> dict:
        return {
            "group": self.group_id,
            "host": self.ior.host if self.ior is not None else None,
            "dispatches": self.dispatches,
            "applies": self.applies,
            "duplicates_suppressed": self.duplicates_suppressed,
            "state_restores": self.state_restores,
            "last_request_seq": self.last_request_seq,
        }


class _Member:
    """One replica: its IOR plus the digest of the last state it acked."""

    __slots__ = ("ior", "acked_digest")

    def __init__(
        self, ior: "IOR", acked_digest: Optional[str] = None
    ) -> None:
        self.ior = ior
        self.acked_digest = acked_digest


class ReplicaGroup:
    """Client-side replica-group machinery shared by both modes.

    Built lazily by the FT proxy when ``policy.ft_mode`` selects a
    replication mode; all entry points run under the proxy's FIFO lock,
    so group state never sees two logical requests interleaved.
    """

    mode = "?"

    def __init__(self, proxy) -> None:
        ft = proxy._ft
        if ft.recovery is None:
            raise ConfigurationError(
                f"ft_mode={ft.policy.ft_mode!r} needs a recovery coordinator"
                " (the factory group provisions the replicas)"
            )
        self._proxy = proxy
        self._orb = proxy._orb
        self._ft = ft
        self._policy = ft.policy
        self._recovery = ft.recovery
        self.members: list[_Member] = []
        #: ``(ior, sim-time, request-seq)`` of every member removed from
        #: the group — the chaos ``no-stale-primary`` invariant compares a
        #: replica's highest delivered request seq against the seq issued
        #: by the time it was retired (a higher one means a *new* request
        #: reached a dead incarnation after failover).
        self.retired: list[tuple["IOR", float, int]] = []
        self.provisioned = False
        self._request_seq = 0
        #: ships member-state envelopes to the standbys (warm-passive) and
        #: holds the newest one (``last_state`` / ``last_digest``) — promotion
        #: sync and replacement seeding use it instead of any checkpoint
        #: store.  Its counters are the group's shipping counters.
        self.shipper = StateShipper(
            self._orb.host,
            f"ft-ship:{ft.key}",
            depth=ft.policy.checkpoint_pipeline_depth,
            deltas=ft.policy.checkpoint_deltas,
        )
        self._detector: Optional[FailureDetector] = None
        self._replacing = False
        # counters (surfaced through runtime_report's replication section)
        self.calls = 0
        self.promotions = 0
        self.lead_changes = 0
        self.replacements = 0
        self.replacement_failures = 0
        self.votes = 0
        self.vote_rounds = 0
        self.divergences = 0
        self.resyncs = 0

    # -- identity and plumbing ------------------------------------------------------

    @property
    def group_id(self) -> str:
        return self._ft.key

    def _op_info(self, operation: str):
        operations = type(self._proxy).__operations__
        if operation in operations:
            return operations[operation]
        return CheckpointableStub.__operations__[operation]

    def _invoke(
        self, ior: "IOR", operation: str, args: tuple, contexts: tuple = ()
    ) -> "SimFuture":
        return self._orb.invoke(
            ior, self._op_info(operation), args, service_contexts=contexts
        )

    def _capture(self, ior: "IOR") -> "SimFuture":
        """``get_checkpoint`` on ``ior``; resolves to the state's
        :class:`~repro.orb.cdr.AnyImage` (or the decoded state)."""
        return self._orb.invoke(ior, CAPTURE_CHECKPOINT, ())

    def _next_request_context(self) -> tuple:
        self._request_seq += 1
        request_key = f"{self._ft.key}:{self._request_seq}"
        return ((REQUEST_ID_SERVICE_CONTEXT, request_key.encode("utf-8")),)

    # -- provisioning ---------------------------------------------------------------

    def ensure_provisioned(self):
        """Generator: build the replica group on first use (lock held).

        Seeds every member from the origin object's *raw* checkpoint, then
        retires the origin from the naming group in favour of the lead.
        Yield-free once provisioned.
        """
        if self.provisioned:
            return
        sim = self._orb.sim
        proxy = self._proxy
        origin = proxy.ior
        try:
            seed = yield self._capture(origin)
        # analysis: ignore[EXC003]: Seeding the new replica group from the origin object is best-effort: an origin that is already dead simply means the members start from fresh state, and provisioning then retires the origin from the naming group anyway.
        except RECOVERABLE:
            seed = None  # origin already dead: members start fresh
        # Replicas avoid the caller's host (a soft preference — the
        # factory group falls back to it when nothing else is alive):
        # co-locating a replica with the client voids its independence.
        exclude: set[str] = {self._orb.host.name}
        while len(self.members) < self._policy.replication_factor:
            member_ior = yield from self._recovery.provision_member(
                self._ft,
                self.group_id,
                exclude_hosts=frozenset(exclude),
                seed_state=seed,
            )
            if member_ior is None:
                if len(self.members) >= 2:
                    break  # degraded redundancy is still a group
                raise RecoveryError(
                    f"cannot provision replica group {self.group_id}: only"
                    f" {len(self.members)} member(s) could be created"
                )
            exclude.add(member_ior.host)
            # analysis: ignore[RACE004]: group dispatch enters via ft.group.call inside _FtProxyBase._locked_task, which holds the proxy's _ft_lock for the whole call; the attribute dispatch hides that lock from the lockset inference
            self.members.append(_Member(member_ior))
        # analysis: ignore[RACE002]: the provisioned latch is read and flipped under the proxy's _ft_lock held by _FtProxyBase._locked_task across the whole group dispatch; no second process can enter this window
        self.provisioned = True
        lead = self.members[0].ior
        yield from self._recovery._swap_group_binding(self._ft, origin, lead)
        proxy._rebind(lead)
        self._watch_lead()
        sim.obs.metrics.gauge(
            "ft_replica_group_size", group=self.group_id
        ).set(len(self.members))

    # -- failure detector -------------------------------------------------------------

    def _watch_lead(self) -> None:
        policy = self._policy
        if policy.detector_interval <= 0 or not self.members:
            return
        if self._detector is None:
            self._detector = FailureDetector(
                self._orb,
                interval=policy.detector_interval,
            )
        self._detector.watch(
            self.group_id, self.members[0].ior, self._on_lead_suspect
        )

    def _on_lead_suspect(self, key: str, ior: "IOR") -> None:
        self._orb.host.spawn(
            self._suspect_promote(ior), name=f"ft-suspect:{self.group_id}"
        )

    def _suspect_promote(self, ior: "IOR"):
        yield self._proxy._ft_lock.acquire()
        try:
            if self.members and self.members[0].ior == ior:
                yield from self._handle_dead_lead()
        except RecoveryError:
            pass  # the next call through the proxy recovers the lead
        finally:
            self._proxy._ft_lock.release()

    def _handle_dead_lead(self):
        raise NotImplementedError
        yield  # pragma: no cover

    # -- membership -------------------------------------------------------------------

    # analysis: atomic: retirement record + breaker + connection-cache invalidation form one indivisible step
    def _retire(self, member: _Member) -> None:
        """Remove ``member`` and invalidate every cache naming its dead
        incarnation, so no post-promotion call can reach it."""
        sim = self._orb.sim
        if member in self.members:
            self.members.remove(member)
        self.retired.append((member.ior, sim.now, self._request_seq))
        breakers = self._recovery.breakers
        if breakers is not None:
            breakers.record_failure(member.ior.host)
        if self._orb.connections is not None:
            self._orb.connections.invalidate_endpoint(
                (member.ior.host, member.ior.port, member.ior.incarnation)
            )
        sim.obs.metrics.counter(
            "ft_replicas_retired_total", group=self.group_id
        ).inc()
        sim.obs.metrics.gauge(
            "ft_replica_group_size", group=self.group_id
        ).set(len(self.members))

    def _capture_seed(self):
        """Generator: payload to seed a replacement member with."""
        yield from ()
        return self.shipper.newest()

    def _replace_now(self):
        """Generator: re-provision up to ``replication_factor`` (lock
        held).  Failures degrade redundancy, never the caller's call."""
        while len(self.members) < self._policy.replication_factor:
            exclude = frozenset(
                member.ior.host for member in self.members
            ) | {self._orb.host.name}
            seed = yield from self._capture_seed()
            member_ior = yield from self._recovery.provision_member(
                self._ft,
                self.group_id,
                exclude_hosts=exclude,
                seed_state=seed,
            )
            if member_ior is None:
                self.replacement_failures += 1
                return
            acked = (
                self.shipper.last_digest
                if seed is not None and seed is self.shipper.newest()
                else None
            )
            # analysis: ignore[RACE004]: every caller holds the proxy's _ft_lock — _replace_bg and _finish_round acquire it explicitly, and the group.call entries run under _FtProxyBase._locked_task's hold; the analysis cannot follow the ft.group.call attribute dispatch
            self.members.append(_Member(member_ior, acked_digest=acked))
            self.replacements += 1
            self._orb.sim.obs.metrics.counter(
                "ft_replacements_total", group=self.group_id
            ).inc()
            self._orb.sim.obs.metrics.gauge(
                "ft_replica_group_size", group=self.group_id
            ).set(len(self.members))

    # analysis: atomic
    def _schedule_replacement(self) -> None:
        """Backfill lost redundancy in the background (single-flight).

        The check-and-set on ``_replacing`` is correct *because* this
        function is yield-free (spawn only hands the generator to the
        scheduler) — the atomic annotation makes the checker prove it.
        """
        if (
            self._replacing
            or len(self.members) >= self._policy.replication_factor
        ):
            return
        self._replacing = True
        self._orb.host.spawn(
            self._replace_bg(), name=f"ft-replace:{self.group_id}"
        )

    def _replace_bg(self):
        yield self._proxy._ft_lock.acquire()
        try:
            yield from self._replace_now()
        finally:
            self._replacing = False
            self._proxy._ft_lock.release()

    # -- hooks for the proxy ------------------------------------------------------------

    def call(self, operation: str, args: tuple):
        raise NotImplementedError
        yield  # pragma: no cover

    def drain(self):
        """Generator: wait for background state transfers (if any)."""
        yield from ()

    def snapshot(self) -> dict:
        shipper = self.shipper
        return {
            "mode": self.mode,
            "group": self.group_id,
            "members": len(self.members),
            "member_hosts": [member.ior.host for member in self.members],
            "retired": len(self.retired),
            "calls": self.calls,
            "promotions": self.promotions,
            "lead_changes": self.lead_changes,
            "state_ships_full": shipper.fulls,
            "state_ships_delta": shipper.deltas,
            "ship_skips": shipper.skipped,
            "ship_bytes": shipper.bytes,
            "delta_fallbacks": shipper.fallbacks,
            "replacements": self.replacements,
            "replacement_failures": self.replacement_failures,
            "votes": self.votes,
            "vote_rounds": self.vote_rounds,
            "divergences": self.divergences,
            "resyncs": self.resyncs,
        }


class WarmPassiveGroup(ReplicaGroup):
    """Primary executes; standbys hold shipped state; failover promotes.

    The recovery path never touches the checkpoint store: the newest
    member-state envelope lives client-side (``shipper.last_state``) and
    on the standbys, so promotion is a naming swap plus (at most) one
    state sync to the chosen standby.
    """

    mode = "warm-passive"

    def call(self, operation: str, args: tuple):
        yield from self.ensure_provisioned()
        policy = self._policy
        self.calls += 1
        contexts = self._next_request_context()
        attempts = 0
        while True:
            if not self.members:
                raise RecoveryError(
                    f"replica group {self.group_id} has no members left"
                )
            primary = self.members[0]
            step = "call"
            try:
                result = yield self._invoke(
                    primary.ior, operation, args, contexts
                )
                # Capture the post-call state.  A primary dying between the
                # reply and this capture loses nothing: the SAME request id
                # is re-executed on the promoted standby, whose lineage has
                # not applied it — duplicate suppression keeps it
                # exactly-once on every lineage that has.
                step = "capture"
                payload = yield self._capture(primary.ior)
            except RECOVERABLE as exc:
                attempts += 1
                self._ft.retries += 1
                self._orb.sim.obs.metrics.counter(
                    "ft_retries_total", service=self._ft.key
                ).inc()
                if attempts > policy.max_call_retries:
                    raise RecoveryError(
                        f"{operation}: {step} still failing after"
                        f" {attempts - 1} failovers"
                    ) from exc
                yield from self._promote(primary)
                continue
            yield from self._ship(payload)
            return result

    # -- state shipping ----------------------------------------------------------------

    def _ship(self, payload):
        """Generator: get the captured envelope to the standbys — inline,
        or through the shipper's bounded FIFO window when pipelined."""
        shipper = self.shipper
        pipelined = self._policy.checkpoint_mode == "pipelined"
        if pipelined:
            yield from shipper.wait_for_slot()
        # analysis: atomic-begin(capture-to-enqueue)
        # Digest bookkeeping + enqueue must not yield — a later capture
        # interleaving would reorder ships.
        shipment = shipper.prepare(payload)
        if shipment is None:
            return
        if pipelined:
            shipper.enqueue(shipment, self._ship_to_standbys)
            return
        # analysis: atomic-end(capture-to-enqueue)
        yield from self._ship_to_standbys(shipment)

    def _ship_to_standbys(self, shipment: Shipment):
        """Sink: each standby, delta base = the digest it last acked."""
        for member in list(self.members[1:]):
            if member not in self.members:
                continue  # retired while this ship was in flight
            if member.acked_digest == shipment.digest:
                continue
            restore = partial(self._invoke, member.ior, "restore_from")
            send_delta = None
            if (
                shipment.base_digest is not None
                and member.acked_digest == shipment.base_digest
            ):
                envelope = {
                    SHIP_DELTA_MARK: shipment.delta,
                    "base": shipment.base_digest,
                    "target": shipment.digest,
                }
                send_delta = partial(restore, (envelope,))
            try:
                yield from self.shipper.deliver(
                    shipment, partial(restore, (shipment.payload,)), send_delta
                )
            # analysis: ignore[EXC003]: a dead standby reduces redundancy, not correctness — retired and backfilled in the background
            except RECOVERABLE:
                self._retire(member)
                self._schedule_replacement()
                continue
            member.acked_digest = shipment.digest
        self._orb.sim.obs.metrics.counter(
            "ft_state_ships_total", group=self.group_id
        ).inc()

    def drain(self):
        yield from self.shipper.drain()

    # -- failover ----------------------------------------------------------------------

    def _handle_dead_lead(self):
        if self.members:
            yield from self._promote(self.members[0])

    def _promote(self, dead: _Member):
        """Generator: fail over to a standby — no checkpoint-store round
        trip; at most one state sync when the standby missed a ship."""
        sim = self._orb.sim
        started = sim.now
        yield from self.shipper.drain()
        # Nothing is captured while the lock is held: the newest envelope
        # and its digest are fixed for the whole promotion.
        newest, digest = self.shipper.newest(), self.shipper.last_digest
        if dead in self.members:
            self._retire(dead)
        candidate = self._pick_candidate()
        while True:
            if candidate is None:
                # Last resort: every standby is gone too — re-provision
                # from the client-held envelope (still no store involved).
                member_ior = yield from self._recovery.provision_member(
                    self._ft,
                    self.group_id,
                    exclude_hosts=frozenset((dead.ior.host,)),
                    seed_state=newest,
                )
                if member_ior is None:
                    raise RecoveryError(
                        f"no standby left to promote in group"
                        f" {self.group_id}"
                    )
                candidate = _Member(member_ior, acked_digest=digest)
                self.members.append(candidate)
            if newest is not None and candidate.acked_digest != digest:
                # The standby missed the newest ship: sync it before it
                # takes traffic (its reply cache rides in the envelope).
                try:
                    yield self._invoke(
                        candidate.ior, "restore_from", (newest,)
                    )
                    candidate.acked_digest = digest
                # analysis: ignore[EXC003]: the chosen standby is dead too — retired, and the loop picks the next candidate
                except RECOVERABLE:
                    self._retire(candidate)
                    candidate = self._pick_candidate()
                    continue
            break
        if candidate in self.members:
            self.members.remove(candidate)
        self.members.insert(0, candidate)
        # Naming swap: bind_service/unbind_service invalidate the resolve
        # cache server-side, so no resolver can be handed the dead
        # incarnation after this point.
        yield from self._recovery._swap_group_binding(
            self._ft, dead.ior, candidate.ior
        )
        self._proxy._rebind(candidate.ior)
        self._watch_lead()
        self.promotions += 1
        elapsed = sim.now - started
        sim.obs.metrics.counter(
            "ft_promotions_total", group=self.group_id
        ).inc()
        sim.obs.metrics.histogram(
            "ft_failover_seconds", group=self.group_id
        ).observe(elapsed)
        self._schedule_replacement()

    def _pick_candidate(self) -> Optional[_Member]:
        if not self.members:
            return None
        breakers = self._recovery.breakers
        if breakers is not None:
            for member in self.members:
                # available() is the non-mutating view: picking a standby
                # must not consume half-open probe slots.
                if breakers.available(member.ior.host):
                    return member
        return self.members[0]


class ActiveGroup(ReplicaGroup):
    """Every replica executes every call; replies are quorum-voted.

    Up to ``r - quorum`` replica failures are masked with zero failover
    latency.  Votable outcomes are normal results *and* user exceptions
    (a deterministic business error must win the vote, not trigger
    recovery); RECOVERABLE failures count against nobody and retire the
    replica.  Duplicate suppression makes a retried round idempotent on
    every replica that already applied it.
    """

    mode = "active"

    def call(self, operation: str, args: tuple):
        yield from self.ensure_provisioned()
        sim = self._orb.sim
        policy = self._policy
        self.calls += 1
        contexts = self._next_request_context()
        quorum = policy.effective_quorum()
        attempts = 0
        while True:
            if not self.members:
                raise RecoveryError(
                    f"replica group {self.group_id} has no members left"
                )
            if len(self.members) < quorum:
                # Not enough voters: replace first, then run the round.
                yield from self._replace_now()
                if len(self.members) < quorum:
                    raise RecoveryError(
                        f"group {self.group_id} cannot reach quorum"
                        f" {quorum} with {len(self.members)} member(s)"
                    )
            outcome = yield from self._vote_round(
                operation, args, contexts, quorum
            )
            if outcome is not None:
                kind, value = outcome
                if kind == "uexc":
                    raise value
                return value
            attempts += 1
            self._ft.retries += 1
            sim.obs.metrics.counter(
                "ft_retries_total", service=self._ft.key
            ).inc()
            if attempts > policy.max_call_retries:
                raise RecoveryError(
                    f"{operation}: no vote quorum after {attempts} round(s)"
                    f" in group {self.group_id}"
                )
            yield from self._replace_now()

    def _vote_round(
        self, operation: str, args: tuple, contexts: tuple, quorum: int
    ):
        """Generator: one voting round.  Returns ``(kind, value)`` once
        ``quorum`` identical votable outcomes agree, else None (the dead
        voters have been retired; the caller replaces and retries)."""
        sim = self._orb.sim
        started = sim.now
        self.vote_rounds += 1
        cohort = list(self.members)
        pending = [
            self._outcome(member, operation, args, contexts)
            for member in cohort
        ]
        results: list[tuple] = []
        buckets: dict[str, int] = {}
        values: dict[str, tuple] = {}
        winner_key = None
        while pending:
            index, settled = yield sim.any_of(pending)
            pending.pop(index)
            results.append(settled)
            _member, kind, payload = settled
            if kind in ("ok", "uexc"):
                key = f"{kind}:{payload!r}"
                buckets[key] = buckets.get(key, 0) + 1
                values[key] = (kind, payload)
                if buckets[key] >= quorum:
                    winner_key = key
                    break
        if winner_key is None:
            # Everyone answered, nobody agreed with quorum strength.
            # Retire the dead; surface a non-recoverable error directly
            # (burning retry rounds on a MARSHAL bug helps no one).
            hard_error = None
            for member, kind, payload in results:
                if kind != "err":
                    continue
                if isinstance(payload, RECOVERABLE):
                    if member in self.members:
                        self._retire(member)
                elif hard_error is None:
                    hard_error = payload
            yield from self._rebind_lead()
            if hard_error is not None and not any(
                kind in ("ok", "uexc") for _m, kind, _p in results
            ):
                raise hard_error
            return None
        self.votes += 1
        elapsed = sim.now - started
        sim.obs.metrics.histogram(
            "ft_vote_quorum_seconds", group=self.group_id
        ).observe(elapsed)
        # Stragglers settle in the background: the finisher retires dead
        # members, resyncs divergent ones and backfills — after the
        # caller has already resumed with the quorum value.
        self._orb.host.spawn(
            self._finish_round(pending, results, winner_key),
            name=f"ft-vote-finish:{self.group_id}",
        )
        return values[winner_key]

    def _outcome(
        self, member: _Member, operation: str, args: tuple, contexts: tuple
    ) -> "SimFuture":
        """A future that always *succeeds* with ``(member, kind, payload)``
        so a vote can aggregate replies and failures uniformly."""
        sim = self._orb.sim
        outcome = sim.future(label=f"ft-vote:{member.ior.host}")
        inner = self._invoke(member.ior, operation, args, contexts)

        def settle(future, member=member):
            if not future.failed:
                outcome.try_succeed((member, "ok", future.value))
            elif isinstance(future.exception, UserException):
                outcome.try_succeed((member, "uexc", future.exception))
            else:
                outcome.try_succeed((member, "err", future.exception))

        inner.add_done_callback(settle)
        return outcome

    def _finish_round(self, pending: list, results: list, winner_key: str):
        yield self._proxy._ft_lock.acquire()
        try:
            sim = self._orb.sim
            while pending:
                index, settled = yield sim.any_of(pending)
                pending.pop(index)
                results.append(settled)
            winners = []
            for member, kind, payload in results:
                if (
                    kind in ("ok", "uexc")
                    and f"{kind}:{payload!r}" == winner_key
                ):
                    winners.append(member)
            for member, kind, payload in results:
                if member not in self.members or member in winners:
                    continue
                if kind == "err" and isinstance(payload, RECOVERABLE):
                    self._retire(member)
                    continue
                # Divergent reply: the replica computed something else —
                # resync its state (and reply cache) from a winner.
                self.divergences += 1
                sim.obs.metrics.counter(
                    "ft_vote_divergences_total", group=self.group_id
                ).inc()
                yield from self._resync(member, winners)
            yield from self._rebind_lead()
            yield from self._replace_now()
        finally:
            self._proxy._ft_lock.release()

    def _resync(self, member: _Member, winners: list):
        source = next(
            (winner for winner in winners if winner in self.members), None
        )
        if source is None:
            self._retire(member)
            return
        try:
            payload = yield self._capture(source.ior)
            yield self._invoke(member.ior, "restore_from", (payload,))
        # analysis: ignore[EXC003]: an unreachable divergent replica is retired — replacement restores redundancy
        except RECOVERABLE:
            self._retire(member)
            return
        self.resyncs += 1

    def _rebind_lead(self):
        """Generator: keep naming + the proxy pointed at a live member
        after the previous lead was retired."""
        if not self.members:
            return
        lead = self.members[0].ior
        current = self._proxy.ior
        if current == lead:
            return
        self.lead_changes += 1
        yield from self._recovery._swap_group_binding(
            self._ft, current, lead
        )
        self._proxy._rebind(lead)
        self._watch_lead()

    def _capture_seed(self):
        # A replacement voter needs current state *including* the reply
        # cache, or a replayed round would double-apply on it.
        for member in list(self.members):
            try:
                payload = yield self._capture(member.ior)
            # analysis: ignore[EXC003]: seed capture tries each live member in turn; total failure falls back to the last client-held envelope
            except RECOVERABLE:
                continue
            self.shipper.adopt(payload)
            return payload
        return self.shipper.newest()

    def _handle_dead_lead(self):
        dead = self.members[0]
        self._retire(dead)
        yield from self._rebind_lead()
        yield from self._replace_now()


def build_group(proxy) -> ReplicaGroup:
    """Build the replica group matching the proxy's ``policy.ft_mode``."""
    mode = proxy._ft.policy.ft_mode
    if mode == "warm-passive":
        return WarmPassiveGroup(proxy)
    if mode == "active":
        return ActiveGroup(proxy)
    raise ConfigurationError(f"ft_mode {mode!r} does not use replica groups")
