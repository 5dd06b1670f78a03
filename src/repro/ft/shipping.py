"""One state shipper for checkpoints and standbys.

Both fault-tolerance designs move the same thing — a versioned snapshot of
a servant's state — to somewhere that outlives the servant: the paper's
checkpoint/restart ships it to the checkpoint *store*, warm-passive
replication ships it to the *standbys*.  The steps are identical and live
here once:

1. :meth:`StateShipper.prepare` — encode once, hash, skip when nothing
   changed, and decide delta vs. full against the last state handed out;
2. :meth:`StateShipper.deliver` — send one :class:`Shipment` to one sink:
   the delta when the sink can take it (falling back to the full state on
   ``BadDeltaBase``), otherwise the full state;
3. :meth:`StateShipper.wait_for_slot` / :meth:`StateShipper.enqueue` /
   :meth:`StateShipper.drain` — the pipelined window: deliveries run in
   background processes, FIFO-chained so shipments arrive in capture
   order, with at most ``depth`` outstanding.

What differs between the designs enters as arguments (the sink callables,
``incremental``, ``full_interval``, ``digests``); the shipper never asks
which design is calling.  Failure *policy* — raise, ignore, buffer
client-side, retire and backfill a standby — stays with the callers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.orb.cdr import AnyEncodeMemo, encode_any
from repro.services.checkpoint import BadDeltaBase, compute_delta, state_digest

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.events import SimFuture


@dataclass
class Shipment:
    """One captured state on its way to the sinks."""

    version: int
    state: object
    #: content hash and encoded size of the full state (None / 0 when the
    #: shipper does not digest — the paper path leaves all marshalling to
    #: the stub layer).
    digest: Optional[str] = None
    data_len: int = 0
    #: delta payload against the base (None = only the full state ships).
    delta: Optional[dict] = None
    delta_bytes: int = 0
    #: the previous shipment, named both ways: sinks that keep a history
    #: address the base by version, sinks that hold one state by digest.
    base_version: int = 0
    base_digest: Optional[str] = None
    #: resolved (always with None) when a pipelined delivery has settled —
    #: the window, drains and recovery wait on this.
    future: Optional["SimFuture"] = None


class StateShipper:
    """Prepares, counts and (optionally) pipelines state shipments.

    :param host: where background deliveries are spawned.
    :param name: process / future label of the background deliveries.
    :param depth: pipelined window — deliveries outstanding at most.
    :param digests: encode and hash every state (the unchanged-state skip,
        the delta decision and the size accounting all need it).  Off, the
        shipper only numbers the shipments: every one is a full state and
        all marshalling is left to the sink's stub — the paper path.
    :param deltas: diff consecutive states and prefer the delta when its
        encoding is smaller (needs ``digests``).
    :param full_interval: every n-th shipment is a full state, bounding
        the chain a sink must replay; None for sinks that apply deltas in
        place.
    :param on_count: called as ``on_count(counter_name, amount, **labels)``
        whenever a counter moves, so a caller can mirror it elsewhere.
    """

    def __init__(
        self,
        host: "Host",
        name: str,
        depth: int = 1,
        digests: bool = True,
        deltas: bool = False,
        full_interval: Optional[int] = None,
        on_count: Optional[Callable[..., None]] = None,
    ) -> None:
        self._host = host
        self._name = name
        self._depth = depth
        self._digests = digests
        self._use_deltas = deltas
        self._full_interval = full_interval
        self._on_count = on_count
        self._memo = AnyEncodeMemo()
        self._versions = itertools.count(1)
        self._since_full = 0
        #: the skip / delta base: the last state handed out by
        #: :meth:`prepare`, its content digest and version.
        self.last_state: Optional[object] = None
        self.last_digest: Optional[str] = None
        self.last_version = 0
        #: pipelined deliveries still running, oldest first (they are
        #: FIFO-chained, so they also *finish* in this order).
        self.inflight: list[Shipment] = []
        self.skipped = 0
        self.deltas = 0
        self.fulls = 0
        self.fallbacks = 0
        self.bytes = 0
        self.stalls = 0
        self.peak_depth = 0

    def _count(self, counter: str, amount: int = 1, **labels) -> None:
        setattr(self, counter, getattr(self, counter) + amount)
        if self._on_count is not None:
            self._on_count(counter, amount, **labels)

    # -- what to ship ---------------------------------------------------------------

    # analysis: atomic: version assignment + skip/delta-base bookkeeping must be one indivisible step — a later capture interleaving would reorder shipments
    def prepare(self, state, incremental: bool = True) -> Optional[Shipment]:
        """Assign a version and decide *what* to ship.

        Returns None when the state's content hash matches the last one
        handed out — nothing to do.  ``incremental=False`` disables both
        the skip and the delta for this shipment: the caller cannot vouch
        for what the sink holds (checkpoints are buffered client-side), so
        only a full state is safe.
        """
        if not self._digests:
            return Shipment(version=next(self._versions), state=state)
        data = self._memo.encode(state)
        digest = state_digest(data)
        if incremental and digest == self.last_digest:
            self._count("skipped")
            return None
        shipment = Shipment(
            version=next(self._versions),
            state=state,
            digest=digest,
            data_len=len(data),
            base_version=self.last_version,
            base_digest=self.last_digest,
        )
        if (
            self._use_deltas
            and incremental
            and self.last_state is not None
            and (
                self._full_interval is None
                or self._since_full < self._full_interval - 1
            )
        ):
            delta = compute_delta(self.last_state, state)
            if delta is not None:
                delta_bytes = len(encode_any(delta))
                if delta_bytes < shipment.data_len:
                    shipment.delta, shipment.delta_bytes = delta, delta_bytes
        self._since_full = (
            self._since_full + 1 if shipment.delta is not None else 0
        )
        self.last_state = state
        self.last_digest = digest
        self.last_version = shipment.version
        return shipment

    def forget_base(self) -> None:
        """The last shipment never reached its sink: no skip or delta may
        reference its content."""
        self.last_state = None
        self.last_digest = None

    # -- one shipment to one sink -----------------------------------------------------

    def deliver(self, shipment: Shipment, send_full, send_delta=None):
        """Generator: ship to one sink.  ``send_delta`` / ``send_full`` are
        callables returning the future of the sink's round trip; pass no
        ``send_delta`` when this sink cannot take the delta (it does not
        hold the base).  A sink rejecting the base (``BadDeltaBase``) gets
        the full state instead; any other failure propagates."""
        if shipment.delta is not None and send_delta is not None:
            try:
                yield send_delta()
            except BadDeltaBase:
                self._count("fallbacks")
            else:
                self._count("deltas")
                self._count("bytes", shipment.delta_bytes, kind="delta")
                return
        yield send_full()
        self._count("fulls")
        if shipment.data_len:
            self._count("bytes", shipment.data_len, kind="full")

    # -- the pipelined window -----------------------------------------------------------

    def wait_for_slot(self):
        """Generator: stall while ``depth`` deliveries are outstanding —
        backpressure on the capture, not unbounded queueing."""
        while len(self.inflight) >= self._depth:
            self._count("stalls")
            yield self.inflight[0].future

    # analysis: atomic: reading the FIFO tail and appending behind it must not yield — a second capture slipping in between would break delivery order
    def enqueue(self, shipment: Shipment, deliver, settled=None) -> None:
        """Run ``deliver(shipment)`` (a generator function that must not
        raise) in the background, behind every delivery enqueued before
        it.  ``settled()`` runs once the shipment has left the window,
        before anyone waiting on it resumes."""
        shipment.future = self._host.sim.future(
            label=f"{self._name}:{shipment.version}"
        )
        prev = self.inflight[-1].future if self.inflight else None
        self.inflight.append(shipment)
        self.peak_depth = max(self.peak_depth, len(self.inflight))
        self._host.spawn(
            self._run(shipment, prev, deliver, settled), name=self._name
        )

    def _run(self, shipment: Shipment, prev, deliver, settled):
        try:
            if prev is not None:
                yield prev  # FIFO: shipments reach the sinks in capture order
            yield from deliver(shipment)
        finally:
            try:
                self.inflight.remove(shipment)
            except ValueError:
                pass
            if settled is not None:
                settled()
            shipment.future.try_succeed(None)

    def drain(self):
        """Generator: wait until no delivery is in flight.  Callers hold
        the proxy lock, so no new capture can slip in."""
        while self.inflight:
            yield self.inflight[-1].future
