"""The checkpoint storage service.

"As a proof of concept, a simple service for storing checkpointing data has
been implemented.  It simply provides functions to store/retrieve arbitrary
values to the server object.  No real persistency like storing checkpoints
on disk media has been implemented, yet.  Furthermore, the current
implementation is rather inefficient." (§3)

We reproduce that service — including, deliberately, its *inefficiency*:
the default per-request processing cost is large, because Table 1's
headline result (fault tolerance costing up to 3× runtime) depends on it.
Both the paper's in-memory backend and the "future work" disk backend are
provided; the ablation bench compares them.

Beyond the paper, the store speaks *deltas*: ``store_delta`` ships only
what changed against a base version the server already holds, and ``load``
reconstructs the current state by replaying the delta chain on top of the
last full snapshot.  Clients bound the chain by shipping a periodic full
snapshot (every :data:`~repro.ft.policy.CHECKPOINT_FULL_INTERVAL`-th); a
delta whose base is not the server's latest record raises
:class:`BadDeltaBase` and the client falls back to a full store.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.errors import CdrError, TRANSIENT
from repro.orb.cdr import decode_any, encode_any, values_equal
from repro.orb.idl import compile_idl

CHECKPOINT_IDL = """
module Checkpointing {
    exception NoCheckpoint { string key; };
    exception BadDeltaBase { string key; long expected; long got; };

    interface CheckpointStore {
        // Store a checkpoint; versions must increase per key.
        void store(in string key, in long version, in any state);
        // Store only what changed against base_version (which must be
        // the latest record the store holds for the key).
        void store_delta(in string key, in long base_version,
                         in long version, in any delta)
            raises (BadDeltaBase);
        // Latest checkpoint for a key (deltas replayed server-side).
        any load(in string key) raises (NoCheckpoint);
        long latest_version(in string key) raises (NoCheckpoint);
    };
};
"""

ns = compile_idl(CHECKPOINT_IDL, name="checkpointing")

NoCheckpoint = ns.NoCheckpoint
BadDeltaBase = ns.BadDeltaBase
CheckpointStoreStub = ns.CheckpointStoreStub
CheckpointStoreSkeleton = ns.CheckpointStoreSkeleton


# -- the delta codec ---------------------------------------------------------------

#: marker key identifying a dict as a delta node on the wire.
DELTA_MARK = "__ckpt_delta__"


def is_delta(value: Any) -> bool:
    """True when ``value`` is a delta node produced by :func:`compute_delta`."""
    return isinstance(value, dict) and DELTA_MARK in value


def compute_delta(base: Any, new: Any) -> Optional[dict]:
    """Recursive dict delta turning ``base`` into ``new``, or None when the
    pair is not delta-able (either side is not a plain dict, or a dict
    uses the reserved marker key itself — the caller ships a full state).

    The node format is ``{DELTA_MARK: 1, "set": {key: value-or-subdelta},
    "removed": [keys]}``; unchanged entries are simply absent.
    """
    if not isinstance(base, dict) or not isinstance(new, dict):
        return None
    if DELTA_MARK in base or DELTA_MARK in new:
        return None
    changed: dict = {}
    for key, value in new.items():
        if key not in base:
            changed[key] = value
            continue
        old = base[key]
        if values_equal(old, value):
            continue
        sub = compute_delta(old, value)
        changed[key] = value if sub is None else sub
    removed = [key for key in base if key not in new]
    return {DELTA_MARK: 1, "set": changed, "removed": removed}


def apply_delta(base: Any, delta: Any) -> dict:
    """Replay one delta node on top of ``base`` (returns a new dict)."""
    if not is_delta(delta):
        raise CdrError("not a checkpoint delta node")
    if not isinstance(base, dict):
        raise CdrError(
            f"checkpoint delta applied to non-dict base {type(base).__name__}"
        )
    out = dict(base)
    for key in delta["removed"]:
        out.pop(key, None)
    for key, value in delta["set"].items():
        if is_delta(value):
            out[key] = apply_delta(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def state_digest(data: bytes) -> str:
    """Content hash of an encoded state (the unchanged-state skip key)."""
    import hashlib

    return hashlib.sha1(data).hexdigest()


# -- backends ---------------------------------------------------------------------


class CheckpointRecord(NamedTuple):
    """One history entry.  A NamedTuple so legacy ``(version, data)``
    tuple-indexing keeps working."""

    version: int
    data: bytes
    full: bool = True
    base_version: int = -1


class MemoryBackend:
    """Keeps encoded checkpoints in memory (the paper's proof of concept).

    The I/O cost model is split so the servant can re-check availability
    *between* the simulated delay and the mutation: :meth:`delay` is a
    generator burning the backend's write latency (none, for memory) and
    :meth:`commit` applies the mutation and counts ``bytes_written`` —
    only successful writes are ever counted.
    """

    name = "memory"

    def __init__(self, history_limit: int = 4) -> None:
        self.history_limit = history_limit
        self._data: dict[str, list[CheckpointRecord]] = {}
        self.bytes_written = 0
        self.delta_bytes_written = 0

    def delay(self, data: bytes):
        return
        yield  # pragma: no cover - makes this a generator for uniformity

    def commit(
        self,
        key: str,
        version: int,
        data: bytes,
        full: bool = True,
        base_version: int = -1,
    ) -> None:
        history = self._data.setdefault(key, [])
        history.append(CheckpointRecord(version, data, full, base_version))
        self._trim(history)
        self.bytes_written += len(data)
        if not full:
            self.delta_bytes_written += len(data)

    def _trim(self, history: list[CheckpointRecord]) -> None:
        """Bound the history without ever cutting the active delta chain:
        keep at least the newest full record and everything after it."""
        excess = len(history) - self.history_limit
        if excess <= 0:
            return
        last_full = 0
        for index, record in enumerate(history):
            if record.full:
                last_full = index
        del history[: min(excess, last_full)]

    def read_latest(self, key: str) -> Optional[CheckpointRecord]:
        history = self._data.get(key)
        return history[-1] if history else None

    def read_chain(self, key: str) -> list[CheckpointRecord]:
        """The newest full record and every delta after it (restore order)."""
        history = self._data.get(key)
        if not history:
            return []
        start = 0
        for index, record in enumerate(history):
            if record.full:
                start = index
        return history[start:]

    def last_full_size(self, key: str) -> int:
        """Size of the newest full snapshot (0 when the key is unknown)."""
        chain = self.read_chain(key)
        if chain and chain[0].full:
            return len(chain[0].data)
        return 0


class DiskBackend(MemoryBackend):
    """Adds simulated disk latency: a seek plus throughput-limited write.

    The delay happens before the commit, so an outage that begins while
    the bytes are "on their way to the platter" still fails the request —
    "real persistency like storing checkpoints on disk media", the part
    the paper deferred.
    """

    name = "disk"

    def __init__(
        self,
        sim,
        history_limit: int = 4,
        seek_time: float = 8e-3,
        write_bandwidth: float = 5e6,
    ) -> None:
        super().__init__(history_limit=history_limit)
        self._sim = sim
        self.seek_time = seek_time
        self.write_bandwidth = write_bandwidth

    def delay(self, data: bytes):
        yield self._sim.timeout(self.seek_time + len(data) / self.write_bandwidth)


class CheckpointStoreServant(CheckpointStoreSkeleton):
    """The checkpoint storage servant.

    :param processing_work: CPU seconds (speed-1 host) burned per request —
        the "rather inefficient ... not optimized for speed in any way"
        knob.  Table 1's overhead comes mostly from here.
    :param delta_work_floor: lower bound on the fraction of
        ``processing_work`` a ``store_delta`` request pays (the charge
        scales with delta size relative to the last full snapshot — less
        data to handle is the whole point of shipping deltas).
    """

    def __init__(
        self,
        backend: Optional[MemoryBackend] = None,
        processing_work: float = 0.015,
        delta_work_floor: float = 0.15,
    ) -> None:
        self.backend = backend or MemoryBackend()
        self.processing_work = processing_work
        self.delta_work_floor = delta_work_floor
        self.stores = 0
        self.loads = 0
        self.delta_stores = 0
        self.delta_rejections = 0
        #: delta records replayed by ``load`` reconstructions.
        self.deltas_replayed = 0
        #: chaos hook: an unavailable store answers every request with
        #: ``TRANSIENT`` — the storage-outage failure mode the degraded
        #: checkpointing path (``on_checkpoint_failure="degraded"``) rides
        #: out by buffering client-side.
        self.available = True
        self.outages = 0
        self.rejected_requests = 0

    def set_available(self, available: bool) -> None:
        if self.available and not available:
            self.outages += 1
        self.available = bool(available)

    def _check_available(self) -> None:
        if not self.available:
            self.rejected_requests += 1
            raise TRANSIENT("checkpoint store unavailable")

    def store(self, key, version, state):
        self._check_available()
        yield self._host().execute(self.processing_work)
        self._check_available()  # outage may start while we queue
        data = encode_any(state)
        yield from self.backend.delay(data)
        self._check_available()  # ... or while the backend writes
        self.backend.commit(key, version, data)
        self.stores += 1

    def store_delta(self, key, base_version, version, delta):
        self._check_available()
        latest = self.backend.read_latest(key)
        expected = latest.version if latest is not None else -1
        if latest is None or expected != base_version:
            self.delta_rejections += 1
            raise BadDeltaBase(key=key, expected=expected, got=base_version)
        data = encode_any(delta)
        # The per-request charge scales with how much of a full payload the
        # delta actually carries; the floor keeps fixed costs honest.
        full_size = self.backend.last_full_size(key) or len(data)
        scale = min(1.0, max(self.delta_work_floor, len(data) / full_size))
        yield self._host().execute(self.processing_work * scale)
        self._check_available()
        yield from self.backend.delay(data)
        self._check_available()
        latest = self.backend.read_latest(key)
        if latest is None or latest.version != base_version:
            # Another writer slipped in while we were executing.
            self.delta_rejections += 1
            expected = latest.version if latest is not None else -1
            raise BadDeltaBase(key=key, expected=expected, got=base_version)
        self.backend.commit(
            key, version, data, full=False, base_version=base_version
        )
        self.delta_stores += 1

    def load(self, key):
        self._check_available()
        yield self._host().execute(self.processing_work)
        self._check_available()
        chain = self.backend.read_chain(key)
        if not chain or not chain[0].full:
            raise NoCheckpoint(key=key)
        state = decode_any(chain[0].data)
        for record in chain[1:]:
            state = apply_delta(state, decode_any(record.data))
            self.deltas_replayed += 1
        self.loads += 1
        return state

    def latest_version(self, key):
        self._check_available()
        yield self._host().execute(self.processing_work)
        self._check_available()
        latest = self.backend.read_latest(key)
        if latest is None:
            raise NoCheckpoint(key=key)
        return latest.version
