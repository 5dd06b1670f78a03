"""Replicated checkpoint storage.

The paper's checkpoint service is a single object — a single point of
failure for the whole fault-tolerance scheme (if its host dies, no service
can be restored).  This extension removes the SPOF with client-side
replication: writes go to every store replica (all must be attempted, a
quorum must succeed), reads try replicas in order until one answers.

It is a drop-in replacement for the store stub inside
:class:`~repro.ft.proxies.FtContext` — it exposes the same ``store`` /
``load`` / ``latest_version`` call surface, returning futures.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

from repro.errors import RecoveryError, SystemException
from repro.services.checkpoint import BadDeltaBase, NoCheckpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import SimFuture


class ReplicatedCheckpointStore:
    """Client-side replication over several CheckpointStore stubs.

    :param stubs: store replicas (on distinct hosts, ideally).
    :param write_quorum: minimum successful writes for ``store`` to
        succeed; defaults to a majority.
    """

    def __init__(self, orb, stubs: Sequence, write_quorum: int | None = None) -> None:
        if not stubs:
            raise RecoveryError("replicated store needs at least one replica")
        self._orb = orb
        self._stubs = list(stubs)
        self.write_quorum = (
            write_quorum if write_quorum is not None else len(self._stubs) // 2 + 1
        )
        if not 1 <= self.write_quorum <= len(self._stubs):
            raise RecoveryError(
                f"write quorum {self.write_quorum} impossible with "
                f"{len(self._stubs)} replicas"
            )
        self.writes = 0
        self.degraded_writes = 0
        self.failover_reads = 0

    @property
    def replica_count(self) -> int:
        return len(self._stubs)

    # -- the CheckpointStore call surface -------------------------------------

    def store(self, key: str, version: int, state) -> "SimFuture":
        return self._spawn(
            self._write_proc("store", (key, version, state)), "rstore:store"
        )

    def store_delta(
        self, key: str, base_version: int, version: int, delta
    ) -> "SimFuture":
        return self._spawn(
            self._write_proc("store_delta", (key, base_version, version, delta)),
            "rstore:store_delta",
        )

    def load(self, key: str) -> "SimFuture":
        return self._spawn(self._load_proc("load", (key,)), "rstore:load")

    def latest_version(self, key: str) -> "SimFuture":
        return self._spawn(
            self._load_proc("latest_version", (key,)), "rstore:version"
        )

    # -- internals ----------------------------------------------------------------

    def _spawn(self, generator, label: str) -> "SimFuture":
        outer = self._orb.sim.future(label=label)
        process = self._orb.host.spawn(generator, name=label)

        def propagate(proc) -> None:
            if proc.failed:
                outer.try_fail(proc.exception)
            else:
                outer.try_succeed(proc._value)

        process.add_done_callback(propagate)
        return outer

    def _write_proc(self, operation: str, args: tuple):
        """Fan one write out to every replica (all are attempted, a quorum
        must succeed).  Any ``BadDeltaBase`` answer to a delta propagates:
        one replica missing the base means the client must fall back to a
        full store, which re-converges *all* replicas (a replica that
        already committed the delta just records the same version twice —
        ``read_latest`` takes the newest record, so that's harmless)."""
        futures = [getattr(stub, operation)(*args) for stub in self._stubs]
        successes = 0
        last_error: BaseException | None = None
        bad_base: BadDeltaBase | None = None
        for future in futures:
            try:
                yield future
                successes += 1
            except BadDeltaBase as exc:
                bad_base = exc
            except SystemException as exc:
                last_error = exc
        self.writes += 1
        if bad_base is not None:
            raise bad_base
        if successes < len(self._stubs):
            self.degraded_writes += 1
        if successes < self.write_quorum:
            raise RecoveryError(
                f"checkpoint {operation} quorum not met ({successes}/"
                f"{self.write_quorum} of {len(self._stubs)})"
            ) from last_error
        return None

    def _load_proc(self, operation: str, args: tuple):
        last_error: BaseException | None = None
        missing = 0
        for stub in self._stubs:
            try:
                result = yield getattr(stub, operation)(*args)
                return result
            except NoCheckpoint as exc:
                missing += 1
                last_error = exc
            except SystemException as exc:
                self.failover_reads += 1
                last_error = exc
        if missing == len(self._stubs):
            assert isinstance(last_error, NoCheckpoint)
            raise last_error
        raise RecoveryError(
            f"no checkpoint replica reachable for {operation}{args}"
        ) from last_error
