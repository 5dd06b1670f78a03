"""Synchronization primitives for simulation processes."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Lock:
    """A FIFO mutex for simulation processes.

    Usage inside a process::

        yield lock.acquire()
        try:
            ...critical section...
        finally:
            lock.release()

    The fault-tolerance proxies use one lock per proxied object to
    serialize wrapped calls, checkpoints and migrations — "state after the
    call" is only well-defined if calls do not interleave with snapshots.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._held = False
        self._waiters: deque[SimFuture] = deque()
        #: contention statistics
        self.acquisitions = 0
        self.waits = 0

    def acquire(self) -> SimFuture:
        """A future that succeeds once the lock is held by the caller."""
        future = SimFuture(self.sim, label=f"lock:{self.name}")
        if not self._held:
            self._held = True
            self.acquisitions += 1
            future.succeed(None)
        else:
            self.waits += 1
            self._waiters.append(future)
        return future

    def release(self) -> None:
        """Pass the lock to the next waiter (FIFO) or free it."""
        if not self._held:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            # Skip waiters whose process was killed while queued.
            if waiter.is_pending and not waiter.abandoned:
                self.acquisitions += 1
                waiter.succeed(None)
                return
        self._held = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self._held else "free"
        return f"<Lock {self.name!r} {state} waiters={len(self._waiters)}>"
