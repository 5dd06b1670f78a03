"""FIFO channels (mailboxes) between simulation processes.

Channels carry already-delivered items: the *network* decides when a message
arrives (it schedules the ``put``); the channel only hands items to waiting
receivers in deterministic FIFO order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, TYPE_CHECKING

from repro.errors import ChannelClosed
from repro.sim.events import SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Channel:
    """An unbounded FIFO queue with future-based receive."""

    __slots__ = ("sim", "name", "_items", "_getters", "_closed", "_get_label")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[SimFuture] = deque()
        self._closed = False
        # Precomputed: get() runs once per delivered message, and building
        # this label per call dominates the empty-buffer fast path.
        self._get_label = f"chan-get({name})"

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deliver ``item``; wakes the oldest waiting receiver, if any."""
        if self._closed:
            raise ChannelClosed(f"put on closed channel {self.name!r}")
        while self._getters:
            getter = self._getters.popleft()
            # Skip getters whose process was killed while waiting — the
            # item must not be delivered into the void.
            if getter.is_pending and not getter.abandoned:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> SimFuture:
        """A future for the next item (resolved immediately if buffered)."""
        future = SimFuture(self.sim, label=self._get_label)
        if self._items:
            future.succeed(self._items.popleft())
        elif self._closed:
            future.fail(ChannelClosed(f"get on closed channel {self.name!r}"))
        else:
            self._getters.append(future)
        return future

    def close(self) -> None:
        """Close the channel; waiting and future receivers get
        :class:`ChannelClosed`. Buffered items are discarded."""
        if self._closed:
            return
        self._closed = True
        self._items.clear()
        getters, self._getters = self._getters, deque()
        for getter in getters:
            getter.try_fail(ChannelClosed(f"channel {self.name!r} closed"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<Channel {self.name!r} {state} items={len(self._items)} "
            f"waiters={len(self._getters)}>"
        )
