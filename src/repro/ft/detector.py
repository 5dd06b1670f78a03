"""A locate-ping failure detector.

The paper's error detection is reactive ("the only way to detect an error
on the client side is the exception CORBA::COMM_FAILURE").  A proactive
detector built from GIOP LocateRequest pings is the natural extension and
is what the migration policy uses to avoid moving services to dying hosts;
the recovery bench uses it to measure detection latency, and warm-passive
replication uses it to promote a standby before any call even fails.

Suspicion is *level-triggered*, not one-shot: a suspected target stays
watched, a successful ping afterwards clears the suspicion, and a target
that dies again after recovering is re-suspected (flapping hosts produce
one suspicion per down phase, each reported through ``on_suspect``).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ProcessKilled
from repro.orb.ior import IOR

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb
    from repro.sim.process import Process


class FailureDetector:
    """Periodically pings watched objects; reports each down phase once."""

    def __init__(
        self,
        orb: "Orb",
        interval: float = 1.0,
        suspect_after: int = 2,
    ) -> None:
        self.orb = orb
        self.interval = interval
        #: consecutive failed pings before a target is suspected.
        self.suspect_after = suspect_after
        self._targets: dict[str, tuple[IOR, Callable[[str, IOR], None]]] = {}
        self._misses: dict[str, int] = {}
        #: keys currently under suspicion (cleared by a successful ping).
        self._suspect_flags: set[str] = set()
        self._process: Optional["Process"] = None
        self.pings = 0
        #: every suspicion event, in order (a flapping target appears once
        #: per down phase — the re-suspicion regression guard).
        self.suspected: list[str] = []
        #: suspicions cleared by a later successful ping.
        self.recovered_targets = 0

    def watch(
        self, key: str, ior: IOR, on_suspect: Callable[[str, IOR], None]
    ) -> None:
        """(Re-)register ``key``; re-watching resets its suspicion state
        (promotion re-points the watch at the new primary's IOR)."""
        self._targets[key] = (ior, on_suspect)
        self._misses[key] = 0
        self._suspect_flags.discard(key)
        if self._process is None or self._process.is_done:
            self._process = self.orb.host.spawn(self._run(), name="ft-detector")

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _run(self):
        sim = self.orb.sim
        try:
            while self._targets:
                yield sim.timeout(self.interval)
                for key in list(self._targets):
                    entry = self._targets.get(key)
                    if entry is None:
                        continue
                    ior, on_suspect = entry
                    self.pings += 1
                    alive = yield self.orb.locate(ior)
                    if alive:
                        self._misses[key] = 0
                        if key in self._suspect_flags:
                            # The target answered again: clear the suspicion
                            # so a later down phase is re-reported.
                            self._suspect_flags.discard(key)
                            self.recovered_targets += 1
                        continue
                    self._misses[key] = self._misses.get(key, 0) + 1
                    if (
                        self._misses[key] >= self.suspect_after
                        and key not in self._suspect_flags
                    ):
                        self._suspect_flags.add(key)
                        self.suspected.append(key)
                        on_suspect(key, ior)
        except ProcessKilled:
            raise
