"""The event-heap driver of the simulation.

A :class:`Simulator` owns simulated time, an event heap with deterministic
FIFO tie-breaking, and seeded random streams.  All other kernel objects
(processes, CPUs, channels) schedule work through it.

The dispatch loop is the hottest code in the repository — every simulated
network packet, CPU completion and process wake-up passes through it — so
its data layout is chosen for speed:

* heap entries are plain ``(time, seq, event)`` tuples, so ``heapq`` sift
  comparisons stay in C (tuple comparison never reaches the event object
  because ``seq`` is unique) instead of calling a Python ``__lt__`` per
  comparison;
* cancellation is lazy (the entry stays in the heap, flagged) with a
  cancelled-entry counter, so ``pending_event_count`` is derived O(1) as
  ``len(heap) - cancelled`` — the hot pop path touches no counter at all —
  and the heap compacts in place once cancelled entries dominate it;
* one drain loop (:meth:`Simulator._drain`) serves :meth:`Simulator.run`,
  :meth:`Simulator.run_until_done` and :meth:`Simulator.step`, so
  dispatching an event costs no Python frame beyond the callback itself
  whichever way the simulation is driven.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.events import _PENDING, SimFuture, all_of, any_of
from repro.sim.process import Process
from repro.sim.randomness import rng_stream

#: compaction threshold: rebuild the heap once at least this many entries
#: are cancelled *and* they make up at least half of the heap.
_COMPACT_MIN_CANCELLED = 64

#: the process list is not scanned for finished processes below this length.
_PROCESS_COMPACT_MIN = 512

#: slack for the monotonic-time assertion (float addition noise).
_TIME_EPSILON = 1e-12

_FOREVER = float("inf")


class ScheduledEvent:
    """A cancellable callback scheduled at an absolute simulated time."""

    __slots__ = ("time", "seq", "callback", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: owning simulator while the entry sits in the heap; detached
        #: (set to None) when popped, so a late cancel() only flips the
        #: flag without touching the live counters.
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancel()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulator:
    """Deterministic discrete-event simulator.

    :param seed: master seed; every named random stream obtained through
        :meth:`rng` derives from it reproducibly.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.now: float = 0.0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = 0
        self._running = False
        #: what ``_drain`` watches when nothing should stop it (``run``) and
        #: when the first event should (``step``).
        self._never_resolved = SimFuture(self, label="never")
        self._resolved = SimFuture(self, label="resolved").succeed()
        #: cancelled entries still sitting in the heap (lazy deletion).
        #: ``pending_event_count`` is ``len(_heap)`` minus this, so the
        #: hot dispatch loop never maintains a live-event counter.
        self._cancelled_in_heap = 0
        self._rngs: dict[tuple[str, ...], np.random.Generator] = {}
        #: live processes; finished ones are compacted out periodically so
        #: long request streams do not accumulate dead Process objects.
        self.processes: list[Any] = []
        #: list length at which ``_register_process`` next compacts
        self._compact_processes_at = _PROCESS_COMPACT_MIN
        #: the process or activity being stepped right now (None between
        #: steps, i.e. in a kernel event callback, where the wake rule
        #: resumes waiters in place); trace-context inheritance at spawn
        #: and the observability tracer's "current span" both key off it.
        self.current_process: Optional[Any] = None
        #: trace context used when no process is running (driver code).
        self.ambient_trace_context: Optional[Any] = None
        self._obs: Optional[Any] = None
        #: (name, exception) pairs of processes and activities that died from
        #: an uncaught, non-kill exception while nobody was watching them.
        self.unhandled_failures: list[tuple[str, BaseException]] = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback()`` after ``delay`` simulated seconds.

        Events scheduled for the same instant fire in scheduling order.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback()`` at absolute simulated ``time`` (>= now)."""
        return self.schedule(time - self.now, callback)

    def call_soon(self, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback()`` at the current instant, after pending events
        already scheduled for this instant."""
        time = self.now
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, seq, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    # -- heap bookkeeping ----------------------------------------------------

    def _note_cancel(self) -> None:
        """One in-heap entry was cancelled; compact when they dominate."""
        cancelled = self._cancelled_in_heap + 1
        self._cancelled_in_heap = cancelled
        if (
            cancelled >= _COMPACT_MIN_CANCELLED
            and 2 * cancelled >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In place (slice assignment) so any local reference to the heap —
        the dispatch loop's, or a callback's via ``_heap`` — stays valid.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0

    # -- execution ----------------------------------------------------------

    def _drain(self, horizon: float, stop: SimFuture) -> bool:
        """The one dispatch loop: run events in ``(time, seq)`` order until
        the heap drains, the next live event lies beyond ``horizon`` (it
        stays in the heap), or ``stop`` has resolved — looked at after each
        callback, so an already-resolved ``stop`` means "one event".
        Returns whether ``stop`` ended the loop.

        ``heap`` can be cached because ``_compact`` rebuilds it in place.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if time > horizon:
                    break
                pop(heap)
                event.sim = None
                now = self.now
                if time > now:
                    self.now = time
                elif time < now - _TIME_EPSILON:
                    raise SimulationError("event heap time went backwards")
                event.callback()
                if stop._state is not _PENDING:
                    return True
        finally:
            self._running = False
        return False

    def step(self) -> bool:
        """Process the next event. Returns False when the heap is empty."""
        return self._drain(_FOREVER, self._resolved)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or simulated time reaches ``until``.

        Returns the simulated time at which execution stopped.
        """
        if until is None:
            self._drain(_FOREVER, self._never_resolved)
        else:
            self._drain(until, self._never_resolved)
            if self.now < until:
                self.now = until
        return self.now

    def run_until_done(self, future: SimFuture, limit: float = _FOREVER) -> Any:
        """Drive the simulation until ``future`` resolves; return its value.

        Raises :class:`SimulationError` if the heap drains (deadlock) or the
        time ``limit`` is exceeded while the future is still pending.
        """
        if future._state is _PENDING and not self._drain(limit, future):
            if self._heap:
                raise SimulationError(
                    f"time limit {limit} exceeded while waiting for {future!r}"
                )
            raise SimulationError(
                f"deadlock: event heap empty but {future!r} is pending"
            )
        return future.value

    # -- awaitable constructors ----------------------------------------------

    def future(self, label: str = "") -> SimFuture:
        return SimFuture(self, label=label)

    def timeout(self, delay: float, value: Any = None) -> SimFuture:
        """A future that succeeds with ``value`` after ``delay`` seconds."""
        future = SimFuture(self, label="timeout")
        self.schedule(delay, lambda: future.try_succeed(value))
        return future

    def all_of(self, futures: Iterable[SimFuture]) -> SimFuture:
        return all_of(self, futures)

    def any_of(self, futures: Iterable[SimFuture]) -> SimFuture:
        return any_of(self, futures)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a simulation process (see
        :class:`repro.sim.process.Process`)."""
        return Process(self, generator, name=name)

    def _register_process(self, process: Any) -> None:
        """Track a live process; compact finished ones so unbounded
        request streams (millions of short-lived processes) stay O(live)."""
        processes = self.processes
        processes.append(process)
        if len(processes) > self._compact_processes_at:
            # Rescan only once the list has doubled since the last scan:
            # amortised O(1) per spawn however many stay alive.
            self.processes = live = [p for p in processes if p.is_pending]
            self._compact_processes_at = max(_PROCESS_COMPACT_MIN, 2 * len(live))

    # -- observability ---------------------------------------------------------

    @property
    def obs(self) -> Any:
        """The simulation's observability hub (metrics registry + span
        tracer), created lazily on first access."""
        if self._obs is None:
            from repro.obs import Observability

            self._obs = Observability(self)
        return self._obs

    # -- randomness -----------------------------------------------------------

    def rng(self, *names: str) -> np.random.Generator:
        """A named, reproducible random stream derived from the master seed.

        Repeated calls with the same names return the same generator object,
        so consumption order within a stream is well-defined.
        """
        key = tuple(names)
        generator = self._rngs.get(key)
        if generator is None:
            generator = rng_stream(self.seed, *names)
            self._rngs[key] = generator
        return generator

    def check_unhandled(self) -> None:
        """Raise the first unhandled process failure, if any.

        Tests call this after a run to make sure no background process died
        silently.
        """
        if self.unhandled_failures:
            name, exc = self.unhandled_failures[0]
            raise SimulationError(
                f"process {name!r} failed with unhandled "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    # -- introspection ---------------------------------------------------------

    @property
    def pending_event_count(self) -> int:
        """Live (non-cancelled) scheduled events — O(1), derived from the
        heap length and the lazily-deleted-entry counter rather than
        recounted per call (or maintained per pop)."""
        return len(self._heap) - self._cancelled_in_heap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} events={self.pending_event_count}>"
