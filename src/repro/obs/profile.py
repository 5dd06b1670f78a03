"""Host-side profiling of the simulation kernel.

The ROADMAP's scale-out work ("profile events/sec, then ``__slots__``,
heap batching, ...") needs an answer to *where the host CPU goes* when the
simulator runs: which event-callback sites dominate, which processes burn
the wall clock, how deep the event heap gets, how many yield points a
workload executes.  :class:`SimProfiler` hooks the two hot points of the
kernel — event dispatch in :meth:`repro.sim.kernel.Simulator._drain` and
generator stepping in :meth:`repro.sim.process.Process._resume` — and
aggregates:

* **throughput** — events and process steps per wall-clock second over the
  profiled window (the tracked ``sim_events_per_sec`` BENCH metric);
* **per-site attribution** — exclusive wall time per event-callback site
  and per generator code object (the folded-stack / flamegraph view);
* **per-process attribution** — host-CPU seconds vs. the simulated-time
  span each (aggregated-by-name) process was alive for;
* **kernel counters** — heap depth (max/mean) and yield-point counts.

The profiler is *strictly observational*: it reads the wall clock but
never feeds a value back into simulated state, so a profiled run is
bit-identical to an unprofiled one (asserted by
``benchmarks/bench_obs_overhead.py``).  The wall-clock reads below carry
justified determinism suppressions for exactly this reason.

Exports: :meth:`SimProfiler.folded_stacks` (``frame;frame value`` lines,
directly consumable by ``flamegraph.pl`` / speedscope) and
:meth:`SimProfiler.chrome_trace` (a ``trace_event`` document on the
*wall-clock* timeline — complementary to
:func:`repro.obs.exporters.chrome_trace`, which renders spans on the
*simulated* timeline).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process


def _default_clock() -> float:
    """The profiler's wall clock (injectable for deterministic tests)."""
    # analysis: ignore[DET001]: host-side profiling measures real CPU cost; the value never reaches simulated state
    return time.perf_counter()


def callback_site(callback: Callable) -> str:
    """Stable human-readable attribution key for an event callback."""
    # functools.partial and friends: attribute to the wrapped callable.
    inner = getattr(callback, "func", None)
    if inner is not None and callable(inner):
        callback = inner
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        qualname = type(callback).__name__
    module = getattr(callback, "__module__", "") or ""
    module = module.rsplit(".", 1)[-1]
    return f"{module}:{qualname}" if module else qualname


def generator_site(process: "Process") -> str:
    """Attribution key for a process: its generator's code object."""
    code = getattr(process._generator, "gi_code", None)
    if code is None:
        return process.name
    qualname = getattr(code, "co_qualname", None) or code.co_name
    module = code.co_filename.rsplit("/", 1)[-1].removesuffix(".py")
    return f"{module}:{qualname}"


class SiteStats:
    """Exclusive wall time and hit count of one attribution site."""

    __slots__ = ("site", "kind", "count", "wall_seconds", "max_wall_seconds")

    def __init__(self, site: str, kind: str) -> None:
        self.site = site
        self.kind = kind  # "callback" | "step"
        self.count = 0
        self.wall_seconds = 0.0
        self.max_wall_seconds = 0.0

    def add(self, wall: float) -> None:
        self.count += 1
        self.wall_seconds += wall
        if wall > self.max_wall_seconds:
            self.max_wall_seconds = wall

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "max_wall_seconds": self.max_wall_seconds,
        }


class ProcessStats:
    """Host-CPU vs. simulated-time attribution of one process *name*.

    Processes with the same name (every ``call:add``, every dispatch of
    one operation) aggregate into one row — the useful granularity for
    "where does the time go" questions.
    """

    __slots__ = (
        "name",
        "steps",
        "wall_seconds",
        "first_sim",
        "last_sim",
        "completions",
    )

    def __init__(self, name: str, first_sim: float) -> None:
        self.name = name
        self.steps = 0
        self.wall_seconds = 0.0
        self.first_sim = first_sim
        self.last_sim = first_sim
        self.completions = 0

    @property
    def sim_span(self) -> float:
        """Simulated seconds between this name's first and last step."""
        return self.last_sim - self.first_sim

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "steps": self.steps,
            "wall_seconds": self.wall_seconds,
            "first_sim": self.first_sim,
            "last_sim": self.last_sim,
            "sim_span": self.sim_span,
            "completions": self.completions,
        }


class _TimelineEntry:
    """One record of the bounded wall-clock timeline."""

    __slots__ = ("kind", "site", "process", "wall_start", "wall_duration",
                 "sim_time", "heap_depth")

    def __init__(self, kind, site, process, wall_start, wall_duration,
                 sim_time, heap_depth):
        self.kind = kind
        self.site = site
        self.process = process
        self.wall_start = wall_start
        self.wall_duration = wall_duration
        self.sim_time = sim_time
        self.heap_depth = heap_depth


class SimProfiler:
    """Measures where the host CPU goes while a :class:`Simulator` runs.

    :param sim: the simulator to profile (install with :meth:`install`
        or the :func:`profile` context manager).
    :param timeline_capacity: bounded ring of per-event timeline records
        retained for :meth:`chrome_trace` (oldest dropped, counted in
        :attr:`timeline_dropped`); aggregates are never dropped.
    :param clock: wall-clock source; defaults to ``time.perf_counter``.
        Injectable so tests can drive the profiler deterministically.
    """

    def __init__(
        self,
        sim: "Simulator",
        timeline_capacity: int = 65536,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        from collections import deque

        self.sim = sim
        self._clock = clock if clock is not None else _default_clock
        self.installed = False
        # window bounds
        self._wall_start = 0.0
        self._wall_stop: Optional[float] = None
        self._sim_start = 0.0
        self._sim_stop: Optional[float] = None
        # totals
        self.events = 0
        self.process_steps = 0
        self.process_completions = 0
        self.event_wall_seconds = 0.0
        self.step_wall_seconds = 0.0
        self.heap_depth_max = 0
        self._heap_depth_sum = 0
        # attribution
        self.callback_sites: dict[str, SiteStats] = {}
        self.step_sites: dict[str, SiteStats] = {}
        self.processes: dict[str, ProcessStats] = {}
        # timeline ring
        self.timeline: "deque[_TimelineEntry]" = deque(maxlen=timeline_capacity)
        self.timeline_dropped = 0
        # in-flight event state (events never nest: the kernel dispatches
        # one callback at a time and resumes never recurse).
        self._event_site: Optional[str] = None
        self._event_wall0 = 0.0
        self._event_heap_depth = 0
        self._steps_wall_in_event = 0.0
        # in-flight step state
        self._step_wall0 = 0.0
        self._step_site: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "SimProfiler":
        """Attach to the simulator and open the profiling window."""
        if self.sim.profiler is not None and self.sim.profiler is not self:
            raise RuntimeError("another profiler is already installed")
        self.sim.profiler = self
        self.installed = True
        self._wall_start = self._clock()
        self._wall_stop = None
        self._sim_start = self.sim.now
        self._sim_stop = None
        return self

    def uninstall(self) -> "SimProfiler":
        """Detach and freeze the profiling window (idempotent)."""
        if self.installed:
            self._wall_stop = self._clock()
            self._sim_stop = self.sim.now
            if self.sim.profiler is self:
                self.sim.profiler = None
            self.installed = False
        return self

    # -- kernel hooks ----------------------------------------------------------

    def event_begin(self, callback: Callable, heap_depth: int) -> None:
        """Called by ``Simulator._drain`` before each event callback."""
        self._event_site = callback_site(callback)
        self._event_heap_depth = heap_depth
        self._steps_wall_in_event = 0.0
        if heap_depth > self.heap_depth_max:
            self.heap_depth_max = heap_depth
        self._heap_depth_sum += heap_depth
        self._event_wall0 = self._clock()

    def event_end(self) -> None:
        """Called by ``Simulator._drain`` after the callback returns."""
        wall = self._clock() - self._event_wall0
        site = self._event_site or "?"
        self._event_site = None
        self.events += 1
        self.event_wall_seconds += wall
        # Exclusive time: generator steps executed inside this event are
        # attributed to their own (step) site, not double-counted here.
        exclusive = max(0.0, wall - self._steps_wall_in_event)
        stats = self.callback_sites.get(site)
        if stats is None:
            stats = self.callback_sites[site] = SiteStats(site, "callback")
        stats.add(exclusive)
        self._append_timeline(
            "event", site, "", self._event_wall0, wall,
            self.sim.now, self._event_heap_depth,
        )

    def process_step_begin(self, process: "Process") -> None:
        """Called by ``Process._resume`` before stepping the generator."""
        self._step_site = generator_site(process)
        self._step_wall0 = self._clock()

    def process_step_end(self, process: "Process", finished: bool) -> None:
        """Called by ``Process._resume`` after the generator step."""
        wall = self._clock() - self._step_wall0
        site = self._step_site or process.name
        self._step_site = None
        self.process_steps += 1
        self.step_wall_seconds += wall
        self._steps_wall_in_event += wall
        stats = self.step_sites.get(site)
        if stats is None:
            stats = self.step_sites[site] = SiteStats(site, "step")
        stats.add(wall)
        proc = self.processes.get(process.name)
        if proc is None:
            proc = self.processes[process.name] = ProcessStats(
                process.name, self.sim.now
            )
        proc.steps += 1
        proc.wall_seconds += wall
        proc.last_sim = self.sim.now
        if finished:
            proc.completions += 1
            self.process_completions += 1
        self._append_timeline(
            "step", site, process.name, self._step_wall0, wall,
            self.sim.now, self._event_heap_depth,
        )

    def _append_timeline(self, kind, site, process, wall_start, wall_duration,
                         sim_time, heap_depth) -> None:
        if len(self.timeline) == self.timeline.maxlen:
            self.timeline_dropped += 1
        self.timeline.append(_TimelineEntry(
            kind, site, process, wall_start, wall_duration, sim_time,
            heap_depth,
        ))

    # -- results -----------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Length of the profiling window in wall-clock seconds."""
        stop = self._wall_stop if self._wall_stop is not None else self._clock()
        return stop - self._wall_start

    @property
    def sim_seconds(self) -> float:
        """Simulated time advanced during the profiling window."""
        stop = self._sim_stop if self._sim_stop is not None else self.sim.now
        return stop - self._sim_start

    @property
    def events_per_second(self) -> float:
        """Kernel event throughput over the whole profiled window."""
        wall = self.wall_seconds
        return self.events / wall if wall > 0 else 0.0

    @property
    def heap_depth_mean(self) -> float:
        return self._heap_depth_sum / self.events if self.events else 0.0

    def summary(self, top: int = 15) -> dict[str, Any]:
        """Aggregate profile as a JSON-ready dict."""
        by_wall = lambda s: (-s.wall_seconds, s.site)  # noqa: E731
        return {
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "process_steps": self.process_steps,
            "process_completions": self.process_completions,
            "event_wall_seconds": self.event_wall_seconds,
            "step_wall_seconds": self.step_wall_seconds,
            "heap_depth_max": self.heap_depth_max,
            "heap_depth_mean": self.heap_depth_mean,
            "timeline_dropped": self.timeline_dropped,
            "callback_sites": [
                s.to_dict()
                for s in sorted(self.callback_sites.values(), key=by_wall)[:top]
            ],
            "step_sites": [
                s.to_dict()
                for s in sorted(self.step_sites.values(), key=by_wall)[:top]
            ],
            "processes": [
                p.to_dict()
                for p in sorted(
                    self.processes.values(),
                    key=lambda p: (-p.wall_seconds, p.name),
                )[:top]
            ],
        }

    def bench_metrics(self) -> dict[str, float]:
        """The headline numbers tracked as BENCH metrics."""
        return {
            "sim_events_per_sec": self.events_per_second,
            "sim_process_steps_per_sec": (
                self.process_steps / self.wall_seconds
                if self.wall_seconds > 0
                else 0.0
            ),
            "sim_heap_depth_max": float(self.heap_depth_max),
        }

    # -- exports ---------------------------------------------------------------------

    def folded_stacks(self, weight: str = "wall") -> str:
        """Flamegraph folded-stack lines, one ``frame;frame value`` per site.

        ``weight="wall"`` emits integer microseconds of exclusive wall
        time; ``weight="events"`` emits hit counts — fully deterministic
        under a fixed seed, which is what the stability tests pin.
        Output is sorted, so equal profiles render byte-identical.
        """
        if weight not in ("wall", "events"):
            raise ValueError(f"unknown folded-stack weight {weight!r}")
        lines = []
        for stats in self.callback_sites.values():
            value = (
                stats.count
                if weight == "events"
                else int(round(stats.wall_seconds * 1e6))
            )
            lines.append(f"kernel;{stats.site} {value}")
        for stats in self.step_sites.values():
            value = (
                stats.count
                if weight == "events"
                else int(round(stats.wall_seconds * 1e6))
            )
            lines.append(f"kernel;process;{stats.site} {value}")
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    def chrome_trace(self) -> dict[str, Any]:
        """The retained timeline as a Chrome ``trace_event`` document.

        Events lie on the *wall-clock* axis (microseconds since the
        profiling window opened); each carries the simulated time and heap
        depth as args.  Heap depth is additionally emitted as a counter
        track (``ph: "C"``) so Perfetto plots it as a graph.
        """
        events: list[dict[str, Any]] = []
        tids: dict[str, int] = {}
        for entry in self.timeline:
            lane = entry.process or "kernel"
            tid = tids.setdefault(lane, len(tids) + 1)
            events.append({
                "name": entry.site,
                "cat": entry.kind,
                "ph": "X",
                "ts": max(0.0, entry.wall_start - self._wall_start) * 1e6,
                "dur": entry.wall_duration * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {
                    "sim_time": entry.sim_time,
                    "heap_depth": entry.heap_depth,
                },
            })
            if entry.kind == "event":
                events.append({
                    "name": "heap_depth",
                    "ph": "C",
                    "ts": max(0.0, entry.wall_start - self._wall_start) * 1e6,
                    "pid": 1,
                    "tid": 0,
                    "args": {"depth": entry.heap_depth},
                })
        metadata: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "sim-kernel (wall clock)"},
            }
        ]
        for lane, tid in tids.items():
            metadata.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": lane},
            })
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


@contextmanager
def profile(sim: "Simulator", **kwargs: Any) -> Iterator[SimProfiler]:
    """Profile everything run inside the block::

        with profile(runtime.sim) as prof:
            runtime.run(client())
        print(prof.events_per_second)
    """
    profiler = SimProfiler(sim, **kwargs).install()
    try:
        yield profiler
    finally:
        profiler.uninstall()
