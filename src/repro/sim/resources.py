"""Processor-sharing CPU resource.

This is the mechanism behind every runtime number in the paper's evaluation:
compute tasks submitted to a host's CPU share it equally (round-robin
scheduling of CPU-bound processes, the classic egalitarian
processor-sharing model of Unix timesharing).  A background-load process on
a host therefore halves the rate of a co-located worker — exactly the effect
Fig. 3 measures.

Under egalitarian sharing every task present attains service at the same
rate, so one clock says how far all of them have got: ``V``, the service a
task present since the start of the busy period would have attained.  A
task of ``work`` units submitted at ``V`` finishes when ``V`` reaches its
finish tag ``V + work``; the tags sit in a heap, and the head is the next
completion.  A change of the CPU (a charge, a departure, a speed change)
therefore costs one clock step and one heap operation instead of a scan of
every task.  The completion event is re-armed only when the head or the
rate changed: a charge on a CPU with a free core, whose tag is not the new
head, schedules nothing.  ``V`` and the heap restart from zero whenever the
CPU empties, so ``V <= speed * now`` and a tag difference is never coarser
than the simulated clock itself; a charge on an idle CPU starts the busy
period with its completion ``work / speed`` ahead.

A task is its own future (:class:`_Task`): abandoning it — what a killed
waiter does — withdraws it from the CPU.

The CPU also integrates its busy time so the Winner node manager can sample
utilization, and exposes its run-queue length for load-average metrics.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, TYPE_CHECKING

from repro.errors import ComputeAborted, SimulationError
from repro.sim.events import SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import ScheduledEvent, Simulator

_WORK_EPSILON = 1e-9
_INF = float("inf")


class _Task(SimFuture):
    """A CPU task and the future its waiter yields: ``cpu`` is the CPU it
    runs on (None once it has left it), ``work`` its size in work units."""

    __slots__ = ("cpu", "work")

    cpu: Optional["ProcessorSharingCPU"]
    work: float

    def mark_abandoned(self) -> None:
        """A killed waiter's task leaves the run queue immediately (as a
        killed Unix process does): nobody waits for its result."""
        SimFuture.mark_abandoned(self)
        cpu = self.cpu
        if cpu is not None:
            self.cpu = None
            cpu._withdraw()


#: a finish tag: ``(V at completion, submission seq, task)``; ``seq`` is
#: unique, so heap comparisons never reach the task.
_Tag = tuple[float, int, _Task]


class ProcessorSharingCPU:
    """A multi-core CPU with egalitarian processor sharing.

    :param speed: work units per second delivered to a task running alone on
        one core.  Relative host speeds (the Winner "benchmark rating") are
        expressed through this.
    :param cores: number of cores; ``n`` tasks on ``c`` cores each progress
        at ``speed * min(1, c / n)``.
    """

    __slots__ = (
        "sim",
        "speed",
        "cores",
        "_tags",
        "_running",
        "_seq",
        "_vtime",
        "_last_update",
        "_completion",
        "busy_integral",
        "work_completed",
    )

    def __init__(self, sim: "Simulator", speed: float = 1.0, cores: int = 1) -> None:
        if not 0.0 < speed < _INF:
            raise SimulationError(f"CPU speed must be positive and finite, got {speed}")
        if cores < 1:
            raise SimulationError(f"CPU needs at least one core, got {cores}")
        self.sim = sim
        self.speed = speed
        self.cores = cores
        #: finish-tag heap; its head is always a task still running, while
        #: a withdrawn task deeper down is dropped when it surfaces.
        self._tags: list[_Tag] = []
        #: tasks on the CPU (the heap may also hold withdrawn ones)
        self._running = 0
        self._seq = 0
        #: attained service per task since the busy period began
        self._vtime = 0.0
        self._last_update = sim.now
        self._completion: Optional["ScheduledEvent"] = None
        #: time-integral of the fraction of total capacity in use.
        self.busy_integral = 0.0
        #: total work units completed (for accounting/ablation reports).
        self.work_completed = 0.0

    # -- public API -----------------------------------------------------------

    def execute(self, work: float) -> SimFuture:
        """Submit ``work`` units; returns the task, a future that succeeds
        with the simulated time at which it finishes (0.0 for work within
        epsilon of none, which finishes at once)."""
        if not 0.0 <= work < _INF:
            raise SimulationError(f"work must be non-negative and finite, got {work}")
        task = _Task(self.sim, "cpu-task")
        if work <= _WORK_EPSILON:
            task.cpu = None
            task.work = work
            self.work_completed += work
            self.sim.call_soon(lambda: task.try_succeed(0.0))
            return task
        task.cpu = self
        task.work = work
        seq = self._seq
        self._seq = seq + 1
        tags = self._tags
        running = self._running
        if not running:
            # An idle CPU starts a busy period: V is zero, the task runs
            # alone at full speed, and nothing is armed yet.
            sim = self.sim
            self._last_update = sim.now
            self._running = 1
            tags.append((work, seq, task))
            self._completion = sim.schedule(work / self.speed, self._on_completion)
            return task
        self._advance()
        tag = self._vtime + work
        running += 1
        self._running = running
        # Re-arm when the rate of every task fell (the run queue already
        # filled every core) or this task finishes first; otherwise the
        # armed completion still stands.
        rearm = running > self.cores or tag < tags[0][0]
        heappush(tags, (tag, seq, task))
        if rearm:
            self._arm_completion()
        return task

    def abort_all(self, exc: Optional[BaseException] = None) -> int:
        """Fail every in-flight task (host crash), in submission order.
        Returns the count."""
        self._advance()
        live = [
            task
            for _, _, task in sorted(self._tags, key=_submission_order)
            if task.cpu is not None
        ]
        for task in live:
            task.cpu = None
        self._restart()
        self._arm_completion()
        for task in live:
            task.try_fail(exc if exc is not None else ComputeAborted("host crashed"))
        return len(live)

    @property
    def run_queue_length(self) -> int:
        """Number of tasks currently sharing the CPU."""
        return self._running

    def utilization_integral(self) -> float:
        """Busy integral up to *now* (advance bookkeeping first)."""
        self._advance()
        return self.busy_integral

    def load_sample(self) -> tuple[float, int]:
        """``(busy integral up to now, run-queue length)``: what a load
        sampler reads per host per sweep, in one call.  An idle CPU has
        accrued nothing since its last change, so its integral is read
        as it stands (all :meth:`_advance` would do there is stamp
        ``_last_update``, which the next change stamps again before any
        elapsed time is charged)."""
        running = self._running
        if running:
            self._advance()
        return self.busy_integral, running

    def set_speed(self, speed: float) -> None:
        """Change the delivered speed mid-run (gray-host degradation).

        Work already completed is accounted at the old rate; in-flight
        tasks continue at the new rate from *now*.
        """
        if not 0.0 < speed < _INF:
            raise SimulationError(f"CPU speed must be positive and finite, got {speed}")
        self._advance()
        self.speed = speed
        self._arm_completion()

    # -- internals ----------------------------------------------------------

    def _advance(self) -> None:
        """Account the progress made since the last update: one step of
        the attained-service clock, whatever the number of tasks."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        running = self._running
        if running and elapsed > 0:
            cores = self.cores
            step = self.speed * (1.0 if running <= cores else cores / running) * elapsed
            self._vtime += step
            self.busy_integral += elapsed * (running if running < cores else cores) / cores
            self.work_completed += running * step

    def _restart(self) -> None:
        """No task left: a new busy period starts its clock from zero."""
        self._tags.clear()
        self._running = 0
        self._vtime = 0.0

    def _withdraw(self) -> None:
        """An abandoned task left (its ``cpu`` is already None)."""
        self._advance()
        running = self._running - 1
        if running:
            self._running = running
            tags = self._tags
            while tags[0][2].cpu is None:
                heappop(tags)
        else:
            self._restart()
        self._arm_completion()

    def _arm_completion(self) -> None:
        """Replace the completion event by one for the head of the heap
        (none on an idle CPU)."""
        completion = self._completion
        if completion is not None:
            completion.cancel()
            self._completion = None
        running = self._running
        if running:
            cores = self.cores
            delay = (self._tags[0][0] - self._vtime) / (
                self.speed * (1.0 if running <= cores else cores / running)
            )
            self._completion = self.sim.schedule(
                delay if delay > 0.0 else 0.0, self._on_completion
            )

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        tags = self._tags
        vtime = self._vtime
        first = tags[0]
        task = first[2]
        work = task.work
        # The head is done within epsilon, or within the sliver that
        # rounding may leave of a long task; anything more is a completion
        # that rounding fired early.
        if first[0] - vtime > _WORK_EPSILON * (work if work > 1.0 else 1.0):
            self._arm_completion()
            return
        # Every task within epsilon of done finishes with the head, and
        # all of them leave the CPU before any resolves, so a callback
        # abandoning one of them withdraws nothing.
        heappop(tags)
        task.cpu = None
        running = self._running - 1
        batch: Optional[list[_Tag]] = None
        while running:
            head = tags[0]
            if head[2].cpu is None:
                heappop(tags)
            elif head[0] - vtime <= _WORK_EPSILON:
                heappop(tags)
                head[2].cpu = None
                running -= 1
                if batch is None:
                    batch = [first]
                batch.append(head)
            else:
                break
        if running:
            self._running = running
            self._arm_completion()
        else:
            self._restart()
        now = self.sim.now
        if batch is None:
            task.try_succeed(now)
        else:
            batch.sort(key=_submission_order)
            for _, _, task in batch:
                task.try_succeed(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CPU speed={self.speed} cores={self.cores} "
            f"queue={self._running}>"
        )


def _submission_order(entry: _Tag) -> int:
    return entry[1]
