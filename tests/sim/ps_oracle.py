"""The scan processor-sharing CPU: the reference the virtual-time CPU is
held to.

``repro.sim.ProcessorSharingCPU`` keeps one attained-service clock and a
heap of finish tags.  This is the form it was derived from — a table of
tasks, each with its own remaining work, scanned on every change, and a
completion event cancelled and re-armed on every change — kept here,
outside the product code, so ``tests/sim/test_ps_oracle.py`` can hold the
virtual-time CPU's completions to it.  The one change from the library
form is :class:`_OracleFuture`: the kernel's futures no longer carry
abandon callbacks, so the oracle's own future calls it back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.errors import ComputeAborted, SimulationError
from repro.sim.events import _PENDING, SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import ScheduledEvent, Simulator

_WORK_EPSILON = 1e-9
#: the least work left on a CPU with no tasks
_IDLE = float("inf")


class _OracleFuture(SimFuture):
    """A future that runs ``on_abandon()``, once set, when its waiter is
    killed (a zero-work task never sets it)."""

    __slots__ = ("on_abandon",)

    def mark_abandoned(self) -> None:
        if self._state is _PENDING and not self.abandoned:
            SimFuture.mark_abandoned(self)
            on_abandon = getattr(self, "on_abandon", None)
            if on_abandon is not None:
                on_abandon()


@dataclass(slots=True)
class _Task:
    task_id: int
    remaining: float
    future: SimFuture
    total: float


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
        "_tasks",
        "_ids",
        "_last_update",
        "_completion",
        "busy_integral",
        "work_completed",
    )

    def __init__(self, sim: "Simulator", speed: float = 1.0, cores: int = 1) -> None:
        if not speed > 0:
            raise SimulationError(f"CPU speed must be positive, got {speed}")
        if cores < 1:
            raise SimulationError(f"CPU needs at least one core, got {cores}")
        self.sim = sim
        self.speed = speed
        self.cores = cores
        self._tasks: dict[int, _Task] = {}
        self._ids = itertools.count()
        self._last_update = sim.now
        self._completion: Optional["ScheduledEvent"] = None
        #: time-integral of the fraction of total capacity in use.
        self.busy_integral = 0.0
        #: total work units completed (for accounting/ablation reports).
        self.work_completed = 0.0

    # -- public API -----------------------------------------------------------

    def execute(self, work: float) -> SimFuture:
        """Submit ``work`` units; returns a future that succeeds with the
        elapsed simulated duration when the task finishes."""
        if not work >= 0:
            raise SimulationError(f"work must be non-negative, got {work}")
        future = _OracleFuture(self.sim, label="cpu-task")
        if work <= _WORK_EPSILON:
            self.work_completed += work
            self.sim.call_soon(lambda: future.try_succeed(0.0))
            return future
        shortest = self._advance()
        task_id = next(self._ids)
        self._tasks[task_id] = _Task(task_id, work, future, work)
        # If the waiting process is killed, stop burning CPU for it (a
        # killed Unix process leaves the run queue immediately).
        future.on_abandon = partial(self._abort_task, task_id)
        self._arm_completion(work if work < shortest else shortest)
        return future

    def _abort_task(self, task_id: int) -> None:
        if task_id in self._tasks:
            self._advance()
            del self._tasks[task_id]
            self._arm_completion(self._shortest())

    def abort_all(self, exc: Optional[BaseException] = None) -> int:
        """Fail every in-flight task (host crash). Returns the count."""
        self._advance()
        tasks = list(self._tasks.values())
        self._tasks.clear()
        self._arm_completion(_IDLE)
        for task in tasks:
            task.future.try_fail(
                exc if exc is not None else ComputeAborted("host crashed")
            )
        return len(tasks)

    @property
    def run_queue_length(self) -> int:
        """Number of tasks currently sharing the CPU."""
        return len(self._tasks)

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
        tasks = self._tasks
        if tasks:
            self._advance()
        return self.busy_integral, len(tasks)

    def set_speed(self, speed: float) -> None:
        """Change the delivered speed mid-run (gray-host degradation).

        Work already completed is accounted at the old rate; in-flight
        tasks continue at the new rate from *now*.
        """
        if not speed > 0:
            raise SimulationError(f"CPU speed must be positive, got {speed}")
        shortest = self._advance()
        self.speed = speed
        self._arm_completion(shortest)

    # -- internals ----------------------------------------------------------

    def _advance(self, finished: Optional[list[_Task]] = None) -> float:
        """Account the progress made since the last update: the one scan
        of the task table a CPU change costs.

        Returns the least work any task still has to do (``inf`` when there
        is none).  Tasks that are done are appended to ``finished``, when
        given, and do not count towards it.  The arithmetic keeps the order
        the pinned simulated times were produced with: ``(speed * share) *
        elapsed`` once, then ``work_completed +=`` per task in table order.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        tasks = self._tasks
        shortest = _IDLE
        if not tasks:
            return shortest
        n = len(tasks)
        cores = self.cores
        if elapsed > 0:
            step = self.speed * (1.0 if n <= cores else cores / n) * elapsed
            self.busy_integral += elapsed * (n if n < cores else cores) / cores
        else:
            step = 0.0
        completed = self.work_completed
        for task in tasks.values():
            remaining = task.remaining
            if step < remaining:
                remaining -= step
                completed += step
            else:
                completed += remaining
                remaining = 0.0
            task.remaining = remaining
            if finished is not None and remaining <= _WORK_EPSILON:
                finished.append(task)
            elif remaining < shortest:
                shortest = remaining
        self.work_completed = completed
        return shortest

    def _shortest(self) -> float:
        return min((task.remaining for task in self._tasks.values()), default=_IDLE)

    def _arm_completion(self, shortest: float) -> None:
        """Replace the completion event by one for the task that has
        ``shortest`` work left (none on an idle CPU)."""
        completion = self._completion
        if completion is not None:
            completion.cancel()
            self._completion = None
        n = len(self._tasks)
        if n:
            cores = self.cores
            delay = shortest / (self.speed * (1.0 if n <= cores else cores / n))
            self._completion = self.sim.schedule(
                delay if delay > 0.0 else 0.0, self._on_completion
            )

    def _on_completion(self) -> None:
        self._completion = None
        tasks = self._tasks
        finished: list[_Task] = []
        shortest = self._advance(finished)
        for task in finished:
            del tasks[task.task_id]
        if not finished:
            # Numerical slack: the shortest task is within epsilon of done
            # but rounding left a sliver; force-complete the minimum.
            sliver = min(tasks.values(), key=lambda t: t.remaining)
            if sliver.remaining <= _WORK_EPSILON * max(1.0, sliver.total):
                finished.append(sliver)
                del tasks[sliver.task_id]
                shortest = self._shortest()
        self._arm_completion(shortest)
        now = self.sim.now
        for task in finished:
            task.future.try_succeed(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CPU speed={self.speed} cores={self.cores} "
            f"queue={len(self._tasks)}>"
        )
