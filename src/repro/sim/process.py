"""Generator-based simulation processes.

A process wraps a generator that ``yield``s :class:`SimFuture` objects.  The
kernel resumes the generator with the future's value (or throws the future's
exception into it).  A process is itself a future: it succeeds with the
generator's return value, fails with an uncaught exception, and can be
awaited by other processes or joined from outside the simulation.

Processes can be :meth:`killed <Process.kill>`; the kill is delivered as a
:class:`~repro.errors.ProcessKilled` exception thrown into the generator, so
``finally`` blocks run and resource cleanup is deterministic.  Host crashes
use exactly this mechanism.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import _FAILED, _PENDING, SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Process(SimFuture):
    """A running simulation process. Create via :meth:`Simulator.spawn`."""

    __slots__ = (
        "_generator",
        "name",
        "_wait_generation",
        "_waiting_on",
        "_in_resume",
        "_pending_kill",
        "_started",
        "trace_context",
    )

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() expects a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        self.name = name or getattr(generator, "__name__", "process")
        super().__init__(sim, label=f"process:{self.name}")
        self._generator = generator
        self._wait_generation = 0
        self._waiting_on: Optional[SimFuture] = None
        self._in_resume = False
        self._pending_kill: Optional[BaseException] = None
        self._started = False
        #: observability trace context; inherited from the spawning process
        #: (or the ambient driver context) so spans stay causally linked
        #: across spawn boundaries.
        spawner = sim.current_process
        self.trace_context = (
            spawner.trace_context
            if spawner is not None
            else sim.ambient_trace_context
        )
        sim._register_process(self)
        sim.call_soon(partial(self._resume, None, None))

    # -- lifecycle ----------------------------------------------------------

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Terminate the process by throwing ``exc`` (default
        :class:`ProcessKilled`) into its generator. Idempotent once done."""
        if self._state is not _PENDING:
            return
        exc = exc if exc is not None else ProcessKilled(f"process {self.name} killed")
        self._pending_kill = exc
        if self._in_resume:
            # Self-kill (or kill from a callback triggered by this process's
            # own step): deliver once the current step finishes.
            return
        # Invalidate any pending wakeup from the future we were waiting on,
        # and mark that future abandoned so single-consumer resources
        # (locks, channel receives) skip this dead waiter and producers
        # (CPU tasks) stop working for it.
        if self._waiting_on is not None:
            self._waiting_on.mark_abandoned()
        self._wait_generation += 1
        self._waiting_on = None
        self.sim.call_soon(partial(self._resume, None, exc))

    # -- stepping -------------------------------------------------------------

    def _resume(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._state is not _PENDING:
            return
        if throw_exc is None and self._pending_kill is not None:
            # A kill was requested between scheduling this resume and now
            # (e.g. the host crashed before the process's first step).
            throw_exc, self._pending_kill = self._pending_kill, None
        self._in_resume = True
        self._started = True
        # Generator code runs with this process installed as current, so
        # spawned children and the tracer see the right context; restored
        # before completion callbacks fire.
        sim = self.sim
        previous_process = sim.current_process
        sim.current_process = self
        try:
            if throw_exc is not None:
                yielded = self._generator.throw(throw_exc)
            else:
                yielded = self._generator.send(send_value)
        except StopIteration as stop:
            sim.current_process = previous_process
            self._in_resume = False
            self._finish_success(stop.value)
            return
        except ProcessKilled as killed:
            sim.current_process = previous_process
            self._in_resume = False
            self._finish_failure(killed, unhandled=False)
            return
        except BaseException as exc:  # noqa: BLE001 - process body failed
            sim.current_process = previous_process
            self._in_resume = False
            self._finish_failure(exc, unhandled=True)
            return
        sim.current_process = previous_process
        self._in_resume = False

        if self._pending_kill is not None:
            exc, self._pending_kill = self._pending_kill, None
            self._wait_generation += 1
            self._waiting_on = None
            sim.call_soon(partial(self._resume, None, exc))
            return

        if not isinstance(yielded, SimFuture):
            error = SimulationError(
                f"process {self.name} yielded {yielded!r}; processes may only "
                "yield SimFuture objects"
            )
            sim.call_soon(partial(self._resume, None, error))
            return

        # Wait for the yielded future: when it resolves, one event wakes
        # this process (``_wake``) unless a kill or redirect came first.
        self._waiting_on = yielded
        self._wait_generation = generation = self._wait_generation + 1
        yielded.add_done_callback(partial(self._on_waited_done, generation))

    def _on_waited_done(self, generation: int, resolved: SimFuture) -> None:
        if self._state is not _PENDING or generation != self._wait_generation:
            return  # stale wakeup (we were killed or redirected)
        self.sim.call_soon(partial(self._wake, generation, resolved))

    def _wake(self, generation: int, resolved: SimFuture) -> None:
        # Re-check staleness at execution time: a kill() issued between
        # the future resolving and this wakeup running must win.
        if self._state is not _PENDING or generation != self._wait_generation:
            return
        self._waiting_on = None
        if resolved._state is _FAILED:
            exc = resolved._exception
            assert exc is not None
            self._resume(None, exc)
        else:
            self._resume(resolved._value, None)

    # -- completion -------------------------------------------------------------

    def _finish_success(self, value: Any) -> None:
        self.succeed(value)

    def _finish_failure(self, exc: BaseException, unhandled: bool) -> None:
        had_watchers = bool(self._callbacks)
        self.fail(exc)
        if unhandled and not had_watchers:
            self.sim.unhandled_failures.append((self.name, exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {self.state.value}>"
