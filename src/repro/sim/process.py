"""Simulation processes and activities, and the one rule by which they wait.

A process wraps a generator that ``yield``s :class:`SimFuture` objects.  The
kernel resumes the generator with the future's value (or throws the future's
exception into it).  A process is itself a future: it succeeds with the
generator's return value, fails with an uncaught exception, and can be
awaited by other processes or joined from outside the simulation.

An :class:`Activity` is the same thing without the generator: a future
stepped by bound methods, each of which starts some wait and names the
method that continues once it resolves.  The ORB runs every invocation and
every dispatch as one, so a call costs no process of its own.

Both wait under one rule (:class:`Waiter`).  When a waited future
*succeeds* inside a kernel event callback — no process or activity step is
running — the waiter resumes right there, in that event.  In every other
case it resumes one ``call_soon`` hop later: when the future failed, when
it had already resolved before it was waited on, and when another step
resolved it.  So no waiter ever resumes nested inside another step, and
the code between two waits stays atomic; and a crash, whose failures all
hop, runs every kill and listener before any waiter sees one of them.
(An activity resolves itself from inside its last step, so whoever waits
on it hops; a process's end is resolved just after its last step, so a
joiner resumes in place when that step ran in place.)

Processes and activities can be killed; a process's kill is delivered as a
:class:`~repro.errors.ProcessKilled` exception thrown into its generator,
so ``finally`` blocks run and resource cleanup is deterministic.  Host
crashes use exactly this mechanism.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import _FAILED, _PENDING, _SUCCEEDED, SimFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Waiter(SimFuture):
    """What processes and activities share: a name, the trace context
    inherited from whoever created it, and the wake rule.

    A subclass waits with :meth:`_wait` and receives the resolved future
    in :meth:`_step`.  A wait registers one bound method and nothing else.
    None is kept on the waiter itself: a bound method of its own stored on
    it would make every finished waiter a reference cycle, freed only by
    the cyclic collector instead of at its last reference.
    """

    __slots__ = ("name", "trace_context", "_waiting_on", "_next")

    def __init__(self, sim: "Simulator", name: str, label: str) -> None:
        super().__init__(sim, label=label)
        self.name = name
        #: the future this waiter waits on; None while it runs, and after
        #: a kill, which is how a wakeup already on its way goes stale.
        self._waiting_on: Optional[SimFuture] = None
        #: an activity's next step while it waits (a process's is its
        #: generator)
        self._next: Optional[Callable[[Any], None]] = None
        #: observability trace context; inherited from the creating process
        #: or activity (or the ambient driver context) so spans stay
        #: causally linked across spawn boundaries.
        creator = sim.current_process
        self.trace_context = (
            creator.trace_context if creator is not None else sim.ambient_trace_context
        )

    def _step(self, resolved: Any) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _wait(
        self, future: SimFuture, step: Optional[Callable[[Any], None]] = None
    ) -> None:
        """Wait for ``future``; :meth:`_step` receives it once resolved
        (and an activity goes on in ``step``)."""
        if self._state is not _PENDING:
            # An activity killed during the step that asked: nobody waits.
            future.mark_abandoned()
            return
        self._next = step
        self._waiting_on = future
        if future._state is _PENDING:
            callbacks = future._callbacks
            if callbacks is None:
                future._callbacks = [self._waited_done]
            else:
                callbacks.append(self._waited_done)
        else:
            self.sim.call_soon(partial(self._wake, future))

    def _waited_done(self, future: SimFuture) -> None:
        """The wake rule: in place from a kernel event, one hop otherwise."""
        if future is not self._waiting_on:
            return  # killed while the future was resolving
        sim = self.sim
        if future._state is _SUCCEEDED and sim.current_process is None and sim._running:
            self._waiting_on = None
            self._step(future)
        else:
            sim.call_soon(partial(self._wake, future))

    def _wake(self, future: SimFuture) -> None:
        # Re-check at execution time: a kill issued between the future
        # resolving and this wakeup running must win.
        if future is not self._waiting_on:
            return
        self._waiting_on = None
        self._step(future)

    def _stop_waiting(self) -> None:
        """Abandon the current wait (a kill): mark the future abandoned so
        single-consumer resources (locks, channel receives) skip this dead
        waiter and producers (CPU tasks) stop working for it, and take the
        wakeup back so a later resolution cannot resume it."""
        waiting = self._waiting_on
        if waiting is None:
            return
        self._waiting_on = None
        waiting.mark_abandoned()
        callbacks = waiting._callbacks
        if callbacks and self._waited_done in callbacks:
            callbacks.remove(self._waited_done)

    def _finish_failure(self, exc: BaseException, unhandled: bool) -> None:
        had_watchers = bool(self._callbacks)
        self.fail(exc)
        if unhandled and not had_watchers:
            self.sim.unhandled_failures.append((self.name, exc))


class Process(Waiter):
    """A running simulation process. Create via :meth:`Simulator.spawn`
    (first step one hop later) or :meth:`Host.start
    <repro.cluster.host.Host.start>` (first step inside the caller's)."""

    __slots__ = ("_generator", "_in_resume", "_pending_kill")

    def __init__(
        self, sim: "Simulator", generator: Generator, name: str = "", start: bool = True
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() expects a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        name = name or getattr(generator, "__name__", "process")
        super().__init__(sim, name, f"process:{name}")
        self._generator = generator
        self._in_resume = False
        self._pending_kill: Optional[BaseException] = None
        sim._register_process(self)
        if start:
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
        self._stop_waiting()
        self.sim.call_soon(partial(self._resume, None, exc))

    # -- stepping -------------------------------------------------------------

    def _step(self, resolved: Any) -> None:
        if resolved._state is _FAILED:
            exc = resolved._exception
            assert exc is not None
            self._resume(None, exc)
        else:
            self._resume(resolved._value, None)

    def _resume(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._state is not _PENDING:
            return
        if throw_exc is None and self._pending_kill is not None:
            # A kill was requested between scheduling this resume and now
            # (e.g. the host crashed before the process's first step).
            throw_exc, self._pending_kill = self._pending_kill, None
        self._in_resume = True
        # Generator code runs with this process installed as current, so
        # spawned children and the tracer see the right context; restored
        # before completion callbacks fire, so a process whose last step
        # ran in place from a kernel event wakes whoever joins it in place.
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
            self.succeed(stop.value)
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
            sim.call_soon(partial(self._resume, None, exc))
            return

        if not isinstance(yielded, SimFuture):
            error = SimulationError(
                f"process {self.name} yielded {yielded!r}; processes may only "
                "yield SimFuture objects"
            )
            sim.call_soon(partial(self._resume, None, error))
            return

        self._wait(yielded)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {self.state.value}>"


class Activity(Waiter):
    """A host-bound activity stepped by bound methods.

    A step is a method taking the future it waited for.  It ends with one
    of: :meth:`_wait` (wait for a future, go on in the named step),
    :meth:`_start` (hand over to a process started right here), or a
    resolution of the activity itself.  While a step runs the activity is
    ``sim.current_process``, so the tracer and the processes it starts see
    its trace context and name exactly as they would a process's.

    An exception escaping a step fails the activity, recorded as unhandled
    when nobody watches it; a kill (its host crashed) fails it at once with
    :class:`ProcessKilled`.  Either way :meth:`_release` runs first, as the
    activity, to give back what it holds.  A CPU charge it waits on fails
    only when its host crashes, and the crash kills the activity first.
    """

    __slots__ = ("host",)

    def __init__(self, host: Any, name: str, label: str = "") -> None:
        # ``name`` is whole (``<host>/<what>``): its maker builds it once
        # and every activity of the kind shares the string.
        super().__init__(host.sim, name, label or name)
        self.host = host
        host.adopt(self)

    def _start(
        self, generator: Generator, name: str, step: Callable[[Any], None]
    ) -> Process:
        """Run ``generator`` as a process on this activity's host, its first
        step inside this one (:meth:`Host.start
        <repro.cluster.host.Host.start>`).  A process still running after
        that step is waited for, continuing in ``step(process)``; one that
        already ended is returned for this step to go on with, as it would
        after ``yield from``."""
        process: Process = self.host.start(generator, name, self._waited_done)
        if process._state is _PENDING and self._state is _PENDING:
            self._next = step
            self._waiting_on = process
        return process

    def _step(self, resolved: Any) -> None:
        """Run the next step on ``resolved`` with this activity current."""
        step = self._next
        assert step is not None
        self._next = None
        sim = self.sim
        previous_process = sim.current_process
        sim.current_process = self
        try:
            step(resolved)
        except ProcessKilled as killed:
            self._finish_failure(killed, unhandled=False)
        except BaseException as exc:  # noqa: BLE001 - a step failed
            self._finish_failure(exc, unhandled=True)
        finally:
            sim.current_process = previous_process

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Fail the activity now with ``exc`` (default
        :class:`ProcessKilled`). Idempotent once done."""
        if self._state is not _PENDING:
            return
        sim = self.sim
        previous_process = sim.current_process
        sim.current_process = self
        try:
            self._finish_failure(
                exc or ProcessKilled(f"activity {self.name} killed"), unhandled=False
            )
        finally:
            sim.current_process = previous_process

    def _finish_failure(self, exc: BaseException, unhandled: bool) -> None:
        if self._state is not _PENDING:
            return
        self._stop_waiting()
        self._release(exc)
        Waiter._finish_failure(self, exc, unhandled)

    def _release(self, exc: BaseException) -> None:
        """Give back what the activity holds as it fails (a hook)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Activity {self.name} {self.state.value}>"
