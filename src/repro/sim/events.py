"""Futures and combinators for the simulation kernel.

A :class:`SimFuture` is the single awaitable primitive: processes yield
futures, and every other waitable object in the system (timeouts, CPU tasks,
channel receives, ORB replies, whole processes) either *is* a future or
resolves one.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class FutureState(enum.Enum):
    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


#: the states as module globals: the kernel, the process stepper and the
#: methods below test ``_state`` several times per event.
_PENDING = FutureState.PENDING
_SUCCEEDED = FutureState.SUCCEEDED
_FAILED = FutureState.FAILED


class SimFuture:
    """A one-shot result container resolved at a simulated instant.

    Callbacks registered with :meth:`add_done_callback` run *synchronously*
    in resolution order when the future resolves; the kernel relies on this
    for deterministic process wake-up ordering (the waking of blocked
    processes is itself funnelled through the event heap by
    :class:`~repro.sim.process.Process`).
    """

    __slots__ = (
        "sim",
        "_state",
        "_value",
        "_exception",
        "_callbacks",
        "label",
        "abandoned",
    )

    def __init__(self, sim: "Simulator", label: str = "") -> None:
        self.sim = sim
        self._state = _PENDING
        self._value: Any = None
        self._exception: BaseException | None = None
        # Callback lists start as None: most futures (CPU tasks, channel
        # gets at scale) resolve with at most one observer, so the empty
        # list per future is pure allocation overhead on the hot path.
        self._callbacks: list[Callable[[SimFuture], None]] | None = None
        self.label = label
        #: set when the (sole) process waiting on this future was killed;
        #: single-consumer resources (locks, channel receives) check it to
        #: avoid handing a resource to a dead process.
        self.abandoned = False

    def mark_abandoned(self) -> None:
        """Flag this future as abandoned: its waiting process was killed.
        A no-op once the future has resolved.  A producer whose future
        stands for work (a CPU task) overrides this to stop that work."""
        if self._state is _PENDING:
            self.abandoned = True

    # -- state ------------------------------------------------------------

    @property
    def state(self) -> FutureState:
        return self._state

    @property
    def is_pending(self) -> bool:
        return self._state is _PENDING

    @property
    def is_done(self) -> bool:
        return self._state is not _PENDING

    @property
    def succeeded(self) -> bool:
        return self._state is _SUCCEEDED

    @property
    def failed(self) -> bool:
        return self._state is _FAILED

    @property
    def value(self) -> Any:
        """The result value. Raises if pending or failed."""
        if self._state is _PENDING:
            raise SimulationError(f"future {self.label or self!r} is still pending")
        if self._state is _FAILED:
            assert self._exception is not None
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # -- resolution -------------------------------------------------------

    # succeed/try_succeed run once per wake-up of every process, so each
    # carries the callback loop itself instead of sharing ``_dispatch``.

    def succeed(self, value: Any = None) -> "SimFuture":
        if self._state is not _PENDING:
            raise SimulationError(
                f"future {self.label or self!r} already {self._state.value}"
            )
        self._state = _SUCCEEDED
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)
        return self

    def fail(self, exc: BaseException) -> "SimFuture":
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() expects an exception, got {exc!r}")
        if self._state is not _PENDING:
            raise SimulationError(
                f"future {self.label or self!r} already {self._state.value}"
            )
        self._state = _FAILED
        self._exception = exc
        self._dispatch()
        return self

    def try_succeed(self, value: Any = None) -> bool:
        """Resolve if still pending; return whether this call resolved it."""
        if self._state is not _PENDING:
            return False
        self._state = _SUCCEEDED
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for callback in callbacks:
                callback(self)
        return True

    def try_fail(self, exc: BaseException) -> bool:
        if self._state is not _PENDING:
            return False
        self.fail(exc)
        return True

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    # -- observation ------------------------------------------------------

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Register ``callback(self)``; runs immediately if already done."""
        if self._state is not _PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        detail = self.label or hex(id(self))
        return f"<SimFuture {detail} {self._state.value}>"


def all_of(sim: "Simulator", futures: Iterable[SimFuture]) -> SimFuture:
    """A future that succeeds with the list of values once *all* inputs
    succeed, or fails with the first failure (in resolution order)."""
    futures = list(futures)
    result = SimFuture(sim, label="all_of")
    if not futures:
        result.succeed([])
        return result
    remaining = len(futures)

    def on_done(_: SimFuture) -> None:
        nonlocal remaining
        if not result.is_pending:
            return
        remaining -= 1
        failed = next((f for f in futures if f._state is _FAILED), None)
        if failed is not None:
            result.fail(failed.exception)  # type: ignore[arg-type]
        elif remaining == 0:
            result.succeed([f.value for f in futures])

    for future in futures:
        future.add_done_callback(on_done)
    return result


def any_of(sim: "Simulator", futures: Iterable[SimFuture]) -> SimFuture:
    """A future resolving with ``(index, value)`` of the first input to
    succeed, or failing once *every* input has failed (with the last
    failure's exception)."""
    futures = list(futures)
    result = SimFuture(sim, label="any_of")
    if not futures:
        raise SimulationError("any_of() requires at least one future")
    remaining = len(futures)

    def make_callback(index: int) -> Callable[[SimFuture], None]:
        def on_done(future: SimFuture) -> None:
            nonlocal remaining
            if not result.is_pending:
                return
            if future.succeeded:
                result.succeed((index, future._value))
            else:
                remaining -= 1
                if remaining == 0:
                    result.fail(future.exception)  # type: ignore[arg-type]

        return on_done

    for i, future in enumerate(futures):
        future.add_done_callback(make_callback(i))
    return result
