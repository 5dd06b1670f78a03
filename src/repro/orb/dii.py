"""Dynamic Invocation Interface.

"In addition to transparent synchronous method calls, CORBA provides
asynchronous method invocations via DII.  When a client wants to utilize
DII, it does not call the server object's methods directly, but uses
so-called request objects instead.  These request objects offer methods to
asynchronously initiate methods of the server object and fetch the
corresponding results at a later time." (§3)

The manager/worker optimizer uses ``send_deferred`` to run all worker
subproblems concurrently; :mod:`repro.ft.request_proxy` wraps these Request
objects with the paper's *request proxies* for fault tolerance.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.errors import BAD_OPERATION
from repro.orb.ior import IOR
from repro.orb.stubs import OpInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb
    from repro.sim.events import SimFuture


class Request:
    """A dynamic invocation of one operation on one target object.

    Lifecycle: construct (directly or via ``stub._create_request``), then
    either

    * :meth:`invoke` — synchronous: returns the result future directly;
    * :meth:`send_deferred` then :meth:`get_response` — deferred
      synchronous: start now, collect later; :meth:`poll_response` checks
      completion without blocking;
    * :meth:`send_oneway` — fire and forget (operation must be oneway-safe).
    """

    def __init__(
        self,
        orb: "Orb",
        target: IOR,
        info: OpInfo,
        args: tuple,
        reference=None,
    ) -> None:
        self._orb = orb
        self._target = target
        self._info = info
        self._args = tuple(args)
        self._future: Optional["SimFuture"] = None
        #: the object reference this request came from (shares its
        #: LOCATION_FORWARD cache), if any.
        self._reference = reference

    # -- introspection ----------------------------------------------------------

    @property
    def operation(self) -> str:
        return self._info.name

    @property
    def target(self) -> IOR:
        return self._target

    @property
    def arguments(self) -> tuple:
        return self._args

    @property
    def sent(self) -> bool:
        return self._future is not None

    # -- invocation ---------------------------------------------------------------

    def invoke(self) -> "SimFuture":
        """Synchronous invocation; yield the returned future."""
        self._ensure_unsent()
        self._future = self._orb.invoke(
            self._target, self._info, self._args, reference=self._reference
        )
        return self._future

    def send_deferred(self) -> "Request":
        """Start the invocation without waiting; returns self for chaining."""
        self._ensure_unsent()
        self._future = self._orb.invoke(
            self._target, self._info, self._args, reference=self._reference
        )
        return self

    def send_oneway(self) -> "Request":
        """Send with no response expected."""
        self._ensure_unsent()
        info = OpInfo(
            name=self._info.name,
            params=self._info.params,
            result=self._info.result,
            raises=self._info.raises,
            oneway=True,
        )
        self._future = self._orb.invoke(
            self._target, info, self._args, reference=self._reference
        )
        return self

    def poll_response(self) -> bool:
        """True once the response (or failure) has arrived."""
        self._ensure_sent()
        assert self._future is not None
        return self._future.is_done

    def get_response(self) -> "SimFuture":
        """The response future; yield it to wait for completion."""
        self._ensure_sent()
        assert self._future is not None
        return self._future

    def return_value(self) -> Any:
        """The result after completion (raises the failure if it failed)."""
        self._ensure_sent()
        assert self._future is not None
        return self._future.value

    @property
    def exception(self) -> Optional[BaseException]:
        if self._future is None or not self._future.is_done:
            return None
        return self._future.exception

    # -- retry support (used by request proxies) ------------------------------------

    # -- internals ---------------------------------------------------------------------

    def _ensure_unsent(self) -> None:
        if self._future is not None:
            raise BAD_OPERATION(
                f"request {self.operation!r} was already sent"
            )

    def _ensure_sent(self) -> None:
        if self._future is None:
            raise BAD_OPERATION(
                f"request {self.operation!r} has not been sent yet"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unsent" if self._future is None else (
            "done" if self._future.is_done else "in-flight"
        )
        return f"<Request {self.operation} -> {self._target.host} [{state}]>"
