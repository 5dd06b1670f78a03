"""Dynamic Invocation Interface.

"In addition to transparent synchronous method calls, CORBA provides
asynchronous method invocations via DII.  When a client wants to utilize
DII, it does not call the server object's methods directly, but uses
so-called request objects instead.  These request objects offer methods to
asynchronously initiate methods of the server object and fetch the
corresponding results at a later time." (§3)

A :class:`Request` is exactly that deferred-synchronous pair:
``send_deferred`` starts the call and ``get_response`` is the future of its
result.  The manager/worker optimizer uses it to run all worker
subproblems concurrently; :mod:`repro.ft.request_proxy` wraps these Request
objects with the paper's *request proxies* for fault tolerance.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import BAD_OPERATION
from repro.orb.ior import IOR
from repro.orb.stubs import OpInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb
    from repro.sim.events import SimFuture


class Request:
    """A dynamic invocation of one operation on one target object.

    Construct it (directly or via ``stub._create_request``), start it with
    :meth:`send_deferred`, and yield :meth:`get_response` to collect the
    result.
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

    def send_deferred(self) -> "Request":
        """Start the invocation without waiting; returns self for chaining."""
        if self._future is not None:
            raise BAD_OPERATION(f"request {self._info.name!r} was already sent")
        self._future = self._orb.invoke(
            self._target, self._info, self._args, reference=self._reference
        )
        return self

    def get_response(self) -> "SimFuture":
        """The response future; yield it to wait for completion."""
        if self._future is None:
            raise BAD_OPERATION(
                f"request {self._info.name!r} has not been sent yet"
            )
        return self._future

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unsent" if self._future is None else (
            "done" if self._future.is_done else "in-flight"
        )
        return f"<Request {self._info.name} -> {self._target.host} [{state}]>"
