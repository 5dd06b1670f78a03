"""Request proxies: fault tolerance for DII invocations.

"To enable fault tolerance in this case, request proxies are used just
like the object proxies." (§3, Fig. 2)

An :class:`FtRequest` mirrors the :class:`~repro.orb.dii.Request` API
(``send_deferred`` / ``get_response``) and runs the object proxy's own
call loop with one difference: every attempt is a fresh DII Request at
the proxy's current target.  Replica-group dispatch, recovery, retry and
the checkpoint step are therefore the object proxy's, not a second copy.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import BAD_OPERATION
from repro.orb.dii import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.ft.proxies import _FtProxyBase
    from repro.sim.events import SimFuture


class FtRequest:
    """A fault-tolerant DII request bound to an FT proxy."""

    def __init__(self, proxy, operation: str, args: tuple = ()) -> None:
        from repro.ft.proxies import _FtProxyBase

        if not isinstance(proxy, _FtProxyBase):
            raise BAD_OPERATION(
                "FtRequest requires a fault-tolerance proxy (make_ft_proxy)"
            )
        self._proxy = proxy
        self._info = proxy._op_info(operation)
        self._args = tuple(args)
        self._outer: Optional["SimFuture"] = None
        #: number of underlying Requests issued (1 = no recovery needed; 0
        #: on a replication-mode proxy, where the group dispatches).
        self.attempts = 0

    # -- Request-compatible API --------------------------------------------------

    @property
    def operation(self) -> str:
        return self._info.name

    def send_deferred(self) -> "FtRequest":
        if self._outer is not None:
            raise BAD_OPERATION(f"request {self.operation!r} was already sent")
        proxy = self._proxy
        # The object proxy's call loop, with a fresh Request per attempt as
        # the only difference — group dispatch, parked pipeline errors,
        # retry/recovery and the checkpoint step are said once, there.
        self._outer = proxy._locked_task(
            f"ft-req:{self.operation}",
            f"ft-req:{self.operation}",
            lambda outer: proxy._ft_call_locked(
                self.operation, self._args, outer, issue=self._issue, dii=True
            ),
        )
        return self

    def _issue(self) -> "SimFuture":
        proxy = self._proxy
        self.attempts += 1
        request = Request(
            proxy._orb, proxy.ior, self._info, self._args, reference=proxy
        )
        return request.send_deferred().get_response()

    def get_response(self) -> "SimFuture":
        if self._outer is None:
            raise BAD_OPERATION(
                f"request {self.operation!r} has not been sent yet"
            )
        return self._outer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "unsent"
            if self._outer is None
            else ("done" if self._outer.is_done else "in-flight")
        )
        return f"<FtRequest {self.operation} [{state}] attempts={self.attempts}>"
