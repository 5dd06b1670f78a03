"""GIOP location forwarding and the ORB-locator design alternative.

§2 lists "integrating the load distribution mechanism into the ORB itself,
e.g. by replacing the default locator by a locator with an integrated load
distribution strategy" among the designs the paper rejects (for portability
— it "depends on a specific ORB implementation").  The underlying GIOP
mechanism is LOCATION_FORWARD: a server answers a request with a new IOR
and the client ORB transparently retries there.

This module implements both halves so the ablation can compare the
approach fairly:

* servants raise :class:`LocationForward` to redirect a request (handled
  by the ORB core, not sent to the client application);
* :class:`ForwardingAgentServant` is a locator: a fixed "home" reference
  clients bind to once, which forwards every call to the currently best
  replica host according to Winner — load distribution below the naming
  service, exactly the rejected design, now measurable.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.errors import ReproError, TRANSIENT
from repro.orb.ior import IOR

if TYPE_CHECKING:  # pragma: no cover
    from repro.winner.system_manager import SystemManager


class LocationForward(ReproError):
    """Raised by a servant to redirect the current request to ``target``.

    Not an error in the CORBA sense: the client ORB consumes it and
    reissues the request transparently.
    """

    def __init__(self, target: IOR) -> None:
        super().__init__(f"forward to {target}")
        self.target = target


#: client-side bound on chained forwards (defends against forward loops).
MAX_FORWARDS = 8


class ForwardingAgent:
    """Server-side locator state: replica registry + Winner selection.

    Mix into a generated skeleton of the *service's own interface* (so the
    agent's IOR narrows to the service type) via
    :func:`make_forwarding_servant`.
    """

    def __init__(self, system_manager: "SystemManager") -> None:
        self._manager = system_manager
        self._replicas: list[IOR] = []
        self.forwards = 0

    def add_replica(self, ior: IOR) -> None:
        if ior not in self._replicas:
            self._replicas.append(ior)

    def remove_replica(self, ior: IOR) -> None:
        if ior in self._replicas:
            self._replicas.remove(ior)

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    def select(self) -> IOR:
        if not self._replicas:
            raise TRANSIENT("forwarding agent has no replicas registered")
        chosen = self._manager.place(self._replicas)
        self.forwards += 1
        return self._replicas[0] if chosen is None else chosen


def make_forwarding_servant(skeleton_class: type) -> type:
    """Build a locator servant class for ``skeleton_class``'s interface.

    Every operation of the interface is implemented as a redirect: the
    client's first call lands on the agent, receives LOCATION_FORWARD to
    the best replica, and the client ORB silently retries there (caching
    nothing — each *new* call to the agent re-selects, so load shifts
    steer subsequent bindings)."""
    namespace: dict = {}

    def __init__(self, system_manager):  # noqa: N807 - class under construction
        ForwardingAgent.__init__(self, system_manager)

    namespace["__init__"] = __init__
    for operation in skeleton_class.__operations__:

        def redirect(self, *args, **kwargs):
            raise LocationForward(self.select())

        redirect.__name__ = operation
        namespace[operation] = redirect
    name = skeleton_class.__name__.replace("Skeleton", "") + "ForwardingAgent"
    return type(name, (ForwardingAgent, skeleton_class), namespace)
