"""Client-side stub machinery.

The IDL compiler generates one stub class per interface, derived from
:class:`ObjectStub`.  A stub method marshals its arguments through the ORB
and returns a :class:`~repro.sim.SimFuture`; client code in a simulation
process writes ``result = yield stub.op(args)``.  This mirrors the
synchronous static-invocation path of CORBA (the deferred-synchronous DII
path lives in :mod:`repro.orb.dii`).

The paper's fault-tolerance proxies are "proxy classes derived from the
stub classes"; :func:`repro.ft.proxies.make_ft_proxy` subclasses the
classes defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

from repro.errors import BAD_OPERATION
from repro.orb.ior import IOR
from repro.orb.typecodes import TypeCode, TC_VOID

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb
    from repro.orb.dii import Request
    from repro.sim.events import SimFuture

#: user-exception classes by repository id, registered by generated IDL
#: code so replies can rebuild the right exception class at the client.
USER_EXCEPTION_REGISTRY: dict[str, type] = {}

#: interface repo id -> set of repo ids it can be narrowed to (itself plus
#: all transitive base interfaces), registered by generated IDL code.
INTERFACE_ANCESTRY: dict[str, frozenset[str]] = {}


def register_user_exception(repo_id: str, cls: type) -> None:
    USER_EXCEPTION_REGISTRY[repo_id] = cls


def register_interface(repo_id: str, base_repo_ids: tuple[str, ...]) -> None:
    """Record an interface's inheritance for narrowing checks."""
    ancestry = {repo_id}
    for base in base_repo_ids:
        ancestry |= INTERFACE_ANCESTRY.get(base, frozenset({base}))
    INTERFACE_ANCESTRY[repo_id] = frozenset(ancestry)


def can_narrow(type_id: str, expected_repo_id: str) -> bool:
    """Whether a reference of ``type_id`` may be narrowed to
    ``expected_repo_id``.  Unknown interfaces narrow optimistically (the
    CORBA unchecked-narrow behaviour); known ones are checked against
    their registered ancestry."""
    if expected_repo_id == ObjectStub.__repo_id__ or type_id == expected_repo_id:
        return True
    ancestry = INTERFACE_ANCESTRY.get(type_id)
    if ancestry is None:
        return True
    return expected_repo_id in ancestry


@dataclass(frozen=True)
class OpInfo:
    """Wire signature of one IDL operation."""

    name: str
    params: Tuple[Tuple[str, TypeCode], ...] = ()
    result: TypeCode = TC_VOID
    raises: Tuple[str, ...] = ()  # user-exception repository ids
    oneway: bool = False

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)


class ObjectStub:
    """Base of all generated stubs; usable directly for untyped refs."""

    __repo_id__ = "IDL:omg.org/CORBA/Object:1.0"
    __operations__: dict[str, OpInfo] = {}

    def __init__(self, orb: "Orb", ior: IOR) -> None:
        self._orb = orb
        self._ior = ior
        #: LOCATION_FORWARD target cached per object reference (GIOP
        #: semantics: forwards stick to the reference that received them
        #: and are dropped when the forwarded target fails).
        self._forward_target: Optional[IOR] = None

    # -- identity ------------------------------------------------------------

    @property
    def ior(self) -> IOR:
        return self._ior

    def _rebind(self, ior: IOR) -> None:
        """Point this stub at a different object (used by recovery)."""
        self._ior = ior
        self._forward_target = None

    # -- invocation ------------------------------------------------------------

    def _op_info(self, operation: str) -> OpInfo:
        try:
            return self.__operations__[operation]
        except KeyError:
            raise BAD_OPERATION(
                f"{type(self).__name__} has no operation {operation!r}"
            ) from None

    def _invoke(self, operation: str, args: tuple = ()) -> "SimFuture":
        """Static invocation: marshal, send, return the reply future."""
        return self._orb.invoke(
            self._ior, self._op_info(operation), args, reference=self
        )

    def _create_request(self, operation: str, args: tuple = ()) -> "Request":
        """DII entry point: build a Request object for this operation."""
        from repro.orb.dii import Request

        return Request(
            self._orb, self._ior, self._op_info(operation), args, reference=self
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._ior}>"
