"""Interoperable Object References.

An IOR names one CORBA object: which host and port its server process
listens on, the object key within that server's adapter, and the interface
repository id.  ``incarnation`` distinguishes re-activations after a host
restart so stale references fail cleanly with ``OBJECT_NOT_EXIST`` instead
of hitting an unrelated object.

References travel only inside CDR (``CdrOutputStream.write_ior`` /
``CdrInputStream.read_ior``): servers hand them to clients in replies and
through the naming service.  There is no stringified ``IOR:`` form and no
``corbaloc``/``corbaname`` URL; nothing in the runtime reads a reference
from a string.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IOR:
    """An interoperable object reference."""

    type_id: str
    host: str
    port: int
    object_key: bytes
    incarnation: int = 0

    def __str__(self) -> str:
        key = self.object_key.decode("latin-1", "replace")
        return f"<IOR {self.type_id} @{self.host}:{self.port}/{key}#{self.incarnation}>"
