"""Per-host object factories.

Recovery must "start a new server (using the checkpoint)" on some host.
Each host runs an ``ObjectFactory`` service that can instantiate registered
servant types; the factories are bound as a *service group* in the
load-distributing naming service, so resolving the factory group already
picks the best host — contribution №1 powering contribution №2.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from repro.errors import OBJ_ADAPTER
from repro.orb.idl import compile_idl

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Servant

FACTORY_IDL = """
module FT {
    exception UnknownType { string type_name; };

    interface ObjectFactory {
        // Instantiate and activate a servant of a registered type.
        Object create(in string type_name) raises (UnknownType);
        // Instantiate a replica-group member: the servant is wrapped for
        // request-id duplicate suppression before activation.
        Object create_member(in string type_name, in string group_id)
            raises (UnknownType);
        // Deactivate an object previously created by this factory.
        void destroy_object(in Object reference);
    };
};
"""

ns = compile_idl(FACTORY_IDL, name="ft-factory")

UnknownType = ns.UnknownType
ObjectFactoryStub = ns.ObjectFactoryStub
ObjectFactorySkeleton = ns.ObjectFactorySkeleton


class ObjectFactoryServant(ObjectFactorySkeleton):
    """Instantiates registered servant types on its host."""

    def __init__(self, member_listener: Callable | None = None) -> None:
        self._types: dict[str, Callable[[], "Servant"]] = {}
        self.created = 0
        self.members_created = 0
        #: called with every ReplicatedServant this factory activates —
        #: the chaos campaign uses it to audit post-retirement applies.
        self._member_listener = member_listener

    def register_type(
        self, type_name: str, factory: Callable[[], "Servant"]
    ) -> None:
        """Make ``type_name`` creatable; ``factory()`` returns a fresh
        servant (local registration by the deployer, not an IDL op)."""
        self._types[type_name] = factory

    def create(self, type_name):
        maker = self._types.get(type_name)
        if maker is None:
            raise UnknownType(type_name=type_name)
        servant = maker()
        self.created += 1
        return self._poa.activate(servant)  # type: ignore[union-attr]

    def create_member(self, type_name, group_id):
        from repro.ft.replication import ReplicatedServant

        maker = self._types.get(type_name)
        if maker is None:
            raise UnknownType(type_name=type_name)
        member = ReplicatedServant(maker(), group_id)
        self.created += 1
        self.members_created += 1
        ior = self._poa.activate(member)  # type: ignore[union-attr]
        member.adopt(ior)
        if self._member_listener is not None:
            self._member_listener(member)
        return ior

    def destroy_object(self, reference):
        try:
            self._poa.deactivate(reference.object_key)  # type: ignore[union-attr]
        except OBJ_ADAPTER:
            pass  # already gone; destroy is idempotent
