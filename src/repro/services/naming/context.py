"""The standard CosNaming context servant.

Implements bind/rebind/resolve/unbind with compound-name traversal: a
multi-component name is forwarded to the sub-context bound under its first
component via a real ORB invocation (sub-contexts may live in other server
processes), exactly like a federated CORBA naming graph."""

from __future__ import annotations

from repro.orb.ior import IOR
from repro.services.naming import idl
from repro.services.naming.names import Name, NameComponent


def _key(component: NameComponent) -> tuple[str, str]:
    return (component.id, component.kind)


def _check_name(name) -> Name:
    if not isinstance(name, (list, tuple)) or len(name) == 0:
        raise idl.InvalidName(why="name must be a non-empty component sequence")
    for component in name:
        if not getattr(component, "id", ""):
            raise idl.InvalidName(why="component with empty id")
    return list(name)


class NamingContextServant(idl.NamingContextSkeleton):
    """One naming context: a table of (id, kind) → binding."""

    #: binding entry types
    _OBJECT = idl.BindingType.nobject
    _CONTEXT = idl.BindingType.ncontext

    def __init__(self) -> None:
        self._bindings: dict[tuple[str, str], tuple[idl.BindingType, IOR]] = {}

    # -- helpers ---------------------------------------------------------------

    def _orb(self):
        return self._poa.orb  # type: ignore[union-attr]

    def _lookup(self, component: NameComponent, name: Name):
        entry = self._bindings.get(_key(component))
        if entry is None:
            raise idl.NotFound(why="missing node", rest_of_name=list(name))
        return entry

    def _subcontext_stub(self, component: NameComponent, name: Name):
        binding_type, ior = self._lookup(component, name)
        if binding_type is not self._CONTEXT:
            raise idl.NotFound(
                why="not a context", rest_of_name=list(name)
            )
        return self._orb().stub(ior, idl.NamingContextStub)

    def _store(self, component: NameComponent, binding_type, ior, *, overwrite: bool):
        key = _key(component)
        if not overwrite and key in self._bindings:
            raise idl.AlreadyBound(why=f"{component.id}.{component.kind}")
        self._bindings[key] = (binding_type, ior)

    # -- IDL operations ---------------------------------------------------------

    def bind(self, n, obj):
        name = _check_name(n)
        if len(name) == 1:
            self._store(name[0], self._OBJECT, obj, overwrite=False)
            return
        stub = self._subcontext_stub(name[0], name)
        yield stub.bind(name[1:], obj)

    def rebind(self, n, obj):
        name = _check_name(n)
        if len(name) == 1:
            self._store(name[0], self._OBJECT, obj, overwrite=True)
            return
        stub = self._subcontext_stub(name[0], name)
        yield stub.rebind(name[1:], obj)

    def bind_context(self, n, nc):
        name = _check_name(n)
        if len(name) == 1:
            self._store(name[0], self._CONTEXT, nc, overwrite=False)
            return
        stub = self._subcontext_stub(name[0], name)
        yield stub.bind_context(name[1:], nc)

    def resolve(self, n):
        name = _check_name(n)
        if len(name) == 1:
            return self._lookup(name[0], name)[1]
        stub = self._subcontext_stub(name[0], name)
        result = yield stub.resolve(name[1:])
        return result

    def unbind(self, n):
        name = _check_name(n)
        if len(name) == 1:
            if _key(name[0]) not in self._bindings:
                raise idl.NotFound(why="missing node", rest_of_name=list(name))
            del self._bindings[_key(name[0])]
            return
        stub = self._subcontext_stub(name[0], name)
        yield stub.unbind(name[1:])

    def new_context(self):
        child = type(self)()
        return self._poa.activate(child)  # type: ignore[union-attr]

    def bind_new_context(self, n):
        name = _check_name(n)
        if len(name) == 1:
            child = type(self)()
            ior = self._poa.activate(child)  # type: ignore[union-attr]
            self._store(name[0], self._CONTEXT, ior, overwrite=False)
            return ior
        stub = self._subcontext_stub(name[0], name)
        result = yield stub.bind_new_context(name[1:])
        return result

    def destroy(self):
        if self._bindings:
            raise idl.NotEmpty(why=f"{len(self._bindings)} bindings remain")
        self._poa.deactivate(self)  # type: ignore[union-attr]

    def list_bindings(self, how_many):
        limit = len(self._bindings) if how_many <= 0 else how_many
        bindings = []
        for (id_part, kind_part), (binding_type, _ior) in sorted(
            self._bindings.items()
        ):
            if len(bindings) >= limit:
                break
            bindings.append(
                idl.Binding(
                    binding_name=[NameComponent(id_part, kind_part)],
                    binding_type=binding_type,
                )
            )
        return bindings
