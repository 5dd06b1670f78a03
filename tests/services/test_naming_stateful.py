"""Model-based stateful testing of the load-distributing naming context.

Hypothesis drives random sequences of bind/rebind/unbind/bind_service/
unbind_service/resolve against the servant and checks every response
against a simple reference model (two Python dicts).  This catches
interaction bugs (e.g. a group and a plain binding under the same name)
that example-based tests miss.

The servant is exercised directly (its generator methods complete without
yielding for single-component names), not through the ORB — wire behaviour
is covered elsewhere."""

import inspect

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.errors import UserException
from repro.orb.ior import IOR
from repro.services.naming import (
    FirstBoundStrategy,
    LoadDistributingContextServant,
    NameComponent,
    idl,
)

NAMES = [f"n{i}" for i in range(5)]
IORS = [IOR("IDL:X:1.0", f"ws{i:02d}", 9000, f"obj{i}".encode(), 0) for i in range(4)]


def call(servant, operation, *args):
    """Invoke a servant method, driving its generator; returns (ok, value)
    where failure carries the raised user exception."""
    method = getattr(servant, operation)
    try:
        result = method(*args)
        if inspect.isgenerator(result):
            try:
                next(result)
                raise AssertionError(
                    f"{operation} yielded for a single-component name"
                )
            except StopIteration as stop:
                result = stop.value
        return True, result
    except UserException as exc:
        return False, exc


def name_of(text: str):
    return [NameComponent(text, "")]


class NamingModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.servant = LoadDistributingContextServant(FirstBoundStrategy())
        self.plain: dict[str, IOR] = {}
        self.groups: dict[str, list[IOR]] = {}

    # -- rules ----------------------------------------------------------------

    @rule(name=st.sampled_from(NAMES), ior=st.sampled_from(IORS))
    def bind(self, name, ior):
        ok, value = call(self.servant, "bind", name_of(name), ior)
        if name in self.plain or name in self.groups:
            assert not ok and isinstance(value, idl.AlreadyBound)
        else:
            assert ok
            self.plain[name] = ior

    @rule(name=st.sampled_from(NAMES), ior=st.sampled_from(IORS))
    def rebind(self, name, ior):
        ok, value = call(self.servant, "rebind", name_of(name), ior)
        if name in self.groups:
            # A plain rebind must not shadow a service group.
            assert not ok and isinstance(value, idl.CannotProceed)
        else:
            # rebind overwrites plain bindings and creates missing ones.
            assert ok
            self.plain[name] = ior

    @rule(name=st.sampled_from(NAMES), ior=st.sampled_from(IORS))
    def bind_service(self, name, ior):
        ok, value = call(self.servant, "bind_service", name_of(name), ior)
        if name in self.plain:
            assert not ok and isinstance(value, idl.AlreadyBound)
        elif ior in self.groups.get(name, []):
            assert not ok and isinstance(value, idl.AlreadyBound)
        else:
            assert ok
            self.groups.setdefault(name, []).append(ior)

    @rule(name=st.sampled_from(NAMES), ior=st.sampled_from(IORS))
    def unbind_service(self, name, ior):
        ok, value = call(self.servant, "unbind_service", name_of(name), ior)
        group = self.groups.get(name, [])
        if ior in group:
            assert ok
            group.remove(ior)
            if not group:
                del self.groups[name]
        else:
            assert not ok and isinstance(value, idl.NotFound)

    @rule(name=st.sampled_from(NAMES))
    def unbind(self, name):
        ok, value = call(self.servant, "unbind", name_of(name))
        if name in self.plain:
            assert ok
            del self.plain[name]
        elif name in self.groups:
            assert ok
            del self.groups[name]
        else:
            assert not ok and isinstance(value, idl.NotFound)

    @rule(name=st.sampled_from(NAMES))
    def resolve(self, name):
        ok, value = call(self.servant, "resolve", name_of(name))
        if name in self.plain:
            assert ok and value == self.plain[name]
        elif name in self.groups:
            # First-bound strategy: the oldest registered replica.
            assert ok and value == self.groups[name][0]
        else:
            assert not ok and isinstance(value, idl.NotFound)

    @rule(name=st.sampled_from(NAMES))
    def replica_count(self, name):
        ok, value = call(self.servant, "replica_count", name_of(name))
        if name in self.groups:
            assert ok and value == len(self.groups[name])
        else:
            assert not ok and isinstance(value, idl.NotFound)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def listing_matches_model(self):
        bindings = self.servant.list_bindings(0)
        listed = {binding.binding_name[0].id for binding in bindings}
        assert listed == set(self.plain) | set(self.groups)

    @invariant()
    def plain_and_group_names_disjoint(self):
        assert not (set(self.plain) & set(self.groups))


NamingModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestNamingModel = NamingModel.TestCase
