"""Tests for the standard CosNaming context servant over the ORB."""

from repro.orb import compile_idl
from repro.services.naming import NamingContextServant, idl, name_from_string

echo_ns = compile_idl("interface Echo { string say(in string text); };", name="echo")


class EchoImpl(echo_ns.EchoSkeleton):
    def __init__(self, tag):
        self.tag = tag

    def say(self, text):
        return f"{self.tag}:{text}"


def setup_naming(world, host_index=0):
    naming_orb = world.orb(host_index)
    root = NamingContextServant()
    root_ior = naming_orb.poa.activate(root)
    return root, root_ior


def make_echo(world, host_index, tag):
    orb = world.orb(host_index)
    return orb.poa.activate(EchoImpl(tag))


def test_bind_and_resolve_simple_name(world):
    root, root_ior = setup_naming(world)
    echo_ior = make_echo(world, 1, "one")
    stub = world.orb(2).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind(name_from_string("echo.obj"), echo_ior)
        resolved = yield stub.resolve(name_from_string("echo.obj"))
        echo = world.orb(2).stub(resolved, echo_ns.EchoStub)
        return (yield echo.say("hi"))

    assert world.run(client()) == "one:hi"


def test_resolve_unknown_raises_not_found(world):
    _, root_ior = setup_naming(world)
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        try:
            yield stub.resolve(name_from_string("ghost"))
        except idl.NotFound as exc:
            return exc.why

    assert world.run(client()) == "missing node"


def test_bind_duplicate_raises_already_bound(world):
    _, root_ior = setup_naming(world)
    echo_ior = make_echo(world, 1, "x")
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind(name_from_string("dup"), echo_ior)
        try:
            yield stub.bind(name_from_string("dup"), echo_ior)
        except idl.AlreadyBound:
            return "already"

    assert world.run(client()) == "already"


def test_rebind_replaces_binding(world):
    _, root_ior = setup_naming(world)
    first = make_echo(world, 1, "first")
    second = make_echo(world, 2, "second")
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind(name_from_string("svc"), first)
        yield stub.rebind(name_from_string("svc"), second)
        resolved = yield stub.resolve(name_from_string("svc"))
        echo = world.orb(1).stub(resolved, echo_ns.EchoStub)
        return (yield echo.say("?"))

    assert world.run(client()) == "second:?"


def test_unbind_then_resolve_fails(world):
    _, root_ior = setup_naming(world)
    echo_ior = make_echo(world, 1, "x")
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind(name_from_string("tmp"), echo_ior)
        yield stub.unbind(name_from_string("tmp"))
        try:
            yield stub.resolve(name_from_string("tmp"))
        except idl.NotFound:
            return "gone"

    assert world.run(client()) == "gone"


def test_compound_names_traverse_subcontexts(world):
    _, root_ior = setup_naming(world)
    echo_ior = make_echo(world, 1, "deep")
    stub = world.orb(2).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind_new_context(name_from_string("apps"))
        yield stub.bind_new_context(name_from_string("apps/opt"))
        yield stub.bind(name_from_string("apps/opt/worker.obj"), echo_ior)
        resolved = yield stub.resolve(name_from_string("apps/opt/worker.obj"))
        echo = world.orb(2).stub(resolved, echo_ns.EchoStub)
        return (yield echo.say("deep-call"))

    assert world.run(client()) == "deep:deep-call"


def test_compound_resolve_reports_rest_of_name(world):
    _, root_ior = setup_naming(world)
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        try:
            yield stub.resolve(name_from_string("a/b/c"))
        except idl.NotFound as exc:
            return [component.id for component in exc.rest_of_name]

    assert world.run(client()) == ["a", "b", "c"]


def test_subcontext_on_remote_host(world):
    """The naming graph can span server processes — federation works."""
    _, root_ior = setup_naming(world, host_index=0)
    remote_ctx = NamingContextServant()
    remote_ior = world.orb(2).poa.activate(remote_ctx)
    echo_ior = make_echo(world, 1, "fed")
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind_context(name_from_string("remote"), remote_ior)
        yield stub.bind(name_from_string("remote/echo"), echo_ior)
        resolved = yield stub.resolve(name_from_string("remote/echo"))
        echo = world.orb(1).stub(resolved, echo_ns.EchoStub)
        return (yield echo.say("x"))

    assert world.run(client()) == "fed:x"
    # The binding physically lives in the remote context servant.
    assert ("echo", "") in remote_ctx._bindings


def test_resolve_through_non_context_fails(world):
    _, root_ior = setup_naming(world)
    echo_ior = make_echo(world, 1, "x")
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        yield stub.bind(name_from_string("leaf"), echo_ior)
        try:
            yield stub.resolve(name_from_string("leaf/below"))
        except idl.NotFound as exc:
            return exc.why

    assert world.run(client()) == "not a context"


def test_invalid_names_rejected(world):
    _, root_ior = setup_naming(world)
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        try:
            yield stub.resolve([])
        except idl.InvalidName:
            return "invalid"

    assert world.run(client()) == "invalid"


def test_list_bindings_sorted_and_limited(world):
    _, root_ior = setup_naming(world)
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)
    iors = [make_echo(world, 1, f"e{i}") for i in range(3)]

    def client():
        yield stub.bind(name_from_string("charlie"), iors[0])
        yield stub.bind(name_from_string("alpha"), iors[1])
        yield stub.bind(name_from_string("bravo"), iors[2])
        all_bindings = yield stub.list_bindings(0)
        two = yield stub.list_bindings(2)
        return (
            [b.binding_name[0].id for b in all_bindings],
            len(two),
        )

    names, count = world.run(client())
    assert names == ["alpha", "bravo", "charlie"]
    assert count == 2


def test_destroy_non_empty_rejected_then_ok(world):
    root, root_ior = setup_naming(world)
    echo_ior = make_echo(world, 1, "x")
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        child_ior = yield stub.bind_new_context(name_from_string("sub"))
        child = world.orb(1).stub(child_ior, idl.NamingContextStub)
        yield child.bind(name_from_string("thing"), echo_ior)
        try:
            yield child.destroy()
        except idl.NotEmpty:
            pass
        yield child.unbind(name_from_string("thing"))
        yield child.destroy()
        try:
            yield child.resolve(name_from_string("anything"))
        except Exception as exc:
            return type(exc).__name__

    assert world.run(client()) == "OBJECT_NOT_EXIST"


def test_new_context_is_unbound(world):
    root, root_ior = setup_naming(world)
    stub = world.orb(1).stub(root_ior, idl.NamingContextStub)

    def client():
        fresh = yield stub.new_context()
        ctx = world.orb(1).stub(fresh, idl.NamingContextStub)
        bindings = yield ctx.list_bindings(0)
        return len(bindings)

    assert world.run(client()) == 0
