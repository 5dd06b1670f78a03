"""The spans a traced ORB writes for its calls and dispatches.

A traced ORB (``Orb(..., traced=True)``, as the runtime builds them) ends
each call's ``call:<op>`` span with the call's outcome and each
dispatch's ``serve:<op>`` span at its reply; a bare ORB writes no span
and puts no trace context on the wire.
"""

from repro.errors import COMM_FAILURE
from repro.obs.trace import TRACE_CONTEXT_SERVICE_ID
from repro.orb import compile_idl

ns = compile_idl(
    """
    exception Boom { string why; };
    interface I {
        double ok(in double x);
        void explode() raises (Boom);
        long contexts();
    };
    """,
    name="orb-spans-test",
)


class Impl(ns.ISkeleton):
    def __init__(self):
        self.seen = []

    def ok(self, x):
        return x

    def explode(self):
        raise ns.Boom(why="as requested")

    def contexts(self):
        self.seen.append(self._poa.orb.current_service_contexts)
        return len(self.seen)


def setup(world, traced=True):
    server_orb = world.orb(1, traced=traced)
    impl = Impl()
    ior = server_orb.poa.activate(impl)
    client_orb = world.orb(0, traced=traced)
    return impl, client_orb.stub(ior, ns.IStub)


def spans(world, name):
    return [span for span in world.sim.obs.tracer.spans if span.name == name]


def test_a_reply_ends_the_call_span_with_its_marshal_work(world):
    _, stub = setup(world)

    def client():
        return (yield stub.ok(5.0))

    assert world.run(client()) == 5.0
    (call,) = spans(world, "call:ok")
    assert (call.status, call.error, call.host) == ("ok", None, "ws00")
    assert list(call.attrs) == [
        "kind",
        "request_id",
        "target",
        "request_marshal_work",
        "unmarshal_work",
    ]
    assert (call.attrs["kind"], call.attrs["target"]) == ("client", "ws01")
    assert call.end == world.sim.now
    assert world.sim.obs.tracer._open == {}


def test_the_serve_span_ends_at_the_reply_with_its_size(world):
    _, stub = setup(world)

    def client():
        yield stub.ok(1.0)

    world.run(client())
    (call,) = spans(world, "call:ok")
    (serve,) = spans(world, "serve:ok")
    assert (serve.trace_id, serve.parent_id) == (call.trace_id, call.span_id)
    assert (serve.status, serve.host) == ("ok", "ws01")
    assert list(serve.attrs) == ["kind", "reply_bytes", "reply_marshal_work"]
    assert serve.attrs["reply_bytes"] == 8  # one double
    # the reply leaves the server before it reaches the client
    assert call.start < serve.start < serve.end < call.end


def test_a_user_exception_ends_the_call_span_with_an_error(world):
    _, stub = setup(world)

    def client():
        try:
            yield stub.explode()
        except ns.Boom:
            pass

    world.run(client())
    (call,) = spans(world, "call:explode")
    assert (call.status, call.error) == ("error", "Boom")
    assert "unmarshal_work" not in call.attrs
    (serve,) = spans(world, "serve:explode")
    assert serve.status == "ok"  # the servant's exception is a reply


def test_comm_failure_ends_the_call_span_with_an_error(world):
    _, stub = setup(world)
    world.host(1).crash()

    def client():
        try:
            yield stub.ok(1.0)
        except COMM_FAILURE:
            pass

    world.run(client())
    (call,) = spans(world, "call:ok")
    assert (call.status, call.error) == ("error", "COMM_FAILURE")
    assert spans(world, "serve:ok") == []


def test_a_bare_orb_puts_no_trace_context_on_the_wire(world):
    impl, stub = setup(world, traced=False)

    def client():
        yield stub.contexts()

    world.run(client())
    assert impl.seen == [()]
    assert len(world.sim.obs.tracer.spans) == 0
    assert sorted(instrument.name for instrument in world.sim.obs.metrics) == [
        "orb_call_latency_seconds",
        "orb_dispatch_seconds",
    ]


def test_a_traced_orb_ships_its_call_span_as_the_trace_context(world):
    impl, stub = setup(world)

    def client():
        yield stub.contexts()

    world.run(client())
    (call,) = spans(world, "call:contexts")
    ((context_id, data),) = impl.seen[0]
    assert context_id == TRACE_CONTEXT_SERVICE_ID
    assert data == f"{call.trace_id}:{call.span_id}".encode()
