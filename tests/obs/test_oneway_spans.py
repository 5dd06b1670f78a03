"""A oneway request's server span ends when its dispatch does.

No reply goes out for a ``oneway`` operation, so the ``send_reply`` hook
that ends a server span never runs for one; the dispatch ends the span
itself.  Without that, every ``serve:<op>`` span of a oneway call stays in
the tracer's table of open spans for the life of the tracer — outside the
ring's cap, and never exported.
"""

from repro.core import Runtime, RuntimeConfig
from repro.orb import compile_idl

ns = compile_idl(
    "interface Fire { oneway void fire(in long n); };", name="oneway-spans"
)


class FireImpl(ns.FireSkeleton):
    def __init__(self):
        self.fired = 0

    def fire(self, n):
        self.fired += n


def test_every_oneway_serve_span_finishes():
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=7)).start()
    servant = FireImpl()
    ior = runtime.orb(1).poa.activate(servant)
    runtime.settle()
    stub = runtime.orb(2).stub(ior, ns.FireStub)
    tracer = runtime.obs.tracer
    before = len(tracer.spans)

    def client():
        for _ in range(100):
            stub.fire(1)
        yield runtime.sim.timeout(1.0)

    runtime.run(client())
    assert servant.fired == 100
    new = list(tracer.spans)[before:]
    served = [span for span in new if span.name == "serve:fire"]
    assert len(served) == 100
    assert {(span.status, span.attrs["kind"]) for span in served} == {("ok", "server")}
    assert [span.attrs["reply_bytes"] for span in served] == [0] * 100
    # each under the client span that sent it
    sent = {span.span_id for span in new if span.name == "call:fire"}
    assert len(sent) == 100
    assert {span.parent_id for span in served} == sent
    assert tracer._open == {}
