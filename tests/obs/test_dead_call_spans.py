"""A call or dispatch that dies with its host still ends its span.

The client span of a call whose host crashes, and the server span of a
dispatch whose host crashes or whose client cancels it, are finished with
an error status: none stays in the tracer's open table (or the
interceptor's client table) for the rest of the run.
"""

from repro.core import Runtime, RuntimeConfig
from repro.errors import ProcessKilled, TIMEOUT
from repro.obs.interceptor import ObservabilityInterceptor
from repro.orb import Orb, OrbConfig, compile_idl

ns = compile_idl(
    "interface Slow { double grind(in double s); };",
    name="dead-call-spans",
)


class SlowImpl(ns.SlowSkeleton):
    def grind(self, s):
        yield self._host().execute(s)
        return s


def world():
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=7)).start()
    ior = runtime.orb(1).poa.activate(SlowImpl())
    runtime.settle()
    return runtime, ior


def open_names(runtime):
    return sorted(span.name for span in runtime.obs.tracer._open.values())


def finished(runtime, name):
    return [span for span in runtime.obs.tracer.spans if span.name == name]


def client_interceptor(orb):
    (interceptor,) = [
        i for i in orb.interceptors if isinstance(i, ObservabilityInterceptor)
    ]
    return interceptor


def test_client_crash_mid_call_ends_the_call_span_with_an_error():
    runtime, ior = world()
    client = runtime.orb(2)
    stub = client.stub(ior, ns.SlowStub)
    outcome = []

    def reader():
        try:
            yield stub.grind(1.0)
        except ProcessKilled:
            outcome.append(runtime.sim.now)

    started = runtime.sim.now
    runtime.sim.spawn(reader())
    runtime.sim.schedule(0.5, client.host.crash)
    runtime.sim.run(until=started + 3.0)

    assert outcome == [started + 0.5]
    assert "call:grind" not in open_names(runtime)
    assert client_interceptor(client)._client_spans == {}
    (span,) = finished(runtime, "call:grind")
    assert span.status == "error"
    assert span.error == "ProcessKilled"
    assert span.end == started + 0.5


def test_server_crash_mid_servant_ends_the_serve_span_with_an_error():
    runtime, ior = world()
    stub = runtime.orb(2).stub(ior, ns.SlowStub)

    def reader():
        try:
            yield stub.grind(1.0)
        except Exception:  # noqa: BLE001 - the outcome is not under test
            pass

    started = runtime.sim.now
    runtime.sim.spawn(reader())
    runtime.sim.schedule(0.5, runtime.orb(1).host.crash)
    runtime.sim.run(until=started + 3.0)

    assert "serve:grind" not in open_names(runtime)
    (span,) = finished(runtime, "serve:grind")
    assert span.status == "error"
    assert span.error == "ProcessKilled"
    assert span.end == started + 0.5


def test_cancelled_dispatch_ends_the_serve_span_with_an_error():
    runtime, ior = world()
    host = runtime.cluster.host(2)
    client = Orb(host, runtime.cluster.network, config=OrbConfig(request_timeout=0.2))
    client.add_request_interceptor(ObservabilityInterceptor(client))
    stub = client.stub(ior, ns.SlowStub)
    outcome = []

    def reader():
        try:
            yield stub.grind(1.0)
        except TIMEOUT:
            outcome.append("timeout")

    started = runtime.sim.now
    host.spawn(reader())
    runtime.sim.run(until=started + 3.0)

    assert outcome == ["timeout"]
    assert runtime.orb(1).requests_cancelled == 1
    assert open_names(runtime) == []
    (span,) = finished(runtime, "serve:grind")
    assert span.status == "error"
    assert span.error == "ProcessKilled"
    (call,) = finished(runtime, "call:grind")
    assert call.error == "TIMEOUT"
