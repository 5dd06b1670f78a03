"""Tests for GIOP CancelRequest: timed-out requests stop burning server CPU."""

from repro.errors import TIMEOUT
from repro.orb import Orb, OrbConfig, compile_idl
from repro.orb import giop

ns = compile_idl("interface C { double grind(in double s); };", name="cancel-test")


class CImpl(ns.CSkeleton):
    def __init__(self):
        self.completed = 0

    def grind(self, s):
        yield self._host().execute(s)
        self.completed += 1
        return s


def test_cancel_message_roundtrip():
    msg = giop.CancelRequestMessage(123)
    assert giop.decode_message(giop.encode_message(msg)) == msg


def test_timeout_cancels_server_work(world):
    client_orb = Orb(
        world.host(0), world.network, config=OrbConfig(request_timeout=1.0)
    )
    server_orb = world.orb(1)
    impl = CImpl()
    ior = server_orb.poa.activate(impl)
    stub = client_orb.stub(ior, ns.CStub)

    def client():
        try:
            yield stub.grind(30.0)
        except TIMEOUT:
            pass
        return world.sim.now

    world.run(client())
    # Give the cancel a moment to land, then verify the CPU is idle long
    # before the 30 s of work would have finished.
    world.sim.run(until=world.sim.now + 1.0)
    assert world.host(1).cpu.run_queue_length == 0
    assert server_orb.requests_cancelled == 1
    assert impl.completed == 0


def test_cancel_after_completion_is_noop(world):
    client_orb = Orb(
        world.host(0), world.network, config=OrbConfig(request_timeout=10.0)
    )
    server_orb = world.orb(1)
    impl = CImpl()
    ior = server_orb.poa.activate(impl)
    stub = client_orb.stub(ior, ns.CStub)

    def client():
        return (yield stub.grind(0.5))

    assert world.run(client()) == 0.5
    assert server_orb.requests_cancelled == 0
    assert impl.completed == 1


def test_cancel_for_unknown_request_ignored(world):
    server_orb = world.orb(1)
    raw = giop.encode_message(giop.CancelRequestMessage(9999))
    world.network.send(
        world.host(0), 12345, world.host(1).name, server_orb.port, raw, len(raw)
    )
    world.sim.run(until=1.0)
    assert server_orb.requests_cancelled == 0


def test_cancel_scoped_per_client(world):
    """Two clients may share a request id; a cancel from one must not
    abort the other's dispatch."""
    config = OrbConfig(request_timeout=1.0)
    client_a = Orb(world.host(0), world.network, config=config)
    client_b = Orb(world.host(2), world.network)  # no timeout
    server_orb = world.orb(1)
    impl = CImpl()
    ior = server_orb.poa.activate(impl)
    stub_a = client_a.stub(ior, ns.CStub)
    stub_b = client_b.stub(ior, ns.CStub)
    outcomes = []

    def caller_a():
        try:
            yield stub_a.grind(30.0)
        except TIMEOUT:
            outcomes.append("a-timeout")

    def caller_b():
        value = yield stub_b.grind(2.0)
        outcomes.append(("b-done", value))

    world.sim.spawn(caller_a())
    world.sim.spawn(caller_b())
    world.sim.run(until=60.0)
    assert "a-timeout" in outcomes
    assert ("b-done", 2.0) in outcomes
    assert server_orb.requests_cancelled == 1
