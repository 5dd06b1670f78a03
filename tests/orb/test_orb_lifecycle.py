"""Tests for ORB lifecycle edge cases and trace filtering."""

from repro.errors import COMM_FAILURE
from repro.orb import Orb, compile_idl

ns = compile_idl("interface L { double op(in double x); };", name="lifecycle-test")


class LImpl(ns.LSkeleton):
    def op(self, x):
        yield self._host().execute(1.0)
        return x


def test_shutdown_is_idempotent_and_frees_port(world):
    orb = Orb(world.host(1), world.network, port=9100)
    assert orb.running
    orb.shutdown()
    orb.shutdown()
    assert not orb.running
    # Port is reusable by a successor process.
    successor = Orb(world.host(1), world.network, port=9100)
    assert successor.running


def test_client_orb_shutdown_fails_outstanding_calls(world):
    server_orb = world.orb(1)
    ior = server_orb.poa.activate(LImpl())
    client_orb = Orb(world.host(0), world.network)
    stub = client_orb.stub(ior, ns.LStub)
    outcomes = []

    def caller():
        try:
            yield stub.op(1.0)
            outcomes.append("ok")
        except COMM_FAILURE:
            outcomes.append("aborted")

    world.sim.spawn(caller())
    world.sim.schedule(0.2, client_orb.shutdown)
    world.sim.run(until=5.0)
    assert outcomes == ["aborted"]


def test_server_resumes_after_orb_restart_on_same_host(world):
    host = world.host(1)
    first = Orb(host, world.network, port=9200)
    first.poa.activate(LImpl())
    first.shutdown()
    second = Orb(host, world.network, port=9200)
    ior = second.poa.activate(LImpl())
    stub = world.orb(0).stub(ior, ns.LStub)

    def client():
        return (yield stub.op(3.0))

    assert world.run(client()) == 3.0


def test_requests_counters(world):
    server_orb = world.orb(1)
    ior = server_orb.poa.activate(LImpl())
    client_orb = world.orb(0)
    stub = client_orb.stub(ior, ns.LStub)

    def client():
        yield stub.op(1.0)
        yield stub.op(2.0)

    world.run(client())
    assert client_orb.requests_sent == 2
    assert server_orb.requests_served == 2
