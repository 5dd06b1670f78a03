"""Failure semantics of the ORB: every path to COMM_FAILURE the paper's
fault tolerance relies on, plus locate pings and incarnation checks."""

import pytest

from repro.errors import (
    COMM_FAILURE,
    CompletionStatus,
    HostDownError,
    OBJECT_NOT_EXIST,
    TIMEOUT,
    UNKNOWN,
)
from repro.orb import Orb, OrbConfig, compile_idl

ns = compile_idl(
    """
    interface Work {
        double quick(in double x);
        double slow(in double x);
    };
    """,
    name="failure-test",
)


class WorkImpl(ns.WorkSkeleton):
    def quick(self, x):
        return x

    def slow(self, x):
        yield self._host().execute(10.0)
        return x


def setup(world, server_index=1, client_index=0):
    server_orb = world.orb(server_index)
    ior = server_orb.poa.activate(WorkImpl())
    stub = world.orb(client_index).stub(ior, ns.WorkStub)
    return server_orb, ior, stub


def test_call_to_crashed_host_raises_comm_failure_completed_no(world):
    _, _, stub = setup(world)
    world.host(1).crash()

    def client():
        try:
            yield stub.quick(1.0)
        except COMM_FAILURE as exc:
            return exc.completed

    assert world.run(client()) is CompletionStatus.COMPLETED_NO


def test_crash_mid_call_raises_comm_failure_completed_maybe(world):
    _, _, stub = setup(world)

    def client():
        world.sim.schedule(2.0, world.host(1).crash)
        try:
            yield stub.slow(1.0)
        except COMM_FAILURE as exc:
            return (exc.completed, world.sim.now)

    completed, when = world.run(client())
    assert completed is CompletionStatus.COMPLETED_MAYBE
    # Failure is detected shortly after the crash (one latency), not never.
    assert 2.0 < when < 2.1


def test_server_process_shutdown_raises_comm_failure(world):
    server_orb, _, stub = setup(world)
    server_orb.shutdown()

    def client():
        try:
            yield stub.quick(1.0)
        except COMM_FAILURE:
            return "reset"

    assert world.run(client()) == "reset"


def test_network_partition_with_timeout_raises(world):
    world._orbs[0] = Orb(
        world.host(0), world.network, config=OrbConfig(request_timeout=0.5)
    )
    _, _, stub = setup(world)
    world.network.partition("ws00", "ws01")

    def client():
        try:
            yield stub.quick(1.0)
        except TIMEOUT:
            return world.sim.now

    assert world.run(client()) == pytest.approx(0.5, abs=0.01)


def test_stale_incarnation_after_restart_raises_object_not_exist(world):
    server_orb, ior, stub = setup(world)
    world.host(1).crash()
    world.host(1).restart()
    # New server process on the same port; old IOR must not resolve to it.
    new_orb = Orb(world.host(1), world.network, port=ior.port)
    new_orb.poa.activate(WorkImpl(), key=ior.object_key)

    def client():
        try:
            yield stub.quick(1.0)
        except OBJECT_NOT_EXIST:
            return "stale"

    assert world.run(client()) == "stale"


def test_locate_alive_and_dead(world):
    server_orb, ior, _ = setup(world)
    client_orb = world.orb(0)

    def check_alive():
        return (yield client_orb.locate(ior))

    assert world.run(check_alive()) is True
    world.host(1).crash()

    def check_dead():
        return (yield client_orb.locate(ior))

    assert world.run(check_dead()) is False


def test_locate_deactivated_object(world):
    server_orb = world.orb(1)
    impl = WorkImpl()
    ior = server_orb.poa.activate(impl)
    server_orb.poa.deactivate(impl)

    def check():
        return (yield world.orb(0).locate(ior))

    assert world.run(check()) is False


def test_locate_partitioned_host_times_out_false(world):
    _, ior, _ = setup(world)
    world.network.partition("ws00", "ws01")

    def check():
        return (yield world.orb(0).locate(ior))

    assert world.run(check()) is False


def test_concurrent_calls_all_fail_on_crash(world):
    _, _, stub = setup(world)
    outcomes = []

    def one_call(i):
        try:
            yield stub.slow(float(i))
            outcomes.append("ok")
        except COMM_FAILURE:
            outcomes.append("fail")

    for i in range(4):
        world.sim.spawn(one_call(i))
    world.sim.schedule(1.0, world.host(1).crash)
    world.sim.run(until=50.0)
    assert outcomes == ["fail"] * 4


def test_recovery_possible_after_restart_with_fresh_ior(world):
    server_orb, ior, stub = setup(world)
    world.host(1).crash()
    world.host(1).restart()
    fresh_orb = Orb(world.host(1), world.network)
    fresh_ior = fresh_orb.poa.activate(WorkImpl())

    def client():
        try:
            yield stub.quick(1.0)
        except COMM_FAILURE:
            pass
        stub._rebind(fresh_ior)
        return (yield stub.quick(7.0))

    assert world.run(client()) == 7.0


def test_oneway_to_dead_host_does_not_raise(world):
    oneway_ns = compile_idl(
        "interface O { oneway void fire(in long x); };", name="oneway-test"
    )
    server_orb = world.orb(1)

    class OImpl(oneway_ns.OSkeleton):
        def fire(self, x):
            pass

    ior = server_orb.poa.activate(OImpl())
    stub = world.orb(0).stub(ior, oneway_ns.OStub)
    world.host(1).crash()

    def client():
        yield stub.fire(1)
        return "sent"

    assert world.run(client()) == "sent"


def test_reply_with_out_of_range_status_leaves_the_dispatcher_alive(world):
    """A datagram no decoder accepts is dropped; it must not stop the ORB
    dispatching (``ReplyStatus(9)`` once raised ``ValueError`` past
    ``except MARSHAL``, killed the dispatch loop, and every later call to
    the host hung)."""
    from repro.orb import giop

    server_orb, _, stub = setup(world)
    forged = bytearray(
        giop.encode_message(
            giop.ReplyMessage(1, giop.ReplyStatus.NO_EXCEPTION, b"")
        )
    )
    forged[12] = 9
    assert len(forged) == 20

    def client():
        world.network.send(
            world.host(0),
            12345,
            server_orb.host.name,
            server_orb.port,
            bytes(forged),
            len(forged),
        )
        yield world.sim.timeout(0.01)
        return (yield stub.quick(2.5))

    assert world.run(client(), limit=5.0) == 2.5
    assert world.sim.unhandled_failures == []


def test_yielding_servant_that_raises_in_its_first_step_is_not_unhandled(world):
    """A generator servant runs as a process started inside the upcall,
    with the dispatch already watching it: raising before its first yield
    is an UNKNOWN reply, not a process that died unhandled."""
    early_ns = compile_idl("interface Early { double go(); };", name="early-raise")

    class EarlyImpl(early_ns.EarlySkeleton):
        def go(self):
            raise ValueError("before the first yield")
            yield  # pragma: no cover - makes this a generator

    ior = world.orb(1).poa.activate(EarlyImpl())
    stub = world.orb(0).stub(ior, early_ns.EarlyStub)

    def client():
        try:
            yield stub.go()
        except UNKNOWN as exc:
            return str(exc)

    assert "ValueError" in world.run(client())
    assert world.sim.unhandled_failures == []


def test_forged_datagrams_naming_an_unknown_host_are_dropped(world):
    """The ORB's endpoint handler runs inside the delivery event, so it
    must be total: an answer to a host the network does not know is
    dropped instead of raising into the kernel."""
    from repro.orb import giop

    server_orb, _, stub = setup(world)
    forged = [
        giop.ConnectMessage(7, "nowhere", 1),
        giop.LocateRequestMessage(
            request_id=8,
            object_key=b"k",
            target_incarnation=0,
            reply_host="nowhere",
            reply_port=1,
        ),
    ]

    def client():
        for message in forged:
            raw = giop.encode_message(message)
            world.network.send(
                world.host(0),
                12345,
                server_orb.host.name,
                server_orb.port,
                raw,
                len(raw),
            )
        yield world.sim.timeout(0.01)
        return (yield stub.quick(2.5))

    assert world.run(client(), limit=5.0) == 2.5
    assert world.sim.unhandled_failures == []


def test_invoke_on_a_crashed_client_host_raises_at_once(world):
    _, _, stub = setup(world)
    world.host(0).crash()
    with pytest.raises(HostDownError):
        stub.quick(1.0)
    assert world.orb(0).requests_sent == 0
