"""Tests for the ORB's client-side call statistics."""

from repro.errors import COMM_FAILURE
from repro.orb import compile_idl

ns = compile_idl(
    """
    interface Timed {
        double fast(in double x);
        double slow(in double x);
    };
    """,
    name="stats-test",
)


class TimedImpl(ns.TimedSkeleton):
    def fast(self, x):
        return x

    def slow(self, x):
        yield self._host().execute(2.0)
        return x


def setup(world):
    server_orb = world.orb(1)
    ior = server_orb.poa.activate(TimedImpl())
    client_orb = world.orb(0)
    return client_orb, client_orb.stub(ior, ns.TimedStub)


def test_stats_count_calls_per_operation(world):
    client_orb, stub = setup(world)

    def client():
        yield stub.fast(1.0)
        yield stub.fast(2.0)
        yield stub.slow(3.0)

    world.run(client())
    assert client_orb.call_stats["fast"].calls == 2
    assert client_orb.call_stats["slow"].calls == 1
    assert client_orb.call_stats["fast"].failures == 0


def test_stats_latency_reflects_server_work(world):
    client_orb, stub = setup(world)

    def client():
        yield stub.fast(1.0)
        yield stub.slow(1.0)

    world.run(client())
    fast = client_orb.call_stats["fast"]
    slow = client_orb.call_stats["slow"]
    assert slow.mean_latency > 2.0
    assert fast.mean_latency < 0.1
    assert slow.max_latency >= slow.mean_latency


def test_stats_record_failures(world):
    client_orb, stub = setup(world)
    world.host(1).crash()

    def client():
        try:
            yield stub.fast(1.0)
        except COMM_FAILURE:
            pass

    world.run(client())
    stats = client_orb.call_stats["fast"]
    assert stats.calls == 1
    assert stats.failures == 1


def test_stats_aggregate_across_targets(world):
    client_orb = world.orb(0)
    stub_a = client_orb.stub(world.orb(1).poa.activate(TimedImpl()), ns.TimedStub)
    stub_b = client_orb.stub(world.orb(2).poa.activate(TimedImpl()), ns.TimedStub)

    def client():
        yield stub_a.fast(1.0)
        yield stub_b.fast(1.0)

    world.run(client())
    assert client_orb.call_stats["fast"].calls == 2
