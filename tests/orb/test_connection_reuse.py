"""Tests for GIOP connection setup and reuse: the handshake cost model,
the per-endpoint connection cache, in-flight handshake joining, and
failure-driven invalidation."""

from repro.errors import COMM_FAILURE, TRANSIENT
from repro.orb import Orb, OrbConfig, compile_idl
from repro.orb.transport import ConnectionCache

ns = compile_idl(
    """
    interface Job {
        double run(in double seconds);
        long quick(in long x);
    };
    """,
    name="conn-reuse",
)


class JobImpl(ns.JobSkeleton):
    def run(self, seconds):
        yield self._host().execute(seconds)
        return seconds

    def quick(self, x):
        return x * 10


def client_orb(world, rtts=2, reuse=True):
    return Orb(
        world.host(0),
        world.network,
        config=OrbConfig(connection_handshake_rtts=rtts, connection_reuse=reuse),
    )


def serve(world, host_index=1):
    return world.orb(host_index).poa.activate(JobImpl())


def test_handshake_paid_per_call_without_reuse(world):
    orb = client_orb(world, rtts=2, reuse=False)
    stub = orb.stub(serve(world), ns.JobStub)

    def client():
        for _ in range(3):
            yield stub.quick(1)

    world.run(client())
    assert orb.connections is None
    assert orb.handshakes_sent == 6  # 2 round trips x 3 calls


def test_handshake_rounds_cost_latency(world):
    cheap = client_orb(world, rtts=0, reuse=False)
    dear = client_orb(world, rtts=3, reuse=False)
    ior = serve(world)

    def timed(orb):
        stub = orb.stub(ior, ns.JobStub)

        def client():
            start = world.sim.now
            yield stub.quick(1)
            return world.sim.now - start

        return world.run(client())

    assert timed(dear) > timed(cheap)


def test_connection_reused_across_calls(world):
    orb = client_orb(world, rtts=2, reuse=True)
    stub = orb.stub(serve(world), ns.JobStub)

    def client():
        for _ in range(4):
            yield stub.quick(1)

    world.run(client())
    assert orb.handshakes_sent == 2  # one handshake, two rounds, ever
    snapshot = orb.connections.snapshot()
    assert snapshot["opens"] == 1
    assert snapshot["hits"] == 3


def test_concurrent_calls_join_inflight_handshake(world):
    orb = client_orb(world, rtts=2, reuse=True)
    stub = orb.stub(serve(world), ns.JobStub)

    def client():
        first = stub._create_request("run", (1.0,)).send_deferred()
        second = stub._create_request("run", (1.0,)).send_deferred()
        yield first.get_response()
        yield second.get_response()

    world.run(client())
    snapshot = orb.connections.snapshot()
    assert snapshot["opens"] == 1  # the second call joined, not re-opened
    assert snapshot["handshake_joins"] == 1
    assert orb.handshakes_sent == 2


def test_crash_invalidates_cached_connection(world):
    orb = client_orb(world, rtts=2, reuse=True)
    stub = orb.stub(serve(world), ns.JobStub)

    def client():
        yield stub.quick(1)
        world.sim.schedule(1.0, world.host(1).crash)
        try:
            yield stub.run(5.0)
        except (COMM_FAILURE, TRANSIENT):
            return len(orb.connections)

    assert world.run(client()) == 0  # the dead host's entry was dropped
    assert orb.connections.snapshot()["invalidations"] >= 1


def test_lru_eviction_bounds_the_cache(world):
    big = type(world)(num_hosts=5)
    orb = client_orb(big, rtts=2, reuse=True)
    orb.connections = ConnectionCache(big.sim, capacity=2)
    stubs = [
        orb.stub(serve(big, host_index=index), ns.JobStub)
        for index in (1, 2, 3)
    ]

    def client():
        for stub in stubs:  # fills the cache and evicts host 1
            yield stub.quick(1)
        yield stubs[0].quick(1)  # host 1 again: must re-open

    big.run(client())
    snapshot = orb.connections.snapshot()
    assert snapshot["opens"] == 4
    assert snapshot["evictions"] == 2
    assert len(orb.connections) == 2
