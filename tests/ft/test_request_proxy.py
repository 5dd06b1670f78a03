"""Tests for DII request proxies (Fig. 2's right-hand path)."""

import pytest

from repro.errors import BAD_OPERATION, COMM_FAILURE
from repro.ft import FtPolicy, FtRequest

from tests.ft.conftest import counter_ns


def test_request_proxy_requires_ft_proxy(ft_world):
    ior = ft_world.deploy_counter(host=1)
    plain_stub = ft_world.runtime.orb(0).stub(ior, counter_ns.CounterStub)
    with pytest.raises(BAD_OPERATION):
        FtRequest(plain_stub, "increment", (1,))


def test_deferred_request_returns_result(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)

    def client():
        request = FtRequest(proxy, "increment", (7,)).send_deferred()
        return (yield request.get_response())

    assert ft_world.run(client()) == 7


def test_synchronous_invoke_flavour(ft_world):
    """Synchronous use of a request proxy: send, then wait at once."""
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)

    def client():
        request = FtRequest(proxy, "increment", (3,))
        return (yield request.send_deferred().get_response())

    assert ft_world.run(client()) == 3


def test_request_checkpoint_after_success(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)

    def client():
        yield FtRequest(proxy, "increment", (1,)).send_deferred().get_response()

    ft_world.run(client())
    assert proxy._ft.checkpoints_taken == 1


def test_request_recovers_and_reissues(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        yield FtRequest(proxy, "increment", (5,)).send_deferred().get_response()
        # Crash mid-flight of a slow deferred call.
        request = FtRequest(proxy, "slow_increment", (1, 5.0)).send_deferred()
        ft_world.sim.schedule(1.0, ft_world.cluster.host(1).crash)
        value = yield request.get_response()
        return value, request.attempts, proxy.ior.host

    value, attempts, host = ft_world.run(client())
    assert value == 6  # checkpoint(5) + retried increment
    assert attempts == 2
    assert host != "ws01"


def test_parallel_deferred_requests_with_failure(ft_world):
    """Several in-flight request proxies share ONE coalesced recovery."""
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        yield FtRequest(proxy, "increment", (100,)).send_deferred().get_response()
        requests = [
            FtRequest(proxy, "slow_increment", (1, 3.0)).send_deferred()
            for _ in range(3)
        ]
        ft_world.sim.schedule(0.5, ft_world.cluster.host(1).crash)
        values = []
        for request in requests:
            values.append((yield request.get_response()))
        return sorted(values)

    values = ft_world.run(client())
    # Per-proxy serialization: only the first request was in flight at the
    # crash; it recovered once, then all three execute on the restored
    # instance: 100 + 1, + 1, + 1.
    assert values == [101, 102, 103]
    coordinator = ft_world.runtime.coordinator(0)
    assert coordinator.recoveries == 1
    assert coordinator.coalesced == 0


def test_concurrent_recovery_coalesced_across_proxies(ft_world):
    """Two proxies of the same service share one coalesced restart."""
    ior = ft_world.deploy_counter(host=1)
    proxy_a = ft_world.proxy(ior, key="shared")
    proxy_b = ft_world.proxy(ior, key="shared")
    ft_world.settle()

    def client():
        yield FtRequest(proxy_a, "increment", (100,)).send_deferred().get_response()
        request_a = FtRequest(proxy_a, "slow_increment", (1, 3.0)).send_deferred()
        request_b = FtRequest(proxy_b, "slow_increment", (1, 3.0)).send_deferred()
        ft_world.sim.schedule(0.5, ft_world.cluster.host(1).crash)
        a = yield request_a.get_response()
        b = yield request_b.get_response()
        return sorted([a, b])

    values = ft_world.run(client())
    coordinator = ft_world.runtime.coordinator(0)
    assert coordinator.recoveries == 1
    assert coordinator.coalesced == 1
    # Both proxies point at the same restarted instance.
    assert proxy_a.ior == proxy_b.ior
    assert values == [101, 102]


def test_poll_response_and_return_value(ft_world):
    """The response future is polled without blocking and holds the
    return value once done."""
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)

    def client():
        response = (
            FtRequest(proxy, "slow_increment", (1, 2.0)).send_deferred().get_response()
        )
        early = response.is_done
        yield ft_world.sim.timeout(10.0)
        late = response.is_done
        return early, late, response.value

    assert ft_world.run(client()) == (False, True, 1)


def test_api_misuse_rejected(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    request = FtRequest(proxy, "increment", (1,))
    with pytest.raises(BAD_OPERATION):
        request.get_response()
    request.send_deferred()
    with pytest.raises(BAD_OPERATION):
        request.send_deferred()

    def drain():
        yield request.get_response()

    ft_world.run(drain())


def test_request_without_recovery_propagates(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.runtime.ft_proxy(
        counter_ns.CounterStub,
        ior,
        key="no-rec",
        type_name="Counter",
        with_recovery=False,
    )
    ft_world.cluster.host(1).crash()

    def client():
        request = FtRequest(proxy, "increment", (1,)).send_deferred()
        try:
            yield request.get_response()
        except COMM_FAILURE:
            return "failed"

    assert ft_world.run(client()) == "failed"


# -- one call loop: what the stub path does, the DII path does -----------------------


@pytest.mark.parametrize("mode", ["warm-passive", "active"])
def test_request_on_replica_group_keeps_state_across_lead_crash(
    make_ft_world, mode
):
    """A request proxy on a replication-mode proxy dispatches through the
    group (request ids, state ships, failover) exactly like the stub path;
    bypassing the group would lose every update on recovery (the sixth
    call would return 1)."""
    from repro.core.report import runtime_report
    from tests.ft.test_replication import provision, replicated_proxy

    def run(call):
        world = make_ft_world()
        proxy = replicated_proxy(world, mode)
        group = provision(world, proxy)

        def client():
            for _ in range(5):
                yield call(proxy)
            world.cluster.host(proxy.ior.host).crash()
            return (yield call(proxy))

        value = world.run(client())
        return value, group.snapshot(), runtime_report(world.runtime)["replication"]

    def dii_increment(proxy):
        return FtRequest(proxy, "increment", (1,)).send_deferred().get_response()

    stub_value, stub_snap, stub_report = run(lambda proxy: proxy.increment(1))
    value, snap, report = run(dii_increment)
    assert value == stub_value == 6
    assert snap["calls"] == 6
    if mode == "warm-passive":
        assert snap["promotions"] == 1
    assert report["applies"] == stub_report["applies"] > 0
    assert snap == stub_snap


def test_request_surfaces_parked_pipeline_error(make_ft_world):
    """The DII twin of ``test_pipelined_persist_failure_fails_next_call``:
    a background persist failure parks on the proxy and fails the next
    call — whichever of Fig. 2's two paths issues it."""
    from repro.orb.ior import IOR
    from repro.services.checkpoint import CheckpointStoreStub

    world = make_ft_world(num_hosts=4)
    ior = world.deploy_counter(host=2)
    proxy = world.proxy(ior, policy=FtPolicy(checkpoint_mode="pipelined"))
    world.settle()

    def call():
        return FtRequest(proxy, "increment", (1,)).send_deferred().get_response()

    def client():
        yield call()
        yield proxy.drain_checkpoints()
        # Point the store stub at a dead host: background persists now fail.
        world.cluster.host(3).crash()
        dead = IOR(world.runtime.store_ior.type_id, "ws03", 12345, b"gone", 0)
        proxy._ft.store = world.runtime.orb(0).stub(dead, CheckpointStoreStub)

        yield call()  # succeeds; its persist fails in the background
        yield proxy.drain_checkpoints()
        parked = proxy._ft._pipeline_error
        try:
            yield call()
        except COMM_FAILURE:
            return parked, proxy._ft._pipeline_error

    parked, after = world.run(client())
    assert isinstance(parked, COMM_FAILURE)
    assert after is None
