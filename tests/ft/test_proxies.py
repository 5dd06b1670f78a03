"""Tests for the generated fault-tolerance object proxies (§3, Fig. 2)."""

import pytest

from repro.errors import COMM_FAILURE, RecoveryError
from repro.ft import FtContext, FtPolicy, make_ft_proxy
from repro.ft.proxies import _FtProxyBase
from repro.ft.recovery import FACTORY_GROUP
from repro.orb.stubs import ObjectStub

from tests.ft.conftest import CounterImpl, counter_ns


def test_make_ft_proxy_derives_from_stub():
    Proxy = make_ft_proxy(counter_ns.CounterStub)
    assert issubclass(Proxy, counter_ns.CounterStub)
    assert issubclass(Proxy, _FtProxyBase)
    assert Proxy.__name__ == "CounterFtProxy"
    # All stub operations wrapped except the checkpoint machinery.
    assert "increment" in Proxy.__dict__
    assert "value" in Proxy.__dict__
    assert "get_checkpoint" not in Proxy.__dict__
    assert "restore_from" not in Proxy.__dict__


def test_make_ft_proxy_rejects_non_stub():
    with pytest.raises(TypeError):
        make_ft_proxy(dict)


def test_proxy_transparent_call(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)

    def client():
        first = yield proxy.increment(5)
        second = yield proxy.increment(2)
        return first, second

    assert ft_world.run(client()) == (5, 7)


def test_proxy_checkpoints_after_each_call(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)

    def client():
        for _ in range(4):
            yield proxy.increment(1)

    ft_world.run(client())
    assert proxy._ft.checkpoints_taken == 4
    assert proxy._ft.calls == 4
    store = ft_world.runtime.store_servant
    assert store.stores == 4
    assert "counter-1" in store.backend.keys()


def test_checkpoint_interval_reduces_checkpoints(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=FtPolicy(checkpoint_interval=3))

    def client():
        for _ in range(7):
            yield proxy.increment(1)

    ft_world.run(client())
    assert proxy._ft.checkpoints_taken == 2  # after calls 3 and 6


def test_proxy_recovers_from_host_crash(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        for _ in range(3):
            yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        value = yield proxy.increment(1)
        return value, proxy.ior.host

    value, new_host = ft_world.run(client())
    # State restored from checkpoint (3), plus the retried increment.
    assert value == 4
    assert new_host != "ws01"
    assert ft_world.runtime.coordinator(0).recoveries == 1


def test_recovered_state_visible_to_subsequent_calls(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        yield proxy.increment(10)
        ft_world.cluster.host(1).crash()
        yield proxy.increment(1)
        return (yield proxy.value())

    assert ft_world.run(client()) == 11


def test_proxy_without_recovery_propagates_comm_failure(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.runtime.ft_proxy(
        counter_ns.CounterStub,
        ior,
        key="no-recovery",
        type_name="Counter",
        with_recovery=False,
    )
    ft_world.cluster.host(1).crash()

    def client():
        try:
            yield proxy.increment(1)
        except COMM_FAILURE:
            return "failed"

    assert ft_world.run(client()) == "failed"


def test_proxy_without_store_takes_no_checkpoints(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.runtime.ft_proxy(
        counter_ns.CounterStub,
        ior,
        key="no-store",
        type_name="Counter",
        with_store=False,
    )

    def client():
        yield proxy.increment(1)

    ft_world.run(client())
    assert proxy._ft.checkpoints_taken == 0
    assert ft_world.runtime.store_servant.stores == 0


def test_stateless_recovery_without_checkpoint_restarts_fresh(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.runtime.ft_proxy(
        counter_ns.CounterStub,
        ior,
        key="fresh",
        type_name="Counter",
        with_store=False,
    )
    ft_world.settle()

    def client():
        yield proxy.increment(5)
        ft_world.cluster.host(1).crash()
        return (yield proxy.increment(1))

    # No checkpoint existed, so the new instance starts from zero.
    assert ft_world.run(client()) == 1


def test_crash_mid_call_retries_with_consistent_state(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        yield proxy.increment(3)
        # Crash while a long call is executing: COMPLETED_MAYBE path.
        ft_world.sim.schedule(1.0, ft_world.cluster.host(1).crash)
        value = yield proxy.slow_increment(1, 5.0)
        return value

    # The call is retried on the recovered instance: 3 (checkpoint) + 1.
    assert ft_world.run(client()) == 4


def test_failure_of_every_factory_gives_recovery_error(make_ft_world):
    world = make_ft_world(num_hosts=3)
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=FtPolicy(retry_backoff=0.05))
    world.settle()

    def client():
        yield proxy.increment(1)
        # Remove ws00's factory from the group, then kill the other hosts:
        # no factory can re-create the service anywhere.
        naming = world.runtime.naming_stub(0)
        from repro.services.naming.names import to_name

        group = to_name(FACTORY_GROUP)
        factories = yield naming.resolve_all(group)
        for factory_ior in factories:
            if factory_ior.host == "ws00":
                yield naming.unbind_service(group, factory_ior)
        world.cluster.host(1).crash()
        world.cluster.host(2).crash()
        try:
            yield proxy.increment(1)
        except RecoveryError:
            return "unrecoverable"

    assert world.run(client()) == "unrecoverable"


def test_attribute_accessors_are_wrapped():
    attr_ns_src = """
    interface Holder {
        attribute double level;
    };
    """
    from repro.orb import compile_idl

    ns = compile_idl(attr_ns_src, name="ft-attr")
    Proxy = make_ft_proxy(ns.HolderStub)
    assert "get_level" in Proxy.__dict__
    assert "set_level" in Proxy.__dict__


def test_checkpoint_failure_policy_raise_vs_ignore(make_ft_world):
    world = make_ft_world(num_hosts=4)
    # Crash the store's host after deployment to make checkpoints fail.
    ior = world.deploy_counter(host=2)

    proxy_raise = world.proxy(ior, key="a", policy=FtPolicy())
    proxy_ignore = world.proxy(
        ior, key="b", policy=FtPolicy(on_checkpoint_failure="ignore")
    )
    # Replace the store stub with one pointing at a dead host.
    world.cluster.host(3).crash()
    from repro.orb.ior import IOR

    dead_store = IOR(
        world.runtime.store_ior.type_id,
        "ws03",
        12345,
        b"gone",
        0,
    )
    from repro.services.checkpoint import CheckpointStoreStub

    dead_stub = world.runtime.orb(0).stub(dead_store, CheckpointStoreStub)
    proxy_raise._ft.store = dead_stub
    proxy_ignore._ft.store = dead_stub

    def client():
        outcomes = []
        try:
            yield proxy_raise.increment(1)
            outcomes.append("ok")
        except Exception as exc:
            outcomes.append(type(exc).__name__)
        value = yield proxy_ignore.increment(1)
        outcomes.append(value)
        return outcomes

    outcomes = world.run(client())
    assert outcomes[0] == "COMM_FAILURE"
    assert outcomes[1] == 2  # both increments executed on the servant


def test_checkpoint_now_forces_snapshot(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=FtPolicy(checkpoint_interval=100))

    def client():
        yield proxy.increment(9)
        assert proxy._ft.checkpoints_taken == 0
        yield proxy.checkpoint_now()
        return proxy._ft.checkpoints_taken

    assert ft_world.run(client()) == 1
