"""Degraded-mode checkpointing: when the checkpoint store is unreachable,
an ``on_checkpoint_failure="degraded"`` proxy buffers checkpoints locally
and flushes them (oldest first) once the store answers again — and
recovery can restore from the buffer while the store is still down.

Also the satellite regression: ``on_checkpoint_failure`` must behave
identically on the static-stub path and the DII (``FtRequest``) path.
"""

import pytest

from repro.errors import TRANSIENT
from repro.ft import FtPolicy
from repro.ft.request_proxy import FtRequest


def degraded_policy(**kwargs):
    kwargs.setdefault("on_checkpoint_failure", "degraded")
    kwargs.setdefault("checkpoint_buffer_limit", 4)
    return FtPolicy(**kwargs)


def stored_state(world, key="counter-1"):
    """What the checkpoint store currently holds for ``key``."""

    def load():
        return (yield world.runtime.store_stub(0).load(key))

    return world.run(load())


def test_calls_succeed_and_buffer_during_store_outage(ft_world):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    store = world.runtime.store_servant

    def client():
        yield proxy.increment(1)  # store healthy: checkpointed normally
        store.set_available(False)
        for _ in range(3):
            yield proxy.increment(1)  # still succeed, checkpoints buffer
        return (yield proxy.value())

    value = world.run(client())
    assert value == 4
    ft = proxy._ft
    # every successful call checkpoints (interval 1) — the value() read too
    assert ft.checkpoints_buffered == 4
    assert ft.degraded
    assert len(ft.buffered_checkpoints) == 4
    # the buffer holds (version, state) pairs, newest last
    assert ft.latest_buffered()[1] == {"value": 4}
    # the store never saw the buffered versions
    store.set_available(True)
    assert stored_state(world) == {"value": 1}


def test_buffer_is_trimmed_to_the_policy_limit(ft_world):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy(checkpoint_buffer_limit=2))
    world.runtime.store_servant.set_available(False)

    def client():
        for _ in range(5):
            yield proxy.increment(1)

    world.run(client())
    ft = proxy._ft
    assert ft.checkpoints_buffered == 5
    assert len(ft.buffered_checkpoints) == 2  # only the newest survive
    assert ft.latest_buffered()[1] == {"value": 5}


def test_buffered_checkpoints_flush_when_store_recovers(ft_world):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    store = world.runtime.store_servant

    def client():
        store.set_available(False)
        yield proxy.increment(1)
        yield proxy.increment(1)
        store.set_available(True)
        yield proxy.increment(1)  # next checkpoint drains the buffer too

    world.run(client())
    ft = proxy._ft
    assert not ft.degraded
    assert ft.buffered_checkpoints == []
    assert ft.checkpoints_flushed == 2
    assert stored_state(world) == {"value": 3}
    flushed = world.sim.obs.metrics.counter(
        "ft_checkpoints_flushed_total", service="counter-1"
    )
    assert flushed.value_repr() == 2


def test_checkpoint_now_flushes_without_a_call(ft_world):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    store = world.runtime.store_servant

    def client():
        store.set_available(False)
        yield proxy.increment(1)
        store.set_available(True)
        yield proxy.checkpoint_now()

    world.run(client())
    assert proxy._ft.buffered_checkpoints == []
    assert proxy._ft.checkpoints_flushed == 1


def test_recovery_restores_from_buffer_while_store_is_down(ft_world):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    store = world.runtime.store_servant

    def client():
        yield proxy.increment(1)
        store.set_available(False)
        yield proxy.increment(1)
        yield proxy.increment(1)  # buffered state: {"value": 3}
        world.cluster.host(1).crash()
        # recovery must use the newest *buffered* checkpoint: the store is
        # unreachable and its copy (value=1) is stale anyway.
        value = yield proxy.value()
        return value

    value = world.run(client())
    assert value == 3
    assert proxy.ior.host != "ws01"
    restores = world.sim.obs.metrics.counter(
        "ft_restores_from_buffer_total", service="counter-1"
    )
    assert restores.value_repr() == 1


def test_buffered_checkpoint_wins_when_newer_than_store_copy(ft_world):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    store = world.runtime.store_servant

    def client():
        yield proxy.increment(1)  # store holds version 1 ({"value": 1})
        store.set_available(False)
        yield proxy.increment(1)  # buffer holds version 2 ({"value": 2})
        store.set_available(True)  # store answers, but its copy is older
        world.cluster.host(1).crash()
        return (yield proxy.value())

    assert world.run(client()) == 2


# -- satellite (b): static stub vs. DII parity ---------------------------------


@pytest.mark.parametrize("path", ["static", "dii"])
def test_ignore_mode_swallows_checkpoint_failure_on_both_paths(ft_world, path):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(
        ior, policy=FtPolicy(on_checkpoint_failure="ignore")
    )
    world.runtime.store_servant.set_available(False)

    def client():
        if path == "static":
            result = yield proxy.increment(7)
        else:
            result = yield FtRequest(proxy, "increment", (7,)).invoke()
        return result

    assert world.run(client()) == 7
    # the call succeeded even though its checkpoint could not be stored
    assert proxy._ft.calls == 1
    assert proxy._ft.checkpoints_taken == 0


@pytest.mark.parametrize("path", ["static", "dii"])
def test_raise_mode_propagates_checkpoint_failure_on_both_paths(
    ft_world, path
):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=FtPolicy(on_checkpoint_failure="raise"))
    world.runtime.store_servant.set_available(False)

    def client():
        with pytest.raises(TRANSIENT):
            if path == "static":
                yield proxy.increment(7)
            else:
                yield FtRequest(proxy, "increment", (7,)).invoke()

    world.run(client())


@pytest.mark.parametrize("path", ["static", "dii"])
def test_degraded_mode_buffers_on_both_paths(ft_world, path):
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    world.runtime.store_servant.set_available(False)

    def client():
        if path == "static":
            result = yield proxy.increment(7)
        else:
            request = FtRequest(proxy, "increment", (7,))
            request.send_deferred()
            result = yield request.get_response()
        return result

    assert world.run(client()) == 7
    assert proxy._ft.checkpoints_buffered == 1


def test_degraded_recovery_survives_end_to_end(ft_world):
    """The full story in one test: buffer during the outage, recover from
    the buffer mid-outage, flush what remains when the store returns."""
    world = ft_world
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=degraded_policy())
    store = world.runtime.store_servant

    def client():
        total = 0
        store.set_available(False)
        for _ in range(3):
            total = yield proxy.increment(1)
        world.cluster.host(1).crash()
        total = yield proxy.increment(1)  # triggers recovery from buffer
        store.set_available(True)
        total = yield proxy.increment(1)  # flushes the surviving buffer
        return total

    assert world.run(client()) == 5
    ft = proxy._ft
    assert not ft.degraded
    assert ft.checkpoints_flushed > 0
    assert stored_state(world) == {"value": 5}
