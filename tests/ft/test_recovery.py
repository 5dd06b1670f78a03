"""Tests for the recovery coordinator (re-resolve, re-create, restore)."""

from repro.errors import RecoveryError
from repro.ft import FtPolicy
from repro.services.naming.names import to_name


def test_recovery_restores_latest_checkpoint(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        for _ in range(5):
            yield proxy.increment(2)
        ft_world.cluster.host(1).crash()
        return (yield proxy.value())

    # value() triggers recovery; checkpointed state was 10.
    assert ft_world.run(client()) == 10


def test_recovery_prefers_winner_best_host(ft_world):
    """The new instance is placed via the load-distributing naming service."""
    from repro.cluster import BackgroundLoad

    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    # Load ws02 heavily: recovery should avoid it.
    BackgroundLoad(ft_world.cluster.host(2), intensity=3, chunk=0.25).start()
    ft_world.settle(6.0)

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        yield proxy.increment(1)
        return proxy.ior.host

    new_host = ft_world.run(client())
    assert new_host not in ("ws01", "ws02")


def test_recovery_skips_dead_factory_hosts(ft_world):
    """If Winner still suggests a dead host, recovery drops its factory
    replica and retries elsewhere."""
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=FtPolicy(retry_backoff=0.1))
    ft_world.settle()

    def client():
        yield proxy.increment(1)
        # Crash two hosts at once: the one with the service and another
        # that Winner may still believe is fine.
        ft_world.cluster.host(1).crash()
        ft_world.cluster.host(2).crash()
        value = yield proxy.increment(1)
        return value, proxy.ior.host

    value, host = ft_world.run(client())
    assert value == 2
    assert host in ("ws00", "ws03", "ws04")


def test_recovery_swaps_group_binding(ft_world):
    ior = ft_world.deploy_counter(host=1)
    # Register the original replica in a service group.
    group = to_name("counters.service")

    def register():
        naming = ft_world.runtime.naming_stub(0)
        yield naming.bind_service(group, ior)

    ft_world.run(register())
    proxy = ft_world.proxy(ior, group_name="counters.service")
    ft_world.settle()

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        yield proxy.increment(1)
        naming = ft_world.runtime.naming_stub(0)
        replicas = yield naming.resolve_all(group)
        return [replica.host for replica in replicas], proxy.ior.host

    hosts, new_host = ft_world.run(client())
    assert hosts == [new_host]
    assert "ws01" not in hosts


def test_recovery_counts_and_timing(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()
    coordinator = ft_world.runtime.coordinator(0)

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        yield proxy.increment(1)

    ft_world.run(client())
    assert coordinator.recoveries == 1
    assert coordinator.failed_recoveries == 0
    assert coordinator.recovery_time_total > 0.0


def test_recovery_without_factory_type_fails(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    proxy._ft.type_name = "UnregisteredType"
    ft_world.settle()

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        try:
            yield proxy.increment(1)
        except RecoveryError as exc:
            return str(exc)

    assert "UnregisteredType" in ft_world.run(client())


def test_recovery_with_unbound_factory_group_fails(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    proxy._ft.recovery.factory_group = to_name("nonexistent.group")
    ft_world.settle()

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        try:
            yield proxy.increment(1)
        except RecoveryError as exc:
            return "unbound"

    assert ft_world.run(client()) == "unbound"


def test_double_failure_second_recovery_works(ft_world):
    from repro.cluster import BackgroundLoad

    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    # Keep ws00 (manager + services) busy so Winner never places the
    # recovered service there — we crash the recovery target below and
    # ws00 must stay alive.
    BackgroundLoad(ft_world.cluster.host(0), intensity=2, chunk=0.25).start()
    ft_world.settle(6.0)

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        yield proxy.increment(1)  # first recovery
        first_host = proxy.ior.host
        ft_world.cluster.host(first_host).crash()
        value = yield proxy.increment(1)  # second recovery
        return value, first_host, proxy.ior.host

    value, first_host, second_host = ft_world.run(client())
    assert value == 3
    assert second_host not in ("ws01", first_host)
    assert ft_world.runtime.coordinator(0).recoveries == 2
