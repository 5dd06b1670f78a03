"""Tests for load-triggered migration (§3's migration remark)."""

from repro.cluster import BackgroundLoad
from repro.errors import RecoveryError
from repro.ft import MigrationPolicy, migrate_service


def test_manual_migration_moves_state(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        yield proxy.increment(42)
        new_ior = yield from migrate_service(
            proxy, ft_world.runtime.naming_stub(0), "ws03"
        )
        value = yield proxy.value()
        return new_ior.host, value

    host, value = ft_world.run(client())
    assert host == "ws03"
    assert value == 42
    assert proxy.ior.host == "ws03"


def test_migration_to_same_host_is_noop(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        result = yield from migrate_service(
            proxy, ft_world.runtime.naming_stub(0), "ws01"
        )
        return result

    assert ft_world.run(client()) == ior


def test_migration_destroys_source_object(ft_world):
    from repro.errors import OBJECT_NOT_EXIST
    from tests.ft.conftest import counter_ns

    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()
    old_stub = ft_world.runtime.orb(0).stub(ior, counter_ns.CounterStub)

    def client():
        yield proxy.increment(1)
        yield from migrate_service(proxy, ft_world.runtime.naming_stub(0), "ws02")
        try:
            yield old_stub.value()
        except OBJECT_NOT_EXIST:
            return "retired"

    assert ft_world.run(client()) == "retired"


def test_migration_to_unknown_host_fails(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()

    def client():
        yield proxy.increment(1)
        try:
            yield from migrate_service(
                proxy, ft_world.runtime.naming_stub(0), "ws99"
            )
        except RecoveryError:
            return "no-factory"

    assert ft_world.run(client()) == "no-factory"


def test_migration_policy_reacts_to_load(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()
    policy = MigrationPolicy(
        proxy,
        ft_world.runtime.naming_stub(0),
        ft_world.runtime.system_manager,
        interval=1.0,
        improvement_factor=1.5,
    ).start()

    def client():
        yield proxy.increment(7)
        # Overload the current host; the policy should move the service.
        BackgroundLoad(ft_world.cluster.host(1), intensity=3, chunk=0.25).start()
        yield ft_world.sim.timeout(12.0)
        value = yield proxy.value()
        return proxy.ior.host, value

    host, value = ft_world.run(client())
    policy.stop()
    assert host != "ws01"
    assert value == 7
    assert policy.migrations >= 1


def test_migration_policy_stable_without_load(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior)
    ft_world.settle()
    policy = MigrationPolicy(
        proxy,
        ft_world.runtime.naming_stub(0),
        ft_world.runtime.system_manager,
        interval=1.0,
    ).start()

    def client():
        yield proxy.increment(1)
        yield ft_world.sim.timeout(15.0)
        return proxy.ior.host

    assert ft_world.run(client()) == "ws01"
    policy.stop()
    assert policy.migrations == 0
    assert policy.checks >= 10


def test_migration_requires_ft_wiring(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.runtime.ft_proxy(
        __import__("tests.ft.conftest", fromlist=["counter_ns"]).counter_ns.CounterStub,
        ior,
        key="bare",
        type_name="Counter",
        with_store=False,
        with_recovery=False,
    )
    ft_world.settle()

    def client():
        try:
            yield from migrate_service(
                proxy, ft_world.runtime.naming_stub(0), "ws02"
            )
        except RecoveryError:
            return "needs-wiring"

    assert ft_world.run(client()) == "needs-wiring"
