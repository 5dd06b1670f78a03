"""Tests for the first-class replication modes (§3's rejected alternatives,
implemented for real behind ``FtPolicy.ft_mode``)."""

import pytest

from repro.errors import ConfigurationError
from repro.ft import FtPolicy


def replicated_proxy(ft_world, mode, replicas=3, **policy_kwargs):
    ft_world.settle(3.0)
    ior = ft_world.deploy_counter(host=1)
    return ft_world.proxy(
        ior,
        key=f"counter-{mode}",
        group_name="counter.service",
        policy=FtPolicy(
            ft_mode=mode, replication_factor=replicas, **policy_kwargs
        ),
        with_store=False,
    )


def provision(ft_world, proxy):
    ft_world.run(_provision(proxy))
    return proxy._ft.group


def _provision(proxy):
    yield proxy.provision_now()


# -- active replication ------------------------------------------------------------


def test_active_group_returns_quorum_reply(ft_world):
    proxy = replicated_proxy(ft_world, "active")
    group = provision(ft_world, proxy)

    def client():
        return (yield proxy.increment(5))

    assert ft_world.run(client()) == 5
    snap = group.snapshot()
    assert snap["members"] == 3
    assert snap["votes"] == 1
    # Replicas avoid the client host: a co-located replica is not a replica.
    assert "ws00" not in snap["member_hosts"]


def test_active_group_masks_replica_failure_without_delay(ft_world):
    proxy = replicated_proxy(ft_world, "active")
    group = provision(ft_world, proxy)
    ft_world.cluster.host(group.members[1].ior.host).crash()

    def client():
        start = ft_world.sim.now
        value = yield proxy.increment(1)
        return value, ft_world.sim.now - start

    value, elapsed = ft_world.run(client())
    assert value == 1
    assert elapsed < 0.1  # no recovery pause: the quorum answered


def test_active_group_replaces_dead_members(ft_world):
    proxy = replicated_proxy(ft_world, "active")
    group = provision(ft_world, proxy)
    ft_world.cluster.host(group.members[2].ior.host).crash()

    def client():
        total = 0
        for _ in range(4):
            total = yield proxy.increment(1)
        yield ft_world.sim.timeout(5.0)  # let the finisher backfill
        return total

    assert ft_world.run(client()) == 4
    snap = group.snapshot()
    assert snap["retired"] >= 1
    assert snap["replacements"] >= 1
    assert snap["members"] == 3


def test_active_group_burns_replica_factor_cpu(ft_world):
    """The paper's resource argument: r replicas execute every call."""
    proxy = replicated_proxy(ft_world, "active")
    group = provision(ft_world, proxy)
    hosts = [member.ior.host for member in group.members]
    baseline = {
        h: ft_world.cluster.host(h).cpu.work_completed for h in hosts
    }

    def client():
        for _ in range(4):
            yield proxy.slow_increment(1, 1.0)
        yield ft_world.sim.timeout(5.0)  # let slower replicas finish

    ft_world.run(client())
    busy = sum(
        ft_world.cluster.host(h).cpu.work_completed - baseline[h]
        for h in hosts
    )
    # 4 calls x 1.0 s of work x 3 replicas (plus small dispatch costs).
    assert busy == pytest.approx(12.0, rel=0.1)


def test_active_group_survives_replayed_round_exactly_once(ft_world):
    """Losing the quorum mid-round replays the SAME request id; replicas
    that already applied it answer from the reply cache instead of
    double-applying."""
    proxy = replicated_proxy(ft_world, "active")
    group = provision(ft_world, proxy)
    # Kill two of three voters: round 1 gets one reply, no quorum.
    for member in list(group.members[1:]):
        ft_world.cluster.host(member.ior.host).crash()

    def client():
        value = yield proxy.increment(7)
        yield ft_world.sim.timeout(2.0)
        return value

    assert ft_world.run(client()) == 7
    snap = group.snapshot()
    assert snap["retired"] == 2
    assert snap["replacements"] >= 2
    suppressed = sum(
        member.duplicates_suppressed
        for member in ft_world.runtime._replica_members
    )
    assert suppressed >= 1
    # No replica applied the increment twice.
    assert all(
        member.applies <= 1 for member in ft_world.runtime._replica_members
    )


# -- warm-passive replication -------------------------------------------------------


def test_warm_passive_primary_executes_and_ships(ft_world):
    proxy = replicated_proxy(ft_world, "warm-passive")
    group = provision(ft_world, proxy)

    def client():
        yield proxy.increment(5)
        return (yield proxy.increment(5))

    assert ft_world.run(client()) == 10
    snap = group.snapshot()
    # 2 calls x 2 standbys, every ship full (deltas off by default).
    assert snap["state_ships_full"] == 4
    assert snap["promotions"] == 0
    # Only the primary executed: standby applies stay zero.
    applies = {
        member.ior.host: member.applies
        for member in ft_world.runtime._replica_members
    }
    assert applies[group.members[0].ior.host] == 2
    assert all(
        applies[member.ior.host] == 0 for member in group.members[1:]
    )


def test_warm_passive_promotes_standby_with_state(ft_world):
    proxy = replicated_proxy(ft_world, "warm-passive")
    group = provision(ft_world, proxy)

    def client():
        yield proxy.increment(10)
        dead = proxy.ior.host
        ft_world.cluster.host(dead).crash()
        value = yield proxy.increment(1)
        return value, dead, proxy.ior.host

    value, dead, primary = ft_world.run(client())
    # The standby was synced to 10 by the ship; promoted and incremented.
    assert value == 11
    assert primary != dead
    snap = group.snapshot()
    assert snap["promotions"] == 1
    assert snap["calls"] == 2


def test_warm_passive_survives_dead_standby(ft_world):
    proxy = replicated_proxy(ft_world, "warm-passive")
    group = provision(ft_world, proxy)
    ft_world.cluster.host(group.members[2].ior.host).crash()

    def client():
        value = yield proxy.increment(2)
        yield ft_world.sim.timeout(5.0)  # background backfill
        return value

    assert ft_world.run(client()) == 2
    snap = group.snapshot()
    assert snap["promotions"] == 0  # a standby death never fails over
    assert snap["retired"] == 1
    assert snap["replacements"] == 1
    assert snap["members"] == 3


def test_warm_passive_reprovisions_when_every_replica_dies(ft_world):
    """Losing the whole group falls back to re-provisioning from the
    client-held state envelope — still no checkpoint store involved."""
    proxy = replicated_proxy(ft_world, "warm-passive")
    group = provision(ft_world, proxy)

    def client():
        yield proxy.increment(10)
        for member in list(group.members):
            ft_world.cluster.host(member.ior.host).crash()
        return (yield proxy.increment(1))

    assert ft_world.run(client()) == 11
    assert group.snapshot()["promotions"] >= 1


# -- configuration ------------------------------------------------------------------


def test_replication_modes_need_recovery_coordinator(ft_world):
    ior = ft_world.deploy_counter(host=1)
    with pytest.raises(ConfigurationError):
        ft_world.proxy(
            ior,
            policy=FtPolicy(ft_mode="active", replication_factor=3),
            with_recovery=False,
            with_store=False,
        )


def test_ft_mode_is_validated():
    with pytest.raises(ConfigurationError):
        FtPolicy(ft_mode="hot-standby")


def test_effective_quorum_defaults_to_majority():
    assert FtPolicy(ft_mode="active", replication_factor=3).effective_quorum() == 2
    assert FtPolicy(ft_mode="active", replication_factor=4).effective_quorum() == 3
