"""Tests for the locate-ping failure detector."""

import pytest

from repro.ft import FailureDetector

from tests.ft.conftest import CounterImpl


def test_detector_stays_quiet_for_healthy_target(ft_world):
    ior = ft_world.deploy_counter(host=1)
    detector = FailureDetector(ft_world.runtime.orb(0), interval=0.5)
    suspects = []
    detector.watch("c1", ior, lambda key, i: suspects.append(key))
    ft_world.sim.run(until=10.0)
    assert suspects == []
    assert detector.pings > 5
    detector.stop()


def test_detector_reports_crash_once(ft_world):
    ior = ft_world.deploy_counter(host=1)
    detector = FailureDetector(ft_world.runtime.orb(0), interval=0.5)
    suspects = []
    detector.watch("c1", ior, lambda key, i: suspects.append((key, ft_world.sim.now)))
    ft_world.sim.schedule(3.0, ft_world.cluster.host(1).crash)
    ft_world.sim.run(until=15.0)
    assert len(suspects) == 1
    key, when = suspects[0]
    assert key == "c1"
    # Detected within a few intervals of the crash.
    assert 3.0 < when < 6.0


def test_detector_requires_consecutive_misses(ft_world):
    """A single dropped ping (transient partition) must not raise a suspect."""
    ior = ft_world.deploy_counter(host=1)
    detector = FailureDetector(
        ft_world.runtime.orb(0), interval=1.0, suspect_after=2
    )
    suspects = []
    detector.watch("c1", ior, lambda key, i: suspects.append(key))
    # Partition briefly around one ping, then heal.
    ft_world.sim.schedule(0.9, lambda: ft_world.runtime.network.partition("ws00", "ws01"))
    ft_world.sim.schedule(1.5, lambda: ft_world.runtime.network.heal("ws00", "ws01"))
    ft_world.sim.run(until=8.0)
    assert suspects == []


def test_detector_watch_multiple_targets(ft_world):
    ior_a = ft_world.deploy_counter(host=1)
    ior_b = ft_world.deploy_counter(host=2)
    detector = FailureDetector(ft_world.runtime.orb(0), interval=0.5)
    suspects = []
    detector.watch("a", ior_a, lambda key, i: suspects.append(key))
    detector.watch("b", ior_b, lambda key, i: suspects.append(key))
    ft_world.sim.schedule(2.0, ft_world.cluster.host(2).crash)
    ft_world.sim.run(until=10.0)
    assert suspects == ["b"]


def test_unwatch_stops_reports(ft_world):
    ior = ft_world.deploy_counter(host=1)
    detector = FailureDetector(ft_world.runtime.orb(0), interval=0.5)
    suspects = []
    detector.watch("c1", ior, lambda key, i: suspects.append(key))
    detector.unwatch("c1")
    ft_world.cluster.host(1).crash()
    ft_world.sim.run(until=6.0)
    assert suspects == []


def test_detector_resuspects_flapping_target(ft_world):
    """Die → recover → die again must be reported once per down phase:
    a successful ping clears the suspicion so the next outage is not
    swallowed by the report-once latch."""
    ior = ft_world.deploy_counter(host=1)
    detector = FailureDetector(
        ft_world.runtime.orb(0), interval=0.5, suspect_after=2
    )
    suspects = []
    detector.watch("c1", ior, lambda key, i: suspects.append(ft_world.sim.now))
    network = ft_world.runtime.network
    # First down phase (partition), recovery, second down phase.
    ft_world.sim.schedule(1.0, lambda: network.partition("ws00", "ws01"))
    ft_world.sim.schedule(4.0, lambda: network.heal("ws00", "ws01"))
    ft_world.sim.schedule(7.0, lambda: network.partition("ws00", "ws01"))
    ft_world.sim.run(until=12.0)
    assert detector.suspected == ["c1", "c1"]
    assert detector.recovered_targets == 1
    assert len(suspects) == 2
    first, second = suspects
    assert first < 4.0 < 7.0 < second
    detector.stop()


def test_detector_suspicion_promotes_warm_passive_standby(ft_world):
    """Detection latency feeds failover: with the detector armed, a dead
    primary is promoted away *between* calls — the next call finds the
    standby already leading, instead of paying the failover itself."""
    from tests.ft.test_replication import provision, replicated_proxy

    interval, suspect_after = 0.25, 2
    proxy = replicated_proxy(
        ft_world,
        "warm-passive",
        detector_interval=interval,
    )
    group = provision(ft_world, proxy)

    def warm():
        return (yield proxy.increment(10))

    assert ft_world.run(warm()) == 10
    primary = group.members[0].ior.host
    ft_world.cluster.host(primary).crash()
    # Idle-wait: no call is issued, so only the detector can notice.
    # Suspicion needs `suspect_after` missed pings; allow a few extra
    # intervals for the promotion itself.
    ft_world.sim.run(
        until=ft_world.sim.now + interval * (suspect_after + 4)
    )
    assert group.snapshot()["promotions"] == 1
    assert group.members[0].ior.host != primary

    def client():
        return (yield proxy.increment(1))

    # The shipped state survived the suspicion-driven failover.
    assert ft_world.run(client()) == 11


def test_detector_detects_deactivated_object(ft_world):
    servant = CounterImpl()
    ior = ft_world.runtime.orb(1).poa.activate(servant)
    detector = FailureDetector(ft_world.runtime.orb(0), interval=0.5)
    suspects = []
    detector.watch("c1", ior, lambda key, i: suspects.append(key))
    ft_world.sim.schedule(
        2.0, lambda: ft_world.runtime.orb(1).poa.deactivate(servant)
    )
    ft_world.sim.run(until=8.0)
    assert suspects == ["c1"]
