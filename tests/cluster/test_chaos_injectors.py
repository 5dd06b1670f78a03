"""Tests for the extended fault model: overlap-checked crash plans and the
chaos injectors (partitions, latency surges, loss bursts, gray hosts,
flapping, store outages)."""

import pytest

from repro.cluster import Cluster, ClusterConfig, FailureInjector
from repro.cluster.failures import FailurePlan
from repro.errors import ConfigurationError, HostDownError, TRANSIENT
from repro.services.checkpoint import CheckpointStoreServant
from repro.sim import Simulator


def make_injector(n=4, seed=3):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, ClusterConfig(num_hosts=n))
    return sim, cluster, FailureInjector(cluster)


# -- overlap rejection ---------------------------------------------------------


def test_schedule_rejects_overlapping_windows_same_host():
    _, _, injector = make_injector()
    injector.schedule(FailurePlan("ws01", 1.0, restart_after=2.0))
    with pytest.raises(ConfigurationError):
        injector.schedule(FailurePlan("ws01", 2.5, restart_after=1.0))


def test_schedule_allows_disjoint_windows_and_other_hosts():
    _, _, injector = make_injector()
    injector.schedule(FailurePlan("ws01", 1.0, restart_after=2.0))
    injector.schedule(FailurePlan("ws01", 3.5, restart_after=1.0))  # after restart
    injector.schedule(FailurePlan("ws02", 1.5, restart_after=2.0))  # other host
    assert len(injector.injected) == 3


def test_open_ended_crash_blocks_every_later_plan_for_that_host():
    _, _, injector = make_injector()
    injector.schedule(FailurePlan("ws01", 1.0))  # never restarts
    with pytest.raises(ConfigurationError):
        injector.schedule(FailurePlan("ws01", 100.0, restart_after=1.0))


def test_restart_landing_inside_other_window_rejected():
    plan_a = FailurePlan("ws01", 1.0, restart_after=5.0)  # down [1, 6)
    plan_b = FailurePlan("ws01", 5.5, restart_after=1.0)  # crash at 5.5
    assert plan_a.overlaps(plan_b)
    assert plan_b.overlaps(plan_a)
    assert not plan_a.overlaps(FailurePlan("ws02", 1.0, restart_after=5.0))


# -- latency surge -------------------------------------------------------------


def test_latency_spike_scales_delay_then_clears():
    sim, cluster, injector = make_injector()
    network = cluster.network
    nominal = network.delay("ws00", "ws01", 0)
    injector.schedule_latency_spike(at=1.0, duration=2.0, factor=5.0, extra=0.01)

    observed = {}
    sim.schedule_at(1.5, lambda: observed.update(during=network.delay("ws00", "ws01", 0)))
    sim.schedule_at(3.5, lambda: observed.update(after=network.delay("ws00", "ws01", 0)))
    sim.run()

    assert observed["during"] == pytest.approx(nominal * 5.0 + 0.01)
    assert observed["after"] == pytest.approx(nominal)


def test_latency_jitter_is_seeded_and_spares_loopback():
    def sample(seed):
        sim, cluster, _ = make_injector(seed=seed)
        cluster.network.set_latency_surge(jitter=0.01)
        return [cluster.network.delay("ws00", "ws01", 0) for _ in range(4)]

    assert sample(5) == sample(5)
    assert sample(5) != sample(6)

    sim, cluster, _ = make_injector()
    cluster.network.set_latency_surge(jitter=0.01)
    assert cluster.network.delay("ws00", "ws00", 0) == cluster.network.local_latency


# -- loss bursts ---------------------------------------------------------------


def test_loss_burst_drops_only_matching_port_then_stops():
    sim, cluster, injector = make_injector()
    network = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    network.bind(b, 7000)
    network.bind(b, 7001)
    injector.schedule_loss_burst(at=0.0, duration=1.0, rate=0.5, ports={7000})

    def flood():
        for _ in range(40):
            network.send(a, 1, b.name, 7000, payload="lossy", size=10)
            network.send(a, 1, b.name, 7001, payload="safe", size=10)
            yield sim.timeout(0.01)

    sim.spawn(flood())
    sim.run()
    assert network.messages_dropped > 0  # some port-7000 datagrams lost
    # port 7001 never matched: of 80 sends, at most 40 can have dropped
    assert network.messages_delivered >= 40

    # after the burst the network is loss-free again
    dropped_before = network.messages_dropped
    network.send(a, 1, b.name, 7000, payload="late", size=10)
    sim.run()
    assert network.messages_dropped == dropped_before


# -- gray hosts ----------------------------------------------------------------


def test_gray_host_slows_cpu_then_restores():
    sim, cluster, injector = make_injector()
    host = cluster.host(1)
    injector.schedule_gray_host("ws01", at=1.0, factor=0.25, duration=4.0)
    timings = {}

    def worker(label, start):
        def run():
            yield sim.timeout(start)
            t0 = sim.now
            yield host.execute(1.0)
            timings[label] = sim.now - t0

        sim.spawn(run())

    worker("before", 0.0)  # completes by t=1.0 at full speed
    worker("during", 1.0)  # entirely inside the degraded window
    worker("after", 6.0)
    sim.run()
    assert timings["before"] == pytest.approx(1.0)
    assert timings["during"] == pytest.approx(4.0)  # 1 / 0.25
    assert timings["after"] == pytest.approx(1.0)


def test_degrade_validates_factor_and_restart_clears_it():
    sim, cluster, _ = make_injector()
    host = cluster.host(1)
    with pytest.raises(HostDownError):
        host.degrade(0.0)
    with pytest.raises(HostDownError):
        host.degrade(1.5)
    host.degrade(0.5)
    assert host.degraded
    assert host.cpu.speed == pytest.approx(host.base_speed * 0.5)
    host.crash()
    host.restart()
    assert not host.degraded
    assert host.cpu.speed == pytest.approx(host.base_speed)
    # the advertised (nominal) speed never changed: gray hosts look healthy
    assert host.speed == host.base_speed


# -- flapping ------------------------------------------------------------------


def test_flapping_host_cycles_up_and_down():
    sim, cluster, injector = make_injector()
    host = cluster.host(1)
    injector.schedule_flapping("ws01", at=1.0, cycles=2, down_time=1.0, up_time=1.0)

    samples = {}
    for t in (0.5, 1.5, 2.5, 3.5, 4.5):
        sim.schedule_at(t, lambda t=t: samples.update({t: host.up}))
    sim.run()
    assert samples == {0.5: True, 1.5: False, 2.5: True, 3.5: False, 4.5: True}
    assert host.crash_count == 2


# -- store outages -------------------------------------------------------------


def test_store_outage_toggles_availability():
    sim, cluster, injector = make_injector()
    store = CheckpointStoreServant()
    injector.schedule_store_outage(store, at=1.0, duration=2.0)

    samples = {}
    for t in (0.5, 1.5, 3.5):
        sim.schedule_at(t, lambda t=t: samples.update({t: store.available}))
    sim.run()
    assert samples == {0.5: True, 1.5: False, 3.5: True}
    assert store.outages == 1


def test_unavailable_store_raises_transient():
    store = CheckpointStoreServant()
    store.set_available(False)
    with pytest.raises(TRANSIENT):
        store._check_available()


def test_store_outage_requires_outage_support():
    _, _, injector = make_injector()
    with pytest.raises(ConfigurationError):
        injector.schedule_store_outage(object(), at=0.0, duration=1.0)


# -- bookkeeping ---------------------------------------------------------------


def test_chaos_events_are_recorded():
    _, _, injector = make_injector()
    store = CheckpointStoreServant()
    injector.schedule_partition("ws00", "ws01", at=1.0, heal_after=1.0)
    injector.schedule_latency_spike(at=0.0, duration=1.0, factor=2.0)
    injector.schedule_loss_burst(at=0.0, duration=1.0, rate=0.1, ports={7788})
    injector.schedule_gray_host("ws01", at=0.0, factor=0.5)
    injector.schedule_flapping("ws02", at=0.0, cycles=1, down_time=1.0, up_time=1.0)
    injector.schedule_store_outage(store, at=0.0, duration=1.0)
    kinds = [event["kind"] for event in injector.chaos_events]
    assert kinds == [
        "partition",
        "latency-spike",
        "loss-burst",
        "gray-host",
        "flapping",
        "store-outage",
    ]
