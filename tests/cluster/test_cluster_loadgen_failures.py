"""Tests for cluster building, background load and failure injection."""

import pytest

from repro.errors import ConfigurationError
from repro.cluster import (
    BackgroundLoad,
    Cluster,
    ClusterConfig,
    FailureInjector,
    FailurePlan,
)
from repro.sim import Simulator


# -- cluster config -----------------------------------------------------------


def test_default_cluster_matches_paper_testbed():
    sim = Simulator()
    cluster = Cluster(sim)
    assert len(cluster) == 10
    assert all(h.speed == 1.0 for h in cluster)


def test_heterogeneous_speeds_and_cores():
    sim = Simulator()
    cluster = Cluster(
        sim, ClusterConfig(num_hosts=3, speeds=[1.0, 2.0, 0.5], cores=[1, 2, 1])
    )
    assert cluster.host(1).speed == 2.0
    assert cluster.host(1).cores == 2


def test_host_lookup_by_name_and_index():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=2))
    assert cluster.host(0) is cluster.host("ws00")
    with pytest.raises(ConfigurationError):
        cluster.host("nope")
    with pytest.raises(ConfigurationError):
        cluster.host(99)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        Cluster(Simulator(), ClusterConfig(num_hosts=0))
    with pytest.raises(ConfigurationError):
        Cluster(Simulator(), ClusterConfig(num_hosts=3, speeds=[1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        Cluster(Simulator(), ClusterConfig(num_hosts=2, speeds=[1.0, -1.0]))


# -- background load ------------------------------------------------------------


def test_background_load_halves_worker_rate():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    host = cluster.host(0)
    load = BackgroundLoad(host, intensity=1, chunk=0.5).start()
    fut = host.execute(10.0)
    done = {}
    fut.add_done_callback(lambda f: done.__setitem__("t", sim.now))
    sim.run(until=50.0)
    load.stop()
    # Worker shares the CPU with one bg process: ~2x the solo 10 s.
    assert done["t"] == pytest.approx(20.0, rel=0.05)


def test_background_load_intensity_two_gives_one_third_rate():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    host = cluster.host(0)
    BackgroundLoad(host, intensity=2, chunk=0.5).start()
    fut = host.execute(10.0)
    done = {}
    fut.add_done_callback(lambda f: done.__setitem__("t", sim.now))
    sim.run(until=80.0)
    assert done["t"] == pytest.approx(30.0, rel=0.05)


def test_background_load_stop_restores_full_speed():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    host = cluster.host(0)
    load = BackgroundLoad(host, chunk=0.5).start()
    sim.schedule(5.0, load.stop)
    t0 = {}
    fut = host.execute(10.0)
    fut.add_done_callback(lambda f: t0.__setitem__("t", sim.now))
    sim.run(until=40.0)
    # 5 s shared (2.5 done) + 7.5 alone -> ~12.5 s.
    assert t0["t"] == pytest.approx(12.5, rel=0.06)


def test_background_load_start_stop_idempotent():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    load = BackgroundLoad(cluster.host(0))
    load.start()
    load.start()
    assert load.running
    load.stop()
    load.stop()
    assert not load.running
    sim.run(until=5.0)
    # After stop, no more CPU consumption accrues.
    busy_before = cluster.host(0).cpu.utilization_integral()
    sim.run(until=10.0)
    assert cluster.host(0).cpu.utilization_integral() == pytest.approx(busy_before)


def test_background_load_dies_with_host_crash():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    host = cluster.host(0)
    BackgroundLoad(host, chunk=0.5).start()
    sim.schedule(3.0, host.crash)
    sim.run(until=10.0)
    assert host.cpu.run_queue_length == 0
    sim.check_unhandled()


# -- failure injection -----------------------------------------------------------


def test_failure_plan_crashes_and_restarts():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=2))
    injector = FailureInjector(cluster)
    injector.schedule(FailurePlan("ws01", crash_at=5.0, restart_after=3.0))
    sim.run(until=6.0)
    assert not cluster.host(1).up
    sim.run(until=9.0)
    assert cluster.host(1).up


def test_failure_plan_validation():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    injector = FailureInjector(cluster)
    with pytest.raises(ConfigurationError):
        injector.schedule(FailurePlan("ws00", crash_at=-1.0))
    with pytest.raises(ConfigurationError):
        injector.schedule(FailurePlan("ws00", crash_at=1.0, restart_after=0.0))
    with pytest.raises(ConfigurationError):
        injector.schedule(FailurePlan("nope", crash_at=1.0))
