"""Tests for the open-loop client population and its bounded-memory
accounting (satellite of the scale harness)."""

import numpy as np
import pytest

from repro.cluster import Host, LatencyHistogram, OpenLoopPopulation
from repro.errors import ConfigurationError
from repro.sim import Simulator


def _cluster(sim, n=20, speed=2.0, cores=2):
    return [Host(sim, i, f"h{i:03d}", speed=speed, cores=cores) for i in range(n)]


def _round_robin(hosts):
    state = {"i": 0}

    def place(client):
        host = hosts[state["i"] % len(hosts)]
        state["i"] += 1
        return host

    return place


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_empirical_rate_matches_lambda(seed):
    sim = Simulator(seed=seed)
    hosts = _cluster(sim)
    rate = 400.0
    population = OpenLoopPopulation(
        sim, num_clients=5_000, arrival_rate=rate,
        place=_round_robin(hosts), request_work=0.05,
    ).start()
    sim.run(until=20.0)
    population.stop()
    sim.run()
    # Poisson with n ~ 8000: the empirical rate sits well within 5%.
    assert population.empirical_rate() == pytest.approx(rate, rel=0.05)
    assert population.arrivals > 0


def test_no_process_objects_leak_per_request():
    sim = Simulator(seed=1)
    hosts = _cluster(sim)
    population = OpenLoopPopulation(
        sim, num_clients=100_000, arrival_rate=500.0,
        place=_round_robin(hosts), request_work=0.02,
    ).start()
    sim.run(until=10.0)
    population.stop()
    sim.run()
    # ~5000 requests flowed through; none of them was a Process, and the
    # per-client state is exactly two uint32 arrays.
    assert population.completions > 3_000
    assert sim.processes == []
    assert population.issued.dtype == np.uint32
    assert int(population.issued.sum()) == population.arrivals
    assert int(population.completed.sum()) == population.completions
    assert population.in_flight == 0


def test_stop_cancels_the_arrival_loop():
    sim = Simulator(seed=1)
    hosts = _cluster(sim)
    population = OpenLoopPopulation(
        sim, num_clients=10, arrival_rate=100.0, place=_round_robin(hosts)
    ).start()
    sim.run(until=0.5)
    population.stop()
    sim.run()
    assert sim.pending_event_count == 0
    arrivals = population.arrivals
    sim.schedule(100.0, lambda: None)
    sim.run()
    assert population.arrivals == arrivals  # no arrivals after stop


def test_place_returning_none_counts_as_dropped():
    sim = Simulator(seed=1)
    population = OpenLoopPopulation(
        sim, num_clients=100, arrival_rate=50.0, place=lambda client: None
    ).start()
    sim.run(until=2.0)
    population.stop()
    sim.run()
    assert population.arrivals > 0
    assert population.dropped == population.arrivals
    assert population.completions == 0


def test_fingerprint_is_reproducible_and_load_sensitive():
    def run(rate):
        sim = Simulator(seed=9)
        hosts = _cluster(sim)
        population = OpenLoopPopulation(
            sim, num_clients=1_000, arrival_rate=rate,
            place=_round_robin(hosts), request_work=0.05,
        ).start()
        sim.run(until=5.0)
        population.stop()
        sim.run()
        return population.fingerprint

    assert run(200.0) == run(200.0)
    assert run(200.0) != run(300.0)


def test_configuration_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        OpenLoopPopulation(sim, num_clients=0, arrival_rate=1.0,
                           place=lambda c: None)
    with pytest.raises(ConfigurationError):
        OpenLoopPopulation(sim, num_clients=1, arrival_rate=0.0,
                           place=lambda c: None)


def test_latency_histogram_quantiles_and_bounds():
    hist = LatencyHistogram()
    for value in [0.001] * 50 + [0.01] * 40 + [0.1] * 10:
        hist.record(value)
    assert hist.count == 100
    assert hist.min == pytest.approx(0.001)
    assert hist.max == pytest.approx(0.1)
    # Upper-edge estimates: p50 lands in the 1ms bin, p99 in the 100ms bin.
    assert 0.001 <= hist.quantile(0.50) <= 0.0015
    assert 0.1 <= hist.quantile(0.99) <= 0.15
    assert hist.quantile(0.99) >= hist.quantile(0.50)
    snapshot = hist.snapshot()
    assert snapshot["count"] == 100
    assert snapshot["mean"] == pytest.approx(hist.total / 100)


def test_latency_histogram_overflow_underflow():
    hist = LatencyHistogram(low=1e-3, high=1.0)
    hist.record(1e-6)   # underflow bin
    hist.record(100.0)  # overflow bin
    assert hist.count == 2
    assert hist.counts[0] == 1
    assert hist.counts[-1] == 1
    assert hist.quantile(1.0) == 100.0  # overflow quantile reports the max


def test_record_lands_in_the_bin_searchsorted_names():
    """``record`` bisects a plain list; the bin is the one
    ``np.searchsorted(edges, value)`` names — on every edge, one ulp either
    side of it, below the first and above the last."""
    edges = np.array(LatencyHistogram().edges)
    values = np.concatenate([
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        [0.0, edges[0] / 2, edges[-1] * 2, float("inf")],
    ])
    expected = np.zeros(len(edges) + 1, dtype=np.int64)
    hist = LatencyHistogram()
    for value in values.tolist():
        hist.record(value)
        expected[np.searchsorted(edges, value)] += 1
    assert list(hist.counts) == expected.tolist()
    assert hist.counts[0] == 4  # 0, half the first edge, the edge, an ulp below
    assert hist.counts[-1] == 3  # twice the last edge, inf, an ulp above the edge
    assert hist.count == len(values)
