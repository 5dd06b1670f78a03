"""Tests for the scale harness drivers: accounting, and the determinism
of ``scale_run`` across reruns (the property the optimizations must not
break)."""

from repro.bench.scalebench import (
    cluster_capacity,
    hosts_throughput_curve,
    scale_run,
)


def test_scale_run_accounting_closes():
    result = scale_run(
        num_hosts=60, num_clients=2_000,
        arrival_rate=0.5 * cluster_capacity(60), duration=2.0, seed=3,
        site_fanout=16, num_shards=4, services_per_shard=2,
    )
    assert result.completions == result.arrivals
    assert result.dropped == 0
    assert result.failures == 0
    assert result.sites == 4  # ceil(60 / 16)
    assert 0 < result.latency_p50 <= result.latency_p99
    assert result.naming_peak_share < 1.0
    assert result.events_scheduled > result.arrivals


def test_thousand_host_run_is_bit_identical():
    """Same seed => same completion fingerprint for a 1k-host run."""
    kwargs = dict(
        num_hosts=1_000, num_clients=10_000,
        arrival_rate=0.5 * cluster_capacity(1_000), duration=1.0, seed=11,
    )
    reference = scale_run(**kwargs)
    variant = scale_run(**kwargs)
    assert variant.fingerprint == reference.fingerprint
    assert variant.arrivals == reference.arrivals
    assert variant.completions == reference.completions
    assert variant.latency_p99 == reference.latency_p99


def test_hosts_curve_throughput_tracks_capacity():
    rows = hosts_throughput_curve(
        [50, 100], clients=2_000, per_core_load=0.5, duration=2.0,
        site_fanout=25,
    )
    assert [row.hosts for row in rows] == [50, 100]
    # Offered load doubled with the cluster; delivered throughput kept up.
    assert rows[1].throughput > 1.5 * rows[0].throughput


def test_placement_call_budget(count_calls):
    """Python + C calls per placed request on the ORB-free path — arrival,
    sharded resolve, the site's pick, the CPU task, completion, and the
    request's share of the sampling sweeps: the calls a 3-second run of a
    200-host cell makes beyond a 1-second run of the same seed, over the
    requests it places beyond it.  A count, not a time; it fails if the
    pick goes back to ranking the site, the directory to parsing the name,
    the recorder to NumPy, or the CPU to re-arming its completion on every
    charge."""

    def run(duration):
        result = {}
        kwargs = dict(
            num_hosts=200, num_clients=10_000,
            arrival_rate=0.55 * cluster_capacity(200), seed=1,
        )
        calls = count_calls(
            lambda: result.update(cell=scale_run(duration=duration, **kwargs))
        )
        return calls, result["cell"].completions

    run(0.1)  # first-use imports and caches are not a request's cost
    short_calls, short_ops = run(1.0)
    long_calls, long_ops = run(3.0)
    calls = (long_calls - short_calls) / (long_ops - short_ops)
    # 90.4 when every request re-ranked its site from the load board,
    # parsed its service name and recorded through NumPy; 63.5 while each
    # CPU change scanned the task table and re-armed the completion; 49.9 now
    assert calls <= 51
