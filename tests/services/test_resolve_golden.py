"""Bit-exact golden of the resolve fast path with every extension on.

One cell of ``resolve_fastpath_sweep`` in mode ``all`` (resolve cache,
Winner delta reports and connection reuse with a two-round-trip
handshake), shortened to 12 resolves of 2 calls each.  It pins the
values only the fast path reads: the cache TTL and top-k, the delta
reports' deadband and full-report interval, the connection cache's
capacity and the handshake's locate timeout.  The client's wall time
and the resolve latencies are ``float.hex`` literals; the cache,
connection and report counters are literal dicts.  Any event, float or
wire byte a change to that path moves shows up here as a literal diff.
"""

from __future__ import annotations

from repro.bench.resolvebench import resolve_fastpath_sweep

RUNTIME = "0x1.35cc8add94240p-3"
MEAN_RESOLVE_LATENCY = "0x1.6ff357fbead55p-10"
MAX_RESOLVE_LATENCY = "0x1.6c33040e57c00p-9"
RESOLVE_CACHE = {
    "enabled": True,
    "entries": 1,
    "ttl": 1.0,
    "top_k": 3,
    "hits": 11,
    "misses": 1,
    "epoch_invalidations": 0,
    "ttl_invalidations": 0,
    "breaker_invalidations": 0,
    "churn_invalidations": 0,
    "stale_served": 0,
}
CONNECTION_CACHE = {
    "enabled": True,
    "entries": 5,
    "capacity": 32,
    "hits": 32,
    "misses": 5,
    "opens": 5,
    "handshake_joins": 0,
    "evictions": 0,
    "invalidations": 0,
    "failures": 0,
}
COUNTERS = {
    "handshakes_sent": 10,
    "delta_reports_sent": 42,
    "full_reports_sent": 8,
    "report_bytes_sent": 1913,
    "network_bytes": 13421,
    "stale_served": 0,
}


def test_resolve_fastpath_all_on_is_bit_identical():
    (row,) = resolve_fastpath_sweep(
        modes=("all",), resolves=12, calls_per_resolve=2
    )
    extra = row.extra
    assert row.runtime.hex() == RUNTIME
    assert extra["mean_resolve_latency"].hex() == MEAN_RESOLVE_LATENCY
    assert extra["max_resolve_latency"].hex() == MAX_RESOLVE_LATENCY
    assert extra["resolve_cache"] == RESOLVE_CACHE
    assert extra["connection_cache"] == CONNECTION_CACHE
    assert {key: extra[key] for key in COUNTERS} == COUNTERS
