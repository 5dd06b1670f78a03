"""The scale harness: thousand-host clusters under open-loop client traffic.

:func:`scale_run` builds hosts directly (no per-host ORB: the measured
subject is the kernel, the hierarchy and the generator), a
:class:`~repro.winner.hierarchy.HierarchicalWinner` site→region tree, a
:class:`~repro.services.naming.sharded.ShardedServiceDirectory` routing
service names to sites, and an
:class:`~repro.cluster.loadgen.OpenLoopPopulation` driving Poisson
arrivals through resolve → place → execute.  The two curve functions
produce the deliverables: hosts vs throughput (arrival rate scaled with
cluster capacity) and clients vs latency (arrival rate scaled with the
population, holding the cluster fixed).

Wall-clock timing is confined to this module (``repro/bench`` is outside
the determinism checkers' scope); everything inside the simulation stays
seeded and bit-reproducible — ``scale_run`` returns the population's
completion-stream fingerprint so tests can prove it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Optional

from repro.cluster.host import Host
from repro.cluster.loadgen import OpenLoopPopulation
from repro.services.naming.sharded import ShardedServiceDirectory
from repro.sim import Simulator
from repro.winner.hierarchy import HierarchicalWinner, SiteLoadManager


@dataclass
class ScaleRunResult:
    """One cell of the scale curves."""

    hosts: int
    clients: int
    arrival_rate: float
    duration: float
    arrivals: int
    completions: int
    dropped: int
    failures: int
    throughput: float  # completions per simulated second
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    naming_peak_share: float  # busiest shard's fraction of resolves
    sites: int
    wall_seconds: float
    events_scheduled: int
    events_per_sec: float  # scheduled events per wall second
    fingerprint: int


def scale_run(
    num_hosts: int,
    num_clients: int,
    arrival_rate: float,
    duration: float = 5.0,
    seed: int = 1,
    request_work: float = 1.0,
    site_fanout: int = 128,
    region_fanout: int = 16,
    refresh_interval: float = 0.5,
    num_shards: int = 8,
    services_per_shard: int = 4,
) -> ScaleRunResult:
    """Run one open-loop experiment at the given scale.

    Request path: client arrival → sharded-directory resolve (service
    names route round-robin over the sites holding the service) → the
    site's leaf manager picks its best host → ``host.execute``.
    """
    sim = Simulator(seed=seed)
    hosts = [
        # Mixed speeds/cores, assigned deterministically, so ranking has
        # real work to do (a uniform cluster makes every answer trivial).
        Host(
            sim,
            i,
            f"ws{i:05d}",
            speed=1.0 + 0.25 * (i % 3),
            cores=1 + (i % 2),
        )
        for i in range(num_hosts)
    ]
    by_name = {h.name: h for h in hosts}
    winner = HierarchicalWinner(
        sim,
        hosts,
        site_fanout=site_fanout,
        region_fanout=region_fanout,
        refresh_interval=refresh_interval,
    ).start()

    # Service directory: each service is held by a deterministic stride of
    # sites; resolution round-robins over them, the site ranks its hosts.
    directory: ShardedServiceDirectory = ShardedServiceDirectory(num_shards)
    num_services = num_shards * services_per_shard
    leaves = winner.leaves
    for service_index in range(num_services):
        for leaf in leaves[service_index % len(leaves) :: num_services]:
            directory.register(f"svc-{service_index:04d}", leaf)

    def place(client: int) -> Optional[Host]:
        service = f"svc-{client % num_services:04d}"
        leaf: SiteLoadManager = directory.resolve(service)
        name = leaf.best_host()
        if name is None:
            name = winner.best_host()  # site dark — fall back to the tree
        return by_name.get(name) if name is not None else None

    population = OpenLoopPopulation(
        sim,
        num_clients=num_clients,
        arrival_rate=arrival_rate,
        place=place,
        request_work=request_work,
        name="scale",
    )

    # A previous cell leaves its simulator behind as cyclic garbage; collect
    # it now, or a 10k-host predecessor is collected inside this cell's
    # timed window (seen as 0.06 s -> 0.4 s on a 1k-host cell).
    gc.collect()
    started_wall = time.perf_counter()
    population.start()
    sim.run(until=duration)
    population.stop()
    winner.stop()
    sim.run()  # drain in-flight completions
    wall = time.perf_counter() - started_wall
    sim.check_unhandled()

    stats = population.stats()
    spread = directory.spread()
    return ScaleRunResult(
        hosts=num_hosts,
        clients=num_clients,
        arrival_rate=arrival_rate,
        duration=duration,
        arrivals=stats["arrivals"],
        completions=stats["completions"],
        dropped=stats["dropped"],
        failures=stats["failures"],
        throughput=stats["throughput"],
        latency_mean=stats["latency"]["mean"],
        latency_p50=stats["latency"]["p50"],
        latency_p95=stats["latency"]["p95"],
        latency_p99=stats["latency"]["p99"],
        naming_peak_share=spread["peak_share"],
        sites=len(winner.leaves),
        wall_seconds=wall,
        events_scheduled=sim._seq,
        events_per_sec=sim._seq / wall if wall > 0 else 0.0,
        fingerprint=stats["fingerprint"],
    )


def cluster_capacity(num_hosts: int) -> float:
    """Total work-units/sec of a ``scale_run`` cluster (speed × cores)."""
    return sum(
        (1.0 + 0.25 * (i % 3)) * (1 + (i % 2)) for i in range(num_hosts)
    )


def hosts_throughput_curve(
    host_counts: list[int],
    clients: int = 100_000,
    per_core_load: float = 0.55,
    duration: float = 4.0,
    seed: int = 1,
    **kwargs,
) -> list[ScaleRunResult]:
    """Hosts vs throughput: offered load scales with cluster capacity."""
    return [
        scale_run(
            num_hosts=num_hosts,
            num_clients=clients,
            arrival_rate=per_core_load * cluster_capacity(num_hosts),
            duration=duration,
            seed=seed,
            **kwargs,
        )
        for num_hosts in host_counts
    ]


def clients_latency_curve(
    client_counts: list[int],
    num_hosts: int = 1_000,
    per_client_rate: float = 0.01,
    duration: float = 4.0,
    seed: int = 1,
    **kwargs,
) -> list[ScaleRunResult]:
    """Clients vs latency: each client offers a fixed rate, cluster fixed."""
    return [
        scale_run(
            num_hosts=num_hosts,
            num_clients=clients,
            arrival_rate=per_client_rate * clients,
            duration=duration,
            seed=seed,
            **kwargs,
        )
        for clients in client_counts
    ]
