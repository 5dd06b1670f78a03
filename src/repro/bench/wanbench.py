"""Driver for the wide-area metacomputing bench (future work (c)).

Two LAN sites behind a WAN; a burst of compute jobs arrives at the EU
site.  Compared policies:

* ``local-only`` — the classic single-site Winner strategy: every job
  stays on the four EU hosts (they end up time-sharing);
* ``federated`` — the meta-manager strategy: jobs spill to the idle US
  site once the EU site saturates, paying WAN round trips per call but
  gaining whole machines.

The interesting shape: federation wins when per-job compute dwarfs the
WAN cost, and the margin shrinks as job size approaches network cost —
the classic metacomputing trade-off."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster import Host
from repro.cluster.wan import WideAreaNetwork
from repro.orb import Orb, compile_idl
from repro.services.naming import (
    LoadDistributingContextServant,
    WinnerStrategy,
    idl as naming_idl,
)
from repro.services.naming.names import name_from_string
from repro.sim import Simulator
from repro.winner import NodeManager, SystemManager
from repro.winner.federation import MetaManager, MetaStrategy

SOLVER_IDL = "interface WanSolver { double crunch(in double seconds); };"


@dataclass(frozen=True)
class WanRow:
    policy: str
    job_seconds: float
    jobs: int
    completion_time: float
    remote_jobs: int


def wan_compare(
    job_counts_seconds: Sequence[tuple[int, float]] = ((8, 2.0), (8, 0.05)),
    hosts_per_site: int = 4,
    seed: int = 3,
) -> list[WanRow]:
    rows = []
    for jobs, seconds in job_counts_seconds:
        for policy in ("local-only", "federated"):
            rows.append(_run_cell(policy, jobs, seconds, hosts_per_site, seed))
    return rows


def _run_cell(
    policy: str, jobs: int, seconds: float, hosts_per_site: int, seed: int
) -> WanRow:
    sim = Simulator(seed=seed)
    network = WideAreaNetwork(sim, wan_latency=40e-3, wan_bandwidth=0.2e6)
    hosts = []
    sites = ("eu", "us")
    for index in range(hosts_per_site * 2):
        host = Host(sim, index, f"ws{index:02d}")
        network.attach(host)
        network.assign_site(host.name, sites[index // hosts_per_site])
        hosts.append(host)

    managers = {}
    for offset, site in enumerate(sites):
        site_hosts = hosts[offset * hosts_per_site : (offset + 1) * hosts_per_site]
        manager = SystemManager(site_hosts[0], network, port=7788 + offset)
        for host in site_hosts:
            NodeManager(
                host,
                network,
                manager_host=site_hosts[0].name,
                manager_port=7788 + offset,
                interval=0.5,
            ).start()
        managers[site] = manager

    ns = compile_idl(SOLVER_IDL, name="wan-solver")

    class SolverImpl(ns.WanSolverSkeleton):
        def crunch(self, secs):
            yield self._host().execute(secs)
            return secs

    orbs = [Orb(host, network) for host in hosts]
    if policy == "federated":
        meta = MetaManager(hosts[0], network, wan_penalty=1.5)
        for site, manager in managers.items():
            meta.register_site(site, manager)
        strategy = MetaStrategy(meta, home_site="eu")
    else:
        strategy = WinnerStrategy(managers["eu"])
    naming_root = LoadDistributingContextServant(strategy)
    naming_ior = orbs[0].poa.activate(naming_root)

    def deploy():
        naming = orbs[0].stub(
            naming_ior, naming_idl.LoadDistributingNamingContextStub
        )
        # Solvers exist everywhere; the local-only policy simply never
        # learns about the US ones (its Winner manager only sees EU).
        pool = hosts if policy == "federated" else hosts[:hosts_per_site]
        for host in pool:
            ior = orbs[hosts.index(host)].poa.activate(SolverImpl())
            yield naming.bind_service(name_from_string("solver.service"), ior)

    sim.run_until_done(sim.spawn(deploy()))
    sim.run(until=4.0)
    if policy == "federated":
        sim.run(until=5.0)

    remote = {"count": 0}
    outcome = {}

    def burst():
        naming = orbs[0].stub(naming_ior, naming_idl.NamingContextStub)
        started = sim.now
        job_processes = []

        def one_job():
            ior = yield naming.resolve(name_from_string("solver.service"))
            if network.site_of(ior.host) != "eu":
                remote["count"] += 1
            stub = orbs[0].stub(ior, ns.WanSolverStub)
            yield stub.crunch(seconds)

        for _ in range(jobs):
            job_processes.append(sim.spawn(one_job()))
        yield sim.all_of(job_processes)
        outcome["completion"] = sim.now - started

    sim.run_until_done(sim.spawn(burst()), limit=1e6)
    return WanRow(
        policy=policy,
        job_seconds=seconds,
        jobs=jobs,
        completion_time=outcome["completion"],
        remote_jobs=remote["count"],
    )
