#!/usr/bin/env python
"""Wide-area metacomputing: the paper's future work, working.

§5's future work (c): "extending the Winner load measurement and process
placement features for wide-area networks to enable CORBA based
distributed/parallel meta-computing over the WWW."

Two LAN sites ("eu" and "us", 4 workstations each) are joined by a WAN
link (40 ms, 200 kB/s).  Each site runs its own Winner system manager; a
*meta manager* federates them.  The load-distributing naming service at
the EU site uses the federation strategy: it places services on EU hosts
while they are competitive (every call to a US placement pays WAN round
trips) and spills over to the US site only when the EU site saturates —
transparently, through plain CosNaming ``resolve``.

Run:  python examples/wide_area_metacomputing.py
"""

from repro.cluster import BackgroundLoad, Host
from repro.cluster.wan import WideAreaNetwork
from repro.orb import Orb, compile_idl
from repro.services.naming import LoadDistributingContextServant, idl as naming_idl
from repro.services.naming.names import name_from_string
from repro.sim import Simulator
from repro.winner import NodeManager, SystemManager
from repro.winner.federation import MetaManager, MetaStrategy

SITES = {"eu": range(0, 4), "us": range(4, 8)}

sim = Simulator(seed=3)
network = WideAreaNetwork(sim, wan_latency=40e-3, wan_bandwidth=0.2e6)
hosts = []
for index in range(8):
    host = Host(sim, index, f"ws{index:02d}")
    network.attach(host)
    hosts.append(host)
for site, indices in SITES.items():
    for index in indices:
        network.assign_site(hosts[index].name, site)

# Per-site Winner + the federation.
managers = {}
for port_offset, (site, indices) in enumerate(SITES.items()):
    site_hosts = [hosts[i] for i in indices]
    manager = SystemManager(site_hosts[0], network, port=7788 + port_offset)
    for host in site_hosts:
        NodeManager(
            host,
            network,
            manager_host=site_hosts[0].name,
            manager_port=7788 + port_offset,
            interval=0.5,
        ).start()
    managers[site] = manager
meta = MetaManager(hosts[0], network, wan_penalty=1.5)
for site, manager in managers.items():
    meta.register_site(site, manager)

# ORBs, a solver service on every host, EU naming with the meta strategy.
orbs = [Orb(host, network) for host in hosts]
ns = compile_idl(
    "interface Solver { double crunch(in double seconds); string host(); };"
)


class SolverImpl(ns.SolverSkeleton):
    def crunch(self, seconds):
        yield self._host().execute(seconds)
        return seconds

    def host(self):
        return self._host().name


naming_root = LoadDistributingContextServant(MetaStrategy(meta, home_site="eu"))
naming_ior = orbs[0].poa.activate(naming_root)


def deploy():
    naming = orbs[0].stub(naming_ior, naming_idl.LoadDistributingNamingContextStub)
    for orb in orbs:
        ior = orb.poa.activate(SolverImpl())
        yield naming.bind_service(name_from_string("solver.service"), ior)


sim.run_until_done(sim.spawn(deploy()))
sim.run(until=6.0)


def client():
    naming = orbs[0].stub(naming_ior, naming_idl.NamingContextStub)
    print("six placements from the EU client (4 EU hosts available):")
    for attempt in range(6):
        ior = yield naming.resolve(name_from_string("solver.service"))
        site = network.site_of(ior.host)
        stub = orbs[0].stub(ior, ns.SolverStub)
        start = sim.now
        yield stub.crunch(0.2)
        elapsed = sim.now - start
        print(
            f"  #{attempt + 1}: {ior.host} [{site}]  "
            f"call took {elapsed * 1000:7.1f} ms "
            f"({'WAN' if site != 'eu' else 'LAN'} round trips)"
        )
    strategy = naming_root.strategy
    print(
        f"\nremote (US) selections: {strategy.remote_selections} of "
        f"{strategy.queries} — the federation spills over only once the "
        f"home site is saturated, and WAN calls visibly cost more."
    )


if __name__ == "__main__":
    sim.run_until_done(sim.spawn(client()))
    sim.check_unhandled()
