"""Tests for wide-area Winner federation (the paper's future-work (c))."""

import pytest

from repro.cluster import BackgroundLoad, Host
from repro.cluster.wan import WideAreaNetwork
from repro.errors import ConfigurationError, SimulationError
from repro.sim import Simulator
from repro.winner import NodeManager, RegionNode, SiteSummary, SystemManager
from repro.winner.federation import MetaManager, MetaStrategy
from repro.winner.metrics import best_of


def build_wan(num_per_site=3, sites=("eu", "us"), seed=5):
    """Two LAN sites on one WAN; Winner per site + a meta manager."""
    sim = Simulator(seed=seed)
    total = num_per_site * len(sites)
    # Build hosts manually on a WideAreaNetwork.
    network = WideAreaNetwork(sim)
    hosts = []
    for index in range(total):
        host = Host(sim, index, f"ws{index:02d}")
        network.attach(host)
        hosts.append(host)
        network.assign_site(host.name, sites[index // num_per_site])
    managers = {}
    for site_index, site in enumerate(sites):
        site_hosts = hosts[site_index * num_per_site : (site_index + 1) * num_per_site]
        manager = SystemManager(site_hosts[0], network, port=7788 + site_index)
        for host in site_hosts:
            NodeManager(
                host,
                network,
                manager_host=site_hosts[0].name,
                manager_port=7788 + site_index,
                interval=0.5,
            ).start()
        managers[site] = manager
    meta = MetaManager(hosts[0], network, poll_interval=1.0)
    for site, manager in managers.items():
        meta.register_site(site, manager)
    return sim, network, hosts, managers, meta


# -- WAN model -----------------------------------------------------------------


def test_wan_delay_structure():
    sim, network, hosts, _, _ = build_wan()
    lan = network.delay("ws00", "ws01", 1000)
    wan = network.delay("ws00", "ws03", 1000)
    assert wan > lan * 10
    assert network.delay("ws00", "ws00", 10**6) == network.local_latency


def test_site_queries():
    sim, network, hosts, _, _ = build_wan()
    assert network.site_of("ws00") == "eu"
    assert network.site_of("ws04") == "us"
    assert network.same_site("ws00", "ws02")
    assert not network.same_site("ws02", "ws03")


def test_unassigned_host_rejected():
    sim = Simulator()
    network = WideAreaNetwork(sim)
    host = Host(sim, 0, "wsXX")
    network.attach(host)
    network.assign_site("wsXX", "eu")
    with pytest.raises(ConfigurationError):
        network.site_of("nope")


def test_wan_must_be_slower_than_lan():
    with pytest.raises(SimulationError):
        WideAreaNetwork(Simulator(), latency=1e-3, wan_latency=1e-4)
    with pytest.raises(SimulationError):
        WideAreaNetwork(Simulator(), wan_latency=float("nan"))
    for bandwidth in (0.0, float("nan")):
        with pytest.raises(SimulationError):
            WideAreaNetwork(Simulator(), wan_bandwidth=bandwidth)


# -- meta manager ------------------------------------------------------------------


def test_meta_collects_site_summaries():
    sim, network, hosts, managers, meta = build_wan()
    sim.run(until=4.0)
    meta.start()
    sim.run(until=8.0)
    assert set(meta.summaries) == {"eu", "us"}
    for summary in meta.summaries.values():
        assert summary.alive_hosts == 3
        assert summary.best_host is not None
    assert meta.polls >= 2


def test_meta_prefers_home_site_when_comparable():
    sim, network, hosts, managers, meta = build_wan()
    sim.run(until=4.0)
    meta.start()
    assert meta.best_site(prefer="eu") == "eu"
    assert meta.best_site(prefer="us") == "us"


def test_meta_moves_off_overloaded_site():
    sim, network, hosts, managers, meta = build_wan()
    # Load every EU host heavily.
    for host in hosts[:3]:
        BackgroundLoad(host, intensity=3, chunk=0.25).start()
    sim.run(until=6.0)
    meta.start()
    assert meta.best_site(prefer="eu") == "us"


def test_meta_best_host_restricted_to_candidates():
    sim, network, hosts, managers, meta = build_wan()
    sim.run(until=4.0)
    meta.start()
    best = meta.best_host(candidates=["ws01", "ws04"], prefer_site="eu")
    assert best == "ws01"  # home site preferred when scores comparable
    best_remote_only = meta.best_host(candidates=["ws04"], prefer_site="eu")
    assert best_remote_only == "ws04"


def test_meta_best_host_spreads_with_placement_feedback():
    sim, network, hosts, managers, meta = build_wan()
    sim.run(until=4.0)
    meta.start()
    chosen = [meta.best_host(prefer_site="eu") for _ in range(3)]
    assert len(set(chosen)) == 3
    assert all(network.site_of(host) == "eu" for host in chosen)


def test_meta_survives_dead_site():
    sim, network, hosts, managers, meta = build_wan()
    sim.run(until=4.0)
    meta.start()
    for host in hosts[3:]:  # the whole US site goes dark
        host.crash()
    sim.run(until=12.0)
    assert meta.best_site(prefer="us") == "eu"
    assert meta.summaries["us"].alive_hosts == 0


#: (scores — None marks a dead entry —, prefer, penalty, the chosen key)
BEST_OF_TABLE = [
    ({"a": 1.0, "b": 2.0, "c": 2.0}, None, 1.0, "b"),  # ties go to the first
    ({"a": None, "b": None}, None, 1.0, None),  # all dead
    ({}, "a", 1.5, None),
    ({"a": 2.0, "b": 3.0}, "a", 1.5, "a"),  # kept at exactly penalty x
    ({"a": 2.0, "b": 3.0000000000000004}, "a", 1.5, "b"),  # beaten by more
    ({"a": 2.0, "b": 2.0}, "b", 1.0, "b"),  # kept on a tie
    ({"a": None, "b": 1.0}, "a", 1.5, "b"),  # a dead prefer loses
    ({"a": 1.0, "b": None}, "b", 1.0, "a"),
    ({"a": 1.0, "b": 2.0}, "zz", 1.5, "b"),  # an unknown prefer is ignored
]


class _Child:
    """A region child or site with a fixed best score (None = dark)."""

    def __init__(self, key, score):
        self.key, self.score = key, score

    def refresh(self):
        pass

    def summary(self):
        alive = self.score is not None
        return SiteSummary(
            self.key, int(alive), f"{self.key}-host" if alive else None,
            self.score if alive else 0.0, 0.0, 0.0,
        )

    def best_host(self):
        return f"{self.key}-host"


@pytest.mark.parametrize("scores, prefer, penalty, expected", BEST_OF_TABLE)
def test_best_of_table(scores, prefer, penalty, expected):
    assert best_of(scores, prefer, penalty) == expected
    # the meta manager ranks its site summaries through it ...
    sim = Simulator()
    meta = MetaManager(Host(sim, 0, "ws00"), WideAreaNetwork(sim), wan_penalty=penalty)
    meta.summaries = {key: _Child(key, s).summary() for key, s in scores.items()}
    assert meta.best_site(prefer) == expected
    # ... and so does a region over its children, which prefers none
    if scores and prefer is None:
        region = RegionNode("r", [_Child(key, score) for key, score in scores.items()])
        assert region.best_host() == (expected and f"{expected}-host")


def test_wan_penalty_validation():
    sim, network, hosts, _, _ = build_wan()
    with pytest.raises(ConfigurationError):
        MetaManager(hosts[0], network, wan_penalty=0.5)


# -- meta strategy -----------------------------------------------------------------


def test_meta_strategy_selects_local_until_site_saturates():
    from repro.orb.ior import IOR

    sim, network, hosts, managers, meta = build_wan()
    sim.run(until=4.0)
    meta.start()
    strategy = MetaStrategy(meta, home_site="eu")
    candidates = [
        IOR("IDL:X:1.0", host.name, 9000, b"k", 0) for host in hosts
    ]
    # First three picks fill the EU site (placement feedback)...
    picks = [strategy.choose("g", candidates).host for _ in range(3)]
    assert all(network.site_of(h) == "eu" for h in picks)
    assert len(set(picks)) == 3
    # ...after which US hosts become the better choice despite the penalty.
    fourth = strategy.choose("g", candidates).host
    assert network.site_of(fourth) == "us"
    assert strategy.remote_selections == 1
