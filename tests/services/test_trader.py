"""Tests for the trader-service baseline (§2 design alternative)."""

from repro.cluster import BackgroundLoad
from repro.orb import compile_idl
from repro.services.trader import (
    NoOffers,
    TraderServant,
    TraderStub,
    UnknownServiceType,
    select_least_loaded,
)
from repro.winner import NodeManager, SystemManager

svc_ns = compile_idl("interface S { string host(); };", name="trader-svc")


class SImpl(svc_ns.SSkeleton):
    def host(self):
        return self._host().name


def setup_trader(world, with_winner=True):
    manager = SystemManager(world.host(0), world.network)
    if with_winner:
        for index in range(3):
            NodeManager(
                world.host(index), world.network, manager_host="ws00", interval=0.5
            ).start()
    trader = TraderServant(manager)
    trader_ior = world.orb(0).poa.activate(trader)
    stub = world.orb(1).stub(trader_ior, TraderStub)
    offers = [world.orb(index).poa.activate(SImpl()) for index in range(3)]

    def register():
        for offer in offers:
            yield stub.export_offer("solver", offer)
        yield world.sim.timeout(4.0)  # let load reports flow

    world.run(register())
    return manager, stub, offers


def test_lookup_one_centralized_avoids_loaded_host(world):
    manager, stub, _ = setup_trader(world)
    BackgroundLoad(world.host(1), chunk=0.25).start()

    def client():
        yield world.sim.timeout(4.0)
        ior = yield stub.lookup_one("solver")
        return ior.host

    assert world.run(client()) != "ws01"


def test_lookup_one_placement_feedback_spreads(world):
    _, stub, _ = setup_trader(world)

    def client():
        hosts = []
        for _ in range(3):
            ior = yield stub.lookup_one("solver")
            hosts.append(ior.host)
        return hosts

    assert sorted(world.run(client())) == ["ws00", "ws01", "ws02"]


def test_lookup_all_decentralized_client_selects(world):
    _, stub, _ = setup_trader(world)
    BackgroundLoad(world.host(2), chunk=0.25).start()

    def client():
        yield world.sim.timeout(4.0)
        offers = yield stub.lookup_all("solver")
        chosen = select_least_loaded(offers)
        return chosen.host, len(offers)

    host, count = world.run(client())
    assert count == 3
    assert host != "ws02"


def test_no_offers_raises(world):
    _, stub, _ = setup_trader(world)

    def client():
        try:
            yield stub.lookup_one("nonexistent")
        except NoOffers as exc:
            return exc.service_type

    assert world.run(client()) == "nonexistent"


def test_withdraw_removes_offer(world):
    _, stub, offers = setup_trader(world)

    def client():
        yield stub.withdraw("solver", offers[0])
        remaining = yield stub.lookup_all("solver")
        try:
            yield stub.withdraw("solver", offers[0])
        except UnknownServiceType:
            return [offer.host for offer in remaining]

    assert world.run(client()) == ["ws01", "ws02"]


def test_duplicate_export_ignored(world):
    _, stub, offers = setup_trader(world)

    def client():
        yield stub.export_offer("solver", offers[0])
        all_offers = yield stub.lookup_all("solver")
        return len(all_offers)

    assert world.run(client()) == 3


def test_lookup_one_without_winner_reports_falls_back(world):
    manager, stub, offers = setup_trader(world, with_winner=False)

    def client():
        ior = yield stub.lookup_one("solver")
        return ior.host

    assert world.run(client()) == "ws00"  # first offer, no load info
