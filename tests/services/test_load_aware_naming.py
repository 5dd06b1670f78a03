"""Tests for the load-distributing naming context and selection strategies
— the paper's §2 contribution, including the Fig. 1 architecture."""

from repro.cluster import BackgroundLoad
from repro.orb import compile_idl
from repro.services.naming import (
    FirstBoundStrategy,
    LoadDistributingContextServant,
    RandomStrategy,
    RoundRobinStrategy,
    WinnerStrategy,
    idl,
    name_from_string,
)
from repro.winner import NodeManager, SystemManager

work_ns = compile_idl("interface W { string where(); };", name="where")


class WhereImpl(work_ns.WSkeleton):
    def where(self):
        return self._host().name


def deploy_replicas(world, hosts):
    """Activate one W servant per listed host; return their IORs."""
    iors = []
    for index in hosts:
        orb = world.orb(index)
        iors.append(orb.poa.activate(WhereImpl()))
    return iors


def setup_group(world, strategy, replica_hosts=(0, 1, 2)):
    root = LoadDistributingContextServant(strategy)
    root_ior = world.orb(0).poa.activate(root)
    iors = deploy_replicas(world, replica_hosts)
    stub = world.orb(0).stub(root_ior, idl.LoadDistributingNamingContextStub)

    def register():
        for ior in iors:
            yield stub.bind_service(name_from_string("w.service"), ior)

    world.run(register())
    return root, stub, iors


def start_winner(world, num_hosts=3, interval=0.5):
    manager = SystemManager(world.host(0), world.network)
    for index in range(num_hosts):
        NodeManager(
            world.host(index), world.network, manager_host="ws00", interval=interval
        ).start()
    return manager


def resolve_once(world, stub):
    def client():
        ior = yield stub.resolve(name_from_string("w.service"))
        return ior.host

    return world.run(client())


# -- group mechanics ---------------------------------------------------------------


def test_bind_service_builds_group(world):
    _, stub, iors = setup_group(world, FirstBoundStrategy())

    def client():
        count = yield stub.replica_count(name_from_string("w.service"))
        everyone = yield stub.resolve_all(name_from_string("w.service"))
        return count, [ior.host for ior in everyone]

    count, hosts = world.run(client())
    assert count == 3
    assert hosts == ["ws00", "ws01", "ws02"]


def test_duplicate_replica_rejected(world):
    _, stub, iors = setup_group(world, FirstBoundStrategy())

    def client():
        try:
            yield stub.bind_service(name_from_string("w.service"), iors[0])
        except idl.AlreadyBound:
            return "dup"

    assert world.run(client()) == "dup"


def test_unbind_service_removes_one_replica(world):
    _, stub, iors = setup_group(world, FirstBoundStrategy())

    def client():
        yield stub.unbind_service(name_from_string("w.service"), iors[0])
        count = yield stub.replica_count(name_from_string("w.service"))
        resolved = yield stub.resolve(name_from_string("w.service"))
        return count, resolved.host

    count, host = world.run(client())
    assert count == 2
    assert host == "ws01"  # first-bound now points at the next replica


def test_plain_bind_conflicts_with_group_name(world):
    _, stub, iors = setup_group(world, FirstBoundStrategy())

    def client():
        try:
            yield stub.bind(name_from_string("w.service"), iors[0])
        except idl.AlreadyBound:
            return "conflict"

    assert world.run(client()) == "conflict"


def test_group_and_plain_bindings_coexist(world):
    _, stub, iors = setup_group(world, FirstBoundStrategy())

    def client():
        yield stub.bind(name_from_string("plain"), iors[1])
        resolved = yield stub.resolve(name_from_string("plain"))
        bindings = yield stub.list_bindings(0)
        return resolved.host, [b.binding_name[0].id for b in bindings]

    host, names = world.run(client())
    assert host == "ws01"
    assert names == ["plain", "w"]


def test_unbind_removes_whole_group(world):
    _, stub, _ = setup_group(world, FirstBoundStrategy())

    def client():
        yield stub.unbind(name_from_string("w.service"))
        try:
            yield stub.resolve(name_from_string("w.service"))
        except idl.NotFound:
            return "gone"

    assert world.run(client()) == "gone"


# -- strategies -----------------------------------------------------------------------


def test_round_robin_cycles_replicas(world):
    _, stub, _ = setup_group(world, RoundRobinStrategy())
    hosts = [resolve_once(world, stub) for _ in range(6)]
    assert hosts == ["ws00", "ws01", "ws02"] * 2


def test_first_bound_always_first(world):
    _, stub, _ = setup_group(world, FirstBoundStrategy())
    hosts = {resolve_once(world, stub) for _ in range(4)}
    assert hosts == {"ws00"}


def test_random_strategy_reproducible_and_covers(world):
    strategy = RandomStrategy(world.sim.rng("naming-random"))
    _, stub, _ = setup_group(world, strategy)
    hosts = [resolve_once(world, stub) for _ in range(12)]
    assert set(hosts) <= {"ws00", "ws01", "ws02"}
    assert len(set(hosts)) >= 2  # overwhelmingly likely with 12 draws


def test_winner_strategy_avoids_loaded_host_local_manager(world):
    manager = start_winner(world)
    _, stub, _ = setup_group(world, WinnerStrategy(manager))
    BackgroundLoad(world.host(1), chunk=0.25).start()

    def wait_for_reports():
        yield world.sim.timeout(4.0)

    world.run(wait_for_reports())
    chosen = {resolve_once(world, stub) for _ in range(2)}
    assert "ws01" not in chosen


def test_winner_strategy_spreads_burst_via_placement_feedback(world):
    manager = start_winner(world)
    _, stub, _ = setup_group(world, WinnerStrategy(manager))

    def wait():
        yield world.sim.timeout(4.0)

    world.run(wait())
    hosts = [resolve_once(world, stub) for _ in range(3)]
    assert sorted(hosts) == ["ws00", "ws01", "ws02"]


def test_winner_strategy_falls_back_without_reports(world):
    manager = SystemManager(world.host(0), world.network)  # no node managers
    strategy = WinnerStrategy(manager)
    _, stub, _ = setup_group(world, strategy)
    assert resolve_once(world, stub) == "ws00"
    assert strategy.fallbacks == 1


def test_transparency_client_uses_plain_naming_stub(world):
    """The paper's transparency claim: a client written against the plain
    CosNaming interface gets load distribution without code changes."""
    manager = start_winner(world)
    root = LoadDistributingContextServant(WinnerStrategy(manager))
    root_ior = world.orb(0).poa.activate(root)
    # Note: plain NamingContextStub, not the extended one.
    plain_stub = world.orb(1).stub(root_ior, idl.NamingContextStub)
    iors = deploy_replicas(world, (0, 1, 2))
    extended = world.orb(0).stub(root_ior, idl.LoadDistributingNamingContextStub)

    def client():
        for ior in iors:
            yield extended.bind_service(name_from_string("svc"), ior)
        yield world.sim.timeout(4.0)
        resolved = yield plain_stub.resolve(name_from_string("svc"))
        return resolved.host

    assert world.run(client()) in {"ws00", "ws01", "ws02"}
    assert root.resolutions == 1
