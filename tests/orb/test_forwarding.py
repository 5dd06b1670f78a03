"""Tests for GIOP location forwarding and the ORB-locator alternative."""

from repro.cluster import BackgroundLoad
from repro.errors import TRANSIENT
from repro.orb import compile_idl
from repro.orb.forwarding import (
    LocationForward,
    make_forwarding_servant,
)
from repro.winner import NodeManager, SystemManager

ns = compile_idl(
    """
    interface Service {
        string where();
        double work(in double seconds);
    };
    """,
    name="forward-test",
)


class ServiceImpl(ns.ServiceSkeleton):
    def where(self):
        return self._host().name

    def work(self, seconds):
        yield self._host().execute(seconds)
        return seconds


class ManualForwarder(ns.ServiceSkeleton):
    """Forwards every request to a fixed target."""

    def __init__(self, target):
        self.target = target

    def where(self):
        raise LocationForward(self.target)

    def work(self, seconds):
        raise LocationForward(self.target)


def test_single_forward_is_transparent(world):
    real_ior = world.orb(2).poa.activate(ServiceImpl())
    agent_ior = world.orb(1).poa.activate(ManualForwarder(real_ior))
    stub = world.orb(0).stub(agent_ior, ns.ServiceStub)

    def client():
        return (yield stub.where())

    assert world.run(client()) == "ws02"


def test_chained_forwards(world):
    final_ior = world.orb(2).poa.activate(ServiceImpl())
    middle_ior = world.orb(1).poa.activate(ManualForwarder(final_ior))
    first_ior = world.orb(0).poa.activate(ManualForwarder(middle_ior))
    stub = world.orb(0).stub(first_ior, ns.ServiceStub)

    def client():
        return (yield stub.where())

    assert world.run(client()) == "ws02"


def test_forward_loop_detected(world):
    orb = world.orb(1)
    forwarder = ManualForwarder(None)
    loop_ior = orb.poa.activate(forwarder)
    forwarder.target = loop_ior  # forwards to itself
    stub = world.orb(0).stub(loop_ior, ns.ServiceStub)

    def client():
        try:
            yield stub.where()
        except TRANSIENT as exc:
            return str(exc)

    assert "forward" in world.run(client())


def test_forwarding_agent_selects_best_replica(make_world):
    world = make_world(num_hosts=5)
    manager = SystemManager(world.host(0), world.network)
    for index in range(5):
        NodeManager(
            world.host(index), world.network, manager_host="ws00", interval=0.5
        ).start()

    AgentClass = make_forwarding_servant(ns.ServiceSkeleton)
    agent = AgentClass(manager)
    for index in (1, 2, 3):
        agent.add_replica(world.orb(index).poa.activate(ServiceImpl()))
    agent_ior = world.orb(0).poa.activate(agent)
    stub = world.orb(0).stub(agent_ior, ns.ServiceStub)
    BackgroundLoad(world.host(1), chunk=0.25).start()

    def client():
        yield world.sim.timeout(4.0)  # winner warm-up
        hosts = []
        for _ in range(2):
            hosts.append((yield stub.where()))
        # A fresh reference re-selects; the existing one reuses its cache.
        fresh = world.orb(0).stub(agent._this(), ns.ServiceStub)
        hosts.append((yield fresh.where()))
        return hosts

    hosts = world.run(client())
    assert "ws01" not in hosts  # loaded replica avoided
    # First stub forwarded once (second call used the cached target);
    # the fresh stub forwarded once more.
    assert hosts[0] == hosts[1]
    assert agent.forwards == 2


def test_forward_cache_falls_back_when_target_dies(make_world):
    world = make_world(num_hosts=5)
    manager = SystemManager(world.host(0), world.network)
    for index in range(5):
        NodeManager(
            world.host(index), world.network, manager_host="ws00", interval=0.5
        ).start()
    AgentClass = make_forwarding_servant(ns.ServiceSkeleton)
    agent = AgentClass(manager)
    for index in (1, 2):
        agent.add_replica(world.orb(index).poa.activate(ServiceImpl()))
    agent_ior = world.orb(0).poa.activate(agent)
    stub = world.orb(0).stub(agent_ior, ns.ServiceStub)

    def client():
        yield world.sim.timeout(4.0)
        first = yield stub.where()
        world.cluster.host(first).crash()
        yield world.sim.timeout(5.0)  # let winner notice the death
        second = yield stub.where()  # falls back to the agent, re-selects
        return first, second

    first, second = world.run(client())
    assert first != second
    assert second in ("ws01", "ws02")


def test_forwarding_agent_without_replicas_raises(world):
    manager = SystemManager(world.host(0), world.network)
    AgentClass = make_forwarding_servant(ns.ServiceSkeleton)
    agent_ior = world.orb(0).poa.activate(AgentClass(manager))
    stub = world.orb(1).stub(agent_ior, ns.ServiceStub)

    def client():
        try:
            yield stub.where()
        except TRANSIENT:
            return "no-replicas"

    assert world.run(client()) == "no-replicas"


def test_forwarding_agent_replica_management(world):
    manager = SystemManager(world.host(0), world.network)
    AgentClass = make_forwarding_servant(ns.ServiceSkeleton)
    agent = AgentClass(manager)
    ior = world.orb(1).poa.activate(ServiceImpl())
    agent.add_replica(ior)
    agent.add_replica(ior)  # duplicate ignored
    assert agent._replicas == [ior]


def test_forward_does_not_leak_to_user_exception_registry(world):
    """LocationForward is control flow, never a client-visible error."""
    real_ior = world.orb(2).poa.activate(ServiceImpl())
    agent_ior = world.orb(1).poa.activate(ManualForwarder(real_ior))
    stub = world.orb(0).stub(agent_ior, ns.ServiceStub)

    def client():
        result = yield stub.work(0.5)
        return result

    assert world.run(client()) == 0.5
