"""Tests for the simulated network."""

import pytest

from repro.errors import SimulationError
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.network import Network
from repro.sim import Simulator


def make_cluster(n=3, latency=1e-3, bandwidth=1e6):
    sim = Simulator()
    cluster = Cluster(
        sim, ClusterConfig(num_hosts=n, latency=latency, bandwidth=bandwidth)
    )
    return sim, cluster


def test_send_delivers_after_latency_plus_transfer():
    sim, cluster = make_cluster(latency=1e-3, bandwidth=1e6)
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    inbox = net.bind(b, 5000)
    net.send(a, 1234, b.name, 5000, payload="hi", size=1000)

    def receiver():
        dgram = yield inbox.get()
        return (dgram.payload, sim.now)

    proc = sim.spawn(receiver())
    sim.run()
    # 1 ms latency + 1000 B / 1 MB/s = 1 ms transfer.
    assert proc.value == ("hi", pytest.approx(2e-3))


def test_local_delivery_uses_loopback_latency():
    sim, cluster = make_cluster()
    net = cluster.network
    a = cluster.host(0)
    inbox = net.bind(a, 5000)
    net.send(a, 1, a.name, 5000, payload="loop", size=10**6)

    def receiver():
        dgram = yield inbox.get()
        return sim.now

    proc = sim.spawn(receiver())
    sim.run()
    assert proc.value == pytest.approx(net.local_latency)


def test_message_to_down_host_is_dropped():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    net.bind(b, 5000)
    net.send(a, 1, b.name, 5000, payload="x", size=10)
    b.crash()  # crashes before delivery
    sim.run()
    assert net.messages_dropped == 1
    assert net.messages_delivered == 0


def test_partition_blocks_both_directions():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    inbox_a = net.bind(a, 1)
    inbox_b = net.bind(b, 1)
    net.partition(a.name, b.name)
    net.send(a, 1, b.name, 1, payload="ab", size=1)
    net.send(b, 1, a.name, 1, payload="ba", size=1)
    sim.run()
    assert net.messages_dropped == 2
    assert len(inbox_a) == 0 and len(inbox_b) == 0


def test_heal_restores_traffic():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    inbox = net.bind(b, 1)
    net.partition(a.name, b.name)
    net.heal(a.name, b.name)
    net.send(a, 1, b.name, 1, payload="ok", size=1)
    sim.run()
    assert len(inbox) == 1


def test_send_from_crashed_host_raises():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    a.crash()
    with pytest.raises(SimulationError):
        net.send(a, 1, b.name, 1, payload="x", size=1)


def test_send_to_unknown_host_raises():
    sim, cluster = make_cluster()
    net = cluster.network
    with pytest.raises(SimulationError, match="unknown host"):
        net.send(cluster.host(0), 1, "nowhere", 1, payload="x", size=1)


def test_unbound_port_drops():
    sim, cluster = make_cluster()
    net = cluster.network
    net.send(cluster.host(0), 1, cluster.host(1).name, 999, payload="x", size=1)
    sim.run()
    assert net.messages_dropped == 1


def test_nan_network_parameters_rejected():
    sim, cluster = make_cluster()
    with pytest.raises(SimulationError):
        Network(sim, latency=float("nan"))
    with pytest.raises(SimulationError):
        cluster.network.set_latency_surge(factor=float("nan"))


def test_double_bind_rejected():
    sim, cluster = make_cluster()
    net = cluster.network
    net.bind(cluster.host(0), 7)
    with pytest.raises(SimulationError):
        net.bind(cluster.host(0), 7)


def test_crash_closes_ports_and_rebind_after_restart():
    sim, cluster = make_cluster()
    net = cluster.network
    b = cluster.host(1)
    inbox = net.bind(b, 5000)
    b.crash()
    assert inbox.closed
    assert not net.is_bound(b.name, 5000)
    b.restart()
    inbox2 = net.bind(b, 5000)
    net.send(cluster.host(0), 1, b.name, 5000, payload="again", size=1)
    sim.run()
    assert len(inbox2) == 1


def test_fifo_between_same_pair_with_equal_sizes():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    inbox = net.bind(b, 1)
    for i in range(5):
        net.send(a, 1, b.name, 1, payload=i, size=100)
    sim.run()
    got = [inbox.get().value.payload for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]


def test_traffic_counters():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    net.bind(b, 1)
    net.send(a, 1, b.name, 1, payload="x", size=123)
    sim.run()
    assert net.messages_sent == 1
    assert net.messages_delivered == 1
    assert net.bytes_sent == 123


# -- partition semantics -------------------------------------------------------


def test_partition_drops_in_flight_messages_at_delivery():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    inbox = net.bind(b, 5000)
    # The message is in flight when the partition lands: partitions act at
    # *delivery* time, so it is lost like a packet on a cut cable.
    net.send(a, 1, b.name, 5000, payload="doomed", size=10)
    net.partition(a.name, b.name)
    sim.run()
    assert len(inbox) == 0
    assert net.messages_dropped == 1


def test_unpartition_alias_restores_traffic():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    inbox = net.bind(b, 5000)
    net.partition(a.name, b.name)
    assert net.partition_count() == 1
    net.unpartition(a.name, b.name)  # alias of heal()
    assert net.partition_count() == 0
    net.send(a, 1, b.name, 5000, payload="through", size=10)
    sim.run()
    assert len(inbox) == 1


def test_clear_partitions_heals_everything_at_once():
    sim, cluster = make_cluster(n=4)
    net = cluster.network
    names = [cluster.host(i).name for i in range(4)]
    net.partition(names[0], names[1])
    net.partition(names[0], names[2])
    net.partition(names[2], names[3])
    assert net.partition_count() == 3
    net.clear_partitions()  # alias of heal_all()
    assert net.partition_count() == 0
    inbox = net.bind(cluster.host(1), 5000)
    net.send(cluster.host(0), 1, names[1], 5000, payload="ok", size=10)
    sim.run()
    assert len(inbox) == 1


# -- drop-listener isolation ---------------------------------------------------


def test_drop_listener_exception_is_isolated_and_counted():
    sim, cluster = make_cluster()
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    net.bind(b, 5000)
    seen = []

    def bad_listener(datagram):
        raise RuntimeError("listener bug")

    net.add_drop_listener(bad_listener)
    net.add_drop_listener(seen.append)  # must still run after the bad one

    net.send(a, 1, b.name, 5000, payload="x", size=10)
    b.crash()
    sim.run()

    assert net.messages_dropped == 1  # bookkeeping not aborted
    assert len(seen) == 1  # later listeners still notified
    assert net.drop_listener_errors == 1
    counter = sim.obs.metrics.counter(
        "network_drop_listener_errors_total", listener="RuntimeError"
    )
    assert counter.value_repr() == 1


class Recorder:
    """A listening endpoint: records what delivery hands it, and when."""

    def __init__(self, sim):
        self.sim = sim
        self.got = []
        self.closed = False

    def put(self, datagram):
        self.got.append((datagram.payload, self.sim.now, self.sim._seq))

    def close(self):
        self.closed = True


def test_listen_hands_each_datagram_to_the_endpoint_in_its_delivery_event():
    sim, cluster = make_cluster(latency=1e-3, bandwidth=1e6)
    net = cluster.network
    a, b = cluster.host(0), cluster.host(1)
    endpoint = Recorder(sim)
    net.listen(b, 5000, endpoint)
    net.send(a, 1234, b.name, 5000, payload="hi", size=1000)
    scheduled = sim._seq
    sim.run()
    # no event between the delivery and the endpoint
    assert endpoint.got == [("hi", pytest.approx(2e-3), scheduled)]
    with pytest.raises(SimulationError):
        net.listen(b, 5000, Recorder(sim))
    net.unbind(b.name, 5000)
    assert endpoint.closed
    assert not net.is_bound(b.name, 5000)
