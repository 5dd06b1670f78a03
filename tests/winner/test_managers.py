"""Tests for node managers, the system manager and host ranking."""

import dataclasses
import math

import pytest

from repro.cluster import BackgroundLoad, Cluster, ClusterConfig
from repro.errors import ServiceError
from repro.sim import Simulator
from repro.orb.ior import IOR
from repro.winner import LoadReport, NodeManager, SystemManager
from repro.winner.node_manager import NODE_MANAGER_PORT
from repro.winner.protocol import SYSTEM_MANAGER_PORT


def build(num_hosts=4, seed=3, speeds=1.0, cores=1, interval=1.0):
    sim = Simulator(seed=seed)
    cluster = Cluster(
        sim, ClusterConfig(num_hosts=num_hosts, speeds=speeds, cores=cores)
    )
    manager = SystemManager(cluster.host(0), cluster.network)
    node_managers = [
        NodeManager(
            host, cluster.network, manager_host="ws00", interval=interval
        ).start()
        for host in cluster
    ]
    return sim, cluster, manager, node_managers


def test_reports_flow_to_system_manager():
    sim, cluster, manager, nms = build()
    sim.run(until=5.0)
    assert set(manager.records) == {"ws00", "ws01", "ws02", "ws03"}
    assert manager.reports_received >= 4 * 3


def test_idle_hosts_report_low_utilization_and_empty_queue():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    for record in manager.records.values():
        assert record.utilization_ewma.value < 0.15
        assert record.run_queue_ewma.value < 0.3


def test_loaded_host_shows_high_utilization():
    sim, cluster, manager, _ = build()
    BackgroundLoad(cluster.host(2), intensity=1, chunk=0.25).start()
    sim.run(until=8.0)
    assert manager.records["ws02"].utilization_ewma.value > 0.7
    assert manager.records["ws02"].run_queue_ewma.value > 0.5
    assert manager.records["ws01"].utilization_ewma.value < 0.2


def test_best_host_avoids_loaded_machines():
    sim, cluster, manager, _ = build()
    BackgroundLoad(cluster.host(1), chunk=0.25).start()
    BackgroundLoad(cluster.host(2), chunk=0.25).start()
    sim.run(until=8.0)
    assert manager.best_host() in ("ws00", "ws03")


def test_best_host_respects_candidates_and_exclude():
    sim, cluster, manager, _ = build()
    BackgroundLoad(cluster.host(3), chunk=0.25).start()
    sim.run(until=8.0)
    # Only loaded host as candidate: still chosen (it is alive).
    assert manager.best_host(candidates=["ws03"]) == "ws03"
    assert manager.best_host(exclude=["ws00", "ws01", "ws02"]) == "ws03"
    assert manager.best_host(candidates=["ws01"], exclude=["ws01"]) is None


def test_faster_host_preferred():
    sim, cluster, manager, _ = build(speeds=[1.0, 3.0, 1.0, 1.0])
    sim.run(until=5.0)
    assert manager.best_host() == "ws01"


def test_multicore_host_preferred_under_load():
    sim, cluster, manager, _ = build(cores=[1, 2, 1, 1])
    # One background process everywhere: the 2-core host still has capacity.
    for host in cluster:
        BackgroundLoad(host, chunk=0.25).start()
    sim.run(until=8.0)
    assert manager.best_host() == "ws01"


def test_dead_host_becomes_stale_and_excluded():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    assert manager.is_alive("ws02")
    cluster.host(2).crash()
    sim.run(until=12.0)
    assert not manager.is_alive("ws02")
    assert manager.best_host(candidates=["ws02"]) is None


def test_restarted_host_rejoins_after_node_manager_restart():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    cluster.host(2).crash()
    sim.run(until=10.0)
    cluster.host(2).restart()
    NodeManager(cluster.host(2), cluster.network, manager_host="ws00").start()
    sim.run(until=16.0)
    assert manager.is_alive("ws02")


def test_placement_feedback_spreads_burst_of_selections():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    chosen = []
    for _ in range(3):
        host = manager.best_host(exclude=["ws00"])
        chosen.append(host)
        manager.note_placement(host)
    # Without feedback all three would pick the same host.
    assert len(set(chosen)) == 3


def test_placements_expire():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    first = manager.best_host()
    manager.note_placement(first)
    assert manager.records[first].pending_placements == 1
    sim.run(until=5.0 + manager.placement_ttl + 0.5)
    manager.records[first].expire_placements(sim.now)
    assert manager.records[first].pending_placements == 0


def test_note_placement_unknown_host_raises():
    sim, cluster, manager, _ = build()
    with pytest.raises(ServiceError):
        manager.note_placement("nope")


def test_snapshot_rows_sorted_and_complete():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    rows = manager.snapshot()
    assert [row["host"] for row in rows] == ["ws00", "ws01", "ws02", "ws03"]
    for row in rows:
        assert set(row) == {
            "host", "speed", "cores", "utilization", "run_queue", "score", "alive",
        }
        assert row["alive"]


def test_out_of_order_reports_discarded():
    sim, cluster, manager, _ = build()
    from repro.winner.protocol import LoadReport

    manager._apply(LoadReport("wsXX", 1.0, 0.5, 1, 1.0, 1, seq=5))
    manager._apply(LoadReport("wsXX", 2.0, 0.9, 9, 1.0, 1, seq=4))  # stale
    record = manager.records["wsXX"]
    assert record.reports_received == 1
    assert record.utilization_ewma.value == 0.5


def _replicas(*hosts):
    return [IOR("IDL:X:1.0", host, 9000 + i, b"k", 0) for i, host in enumerate(hosts)]


def test_place_returns_the_first_candidate_on_the_best_host_and_charges_once():
    sim, cluster, manager, _ = build(speeds=[1.0, 1.0, 3.0, 1.0])
    sim.run(until=5.0)
    candidates = _replicas("ws01", "ws02", "ws03", "ws02")
    before = {name: r.pending_placements for name, r in manager.records.items()}
    chosen = manager.place(candidates)
    assert chosen is candidates[1]  # ws02 is fastest; its first replica
    after = {name: r.pending_placements for name, r in manager.records.items()}
    assert after == {**before, "ws02": before["ws02"] + 1}


def test_place_charges_nothing_without_a_live_candidate():
    sim, cluster, manager, _ = build()
    sim.run(until=5.0)
    cluster.host(3).crash()
    sim.run(until=12.0)
    pending = [r.pending_placements for r in manager.records.values()]
    assert manager.place([]) is None
    assert manager.place(_replicas("ws03", "ws03")) is None  # stale host
    assert manager.place(_replicas("nowhere")) is None  # unknown host
    assert [r.pending_placements for r in manager.records.values()] == pending


@pytest.mark.parametrize(
    "forged",
    [
        {"speed": math.inf},
        {"speed": math.nan},
        {"speed": 0.0},
        {"cores": 0},
        {"cpu_utilization": -math.inf},
        {"time": math.nan},
    ],
    ids=lambda forged: "-".join(f"{k}={v}" for k, v in forged.items()),
)
def test_forged_report_over_the_network_changes_no_placement(forged):
    """One datagram no node manager could send — a valid-CDR full report
    for ws00 with an out-of-domain field and a sequence number far ahead,
    so genuine reports would be dropped as reordered behind it — is
    dropped by the collector, which keeps running and places as if it had
    never arrived (``speed=inf`` used to win six placements of six)."""

    def placements(forge: bool):
        sim, cluster, manager, _ = build()
        for index in (0, 1, 2):
            BackgroundLoad(cluster.host(index), chunk=0.25).start()
        sim.run(until=8.0)
        if forge:
            report = dataclasses.replace(
                LoadReport("ws00", sim.now, 0.0, 0, 1.0, 1, seq=2**40), **forged
            )
            raw = report.encode()
            cluster.network.send(
                cluster.host(1), NODE_MANAGER_PORT,
                "ws00", SYSTEM_MANAGER_PORT, raw, len(raw),
            )
        sim.run(until=8.5)
        chosen = []
        for _ in range(6):
            chosen.append(manager.best_host())
            manager.note_placement(chosen[-1])
        return chosen, manager

    chosen, manager = placements(forge=True)
    assert chosen == placements(forge=False)[0]
    assert manager.records["ws00"].last_seq < 2**40
    assert manager._process.is_pending  # winner-sm still collecting


def test_node_manager_sampling_window_utilization():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    host = cluster.host(0)
    nm = NodeManager(host, cluster.network, manager_host="ws00")
    host.execute(2.0)
    sim.run(until=4.0)
    sample = nm.sample()
    # Busy 2 s of a 4 s window.
    assert sample.cpu_utilization == pytest.approx(0.5)
    assert sample.run_queue == 0


def test_node_manager_stop_ends_reports():
    sim, cluster, manager, nms = build()
    sim.run(until=3.0)
    count = manager.reports_received
    for nm in nms:
        nm.stop()
    sim.run(until=10.0)
    # A couple of in-flight datagrams may still land, then silence.
    assert manager.reports_received <= count + len(nms)


def test_winner_tolerates_report_loss():
    """Winner's datagram reports are fire-and-forget: 25 % loss on the
    report port must not change the ranking outcome, only slow EWMA
    convergence."""
    from repro.winner.protocol import SYSTEM_MANAGER_PORT

    sim, cluster, manager, _ = build(interval=0.5)
    cluster.network.set_loss_rate(0.25, ports={SYSTEM_MANAGER_PORT})
    BackgroundLoad(cluster.host(1), chunk=0.25).start()
    sim.run(until=12.0)
    assert manager.best_host() != "ws01"
    assert all(manager.is_alive(f"ws{i:02d}") for i in range(4))
    # Losses actually happened.
    assert cluster.network.messages_dropped > 3


def test_loss_rate_validation():
    from repro.errors import SimulationError

    sim, cluster, _, _ = build()
    with pytest.raises(SimulationError):
        cluster.network.set_loss_rate(1.5)
    cluster.network.set_loss_rate(0.0)  # reset allowed


def test_winner_corba_service_face(world):
    """The SystemManager servant exposes Winner through the ORB (Fig. 1)."""
    from repro.winner.service import SystemManagerServant, SystemManagerStub

    manager = SystemManager(world.host(0), world.network)
    for index in range(3):
        NodeManager(
            world.host(index), world.network, manager_host="ws00", interval=0.5
        ).start()
    servant = SystemManagerServant(manager)
    ior = world.orb(0).poa.activate(servant)
    stub = world.orb(1).stub(ior, SystemManagerStub)

    def client():
        yield world.sim.timeout(3.0)  # let reports accumulate
        best = yield stub.best_host([], [])
        rows = yield stub.snapshot()
        alive = yield stub.alive_hosts()
        yield stub.note_placement(best)
        best2 = yield stub.best_host([], [])
        return best, rows, alive, best2

    best, rows, alive, best2 = world.run(client())
    assert best in ("ws00", "ws01", "ws02")
    assert {row.host for row in rows} == {"ws00", "ws01", "ws02"}
    assert alive == ["ws00", "ws01", "ws02"]
    assert best2 != best  # placement feedback observable through CORBA
