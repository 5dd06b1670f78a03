"""Tests for the hierarchical Winner (site → region tree) and the
vectorized load board's equivalence with the scalar oracle
(``tests/winner/scalar_oracle.py``) and with ``expected_rate``."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, ClusterConfig, Host
from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.winner import (
    HierarchicalWinner,
    LoadReport,
    RegionNode,
    SiteLoadManager,
    SystemManager,
    VectorLoadBoard,
)
from repro.winner.metrics import expected_rate

from tests.winner.scalar_oracle import ScalarSiteLoadManager


def best_score(manager: SiteLoadManager) -> float:
    """The best live score on a site manager's board (``-inf`` when no
    host is up): what the scalar oracle's ``best_score`` is held to."""
    best = manager.board.best_index()
    if best is None:
        return float("-inf")
    return float(manager.board.scores()[best])


def _hosts(sim, n, offset=0):
    return [
        Host(sim, offset + i, f"h{offset + i:04d}",
             speed=1.0 + 0.25 * (i % 3), cores=1 + (i % 2))
        for i in range(n)
    ]


def test_vector_board_matches_scalar_manager_decisions():
    """The site manager and its scalar oracle must place identically."""
    sim = Simulator(seed=4)
    hosts_a = _hosts(sim, 40)
    hosts_b = _hosts(sim, 40)
    fast = SiteLoadManager("site", hosts_a)
    slow = ScalarSiteLoadManager("site", hosts_b)

    load = sim.rng("test", "load")
    for _ in range(5):
        # Put identical uneven work on both clusters, then advance time.
        for i in range(0, 40, 3):
            work = float(load.uniform(0.5, 2.0))
            hosts_a[i].execute(work)
            hosts_b[i].execute(work)
        sim.run(until=sim.now + 1.0)
        fast.refresh()
        slow.refresh()
        # A burst of placements: each one charges pending load, so the
        # two paths must agree on every successive choice, not just one.
        picks_fast = [fast.best_host() for _ in range(10)]
        picks_slow = [slow.best_host() for _ in range(10)]
        assert picks_fast == picks_slow
        assert best_score(fast) == pytest.approx(slow.best_score())

    fast_summary = fast.summary()
    slow_summary = slow.summary()
    assert fast_summary.alive_hosts == slow_summary.alive_hosts
    assert fast_summary.best_host == slow_summary.best_host
    assert fast_summary.best_score == pytest.approx(slow_summary.best_score)
    assert fast_summary.total_idle_capacity == pytest.approx(
        slow_summary.total_idle_capacity
    )


def test_vector_board_validation():
    with pytest.raises(ConfigurationError):
        VectorLoadBoard(["a", "a"], [1.0, 1.0], [1, 1])
    with pytest.raises(ConfigurationError):
        VectorLoadBoard(["a"], [1.0, 2.0], [1])
    with pytest.raises(ConfigurationError):
        VectorLoadBoard(["a"], [1.0], [1], alpha=1.5)
    with pytest.raises(ConfigurationError):
        VectorLoadBoard([], [], [])
    board = VectorLoadBoard(["a", "b"], [1.0, 2.0], [1, 1])
    for sweep in (
        ([0.0], [0.0], None),
        ([0.0, 0.0], [0.0, 0.0, 0.0], None),
        ([0.0, 0.0], [0.0, 0.0], [True]),
    ):
        with pytest.raises(ConfigurationError):
            board.observe(sweep[0], sweep[1], up=sweep[2])
    assert board.best_host() == "b"  # a refused sweep changed nothing


def test_vector_board_skips_down_hosts():
    board = VectorLoadBoard(["a", "b", "c"], [1.0, 4.0, 2.0], [1, 1, 1])
    board.observe([0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                  up=[True, False, True])
    assert board.best_host() == "c"  # fastest alive, not fastest overall
    assert [board.names[i] for i in board.top_hosts(5)] == ["c", "a"]


def test_vector_board_state_changes_only_through_observe_and_note_placement():
    """What a score depends on is handed out read-only (or as a copy), so
    no caller can leave the maintained scores stale."""
    speeds, cores = np.array([1.0, 4.0, 2.0]), np.array([1, 1, 1])
    board = VectorLoadBoard(["a", "b", "c"], speeds, cores)
    up = np.array([True, True, True])
    board.observe(np.zeros(3), np.zeros(3), up=up)
    for array in (board.up, board.run_queue, board.utilization,
                  board.speed, board.cores):
        with pytest.raises(ValueError):
            array[1] = 0
    # the caller's arrays are neither frozen nor aliased
    up[1] = False
    speeds[1] = 0.5
    board.pending[1] = 50.0
    board.scores()[1] = -1.0
    assert board.best_host() == "b"
    assert board.scores().tolist() == [1.0, 4.0, 2.0]
    with pytest.raises(AttributeError):
        board.pending = np.zeros(3)
    with pytest.raises(AttributeError):
        board.up = up


def _rescored(board):
    """Every score from scratch: the formula as the board computed it per
    request before it kept the vector."""
    queue = board.run_queue + board.pending
    denominator = np.maximum(1.0, queue + 1.0)
    scores = board.speed * np.minimum(1.0, board.cores / denominator)
    return np.where(board.up, scores, -np.inf)


@settings(max_examples=100, deadline=None)
@given(
    speed=st.one_of(st.sampled_from([1.0, 1.25, 1.5]), st.floats(0.01, 100.0)),
    cores=st.integers(1, 8),
    run_queues=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    placements=st.integers(0, 4),
    run_queue_discount=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 5.0)),
    placement_discount=st.integers(0, 5),
)
def test_expected_rate_is_the_boards_array_form(
    speed, cores, run_queues, placements, run_queue_discount, placement_discount
):
    """The system manager's score — smoothed run queue, pending
    placements, both of ``score()``'s discounts — is ``expected_rate``, and
    that is the board's array form and its single-entry rescore, to the
    last bit."""
    sim = Simulator(seed=1)
    cluster = Cluster(sim, ClusterConfig(num_hosts=1))
    manager = SystemManager(cluster.host(0), cluster.network)
    for seq, run_queue in enumerate(run_queues):
        manager._apply(LoadReport("h", 0.0, 0.5, run_queue, speed, cores, seq))
    for _ in range(placements):
        manager.note_placement("h")
    score = manager.score("h", run_queue_discount, placement_discount)

    queue = max(0.0, manager.records["h"].run_queue_ewma.value - run_queue_discount)
    pending = max(0, placements - placement_discount)
    board = VectorLoadBoard(["h"], [speed], [cores])
    board.observe([0.5], [queue])
    board.note_placement(0, float(pending))
    assert score.hex() == expected_rate(speed, cores, queue + pending).hex()
    assert score.hex() == float(_rescored(board)[0]).hex()
    assert score.hex() == float(board.scores()[0]).hex()


@st.composite
def _board_scripts(draw):
    n = draw(st.integers(1, 9))

    def per_host(values):
        return st.lists(values, min_size=n, max_size=n)

    run_queue = st.one_of(
        st.integers(0, 5).map(float), st.floats(0.0, 6.0, allow_nan=False)
    )
    step = st.one_of(
        st.tuples(
            st.just("observe"),
            per_host(st.floats(0.0, 1.0, allow_nan=False)),
            per_host(run_queue),
            # all-up, all-down and mixed sweeps
            st.one_of(per_host(st.booleans()), per_host(st.just(False))),
        ),
        st.tuples(st.just("place")),
        st.tuples(
            st.just("note"),
            st.integers(0, n - 1),
            st.sampled_from([1.0, 0.1, 1 / 3, 2.5]),
        ),
    )
    return (
        # few distinct speeds and cores, so that equal scores are common
        draw(per_host(st.sampled_from([1.0, 1.25, 1.5]))),
        draw(per_host(st.integers(1, 3))),
        draw(st.lists(step, max_size=25)),
    )


@settings(max_examples=150, deadline=None)
@given(_board_scripts())
def test_maintained_scores_equal_a_recompute_after_any_interleaving(script):
    """After any interleaving of sweeps (hosts going down and up) and
    placements, the scores the board maintains entry by entry are a
    from-scratch recompute to the last bit, ``best_index()`` is what
    ``top_hosts(1)`` ranks first, and the scalar oracle the board was
    derived from chooses the same host."""
    speeds, cores, steps = script
    sim = Simulator(seed=1)

    def make_hosts():
        return [
            Host(sim, i, f"h{i:02d}", speed=speeds[i], cores=cores[i])
            for i in range(len(speeds))
        ]

    fast = SiteLoadManager("site", make_hosts())
    slow = ScalarSiteLoadManager("site", make_hosts())
    board = fast.board

    def check():
        assert [x.hex() for x in board.scores().tolist()] == [
            x.hex() for x in _rescored(board).tolist()
        ]
        assert board.best_index() == (board.top_hosts(1) or [None])[0]
        assert board.best_index() == slow._scalar_best()
        assert best_score(fast) == slow.best_score()
        if not board.up.any():
            assert board.best_index() is None and board.best_host() is None
            assert board.summary("site").alive_hosts == 0

    check()
    for step in steps:
        if step[0] == "observe":
            sweep = tuple(np.array(column) for column in step[1:])
            for manager in (fast, slow):
                manager.sampler = SimpleNamespace(sample=lambda: sweep, sim=sim)
                manager.refresh()
        elif step[0] == "place":
            assert fast.best_host() == slow.best_host()
        else:
            board.note_placement(step[1], step[2])
            slow._pending[step[1]] += step[2]
        check()


def test_hierarchy_shape_and_fanout():
    sim = Simulator(seed=1)
    hosts = _hosts(sim, 300)
    winner = HierarchicalWinner(
        sim, hosts, site_fanout=50, region_fanout=3, refresh_interval=1.0
    )
    assert sum(len(leaf.hosts) for leaf in winner.leaves) == 300
    assert len(winner.leaves) == 6  # 300 / 50
    # 6 leaves under fanout-3 regions: 2 regions, then 1 root.
    assert winner.depth == 2
    # No manager ranks more than site_fanout hosts.
    assert all(len(leaf.hosts) <= 50 for leaf in winner.leaves)
    # Every host belongs to exactly one leaf.
    assert sorted(h.name for leaf in winner.leaves for h in leaf.hosts) == \
        sorted(h.name for h in hosts)


def test_hierarchy_places_and_aggregates():
    sim = Simulator(seed=2)
    hosts = _hosts(sim, 120)
    winner = HierarchicalWinner(
        sim, hosts, site_fanout=32, region_fanout=4, refresh_interval=0.5
    ).start()
    sim.run(until=2.0)
    name = winner.best_host()
    assert name in {h.name for h in hosts}
    summary = winner.root.summary()
    assert summary.alive_hosts == 120
    assert summary.best_score > 0
    winner.stop()
    sim.run()
    assert sim.pending_event_count == 0  # the refresh tick was cancelled


def test_region_node_prefers_the_idler_site():
    sim = Simulator(seed=3)
    busy_hosts = _hosts(sim, 8)
    idle_hosts = _hosts(sim, 8, offset=8)
    busy = SiteLoadManager("busy", busy_hosts)
    idle = SiteLoadManager("idle", idle_hosts)
    for host in busy_hosts:
        for _ in range(4):
            host.execute(5.0)
    sim.run(until=1.0)
    region = RegionNode("region", [busy, idle])
    region.refresh()
    pick = region.best_host()
    assert pick in {h.name for h in idle_hosts}
    summary = region.summary()
    assert summary.alive_hosts == 16


@pytest.mark.parametrize("interval", [0, 0.0, -1.0, float("nan")])
def test_refresh_interval_must_be_positive(interval):
    """An interval of 0 used to reschedule the refresh tick on its own
    instant for ever (``run(until=...)`` never returned); a negative one
    failed inside the kernel, after the first refresh had run."""
    sim = Simulator(seed=1)
    with pytest.raises(ConfigurationError):
        HierarchicalWinner(sim, _hosts(sim, 4), refresh_interval=interval)
    assert sim.pending_event_count == 0
