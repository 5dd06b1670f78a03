"""Tests for the FIFO lock."""

import pytest

from repro.errors import SimulationError
from repro.sim import Lock, Simulator


def test_uncontended_acquire_is_immediate():
    sim = Simulator()
    lock = Lock(sim)
    future = lock.acquire()
    assert future.succeeded
    second = lock.acquire()
    assert not second.succeeded  # held: the next acquire waits
    lock.release()
    assert second.succeeded


def test_release_unheld_raises():
    lock = Lock(Simulator())
    with pytest.raises(SimulationError):
        lock.release()


def test_fifo_handoff_order():
    sim = Simulator()
    lock = Lock(sim)
    order = []

    def worker(tag, hold):
        yield lock.acquire()
        order.append(("in", tag, sim.now))
        yield sim.timeout(hold)
        order.append(("out", tag, sim.now))
        lock.release()

    sim.spawn(worker("a", 2.0))
    sim.spawn(worker("b", 1.0))
    sim.spawn(worker("c", 1.0))
    sim.run()
    tags = [entry[1] for entry in order if entry[0] == "in"]
    assert tags == ["a", "b", "c"]
    # Strictly serialized: c enters only after b leaves.
    times = {(kind, tag): t for kind, tag, t in order}
    assert times[("in", "b")] >= times[("out", "a")]
    assert times[("in", "c")] >= times[("out", "b")]


def test_critical_sections_never_overlap():
    sim = Simulator()
    lock = Lock(sim)
    inside = [0]
    max_inside = [0]

    def worker():
        for _ in range(3):
            yield lock.acquire()
            inside[0] += 1
            max_inside[0] = max(max_inside[0], inside[0])
            yield sim.timeout(0.5)
            inside[0] -= 1
            lock.release()

    for _ in range(4):
        sim.spawn(worker())
    sim.run()
    assert max_inside[0] == 1
    assert lock.acquisitions == 12


def test_killed_waiter_is_skipped():
    sim = Simulator()
    lock = Lock(sim)
    got = []

    def holder():
        yield lock.acquire()
        yield sim.timeout(5.0)
        lock.release()

    def waiter(tag):
        yield lock.acquire()
        got.append(tag)
        lock.release()

    sim.spawn(holder())
    victim = sim.spawn(waiter("victim"))
    sim.spawn(waiter("survivor"))
    sim.schedule(1.0, victim.kill)
    sim.run()
    assert got == ["survivor"]
    assert lock.acquire().succeeded  # released, no waiter left behind


def test_contention_counters():
    sim = Simulator()
    lock = Lock(sim)

    def worker():
        yield lock.acquire()
        yield sim.timeout(1.0)
        lock.release()

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    assert lock.acquisitions == 2
    assert lock.waits == 1
