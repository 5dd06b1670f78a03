"""Tests for the dispatch fast path: lazy deletion, O(1) introspection,
compaction, and the equivalence of the inlined ``run()`` loops with
``step()``."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.kernel import _COMPACT_MIN_CANCELLED


def test_pending_count_tracks_schedule_cancel_and_pop():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_event_count == 10
    events[3].cancel()
    events[7].cancel()
    assert sim.pending_event_count == 8
    sim.run(until=5.0)  # pops 1,2,4,5 (3 was cancelled)
    assert sim.pending_event_count == 4


def test_pending_count_does_not_scan_the_heap():
    sim = Simulator()
    for i in range(100):
        sim.schedule(float(i), lambda: None)
    # Derived from len(heap) and the cancelled counter — reading it many
    # times must not disturb either.
    for _ in range(1000):
        assert sim.pending_event_count == 100
    assert len(sim._heap) == 100


def test_cancel_after_dispatch_is_harmless():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    other = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert sim.pending_event_count == 1
    handle.cancel()  # already dispatched: flag flips, counters untouched
    handle.cancel()  # idempotent
    assert sim.pending_event_count == 1
    assert sim._cancelled_in_heap == 0
    other.cancel()
    assert sim.pending_event_count == 0


def test_cancelled_entries_compact_in_place():
    sim = Simulator()
    keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
    doomed = [
        sim.schedule(1.0 + i, lambda: None)
        for i in range(2 * _COMPACT_MIN_CANCELLED)
    ]
    heap_before = sim._heap
    total = len(keep) + len(doomed)
    for event in doomed:
        event.cancel()
    # Cancelled entries came to dominate at some point: the heap was
    # rebuilt in place (same list object), shedding the dead entries
    # compacted so far, and the live count stayed exact throughout.
    assert sim._heap is heap_before
    assert len(sim._heap) < total
    assert sim._cancelled_in_heap == len(sim._heap) - len(keep)
    assert sim.pending_event_count == len(keep)
    sim.run()
    assert sim.now == 1009.0
    assert sim.pending_event_count == 0


def test_cancel_from_inside_a_callback():
    sim = Simulator()
    fired = []
    later = sim.schedule(2.0, lambda: fired.append("later"))
    sim.schedule(1.0, later.cancel)
    sim.schedule(3.0, lambda: fired.append("end"))
    sim.run()
    assert fired == ["end"]
    assert sim.pending_event_count == 0


@pytest.mark.parametrize("until", [None, 100.0])
def test_run_and_step_dispatch_in_the_same_order(until):
    def workload(sim, log):
        events = {}
        for i in range(50):
            # Scattered times with deliberate ties (i % 7).
            events[i] = sim.schedule(
                1.0 + (i % 7) * 0.5, lambda i=i: log.append(i)
            )
        for i in range(0, 50, 5):
            events[i].cancel()

    run_log: list = []
    sim_run = Simulator(seed=3)
    workload(sim_run, run_log)
    sim_run.run(until)

    step_log: list = []
    sim_step = Simulator(seed=3)
    workload(sim_step, step_log)
    while sim_step.step():
        pass

    assert run_log == step_log
    last_event_time = max(1.0 + (i % 7) * 0.5 for i in range(50) if i % 5)
    assert sim_step.now == last_event_time
    # run(until) advances the clock to the bound after draining.
    assert sim_run.now == (last_event_time if until is None else until)


def test_same_instant_events_scheduled_by_a_batch_keep_fifo_order():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, lambda: order.append("nested"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "nested"]


def test_backwards_heap_time_still_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim._heap.append((0.5, 10_000, sim._heap[0][2].__class__(
        0.5, 10_000, lambda: None)))
    sim._heap.sort()
    sim.now = 0.9
    with pytest.raises(SimulationError):
        sim.run()
