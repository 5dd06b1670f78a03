"""Tests for the event heap, scheduling and simulator driver."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    for delay in (-0.1, float("nan")):
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_at_time_limit():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(1))
    sim.run(until=2.0)
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_nested_scheduling_from_callback():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(2.0, inner)

    def inner():
        times.append(sim.now)

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 3.0]


def test_call_soon_runs_at_current_time_after_pending():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("first"))

    def at_one():
        order.append("second")
        sim.call_soon(lambda: order.append("soon"))

    sim.schedule(1.0, at_one)
    sim.schedule(1.0, lambda: order.append("third"))
    sim.run()
    assert order == ["first", "second", "third", "soon"]
    assert sim.now == 1.0


def test_timeout_future_resolves_with_value():
    sim = Simulator()
    fut = sim.timeout(2.5, value="done")
    assert fut.is_pending
    sim.run()
    assert fut.succeeded
    assert fut.value == "done"
    assert sim.now == 2.5


def test_run_until_done_returns_value():
    sim = Simulator()
    fut = sim.timeout(1.0, value=99)
    assert sim.run_until_done(fut) == 99


def test_run_until_done_detects_deadlock():
    sim = Simulator()
    fut = sim.future("never")
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_done(fut)


def test_run_until_done_respects_limit():
    sim = Simulator()
    fut = sim.future("slow")
    sim.schedule(100.0, lambda: fut.succeed(1))
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_done(fut, limit=10.0)


def test_rng_streams_are_reproducible_and_independent():
    a = Simulator(seed=5).rng("x").random(4)
    b = Simulator(seed=5).rng("x").random(4)
    c = Simulator(seed=5).rng("y").random(4)
    d = Simulator(seed=6).rng("x").random(4)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


def test_rng_same_name_returns_same_stream_object():
    sim = Simulator()
    assert sim.rng("x") is sim.rng("x")


def test_pending_event_count_ignores_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending_event_count == 1


@pytest.mark.parametrize("drive", ["run", "run_until_done", "step"])
@pytest.mark.parametrize("reenter", ["run", "run_until_done", "step"])
def test_every_entry_point_refuses_to_reenter_the_dispatch_loop(drive, reenter):
    """A callback that drives the simulator it is running in would drain
    the heap underneath its caller; all three entry points share the one
    loop, so all three are guarded."""
    sim = Simulator()
    done = sim.timeout(2.0)
    caught = []

    def callback():
        try:
            if reenter == "run":
                sim.run()
            elif reenter == "step":
                sim.step()
            else:
                sim.run_until_done(done)
        except SimulationError as exc:
            caught.append(str(exc))

    sim.schedule(1.0, callback)
    later = []
    sim.schedule(3.0, lambda: later.append(sim.now))
    if drive == "run":
        sim.run()
    elif drive == "step":
        while sim.step():
            pass
    else:
        sim.run_until_done(done)
        assert sim.now == 2.0 and later == []  # the heap was not drained
        sim.run()
    assert len(caught) == 1 and "already running" in caught[0]
    assert later == [3.0]
