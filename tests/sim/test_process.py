"""Tests for generator-based processes."""

import sys

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "result"

    proc = sim.spawn(worker())
    sim.run()
    assert proc.succeeded
    assert proc.value == "result"
    assert sim.now == 3.0


def test_process_receives_future_value():
    sim = Simulator()

    def worker():
        got = yield sim.timeout(1.0, value=41)
        return got + 1

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == 42


def test_process_sees_failed_future_as_exception():
    sim = Simulator()
    fut = sim.future()
    sim.schedule(1.0, lambda: fut.fail(ValueError("boom")))

    def worker():
        try:
            yield fut
        except ValueError as exc:
            return f"caught {exc}"

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == "caught boom"


def test_uncaught_exception_fails_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise RuntimeError("died")

    proc = sim.spawn(worker())
    proc.add_done_callback(lambda f: None)  # watched: not "unhandled"
    sim.run()
    assert proc.failed
    assert isinstance(proc.exception, RuntimeError)
    assert sim.unhandled_failures == []


def test_unwatched_failure_is_recorded():
    sim = Simulator()

    def worker():
        raise RuntimeError("silent death")
        yield  # pragma: no cover

    sim.spawn(worker(), name="w")
    sim.run()
    assert len(sim.unhandled_failures) == 1
    with pytest.raises(SimulationError, match="silent death"):
        sim.check_unhandled()


def test_process_can_wait_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-done"

    def parent():
        result = yield sim.spawn(child())
        return f"saw {result}"

    proc = sim.spawn(parent())
    sim.run()
    assert proc.value == "saw child-done"
    assert sim.now == 5.0


def test_kill_delivers_process_killed_and_runs_finally():
    sim = Simulator()
    cleaned = []

    def worker():
        try:
            yield sim.timeout(100.0)
        finally:
            cleaned.append(sim.now)

    proc = sim.spawn(worker())
    sim.schedule(3.0, proc.kill)
    sim.run()
    assert proc.failed
    assert isinstance(proc.exception, ProcessKilled)
    assert cleaned == [3.0]
    assert sim.unhandled_failures == []  # kills are not "unhandled"


def test_kill_before_first_step():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return "nope"

    proc = sim.spawn(worker())
    proc.kill()
    sim.run()
    assert proc.failed
    assert isinstance(proc.exception, ProcessKilled)


def test_kill_is_idempotent_after_completion():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 7

    proc = sim.spawn(worker())
    sim.run()
    proc.kill()  # no-op
    assert proc.value == 7


def test_process_catching_kill_still_terminates_cleanly():
    sim = Simulator()

    def worker():
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            return "survived-cleanup"

    proc = sim.spawn(worker())
    sim.schedule(1.0, proc.kill)
    sim.run()
    assert proc.succeeded
    assert proc.value == "survived-cleanup"


def test_self_kill_takes_effect_at_next_yield():
    sim = Simulator()

    def worker():
        proc.kill()
        yield sim.timeout(1.0)
        return "unreachable"

    proc = sim.spawn(worker())
    sim.run()
    assert proc.failed
    assert isinstance(proc.exception, ProcessKilled)


def test_yielding_non_future_fails_process():
    sim = Simulator()

    def worker():
        yield 42

    proc = sim.spawn(worker())
    proc.add_done_callback(lambda f: None)
    sim.run()
    assert proc.failed
    assert isinstance(proc.exception, SimulationError)


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yield_already_resolved_future_resumes_same_instant():
    sim = Simulator()
    fut = sim.future()
    fut.succeed("early")

    def worker():
        value = yield fut
        return (value, sim.now)

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == ("early", 0.0)


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def ping():
        for _ in range(3):
            yield sim.timeout(1.0)
            log.append(("ping", sim.now))

    def pong():
        for _ in range(3):
            yield sim.timeout(1.0)
            log.append(("pong", sim.now))

    sim.spawn(ping())
    sim.spawn(pong())
    sim.run()
    assert log == [
        ("ping", 1.0), ("pong", 1.0),
        ("ping", 2.0), ("pong", 2.0),
        ("ping", 3.0), ("pong", 3.0),
    ]


def test_all_of_collects_values():
    sim = Simulator()
    futs = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
    combined = sim.all_of(futs)
    sim.run()
    assert combined.value == [3.0, 1.0, 2.0]


def test_all_of_fails_fast():
    sim = Simulator()
    good = sim.timeout(5.0, value="late")
    bad = sim.future()
    sim.schedule(1.0, lambda: bad.fail(ValueError("first failure")))
    combined = sim.all_of([good, bad])

    def watcher():
        try:
            yield combined
        except ValueError as exc:
            return (str(exc), sim.now)

    proc = sim.spawn(watcher())
    sim.run()
    assert proc.value == ("first failure", 1.0)


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    combined = sim.all_of([])
    assert combined.succeeded
    assert combined.value == []


def test_any_of_returns_first_winner():
    sim = Simulator()
    futs = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
    combined = sim.any_of(futs)
    sim.run(until=1.5)
    assert combined.value == (1, "fast")


def test_any_of_fails_only_when_all_fail():
    sim = Simulator()
    a, b = sim.future(), sim.future()
    sim.schedule(1.0, lambda: a.fail(ValueError("a")))
    sim.schedule(2.0, lambda: b.fail(ValueError("b")))
    combined = sim.any_of([a, b])
    sim.run(until=1.5)
    assert combined.is_pending
    sim.run()
    assert combined.failed
    assert str(combined.exception) == "b"


def test_process_list_is_compacted_in_amortised_constant_time():
    """With many long-lived processes, a spawn must not rescan them all:
    the list is compacted only once it has doubled since the last scan."""
    sim = Simulator()

    def sleeper():
        yield sim.future()  # never resolves: stays live

    def blip():
        yield sim.timeout(0.0)

    live = [sim.spawn(sleeper(), name=f"live{i}") for i in range(1000)]
    sim.run()
    scans = 0

    def on_event(frame, event, arg):
        nonlocal scans
        if event == "call" and frame.f_code.co_name == "is_pending":
            scans += 1

    spawns = 3000
    sys.setprofile(on_event)
    try:
        for _ in range(spawns):
            sim.spawn(blip())
            sim.run()
    finally:
        sys.setprofile(None)
    # each compaction looks at every entry once, and at most one in two
    # spawns can have been paid for by a doubling (the old rule: 1 000+
    # looks per spawn, three million here)
    assert scans <= 4 * spawns
    # finished processes do not pile up, and survivors keep their order
    assert len(sim.processes) <= 2 * len(live) + 512
    assert [p for p in sim.processes if p.is_pending] == live


# -- the wake rule ------------------------------------------------------------------


def test_waiter_resumes_in_place_when_a_kernel_event_resolves_its_future():
    """A success inside an event callback resumes the waiter right there:
    before the callback goes on, and without scheduling anything."""
    sim = Simulator()
    fut = sim.future()
    order = []

    def waiter():
        order.append(("resumed", (yield fut), sim._seq))

    def resolve():
        order.append(("resolving", sim._seq))
        fut.succeed("v")
        order.append(("resolved", sim._seq))

    sim.spawn(waiter())
    sim.schedule(1.0, resolve)
    sim.run()
    seq = order[0][1]
    assert order == [("resolving", seq), ("resumed", "v", seq), ("resolved", seq)]


def test_waiter_hops_once_when_another_step_resolves_its_future():
    """Resolved from inside a process step, the waiter resumes one event
    later: the resolving step runs to its end first."""
    sim = Simulator()
    fut = sim.future()
    order = []

    def waiter():
        order.append(("resumed", (yield fut), sim._seq))

    def resolver():
        yield sim.timeout(1.0)
        order.append(("resolving", sim._seq))
        fut.succeed("v")
        order.append(("resolved", sim._seq))

    sim.spawn(waiter())
    sim.spawn(resolver())
    sim.run()
    seq = order[0][1]
    # the wakeup is the one event scheduled by the resolution
    assert order == [
        ("resolving", seq),
        ("resolved", seq + 1),
        ("resumed", "v", seq + 1),
    ]


def test_waiter_hops_once_on_failure_even_from_a_kernel_event():
    """A failure never resumes in place: a crash's kills and listeners
    all run before any waiter sees one of its failures."""
    sim = Simulator()
    fut = sim.future()
    order = []

    def waiter():
        try:
            yield fut
        except ValueError as exc:
            order.append(("caught", str(exc), sim._seq))

    def fail():
        order.append(("failing", sim._seq))
        fut.fail(ValueError("boom"))
        order.append(("failed", sim._seq))

    sim.spawn(waiter())
    sim.schedule(1.0, fail)
    sim.run()
    seq = order[0][1]
    assert order == [
        ("failing", seq),
        ("failed", seq + 1),
        ("caught", "boom", seq + 1),
    ]


def test_kill_between_resolution_and_resume_wins():
    sim = Simulator()
    fut = sim.future()
    outcome = []

    def waiter():
        try:
            outcome.append((yield fut))
        except ProcessKilled:
            outcome.append("killed")

    def resolver():
        yield sim.timeout(1.0)
        fut.succeed("v")  # the waiter's wakeup is now on its way ...
        victim.kill()  # ... and this kill, issued before it runs, wins

    victim = sim.spawn(waiter())
    sim.spawn(resolver())
    sim.run()
    assert outcome == ["killed"]


def test_killed_waiter_leaves_no_callback_on_its_future():
    sim = Simulator()
    fut = sim.future()

    def waiter():
        yield fut

    victim = sim.spawn(waiter())
    sim.run()
    victim.kill()
    sim.run()
    assert fut._callbacks == []
    fut.succeed("late")
    sim.run()
    assert victim.failed and isinstance(victim.exception, ProcessKilled)
