"""Tests for Host crash/restart and process binding."""

import pytest

from repro.errors import HostDownError, ProcessKilled
from repro.cluster import Host
from repro.sim import Simulator
from repro.sim.process import Activity


def make_host(speed=1.0, cores=1):
    sim = Simulator()
    return sim, Host(sim, 0, "ws00", speed=speed, cores=cores)


def test_host_executes_work_at_its_speed():
    sim, host = make_host(speed=4.0)
    fut = host.execute(8.0)
    sim.run()
    assert fut.succeeded
    assert sim.now == pytest.approx(2.0)


def test_crash_aborts_cpu_work():
    sim, host = make_host()
    fut = host.execute(100.0)
    sim.schedule(1.0, host.crash)
    sim.run()
    assert fut.failed
    assert isinstance(fut.exception, HostDownError)


def test_crash_kills_host_processes():
    sim, host = make_host()
    witnessed = []

    def daemon():
        try:
            yield sim.timeout(1000.0)
        finally:
            witnessed.append(sim.now)

    host.spawn(daemon(), name="daemon")
    sim.schedule(2.0, host.crash)
    sim.run()
    assert witnessed == [2.0]
    assert not host.up


def test_execute_on_down_host_fails_immediately():
    sim, host = make_host()
    host.crash()
    fut = host.execute(1.0)
    assert fut.failed
    assert isinstance(fut.exception, HostDownError)


def test_spawn_on_down_host_raises():
    sim, host = make_host()
    host.crash()
    with pytest.raises(HostDownError):
        host.spawn(iter(()), name="x")


def test_restart_brings_host_back():
    sim, host = make_host()
    host.crash()
    host.restart()
    assert host.up
    assert host.incarnation == 1
    fut = host.execute(1.0)
    sim.run()
    assert fut.succeeded


def test_crash_listeners_fire_once():
    sim, host = make_host()
    crashes = []
    host.on_crash(lambda h: crashes.append(h.name))
    host.crash()
    host.crash()  # idempotent
    assert crashes == ["ws00"]
    assert host.crash_count == 1


def test_restart_listeners_fire():
    sim, host = make_host()
    events = []
    host.on_restart(lambda h: events.append("up"))
    host.crash()
    host.restart()
    host.restart()  # idempotent
    assert events == ["up"]


def test_processes_after_restart_survive_independently():
    sim, host = make_host()
    host.crash()
    host.restart()
    done = []

    def worker():
        yield sim.timeout(1.0)
        done.append(sim.now)

    host.spawn(worker())
    sim.run()
    assert done == [1.0]


def test_start_runs_the_first_step_now_with_its_continuation_watching():
    """``Host.start`` runs a process's first step inside the caller's;
    the continuation is registered first, so a process that raises right
    away is watched, not an unhandled failure."""
    sim = Simulator()
    host = Host(sim, 0, "h0")
    seen = []

    def doomed():
        seen.append("first step")
        raise ValueError("at once")
        yield  # pragma: no cover

    process = host.start(doomed(), "doomed", lambda p: seen.append(p.exception))
    assert seen[0] == "first step"
    assert isinstance(seen[1], ValueError)
    assert process.failed
    sim.run()
    assert sim.unhandled_failures == []


def test_start_on_a_crashed_host_refuses():
    sim = Simulator()
    host = Host(sim, 0, "h0")
    host.crash()

    def body():
        yield sim.timeout(1.0)

    with pytest.raises(HostDownError):
        host.start(body(), "late", lambda p: None)


class Sleeper(Activity):
    """Sleeps, charges the CPU, then succeeds; records what it saw."""

    __slots__ = ("seen", "released", "fail_with")

    def __init__(self, host, fail_with=None):
        super().__init__(host, "sleeper")
        self.seen = []
        self.released = []
        self.fail_with = fail_with
        self._wait(host.sim.timeout(1.0), self._slept)

    def _slept(self, timeout):
        self.seen.append(("slept", self.sim.current_process is self))
        if self.fail_with is not None:
            raise self.fail_with
        self._wait(self.host.execute(2.0), self._charged)

    def _charged(self, charge):
        self.seen.append(("charged", self.sim.now))
        self.try_succeed("done")

    def _release(self, exc):
        self.released.append(type(exc).__name__)


def test_activity_steps_as_the_current_process_and_succeeds():
    sim = Simulator()
    host = Host(sim, 0, "h0")
    sleeper = Sleeper(host)
    sim.run()
    assert sleeper.value == "done"
    assert sleeper.seen == [("slept", True), ("charged", 3.0)]
    assert sleeper.name == "h0/sleeper"
    assert sim.current_process is None


def test_activity_dies_with_its_host_at_the_crash_instant():
    sim = Simulator()
    host = Host(sim, 0, "h0")
    sleeper = Sleeper(host)
    sim.schedule(2.0, host.crash)
    sim.run()
    assert isinstance(sleeper.exception, ProcessKilled)
    assert sleeper.released == ["ProcessKilled"]
    assert sleeper.seen == [("slept", True)]
    assert host.cpu.run_queue_length == 0
    assert sim.unhandled_failures == []


def test_activity_step_that_raises_fails_it_and_is_recorded_if_unwatched():
    sim = Simulator()
    host = Host(sim, 0, "h0")
    unwatched = Sleeper(host, fail_with=RuntimeError("bug"))
    watched = Sleeper(host, fail_with=RuntimeError("watched bug"))
    watched.add_done_callback(lambda _: None)
    sim.run()
    assert str(unwatched.exception) == "bug"
    assert unwatched.released == ["RuntimeError"]
    assert [str(exc) for _, exc in sim.unhandled_failures] == ["bug"]
    assert watched.failed


def test_activity_on_a_crashed_host_refuses():
    sim = Simulator()
    host = Host(sim, 0, "h0")
    host.crash()
    with pytest.raises(HostDownError):
        Sleeper(host)
