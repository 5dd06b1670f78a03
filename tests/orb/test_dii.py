"""Tests for the Dynamic Invocation Interface (Request objects)."""

import pytest

from repro.errors import BAD_OPERATION, COMM_FAILURE
from repro.orb import compile_idl

ns = compile_idl(
    """
    interface Job {
        double run(in double seconds);
        long quick(in long x);
    };
    """,
    name="dii-test",
)


class JobImpl(ns.JobSkeleton):
    def __init__(self):
        self.oneway_hits = 0

    def run(self, seconds):
        yield self._host().execute(seconds)
        return seconds

    def quick(self, x):
        self.oneway_hits += 1
        return x * 10


def setup(world):
    server_orb = world.orb(1)
    impl = JobImpl()
    ior = server_orb.poa.activate(impl)
    stub = world.orb(0).stub(ior, ns.JobStub)
    return impl, stub


def test_synchronous_invoke(world):
    _, stub = setup(world)

    def client():
        request = stub._create_request("quick", (4,))
        return (yield request.invoke())

    assert world.run(client()) == 40


def test_deferred_requests_run_concurrently(world):
    _, stub = setup(world)

    def client():
        requests = [
            stub._create_request("run", (2.0,)).send_deferred() for _ in range(3)
        ]
        for request in requests:
            yield request.get_response()
        return world.sim.now

    elapsed = world.run(client())
    # Three 2-second jobs share one CPU: ~6 s total if concurrent; far more
    # than 6 would mean serialization at the client, less is impossible.
    assert 5.9 < elapsed < 6.5


def test_poll_response_transitions(world):
    _, stub = setup(world)

    def client():
        request = stub._create_request("run", (1.0,)).send_deferred()
        immediately = request.poll_response()
        yield world.sim.timeout(5.0)
        later = request.poll_response()
        return (immediately, later, request.return_value())

    assert world.run(client()) == (False, True, 1.0)


def test_get_response_before_send_rejected(world):
    _, stub = setup(world)
    request = stub._create_request("quick", (1,))
    with pytest.raises(BAD_OPERATION):
        request.get_response()
    with pytest.raises(BAD_OPERATION):
        request.poll_response()


def test_double_send_rejected(world):
    _, stub = setup(world)
    request = stub._create_request("quick", (1,)).send_deferred()
    with pytest.raises(BAD_OPERATION):
        request.send_deferred()
    with pytest.raises(BAD_OPERATION):
        request.invoke()


def test_send_oneway_does_not_wait(world):
    impl, stub = setup(world)

    def client():
        stub._create_request("quick", (1,)).send_oneway()
        yield world.sim.timeout(1.0)
        return impl.oneway_hits

    assert world.run(client()) == 1


def test_request_failure_surfaces_in_response(world):
    _, stub = setup(world)

    def client():
        request = stub._create_request("run", (5.0,)).send_deferred()
        world.sim.schedule(1.0, world.host(1).crash)
        try:
            yield request.get_response()
        except COMM_FAILURE:
            return request.exception is not None

    assert world.run(client()) is True


def test_request_repr_states(world):
    _, stub = setup(world)
    request = stub._create_request("quick", (1,))
    assert "unsent" in repr(request)

    def client():
        request.send_deferred()
        assert "in-flight" in repr(request)
        yield request.get_response()
        assert "done" in repr(request)
        return True

    assert world.run(client())
