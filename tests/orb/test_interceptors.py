"""Tests for request interceptors."""

import pytest

from repro.errors import COMM_FAILURE
from repro.orb import compile_idl
from repro.orb.interceptors import RequestInfo, RequestInterceptor

ns = compile_idl(
    """
    exception Boom { string why; };
    interface I {
        double ok(in double x);
        void explode() raises (Boom);
    };
    """,
    name="interceptor-test",
)


class Impl(ns.ISkeleton):
    def ok(self, x):
        return x

    def explode(self):
        raise ns.Boom(why="as requested")


class Recorder(RequestInterceptor):
    def __init__(self):
        self.events = []

    def send_request(self, info):
        self.events.append(("send_request", info.operation, info.body_size))

    def receive_reply(self, info):
        self.events.append(("receive_reply", info.operation))

    def receive_exception(self, info):
        self.events.append(
            ("receive_exception", info.operation, type(info.exception).__name__)
        )

    def receive_request(self, info):
        self.events.append(("receive_request", info.operation))

    def send_reply(self, info):
        self.events.append(("send_reply", info.operation))


def setup(world):
    server_orb = world.orb(1)
    ior = server_orb.poa.activate(Impl())
    client_orb = world.orb(0)
    stub = client_orb.stub(ior, ns.IStub)
    return client_orb, server_orb, stub


def test_client_hooks_fire_in_order(world):
    client_orb, _, stub = setup(world)
    recorder = Recorder()
    client_orb.add_request_interceptor(recorder)

    def client():
        yield stub.ok(5.0)

    world.run(client())
    kinds = [event[0] for event in recorder.events]
    assert kinds == ["send_request", "receive_reply"]
    assert recorder.events[0][1] == "ok"
    assert recorder.events[0][2] == 8  # one double marshalled


def test_server_hooks_fire(world):
    _, server_orb, stub = setup(world)
    recorder = Recorder()
    server_orb.add_request_interceptor(recorder)

    def client():
        yield stub.ok(1.0)

    world.run(client())
    kinds = [event[0] for event in recorder.events]
    assert kinds == ["receive_request", "send_reply"]


def test_user_exception_reaches_receive_exception(world):
    client_orb, _, stub = setup(world)
    recorder = Recorder()
    client_orb.add_request_interceptor(recorder)

    def client():
        try:
            yield stub.explode()
        except ns.Boom:
            pass

    world.run(client())
    assert ("receive_exception", "explode", "Boom") in recorder.events


def test_comm_failure_reaches_receive_exception(world):
    client_orb, _, stub = setup(world)
    recorder = Recorder()
    client_orb.add_request_interceptor(recorder)
    world.host(1).crash()

    def client():
        try:
            yield stub.ok(1.0)
        except COMM_FAILURE:
            pass

    world.run(client())
    kinds = [event[0] for event in recorder.events]
    assert kinds == ["send_request", "receive_exception"]
    assert recorder.events[1][2] == "COMM_FAILURE"


def test_multiple_interceptors_all_fire(world):
    client_orb, _, stub = setup(world)
    first, second = Recorder(), Recorder()
    client_orb.add_request_interceptor(first)
    client_orb.add_request_interceptor(second)

    def client():
        yield stub.ok(1.0)

    world.run(client())
    assert len(first.events) == len(second.events) == 2


def test_default_interceptor_hooks_are_noops():
    interceptor = RequestInterceptor()
    info = RequestInfo(operation="x", request_id=1)
    interceptor.send_request(info)
    interceptor.receive_reply(info)
    interceptor.receive_exception(info)
    interceptor.receive_request(info)
    interceptor.send_reply(info)
