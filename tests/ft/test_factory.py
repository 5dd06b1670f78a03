"""Tests for the per-host object factories."""

from repro.ft import ObjectFactoryServant, ObjectFactoryStub, UnknownType
from repro.errors import OBJECT_NOT_EXIST

from tests.ft.conftest import CounterImpl, counter_ns


def setup_factory(world):
    factory = ObjectFactoryServant()
    factory.register_type("Counter", CounterImpl)
    ior = world.orb(1).poa.activate(factory)
    stub = world.orb(0).stub(ior, ObjectFactoryStub)
    return factory, stub


def test_create_returns_working_reference(world):
    factory, stub = setup_factory(world)

    def client():
        new_ior = yield stub.create("Counter")
        counter = world.orb(0).stub(new_ior, counter_ns.CounterStub)
        value = yield counter.increment(4)
        return new_ior.host, value

    host, value = world.run(client())
    assert host == "ws01"
    assert value == 4
    assert factory.created == 1


def test_unknown_type_raises(world):
    _, stub = setup_factory(world)

    def client():
        try:
            yield stub.create("Nope")
        except UnknownType as exc:
            return exc.type_name

    assert world.run(client()) == "Nope"


def test_destroy_object_deactivates(world):
    _, stub = setup_factory(world)

    def client():
        new_ior = yield stub.create("Counter")
        yield stub.destroy_object(new_ior)
        counter = world.orb(0).stub(new_ior, counter_ns.CounterStub)
        try:
            yield counter.value()
        except OBJECT_NOT_EXIST:
            return "destroyed"

    assert world.run(client()) == "destroyed"


def test_destroy_object_idempotent(world):
    _, stub = setup_factory(world)

    def client():
        new_ior = yield stub.create("Counter")
        yield stub.destroy_object(new_ior)
        yield stub.destroy_object(new_ior)  # must not raise
        return "ok"

    assert world.run(client()) == "ok"


def test_each_create_gets_distinct_object(world):
    _, stub = setup_factory(world)

    def client():
        a = yield stub.create("Counter")
        b = yield stub.create("Counter")
        counter_a = world.orb(0).stub(a, counter_ns.CounterStub)
        counter_b = world.orb(0).stub(b, counter_ns.CounterStub)
        yield counter_a.increment(10)
        return (yield counter_b.value())

    assert world.run(client()) == 0
