"""Tests for the checkpoint storage service."""

import numpy as np

from repro.services.checkpoint import (
    CheckpointStoreServant,
    CheckpointStoreStub,
    DiskBackend,
    MemoryBackend,
    NoCheckpoint,
)


def setup_store(world, backend=None, processing_work=0.015):
    servant = CheckpointStoreServant(backend=backend, processing_work=processing_work)
    ior = world.orb(1).poa.activate(servant)
    stub = world.orb(0).stub(ior, CheckpointStoreStub)
    return servant, stub


def test_store_and_load_roundtrip(world):
    _, stub = setup_store(world)
    state = {"x": [1.0, 2.0], "label": "complex", "iter": 7}

    def client():
        yield stub.store("worker-1", 1, state)
        return (yield stub.load("worker-1"))

    assert world.run(client()) == state


def test_ndarray_state_roundtrip(world):
    _, stub = setup_store(world)
    points = np.arange(20.0).reshape(4, 5)

    def client():
        yield stub.store("opt", 1, {"points": points})
        return (yield stub.load("opt"))

    result = world.run(client())
    np.testing.assert_array_equal(result["points"], points)


def test_load_returns_latest_version(world):
    _, stub = setup_store(world)

    def client():
        for version in (1, 2, 3):
            yield stub.store("k", version, {"v": version})
        latest = yield stub.latest_version("k")
        state = yield stub.load("k")
        return latest, state["v"]

    assert world.run(client()) == (3, 3)


def test_missing_key_raises_no_checkpoint(world):
    _, stub = setup_store(world)

    def client():
        try:
            yield stub.load("ghost")
        except NoCheckpoint as exc:
            return exc.key

    assert world.run(client()) == "ghost"


def test_history_limit_bounds_memory(world):
    backend = MemoryBackend(history_limit=2)
    servant, stub = setup_store(world, backend=backend)

    def client():
        for version in range(10):
            yield stub.store("k", version, {"v": version})
        return (yield stub.latest_version("k"))

    assert world.run(client()) == 9
    assert len(backend._data["k"]) == 2


def test_processing_work_costs_time(world):
    _, fast_stub = setup_store(world, processing_work=0.0)

    def fast_client():
        yield fast_stub.store("k", 1, "x")
        return world.sim.now

    fast_time = world.run(fast_client())
    _, slow_stub = setup_store(world, processing_work=0.5)

    start = world.sim.now

    def slow_client():
        yield slow_stub.store("k", 1, "x")
        return world.sim.now - start

    slow_elapsed = world.run(slow_client())
    assert slow_elapsed > 0.5
    assert slow_elapsed > fast_time


def test_disk_backend_slower_than_memory(world):
    mem_servant, mem_stub = setup_store(world, backend=MemoryBackend())

    def mem_client():
        start = world.sim.now
        yield mem_stub.store("k", 1, b"\x00" * 10000)
        return world.sim.now - start

    mem_elapsed = world.run(mem_client())

    disk = DiskBackend(world.sim, seek_time=0.01, write_bandwidth=1e6)
    _, disk_stub = setup_store(world, backend=disk)

    def disk_client():
        start = world.sim.now
        yield disk_stub.store("k", 1, b"\x00" * 10000)
        return world.sim.now - start

    disk_elapsed = world.run(disk_client())
    assert disk_elapsed > mem_elapsed + 0.01


def test_per_key_isolation(world):
    _, stub = setup_store(world)

    def client():
        yield stub.store("a", 1, "A")
        yield stub.store("b", 5, "B")
        return (
            (yield stub.load("a")),
            (yield stub.load("b")),
            (yield stub.latest_version("b")),
        )

    assert world.run(client()) == ("A", "B", 5)
