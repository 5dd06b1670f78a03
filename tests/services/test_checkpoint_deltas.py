"""Tests for delta checkpoints in the storage service and the servant's
cost-model accounting (availability re-checks, bytes on success only)."""

from repro.errors import TRANSIENT
from repro.services.checkpoint import (
    BadDeltaBase,
    CheckpointStoreServant,
    CheckpointStoreStub,
    DiskBackend,
    MemoryBackend,
    apply_delta,
    compute_delta,
    is_delta,
)


def setup_store(world, backend=None, processing_work=0.015):
    servant = CheckpointStoreServant(backend=backend, processing_work=processing_work)
    ior = world.orb(1).poa.activate(servant)
    stub = world.orb(0).stub(ior, CheckpointStoreStub)
    return servant, stub


# -- delta codec --------------------------------------------------------------


def test_compute_delta_roundtrip():
    base = {"total": 1.0, "weights": [1.0, 2.0], "tag": "a"}
    new = {"total": 2.0, "weights": [1.0, 2.0], "extra": 5}
    delta = compute_delta(base, new)
    assert is_delta(delta)
    assert "tag" in delta["removed"]
    assert set(delta["set"]) == {"total", "extra"}
    assert apply_delta(base, delta) == new


def test_compute_delta_refuses_non_dicts_and_reserved_mark():
    from repro.services.checkpoint import DELTA_MARK

    assert compute_delta([1], [1, 2]) is None
    assert compute_delta({"a": 1}, "not a dict") is None
    # a state that already uses the reserved marker key cannot be delta'd
    assert compute_delta({"a": 1}, {"a": 2, DELTA_MARK: "user data"}) is None
    assert compute_delta({DELTA_MARK: 0}, {"a": 2}) is None


def test_nested_delta_only_ships_changes():
    base = {"layers": {"l1": [1.0] * 50, "l2": [2.0] * 50}, "step": 1}
    new = {"layers": {"l1": [1.0] * 50, "l2": [3.0] * 50}, "step": 2}
    delta = compute_delta(base, new)
    inner = delta["set"]["layers"]
    assert is_delta(inner)
    assert set(inner["set"]) == {"l2"}  # l1 unchanged, not shipped
    assert apply_delta(base, delta) == new


def test_delta_carries_entries_whose_wire_bytes_changed():
    """``==`` calls ``0.0`` and ``-0.0`` (or ``1`` and ``1.0``) equal; the
    wire does not, so a delta that dropped the entry would restore the
    old value."""
    delta = compute_delta({"x": 0.0, "n": 1, "same": 2.5}, {"x": -0.0, "n": 1.0, "same": 2.5})
    assert set(delta["set"]) == {"x", "n"}
    restored = apply_delta({"x": 0.0, "n": 1, "same": 2.5}, delta)
    assert str(restored["x"]) == "-0.0" and type(restored["n"]) is float
    # a list and a tuple are one sequence on the wire: no change to ship
    assert compute_delta({"w": [1.0, 2.0]}, {"w": (1.0, 2.0)})["set"] == {}


# -- store_delta / load reconstruction ---------------------------------------


def test_store_delta_then_load_reconstructs(world):
    servant, stub = setup_store(world)

    def client():
        base = {"v": 1, "w": [1.0, 2.0]}
        new = {"v": 2, "w": [1.0, 2.0]}
        yield stub.store("k", 1, base)
        yield stub.store_delta("k", 1, 2, compute_delta(base, new))
        latest = yield stub.latest_version("k")
        state = yield stub.load("k")
        return latest, state

    latest, state = world.run(client())
    assert latest == 2
    assert state == {"v": 2, "w": [1.0, 2.0]}
    assert servant.delta_stores == 1
    assert servant.deltas_replayed == 1
    assert servant.backend.delta_bytes_written > 0


def test_store_delta_chain_replays_in_order(world):
    servant, stub = setup_store(world)

    def client():
        state = {"v": 0}
        yield stub.store("k", 0, state)
        for version in range(1, 5):
            new = {"v": version}
            yield stub.store_delta("k", version - 1, version, compute_delta(state, new))
            state = new
        return (yield stub.load("k"))

    assert world.run(client()) == {"v": 4}
    assert servant.deltas_replayed == 4


def test_store_delta_wrong_base_raises_bad_delta_base(world):
    servant, stub = setup_store(world)

    def client():
        yield stub.store("k", 3, {"v": 3})
        try:
            yield stub.store_delta("k", 1, 4, compute_delta({"v": 1}, {"v": 4}))
        except BadDeltaBase as exc:
            return exc.key, exc.expected, exc.got

    assert world.run(client()) == ("k", 3, 1)
    assert servant.delta_rejections == 1


def test_store_delta_missing_key_reports_expected_minus_one(world):
    _, stub = setup_store(world)

    def client():
        try:
            yield stub.store_delta("ghost", 0, 1, compute_delta({}, {"v": 1}))
        except BadDeltaBase as exc:
            return exc.expected

    assert world.run(client()) == -1


def test_trim_keeps_reconstructible_chain(world):
    backend = MemoryBackend(history_limit=3)
    servant, stub = setup_store(world, backend=backend)

    def client():
        state = {"v": 0, "pad": "x" * 100}
        yield stub.store("k", 0, state)
        for version in range(1, 8):
            new = {"v": version, "pad": "x" * 100}
            yield stub.store_delta("k", version - 1, version, compute_delta(state, new))
            state = new
        return (yield stub.load("k"))

    # However the history was trimmed, load still reconstructs the newest
    # state — the trim never drops the full record a delta chain needs.
    assert world.run(client()) == {"v": 7, "pad": "x" * 100}


def test_delta_store_cheaper_than_full(world):
    servant, stub = setup_store(world, processing_work=0.1)
    big = {"weights": [float(i) for i in range(500)], "step": 0}
    bumped = {"weights": [float(i) for i in range(500)], "step": 1}

    def client():
        yield stub.store("k", 0, big)
        start = world.sim.now
        yield stub.store("k", 1, bumped)
        full_elapsed = world.sim.now - start
        start = world.sim.now
        yield stub.store_delta("k", 1, 2, compute_delta(bumped, {**bumped, "step": 2}))
        delta_elapsed = world.sim.now - start
        return full_elapsed, delta_elapsed

    full_elapsed, delta_elapsed = world.run(client())
    # The tiny delta pays the work floor, far below the full charge.
    assert delta_elapsed < full_elapsed / 2


# -- cost-model accounting (satellite fixes) ----------------------------------


def test_latest_version_charges_processing_work(world):
    servant, stub = setup_store(world, processing_work=0.5)

    def client():
        yield stub.store("k", 1, "x")
        start = world.sim.now
        yield stub.latest_version("k")
        return world.sim.now - start

    assert world.run(client()) > 0.5


def test_outage_mid_write_fails_before_commit(world):
    backend = DiskBackend(world.sim, seek_time=1.0, write_bandwidth=1e6)
    servant, stub = setup_store(world, backend=backend, processing_work=0.0)

    def client():
        # The outage begins while the bytes are in flight to the platter:
        # the write must fail and leave no trace in the backend.
        world.sim.schedule(world.sim.now + 0.5, lambda: servant.set_available(False))
        try:
            yield stub.store("k", 1, b"\x00" * 1000)
        except TRANSIENT:
            return "rejected"

    assert world.run(client()) == "rejected"
    assert backend.bytes_written == 0
    assert backend.read_latest("k") is None
    assert servant.stores == 0


def test_bytes_written_only_on_successful_commit(world):
    backend = MemoryBackend()
    servant, stub = setup_store(world, backend=backend)

    def client():
        yield stub.store("k", 1, b"\x00" * 100)
        servant.set_available(False)
        try:
            yield stub.store("k", 2, b"\x00" * 100)
        except TRANSIENT:
            pass
        return backend.bytes_written

    assert world.run(client()) == backend.bytes_written
    assert backend.bytes_written < 200  # only the first write landed
    assert servant.stores == 1
