"""The state shipper alone (no ORB), and the combination no other test or
bench runs: warm-passive replication over the pipelined window."""

import pytest

from repro.core.report import runtime_report
from repro.ft import FtPolicy
from repro.ft import shipping
from repro.ft.shipping import StateShipper
from repro.orb.cdr import AnyImage, encode_any
from repro.services.checkpoint import BadDeltaBase, state_digest
from repro.sim import Simulator

from tests.ft.conftest import counter_ns
from tests.ft.test_checkpoint_fastpath import PAD, PaddedCounterImpl
from tests.ft.test_replication import provision

# -- StateShipper with a fake host and fake sinks -----------------------------------


class FakeHost:
    """All a shipper needs from a host: a simulator and ``spawn``."""

    def __init__(self):
        self.sim = Simulator()

    def spawn(self, generator, name=""):
        return self.sim.spawn(generator, name=name)


def padded(value):
    return {"value": value, "pad": list(PAD)}


def make_shipper(**kwargs):
    counts = []
    shipper = StateShipper(
        FakeHost(),
        "test-ship",
        on_count=lambda name, amount, **labels: counts.append((name, amount, labels)),
        **kwargs,
    )
    return shipper, counts


def test_unchanged_state_is_skipped_once_a_base_exists():
    shipper, counts = make_shipper()
    first = shipper.prepare(padded(1))
    assert (first.version, first.base_version, first.base_digest) == (1, 0, None)
    assert first.digest and first.data_len > 0
    assert shipper.prepare(padded(1)) is None  # equal content, new object
    assert shipper.skipped == 1
    assert counts == [("skipped", 1, {})]
    # A skip consumes no version.
    assert shipper.prepare(padded(2)).version == 2


def test_a_state_whose_wire_bytes_changed_is_not_skipped():
    """``{"x": 1}`` and ``{"x": 1.0}`` compare equal in Python but travel
    as a longlong and a double: the second is a new state."""
    shipper, _ = make_shipper()
    first = shipper.prepare({"x": 1})
    second = shipper.prepare({"x": 1.0})
    assert second is not None and second.digest != first.digest
    assert shipper.prepare({"x": -0.0}) is not None
    assert shipper.skipped == 0


def test_an_image_is_hashed_as_is_and_shipped_beside_the_decoded_state(monkeypatch):
    state = padded(3)
    image = AnyImage(encode_any(state), state, 0)
    monkeypatch.setattr(shipping, "encode_any", lambda value: value.data)
    shipper, _ = make_shipper()
    shipment = shipper.prepare(image)
    assert shipment.state is state and shipment.image is image
    assert shipment.payload is image and shipper.newest() is image
    assert shipment.digest == state_digest(image.data)
    assert shipment.data_len == len(image.data)
    assert shipper.last_state is state
    shipper.forget_base()
    assert shipper.newest() is None


def test_without_digests_nothing_is_encoded_or_skipped(monkeypatch):
    encoded = []
    monkeypatch.setattr(shipping, "encode_any", encoded.append)
    shipper, counts = make_shipper(digests=False)
    a, b = shipper.prepare(padded(1)), shipper.prepare(padded(1))
    assert (a.version, b.version) == (1, 2)
    assert a.digest is None and a.data_len == 0 and b.delta is None
    assert not encoded and not counts


def test_delta_is_taken_only_when_smaller_than_the_full_state():
    shipper, _ = make_shipper(deltas=True)
    first = shipper.prepare(padded(1))
    big = shipper.prepare(padded(2))
    assert big.delta is not None and 0 < big.delta_bytes < big.data_len
    assert (big.base_version, big.base_digest) == (1, first.digest)
    tiny, _ = make_shipper(deltas=True)
    tiny.prepare({"value": 1})
    # The delta envelope of a one-key dict outweighs the dict itself.
    assert tiny.prepare({"value": 2}).delta is None


def test_not_incremental_disables_skip_and_delta_for_that_shipment():
    shipper, _ = make_shipper(deltas=True)
    shipper.prepare(padded(1))
    same = shipper.prepare(padded(1), incremental=False)
    assert same is not None and same.delta is None
    changed = shipper.prepare(padded(2), incremental=False)
    assert changed.delta is None
    assert shipper.skipped == 0
    # The next incremental shipment diffs against the last one handed out.
    assert shipper.prepare(padded(3)).delta is not None


def test_full_interval_bounds_the_delta_chain():
    shipper, _ = make_shipper(deltas=True, full_interval=3)
    kinds = [
        "delta" if shipper.prepare(padded(i)).delta is not None else "full"
        for i in range(1, 8)
    ]
    assert kinds == ["full", "delta", "delta", "full", "delta", "delta", "full"]
    unbounded, _ = make_shipper(deltas=True)
    unbounded.prepare(padded(0))
    assert all(unbounded.prepare(padded(i)).delta for i in range(1, 8))


def test_forget_base_forces_a_full_unskippable_shipment():
    shipper, _ = make_shipper(deltas=True)
    shipper.prepare(padded(1))
    shipper.forget_base()
    again = shipper.prepare(padded(1))
    assert again is not None and again.delta is None
    assert again.version == 2  # versions never go back


def test_deliver_counts_delta_full_and_fallback():
    shipper, counts = make_shipper(deltas=True)
    sim = shipper._host.sim
    shipper.prepare(padded(1))
    shipment = shipper.prepare(padded(2))
    sent = []

    def send(kind, error=None):
        def start():
            sent.append(kind)
            future = sim.future()
            future.try_fail(error) if error else future.try_succeed(None)
            return future

        return start

    def client():
        yield from shipper.deliver(shipment, send("full"), send("delta"))
        yield from shipper.deliver(shipment, send("full"))  # sink lacks the base
        bad = BadDeltaBase(key="k", expected=0, got=0)
        yield from shipper.deliver(shipment, send("full"), send("delta", bad))

    sim.run_until_done(sim.spawn(client()))
    assert sent == ["delta", "full", "delta", "full"]
    assert (shipper.deltas, shipper.fulls, shipper.fallbacks) == (1, 2, 1)
    assert shipper.bytes == shipment.delta_bytes + 2 * shipment.data_len
    assert ("bytes", shipment.delta_bytes, {"kind": "delta"}) in counts
    assert ("bytes", shipment.data_len, {"kind": "full"}) in counts


def test_window_is_fifo_even_when_the_sink_completes_out_of_order():
    shipper, _ = make_shipper(depth=2)
    sim = shipper._host.sim
    #: how long the fake sink takes per version: the first is the slowest.
    latency = {1: 5.0, 2: 1.0, 3: 0.1, 4: 0.1}
    started, finished, settled = [], [], []

    def deliver(shipment):
        started.append((shipment.version, sim.now))
        yield sim.timeout(latency[shipment.version])
        finished.append(shipment.version)

    def client():
        for value in range(1, 5):
            yield from shipper.wait_for_slot()
            shipment = shipper.prepare(padded(value))
            shipper.enqueue(shipment, deliver, lambda v=value: settled.append(v))
        yield from shipper.drain()

    sim.run_until_done(sim.spawn(client()))
    # Delivery 2 would have finished first on its own; the chain holds it
    # back until 1 is done, and so on down the line.
    assert [version for version, _ in started] == [1, 2, 3, 4]
    assert dict(started)[2] == pytest.approx(5.0)
    assert finished == settled == [1, 2, 3, 4]
    assert shipper.peak_depth == 2
    assert shipper.stalls >= 1  # captures 3 and 4 waited for a slot
    assert not shipper.inflight


def test_delivery_that_raises_still_leaves_the_window():
    shipper, _ = make_shipper()
    sim = shipper._host.sim

    def deliver(shipment):
        yield sim.timeout(1.0)
        raise RuntimeError("sink blew up")

    def client():
        shipper.enqueue(shipper.prepare(padded(1)), deliver)
        yield from shipper.drain()

    sim.run_until_done(sim.spawn(client()))
    assert not shipper.inflight


# -- warm-passive × pipelined ------------------------------------------------------------


def pipelined_group(ft_world, depth, **policy_kwargs):
    """A provisioned r=3 warm-passive proxy shipping through the window,
    plus the per-standby log of restored values."""
    ft_world.runtime.register_type("PaddedCounter", PaddedCounterImpl)
    ft_world.settle(3.0)
    proxy = ft_world.runtime.ft_proxy(
        counter_ns.CounterStub,
        ft_world.runtime.orb(1).poa.activate(PaddedCounterImpl()),
        key="wp-pipelined",
        type_name="PaddedCounter",
        group_name="counter.service",
        policy=FtPolicy(
            ft_mode="warm-passive",
            replication_factor=3,
            checkpoint_mode="pipelined",
            checkpoint_pipeline_depth=depth,
            **policy_kwargs,
        ),
        with_store=False,
    )
    group = provision(ft_world, proxy)
    restored = {}
    for member in ft_world.runtime._replica_members:
        inner, log = member._inner, restored.setdefault(member.ior.host, [])

        def restore(state, inner=inner, log=log):
            log.append(state["value"])
            type(inner).restore_from(inner, state)

        inner.restore_from = restore
    return proxy, group, restored


@pytest.mark.parametrize("depth", [1, 4])
def test_warm_passive_pipelined_ships_in_capture_order(ft_world, depth):
    proxy, group, restored = pipelined_group(ft_world, depth)
    standbys = [member.ior.host for member in group.members[1:]]

    def client():
        values = []
        for _ in range(8):
            values.append((yield proxy.increment(1)))
        yield proxy.drain_checkpoints()
        return values

    assert ft_world.run(client()) == list(range(1, 9))
    assert not group.shipper.inflight
    for host in standbys:
        assert restored[host] == list(range(1, 9)), host
    assert group.snapshot()["state_ships_full"] == 16
    if depth == 1:
        # Back-to-back calls outrun the two restore round trips per ship.
        assert group.shipper.stalls >= 1
        assert group.shipper.peak_depth == 1
    else:
        assert group.shipper.stalls == 0
        assert 1 <= group.shipper.peak_depth <= 4
    report = runtime_report(ft_world.runtime)
    assert report["replication"]["ship_stalls"] == group.shipper.stalls


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("deltas", [False, True])
def test_warm_passive_pipelined_lead_crash_keeps_exactly_once(
    ft_world, depth, deltas
):
    proxy, group, restored = pipelined_group(
        ft_world, depth, checkpoint_deltas=deltas
    )

    def client():
        values = []
        for index in range(10):
            if index == 5:
                # Mid-stream: the ship of call 4 is still in the window.
                assert group.shipper.inflight
                ft_world.cluster.host(proxy.ior.host).crash()
            values.append((yield proxy.increment(1)))
        yield proxy.drain_checkpoints()
        return values

    assert ft_world.run(client()) == list(range(1, 11))
    snap = group.snapshot()
    assert snap["promotions"] == 1
    assert snap["calls"] == 10
    assert not group.shipper.inflight
    members = ft_world.runtime._replica_members
    # Every logical request was applied exactly once per lineage: ten
    # applies on primaries in total, and no replica ever saw a value twice.
    assert sum(member.applies for member in members) == 10
    lead = next(m for m in members if m.ior == proxy.ior)
    assert lead._inner._value == 10
    for log in restored.values():
        assert log == sorted(log)
    if deltas:
        assert snap["state_ships_delta"] >= 1
