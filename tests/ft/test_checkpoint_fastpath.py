"""Tests for the checkpoint fast path: pipelined stores, delta encoding,
the unchanged-state skip, and their composition with degraded buffering
and recovery."""

from repro.errors import COMM_FAILURE
from repro.ft import FtPolicy
from repro.ft.policy import CHECKPOINT_FULL_INTERVAL
from repro.services.checkpoint import MemoryBackend

from tests.ft.conftest import CounterImpl, counter_ns


def pipelined_policy(**kwargs):
    return FtPolicy(checkpoint_mode="pipelined", **kwargs)


#: static payload dominating the checkpoint — deltas only pay off when the
#: unchanged part of the state is big enough to be worth not re-shipping.
PAD = [float(i) * 0.25 for i in range(256)]


class PaddedCounterImpl(CounterImpl):
    def get_checkpoint(self):
        return {"value": self._value, "pad": list(PAD)}


def padded_proxy(world, policy, key="padded-1", host=1):
    world.runtime.register_type("PaddedCounter", PaddedCounterImpl)
    ior = world.runtime.orb(host).poa.activate(PaddedCounterImpl())
    return world.runtime.ft_proxy(
        counter_ns.CounterStub,
        ior,
        key=key,
        type_name="PaddedCounter",
        policy=policy,
    )


# -- pipelined mode -----------------------------------------------------------


def drain(proxy):
    def gen():
        yield proxy.drain_checkpoints()

    return gen()


def test_pipelined_cheaper_than_sync_same_stores(make_ft_world):
    def run_mode(policy):
        world = make_ft_world(seed=11)
        ior = world.deploy_counter(host=1)
        proxy = world.proxy(ior, policy=policy)

        def client():
            for _ in range(6):
                yield proxy.increment(1)
            return world.sim.now

        return world, proxy, world.run(client())

    sync_world, sync_proxy, sync_done = run_mode(FtPolicy())
    pipe_world, pipe_proxy, pipe_done = run_mode(pipelined_policy())

    # The client finishes earlier: store round-trips overlap the calls.
    assert pipe_done < sync_done
    # But nothing is lost — after a drain both worlds persisted everything.
    pipe_world.run(drain(pipe_proxy))
    assert sync_world.runtime.store_servant.stores == 6
    assert pipe_world.runtime.store_servant.stores == 6
    assert pipe_proxy._ft.checkpoints_taken == 6
    assert not pipe_proxy._ft.shipper.inflight


def test_drain_checkpoints_empties_pipeline(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=pipelined_policy())

    def client():
        for _ in range(4):
            yield proxy.increment(1)
        yield proxy.drain_checkpoints()
        return len(proxy._ft.shipper.inflight)

    assert ft_world.run(client()) == 0
    store = ft_world.runtime.store_servant
    assert store.stores == 4
    assert store.backend.read_latest("counter-1").version == 4


def test_pipeline_window_bounded(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=pipelined_policy(checkpoint_pipeline_depth=1))

    def client():
        for _ in range(8):
            yield proxy.increment(1)
        yield proxy.drain_checkpoints()

    ft_world.run(client())
    ft = proxy._ft
    assert ft.shipper.peak_depth <= 1
    # Back-to-back calls must have waited for the in-flight store.
    assert ft.shipper.stalls >= 1


def test_versions_arrive_in_order(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=pipelined_policy(checkpoint_pipeline_depth=4))

    def client():
        for _ in range(6):
            yield proxy.increment(1)
        yield proxy.drain_checkpoints()

    ft_world.run(client())
    backend = ft_world.runtime.store_servant.backend
    history = backend._data["counter-1"]
    versions = [record.version for record in history]
    assert versions == sorted(versions)
    assert versions[-1] == 6


def test_pipelined_persist_failure_fails_next_call(make_ft_world):
    world = make_ft_world(num_hosts=4)
    ior = world.deploy_counter(host=2)
    proxy = world.proxy(ior, policy=pipelined_policy())
    world.settle()

    def client():
        yield proxy.increment(1)
        yield proxy.drain_checkpoints()
        # Point the store stub at a dead host: background persists now fail.
        world.cluster.host(3).crash()
        from repro.orb.ior import IOR
        from repro.services.checkpoint import CheckpointStoreStub

        dead = IOR(world.runtime.store_ior.type_id, "ws03", 12345, b"gone", 0)
        proxy._ft.store = world.runtime.orb(0).stub(dead, CheckpointStoreStub)

        yield proxy.increment(1)  # succeeds; its persist fails in background
        yield proxy.drain_checkpoints()
        try:
            yield proxy.increment(1)
        except COMM_FAILURE:
            return "failed-on-next-call"

    assert world.run(client()) == "failed-on-next-call"


def test_pipelined_persist_failure_ignored_when_policy_ignores(make_ft_world):
    world = make_ft_world(num_hosts=4)
    ior = world.deploy_counter(host=2)
    proxy = world.proxy(
        ior, policy=pipelined_policy(on_checkpoint_failure="ignore")
    )
    world.settle()

    def client():
        yield proxy.increment(1)
        yield proxy.drain_checkpoints()
        world.cluster.host(3).crash()
        from repro.orb.ior import IOR
        from repro.services.checkpoint import CheckpointStoreStub

        dead = IOR(world.runtime.store_ior.type_id, "ws03", 12345, b"gone", 0)
        proxy._ft.store = world.runtime.orb(0).stub(dead, CheckpointStoreStub)

        values = []
        for _ in range(3):
            values.append((yield proxy.increment(1)))
        yield proxy.drain_checkpoints()
        return values

    # Every call keeps succeeding; only the checkpoints are lost.
    assert world.run(client()) == [2, 3, 4]


def test_recovery_drains_inflight_and_keeps_exactly_once(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=pipelined_policy(checkpoint_pipeline_depth=4))
    # Slow store: persists stay in flight long after their captures landed.
    ft_world.runtime.store_servant.processing_work = 0.5
    ft_world.settle()

    def client():
        for _ in range(3):
            yield proxy.increment(1)
        # Let the state captures finish, then crash while the (slow) store
        # round-trips are still outstanding.
        yield ft_world.sim.timeout(0.2)
        inflight = len(proxy._ft.shipper.inflight)
        ft_world.cluster.host(1).crash()
        return inflight, (yield proxy.increment(1))

    inflight, value = ft_world.run(client())
    assert inflight >= 1  # the crash really did race in-flight persists
    # The recovery drained the in-flight stores first, so the restored
    # state reflects every acknowledged call: 3 + the retried increment.
    assert value == 4
    assert ft_world.runtime.coordinator(0).recoveries == 1


def test_checkpoint_now_drains_pipeline_first(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=pipelined_policy(checkpoint_pipeline_depth=4))

    def client():
        for _ in range(3):
            yield proxy.increment(1)
        yield proxy.checkpoint_now()
        return len(proxy._ft.shipper.inflight)

    assert ft_world.run(client()) == 0
    backend = ft_world.runtime.store_servant.backend
    assert backend.read_latest("counter-1").version == 4


# -- delta checkpoints --------------------------------------------------------


def test_deltas_after_first_full(ft_world):
    proxy = padded_proxy(ft_world, FtPolicy(checkpoint_deltas=True))

    def client():
        for _ in range(5):
            yield proxy.increment(1)

    ft_world.run(client())
    ft = proxy._ft
    assert ft.shipper.fulls == 1
    assert ft.shipper.deltas == 4
    store = ft_world.runtime.store_servant
    assert store.stores == 1
    assert store.delta_stores == 4
    assert store.backend.delta_bytes_written > 0
    # The deltas shipped a fraction of what full snapshots would have.
    assert ft.shipper.bytes < 3 * store.backend.last_full_size("padded-1")


def test_tiny_state_keeps_full_snapshots(ft_world):
    # When the encoded delta is no smaller than the full state (a two-key
    # counter), delta mode keeps shipping fulls — no pessimization.
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(ior, policy=FtPolicy(checkpoint_deltas=True))

    def client():
        for _ in range(4):
            yield proxy.increment(1)

    ft_world.run(client())
    assert proxy._ft.shipper.deltas == 0
    assert proxy._ft.shipper.fulls == 4


def test_unchanged_state_skips_store(ft_world):
    proxy = padded_proxy(ft_world, FtPolicy(checkpoint_deltas=True))

    def client():
        yield proxy.increment(1)
        for _ in range(3):
            yield proxy.value()  # reads leave the state untouched

    ft_world.run(client())
    ft = proxy._ft
    assert ft.shipper.skipped == 3
    store = ft_world.runtime.store_servant
    assert store.stores + store.delta_stores == 1


def test_full_interval_bounds_restore_chain(ft_world):
    proxy = padded_proxy(ft_world, FtPolicy(checkpoint_deltas=True))

    def client():
        for _ in range(3 * CHECKPOINT_FULL_INTERVAL):
            yield proxy.increment(1)

    ft_world.run(client())
    assert proxy._ft.shipper.fulls == 3  # versions 1, 9, 17
    backend = ft_world.runtime.store_servant.backend
    assert len(backend.read_chain("padded-1")) <= CHECKPOINT_FULL_INTERVAL


def test_lost_base_falls_back_to_full_store(ft_world):
    proxy = padded_proxy(ft_world, FtPolicy(checkpoint_deltas=True))

    def client():
        yield proxy.increment(1)
        yield proxy.increment(1)
        # The store forgets the key (it restarted empty): the next delta's
        # base is gone and the proxy must fall back to a full snapshot.
        ft_world.runtime.store_servant.backend = MemoryBackend()
        yield proxy.increment(1)
        return (yield proxy.value())

    assert ft_world.run(client()) == 3
    ft = proxy._ft
    assert ft.shipper.fallbacks == 1
    assert ft.shipper.fulls == 2  # initial full + the fallback
    backend = ft_world.runtime.store_servant.backend
    latest = backend.read_latest("padded-1")
    assert latest.version == 3 and latest.full


def test_delta_recovery_restores_reconstructed_state(ft_world):
    proxy = padded_proxy(ft_world, FtPolicy(checkpoint_deltas=True))
    ft_world.settle()

    def client():
        for _ in range(4):
            yield proxy.increment(1)
        ft_world.cluster.host(1).crash()
        return (yield proxy.increment(1))

    # Restore = newest full + replayed deltas, then the retried call.
    assert ft_world.run(client()) == 5
    assert ft_world.runtime.store_servant.deltas_replayed >= 3


def test_pipelined_deltas_compose(ft_world):
    proxy = padded_proxy(ft_world, pipelined_policy(checkpoint_deltas=True))
    ft_world.settle()

    def client():
        for _ in range(5):
            yield proxy.increment(1)
        yield proxy.drain_checkpoints()
        ft_world.cluster.host(1).crash()
        value = yield proxy.increment(1)
        yield proxy.drain_checkpoints()
        return value

    assert ft_world.run(client()) == 6
    ft = proxy._ft
    assert ft.shipper.deltas >= 1
    assert not ft.shipper.inflight


# -- composition with degraded buffering --------------------------------------


def test_degraded_buffering_composes_with_pipelined(ft_world):
    ior = ft_world.deploy_counter(host=1)
    proxy = ft_world.proxy(
        ior,
        policy=pipelined_policy(
            on_checkpoint_failure="degraded", checkpoint_deltas=True
        ),
    )
    servant = ft_world.runtime.store_servant

    def client():
        yield proxy.increment(1)
        yield proxy.drain_checkpoints()
        servant.set_available(False)
        values = []
        for _ in range(3):
            values.append((yield proxy.increment(1)))
        yield proxy.drain_checkpoints()
        buffered_during_outage = proxy._ft.checkpoints_buffered
        servant.set_available(True)
        values.append((yield proxy.increment(1)))
        yield proxy.drain_checkpoints()
        return values, buffered_during_outage

    values, buffered = ft_world.run(client())
    # The outage never surfaced to the caller ...
    assert values == [2, 3, 4, 5]
    assert buffered >= 1
    ft = proxy._ft
    # ... and after the store came back, everything was flushed.
    assert not ft.buffered_checkpoints
    assert ft.checkpoints_flushed >= 1
    backend = ft_world.runtime.store_servant.backend
    assert backend.read_latest("counter-1").version == 5


def test_runtime_report_surfaces_fastpath_counters(ft_world):
    from repro.core.report import runtime_report

    proxy = padded_proxy(ft_world, pipelined_policy(checkpoint_deltas=True))

    def client():
        for _ in range(4):
            yield proxy.increment(1)
        yield proxy.value()
        yield proxy.drain_checkpoints()

    ft_world.run(client())
    report = runtime_report(ft_world.runtime)
    proxies = report["ft_proxies"]
    assert proxies["proxies"] == 1
    assert proxies["calls"] == 5
    assert proxies["checkpoints_taken"] == proxy._ft.checkpoints_taken
    assert proxies["deltas_sent"] == proxy._ft.shipper.deltas
    assert proxies["checkpoints_skipped"] == 1
    assert proxies["pipeline_inflight"] == 0
    assert report["fault_tolerance"]["delta_stores"] >= 1
    assert "cdr_plan_cache" in report
