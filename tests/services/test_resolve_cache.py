"""Tests for the resolve fast path's naming-side cache: hit/invalidation
matrix, round-robin within the cached top-k, the resolve_all defensive
copy, and resolution under churn (a replica host dying between ranking
and invocation)."""

from repro.errors import COMM_FAILURE, TRANSIENT
from repro.orb import compile_idl
from repro.services.naming import (
    LoadDistributingContextServant,
    RoundRobinStrategy,
    WinnerStrategy,
    idl,
    name_from_string,
)
from repro.services.naming.strategies import ResolveCache, SelectionStrategy
from repro.winner import SystemManager
from repro.winner.protocol import LoadReport

work_ns = compile_idl("interface W { string where(); };", name="resolve-cache-w")


class WhereImpl(work_ns.WSkeleton):
    def where(self):
        return self._host().name


class CountingStrategy(SelectionStrategy):
    """Pass-through wrapper counting how often scoring actually runs."""

    name = "counting"

    def __init__(self, inner: SelectionStrategy) -> None:
        self._inner = inner
        self.calls = 0

    def choose(self, group_name, candidates):
        self.calls += 1
        return self._inner.choose(group_name, candidates)


def deploy_group(world, strategy, cache, replica_hosts=(0, 1, 2)):
    root = LoadDistributingContextServant(strategy, resolve_cache=cache)
    root_ior = world.orb(0).poa.activate(root)
    iors = [
        world.orb(index).poa.activate(WhereImpl()) for index in replica_hosts
    ]
    stub = world.orb(0).stub(root_ior, idl.LoadDistributingNamingContextStub)

    def register():
        for ior in iors:
            yield stub.bind_service(name_from_string("w.service"), ior)

    world.run(register())
    return root, stub, iors


def resolve_once(world, stub):
    def client():
        ior = yield stub.resolve(name_from_string("w.service"))
        return ior.host

    return world.run(client())


def feed_reports(manager, run_queues, seq):
    """Apply one full report per host (identical re-sends keep the EWMA at
    its fixed point, so they refresh liveness without bumping the epoch)."""
    for host, run_queue in run_queues.items():
        manager._apply(
            LoadReport(
                host=host,
                time=manager.host.sim.now,
                cpu_utilization=0.1,
                run_queue=run_queue,
                speed=1.0,
                cores=1,
                seq=seq,
            )
        )


# -- hits and round-robin within the cached entry -----------------------------------


def test_cache_hit_skips_scoring_and_round_robins(world):
    strategy = CountingStrategy(RoundRobinStrategy())
    cache = ResolveCache(world.sim, ttl=100.0)
    _, stub, _ = deploy_group(world, strategy, cache)
    hosts = [resolve_once(world, stub) for _ in range(4)]
    assert strategy.calls == 1  # one fresh scoring pass, three hits
    assert cache.stats.hits == 3
    # Hits spread within the cached candidate list instead of pinning the
    # memoized choice.
    assert hosts == ["ws00", "ws01", "ws02", "ws00"]


def test_ttl_expiry_forces_rescore(world):
    strategy = CountingStrategy(RoundRobinStrategy())
    cache = ResolveCache(world.sim, ttl=1.0)
    _, stub, _ = deploy_group(world, strategy, cache)
    resolve_once(world, stub)

    def wait():
        yield world.sim.timeout(2.0)

    world.run(wait())
    resolve_once(world, stub)
    assert strategy.calls == 2
    assert cache.stats.ttl_invalidations == 1


def test_replica_churn_invalidates_eagerly(world):
    strategy = CountingStrategy(RoundRobinStrategy())
    cache = ResolveCache(world.sim, ttl=100.0)
    root, stub, iors = deploy_group(world, strategy, cache)
    resolve_once(world, stub)

    def churn():
        yield stub.unbind_service(name_from_string("w.service"), iors[2])

    world.run(churn())
    resolve_once(world, stub)
    assert strategy.calls == 2  # the memoized selection died with the churn


def test_signature_mismatch_is_the_churn_backstop(world):
    cache = ResolveCache(world.sim, ttl=100.0)
    a, b, c = (world.orb(i).poa.activate(WhereImpl()) for i in range(3))
    cache.store("g", [a, b], a)
    assert cache.lookup("g", [a, b, c]) is None
    assert cache.stats.churn_invalidations == 1


def test_epoch_advance_invalidates(world):
    manager = SystemManager(world.host(0), world.network)
    feed_reports(manager, {"ws00": 5, "ws01": 0, "ws02": 2}, seq=1)
    strategy = CountingStrategy(WinnerStrategy(manager))
    cache = ResolveCache(world.sim, manager=manager, ttl=100.0)
    _, stub, _ = deploy_group(world, strategy, cache)
    assert resolve_once(world, stub) == "ws01"
    # A report that reorders the ranking bumps the epoch ...
    feed_reports(manager, {"ws01": 9}, seq=2)
    resolve_once(world, stub)
    assert strategy.calls == 2
    assert cache.stats.epoch_invalidations == 1


def test_placements_do_not_invalidate(world):
    manager = SystemManager(world.host(0), world.network)
    feed_reports(manager, {"ws00": 5, "ws01": 0, "ws02": 2}, seq=1)
    strategy = CountingStrategy(WinnerStrategy(manager))
    cache = ResolveCache(world.sim, manager=manager, ttl=100.0)
    _, stub, _ = deploy_group(world, strategy, cache)
    # ... but the placements the cache's own hits record do not: a resolve
    # burst must not thrash the cache it is being served from.
    hosts = [resolve_once(world, stub) for _ in range(3)]
    assert strategy.calls == 1
    assert cache.stats.hits == 2
    assert len(set(hosts)) > 1  # top-k round-robin spreads the burst


def test_dead_host_skipped_at_serve_time(world):
    manager = SystemManager(world.host(0), world.network)
    feed_reports(manager, {"ws00": 5, "ws01": 0, "ws02": 2}, seq=1)
    strategy = CountingStrategy(WinnerStrategy(manager))
    cache = ResolveCache(world.sim, manager=manager, ttl=100.0)
    _, stub, _ = deploy_group(world, strategy, cache)
    assert resolve_once(world, stub) == "ws01"

    def wait():
        yield world.sim.timeout(4.0)

    world.run(wait())
    # ws01 went silent past stale_after; the others kept reporting.
    feed_reports(manager, {"ws00": 5, "ws02": 2}, seq=2)
    host = resolve_once(world, stub)
    assert host == "ws02"  # next-ranked cached replica, not the dead one
    assert cache.stats.hits == 1  # served from cache, no rescore
    assert cache.stats.stale_served == 0


# -- resolve_all defensive copy (co-located callers) --------------------------------


def test_resolve_all_returns_a_copy(world):
    strategy = CountingStrategy(RoundRobinStrategy())
    _, stub, _ = deploy_group(world, strategy, None)

    def vandal():
        # Co-located caller: the return value travels by reference, so a
        # non-copied binding list would let this clear naming state.
        everyone = yield stub.resolve_all(name_from_string("w.service"))
        everyone.clear()
        count = yield stub.replica_count(name_from_string("w.service"))
        ior = yield stub.resolve(name_from_string("w.service"))
        return count, ior

    count, ior = world.run(vandal())
    assert count == 3
    assert ior is not None


# -- resolution under churn ----------------------------------------------------------


def test_resolve_under_churn_reresolves_once(world):
    """A replica host dies between ranking and invocation: the invocation
    fails fast, one re-resolve returns an alive replica (no stale
    selection), and both the static stub and DII reach it."""
    manager = SystemManager(world.host(0), world.network)
    feed_reports(manager, {"ws00": 5, "ws01": 0, "ws02": 2}, seq=1)
    strategy = CountingStrategy(WinnerStrategy(manager))
    cache = ResolveCache(world.sim, manager=manager, ttl=100.0)
    root, naming, _ = deploy_group(world, strategy, cache)
    client_orb = world.orb(2)

    def first_resolve():
        ior = yield naming.resolve(name_from_string("w.service"))
        return ior

    ior = world.run(first_resolve())
    assert ior.host == "ws01"
    world.host(1).crash()  # dies before the client ever invokes

    def doomed_invoke():
        stub = client_orb.stub(ior, work_ns.WStub)
        try:
            yield stub.where()
        except (COMM_FAILURE, TRANSIENT):
            return "failed"

    assert world.run(doomed_invoke()) == "failed"

    def wait():
        yield world.sim.timeout(4.0)

    world.run(wait())
    feed_reports(manager, {"ws00": 5, "ws02": 2}, seq=2)

    def reresolve_and_invoke():
        retry = yield naming.resolve(name_from_string("w.service"))
        stub = client_orb.stub(retry, work_ns.WStub)
        static = yield stub.where()
        dynamic = yield stub._create_request("where", ()).invoke()
        return retry.host, static, dynamic

    host, static, dynamic = world.run(reresolve_and_invoke())
    assert host == "ws02"
    assert static == dynamic == "ws02"
    assert root.resolutions == 2  # exactly one re-resolve sufficed
    assert strategy.calls == 1  # served from the cache, dead host skipped
    assert cache.stats.stale_served == 0
