"""Tests for per-host circuit breakers and the adaptive recovery knobs
(decorrelated-jitter backoff, recovery deadlines, breaker-guarded
recovery)."""

import math
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, RecoveryError
from repro.ft import FtPolicy, HostBreakerRegistry, RecoveryCoordinator
from repro.ft.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.ft.recovery import FACTORY_GROUP
from repro.services.naming import BreakerAwareStrategy
from repro.services.naming.names import to_name
from repro.services.naming.strategies import SelectionStrategy
from repro.sim import Simulator


def make_breaker(threshold=3, reset=5.0, half_open_max=1):
    sim = Simulator(seed=1)
    return sim, CircuitBreaker(
        sim,
        "ws01",
        failure_threshold=threshold,
        reset_timeout=reset,
        half_open_max=half_open_max,
    )


# -- the state machine ---------------------------------------------------------


def test_breaker_opens_after_threshold_failures():
    _, breaker = make_breaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert not breaker.available


def test_success_resets_the_failure_count():
    _, breaker = make_breaker(threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED


def test_open_breaker_half_opens_after_reset_timeout():
    sim, breaker = make_breaker(threshold=1, reset=2.0)
    breaker.record_failure()
    assert breaker.state == OPEN
    sim.run(until=1.9)
    assert breaker.state == OPEN
    sim.run(until=2.1)
    assert breaker.state == HALF_OPEN
    assert breaker.available


def test_half_open_rations_probe_slots():
    sim, breaker = make_breaker(threshold=1, reset=1.0, half_open_max=1)
    breaker.record_failure()
    sim.run(until=1.5)
    assert breaker.allow()  # the single probe slot
    assert not breaker.allow()  # rationed
    # `available` is the non-mutating check: it never consumed a slot above
    # and still reports the half-open breaker as selectable.
    assert breaker.available


def test_half_open_probe_success_closes():
    sim, breaker = make_breaker(threshold=1, reset=1.0)
    breaker.record_failure()
    sim.run(until=1.5)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow()


def test_half_open_probe_failure_reopens():
    sim, breaker = make_breaker(threshold=1, reset=1.0)
    breaker.record_failure()
    sim.run(until=1.5)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()
    # and the reset clock restarted: still open just before 1.5 + 1.0
    sim.run(until=2.4)
    assert breaker.state == OPEN


def test_breaker_metrics_match_object_counters():
    sim, breaker = make_breaker(threshold=1, reset=1.0)
    breaker.record_failure()  # open #1
    sim.run(until=1.5)
    assert breaker.allow()
    breaker.record_success()  # close #1
    breaker.record_failure()  # open #2
    assert not breaker.allow()  # rejection #1
    snap = breaker.snapshot()
    assert snap["opens"] == 2
    assert snap["closes"] == 1
    assert snap["rejections"] == 1
    metrics = sim.obs.metrics
    opens = metrics.counter(
        "ft_breaker_transitions_total", host="ws01", to="open"
    )
    rejections = metrics.counter("ft_breaker_rejections_total", host="ws01")
    assert opens.value_repr() == 2
    assert rejections.value_repr() == 1


# -- the registry --------------------------------------------------------------


def test_registry_filters_open_hosts_but_fails_open():
    class Offered(SelectionStrategy):
        def choose(self, group_name, candidates):
            return [c.host for c in candidates]

    sim = Simulator(seed=2)
    registry = HostBreakerRegistry(sim, failure_threshold=1, reset_timeout=10.0)
    strategy = BreakerAwareStrategy(Offered(), registry)
    candidates = [SimpleNamespace(host="ws01"), SimpleNamespace(host="ws02")]
    registry.record_failure("ws01")
    assert strategy.choose("g", candidates) == ["ws02"]
    # every host open: the blacklist degrades to normal selection
    registry.record_failure("ws02")
    assert strategy.choose("g", candidates) == ["ws01", "ws02"]
    assert registry.available("ws03")  # unknown hosts are closed breakers


# -- the policy knobs ----------------------------------------------------------


def test_fixed_backoff_never_consults_the_rng():
    policy = FtPolicy(backoff="fixed", retry_backoff=0.5)

    class Exploding:
        def uniform(self, *a):  # pragma: no cover - must not be called
            raise AssertionError("fixed backoff touched the RNG")

    assert policy.backoff_delay(0.0, Exploding()) == 0.5
    assert policy.backoff_delay(4.0, Exploding()) == 0.5


def test_decorrelated_jitter_bounds_and_determinism():
    policy = FtPolicy(
        backoff="decorrelated-jitter",
        retry_backoff=0.2,
        backoff_cap=2.0,
    )

    def schedule(seed):
        rng = Simulator(seed=seed).rng("test-backoff")
        delays, previous = [], 0.0
        for _ in range(12):
            previous = policy.backoff_delay(previous, rng)
            delays.append(previous)
        return delays

    delays = schedule(7)
    assert delays == schedule(7)  # seeded => reproducible
    assert delays != schedule(8)
    for i, delay in enumerate(delays):
        assert 0.2 <= delay <= 2.0
        prev = max(0.2, delays[i - 1]) if i else 0.2
        assert delay <= max(0.2, prev * 3.0)


def test_policy_validates_adaptive_knobs():
    with pytest.raises(ConfigurationError):
        FtPolicy(backoff="exponential")
    with pytest.raises(ConfigurationError):
        FtPolicy(recovery_deadline=0.0)
    with pytest.raises(ConfigurationError):
        FtPolicy(breaker_failure_threshold=0)
    with pytest.raises(ConfigurationError):
        FtPolicy(on_checkpoint_failure="buffer")
    with pytest.raises(ConfigurationError):
        FtPolicy(checkpoint_buffer_limit=0)
    for knob in (
        "retry_backoff",
        "backoff_cap",
        "recovery_deadline",
        "breaker_reset_timeout",
        "detector_interval",
    ):
        with pytest.raises(ConfigurationError):
            FtPolicy(**{knob: math.nan})


# -- recovery integration ------------------------------------------------------


def test_recovery_deadline_exceeded_raises(make_ft_world):
    policy = FtPolicy(
        retry_backoff=0.2, recovery_deadline=1.0, max_recover_attempts=50
    )
    world = make_ft_world(
        num_hosts=3, auto_heal_delay=None, recovery_policy=policy
    )
    world.settle()
    ior = world.deploy_counter(host=1)
    proxy = world.proxy(ior, policy=policy)

    # Crash the service host *during* a checkpoint-store outage with
    # nothing buffered: every recovery attempt creates a fresh servant but
    # cannot restore it (TRANSIENT from the store, which is not
    # host-blaming, so no factory gets dropped) — the loop backs off until
    # the deadline expires.
    def client():
        yield proxy.increment(1)
        world.runtime.store_servant.set_available(False)
        world.cluster.host(1).crash()
        with pytest.raises(RecoveryError, match="deadline"):
            yield proxy.increment(1)

    world.run(client())
    coordinator = world.runtime.coordinator(0)
    assert coordinator.deadline_failures == 1
    assert coordinator.failed_recoveries >= 1
    deadline_metric = world.sim.obs.metrics.counter(
        "ft_recovery_deadline_exceeded_total", service="counter-1"
    )
    assert deadline_metric.value_repr() == 1


def test_recovery_skips_hosts_with_open_breakers(make_ft_world):
    world = make_ft_world(num_hosts=3, auto_heal_delay=None)
    world.settle()
    ior = world.deploy_counter(host=1)
    policy = FtPolicy(retry_backoff=0.05, max_recover_attempts=4)
    proxy = world.proxy(ior, policy=policy)

    # A coordinator with breakers but *without* the breaker-aware naming
    # strategy: resolution keeps offering the blacklisted host, so the
    # breaker's allow() check is what must reject it.
    registry = HostBreakerRegistry(
        world.sim, failure_threshold=1, reset_timeout=100.0
    )
    coordinator = RecoveryCoordinator(
        world.runtime.orb(0),
        world.runtime.naming_stub(0),
        world.runtime.store_stub(0),
        policy=policy,
        breakers=registry,
    )
    proxy._ft.recovery = coordinator

    def drop_factories_on(hosts):
        naming = world.runtime.naming_stub(0)
        group = to_name(FACTORY_GROUP)
        iors = yield naming.resolve_all(group)
        for factory_ior in iors:
            if factory_ior.host in hosts:
                yield naming.unbind_service(group, factory_ior)

    # Only ws02's factory stays in the group, and its breaker is open.
    world.run(drop_factories_on({"ws00", "ws01"}))
    registry.record_failure("ws02")

    def client():
        yield proxy.increment(1)
        world.cluster.host(1).crash()
        with pytest.raises(RecoveryError):
            yield proxy.increment(1)

    world.run(client())
    assert coordinator.breaker_skips == policy.max_recover_attempts
    skip_metric = world.sim.obs.metrics.counter(
        "ft_recovery_breaker_skips_total", host="ws02"
    )
    assert skip_metric.value_repr() == policy.max_recover_attempts


def test_breaker_aware_strategy_steers_resolution(make_ft_world):
    world = make_ft_world(num_hosts=4, breakers=True, auto_heal_delay=None)
    world.settle()

    def deploy():
        return (
            yield from world.runtime.deploy_group(
                "counters.service", "Counter", [1, 2, 3]
            )
        )

    world.run(deploy())
    # Open ws01's breaker: resolution must stop offering its replica.
    world.runtime.breakers.record_failure("ws01")
    world.runtime.breakers.record_failure("ws01")
    world.runtime.breakers.record_failure("ws01")
    assert not world.runtime.breakers.available("ws01")

    def resolve_many():
        naming = world.runtime.naming_stub(0)
        hosts = []
        for _ in range(8):
            ior = yield naming.resolve(to_name("counters.service"))
            hosts.append(ior.host)
        return hosts

    hosts = world.run(resolve_many())
    assert "ws01" not in hosts
    assert set(hosts) <= {"ws02", "ws03"}
