"""Mechanism-level tests for the replication building blocks: the
``ReplicatedServant`` exactly-once wrapper, delta state ships, and the
no-stale-primary sequence audit."""

import pytest

from repro.chaos.invariants import stale_primary_violations
from repro.ft import FtPolicy, replication
from repro.ft.replication import (
    MEMBER_STATE_MARK,
    REPLY_CACHE_LIMIT,
    REQUEST_ID_SERVICE_CONTEXT,
    SHIP_DELTA_MARK,
    ReplicatedServant,
)
from repro.orb.cdr import encode_any
from repro.services.checkpoint import BadDeltaBase, state_digest

from tests.ft.conftest import CounterImpl, counter_ns
from tests.ft.test_replication import provision, replicated_proxy

INCREMENT = counter_ns.CounterStub.__operations__["increment"]
SLOW_INCREMENT = counter_ns.CounterStub.__operations__["slow_increment"]


def _request(seq, group="counter-test"):
    key = f"{group}:{seq}".encode("utf-8")
    return ((REQUEST_ID_SERVICE_CONTEXT, key),)


def _activate_wrapper(ft_world, host=1):
    wrapper = ReplicatedServant(CounterImpl(), group_id="counter-test")
    ior = ft_world.runtime.orb(host).poa.activate(wrapper)
    wrapper.adopt(ior)
    return wrapper, ior


# -- the exactly-once wrapper -------------------------------------------------------


def test_wrapper_suppresses_duplicate_request_ids(ft_world):
    wrapper, ior = _activate_wrapper(ft_world)
    orb = ft_world.runtime.orb(0)

    def client():
        first = yield orb.invoke(
            ior, INCREMENT, (5,), service_contexts=_request(1)
        )
        replay = yield orb.invoke(
            ior, INCREMENT, (5,), service_contexts=_request(1)
        )
        return first, replay

    first, replay = ft_world.run(client())
    # The retry got the cached reply; the increment applied exactly once.
    assert first == 5
    assert replay == 5
    assert wrapper.applies == 1
    assert wrapper.duplicates_suppressed == 1
    assert wrapper.dispatches == 2
    assert wrapper.last_request_seq == 1


def test_wrapper_without_request_id_does_not_dedup(ft_world):
    wrapper, ior = _activate_wrapper(ft_world)
    orb = ft_world.runtime.orb(0)

    def client():
        yield orb.invoke(ior, INCREMENT, (1,))
        return (yield orb.invoke(ior, INCREMENT, (1,)))

    # Direct (unreplicated) callers bypass the reply cache entirely.
    assert ft_world.run(client()) == 2
    assert wrapper.duplicates_suppressed == 0


def test_wrapper_serializes_racing_duplicates(ft_world):
    """A retry that races the original slow apply waits on the in-flight
    future instead of starting a second execution."""
    wrapper, ior = _activate_wrapper(ft_world)
    orb = ft_world.runtime.orb(0)

    def client():
        first = orb.invoke(
            ior, SLOW_INCREMENT, (3, 0.5), service_contexts=_request(1)
        )
        yield ft_world.sim.timeout(0.1)  # land the race mid-apply
        second = orb.invoke(
            ior, SLOW_INCREMENT, (3, 0.5), service_contexts=_request(1)
        )
        return (yield first), (yield second)

    first, second = ft_world.run(client())
    assert first == 3
    assert second == 3
    assert wrapper.applies == 1
    assert wrapper.duplicates_suppressed == 1


def test_wrapper_reply_cache_is_bounded(ft_world):
    wrapper, ior = _activate_wrapper(ft_world)
    orb = ft_world.runtime.orb(0)
    requests = REPLY_CACHE_LIMIT + 5

    def client():
        for seq in range(1, requests + 1):
            yield orb.invoke(
                ior, INCREMENT, (1,), service_contexts=_request(seq)
            )

    ft_world.run(client())
    assert wrapper.applies == requests
    assert len(wrapper._replies) == REPLY_CACHE_LIMIT
    assert wrapper.last_request_seq == requests


def test_dedup_history_travels_with_shipped_state(ft_world):
    """The checkpoint envelope carries the reply cache, so a standby that
    receives the state also inherits the dedup history."""
    wrapper, ior = _activate_wrapper(ft_world, host=1)
    standby, standby_ior = _activate_wrapper(ft_world, host=2)
    orb = ft_world.runtime.orb(0)

    def client():
        yield orb.invoke(ior, INCREMENT, (9,), service_contexts=_request(1))
        envelope = wrapper.get_checkpoint()
        standby.restore_from(envelope)
        # Failover replay of request 1 against the standby: suppressed.
        return (
            yield orb.invoke(
                standby_ior, INCREMENT, (9,), service_contexts=_request(1)
            )
        )

    assert ft_world.run(client()) == 9
    assert standby.applies == 0
    assert standby.duplicates_suppressed == 1
    assert standby._inner._value == 9


def test_raw_seed_state_clears_dedup_history(ft_world):
    wrapper, _ = _activate_wrapper(ft_world)
    wrapper._replies["counter-test:1"] = 42
    wrapper.restore_from({"value": 7})  # raw servant state, no envelope
    assert wrapper._replies == {}
    assert wrapper._inner._value == 7


RESTORE_FROM = counter_ns.CounterStub.__operations__["restore_from"]


def _envelope(value):
    return {MEMBER_STATE_MARK: 1, "state": {"value": value}, "replies": {"g:1": 1}}


def test_restore_through_the_orb_hashes_the_body_it_received(ft_world, monkeypatch):
    """A standby learns the digest of a shipped envelope from the request
    body, without marshalling the envelope again."""
    standby, ior = _activate_wrapper(ft_world)
    envelope = _envelope(5)
    expected = state_digest(encode_any(envelope))

    def no_encode(value):
        raise AssertionError("the standby marshalled the envelope again")

    monkeypatch.setattr(replication, "encode_any", no_encode)

    def client():
        yield ft_world.runtime.orb(0).invoke(ior, RESTORE_FROM, (envelope,))

    ft_world.run(client())
    assert standby._ship_digest == expected
    assert standby._inner._value == 5
    # outside an upcall there is no body: the wrapper encodes
    assert ft_world.runtime.orb(1).current_request_body is None
    monkeypatch.undo()
    standby.restore_from(_envelope(6))
    assert standby._ship_digest == state_digest(encode_any(_envelope(6)))


def test_delta_ship_with_unknown_base_raises(ft_world):
    wrapper, _ = _activate_wrapper(ft_world)
    envelope = {
        SHIP_DELTA_MARK: {"set": {}, "del": []},
        "base": "digest-the-standby-never-acked",
        "target": "whatever",
    }
    with pytest.raises(BadDeltaBase):
        wrapper.restore_from(envelope)


# -- delta shipping through the full warm-passive stack -----------------------------


class PaddedCounterImpl(CounterImpl):
    """Counter whose checkpoint is dominated by a static blob — the shape
    where shipping deltas beats re-shipping the full state every call."""

    PAD = [float(i) * 0.5 for i in range(256)]

    def get_checkpoint(self):
        return {"value": self._value, "pad": list(self.PAD)}

    def restore_from(self, state):
        self._value = int(state["value"])


def padded_replicated_proxy(ft_world, **policy_kwargs):
    ft_world.runtime.register_type("Counter", PaddedCounterImpl)
    ft_world.settle(3.0)
    ior = ft_world.runtime.orb(1).poa.activate(PaddedCounterImpl())
    return ft_world.proxy(
        ior,
        key="counter-padded",
        group_name="counter.service",
        policy=FtPolicy(
            ft_mode="warm-passive", replication_factor=3, **policy_kwargs
        ),
        with_store=False,
    )


def test_warm_passive_ships_deltas_when_enabled(ft_world):
    proxy = padded_replicated_proxy(ft_world, checkpoint_deltas=True)
    group = provision(ft_world, proxy)

    def client():
        total = 0
        for _ in range(4):
            total = yield proxy.increment(1)
        return total

    assert ft_world.run(client()) == 4
    snap = group.snapshot()
    # First ship per standby is a full state (no acked base yet); the
    # following ones ride as deltas.
    assert snap["state_ships_delta"] >= 2
    assert snap["delta_fallbacks"] == 0


def test_warm_passive_delta_fallback_reships_full_state(ft_world):
    proxy = padded_replicated_proxy(ft_world, checkpoint_deltas=True)
    group = provision(ft_world, proxy)

    def client():
        yield proxy.increment(1)
        # Corrupt one standby's acked base: the next delta must bounce
        # (BadDeltaBase) and be retried as a full state transfer.
        standby_hosts = {m.ior.host for m in group.members[1:]}
        for member in ft_world.runtime._replica_members:
            if member.ior is not None and member.ior.host in standby_hosts:
                member._ship_digest = "corrupted"
                break
        yield proxy.increment(1)
        yield proxy.increment(1)
        # Crash the primary: the promoted standby must still carry the
        # full, correct state despite the bounced delta.
        ft_world.cluster.host(proxy.ior.host).crash()
        return (yield proxy.increment(1))

    assert ft_world.run(client()) == 4
    snap = group.snapshot()
    assert snap["delta_fallbacks"] >= 1
    assert snap["promotions"] == 1


# -- the no-stale-primary audit -----------------------------------------------------


def test_stale_primary_audit_passes_after_clean_failover(ft_world):
    proxy = replicated_proxy(ft_world, "warm-passive")
    provision(ft_world, proxy)

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(proxy.ior.host).crash()
        yield proxy.increment(1)
        return (yield proxy.increment(1))

    assert ft_world.run(client()) == 3
    assert stale_primary_violations(ft_world.runtime) == []


def test_stale_primary_audit_flags_post_retirement_delivery(ft_world):
    """A retired incarnation that sees a request sequence issued *after*
    its retirement is exactly the stale-routing bug the audit exists
    for — simulate one and make sure it is reported."""
    proxy = replicated_proxy(ft_world, "warm-passive")
    group = provision(ft_world, proxy)

    def client():
        yield proxy.increment(1)
        ft_world.cluster.host(proxy.ior.host).crash()
        return (yield proxy.increment(1))

    assert ft_world.run(client()) == 2
    assert group.retired, "the crashed primary should have been retired"
    dead_ior, _, seq_at_retire = group.retired[0]
    for member in ft_world.runtime._replica_members:
        if member.ior == dead_ior:
            member.last_request_seq = seq_at_retire + 1  # stale delivery
    violations = stale_primary_violations(ft_world.runtime)
    assert len(violations) == 1
    assert "after retirement" in violations[0]
