"""Tests for FIFO channels."""

import pytest

from repro.errors import ChannelClosed
from repro.sim import Channel, Simulator


def test_put_then_get_resolves_immediately():
    sim = Simulator()
    chan = Channel(sim)
    chan.put("hello")
    fut = chan.get()
    assert fut.succeeded
    assert fut.value == "hello"


def test_get_then_put_wakes_receiver():
    sim = Simulator()
    chan = Channel(sim)

    def receiver():
        item = yield chan.get()
        return (item, sim.now)

    proc = sim.spawn(receiver())
    sim.schedule(2.0, lambda: chan.put("late"))
    sim.run()
    assert proc.value == ("late", 2.0)


def test_fifo_ordering_of_items():
    sim = Simulator()
    chan = Channel(sim)
    for i in range(5):
        chan.put(i)
    got = [chan.get().value for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]


def test_fifo_ordering_of_waiting_receivers():
    sim = Simulator()
    chan = Channel(sim)
    results = []

    def receiver(tag):
        item = yield chan.get()
        results.append((tag, item))

    sim.spawn(receiver("first"))
    sim.spawn(receiver("second"))
    sim.schedule(1.0, lambda: chan.put("a"))
    sim.schedule(2.0, lambda: chan.put("b"))
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


def test_close_fails_waiting_getters():
    sim = Simulator()
    chan = Channel(sim)
    fut = chan.get()
    chan.close()
    assert fut.failed
    assert isinstance(fut.exception, ChannelClosed)


def test_closed_channel_rejects_put_and_get():
    sim = Simulator()
    chan = Channel(sim)
    chan.close()
    with pytest.raises(ChannelClosed):
        chan.put(1)
    fut = chan.get()
    assert fut.failed


def test_close_is_idempotent():
    sim = Simulator()
    chan = Channel(sim)
    chan.close()
    chan.close()
    assert chan.closed


def test_item_not_delivered_to_killed_getter():
    sim = Simulator()
    chan = Channel(sim)
    received = []

    def receiver(tag):
        item = yield chan.get()
        received.append((tag, item))

    victim = sim.spawn(receiver("victim"))
    sim.spawn(receiver("survivor"))
    sim.schedule(1.0, victim.kill)
    sim.schedule(2.0, lambda: chan.put("precious"))
    sim.run()
    # The item skipped the dead waiter instead of vanishing.
    assert received == [("survivor", "precious")]


def test_len_reports_buffered_items():
    sim = Simulator()
    chan = Channel(sim)
    chan.put(1)
    chan.put(2)
    assert len(chan) == 2
