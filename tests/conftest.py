"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.orb import Orb
from repro.sim import Simulator


class OrbWorld:
    """A simulator + cluster + per-host ORBs, for concise protocol tests."""

    def __init__(self, num_hosts: int = 3, seed: int = 7, **cluster_kwargs) -> None:
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(
            self.sim, ClusterConfig(num_hosts=num_hosts, **cluster_kwargs)
        )
        self.network = self.cluster.network
        self._orbs: dict[int, Orb] = {}

    def host(self, index: int):
        return self.cluster.host(index)

    def orb(self, host_index: int, **kwargs) -> Orb:
        """Get (or lazily create) the default ORB on a host."""
        if host_index not in self._orbs:
            self._orbs[host_index] = Orb(
                self.cluster.host(host_index), self.network, **kwargs
            )
        return self._orbs[host_index]

    def run(self, generator, limit: float = 1e6):
        """Spawn ``generator`` as a process, run to completion, return its
        value, and assert no background process died silently."""
        process = self.sim.spawn(generator)
        value = self.sim.run_until_done(process, limit=limit)
        self.sim.check_unhandled()
        return value


@pytest.fixture
def make_world():
    return OrbWorld


@pytest.fixture
def world():
    return OrbWorld()


@pytest.fixture
def count_calls():
    """``count_calls(run)``: the Python-level and C-level calls ``run()``
    makes, by ``sys.setprofile``.  A count, not a time: a budget on it
    reads the same on a noisy box, where a wall-clock bound flakes."""

    def _count(run) -> int:
        count = 0

        def on_event(frame, event, arg):
            nonlocal count
            if event in ("call", "c_call"):
                count += 1

        sys.setprofile(on_event)
        try:
            run()
        finally:
            sys.setprofile(None)
        return count

    return _count
