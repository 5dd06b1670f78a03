"""Cluster builder: hosts + network from a declarative config."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.cluster.host import Host
from repro.cluster.network import Network
from repro.sim import Simulator


@dataclass
class ClusterConfig:
    """Declarative description of a NOW.

    The defaults model the paper's testbed: a homogeneous LAN of ten
    workstations.  Heterogeneous speeds/cores (Winner's mixed
    uniprocessor/multiprocessor setting) are expressed through the
    per-host sequences.
    """

    num_hosts: int = 10
    #: relative CPU speed per host; a scalar applies to all hosts.
    speeds: float | Sequence[float] = 1.0
    #: cores per host; a scalar applies to all hosts.
    cores: int | Sequence[int] = 1
    latency: float = 0.5e-3
    bandwidth: float = 10e6
    host_name_prefix: str = "ws"

    def speed_of(self, index: int) -> float:
        if isinstance(self.speeds, (int, float)):
            return float(self.speeds)
        return float(self.speeds[index])

    def cores_of(self, index: int) -> int:
        if isinstance(self.cores, int):
            return self.cores
        return int(self.cores[index])

    def validate(self) -> None:
        if self.num_hosts < 1:
            raise ConfigurationError("cluster needs at least one host")
        if not isinstance(self.speeds, (int, float)) and len(self.speeds) != self.num_hosts:
            raise ConfigurationError(
                f"speeds has {len(self.speeds)} entries for {self.num_hosts} hosts"
            )
        if not isinstance(self.cores, int) and len(self.cores) != self.num_hosts:
            raise ConfigurationError(
                f"cores has {len(self.cores)} entries for {self.num_hosts} hosts"
            )
        for i in range(self.num_hosts):
            if not 0 < self.speed_of(i) < math.inf:
                raise ConfigurationError(f"host {i} has a non-positive or infinite speed")
            if self.cores_of(i) < 1:
                raise ConfigurationError(f"host {i} has no cores")


class Cluster:
    """A set of hosts attached to one network."""

    def __init__(self, sim: Simulator, config: Optional[ClusterConfig] = None) -> None:
        self.sim = sim
        self.config = config or ClusterConfig()
        self.config.validate()
        self.network = Network(
            sim,
            latency=self.config.latency,
            bandwidth=self.config.bandwidth,
        )
        self.hosts: list[Host] = []
        for i in range(self.config.num_hosts):
            host = Host(
                sim,
                host_id=i,
                name=f"{self.config.host_name_prefix}{i:02d}",
                speed=self.config.speed_of(i),
                cores=self.config.cores_of(i),
            )
            self.hosts.append(host)
            self.network.attach(host)

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    def host(self, key: int | str) -> Host:
        """Look up a host by index or name."""
        if isinstance(key, int):
            try:
                return self.hosts[key]
            except IndexError:
                raise ConfigurationError(f"no host with index {key}") from None
        for host in self.hosts:
            if host.name == key:
                return host
        raise ConfigurationError(f"no host named {key!r}")
