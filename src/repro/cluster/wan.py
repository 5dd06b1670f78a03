"""Wide-area network model: multiple LAN sites behind WAN links.

The paper's future work (c): "extending the Winner load measurement and
process placement features for wide-area networks to enable CORBA based
distributed/parallel meta-computing over the WWW."  This module provides
the substrate: a network whose hosts belong to *sites*; traffic within a
site uses LAN latency/bandwidth, traffic between sites pays WAN costs
(tens of milliseconds, ~T1-era bandwidth).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.cluster.network import Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class WideAreaNetwork(Network):
    """A network of LAN sites connected by WAN links.

    :param wan_latency: one-way latency between hosts of different sites.
    :param wan_bandwidth: bytes per second across site boundaries.
    """

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.5e-3,
        bandwidth: float = 10e6,
        local_latency: float = 20e-6,
        wan_latency: float = 40e-3,
        wan_bandwidth: float = 0.2e6,
    ) -> None:
        super().__init__(
            sim, latency=latency, bandwidth=bandwidth, local_latency=local_latency
        )
        if wan_latency < latency or wan_bandwidth <= 0:
            raise SimulationError("WAN must be slower than the LAN")
        self.wan_latency = wan_latency
        self.wan_bandwidth = wan_bandwidth
        self._sites: dict[str, str] = {}

    def assign_site(self, host_name: str, site: str) -> None:
        self.host(host_name)  # validates
        self._sites[host_name] = site

    def site_of(self, host_name: str) -> str:
        try:
            return self._sites[host_name]
        except KeyError:
            raise ConfigurationError(
                f"host {host_name!r} has no site assignment"
            ) from None

    def same_site(self, a: str, b: str) -> bool:
        return self.site_of(a) == self.site_of(b)

    def sites(self) -> list[str]:
        return sorted(set(self._sites.values()))

    def delay(self, src: str, dst: str, size: int) -> float:
        if src == dst:
            return self.local_latency
        if self._sites and not self.same_site(src, dst):
            return self.wan_latency + size / self.wan_bandwidth
        return self.latency + size / self.bandwidth
