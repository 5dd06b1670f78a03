"""Winner federation for wide-area metacomputing (the paper's future work).

One :class:`~repro.winner.system_manager.SystemManager` runs per LAN site
(the existing architecture, unchanged); a :class:`MetaManager` federates
them: placement questions are answered site-first, from each site
manager's live scores — prefer the caller's site unless a remote site is
better by more than the configured WAN penalty factor, because every
subsequent request to a remote placement pays WAN round trips.

:class:`MetaStrategy` plugs the federation into the load-distributing
naming context, so wide-area placement stays transparent to clients —
the same property the paper's §2 establishes for the single-LAN case.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.orb.ior import IOR
from repro.services.naming.strategies import SelectionStrategy
from repro.winner.metrics import best_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.wan import WideAreaNetwork
    from repro.winner.system_manager import SystemManager


class MetaManager:
    """Federates per-site system managers across a WAN; placement asks
    every site manager live."""

    def __init__(
        self,
        host: "Host",
        network: "WideAreaNetwork",
        wan_penalty: float = 1.5,
    ) -> None:
        if wan_penalty < 1.0:
            raise ConfigurationError("wan_penalty must be >= 1.0")
        self.host = host
        self.network = network
        #: a remote site must beat the local one by this factor to win.
        self.wan_penalty = wan_penalty
        self._site_managers: dict[str, "SystemManager"] = {}

    def register_site(self, site: str, manager: "SystemManager") -> None:
        self._site_managers[site] = manager

    # -- placement ----------------------------------------------------------------------

    def best_host(
        self,
        candidates: Optional[Sequence[str]] = None,
        prefer_site: Optional[str] = None,
    ) -> Optional[str]:
        """Best host across the federation (restricted to ``candidates``)."""
        per_site: dict[str, list[str]] = {}
        if candidates:
            for name in candidates:
                per_site.setdefault(self.network.site_of(name), []).append(name)
        else:
            for site in self._site_managers:
                per_site[site] = []
        # Evaluate each site's best among its candidates.
        site_best: dict[str, str] = {}
        scores: dict[str, float] = {}
        for site, names in sorted(per_site.items()):
            manager = self._site_managers.get(site)
            if manager is None:
                continue
            best = manager.best_host(candidates=names or None)
            if best is not None:
                site_best[site] = best
                scores[site] = manager.score(best)
        chosen_site = best_of(scores, prefer_site, self.wan_penalty)
        if chosen_site is None:
            return None
        best = site_best[chosen_site]
        self._site_managers[chosen_site].note_placement(best)
        return best


class MetaStrategy(SelectionStrategy):
    """Naming-service selection backed by the federation.

    :param home_site: the site the naming context serves (placements are
        biased toward it by the WAN penalty).
    """

    name = "meta"

    def __init__(self, meta: MetaManager, home_site: Optional[str] = None) -> None:
        self._meta = meta
        self.home_site = home_site
        self.queries = 0
        self.remote_selections = 0

    def choose(self, group_name: str, candidates: Sequence[IOR]) -> IOR:
        self.queries += 1
        hosts = sorted({ior.host for ior in candidates})
        best = self._meta.best_host(hosts, prefer_site=self.home_site)
        if best is None:
            return candidates[0]
        if (
            self.home_site is not None
            and self._meta.network.site_of(best) != self.home_site
        ):
            self.remote_selections += 1
        for ior in candidates:
            if ior.host == best:
                return ior
        return candidates[0]
