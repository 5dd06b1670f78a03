"""Hierarchical Winner: site → region tree for thousand-host clusters.

The paper's system manager is a single collector ranking every host — fine
for a LAN of tens of workstations, quadratic pain at thousands.  The WAN
federation (:mod:`repro.winner.federation`) already showed the shape of the
fix: aggregate each site into a small summary and rank summaries.  This
module applies that shape *within* a cluster:

* a :class:`SiteLoadManager` owns a few hundred hosts at most, sampling
  them in one vectorized sweep (:class:`~repro.cluster.host.HostLoadSampler`
  feeding a :class:`~repro.winner.metrics.VectorLoadBoard`) instead of one
  report datagram per host per tick;
* :class:`RegionNode`\\ s aggregate child summaries — the
  :class:`~repro.winner.metrics.SiteSummary` the federation ranks too, with
  the same :func:`~repro.winner.metrics.best_of` — so each tree level ranks
  at most ``region_fanout`` children;
* :class:`HierarchicalWinner` builds the tree, refreshes it on a fixed
  period, and answers ``best_host()`` by descending the best-summary path.

The scale harness (``bench/scalebench.py``, ``benchmarks/e2e``) places a
request on the leaf board of the site its service resolved to; the
descent from the root is its fallback when that site has no live host.

Placement feedback (the system manager's burst-spreading trick) lives at
the leaves: a placement charges the chosen host's pending count until the
next sampling sweep observes the work it caused.  Between refreshes a
region routes on its cached summaries — bounded staleness in exchange for
O(fanout) work per query, the standard hierarchy trade.

Every structure here is deterministic: hosts are ranked with index
tie-breaks (register them sorted by name to reproduce the scalar managers'
name tie-break), children in registration order, and the refresh loop is a
plain self-rescheduling simulator callback with no randomness.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING, Union

from repro.errors import ConfigurationError
from repro.cluster.host import Host, HostLoadSampler
from repro.winner.metrics import SiteSummary, VectorLoadBoard, best_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import ScheduledEvent, Simulator


class SiteLoadManager:
    """Leaf manager: samples and ranks the hosts of one site."""

    def __init__(
        self,
        site: str,
        hosts: Sequence[Host],
        alpha: float = 0.5,
    ) -> None:
        if not hosts:
            raise ConfigurationError(f"site {site!r} needs at least one host")
        self.site = site
        self.hosts: list[Host] = list(hosts)
        self.sampler = HostLoadSampler(self.hosts)
        self.board = VectorLoadBoard(
            self.sampler.names,
            [h.speed for h in self.hosts],
            [h.cores for h in self.hosts],
            alpha=alpha,
        )
        self.refreshes = 0
        self.placements = 0

    def __len__(self) -> int:
        return len(self.hosts)

    def refresh(self) -> None:
        """One sampling sweep folded into the smoothed per-host state."""
        utilization, run_queue, up = self.sampler.sample()
        now = self.sampler.sim.now
        self.board.observe(utilization, run_queue, up=up, now=now)
        self.refreshes += 1

    def best_host(self) -> Optional[str]:
        """Best live host; charges the placement until the next refresh."""
        index = self.board.best_index()
        if index is None:
            return None
        self.board.note_placement(index)
        self.placements += 1
        return self.hosts[index].name

    def best_score(self) -> float:
        best = self.board.best_index()
        if best is None:
            return float("-inf")
        return float(self.board.scores()[best])

    def summary(self) -> SiteSummary:
        return self.board.summary(self.site)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SiteLoadManager {self.site} hosts={len(self.hosts)}>"


class RegionNode:
    """Internal tree node: ranks child summaries, never individual hosts."""

    def __init__(
        self,
        name: str,
        children: Sequence[Union["RegionNode", SiteLoadManager]],
    ) -> None:
        if not children:
            raise ConfigurationError(f"region {name!r} needs at least one child")
        self.name = name
        self.children: list[Union["RegionNode", SiteLoadManager]] = list(children)
        self._summaries: list[SiteSummary] = [c.summary() for c in self.children]

    def refresh(self) -> None:
        for child in self.children:
            child.refresh()
        self._summaries = [child.summary() for child in self.children]

    def summary(self) -> SiteSummary:
        updated_at = max(s.updated_at for s in self._summaries)
        best = self._best_child()
        if best is None:
            return SiteSummary(self.name, 0, None, 0.0, 0.0, updated_at)
        chosen = self._summaries[best]
        return SiteSummary(
            site=self.name,
            alive_hosts=sum(s.alive_hosts for s in self._summaries),
            best_host=chosen.best_host,
            best_score=chosen.best_score,
            total_idle_capacity=sum(
                s.total_idle_capacity for s in self._summaries
            ),
            updated_at=updated_at,
        )

    def _best_child(self) -> Optional[int]:
        return best_of(
            {
                i: s.best_score if s.alive_hosts else None
                for i, s in enumerate(self._summaries)
            }
        )

    def best_host(self) -> Optional[str]:
        best = self._best_child()
        if best is None:
            return None
        return self.children[best].best_host()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RegionNode {self.name} children={len(self.children)}>"


class HierarchicalWinner:
    """The whole tree plus its periodic refresh driver.

    Hosts are chunked in the given order into sites of at most
    ``site_fanout``; sites are grouped into regions of at most
    ``region_fanout`` until a single root remains.  With the defaults a
    10k-host cluster becomes 79 sites under a single root — no node ranks
    more than ``max(site_fanout, region_fanout)`` entries.
    """

    def __init__(
        self,
        sim: "Simulator",
        hosts: Sequence[Host],
        site_fanout: int = 128,
        region_fanout: int = 16,
        refresh_interval: float = 1.0,
        alpha: float = 0.5,
    ) -> None:
        if site_fanout < 1 or region_fanout < 2:
            raise ConfigurationError(
                "need site_fanout >= 1 and region_fanout >= 2"
            )
        if not refresh_interval > 0:
            # at 0 the refresh tick reschedules itself at the same instant
            # and run() never returns; below 0 the kernel refuses the
            # second tick, after the first refresh already ran
            raise ConfigurationError(
                f"refresh_interval must be > 0, got {refresh_interval}"
            )
        if not hosts:
            raise ConfigurationError("HierarchicalWinner needs hosts")
        self.sim = sim
        self.refresh_interval = refresh_interval
        self.leaves: list[SiteLoadManager] = []
        host_list = list(hosts)
        for start in range(0, len(host_list), site_fanout):
            chunk = host_list[start : start + site_fanout]
            self.leaves.append(
                SiteLoadManager(
                    site=f"site-{len(self.leaves):03d}",
                    hosts=chunk,
                    alpha=alpha,
                )
            )
        # Group bottom-up until one root remains.
        level: list[Union[RegionNode, SiteLoadManager]] = list(self.leaves)
        depth = 0
        while len(level) > 1:
            grouped: list[Union[RegionNode, SiteLoadManager]] = []
            for start in range(0, len(level), region_fanout):
                grouped.append(
                    RegionNode(
                        name=f"region-{depth}-{len(grouped):03d}",
                        children=level[start : start + region_fanout],
                    )
                )
            level = grouped
            depth += 1
        self.root: Union[RegionNode, SiteLoadManager] = level[0]
        self.depth = depth
        self._tick_event: Optional["ScheduledEvent"] = None
        self.running = False

    # -- refresh driver ------------------------------------------------------

    def refresh(self) -> None:
        self.root.refresh()

    def start(self) -> "HierarchicalWinner":
        """Prime the tree now and refresh on the period until stopped."""
        if self.running:
            return self
        self.running = True
        self.refresh()

        def tick() -> None:
            if not self.running:
                return
            self.refresh()
            self._tick_event = self.sim.schedule(self.refresh_interval, tick)

        self._tick_event = self.sim.schedule(self.refresh_interval, tick)
        return self

    def stop(self) -> None:
        self.running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    # -- placement ------------------------------------------------------------

    def best_host(self) -> Optional[str]:
        return self.root.best_host()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HierarchicalWinner hosts={sum(map(len, self.leaves))} "
            f"sites={len(self.leaves)} depth={self.depth}>"
        )
