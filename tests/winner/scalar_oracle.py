"""The scalar site manager: the reference the vector board is held to.

``SiteLoadManager`` ranks its hosts from a :class:`VectorLoadBoard`.  This
is the per-host form the board was derived from — an :class:`Ewma` pair, a
pending count and a live flag per host, the expected-rate score written
out, ranked by a loop keeping the first maximum — kept here, outside the
product code, so tests can hold the board's decisions to it:
``tests/winner/test_hierarchy.py`` (a hypothesis property and a 40-host
run) and the placement golden's scalar check.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.host import Host
from repro.winner import SiteSummary
from repro.winner.hierarchy import SiteLoadManager
from repro.winner.metrics import Ewma


class ScalarSiteLoadManager(SiteLoadManager):
    """A :class:`SiteLoadManager` that keeps per-host :class:`Ewma` objects
    and ranks them with a loop; its board is built but never observed."""

    def __init__(
        self,
        site: str,
        hosts: Sequence[Host],
        alpha: float = 0.5,
    ) -> None:
        super().__init__(site, hosts, alpha=alpha)
        self._util_ewma = [Ewma(alpha) for _ in self.hosts]
        self._rq_ewma = [Ewma(alpha) for _ in self.hosts]
        self._pending = [0.0] * len(self.hosts)
        self._up = [True] * len(self.hosts)
        self._updated_at = 0.0

    def refresh(self) -> None:
        utilization, run_queue, up = self.sampler.sample()
        now = self.sampler.sim.now
        for i in range(len(self.hosts)):
            self._util_ewma[i].update(float(utilization[i]))
            self._rq_ewma[i].update(float(run_queue[i]))
            self._up[i] = bool(up[i])
            self._pending[i] = 0.0
        self._updated_at = now
        self.refreshes += 1

    def _scalar_score(self, i: int) -> float:
        if not self._up[i]:
            return float("-inf")
        queue = self._rq_ewma[i].value + self._pending[i]
        denominator = max(1.0, queue + 1.0)
        host = self.hosts[i]
        return host.speed * min(1.0, host.cores / denominator)

    def _scalar_best(self) -> Optional[int]:
        best: Optional[int] = None
        best_score = float("-inf")
        for i in range(len(self.hosts)):
            score = self._scalar_score(i)
            if score > best_score and self._up[i]:
                best, best_score = i, score
        return best

    def best_host(self) -> Optional[str]:
        index = self._scalar_best()
        if index is None:
            return None
        self._pending[index] += 1.0
        self.placements += 1
        return self.hosts[index].name

    def best_score(self) -> float:
        index = self._scalar_best()
        return self._scalar_score(index) if index is not None else float("-inf")

    def summary(self) -> SiteSummary:
        alive = [i for i in range(len(self.hosts)) if self._up[i]]
        best = self._scalar_best()
        idle = sum(
            self.hosts[i].speed
            * self.hosts[i].cores
            * max(0.0, 1.0 - self._util_ewma[i].value)
            for i in alive
        )
        return SiteSummary(
            site=self.site,
            alive_hosts=len(alive),
            best_host=self.hosts[best].name if best is not None else None,
            best_score=self._scalar_score(best) if best is not None else 0.0,
            total_idle_capacity=idle,
            updated_at=self._updated_at,
        )
