"""Replica-selection strategies for the load-distributing naming context.

``choose`` returns one of the candidate IORs; it runs inside the naming
servant's dispatch and takes no simulated time of its own.

* :class:`FirstBoundStrategy` — always the first registered replica; the
  degenerate "static assignment" baseline.
* :class:`RoundRobinStrategy` — cycles through replicas per name; this is
  the load-*oblivious* behaviour we use as the paper's "unmodified naming
  service" baseline (fair spreading, but blind to background load).
* :class:`RandomStrategy` — uniform random choice (seeded, reproducible).
* :class:`WinnerStrategy` — the paper's contribution: ask the Winner
  system manager for the best host among the replicas' hosts, note the
  placement, return a replica on that host.
* :class:`BreakerAwareStrategy` — decorator around any of the above that
  drops replicas on hosts whose circuit breaker is open, so re-resolution
  after a failure avoids recently failed hosts.
* :class:`ResolveCache` — the resolve fast path's load-epoch cache: the
  naming servant memoizes a selection (plus the ranked top-k around it)
  and serves hits without re-scoring until the Winner ranking epoch
  advances, the TTL expires, a breaker trips, or the replica set churns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.orb.ior import IOR

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator
    from repro.sim.randomness import RandomStream
    from repro.winner.system_manager import SystemManager


class SelectionStrategy:
    """Base class; subclasses override :meth:`choose`."""

    name = "abstract"

    def choose(self, group_name: str, candidates: Sequence[IOR]):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class FirstBoundStrategy(SelectionStrategy):
    name = "first-bound"

    def choose(self, group_name: str, candidates: Sequence[IOR]) -> IOR:
        return candidates[0]


class RoundRobinStrategy(SelectionStrategy):
    name = "round-robin"

    def __init__(self) -> None:
        self._cursors: dict[str, int] = {}

    def choose(self, group_name: str, candidates: Sequence[IOR]) -> IOR:
        cursor = self._cursors.get(group_name, 0)
        self._cursors[group_name] = cursor + 1
        return candidates[cursor % len(candidates)]


class RandomStrategy(SelectionStrategy):
    name = "random"

    def __init__(self, rng: "RandomStream") -> None:
        self._rng = rng

    def choose(self, group_name: str, candidates: Sequence[IOR]) -> IOR:
        return candidates[self._rng.integers(len(candidates))]


class BreakerAwareStrategy(SelectionStrategy):
    """Filter replica candidates through per-host circuit breakers.

    Wraps an inner strategy: candidates whose host breaker is open (and
    still inside its reset timeout) are removed before delegation, so a
    recently failed host stops being offered until it earns a probe.  If
    *every* candidate is filtered the full list passes through unchanged —
    a blacklist must degrade to normal selection, never to an outage.
    The check is non-mutating (no half-open probe slots are consumed at
    selection time; the caller's actual request is the probe).
    """

    name = "breaker-aware"

    def __init__(self, inner: SelectionStrategy, breakers) -> None:
        self._inner = inner
        self.breakers = breakers
        self.filtered = 0

    def choose(self, group_name: str, candidates: Sequence[IOR]):
        allowed = [c for c in candidates if self.breakers.available(c.host)]
        if not allowed:
            allowed = list(candidates)
        self.filtered += len(candidates) - len(allowed)
        return self._inner.choose(group_name, allowed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BreakerAwareStrategy over {self._inner!r}>"


class WinnerStrategy(SelectionStrategy):
    """Selection backed by the Winner system manager (Fig. 1), co-located
    with the naming service as in the deployment the paper describes.

    :param system_manager: the local
        :class:`~repro.winner.system_manager.SystemManager`.
    """

    name = "winner"

    def __init__(self, system_manager: "SystemManager") -> None:
        self._manager = system_manager
        self.queries = 0
        self.fallbacks = 0

    def choose(self, group_name: str, candidates: Sequence[IOR]) -> IOR:
        self.queries += 1
        chosen = self._manager.place(candidates)
        if chosen is None:
            self.fallbacks += 1
            return candidates[0]
        return chosen


# -- the resolve fast path ------------------------------------------------------


@dataclass
class ResolveCacheStats:
    """Counters of one :class:`ResolveCache` (surfaced in runtime_report)."""

    hits: int = 0
    misses: int = 0
    epoch_invalidations: int = 0
    ttl_invalidations: int = 0
    breaker_invalidations: int = 0
    churn_invalidations: int = 0
    #: cache hits that returned a selection on a host the manager already
    #: considered dead.  The serve path re-checks liveness and breakers
    #: before every hit, so this stays 0 by construction — the chaos
    #: campaign's no-stale-resolve invariant asserts exactly that.
    stale_served: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class _CacheEntry:
    __slots__ = ("iors", "epoch", "expires_at", "cursor", "signature")

    def __init__(self, iors, epoch, expires_at, cursor, signature) -> None:
        self.iors = iors
        self.epoch = epoch
        self.expires_at = expires_at
        self.cursor = cursor
        self.signature = signature


class ResolveCache:
    """Memoized replica selection keyed on the Winner ranking epoch.

    A stored entry holds the ranked top-k replicas of one group; hits
    round-robin within them (per-name cursor), preserving the placement
    spread a fresh scoring pass would give.  An entry is only served while
    *all* of the following hold — the invalidation matrix:

    ==================  =========================================================
    epoch advance       a node-manager report changed some host's ranking score
    TTL expiry          covers drift the epoch cannot see (a host going silent
                        does not bump the epoch; it stops bumping it)
    breaker state       the chosen host's circuit breaker must admit traffic
                        *at serve time* (re-checked per hit, never cached)
    replica churn       ``bind_service``/``unbind_service`` changed the
                        candidate set since the entry was stored
    liveness            the chosen host must still be alive per the manager
                        (re-checked per hit, so no stale selection is served)
    ==================  =========================================================

    ``manager`` must be a *local* :class:`~repro.winner.system_manager.
    SystemManager` (or None for load-oblivious strategies: the whole
    breaker-filtered candidate list is cached and round-robined).
    """

    def __init__(
        self,
        sim: "Simulator",
        manager: Optional["SystemManager"] = None,
        breakers=None,
        ttl: float = 1.0,
        top_k: int = 3,
    ) -> None:
        self._sim = sim
        self._manager = manager
        self._breakers = breakers
        self.ttl = ttl
        self.top_k = max(1, top_k)
        self._entries: dict[str, _CacheEntry] = {}
        self.stats = ResolveCacheStats()

    def _epoch(self) -> int:
        return self._manager.ranking_epoch if self._manager is not None else 0

    def _usable(self, ior: IOR) -> bool:
        """Serve-time admission: breaker closed and host alive right now."""
        if self._breakers is not None and not self._breakers.available(ior.host):
            return False
        if self._manager is not None and not self._manager.is_alive(ior.host):
            return False
        return True

    def _count(self, counter: str) -> None:
        self._sim.obs.metrics.counter(
            f"naming_resolve_cache_{counter}_total"
        ).inc()

    def _miss(self, group_name: str, reason: Optional[str]) -> None:
        self._entries.pop(group_name, None)
        self.stats.misses += 1
        self._count("misses")
        if reason is not None:
            setattr(
                self.stats,
                f"{reason}_invalidations",
                getattr(self.stats, f"{reason}_invalidations") + 1,
            )
            self._sim.obs.metrics.counter(
                "naming_resolve_cache_invalidations_total", reason=reason
            ).inc()

    # analysis: atomic: stale_served=0 holds only if validity checks and the serve are one step
    def lookup(self, group_name: str, candidates: Sequence[IOR]) -> Optional[IOR]:
        """A memoized selection, or None (= miss; caller scores afresh)."""
        entry = self._entries.get(group_name)
        if entry is None:
            self.stats.misses += 1
            self._count("misses")
            return None
        if entry.epoch != self._epoch():
            self._miss(group_name, "epoch")
            return None
        if self._sim.now >= entry.expires_at:
            self._miss(group_name, "ttl")
            return None
        if entry.signature != frozenset(candidates):
            self._miss(group_name, "churn")
            return None
        for _ in range(len(entry.iors)):
            ior = entry.iors[entry.cursor % len(entry.iors)]
            entry.cursor += 1
            if not self._usable(ior):
                continue
            self.stats.hits += 1
            self._count("hits")
            if self._manager is not None:
                # Placement feedback must not stop when scoring does:
                # the scheduler still charges the hit against the host.
                self._manager.note_placement(ior.host)
            return ior
        # Every cached replica is breaker-rejected or dead: invalidate.
        self._miss(group_name, "breaker")
        return None

    # analysis: atomic: the entry must carry the epoch the ranking was computed under
    def store(
        self, group_name: str, candidates: Sequence[IOR], chosen: IOR
    ) -> None:
        """Cache a fresh selection plus the ranked top-k around it."""
        iors = self._ranked_iors(candidates, chosen)
        if chosen not in iors:
            iors.insert(0, chosen)
        cursor = iors.index(chosen) + 1  # the next hit spreads onward
        self._entries[group_name] = _CacheEntry(
            iors=iors,
            epoch=self._epoch(),
            expires_at=self._sim.now + self.ttl,
            cursor=cursor,
            signature=frozenset(candidates),
        )

    def _ranked_iors(self, candidates: Sequence[IOR], chosen: IOR) -> list[IOR]:
        usable = [ior for ior in candidates if self._usable(ior)]
        if not usable:
            return [chosen]
        if self._manager is None:
            return usable
        hosts = sorted({ior.host for ior in usable})
        ranked_hosts = self._manager.top_hosts(candidates=hosts, k=self.top_k)
        return [
            ior
            for host in ranked_hosts
            for ior in usable
            if ior.host == host
        ]

    def invalidate(self, group_name: Optional[str] = None) -> None:
        """Drop one group's entry (or all of them)."""
        if group_name is None:
            self._entries.clear()
        else:
            self._entries.pop(group_name, None)

    def snapshot(self) -> dict:
        return {
            "enabled": True,
            "entries": len(self._entries),
            "ttl": self.ttl,
            "top_k": self.top_k,
            **self.stats.to_dict(),
        }
