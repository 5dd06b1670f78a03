"""Sharded naming: spread the resolve load over many directory shards.

The paper's naming service is a single context servant — every client's
``resolve`` lands on one host, which at harness scale (10⁵–10⁶ clients)
makes that host the bottleneck long before any worker saturates.  The
standard fix is horizontal partitioning: *K* shards, each name routed to
exactly one of them by a stable hash of the name.

:class:`ShardedServiceDirectory` is that partitioning without an ORB, for
the scale harness, where running a full ORB per client is exactly the
overhead being avoided: a service name maps to its replica group on one
shard, resolves go round robin per name, and per-shard counters measure
the spread.  A CORBA deployment would shard the same way, with an
unmodified :class:`~repro.services.naming.load_aware.LoadDistributingContextServant`
per shard; no experiment runs one, so no client-side router is kept.

The hash is CRC-32 of ``"<service>."`` (the ``id.kind`` form of the
one-component name), not Python's ``hash()``: ``hash()`` of a str depends
on ``PYTHONHASHSEED``, which would make shard assignment — and therefore
placement order and every downstream golden — nondeterministic across
runs.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.errors import ConfigurationError, NamingError


class ShardedServiceDirectory:
    """ORB-free sharded name → replica-group directory for the harness.

    Each shard is a plain dict plus a per-name round-robin cursor — the
    deterministic stand-in for a shard's
    :class:`~repro.services.naming.strategies.RoundRobinStrategy` context.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"need at least one shard, got {num_shards}")
        self._shards: list[dict[str, list[Any]]] = [
            {} for _ in range(num_shards)
        ]
        self._cursors: list[dict[str, int]] = [{} for _ in range(num_shards)]
        self.resolutions_by_shard: list[int] = [0] * num_shards

    def _locate(self, service: str) -> tuple[int, str]:
        # the id.kind form of the one-component name (service, kind "")
        key = service + "."
        return zlib.crc32(key.encode("utf-8")) % len(self._shards), key

    def register(self, service: str, replica: Any) -> None:
        shard, key = self._locate(service)
        group = self._shards[shard].setdefault(key, [])
        if replica in group:
            raise NamingError(f"replica already registered under {service!r}")
        group.append(replica)

    def resolve(self, service: str) -> Any:
        """Next replica for ``service`` (per-name round robin)."""
        shard, key = self._locate(service)
        group = self._shards[shard].get(key)
        if not group:
            raise NamingError(f"nothing bound under {service!r}")
        self.resolutions_by_shard[shard] += 1
        cursor = self._cursors[shard]
        index = cursor.get(key, 0) % len(group)
        cursor[key] = index + 1
        return group[index]

    def spread(self) -> dict:
        total = sum(self.resolutions_by_shard)
        peak = max(self.resolutions_by_shard) if total else 0
        return {
            "shards": len(self._shards),
            "resolutions": total,
            "per_shard": list(self.resolutions_by_shard),
            "peak_share": (peak / total) if total else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = sum(len(s) for s in self._shards)
        return (
            f"<ShardedServiceDirectory shards={len(self._shards)} "
            f"names={names}>"
        )
