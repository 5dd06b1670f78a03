"""Sharded naming: spread the resolve load over many context servants.

The paper's naming service is a single context servant — every client's
``resolve`` lands on one host, which at harness scale (10⁵–10⁶ clients)
makes that host the bottleneck long before any worker saturates.  The
standard fix is horizontal partitioning: deploy *K* ordinary context
servants and route each name to exactly one of them by a stable hash of
the name's first component.

Two layers:

* :func:`shard_index` / :class:`ShardedNameRouter` — the client-side
  router.  It holds references to ``K`` naming contexts (servants or ORB
  stubs — anything speaking the context interface) and forwards each
  operation to the shard the name hashes to.  No new IDL and no server
  cooperation: each shard is an unmodified
  :class:`~repro.services.naming.load_aware.LoadDistributingContextServant`,
  so everything the single-context deployment supports (groups, selection
  strategies, the resolve cache) works per shard unchanged.
* :class:`ShardedServiceDirectory` — an ORB-free equivalent used by the
  scale harness, where running a full ORB per client is exactly the
  overhead being avoided.  Same routing function, same per-shard counters,
  so the harness measures the same spread the CORBA deployment would see.

The hash is CRC-32, not Python's ``hash()``: ``hash()`` of a str depends
on ``PYTHONHASHSEED``, which would make shard assignment — and therefore
placement order and every downstream golden — nondeterministic across
runs.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional, Sequence

from repro.errors import ConfigurationError, NamingError
from repro.services.naming.names import NameLike, to_name


def shard_key(name: NameLike) -> str:
    """The routing key: the name's *first* component, in ``id.kind`` form.

    Routing on the first component keeps a compound name and all its
    sub-context traversals on one shard.
    """
    components = to_name(name)
    first = components[0]
    return f"{first.id}.{first.kind}"


def shard_index(name: NameLike, num_shards: int) -> int:
    """Deterministic shard assignment for ``name`` (CRC-32 of the key)."""
    if num_shards < 1:
        raise ConfigurationError(f"need at least one shard, got {num_shards}")
    return zlib.crc32(shard_key(name).encode("utf-8")) % num_shards


class ShardedNameRouter:
    """Client-side fan-out over ``K`` naming contexts.

    :param contexts: the shard contexts in a fixed order (order *is* the
        shard numbering — every client must construct its router with the
        same sequence).
    """

    def __init__(self, contexts: Sequence[Any]) -> None:
        if not contexts:
            raise ConfigurationError("ShardedNameRouter needs at least one shard")
        self.contexts: list[Any] = list(contexts)
        self.resolutions_by_shard: list[int] = [0] * len(self.contexts)
        self.binds_by_shard: list[int] = [0] * len(self.contexts)

    @property
    def num_shards(self) -> int:
        return len(self.contexts)

    def shard_for(self, name: NameLike) -> int:
        return shard_index(name, len(self.contexts))

    def context_for(self, name: NameLike) -> Any:
        return self.contexts[self.shard_for(name)]

    # -- forwarded operations ------------------------------------------------

    def bind(self, name: NameLike, obj: Any) -> None:
        shard = self.shard_for(name)
        self.binds_by_shard[shard] += 1
        self.contexts[shard].bind(to_name(name), obj)

    def rebind(self, name: NameLike, obj: Any) -> None:
        shard = self.shard_for(name)
        self.binds_by_shard[shard] += 1
        self.contexts[shard].rebind(to_name(name), obj)

    def bind_service(self, name: NameLike, obj: Any) -> None:
        shard = self.shard_for(name)
        self.binds_by_shard[shard] += 1
        self.contexts[shard].bind_service(to_name(name), obj)

    def unbind_service(self, name: NameLike, obj: Any) -> None:
        self.context_for(name).unbind_service(to_name(name), obj)

    def resolve(self, name: NameLike) -> Any:
        shard = self.shard_for(name)
        self.resolutions_by_shard[shard] += 1
        return self.contexts[shard].resolve(to_name(name))

    def resolve_all(self, name: NameLike) -> Any:
        shard = self.shard_for(name)
        self.resolutions_by_shard[shard] += 1
        return self.contexts[shard].resolve_all(to_name(name))

    def replica_count(self, name: NameLike) -> int:
        return int(self.context_for(name).replica_count(to_name(name)))

    def unbind(self, name: NameLike) -> None:
        self.context_for(name).unbind(to_name(name))

    # -- reporting ------------------------------------------------------------

    def spread(self) -> dict:
        """How evenly the resolve traffic landed across shards."""
        total = sum(self.resolutions_by_shard)
        peak = max(self.resolutions_by_shard) if total else 0
        return {
            "shards": len(self.contexts),
            "resolutions": total,
            "per_shard": list(self.resolutions_by_shard),
            "peak_share": (peak / total) if total else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardedNameRouter shards={len(self.contexts)}>"


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

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def _locate(self, service: str) -> tuple[int, str]:
        # shard_key() of the one-component name (service, kind ""), without
        # building and re-validating that name on every resolve
        key = service + "."
        return zlib.crc32(key.encode("utf-8")) % len(self._shards), key

    def register(self, service: str, replica: Any) -> None:
        shard, key = self._locate(service)
        group = self._shards[shard].setdefault(key, [])
        if replica in group:
            raise NamingError(f"replica already registered under {service!r}")
        group.append(replica)

    def deregister(self, service: str, replica: Any) -> None:
        shard, key = self._locate(service)
        group = self._shards[shard].get(key)
        if not group or replica not in group:
            raise NamingError(f"no such replica under {service!r}")
        group.remove(replica)
        if not group:
            del self._shards[shard][key]
            # the cursor goes with its group: a later group under this name
            # starts at its first replica, and the table holds live names only
            self._cursors[shard].pop(key, None)

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

    def resolve_all(self, service: str) -> list[Any]:
        shard, key = self._locate(service)
        group = self._shards[shard].get(key)
        if not group:
            raise NamingError(f"nothing bound under {service!r}")
        self.resolutions_by_shard[shard] += 1
        return list(group)

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
