"""The load-distributing naming context — the paper's §2 contribution.

A name may hold a *service group*: several references to equivalent service
objects on different hosts, registered with ``bind_service``.  A plain
``resolve`` on such a name transparently returns **one** of them, chosen by
the configured :class:`~repro.services.naming.strategies.SelectionStrategy`
("requests from application objects to the naming service are resolved
using this load information for the selection of an appropriate server").

Because the interface *derives from* ``CosNaming::NamingContext``, client
code is unchanged — the transparency argument the paper makes against the
trader and ORB-locator alternatives.
"""

from __future__ import annotations

from typing import Optional

from repro.orb.ior import IOR
from repro.services.naming import idl
from repro.services.naming.context import NamingContextServant, _check_name, _key
from repro.services.naming.strategies import (
    FirstBoundStrategy,
    ResolveCache,
    SelectionStrategy,
)


class LoadDistributingContextServant(
    NamingContextServant, idl.LoadDistributingNamingContextSkeleton
):
    """Naming context where names can hold replica groups.

    :param resolve_cache: optional :class:`ResolveCache` — the resolve
        fast path.  When set, ``resolve`` serves memoized selections
        (without re-scoring or charging scoring work) until the cache
        invalidates; None keeps the paper's always-fresh behaviour.
    :param resolve_scoring_work: CPU work charged per candidate scored on
        a cache miss (0 = scoring is free, the paper's idealization; the
        benches set it so the cache's saving is visible in simulated time).
    """

    __repo_id__ = idl.LoadDistributingNamingContextSkeleton.__repo_id__
    __operations__ = idl.LoadDistributingNamingContextSkeleton.__operations__

    def __init__(
        self,
        strategy: Optional[SelectionStrategy] = None,
        resolve_cache: Optional[ResolveCache] = None,
        resolve_scoring_work: float = 0.0,
    ) -> None:
        super().__init__()
        self.strategy = strategy or FirstBoundStrategy()
        self.resolve_cache = resolve_cache
        self.resolve_scoring_work = resolve_scoring_work
        #: (id, kind) -> ordered replica IORs.
        self._groups: dict[tuple[str, str], list[IOR]] = {}
        self.resolutions = 0

    # -- group registration ------------------------------------------------------

    def bind_service(self, n, obj):
        name = _check_name(n)
        if len(name) > 1:
            raise idl.CannotProceed(
                why="bind_service applies to simple names only"
            )
        key = _key(name[0])
        if key in self._bindings:
            raise idl.AlreadyBound(
                why=f"{name[0].id} is a plain binding, not a group"
            )
        group = self._groups.setdefault(key, [])
        if any(existing == obj for existing in group):
            raise idl.AlreadyBound(why="replica already registered")
        group.append(obj)
        self._invalidate_cache(name[0])

    def unbind_service(self, n, obj):
        name = _check_name(n)
        key = _key(name[0])
        group = self._groups.get(key)
        if not group or obj not in group:
            raise idl.NotFound(why="no such replica", rest_of_name=list(name))
        group.remove(obj)
        if not group:
            del self._groups[key]
        self._invalidate_cache(name[0])

    def _invalidate_cache(self, component) -> None:
        """Replica churn drops the group's memoized selection eagerly
        (the cache's candidate-signature check is the backstop)."""
        if self.resolve_cache is not None:
            self.resolve_cache.invalidate(f"{component.id}.{component.kind}")

    def replica_count(self, n):
        name = _check_name(n)
        group = self._groups.get(_key(name[0]))
        if group is None:
            raise idl.NotFound(why="no such group", rest_of_name=list(name))
        return len(group)

    def resolve_all(self, n):
        name = _check_name(n)
        group = self._groups.get(_key(name[0]))
        if group is None:
            raise idl.NotFound(why="no such group", rest_of_name=list(name))
        # Defensive copy: this is the servant's internal binding list, and
        # co-located callers get the return value by reference — handing
        # it out uncopied would let them mutate naming state.
        return list(group)

    # -- overridden standard operations ----------------------------------------------

    def resolve(self, n):
        name = _check_name(n)
        if len(name) == 1:
            group = self._groups.get(_key(name[0]))
            if group:
                self.resolutions += 1
                group_label = f"{name[0].id}.{name[0].kind}"
                if self._poa is not None:
                    self._poa.orb.sim.obs.metrics.counter(
                        "naming_resolutions_total", group=group_label
                    ).inc()
                candidates = list(group)
                if self.resolve_cache is not None:
                    cached = self.resolve_cache.lookup(group_label, candidates)
                    if cached is not None:
                        return cached
                if self.resolve_scoring_work > 0.0 and self._poa is not None:
                    # Scoring walks every replica's host record; a cache
                    # hit above skips this entirely.
                    yield self._host().execute(
                        self.resolve_scoring_work * len(candidates)
                    )
                outcome = self.strategy.choose(group_label, candidates)
                if self.resolve_cache is not None and isinstance(outcome, IOR):
                    self.resolve_cache.store(group_label, candidates, outcome)
                return outcome
        result = yield from super().resolve(n)
        return result

    def unbind(self, n):
        name = _check_name(n)
        if len(name) == 1 and _key(name[0]) in self._groups:
            del self._groups[_key(name[0])]
            return
        yield from super().unbind(n)

    def bind(self, n, obj):
        name = _check_name(n)
        if len(name) == 1 and _key(name[0]) in self._groups:
            raise idl.AlreadyBound(why=f"{name[0].id} is a service group")
        yield from super().bind(n, obj)

    def rebind(self, n, obj):
        name = _check_name(n)
        if len(name) == 1 and _key(name[0]) in self._groups:
            # A plain rebind must not silently shadow a replica group.
            raise idl.CannotProceed(
                why=f"{name[0].id} is a service group; unbind it first"
            )
        yield from super().rebind(n, obj)

    def list_bindings(self, how_many):
        from repro.services.naming.names import NameComponent

        bindings = list(super().list_bindings(0))
        for (id_part, kind_part) in sorted(self._groups):
            bindings.append(
                idl.Binding(
                    binding_name=[NameComponent(id_part, kind_part)],
                    binding_type=idl.BindingType.nobject,
                )
            )
        bindings.sort(key=lambda b: (b.binding_name[0].id, b.binding_name[0].kind))
        limit = len(bindings) if how_many <= 0 else how_many
        return bindings[:limit]

    def destroy(self):
        if self._groups:
            raise idl.NotEmpty(why=f"{len(self._groups)} groups remain")
        super().destroy()
