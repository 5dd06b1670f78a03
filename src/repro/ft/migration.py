"""Load-triggered service migration.

"If a class offers this functionality for checkpointing and restoring a
certain internal state it is in principle possible to migrate a service
from [one] host to another one not only when an error occured but also due
to a changing load situation on a host." (§3)

:func:`migrate_service` is the mechanism (checkpoint → create on target →
restore → rebind → destroy source); :class:`MigrationPolicy` is the
watcher that triggers it when Winner says the current host has become
significantly worse than the best available one.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ProcessKilled, RecoveryError, SystemException
from repro.ft.factory import ObjectFactoryStub
from repro.ft.recovery import RESTORE_FROM

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb
    from repro.sim.process import Process
    from repro.winner.system_manager import SystemManager


def migrate_service(proxy, naming, target_host: str):
    """Generator: move the proxy's service object to ``target_host``.

    Steps: take a fresh checkpoint; find the target host's factory in the
    factory group; create a new servant there; restore the checkpoint;
    rebind the proxy (and the service's naming group); destroy the source
    object.  Returns the new IOR.
    """
    ft = proxy._ft
    if proxy.ior.host == target_host:
        return proxy.ior
    recovery = ft.recovery
    if recovery is None or ft.store is None:
        raise RecoveryError("migration needs a recovery coordinator and a store")

    # Exclude in-flight calls for the duration of the move: a call landing
    # on the source after the checkpoint would be silently lost.
    yield proxy._ft_lock.acquire()
    try:
        result = yield from _migrate_locked(proxy, naming, target_host)
    finally:
        proxy._ft_lock.release()
    return result


def _migrate_locked(proxy, naming, target_host: str):
    ft = proxy._ft
    orb = proxy._orb
    old_ior = proxy.ior
    if old_ior.host == target_host:
        return old_ior  # someone moved it while we waited for the lock
    started = orb.sim.now
    with orb.sim.obs.tracer.span(
        "ft:migrate",
        host=orb.host.name,
        service=ft.key,
        src=old_ior.host,
        dst=target_host,
    ):
        new_ior = yield from _migrate_steps(
            proxy, naming, target_host, old_ior
        )
    orb.sim.obs.metrics.counter(
        "ft_migrations_total", service=ft.key
    ).inc()
    orb.sim.obs.metrics.histogram(
        "ft_migration_seconds", service=ft.key
    ).observe(orb.sim.now - started)
    return new_ior


def _migrate_steps(proxy, naming, target_host: str, old_ior):
    ft = proxy._ft
    orb = proxy._orb
    recovery = ft.recovery

    # 1. capture current state.
    yield from proxy._take_checkpoint()

    # 2. locate the target host's factory in the factory group.
    factories = yield naming.resolve_all(recovery.factory_group)
    factory_ior = next((f for f in factories if f.host == target_host), None)
    if factory_ior is None:
        raise RecoveryError(f"no object factory on host {target_host!r}")
    factory = orb.stub(factory_ior, ObjectFactoryStub)

    # 3. create and restore.
    new_ior = yield factory.create(ft.type_name)
    state = yield ft.store.load(ft.key)
    yield orb.invoke(new_ior, RESTORE_FROM, (state,))

    # 4. swap naming-group binding (the recovery path's own swap) and
    # rebind the proxy.
    yield from recovery._swap_group_binding(ft, old_ior, new_ior)
    proxy._rebind(new_ior)

    # 5. retire the old instance (best effort: its host may be the reason
    # we are leaving).
    old_factory_ior = next((f for f in factories if f.host == old_ior.host), None)
    if old_factory_ior is not None:
        try:
            yield orb.stub(old_factory_ior, ObjectFactoryStub).destroy_object(old_ior)
        # analysis: ignore[EXC003]: best-effort retirement — the old host may be down, which is why we migrated
        except SystemException:
            pass
    return new_ior


class MigrationPolicy:
    """Monitors Winner and migrates a service off overloaded hosts.

    Triggers when the best host's score exceeds the current host's score by
    ``improvement_factor`` (hysteresis against flapping).
    """

    def __init__(
        self,
        proxy,
        naming,
        system_manager: "SystemManager",
        interval: float = 2.0,
        improvement_factor: float = 1.6,
    ) -> None:
        self.proxy = proxy
        self.naming = naming
        self.manager = system_manager
        self.interval = interval
        self.improvement_factor = improvement_factor
        self._process: Optional["Process"] = None
        self.migrations = 0
        self.checks = 0

    def start(self) -> "MigrationPolicy":
        if self._process is None or self._process.is_done:
            orb = self.proxy._orb
            self._process = orb.host.spawn(self._run(), name="migration-policy")
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _run(self):
        orb = self.proxy._orb
        sim = orb.sim
        try:
            while True:
                yield sim.timeout(self.interval)
                self.checks += 1
                current = self.proxy.ior.host
                best = self.manager.best_host()
                if best is None or best == current:
                    continue
                # Discount the service's own task and its own placement
                # record from the current host so a busy-but-otherwise-idle
                # home does not trigger flapping.
                current_score = self.manager.score(
                    current, run_queue_discount=1.0, placement_discount=1
                )
                best_score = self.manager.score(best)
                if current_score <= 0 or (
                    best_score >= current_score * self.improvement_factor
                ):
                    try:
                        yield from migrate_service(self.proxy, self.naming, best)
                        self.manager.note_placement(best)
                        self.migrations += 1
                    # analysis: ignore[EXC003]: failed migration leaves the service where it was — retried next round
                    except (RecoveryError, SystemException):
                        continue
        except ProcessKilled:
            raise
