"""Failure injection.

Deterministic failure schedules for the fault-tolerance experiments.  The
original fault model was a single shape — clean host crash with optional
restart (:class:`FailurePlan`).  The chaos campaigns exercise the gray
failure modes production CORBA systems actually see (Milcinski et al.,
"Experiences with Advanced CORBA Services"): network partitions with a
scheduled heal, latency/jitter surges, message-loss bursts, slow ("gray")
hosts, flapping hosts and checkpoint-storage outages.  Every injector is
driven off the simulator's seeded clock/RNG, so any chaos run replays
bit-identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

_INF = float("inf")


@dataclass(frozen=True)
class FailurePlan:
    """One scheduled failure: crash ``host`` at ``crash_at``; optionally
    restart it ``restart_after`` seconds later."""

    host: str
    crash_at: float
    restart_after: Optional[float] = None

    def validate(self) -> None:
        if not self.crash_at >= 0:
            raise ConfigurationError("crash_at must be non-negative")
        if self.restart_after is not None and not self.restart_after > 0:
            raise ConfigurationError("restart_after must be positive")

    @property
    def down_window(self) -> tuple[float, float]:
        """``[crash, restart)`` interval; open-ended without a restart."""
        if self.restart_after is None:
            return (self.crash_at, _INF)
        return (self.crash_at, self.crash_at + self.restart_after)

    def overlaps(self, other: "FailurePlan") -> bool:
        """True when both plans put the *same* host down at the same time
        (including a restart landing inside the other plan's down window —
        the schedule would restart a host the later crash assumes is up)."""
        if self.host != other.host:
            return False
        a0, a1 = self.down_window
        b0, b1 = other.down_window
        return a0 < b1 and b0 < a1


class FailureInjector:
    """Applies deterministic fault schedules to a cluster.

    Crash/restart plans go through :meth:`schedule`, which rejects plans
    whose down windows overlap an already-scheduled plan for the same host
    (an overlapping restart would silently revive a host mid-crash and
    corrupt the experiment).  The chaos-mode injectors
    (:meth:`schedule_partition`, :meth:`schedule_latency_spike`, ...)
    record what they installed in :attr:`chaos_events` for reporting.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.injected: list[FailurePlan] = []
        #: chaos injections, as ``{"kind": ..., "at": ..., ...}`` records.
        self.chaos_events: list[dict] = []

    # -- crash/restart plans --------------------------------------------------

    def schedule(self, plan: FailurePlan) -> None:
        plan.validate()
        host = self.cluster.host(plan.host)  # validates host name
        for existing in self.injected:
            if plan.overlaps(existing):
                raise ConfigurationError(
                    f"plan {plan} overlaps the down window of {existing}"
                )
        sim = self.cluster.sim
        sim.schedule_at(plan.crash_at, host.crash)
        if plan.restart_after is not None:
            sim.schedule_at(plan.crash_at + plan.restart_after, host.restart)
        self.injected.append(plan)

    def schedule_all(self, plans: Sequence[FailurePlan]) -> None:
        for plan in plans:
            self.schedule(plan)

    # -- chaos injectors -------------------------------------------------------

    def _record(self, kind: str, **details) -> None:
        self.chaos_events.append({"kind": kind, **details})

    def schedule_partition(
        self,
        a: str,
        b: str,
        at: float,
        heal_after: Optional[float] = None,
    ) -> None:
        """Partition hosts ``a`` and ``b`` at ``at``; heal ``heal_after``
        seconds later (None = never heals by itself)."""
        self.cluster.host(a), self.cluster.host(b)  # validate
        if heal_after is not None and not heal_after > 0:
            raise ConfigurationError("heal_after must be positive")
        network = self.cluster.network
        sim = self.cluster.sim
        sim.schedule_at(at, lambda: network.partition(a, b))
        if heal_after is not None:
            sim.schedule_at(at + heal_after, lambda: network.unpartition(a, b))
        self._record("partition", a=a, b=b, at=at, heal_after=heal_after)

    def schedule_latency_spike(
        self,
        at: float,
        duration: float,
        factor: float = 1.0,
        extra: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Surge every path's latency for ``duration`` seconds."""
        if not duration > 0:
            raise ConfigurationError("duration must be positive")
        network = self.cluster.network
        sim = self.cluster.sim
        sim.schedule_at(
            at, lambda: network.set_latency_surge(factor, extra, jitter)
        )
        sim.schedule_at(at + duration, network.clear_latency_surge)
        self._record(
            "latency-spike",
            at=at,
            duration=duration,
            factor=factor,
            extra=extra,
            jitter=jitter,
        )

    def schedule_loss_burst(
        self,
        at: float,
        duration: float,
        rate: float,
        ports: Optional[set] = None,
    ) -> None:
        """Drop each matching datagram with probability ``rate`` for
        ``duration`` seconds (see :meth:`Network.set_loss_rate`)."""
        if not duration > 0:
            raise ConfigurationError("duration must be positive")
        network = self.cluster.network
        sim = self.cluster.sim
        sim.schedule_at(at, lambda: network.set_loss_rate(rate, ports))
        sim.schedule_at(at + duration, lambda: network.set_loss_rate(0.0))
        self._record(
            "loss-burst", at=at, duration=duration, rate=rate,
            ports=sorted(ports) if ports else None,
        )

    def schedule_gray_host(
        self,
        host: str,
        at: float,
        factor: float = 0.2,
        duration: Optional[float] = None,
    ) -> None:
        """Degrade ``host`` to ``factor`` of its nominal CPU rate at
        ``at``; restore after ``duration`` (None = stays degraded)."""
        host_obj = self.cluster.host(host)
        if duration is not None and not duration > 0:
            raise ConfigurationError("duration must be positive")
        sim = self.cluster.sim
        sim.schedule_at(at, lambda: host_obj.degrade(factor))
        if duration is not None:
            sim.schedule_at(at + duration, host_obj.restore_speed)
        self._record(
            "gray-host", host=host, at=at, factor=factor, duration=duration
        )

    def schedule_flapping(
        self,
        host: str,
        at: float,
        cycles: int,
        down_time: float,
        up_time: float,
    ) -> None:
        """Crash/restart ``host`` repeatedly: ``cycles`` rounds of
        ``down_time`` seconds down followed by ``up_time`` seconds up."""
        host_obj = self.cluster.host(host)
        if cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        if not down_time > 0 or not up_time > 0:
            raise ConfigurationError("down_time and up_time must be positive")
        sim = self.cluster.sim
        t = at
        for _ in range(cycles):
            sim.schedule_at(t, host_obj.crash)
            sim.schedule_at(t + down_time, host_obj.restart)
            t += down_time + up_time
        self._record(
            "flapping",
            host=host,
            at=at,
            cycles=cycles,
            down_time=down_time,
            up_time=up_time,
        )

    def schedule_store_outage(self, store, at: float, duration: float) -> None:
        """Take a checkpoint store servant offline for ``duration`` seconds
        (it raises ``TRANSIENT`` on every request while down)."""
        if not duration > 0:
            raise ConfigurationError("duration must be positive")
        if not hasattr(store, "set_available"):
            raise ConfigurationError(
                f"{type(store).__name__} does not support outages"
            )
        sim = self.cluster.sim
        sim.schedule_at(at, lambda: store.set_available(False))
        sim.schedule_at(at + duration, lambda: store.set_available(True))
        self._record("store-outage", at=at, duration=duration)
