"""Runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.ft.policy import FtPolicy
from repro.orb.core import OrbConfig

#: selection strategies for the naming service, by name.
STRATEGY_NAMES = ("winner", "round-robin", "random", "first-bound")


@dataclass
class RuntimeConfig:
    """Declarative description of one complete deployment.

    Defaults model the paper's testbed: 10 homogeneous workstations on a
    LAN, Winner sampling once a second, the load-distributing naming
    service using the Winner strategy, the (deliberately inefficient)
    in-memory checkpoint store.
    """

    # cluster ----------------------------------------------------------------
    num_hosts: int = 10
    speeds: float | Sequence[float] = 1.0
    cores: int | Sequence[int] = 1
    latency: float = 0.5e-3
    bandwidth: float = 10e6
    seed: int = 0

    # winner -----------------------------------------------------------------
    winner_interval: float = 1.0
    #: host index running the system manager (and naming + store).
    service_host: int = 0

    #: send field-masked delta load reports instead of a full report per
    #: sampling tick (deadband and full-report interval: the NodeManager
    #: defaults).  Off = the paper's protocol.
    winner_delta_reports: bool = False

    # naming -----------------------------------------------------------------
    naming_strategy: str = "winner"
    #: memoize resolve selections until the Winner ranking epoch advances,
    #: the TTL expires, a breaker trips or the replica set churns (the
    #: resolve fast path; TTL and top-k: the ResolveCache defaults).
    #: Off = the paper's always-fresh behaviour.
    resolve_cache: bool = False
    #: CPU work charged per candidate scored on a resolve cache miss
    #: (0 = scoring is free, the paper's idealization).
    resolve_scoring_work: float = 0.0

    # fault tolerance ----------------------------------------------------------
    checkpoint_backend: str = "memory"  # or "disk"
    checkpoint_processing_work: float = 0.015
    #: automatically re-join restarted hosts (fresh ORB, node manager,
    #: factory) after this delay; None disables.
    auto_heal_delay: Optional[float] = 1.0
    #: enable per-host circuit breakers: the recovery coordinators share
    #: one breaker registry and the naming strategy filters replica
    #: selection through it (see repro.ft.breaker).  Off by default —
    #: the paper's fixed-retry behaviour stays the baseline.
    breakers: bool = False
    #: default FtPolicy for recovery coordinators and ft_proxy() when no
    #: explicit policy is given; None = FtPolicy() defaults.  The breaker
    #: thresholds in this policy parameterize the shared registry.
    recovery_policy: Optional["FtPolicy"] = None

    # orb ---------------------------------------------------------------------
    orb: OrbConfig = field(default_factory=OrbConfig)

    def validate(self) -> None:
        if self.naming_strategy not in STRATEGY_NAMES:
            raise ConfigurationError(
                f"naming_strategy must be one of {STRATEGY_NAMES}, "
                f"got {self.naming_strategy!r}"
            )
        if self.checkpoint_backend not in ("memory", "disk"):
            raise ConfigurationError(
                f"checkpoint_backend must be 'memory' or 'disk', "
                f"got {self.checkpoint_backend!r}"
            )
        if not 0 <= self.service_host < self.num_hosts:
            raise ConfigurationError(
                f"service_host {self.service_host} outside 0..{self.num_hosts - 1}"
            )
        if not self.winner_interval > 0:
            raise ConfigurationError("winner_interval must be positive")
        if not self.resolve_scoring_work >= 0:
            raise ConfigurationError("resolve_scoring_work must be >= 0")
