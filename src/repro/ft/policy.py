"""Fault-tolerance policy knobs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: recognised retry-backoff modes.
BACKOFF_MODES = ("fixed", "decorrelated-jitter")

#: recognised checkpoint-failure dispositions.
CHECKPOINT_FAILURE_MODES = ("raise", "ignore", "degraded")

#: recognised checkpoint execution modes.
CHECKPOINT_MODES = ("sync", "pipelined")

#: multiplier for decorrelated jitter (next pause ~ U[base, prev * mult]).
BACKOFF_MULTIPLIER = 3.0

#: in delta mode, a full snapshot ships every k-th checkpoint so the
#: server-side restore chain stays bounded (at most k records).
CHECKPOINT_FULL_INTERVAL = 8

#: recognised fault-tolerance modes.  "checkpoint" is the paper's
#: checkpoint/restart design; the replication modes are the first-class
#: alternatives the paper argued against on resource grounds (§2).
FT_MODES = ("checkpoint", "warm-passive", "active")


@dataclass
class FtPolicy:
    """Tunables of the proxy-based checkpoint/restart mechanism.

    The paper's configuration is the default: a checkpoint after *every*
    successful method call.  ``checkpoint_interval > 1`` (checkpoint every
    k-th call) is the obvious optimization the ablation bench explores.

    Failure handling beyond the paper — gray failures, flapping hosts and
    storage outages livelock the original fixed-pause retry loop — is
    governed by the adaptive knobs: exponential backoff with decorrelated
    jitter (AWS-architecture-blog flavour: each pause is drawn uniformly
    from ``[base, prev * BACKOFF_MULTIPLIER]``, capped), a per-call
    recovery deadline, circuit-breaker thresholds consulted by the
    recovery coordinator, and a "degraded" checkpoint mode that buffers
    checkpoints client-side while the storage service is down.
    """

    #: checkpoint after every k-th successful call (1 = paper's behaviour).
    checkpoint_interval: int = 1
    #: how many times a single call may trigger recovery before giving up.
    max_call_retries: int = 3
    #: attempts to find a working factory host during one recovery.
    max_recover_attempts: int = 6
    #: pause between recovery attempts (lets Winner age out the dead host).
    #: Under ``backoff="decorrelated-jitter"`` this is the *base* pause.
    retry_backoff: float = 0.5
    #: "fixed" — every pause is ``retry_backoff`` (the seed behaviour);
    #: "decorrelated-jitter" — exponential backoff with decorrelated
    #: jitter, capped at ``backoff_cap``.
    backoff: str = "fixed"
    #: upper bound on a single backoff pause.
    backoff_cap: float = 8.0
    #: wall-clock (simulated) budget for one recovery; ``None`` = no
    #: deadline (the seed behaviour).  Exceeding it raises RecoveryError.
    recovery_deadline: Optional[float] = None
    #: consecutive failures against one host before its breaker opens.
    breaker_failure_threshold: int = 3
    #: seconds an open breaker waits before letting a probe through.
    breaker_reset_timeout: float = 5.0
    #: "raise" propagates a failed checkpoint to the caller; "ignore"
    #: drops it and continues (the call already succeeded); "degraded"
    #: buffers the checkpoint client-side and flushes when the store
    #: answers again.
    on_checkpoint_failure: str = "raise"
    #: most checkpoints buffered client-side in degraded mode (oldest
    #: are dropped first — recovery only ever needs the newest).
    checkpoint_buffer_limit: int = 8
    #: "sync" — the paper's behaviour: the wrapped call completes only
    #: after its checkpoint is fetched *and* stored.  "pipelined" — the
    #: call returns as soon as the invocation succeeds; the state fetch
    #: still happens under the proxy lock (so it cannot capture effects
    #: of a later call) but the store round-trip runs in a background
    #: process, overlapped with subsequent calls.
    checkpoint_mode: str = "sync"
    #: bounded in-flight window for pipelined mode: a new checkpoint
    #: stalls until fewer than this many stores are outstanding.
    checkpoint_pipeline_depth: int = 1
    #: ship recursive dict deltas against the previous checkpoint (with
    #: a content-hash skip for unchanged state) instead of full states;
    #: every ``CHECKPOINT_FULL_INTERVAL``-th checkpoint is still full.
    checkpoint_deltas: bool = False
    #: fault-tolerance design: "checkpoint" (paper's checkpoint/restart),
    #: "warm-passive" (primary executes, ships state to standbys, fast
    #: promotion without a store round-trip) or "active" (all replicas
    #: execute, replies are majority-voted).
    ft_mode: str = "checkpoint"
    #: replicas per group in the replication modes (primary + standbys
    #: for warm-passive; voters for active).
    replication_factor: int = 2
    #: locate-ping interval of the per-group FailureDetector watching the
    #: warm-passive primary; 0 disables proactive detection (failover then
    #: triggers only on a failed call).
    detector_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.max_call_retries < 0:
            raise ConfigurationError("max_call_retries must be >= 0")
        if self.max_recover_attempts < 1:
            raise ConfigurationError("max_recover_attempts must be >= 1")
        if not self.retry_backoff >= 0:
            raise ConfigurationError("retry_backoff must be >= 0")
        if self.backoff not in BACKOFF_MODES:
            raise ConfigurationError(
                f"backoff must be one of {BACKOFF_MODES}, got {self.backoff!r}"
            )
        if not self.backoff_cap > 0:
            raise ConfigurationError("backoff_cap must be positive")
        if self.recovery_deadline is not None and not self.recovery_deadline > 0:
            raise ConfigurationError("recovery_deadline must be positive")
        if self.breaker_failure_threshold < 1:
            raise ConfigurationError("breaker_failure_threshold must be >= 1")
        if not self.breaker_reset_timeout > 0:
            raise ConfigurationError("breaker_reset_timeout must be positive")
        if self.on_checkpoint_failure not in CHECKPOINT_FAILURE_MODES:
            raise ConfigurationError(
                "on_checkpoint_failure must be one of "
                f"{CHECKPOINT_FAILURE_MODES}"
            )
        if self.checkpoint_buffer_limit < 1:
            raise ConfigurationError("checkpoint_buffer_limit must be >= 1")
        if self.checkpoint_mode not in CHECKPOINT_MODES:
            raise ConfigurationError(
                f"checkpoint_mode must be one of {CHECKPOINT_MODES}, "
                f"got {self.checkpoint_mode!r}"
            )
        if self.checkpoint_pipeline_depth < 1:
            raise ConfigurationError("checkpoint_pipeline_depth must be >= 1")
        if self.ft_mode not in FT_MODES:
            raise ConfigurationError(
                f"ft_mode must be one of {FT_MODES}, got {self.ft_mode!r}"
            )
        if self.replication_factor < 2 and self.ft_mode != "checkpoint":
            raise ConfigurationError(
                "replication_factor must be >= 2 in replication modes"
            )
        if not self.detector_interval >= 0:
            raise ConfigurationError("detector_interval must be >= 0")

    def effective_quorum(self) -> int:
        """Matching replies an active-mode vote needs: a strict majority."""
        return self.replication_factor // 2 + 1

    def backoff_delay(self, previous: float, rng) -> float:
        """Next retry pause given the ``previous`` one.

        Pass ``previous <= 0`` for the first retry.  ``rng`` (a seeded
        :class:`~repro.sim.randomness.RandomStream`) is only consulted in
        decorrelated-jitter mode, so fixed-backoff schedules never perturb
        the random stream.
        """
        if self.backoff == "fixed":
            return self.retry_backoff
        base = self.retry_backoff
        if base <= 0:
            return 0.0
        prev = max(base, previous)
        return min(
            self.backoff_cap,
            rng.uniform(base, prev * BACKOFF_MULTIPLIER),
        )
