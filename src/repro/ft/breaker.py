"""Per-host circuit breakers for the recovery path.

A dead or flapping host keeps attracting recovery traffic: the naming
service re-offers its factory the moment the host re-binds, and every
attempt against it burns a full COMM_FAILURE round trip plus backoff.
The classic closed/open/half-open breaker bounds that wasted work (Dwork
et al.'s "performing work efficiently in the presence of faults" concern,
applied to the control plane):

* **closed** — traffic flows; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the host is
  blacklisted; requests are rejected locally without touching the wire.
* **half-open** — ``reset_timeout`` seconds later up to ``half_open_max``
  probe requests may pass; one success closes the breaker, one failure
  re-opens it (and restarts the timeout).

Breakers are shared through a :class:`HostBreakerRegistry`: the recovery
coordinator records outcomes and consults it before using a factory, and
the load-aware naming resolver (via
:class:`~repro.services.naming.strategies.BreakerAwareStrategy`) filters
recently failed hosts out of replica selection.  All timing uses the
simulated clock, so breaker behaviour is deterministic per seed.
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: numeric encoding for the ``ft_breaker_state`` gauge.
STATE_CODES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class CircuitBreaker:
    """One host's breaker (see module docstring for the state machine)."""

    def __init__(
        self,
        sim: "Simulator",
        host: str,
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        half_open_max: int = 1,
    ) -> None:
        self.sim = sim
        self.host = host
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max = half_open_max
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        # counters for invariant checks and the chaos report
        self.opens = 0
        self.closes = 0
        self.rejections = 0
        self.probes = 0

    # -- state ----------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, applying the open → half-open timeout lazily."""
        if (
            self._state == OPEN
            and self.sim.now - self._opened_at >= self.reset_timeout
        ):
            self._transition(HALF_OPEN)
        return self._state

    @property
    def available(self) -> bool:
        """Non-mutating view used by replica *selection*: True unless the
        breaker is open and still inside its reset timeout.  Does not
        consume a half-open probe slot."""
        return self.state != OPEN

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        if state == HALF_OPEN:
            self._probes_inflight = 0
        metrics = self.sim.obs.metrics
        metrics.counter(
            "ft_breaker_transitions_total", host=self.host, to=state
        ).inc()
        metrics.gauge("ft_breaker_state", host=self.host).set(
            STATE_CODES[state]
        )

    # -- traffic decisions -----------------------------------------------------

    # analysis: atomic: state read + probe-slot consumption must be one indivisible decision
    def allow(self) -> bool:
        """May a request be sent to this host right now?

        In half-open state a True answer consumes one of the
        ``half_open_max`` probe slots; report the outcome through
        :meth:`record_success`/:meth:`record_failure`.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN:
            if self._probes_inflight < self.half_open_max:
                self._probes_inflight += 1
                self.probes += 1
                return True
            self.rejections += 1
            self._count_rejection()
            return False
        self.rejections += 1
        self._count_rejection()
        return False

    def _count_rejection(self) -> None:
        self.sim.obs.metrics.counter(
            "ft_breaker_rejections_total", host=self.host
        ).inc()

    # -- outcome reports --------------------------------------------------------

    # analysis: atomic: breaker transitions may not interleave with other outcome reports
    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state != CLOSED:
            self.closes += 1
            self._transition(CLOSED)

    # analysis: atomic: breaker transitions may not interleave with other outcome reports
    def record_failure(self) -> None:
        state = self.state
        if state == HALF_OPEN:
            # The probe failed: straight back to open, timer restarted.
            self._open()
            return
        self._consecutive_failures += 1
        if state == CLOSED and self._consecutive_failures >= self.failure_threshold:
            self._open()

    def _open(self) -> None:
        self._opened_at = self.sim.now
        self._consecutive_failures = 0
        self.opens += 1
        self._transition(OPEN)

    def snapshot(self) -> dict:
        return {
            "host": self.host,
            "state": self.state,
            "opens": self.opens,
            "closes": self.closes,
            "rejections": self.rejections,
            "probes": self.probes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CircuitBreaker {self.host} {self.state}>"


class HostBreakerRegistry:
    """Shared per-host breakers, created lazily on first use."""

    def __init__(
        self,
        sim: "Simulator",
        failure_threshold: int = 3,
        reset_timeout: float = 5.0,
        half_open_max: int = 1,
    ) -> None:
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max = half_open_max
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, host: str) -> CircuitBreaker:
        breaker = self._breakers.get(host)
        if breaker is None:
            breaker = CircuitBreaker(
                self.sim,
                host,
                failure_threshold=self.failure_threshold,
                reset_timeout=self.reset_timeout,
                half_open_max=self.half_open_max,
            )
            self._breakers[host] = breaker
        return breaker

    def allow(self, host: str) -> bool:
        return self.breaker(host).allow()

    def available(self, host: str) -> bool:
        breaker = self._breakers.get(host)
        return breaker.available if breaker is not None else True

    def record_success(self, host: str) -> None:
        self.breaker(host).record_success()

    def record_failure(self, host: str) -> None:
        self.breaker(host).record_failure()

    def snapshot(self) -> list[dict]:
        return [b.snapshot() for _, b in sorted(self._breakers.items())]

    def __iter__(self) -> Iterable[CircuitBreaker]:
        return iter(self._breakers.values())
