"""Load generators: background CPU load and open-loop client populations.

Fig. 3's independent variable is "number of hosts with background load": a
CPU-bound process competing with the application workers
(:class:`BackgroundLoad`).  Under processor sharing, one background process
on a host halves a co-located worker's rate; ``intensity=2`` models two
competing processes (worker gets a third), etc.

The scale harness needs something Fig. 3 does not: traffic from *millions*
of clients.  Scripting a worker process per client the way the paper's
experiments do would mean 10⁶ live generators — :class:`OpenLoopPopulation`
instead models the population the way a telephone-traffic engineer would:
requests arrive as an aggregate Poisson stream at a configured rate
(open-loop — arrivals do not wait for completions, so overload behaves like
overload), and each arrival is attributed to a uniformly drawn client id.
A client is that id and nothing more: the population keeps O(1) state
whatever its size.  No simulation process is created per request: the
arrival loop is one self-rescheduling kernel event and each request is one
CPU-task future plus a completion callback, so memory is O(in-flight) in
futures.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from functools import partial
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, ProcessKilled
from repro.sim.events import SimFuture
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.kernel import ScheduledEvent, Simulator


class BackgroundLoad:
    """A persistent CPU-bound background workload on one host.

    :param intensity: number of concurrent CPU-bound processes.
    :param chunk: work units consumed per scheduling quantum; small enough
        that load starts/stops take effect promptly, large enough to keep
        the event count low.
    """

    def __init__(self, host: "Host", intensity: int = 1, chunk: float = 1.0) -> None:
        self.host = host
        self.intensity = intensity
        self.chunk = chunk
        self._processes: list[Process] = []
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "BackgroundLoad":
        """Begin generating load; idempotent."""
        if self._running:
            return self
        self._running = True
        for i in range(self.intensity):
            process = self.host.spawn(self._burn(), name=f"bgload{i}")
            self._processes.append(process)
        return self

    def stop(self) -> None:
        """Stop generating load; idempotent."""
        if not self._running:
            return
        self._running = False
        processes, self._processes = self._processes, []
        for process in processes:
            process.kill()

    def _burn(self):
        try:
            while self._running and self.host.up:
                yield self.host.execute(self.chunk)
        except ProcessKilled:
            raise


class LatencyHistogram:
    """Fixed-memory latency accounting: log-spaced bins plus exact
    count/sum/min/max.  Quantiles are read from the bins (upper-edge
    estimate), so recording 10⁶ completions costs two short sequences,
    not a list of samples."""

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(
        self,
        low: float = 1e-5,
        high: float = 1e3,
        bins_per_decade: int = 16,
    ) -> None:
        decades = np.log10(high) - np.log10(low)
        # Plain lists: record() runs once per completion, and on arrays it
        # would pay a NumPy call and two NumPy scalars each time.
        self.edges: list[float] = np.logspace(
            np.log10(low), np.log10(high), int(decades * bins_per_decade) + 1
        ).tolist()
        # one underflow and one overflow bin around the edges.
        self.counts: list[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Upper edge of the bin holding the ``q``-quantile (0 if empty)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank))
        if index <= 0:
            return self.edges[0]
        if index >= len(self.edges):
            return self.max
        return self.edges[index]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class OpenLoopPopulation:
    """Open-loop Poisson traffic from a bounded-state client population.

    :param sim: the simulator (arrival draws come from
        ``sim.rng("loadgen", name)``, so two populations with different
        names have independent, reproducible streams).
    :param num_clients: population size; a client is the id drawn for an
        arrival, so the population keeps no per-client state.
    :param arrival_rate: aggregate λ in requests per simulated second.
    :param place: placement hook — called with the arriving client's id,
        returns the :class:`Host` to run the request on, or ``None`` to
        drop it (all replicas down).  The id lets service-affine harnesses
        route client *n* to its service's shard.
    :param request_work: CPU work units per request.
    """

    def __init__(
        self,
        sim: "Simulator",
        num_clients: int,
        arrival_rate: float,
        place: Callable[[int], Optional["Host"]],
        request_work: float = 1.0,
        name: str = "population",
    ) -> None:
        if num_clients < 1:
            raise ConfigurationError(f"need at least one client, got {num_clients}")
        if not arrival_rate > 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {arrival_rate}")
        self.sim = sim
        self.name = name
        self.num_clients = num_clients
        self.arrival_rate = arrival_rate
        self.place = place
        self.request_work = request_work
        self._rng = sim.rng("loadgen", name)
        self._next_arrival: Optional["ScheduledEvent"] = None
        self.running = False
        self.started_at = 0.0
        self.stopped_at = 0.0
        self.arrivals = 0
        self.dropped = 0
        self.failures = 0
        self.in_flight = 0
        self.latency = LatencyHistogram()
        #: rolling CRC-32 over the completion stream ``(client, time)`` —
        #: two runs are behaviourally identical iff fingerprints match.
        self.fingerprint = 0

    def start(self) -> "OpenLoopPopulation":
        if self.running:
            return self
        self.running = True
        self.started_at = self.sim.now
        self._next_arrival = self.sim.schedule(
            self._rng.exponential(1.0 / self.arrival_rate), self._arrive
        )
        return self

    def stop(self) -> None:
        """Stop generating arrivals (in-flight requests still complete)."""
        if not self.running:
            return
        self.running = False
        self.stopped_at = self.sim.now
        if self._next_arrival is not None:
            self._next_arrival.cancel()
            self._next_arrival = None

    # -- the arrival loop -----------------------------------------------------

    def _arrive(self) -> None:
        self._next_arrival = None
        if not self.running:
            return
        self._next_arrival = self.sim.schedule(
            self._rng.exponential(1.0 / self.arrival_rate), self._arrive
        )
        client = self._rng.integers(self.num_clients)
        self.arrivals += 1
        host = self.place(client)
        if host is None:
            self.dropped += 1
            return
        started = self.sim.now
        future = host.execute(self.request_work)
        self.in_flight += 1
        future.add_done_callback(partial(self._complete, client, started))

    def _complete(self, client: int, started: float, future: SimFuture) -> None:
        self.in_flight -= 1
        if future.failed:
            self.failures += 1
            return
        now = self.sim.now
        self.latency.record(now - started)
        self.fingerprint = zlib.crc32(
            f"{client},{now!r}".encode("ascii"), self.fingerprint
        )

    # -- reporting -------------------------------------------------------------

    @property
    def completions(self) -> int:
        return self.latency.count

    def empirical_rate(self) -> float:
        """Observed arrival rate over the generating window."""
        end = self.stopped_at if not self.running else self.sim.now
        window = end - self.started_at
        return self.arrivals / window if window > 0 else 0.0

    def stats(self) -> dict:
        end = self.stopped_at if not self.running else self.sim.now
        window = max(end - self.started_at, 1e-12)
        return {
            "clients": self.num_clients,
            "arrival_rate": self.arrival_rate,
            "empirical_rate": self.empirical_rate(),
            "arrivals": self.arrivals,
            "completions": self.completions,
            "throughput": self.completions / window,
            "dropped": self.dropped,
            "failures": self.failures,
            "in_flight": self.in_flight,
            "latency": self.latency.snapshot(),
            "fingerprint": self.fingerprint,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OpenLoopPopulation {self.name} clients={self.num_clients} "
            f"rate={self.arrival_rate} arrivals={self.arrivals}>"
        )
