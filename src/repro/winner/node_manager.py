"""The per-workstation node manager daemon.

"There is one node manager on each participating workstation, periodically
measuring the node's performance and system load."  Each sampling interval
it reads the CPU's busy-time integral (utilization over the window) and the
run-queue length and fires a report datagram at the system manager.  It is
a plain host-bound process: it dies with its host — which is precisely how
the system manager notices dead machines (reports stop arriving)."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import ProcessKilled
from repro.winner.metrics import LoadSample
from repro.winner.protocol import (
    LoadReport,
    LoadReportDelta,
    SYSTEM_MANAGER_PORT,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.network import Network
    from repro.obs.metrics import Counter, Gauge
    from repro.sim.process import Process

#: source port node managers send from.
NODE_MANAGER_PORT = 7789


class NodeManager:
    """Measures one host and reports to the system manager."""

    def __init__(
        self,
        host: "Host",
        network: "Network",
        manager_host: str,
        manager_port: int = SYSTEM_MANAGER_PORT,
        interval: float = 1.0,
        jitter: float = 0.05,
        delta_reports: bool = False,
        deadband: float = 0.02,
        full_interval: int = 8,
    ) -> None:
        self.host = host
        self.network = network
        self.manager_host = manager_host
        self.manager_port = manager_port
        self.interval = interval
        self.jitter = jitter
        #: send field-masked deltas instead of a full report per tick;
        #: off by default (the paper's protocol ships full reports).
        self.delta_reports = delta_reports
        #: minimum CPU-utilization movement (absolute, utilization is in
        #: [0, 1]) before the field travels in a delta.
        self.deadband = deadband
        #: a full report every this many reports bounds collector drift
        #: (and re-seeds a collector that restarted mid-stream).
        self.full_interval = max(1, full_interval)
        self._process: Optional["Process"] = None
        self._seq = 0
        self._last_busy_integral = 0.0
        self._last_sample_time = host.sim.now
        self.samples_taken = 0
        #: last values actually *sent* per field (deadband compares
        #: against what the collector holds, not the previous sample).
        self._sent_cpu: Optional[float] = None
        self._sent_run_queue: Optional[int] = None
        self._sent_speed: Optional[float] = None
        self._sent_cores: Optional[int] = None
        self._since_full = 0
        self._last_send_time: Optional[float] = None
        self.full_reports_sent = 0
        self.delta_reports_sent = 0
        self.reports_coalesced = 0
        self.report_bytes_sent = 0
        #: this host's series, each bound at its first use.
        self._cpu_gauge: Optional["Gauge"] = None
        self._run_queue_gauge: Optional["Gauge"] = None
        self._sent_total: Optional["Counter"] = None

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.is_pending

    def start(self) -> "NodeManager":
        if self.running:
            return self
        self._last_busy_integral = self.host.cpu.utilization_integral()
        self._last_sample_time = self.host.sim.now
        # Forget what was sent before: the first report after a (re)start
        # is always full, so a collector that lost us mid-stream re-seeds.
        self._sent_cpu = None
        self._sent_run_queue = None
        self._sent_speed = None
        self._sent_cores = None
        self._since_full = 0
        self._process = self.host.spawn(self._run(), name="winner-nm")
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill()
            self._process = None

    def sample(self) -> LoadSample:
        """Take one measurement (utilization since the previous sample)."""
        now = self.host.sim.now
        busy = self.host.cpu.utilization_integral()
        window = now - self._last_sample_time
        utilization = 0.0
        if window > 0:
            utilization = (busy - self._last_busy_integral) / window
        self._last_busy_integral = busy
        self._last_sample_time = now
        self.samples_taken += 1
        sample = LoadSample(
            host=self.host.name,
            time=now,
            cpu_utilization=min(1.0, max(0.0, utilization)),
            run_queue=self.host.cpu.run_queue_length,
            speed=self.host.speed,
            cores=self.host.cores,
        )
        cpu_gauge = self._cpu_gauge
        if cpu_gauge is None:
            metrics = self.host.sim.obs.metrics
            cpu_gauge = self._cpu_gauge = metrics.gauge(
                "winner_cpu_utilization", host=sample.host
            )
            self._run_queue_gauge = metrics.gauge(
                "winner_run_queue", host=sample.host
            )
        cpu_gauge.set(sample.cpu_utilization)
        self._run_queue_gauge.set(float(sample.run_queue))
        return sample

    def send_report(self) -> None:
        """Sample and report once (the periodic loop's body, also callable
        out of band, e.g. right after a reconnect).

        Same-tick sends coalesce: if a report already left at this exact
        simulated instant (an out-of-band report landing on a periodic
        tick), the duplicate is suppressed instead of hitting the wire.
        """
        sim = self.host.sim
        if self._last_send_time == sim.now:
            self.reports_coalesced += 1
            sim.obs.metrics.counter(
                "winner_reports_coalesced_total", host=self.host.name
            ).inc()
            return
        sample = self.sample()
        self._seq += 1
        raw = self._encode_report(sample)
        self._last_send_time = sim.now
        self.report_bytes_sent += len(raw)
        sent_total = self._sent_total
        if sent_total is None:
            sent_total = self._sent_total = sim.obs.metrics.counter(
                "winner_reports_sent_total", host=self.host.name
            )
        sent_total.inc()
        self.network.send(
            self.host,
            NODE_MANAGER_PORT,
            self.manager_host,
            self.manager_port,
            raw,
            len(raw),
        )

    def _encode_report(self, sample: LoadSample) -> bytes:
        """The wire form of one sample: full, or a field-masked delta."""
        full = (
            not self.delta_reports
            or self._sent_cpu is None
            or self._since_full >= self.full_interval - 1
            or sample.speed != self._sent_speed
            or sample.cores != self._sent_cores
        )
        if full:
            self._sent_cpu = sample.cpu_utilization
            self._sent_run_queue = sample.run_queue
            self._sent_speed = sample.speed
            self._sent_cores = sample.cores
            self._since_full = 0
            self.full_reports_sent += 1
            return LoadReport(
                host=sample.host,
                time=sample.time,
                cpu_utilization=sample.cpu_utilization,
                run_queue=sample.run_queue,
                speed=sample.speed,
                cores=sample.cores,
                seq=self._seq,
            ).encode()
        cpu = None
        if abs(sample.cpu_utilization - self._sent_cpu) > self.deadband:
            cpu = sample.cpu_utilization
            self._sent_cpu = cpu
        run_queue = None
        if sample.run_queue != self._sent_run_queue:
            run_queue = sample.run_queue
            self._sent_run_queue = run_queue
        self._since_full += 1
        self.delta_reports_sent += 1
        # An all-None delta still goes out: it is the heartbeat that keeps
        # the collector's staleness detector fed.
        return LoadReportDelta(
            host=sample.host,
            time=sample.time,
            seq=self._seq,
            cpu_utilization=cpu,
            run_queue=run_queue,
        ).encode()

    def _run(self):
        sim = self.host.sim
        rng = sim.rng("winner-nm", self.host.name)
        # Desynchronize daemons so reports do not arrive in lockstep.
        yield sim.timeout(rng.uniform(0.0, self.interval))
        try:
            while True:
                self.send_report()
                delay = self.interval
                if self.jitter:
                    delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
                yield sim.timeout(delay)
        except ProcessKilled:
            raise
