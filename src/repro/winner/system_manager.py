"""The central Winner system manager.

Collects node-manager reports, smooths them, ages them out when a machine
goes silent, and answers the one question the load-distributing naming
service asks: *which host is currently best?*

Placement feedback: reports arrive once per interval, so a burst of
``resolve()`` calls (the manager binding all its workers at start-up) would
all see the same "best" host.  Winner's scheduler tracks its own placements
and charges them against a host until fresh measurements reflect the load;
``note_placement`` reproduces that with a TTL of a couple of report
intervals."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro.errors import CdrError, ProcessKilled, ServiceError
from repro.winner.metrics import Ewma, expected_rate
from repro.winner.protocol import (
    LoadReport,
    LoadReportDelta,
    SYSTEM_MANAGER_PORT,
    decode_report,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.cluster.network import Network
    from repro.obs.metrics import Counter, Gauge
    from repro.orb.ior import IOR
    from repro.sim.process import Process


@dataclass
class HostRecord:
    """Everything the system manager knows about one workstation."""

    host: str
    speed: float = 1.0
    cores: int = 1
    utilization_ewma: Ewma = field(default_factory=lambda: Ewma(alpha=0.5))
    run_queue_ewma: Ewma = field(default_factory=lambda: Ewma(alpha=0.5))
    last_report_time: float = -1.0
    last_seq: int = -1
    reports_received: int = 0
    #: placements noted since their TTL; list of expiry times.
    placement_expiries: list[float] = field(default_factory=list)
    #: last *raw* (pre-EWMA) report values; the base a delta report is
    #: applied on top of.
    last_cpu: float = 0.0
    last_run_queue: int = 0
    #: ranking score memoized at the last input change (incremental
    #: ranking: recomputed on report/placement events, not per query).
    cached_score: float = float("-inf")

    def expire_placements(self, now: float) -> None:
        self.placement_expiries = [t for t in self.placement_expiries if t > now]

    @property
    def pending_placements(self) -> int:
        return len(self.placement_expiries)


class SystemManager:
    """Winner's central collector and host ranker."""

    def __init__(
        self,
        host: "Host",
        network: "Network",
        port: int = SYSTEM_MANAGER_PORT,
        stale_after: float = 3.5,
        placement_ttl: float = 2.5,
    ) -> None:
        self.host = host
        self.network = network
        self.port = port
        #: seconds without a report before a host is presumed dead.
        self.stale_after = stale_after
        #: how long a noted placement keeps counting against a host.
        self.placement_ttl = placement_ttl
        self.records: dict[str, HostRecord] = {}
        self._inbox = network.bind(host, port)
        self._process: "Process" = host.spawn(self._collect(), name="winner-sm")
        self.reports_received = 0
        self.delta_reports_received = 0
        #: deltas dropped because no full report preceded them (a collector
        #: restart, or the delta raced the sender's first full).
        self.delta_reports_ignored = 0
        #: monotonically increasing: bumps whenever a *report-driven* score
        #: change reorders knowledge about the cluster.  Placement feedback
        #: (note_placement / placement expiry) deliberately does not bump it
        #: — a resolve cache keyed on the epoch must survive its own
        #: placements (round-robin within the cached top-k compensates).
        self.ranking_epoch = 0
        #: host names sorted by (-score, name); rebuilt lazily on demand
        #: instead of re-scoring every candidate per best_host call.
        self._ranked: list[str] = []
        self._ranked_dirty = False
        #: per-host report series, each bound at the host's first report
        #: of its kind.
        self._received_total: dict[str, "Counter"] = {}
        self._delta_received_total: dict[str, "Counter"] = {}
        self._score_gauge: dict[str, "Gauge"] = {}

    # -- collection ------------------------------------------------------------

    def _collect(self):
        try:
            while True:
                datagram = yield self._inbox.get()
                try:
                    report = decode_report(bytes(datagram.payload))
                except (CdrError, TypeError, IndexError):
                    continue
                if isinstance(report, LoadReportDelta):
                    self._apply_delta(report)
                else:
                    self._apply(report)
        except ProcessKilled:
            raise

    def _apply(self, report: LoadReport) -> None:
        record = self.records.get(report.host)
        if record is None:
            record = HostRecord(host=report.host)
            self.records[report.host] = record
        if report.seq <= record.last_seq:
            return  # reordered or duplicated datagram
        record.last_seq = report.seq
        record.speed = report.speed
        record.cores = report.cores
        self._ingest(record, report.cpu_utilization, report.run_queue)
        received = self._received_total.get(report.host)
        if received is None:
            received = self._received_total[report.host] = (
                self.host.sim.obs.metrics.counter(
                    "winner_reports_received_total", host=report.host
                )
            )
        received.inc()
        self._set_score(record)

    def _apply_delta(self, delta: LoadReportDelta) -> None:
        record = self.records.get(delta.host)
        if record is None or record.reports_received == 0:
            # No full report to apply the delta on top of: drop it and
            # wait for the sender's next full (the full_interval bounds
            # how long that takes).
            self.delta_reports_ignored += 1
            self.host.sim.obs.metrics.counter(
                "winner_delta_reports_ignored_total", host=delta.host
            ).inc()
            return
        if delta.seq <= record.last_seq:
            return  # reordered or duplicated datagram
        record.last_seq = delta.seq
        cpu = (
            delta.cpu_utilization
            if delta.cpu_utilization is not None
            else record.last_cpu
        )
        run_queue = (
            delta.run_queue
            if delta.run_queue is not None
            else record.last_run_queue
        )
        self._ingest(record, cpu, run_queue)
        self.delta_reports_received += 1
        received = self._delta_received_total.get(delta.host)
        if received is None:
            received = self._delta_received_total[delta.host] = (
                self.host.sim.obs.metrics.counter(
                    "winner_delta_reports_received_total", host=delta.host
                )
            )
        received.inc()
        self._set_score(record)

    def _set_score(self, record: HostRecord) -> None:
        gauge = self._score_gauge.get(record.host)
        if gauge is None:
            gauge = self._score_gauge[record.host] = self.host.sim.obs.metrics.gauge(
                "winner_host_score", host=record.host
            )
        gauge.set(record.cached_score)

    def _ingest(self, record: HostRecord, cpu: float, run_queue: int) -> None:
        """Feed one report's raw values into a record and re-score it."""
        record.utilization_ewma.update(cpu)
        record.run_queue_ewma.update(run_queue)
        record.last_cpu = cpu
        record.last_run_queue = run_queue
        record.last_report_time = self.host.sim.now
        record.reports_received += 1
        self.reports_received += 1
        self._rescore(record, bump_epoch=True)

    def _rescore(self, record: HostRecord, bump_epoch: bool) -> None:
        """Update a record's memoized score after one of its inputs moved."""
        score = expected_rate(
            record.speed,
            record.cores,
            record.run_queue_ewma.value + record.pending_placements,
        )
        if score != record.cached_score:
            record.cached_score = score
            self._ranked_dirty = True
            if bump_epoch:
                self.ranking_epoch += 1

    def _refresh(self, record: HostRecord, now: float) -> None:
        """Expire stale pending placements and keep the score consistent."""
        before = record.pending_placements
        record.expire_placements(now)
        if record.pending_placements != before:
            self._rescore(record, bump_epoch=False)

    # -- queries -----------------------------------------------------------------

    def is_alive(self, host_name: str) -> bool:
        record = self.records.get(host_name)
        if record is None:
            return False
        return self.host.sim.now - record.last_report_time <= self.stale_after

    def score(
        self,
        host_name: str,
        run_queue_discount: float = 0.0,
        placement_discount: int = 0,
    ) -> float:
        """Ranking score of one host.

        :param run_queue_discount: runnable tasks to *subtract* before
            scoring.  A migration policy evaluating the host a service
            already runs on passes 1.0 so the service's own CPU use does
            not count against its current home (otherwise every busy
            service would consider its own host "overloaded" and flap).
        :param placement_discount: recent placements to ignore likewise
            (the service under evaluation *is* one of them).
        """
        record = self.records.get(host_name)
        if record is None:
            return float("-inf")
        self._refresh(record, self.host.sim.now)
        if run_queue_discount <= 0.0 and placement_discount <= 0:
            return record.cached_score
        pending = record.pending_placements
        if placement_discount > 0:
            pending = max(0, pending - placement_discount)
        queue = max(0.0, record.run_queue_ewma.value - run_queue_discount)
        return expected_rate(record.speed, record.cores, queue + pending)

    def _expire_and_rank(self) -> list[str]:
        """Expire pending placements everywhere, then return the ranking.

        Placements expire with *time*, not with wall events, so every
        query entry point charges the expiry explicitly — a stale pending
        placement must not skew ranking between collect ticks.  The sorted
        list is rebuilt only when some score actually changed since the
        last query (update-on-report instead of full re-sort per call).
        """
        now = self.host.sim.now
        for record in self.records.values():
            self._refresh(record, now)
        if self._ranked_dirty or len(self._ranked) != len(self.records):
            self._ranked = sorted(
                self.records,
                key=lambda name: (-self.records[name].cached_score, name),
            )
            self._ranked_dirty = False
        return self._ranked

    def best_host(
        self,
        candidates: Optional[Sequence[str]] = None,
        exclude: Iterable[str] = (),
    ) -> Optional[str]:
        """The alive candidate with the highest ranking score.

        Ties break by host name.  Returns None when no candidate is alive.
        """
        hosts = self.top_hosts(candidates=candidates, k=1, exclude=exclude)
        return hosts[0] if hosts else None

    def top_hosts(
        self,
        candidates: Optional[Sequence[str]] = None,
        k: int = 1,
        exclude: Iterable[str] = (),
    ) -> list[str]:
        """The ``k`` best alive candidates, best first (ties by name)."""
        excluded = set(exclude)
        # Falsy candidates means "no restriction" (matching the historical
        # best_host behaviour, where an empty list fell back to all hosts).
        pool = set(candidates) if candidates else None
        best: list[str] = []
        for name in self._expire_and_rank():
            if name in excluded:
                continue
            if pool is not None and name not in pool:
                continue
            if not self.is_alive(name):
                continue
            best.append(name)
            if len(best) >= k:
                break
        return best

    def place(self, candidates: Sequence["IOR"]) -> Optional["IOR"]:
        """Winner's placement: the first candidate on the best live
        candidate host, with the placement charged against that host.

        ``None``, and nothing charged, when no candidate host is alive.
        """
        if not candidates:
            return None
        best = self.best_host(candidates=[ior.host for ior in candidates])
        if best is None:
            return None
        self.note_placement(best)
        return next(ior for ior in candidates if ior.host == best)

    def note_placement(self, host_name: str) -> None:
        """Record that work was just placed on ``host_name``."""
        record = self.records.get(host_name)
        if record is None:
            raise ServiceError(f"placement on unknown host {host_name!r}")
        now = self.host.sim.now
        record.expire_placements(now)
        record.placement_expiries.append(now + self.placement_ttl)
        self._rescore(record, bump_epoch=False)

    def snapshot(self) -> list[dict]:
        """A stable view of all records (for the CORBA face and reports)."""
        now = self.host.sim.now
        rows = []
        for name in sorted(self.records):
            record = self.records[name]
            self._refresh(record, now)
            rows.append(
                {
                    "host": name,
                    "speed": record.speed,
                    "cores": record.cores,
                    "utilization": record.utilization_ewma.value,
                    "run_queue": record.run_queue_ewma.value,
                    "score": record.cached_score,
                    "alive": now - record.last_report_time <= self.stale_after,
                }
            )
        return rows

    def stop(self) -> None:
        self._process.kill()
        if self.network.is_bound(self.host.name, self.port):
            self.network.unbind(self.host.name, self.port)
