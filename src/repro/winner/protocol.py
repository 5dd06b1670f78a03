"""Winner's report protocol.

Node managers push :class:`LoadReport` datagrams to the system manager over
the plain network (Winner predates the CORBA integration — it is a Unix
daemon speaking its own lightweight protocol).  Reports are CDR-encoded so
their wire size is charged realistically.

Both decoders accept only what a node manager can send — finite ``time``,
``cpu_utilization`` and ``speed``, ``speed > 0``, ``cores >= 1`` — and
raise :class:`~repro.errors.CdrError` otherwise, which the collector drops:
one forged report with ``speed=inf`` would otherwise win every placement
until the host went stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import CdrError
from repro.orb.cdr import CdrInputStream, CdrOutputStream

_MAGIC = b"WNR1"
_DELTA_MAGIC = b"WNRD"

#: field-mask bits of :class:`LoadReportDelta`.
DELTA_HAS_CPU = 0x01
DELTA_HAS_RUN_QUEUE = 0x02

#: default UDP-style port of the system manager.
SYSTEM_MANAGER_PORT = 7788


@dataclass(frozen=True)
class LoadReport:
    """One node-manager → system-manager report."""

    host: str
    time: float
    cpu_utilization: float
    run_queue: int
    speed: float
    cores: int
    #: monotonically increasing per-node-manager sequence number; lets the
    #: collector discard reordered reports.
    seq: int

    def encode(self) -> bytes:
        stream = CdrOutputStream()
        stream.write_raw(_MAGIC)
        stream.write_string(self.host)
        stream.write_double(self.time)
        stream.write_double(self.cpu_utilization)
        stream.write_ulong(self.run_queue)
        stream.write_double(self.speed)
        stream.write_ulong(self.cores)
        stream.write_ulonglong(self.seq)
        return stream.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "LoadReport":
        stream = CdrInputStream(data)
        if stream.read_raw(4) != _MAGIC:
            raise CdrError("not a Winner load report")
        report = cls(
            host=stream.read_string(),
            time=stream.read_double(),
            cpu_utilization=stream.read_double(),
            run_queue=stream.read_ulong(),
            speed=stream.read_double(),
            cores=stream.read_ulong(),
            seq=stream.read_ulonglong(),
        )
        _check_finite(report.time, report.cpu_utilization, report.speed)
        if not report.speed > 0 or report.cores == 0:
            raise CdrError(
                f"Winner load report: speed {report.speed}, "
                f"cores {report.cores} (need > 0)"
            )
        return report


@dataclass(frozen=True)
class LoadReportDelta:
    """A field-masked load report: only values that moved past the sender's
    deadband travel the wire.

    Mirrors the delta-checkpoint design: the collector applies a delta on
    top of the last raw values it holds for the host, and ignores deltas
    for hosts it has never seen a full report from.  ``speed`` and
    ``cores`` never appear here — a change in either forces a full report.
    An empty delta (no fields) is a heartbeat: it still advances
    ``last_report_time`` so staleness detection keeps working.
    """

    host: str
    time: float
    seq: int
    cpu_utilization: Optional[float] = None
    run_queue: Optional[int] = None

    def encode(self) -> bytes:
        stream = CdrOutputStream()
        stream.write_raw(_DELTA_MAGIC)
        stream.write_string(self.host)
        stream.write_double(self.time)
        stream.write_ulonglong(self.seq)
        mask = 0
        if self.cpu_utilization is not None:
            mask |= DELTA_HAS_CPU
        if self.run_queue is not None:
            mask |= DELTA_HAS_RUN_QUEUE
        stream.write_octet(mask)
        if self.cpu_utilization is not None:
            stream.write_double(self.cpu_utilization)
        if self.run_queue is not None:
            stream.write_ulong(self.run_queue)
        return stream.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "LoadReportDelta":
        stream = CdrInputStream(data)
        if stream.read_raw(4) != _DELTA_MAGIC:
            raise CdrError("not a Winner delta load report")
        host = stream.read_string()
        time = stream.read_double()
        seq = stream.read_ulonglong()
        mask = stream.read_octet()
        cpu = stream.read_double() if mask & DELTA_HAS_CPU else None
        run_queue = stream.read_ulong() if mask & DELTA_HAS_RUN_QUEUE else None
        _check_finite(time, 0.0 if cpu is None else cpu)
        return cls(
            host=host, time=time, seq=seq,
            cpu_utilization=cpu, run_queue=run_queue,
        )


def _check_finite(*values: float) -> None:
    for value in values:
        if not math.isfinite(value):
            raise CdrError(f"Winner report with a non-finite field: {values}")


def decode_report(data: bytes) -> Union[LoadReport, LoadReportDelta]:
    """Decode either wire form (full ``WNR1`` or delta ``WNRD``)."""
    if data[:4] == _DELTA_MAGIC:
        return LoadReportDelta.decode(data)
    return LoadReport.decode(data)
