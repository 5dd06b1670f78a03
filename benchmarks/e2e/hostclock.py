"""The benchmark's only reads of the host's clocks and memory counters.

Simulated time comes from ``sim.now`` and is exact; everything in this
module is a property of the machine the benchmark happens to run on.  The
determinism gate (``repro.analysis``, DET001) covers ``benchmarks/``, so
every host-clock read of the end-to-end benchmark lives here, behind one
justified directive each, and no value read here ever reaches a simulator.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Sequence


def wall() -> float:
    """Monotonic host seconds, comparable between a parent and its child
    (``CLOCK_MONOTONIC`` is system-wide on Linux)."""
    # analysis: ignore[DET001]: host wall time is the measurand (set-up time, run budget); it never feeds a simulation
    return time.perf_counter()


def cpu() -> float:
    """CPU seconds (user + system) this process has consumed so far."""
    # analysis: ignore[DET001]: host CPU time is the measurand (cost of a pass); it never feeds a simulation
    return time.process_time()


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Pin this process to the highest-numbered CPU it may run on, so a
    pass never migrates between cores mid-measurement (a no-op where the
    platform has no affinity call)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract and ``calibrate.py`` use."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0
