"""A simulated workstation.

A host owns a processor-sharing CPU and a set of host-bound simulation
processes.  Crashing a host aborts all in-flight CPU work, kills every
registered process (their ``finally`` blocks run) and notifies crash
listeners (the network drops the host's connections; the ORB's transports
turn this into ``COMM_FAILURE`` at the peers).  A host can later restart
empty — server objects do not survive; the paper's checkpoint/restart layer
is what brings services back.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import HostDownError
from repro.sim import ProcessorSharingCPU, SimFuture
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


#: a host's process list is not scanned for finished ones below this length.
_PROCESS_COMPACT_MIN = 64


class Host:
    """One workstation in the NOW.

    :param speed: relative CPU performance (Winner's static benchmark
        rating); work units per second per core.
    :param cores: number of CPU cores (Winner schedules on mixed
        uniprocessor/multiprocessor workstations).
    """

    def __init__(
        self,
        sim: "Simulator",
        host_id: int,
        name: str,
        speed: float = 1.0,
        cores: int = 1,
    ) -> None:
        self.sim = sim
        self.host_id = host_id
        self.name = name
        self.speed = speed
        self.cores = cores
        self.cpu = ProcessorSharingCPU(sim, speed=speed, cores=cores)
        self._up = True
        #: host-bound processes and activities (both have ``kill``)
        self._processes: list[Any] = []
        #: list length at which ``spawn`` next drops finished processes
        self._compact_processes_at = _PROCESS_COMPACT_MIN
        self._crash_listeners: list[Callable[["Host"], None]] = []
        self._restart_listeners: list[Callable[["Host"], None]] = []
        #: number of times this host has crashed (incarnation counter); lets
        #: stale messages addressed to a previous incarnation be discarded.
        self.incarnation = 0
        self.crash_count = 0
        #: nominal benchmark rating; ``speed`` stays at this value even
        #: while the delivered CPU rate is degraded (a gray host *looks*
        #: healthy to Winner's static rating).
        self.base_speed = speed
        self._degrade_factor = 1.0

    # -- state ---------------------------------------------------------------

    @property
    def up(self) -> bool:
        return self._up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "DOWN"
        return f"<Host {self.name} ({state}) speed={self.speed} cores={self.cores}>"

    # -- processes -------------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a process bound to this host; it dies if the host crashes.
        Its first step runs one hop later."""
        if not self._up:
            raise HostDownError(f"cannot spawn on crashed host {self.name}")
        name = f"{self.name}/{name or 'proc'}"
        return self.adopt(self.sim.spawn(generator, name=name))

    def start(
        self,
        generator: Generator,
        name: str,
        continuation: Callable[[SimFuture], None],
    ) -> Process:
        """Start a process bound to this host inside the current step:
        ``continuation`` is registered on it first, so a failure in the
        first step has a watcher, and then that first step runs right here,
        as ``yield from`` would run it."""
        if not self._up:
            raise HostDownError(f"cannot start a process on crashed host {self.name}")
        process = Process(self.sim, generator, f"{self.name}/{name}", start=False)
        self.adopt(process)
        process.add_done_callback(continuation)
        process._resume(None, None)
        return process

    def adopt(self, process: Any) -> Any:
        """Bind a process or activity to this host: a crash kills it."""
        if not self._up:
            raise HostDownError(f"host {self.name} is down")
        processes = self._processes
        processes.append(process)
        if len(processes) > self._compact_processes_at:
            # Drop finished processes to bound memory, rescanning only once
            # the list has doubled since the last scan: a host with more
            # than the minimum alive must not pay a scan per spawn.
            self._processes = live = [p for p in processes if p.is_pending]
            self._compact_processes_at = max(_PROCESS_COMPACT_MIN, 2 * len(live))
        return process

    def execute(self, work: float) -> SimFuture:
        """Submit CPU work; fails immediately if the host is down."""
        if not self._up:
            future = SimFuture(self.sim, label=f"cpu@{self.name}")
            future.fail(HostDownError(f"host {self.name} is down"))
            return future
        return self.cpu.execute(work)

    # -- gray degradation -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degrade_factor != 1.0

    def degrade(self, factor: float) -> None:
        """Deliver only ``factor`` of the nominal CPU rate (gray host).

        The host stays *up* — it accepts calls and answers pings — it is
        just slow, the failure shape crash detection cannot see.
        """
        if not 0.0 < factor <= 1.0:
            raise HostDownError(f"degrade factor must be in (0, 1], got {factor}")
        self._degrade_factor = factor
        self.cpu.set_speed(self.base_speed * factor)
        self.sim.obs.metrics.gauge(
            "host_degrade_factor", host=self.name
        ).set(factor)
        if factor < 1.0:
            self.sim.obs.metrics.counter(
                "host_degradations_total", host=self.name
            ).inc()

    def restore_speed(self) -> None:
        """Undo :meth:`degrade`; the CPU returns to its nominal rate."""
        if self._degrade_factor == 1.0:
            return
        self._degrade_factor = 1.0
        self.cpu.set_speed(self.base_speed)
        self.sim.obs.metrics.gauge(
            "host_degrade_factor", host=self.name
        ).set(1.0)

    # -- crash / restart ---------------------------------------------------------

    def on_crash(self, listener: Callable[["Host"], None]) -> None:
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[["Host"], None]) -> None:
        self._restart_listeners.append(listener)

    def crash(self) -> None:
        """Fail-stop crash: abort CPU work, kill processes, notify listeners."""
        if not self._up:
            return
        self._up = False
        self.crash_count += 1
        self.sim.obs.metrics.counter(
            "host_crashes_total", host=self.name
        ).inc()
        self.cpu.abort_all(HostDownError(f"host {self.name} crashed"))
        processes, self._processes = self._processes, []
        for process in processes:
            process.kill()
        for listener in list(self._crash_listeners):
            listener(self)

    def restart(self) -> None:
        """Bring the host back up, empty (no servants, no processes)."""
        if self._up:
            return
        self._up = True
        self.incarnation += 1
        if self._degrade_factor != 1.0:
            # A reboot clears whatever was slowing the machine down.
            self._degrade_factor = 1.0
            self.cpu.set_speed(self.base_speed)
        self.sim.obs.metrics.counter(
            "host_restarts_total", host=self.name
        ).inc()
        for listener in list(self._restart_listeners):
            listener(self)


class HostLoadSampler:
    """Windowed load sampling over a whole host array, vectorized.

    The per-host :class:`~repro.winner.node_manager.NodeManager` computes
    utilization as the busy-integral delta over the sampling window; this
    sampler takes the same measurement for *all* hosts of a site in one
    sweep and returns numpy arrays, so a site-scale manager feeds its
    :class:`~repro.winner.metrics.VectorLoadBoard` with O(hosts) array
    math instead of one datagram per host per tick.  The clamp matches the
    scalar path's ``min(1.0, max(0.0, utilization))`` exactly.
    """

    def __init__(self, hosts: Sequence[Host]) -> None:
        if not hosts:
            raise HostDownError("HostLoadSampler needs at least one host")
        self.hosts: list[Host] = list(hosts)
        self.sim = self.hosts[0].sim
        n = len(self.hosts)
        self.names: list[str] = [h.name for h in self.hosts]
        self.speeds = np.asarray([h.speed for h in self.hosts], dtype=np.float64)
        self.cores = np.asarray([h.cores for h in self.hosts], dtype=np.float64)
        self._last_busy = np.zeros(n, dtype=np.float64)
        self._last_time = self.sim.now
        self._primed = False

    def sample(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One sweep: ``(utilization, run_queue, up)`` arrays.

        The first call primes the busy-integral baseline and reports zero
        utilization (there is no window yet), mirroring a node manager's
        ``start()``.
        """
        hosts = self.hosts
        now = self.sim.now
        # One call per host (the CPU's load_sample), not three and a
        # generator resumed for each: the per-host calls are most of what a
        # sweep costs, so ``up`` is read past its property too.
        integrals, lengths = zip(*[h.cpu.load_sample() for h in hosts])
        busy = np.array(integrals, dtype=np.float64)
        run_queue = np.array(lengths, dtype=np.float64)
        up = np.array([h._up for h in hosts], dtype=bool)
        window = now - self._last_time
        if self._primed and window > 0.0:
            utilization = np.clip((busy - self._last_busy) / window, 0.0, 1.0)
        else:
            utilization = np.zeros(len(hosts), dtype=np.float64)
        self._last_busy = busy
        self._last_time = now
        self._primed = True
        return utilization, run_queue, up
