"""Message network between hosts.

Datagram semantics: ``send`` computes a delivery delay from base latency and
bandwidth (message size matters — the ORB's CDR encoder reports real wire
sizes) and schedules delivery to the destination port's endpoint: a
channel (:meth:`Network.bind`) or any object whose ``put`` takes the
datagram (:meth:`Network.listen`), such as an ORB's request handler.  Messages
to a host that is down or partitioned away at *delivery* time are silently
dropped, like packets to a dead machine; reliability is the job of the
layers above (the ORB's connection-oriented transport detects loss through
peer-death notifications, Winner's report protocol simply tolerates it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class Datagram:
    """One delivered message."""

    src_host: str
    src_port: int
    dst_host: str
    dst_port: int
    payload: Any
    size: int
    sent_at: float


class Network:
    """Star-topology LAN connecting the cluster's hosts.

    :param latency: one-way base latency in seconds between distinct hosts.
    :param bandwidth: bytes per second; transfer time ``size / bandwidth``
        adds to the base latency.
    :param local_latency: loopback latency for same-host messages.
    """

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.5e-3,
        bandwidth: float = 10e6,
        local_latency: float = 20e-6,
    ) -> None:
        if not (latency >= 0 and bandwidth > 0 and local_latency >= 0):
            raise SimulationError("invalid network parameters")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.local_latency = local_latency
        self._hosts: dict[str, "Host"] = {}
        #: bound ports: a Channel, or any endpoint with ``put``/``close``
        self._ports: dict[tuple[str, int], Any] = {}
        self._partitions: set[frozenset[str]] = set()
        self._drop_listeners: list = []
        self._ephemeral: dict[str, int] = {}
        #: random loss: probability and the destination ports it applies
        #: to (None = all). The ORB assumes a reliable transport (TCP), so
        #: experiments restrict loss to datagram protocols such as
        #: Winner's report port.
        self._loss_rate = 0.0
        self._loss_ports: Optional[set[int]] = None
        #: latency surge state (chaos injection): base latency is scaled by
        #: ``latency_factor``, ``extra_latency`` is added flat, and a
        #: per-message exponential jitter of mean ``latency_jitter`` rides on
        #: top (drawn from the seeded "network-jitter" stream, so surged
        #: runs stay reproducible).
        self.latency_factor = 1.0
        self.extra_latency = 0.0
        self.latency_jitter = 0.0
        #: counters for reports
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.drop_listener_errors = 0

    # -- topology -------------------------------------------------------------

    def attach(self, host: "Host") -> None:
        if host.name in self._hosts:
            raise SimulationError(f"host {host.name} already attached")
        self._hosts[host.name] = host
        host.on_crash(self._on_host_crash)

    def host(self, name: str) -> "Host":
        try:
            return self._hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def partition(self, a: str, b: str) -> None:
        """Block traffic between hosts ``a`` and ``b`` (both directions)."""
        self.host(a), self.host(b)  # validate
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    #: operator-facing alias of :meth:`heal`.
    unpartition = heal

    def heal_all(self) -> None:
        self._partitions.clear()

    #: operator-facing alias of :meth:`heal_all`.
    clear_partitions = heal_all

    def is_partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitions

    def partition_count(self) -> int:
        return len(self._partitions)

    # -- ports ---------------------------------------------------------------

    def listen(self, host: "Host", port: int, endpoint: Any) -> None:
        """Open a datagram endpoint: every datagram delivered to it is
        handed straight to ``endpoint.put(datagram)``, inside the delivery
        event, unless ``endpoint.closed`` is true; ``endpoint.close()``
        runs when the port is unbound."""
        key = (host.name, port)
        if key in self._ports:
            raise SimulationError(f"port {port} already bound on {host.name}")
        self._ports[key] = endpoint

    def bind(self, host: "Host", port: int) -> Channel:
        """Open a datagram endpoint; returns its delivery channel."""
        channel = Channel(self.sim, name=f"{host.name}:{port}")
        self.listen(host, port, channel)
        return channel

    def unbind(self, host_name: str, port: int) -> None:
        endpoint = self._ports.pop((host_name, port), None)
        if endpoint is not None:
            endpoint.close()

    def is_bound(self, host_name: str, port: int) -> bool:
        return (host_name, port) in self._ports

    def ephemeral_port(self, host_name: str) -> int:
        """Allocate the next free ephemeral port on ``host_name``."""
        port = self._ephemeral.get(host_name, 20000)
        while (host_name, port) in self._ports:
            port += 1
        self._ephemeral[host_name] = port + 1
        return port

    # -- transfer ---------------------------------------------------------------

    def delay(self, src: str, dst: str, size: int) -> float:
        if src == dst:
            return self.local_latency
        base = (
            self.latency * self.latency_factor
            + self.extra_latency
            + size / self.bandwidth
        )
        if self.latency_jitter > 0.0:
            base += float(
                self.sim.rng("network-jitter").exponential(self.latency_jitter)
            )
        return base

    def set_latency_surge(
        self,
        factor: float = 1.0,
        extra: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Install (or clear, with defaults) a latency surge on every
        host-to-host path: base latency × ``factor`` + ``extra`` seconds,
        plus exponential jitter of mean ``jitter`` seconds per message."""
        if not (factor > 0 and extra >= 0 and jitter >= 0):
            raise SimulationError("invalid latency surge parameters")
        self.latency_factor = factor
        self.extra_latency = extra
        self.latency_jitter = jitter

    def clear_latency_surge(self) -> None:
        self.set_latency_surge()

    def send(
        self,
        src: "Host",
        src_port: int,
        dst_name: str,
        dst_port: int,
        payload: Any,
        size: int = 0,
    ) -> None:
        """Fire-and-forget datagram send.

        A send from a crashed host is impossible and raises; a message whose
        destination is down, unbound or partitioned *at delivery time* is
        dropped silently.
        """
        # ``_up``, not the property: this runs once per datagram
        if not src._up:
            raise SimulationError(f"send from crashed host {src.name}")
        if dst_name not in self._hosts:
            raise SimulationError(f"send to unknown host {dst_name!r}")
        self.messages_sent += 1
        self.bytes_sent += size
        datagram = Datagram(
            src_host=src.name,
            src_port=src_port,
            dst_host=dst_name,
            dst_port=dst_port,
            payload=payload,
            size=size,
            sent_at=self.sim.now,
        )
        self.sim.schedule(
            self.delay(src.name, dst_name, size),
            lambda: self._deliver(datagram),
        )

    def inject(
        self,
        src_name: str,
        src_port: int,
        dst_name: str,
        dst_port: int,
        payload: Any,
        size: int = 0,
    ) -> None:
        """Schedule delivery of a synthesized message (e.g. a connection
        reset emitted on behalf of a dead endpoint). Unlike :meth:`send`,
        the nominal source need not be alive."""
        datagram = Datagram(
            src_host=src_name,
            src_port=src_port,
            dst_host=dst_name,
            dst_port=dst_port,
            payload=payload,
            size=size,
            sent_at=self.sim.now,
        )
        self.sim.schedule(
            self.delay(src_name, dst_name, size),
            lambda: self._deliver(datagram),
        )

    def set_loss_rate(self, rate: float, ports: Optional[set[int]] = None) -> None:
        """Drop each matching datagram with probability ``rate``.

        :param ports: destination ports subject to loss (None = every
            port).  Loss draws come from the simulator's seeded RNG, so
            lossy runs stay reproducible.
        """
        if not 0.0 <= rate < 1.0:
            raise SimulationError(f"loss rate must be in [0, 1), got {rate}")
        self._loss_rate = rate
        self._loss_ports = set(ports) if ports is not None else None

    def add_drop_listener(self, listener) -> None:
        """``listener(datagram)`` is invoked for every dropped message.

        A listener that raises must not abort delivery bookkeeping or
        starve the remaining listeners: the exception is swallowed, traced
        and counted in ``network_drop_listener_errors_total``.
        """
        self._drop_listeners.append(listener)

    def _drop(self, datagram: Datagram, reason: str = "unreachable") -> None:
        self.messages_dropped += 1
        self.sim.obs.metrics.counter(
            "network_dropped_total", reason=reason
        ).inc()
        for listener in list(self._drop_listeners):
            try:
                listener(datagram)
            # analysis: ignore[EXC002]: listener isolation — errors are counted and traced, one bad listener must not drop the rest
            except Exception as exc:  # noqa: BLE001 - listener isolation
                self.drop_listener_errors += 1
                self.sim.obs.metrics.counter(
                    "network_drop_listener_errors_total",
                    listener=type(exc).__name__,
                ).inc()

    def _deliver(self, datagram: Datagram) -> None:
        dst = self._hosts[datagram.dst_host]
        if not dst._up:
            self._drop(datagram, reason="host-down")
            return
        if self.is_partitioned(datagram.src_host, datagram.dst_host):
            self._drop(datagram, reason="partition")
            return
        if self._loss_rate > 0.0 and (
            self._loss_ports is None or datagram.dst_port in self._loss_ports
        ):
            if self.sim.rng("network-loss").random() < self._loss_rate:
                # Silent loss: no reset synthesis, so no listeners either.
                self.messages_dropped += 1
                self.sim.obs.metrics.counter(
                    "network_dropped_total", reason="loss"
                ).inc()
                return
        endpoint = self._ports.get((datagram.dst_host, datagram.dst_port))
        if endpoint is None or endpoint.closed:
            self._drop(datagram, reason="unbound")
            return
        self.messages_delivered += 1
        endpoint.put(datagram)

    # -- failure handling ----------------------------------------------------------

    def _on_host_crash(self, host: "Host") -> None:
        """Close every port bound on the crashed host."""
        for (host_name, port) in [k for k in self._ports if k[0] == host.name]:
            self.unbind(host_name, port)
