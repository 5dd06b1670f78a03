"""Deliberate lifecycle (LIF) violations.  Never imported — parsed only.

Each protocol appears twice: a leaky opener that must be flagged and the
clean shape that must be accepted.
"""


class LeakyGate:
    """Probes the breaker but never records the outcome (LIF001)."""

    def __init__(self, breaker):
        self._breaker = breaker

    def submit(self, payload):
        if not self._breaker.allow():  # MARK:LIF001
            return None
        return payload


class RecordingGate:
    """Probes and records both outcomes — the clean shape."""

    def __init__(self, breaker):
        self._breaker = breaker

    def submit(self, payload):
        if not self._breaker.allow():  # MARK:ok-allow
            self._breaker.record_failure()
            return None
        self._breaker.record_success()
        return payload


class StuckShipper:
    """Enqueues pipelined shipments but defines no drain sink (LIF002)."""

    def enqueue(self, shipment):  # MARK:LIF002
        self.inflight = shipment


class DrainedShipper:
    """Defines the drain sink and exercises it — clean."""

    def enqueue(self, shipment):  # MARK:ok-pipeline
        self.inflight = shipment

    def drain(self):
        self.inflight = None

    def flush(self):
        self.drain()


class HeldShipper:
    """Drained only by its owner, through an attribute — clean."""

    def enqueue(self, shipment):  # MARK:ok-held-pipeline
        self.inflight = shipment

    def drain(self):
        self.inflight = None


class ShipperOwner:
    def __init__(self):
        self.shipper = HeldShipper()

    def settle(self):
        self.shipper.drain()


class LeakyConnector:
    """Opens a cache entry and never resolves it (LIF003)."""

    def __init__(self, cache):
        self._cache = cache

    def connect(self, key):
        entry = self._cache.begin(key)  # MARK:LIF003
        return entry


class ResolvingConnector:
    """Opens the entry and commits it — clean."""

    def __init__(self, cache):
        self._cache = cache

    def connect(self, key):
        entry = self._cache.begin(key)  # MARK:ok-begin
        entry.commit()
        return entry
