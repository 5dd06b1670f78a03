"""The metrics registry: counters, gauges and histograms.

Components register named, labelled instruments here instead of hand-rolling
ad-hoc counters.  All instruments are cheap (a dict lookup plus an integer
or float update per event); histograms keep a bounded reservoir of the
newest samples for their percentiles.

The registry itself is serialization-friendly: :meth:`MetricsRegistry.snapshot`
returns plain dicts, and the exporters in :mod:`repro.obs.exporters` render
the same data as Prometheus text or JSON artifacts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

#: label sets are stored as sorted tuples of (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: samples a histogram retains for its percentiles (newest win).
HISTOGRAM_SAMPLES = 4096


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Base of all metric instruments."""

    kind = "instrument"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def value_repr(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def value_repr(self) -> float:
        return self.value


class Gauge(Instrument):
    """A value that can go up and down (utilization, queue depth, score)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def value_repr(self) -> float:
        return self.value


class Histogram(Instrument):
    """Latency/size distribution.

    Keeps the newest :data:`HISTOGRAM_SAMPLES` values for percentiles plus
    cumulative count/sum/min/max that are never dropped.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__(name, labels)
        self._samples: deque[float] = deque(maxlen=HISTOGRAM_SAMPLES)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._samples.append(value)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) over the retained samples.

        Nearest-rank on the sorted samples; 0.0 when there are none.
        """
        values = sorted(self._samples)
        if not values:
            return 0.0
        if p <= 0:
            return values[0]
        if p >= 100:
            return values[-1]
        rank = max(1, -(-len(values) * p // 100))  # ceil(n * p / 100)
        return values[int(rank) - 1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def value_repr(self) -> dict[str, float]:
        return self.summary()


class MetricsRegistry:
    """Get-or-create store of all instruments of one simulation."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}
        #: instrument kind by name, to reject name/kind conflicts.
        self._kinds: dict[str, str] = {}
        #: (accessor class, name, *label items as passed) -> instrument, for
        #: calls whose label values are all ``str``: equal items are then an
        #: equal label key, and a repeated call skips ``_label_key``.
        self._by_call: dict[tuple, Instrument] = {}

    # -- instrument accessors -------------------------------------------------

    def _get(self, cls: type, name: str, labels: dict[str, Any]) -> Instrument:
        call_key = (cls, name, *labels.items())
        memoisable = True
        for value in labels.values():
            if type(value) is not str:
                memoisable = False
                break
        if memoisable:
            instrument = self._by_call.get(call_key)
            if instrument is not None:
                return instrument
        known = self._kinds.get(name)
        if known is not None and known != cls.kind:
            raise ValueError(f"metric {name!r} is already registered as a {known}")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
            self._kinds[name] = cls.kind
        if memoisable:
            self._by_call[call_key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    # -- introspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[Instrument]:
        return iter(
            self._instruments[key] for key in sorted(self._instruments)
        )

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> list[dict]:
        """All instruments as plain dicts (JSON-ready)."""
        return [
            {
                "name": instrument.name,
                "kind": instrument.kind,
                "labels": instrument.label_dict,
                "value": instrument.value_repr(),
            }
            for instrument in self
        ]
