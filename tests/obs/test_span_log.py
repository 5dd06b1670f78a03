"""SpanLog: the tracer's packed ring of finished spans, at its edges."""

import math
import marshal
import struct
from collections import deque

import numpy as np
import pytest

from repro.obs.trace import SEGMENT_ROWS, Tracer
from repro.sim import Simulator

FIELDS = (
    "name", "trace_id", "span_id", "parent_id", "start", "end",
    "host", "process", "status", "error",
)


def bits(value):
    """A value with every float replaced by its eight bytes, so ``==``
    tells ``-0.0`` from ``0.0`` and matches a NaN with itself."""
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    return (type(value), value)


def finish_spans(tracer, count, **attrs):
    """``count`` finished spans named ``s0`` … in order; returns them."""
    sim = tracer.sim
    spans = []
    for index in range(count):
        span = tracer.start_span(f"s{index}", parent=None, host="ws00", **attrs)
        sim.now += 0.25
        span.finish()
        spans.append(span)
    return spans


@pytest.mark.parametrize("capacity", [0, 1, 4, 255, 256, 257])
def test_the_log_is_a_deque_of_its_capacity(capacity):
    tracer = Tracer(Simulator(seed=1), capacity=capacity)
    reference = deque(maxlen=capacity)
    dropped = 0
    for count in (3, 250, 300, 700):
        for span in finish_spans(tracer, count):
            dropped += len(reference) == capacity
            reference.append(span.span_id)
        log = tracer.spans
        assert (len(log), log.maxlen, tracer.dropped) == (
            len(reference), capacity, dropped,
        )
        assert [span.span_id for span in log] == list(reference)
        assert [span.span_id for span in reversed(log)] == list(reversed(reference))


def test_every_field_reads_back_bit_for_bit():
    sim = Simulator(seed=1)
    sim.now = 0.1
    tracer = sim.obs.tracer
    finished = []
    values = [True, False, 1, -7, 2**70, -0.0, 0.0, math.inf, -math.inf,
              math.nan, 1e-310, None, "", "ünïcode", "kind"]
    for index in range(SEGMENT_ROWS + 40):  # one packed segment and a tail
        with tracer.span(f"op{index % 3}", host=f"ws{index % 2:02d}") as span:
            span.set_attr("value", values[index % len(values)])
            span.set_attr("index", index)
            sim.now += 1 / 3
            if index % 7 == 0:
                span.mark_error(ValueError("no"))
        finished.append(span)
    read = list(tracer.spans)
    assert len(read) == len(finished)
    for got, want in zip(read, finished):
        for field in FIELDS:
            assert bits(getattr(got, field)) == bits(getattr(want, field)), field
        assert list(got.attrs) == list(want.attrs)
        assert [bits(v) for v in got.attrs.values()] == [
            bits(v) for v in want.attrs.values()
        ]


def test_neither_a_late_set_attr_nor_a_reader_changes_the_log():
    tracer = Tracer(Simulator(seed=1))
    first = finish_spans(tracer, 1, kind="client")[0]
    first.set_attr("kind", "late")  # while its row is in the unpacked tail
    first.set_attr("extra", 1)
    (read,) = tracer.spans
    read.attrs["kind"] = "edited"
    finish_spans(tracer, SEGMENT_ROWS - 1, kind="client")
    assert len(tracer.spans._segments) == 1
    first.set_attr("more", 2.0)  # after its row was packed
    (logged, *_) = tracer.spans
    assert logged.attrs == {"kind": "client"}
    assert first.attrs == {"kind": "late", "extra": 1, "more": 2.0}


def test_reading_decodes_each_segment_once(monkeypatch):
    tracer = Tracer(Simulator(seed=1))
    finish_spans(tracer, 3 * SEGMENT_ROWS + 10)
    decoded = []
    loads = marshal.loads

    def counted(data):
        decoded.append(data)
        return loads(data)

    monkeypatch.setattr(marshal, "loads", counted)
    assert len(list(tracer.spans)) == 3 * SEGMENT_ROWS + 10
    assert len(decoded) == 3
    assert len(list(reversed(tracer.spans))) == 3 * SEGMENT_ROWS + 10
    assert len(decoded) == 6


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(3)])
def test_an_attr_a_segment_would_rewrite_is_refused(value):
    tracer = Tracer(Simulator(seed=1))
    finish_spans(tracer, 10)
    bad = tracer.start_span("numpy-attr", parent=None, host="ws00", score=value)
    bad.finish()  # checked once per segment, when the tail is packed
    with pytest.raises(TypeError, match=r"'numpy-attr' .* attr 'score' holds"):
        finish_spans(tracer, SEGMENT_ROWS - 11)
    log = tracer.spans
    assert (len(log), tracer.dropped) == (SEGMENT_ROWS - 1, 1)
    assert "numpy-attr" not in {span.name for span in log}
    finish_spans(tracer, 1)
    assert len(log._segments) == 1 and not log._tail
