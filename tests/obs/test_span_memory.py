"""What the tracer's ring retains per finished span.

A span log of 65 536 spans was most of a long ORB run's live heap, so
each finished span is held to a byte budget: 1 000 warm back-to-back
``total()`` reads between two ORBs (two spans each, a client and a
server span), measured with ``tracemalloc`` from before the first read
to after the last, divided by the spans they added.  Everything a read
leaves behind is in that figure: the packed segments, and the rows of
the tail not yet packed with their ids, attrs dicts and the floats and
ints in them.
"""

import gc
import tracemalloc

from tests.orb.test_cdr_call_budget import warm_null_calls


def test_a_finished_orb_span_costs_at_most_its_budget():
    runtime, reads = warm_null_calls()
    tracer = runtime.obs.tracer
    gc.collect()
    tracemalloc.start()
    try:
        spans = len(tracer.spans)
        before = tracemalloc.get_traced_memory()[0]
        runtime.run(reads(1_000))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    added = len(tracer.spans) - spans
    assert (added, tracer.dropped) == (2_000, 0)
    # 780.7 bytes a span while each span kept its own TraceContext, the
    # decoded copies of its parent's ids, its own name and process-name
    # strings and a copy of its attrs; 553.4 without them; 212.7–213.3
    # with the log keeping rows and packing them 256 to a marshal segment
    # (seven segments at ≈ 112 bytes a span, 254 rows in the unpacked
    # tail; bound: +5 %)
    assert retained / added <= 223
