"""Every finished span of a seeded multi-thousand-span run, pinned as literals.

The run: 1 100 back-to-back ``total()`` reads between two ORBs of a
three-host runtime (2 200 ORB spans, a client and a server span each,
after the spans of start-up), once with the tracer's default ring and
once with a 1 000-span ring that evicts the oldest span a little over a
thousand times.  Each is pinned by its span count, ``dropped``, a CRC-32
of every span's row (``span_row`` of ``test_span_record_golden``: ids,
``float.hex`` instants, host, process, status, error and sorted attrs)
and a CRC-32 of the canonical Chrome export of the same spans.
"""

import json
import zlib

import pytest

from repro.core import Runtime, RuntimeConfig
from repro.obs.exporters import chrome_trace
from repro.obs.trace import Tracer
from tests.obs.test_span_record_golden import GoldenReadImpl, ns, span_row

READS = 1_100


def reads_run(capacity):
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=11))
    if capacity is not None:
        runtime.sim.obs.tracer = Tracer(runtime.sim, capacity=capacity)
    runtime.start()
    ior = runtime.orb(1).poa.activate(GoldenReadImpl())
    runtime.settle()
    stub = runtime.orb(2).stub(ior, ns.GoldenReadStub)

    def client():
        for _ in range(READS):
            assert (yield stub.total()) == 2.5

    runtime.run(client())
    return runtime


@pytest.mark.parametrize(
    "capacity, count, dropped, rows_crc, chrome_crc",
    [
        (None, 2_206, 0, 0x0650E248, 0xD653C157),
        (1_000, 1_000, 1_206, 0xE8D69F04, 0x2AF8F361),
    ],
    ids=["default-ring", "ring-of-1000"],
)
def test_every_span_of_a_multi_segment_run_is_pinned(
    capacity, count, dropped, rows_crc, chrome_crc
):
    runtime = reads_run(capacity)
    tracer = runtime.obs.tracer
    spans = list(tracer.spans)
    rows = [span_row(span) for span in spans]
    document = chrome_trace(spans, now=runtime.sim.now)
    canonical = json.dumps(document, sort_keys=True).encode()
    assert (len(rows), tracer.dropped) == (count, dropped)
    assert zlib.crc32("\n".join(rows).encode()) == rows_crc
    assert zlib.crc32(canonical) == chrome_crc
