"""Every finished span of a seeded small run, pinned as literals.

The run: twenty warm-up and five counted back-to-back ``total()`` reads
between two ORBs (the ``warm_null_calls`` shape of
``tests/orb/test_cdr_call_budget.py``), then one synchronously
checkpointed FT call whose servant's host has crashed, so the proxy
recovers it elsewhere and restores the last checkpoint.  For each
finished span, in ring order, a row holds its name, ids, parent,
``float.hex`` start and end, host, process, status, error and sorted
attrs (floats as ``float.hex``).  The rows are pinned by count, a
CRC-32 and three literal rows; the Chrome export of the same spans by a
CRC-32 of its canonical JSON.
"""

import json
import zlib

from repro.core import Runtime, RuntimeConfig
from repro.ft import FtPolicy
from repro.ft.checkpointable import CHECKPOINTABLE_IDL
from repro.obs.exporters import chrome_trace
from repro.orb import compile_idl

ns = compile_idl(
    CHECKPOINTABLE_IDL
    + """
interface GoldenRead { double total(); };
interface GoldenTally : FT::Checkpointable {
    long add(in long amount);
};
""",
    name="span-record-golden",
)


class GoldenReadImpl(ns.GoldenReadSkeleton):
    def total(self):
        return 2.5


class GoldenTallyImpl(ns.GoldenTallySkeleton):
    def __init__(self):
        self._total = 0

    def add(self, amount):
        self._total += amount
        return self._total

    def get_checkpoint(self):
        return {"total": self._total}

    def restore_from(self, state):
        self._total = int(state["total"])


def _value(value) -> str:
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def span_row(span) -> str:
    attrs = ",".join(f"{key}={_value(span.attrs[key])}" for key in sorted(span.attrs))
    return "|".join(
        (
            span.name,
            span.trace_id,
            span.span_id,
            str(span.parent_id),
            span.start.hex(),
            span.end.hex(),
            span.host,
            span.process,
            span.status,
            str(span.error),
            attrs,
        )
    )


def golden_run() -> Runtime:
    runtime = Runtime(RuntimeConfig(num_hosts=4, seed=7)).start()
    runtime.register_type("GoldenTally", GoldenTallyImpl)
    read_ior = runtime.orb(1).poa.activate(GoldenReadImpl())
    proxy = runtime.ft_proxy(
        ns.GoldenTallyStub,
        runtime.orb(2).poa.activate(GoldenTallyImpl()),
        key="golden-tally",
        type_name="GoldenTally",
        policy=FtPolicy(),
    )
    runtime.settle()
    stub = runtime.orb(3).stub(read_ior, ns.GoldenReadStub)

    def client():
        for _ in range(25):
            assert (yield stub.total()) == 2.5
        assert (yield proxy.add(3)) == 3
        runtime.cluster.host(2).crash()
        assert (yield proxy.add(4)) == 7

    runtime.run(client())
    return runtime


def test_every_finished_span_is_pinned():
    runtime = golden_run()
    spans = list(runtime.obs.tracer.spans)
    rows = [span_row(span) for span in spans]
    assert runtime.obs.tracer.dropped == 0
    assert len(rows) == SPAN_COUNT
    assert zlib.crc32("\n".join(rows).encode()) == ROWS_CRC32
    assert rows[0] == FIRST_ROW
    assert rows[len(rows) // 2] == MIDDLE_ROW
    assert rows[-1] == LAST_ROW
    document = chrome_trace(spans, now=runtime.sim.now)
    canonical = json.dumps(document, sort_keys=True).encode()
    assert zlib.crc32(canonical) == CHROME_CRC32


SPAN_COUNT = 84
ROWS_CRC32 = 0x337D407E
FIRST_ROW = (
    "serve:bind_service|000000000001|00000005|00000001|0x1.686aa28b2fc98p-13|"
    "0x1.d1462e37a0d63p-13|ws00|ws00/orb@ws00:serve:bind_service|ok|None|"
    "kind='server',reply_bytes=0,reply_marshal_work=0x1.a36e2eb1c432dp-15"
)
MIDDLE_ROW = (
    "serve:total|000000000016|0000002c|0000002b|0x1.9c7001f09b077p+1|"
    "0x1.9c71a5b4aff4cp+1|ws01|ws01/orb@ws01:serve:total|ok|None|"
    "kind='server',reply_bytes=8,reply_marshal_work=0x1.a3c414ed4cf50p-15"
)
LAST_ROW = (
    "ft:add|00000000001f|00000043|None|0x1.9fee5202ac2bcp+1|"
    "0x1.a418a24dc8342p+1|ws00|ws00/ft:add|ok|None|"
    "attempts=2,service='golden-tally'"
)
CHROME_CRC32 = 0xAB65E679
