"""A propagated trace context is accepted only in the tracer's own form.

A peer writes the TRCX service context of its requests, and the server
span built under it lives in the tracer's ring.  A blob in any other form
— a megabyte of hex, upper case, a third field — must not become an id
that the ring keeps: the dispatch starts a fresh trace instead.
"""

import pytest

from repro.core import Runtime, RuntimeConfig
from repro.obs.trace import TRACE_CONTEXT_SERVICE_ID, TraceContext
from repro.orb import compile_idl, giop

ns = compile_idl("interface WireRead { double total(); };", name="trace-context-wire")


class WireReadImpl(ns.WireReadSkeleton):
    def total(self):
        return 2.5


HOSTILE = b"a" * 1_000_000 + b":b"


@pytest.mark.parametrize(
    "blob",
    [
        HOSTILE,
        b"b:" + b"a" * 33,
        b"A:b",
        b"a:b:c",
        b"a:-b",
        b" a:b",
        b"a:b\n",
        b"0x1:2",
    ],
    ids=[
        "megabyte-id",
        "33-digit-id",
        "upper-case",
        "third-field",
        "sign",
        "leading-space",
        "trailing-newline",
        "hex-prefix",
    ],
)
def test_decode_refuses_all_but_the_tracers_own_form(blob):
    assert TraceContext.decode(blob) is None


def test_decode_accepts_ids_up_to_32_hex_digits():
    longest = TraceContext("f" * 32, "0123456789abcdef" * 2)
    assert TraceContext.decode(longest.encode()) == longest
    assert TraceContext.decode(b"1:2") == TraceContext("1", "2")


def test_a_forged_request_with_a_hostile_context_starts_a_fresh_trace():
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=7)).start()
    server = runtime.orb(1)
    ior = server.poa.activate(WireReadImpl())
    runtime.settle()
    tracer = runtime.obs.tracer
    before = len(tracer.spans)
    request = giop.RequestMessage(
        request_id=1,
        response_expected=True,
        object_key=ior.object_key,
        operation="total",
        target_incarnation=ior.incarnation,
        reply_host=runtime.cluster.host(2).name,
        reply_port=runtime.orb(2).port,
        body=b"",
        service_contexts=((TRACE_CONTEXT_SERVICE_ID, HOSTILE),),
    )
    raw = giop.encode_message(request)

    def peer():
        runtime.network.send(
            runtime.cluster.host(2), 40_000, server.host.name, server.port, raw, len(raw)
        )
        yield runtime.sim.timeout(1.0)

    runtime.run(peer())
    served = [span for span in list(tracer.spans)[before:] if span.name == "serve:total"]
    assert len(served) == 1
    span = served[0]
    assert span.status == "ok"
    assert span.parent_id is None
    assert len(span.trace_id) <= 32 and len(span.span_id) <= 32
