"""Every span of the ORB's call paths, pinned as literals.

Each case scripts one invocation scenario on a three-host ``Runtime``
whose CPUs run at 1/100 speed, so every marshal, dispatch and unmarshal
charge is a window wide enough to crash a host in: a plain call, a
oneway call, a user and two system exceptions, a single and a chained
LOCATION_FORWARD, a cached forward whose target has gone, a timeout that
sends a CancelRequest, a server crash mid-servant and a client crash
while the call waits for its reply.  The ORBs are the runtime's, so they
trace.

For every span that finishes after the runtime settles, in ring order, a
row holds its name, ids, parent, ``float.hex`` start and end, host,
process, status, error and attrs in the order they were set (floats as
``float.hex``).  The record also holds what each caller got, the spans
still open at the end (none, in every case) and each instrument the
case registered, in the order it was first bound, with its count.
"""

from __future__ import annotations

import pytest

from repro.core import Runtime, RuntimeConfig
from repro.errors import BAD_PARAM
from repro.orb import OrbConfig, compile_idl
from repro.orb.forwarding import LocationForward

ns = compile_idl(
    """
    exception Refused { string why; };
    interface SpanGolden {
        double echo(in double x);
        double grind(in double seconds);
        oneway void note(in double x);
        double refuse() raises (Refused);
        double fault();
        double bug();
    };
    """,
    name="call-span-golden",
)


class GoldenImpl(ns.SpanGoldenSkeleton):
    def __init__(self):
        self.notes = []

    def echo(self, x):
        return x

    def grind(self, seconds):
        yield self._host().execute(seconds)
        return seconds

    def note(self, x):
        self.notes.append(x)

    def refuse(self):
        raise ns.Refused(why="golden")

    def fault(self):
        raise BAD_PARAM("golden fault")

    def bug(self):
        raise ValueError("golden bug")


class Forwarder(ns.SpanGoldenSkeleton):
    """Forwards every request to ``target``."""

    def __init__(self, target):
        self.target = target

    def _forward(self, *_args):
        raise LocationForward(self.target)

    echo = grind = refuse = fault = bug = _forward


# -- the record ------------------------------------------------------------------


def _value(value) -> str:
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def span_row(span) -> str:
    attrs = ",".join(f"{key}={_value(value)}" for key, value in span.attrs.items())
    return "|".join(
        (
            span.name,
            span.trace_id,
            span.span_id,
            str(span.parent_id),
            span.start.hex(),
            span.end.hex() if span.end is not None else "open",
            span.host,
            span.process,
            span.status,
            str(span.error),
            attrs,
        )
    )


def golden_runtime(orb_config=None) -> Runtime:
    config = RuntimeConfig(
        num_hosts=3, seed=7, speeds=0.01, orb=orb_config or OrbConfig()
    )
    runtime = Runtime(config).start()
    runtime.settle()
    return runtime


def outcome_of(runtime, call):
    """Drive ``call()`` (a thunk returning the call's future) from a
    process no host owns; returns ``(what it got, float.hex(now))``."""
    box = {}

    def driver():
        try:
            value = yield call()
        except Exception as exc:  # noqa: BLE001 - the record is the point
            box["got"] = type(exc).__name__
        else:
            box["got"] = value
        box["at"] = runtime.sim.now.hex()

    runtime.sim.spawn(driver())
    return box


def after(runtime, delay, action):
    runtime.sim.schedule(delay, action)


def instrument_row(instrument) -> str:
    labels = ",".join(f"{key}={value}" for key, value in instrument.labels)
    count = getattr(instrument, "value", None)
    if count is None:
        count = instrument.count
    return f"{instrument.name}{{{labels}}}={count!r}"


def record(runtime, boxes, since):
    """Run the world out; the outcomes, the new spans, the open ones and
    the new instruments."""
    runtime.sim.run(until=runtime.sim.now + 60.0)
    tracer = runtime.obs.tracer
    spans, instruments = since
    return {
        "calls": [(box["got"], box["at"]) for box in boxes],
        "spans": [span_row(span) for span in list(tracer.spans)[spans:]],
        "open": sorted(span_row(span) for span in tracer._open.values()),
        "instruments": [
            instrument_row(instrument)
            for instrument in list(runtime.obs.metrics._instruments.values())[
                instruments:
            ]
        ],
    }


def pair(runtime, client=0, server=1):
    impl = GoldenImpl()
    ior = runtime.orb(server).poa.activate(impl)
    return impl, runtime.orb(client).stub(ior, ns.SpanGoldenStub)


def start(orb_config=None):
    runtime = golden_runtime(orb_config)
    obs = runtime.obs
    return runtime, (len(obs.tracer.spans), len(obs.metrics._instruments))


# -- the cases --------------------------------------------------------------------


def case_plain():
    runtime, since = start()
    _, stub = pair(runtime)
    boxes = [outcome_of(runtime, lambda: stub.echo(1.5))]
    return record(runtime, boxes, since)


def case_oneway():
    runtime, since = start()
    impl, stub = pair(runtime)
    boxes = [outcome_of(runtime, lambda: stub.note(2.5))]
    result = record(runtime, boxes, since)
    assert impl.notes == [2.5]
    return result


def case_user_exception():
    runtime, since = start()
    _, stub = pair(runtime)
    boxes = [outcome_of(runtime, stub.refuse)]
    return record(runtime, boxes, since)


def case_system_exception():
    runtime, since = start()
    _, stub = pair(runtime)
    boxes = [outcome_of(runtime, stub.fault), outcome_of(runtime, stub.bug)]
    return record(runtime, boxes, since)


def case_forward_single():
    runtime, since = start()
    real = runtime.orb(2).poa.activate(GoldenImpl())
    agent = runtime.orb(1).poa.activate(Forwarder(real))
    stub = runtime.orb(0).stub(agent, ns.SpanGoldenStub)
    boxes = [outcome_of(runtime, lambda: stub.echo(3.0))]
    return record(runtime, boxes, since)


def case_forward_chained():
    runtime, since = start()
    final = runtime.orb(2).poa.activate(GoldenImpl())
    middle = runtime.orb(1).poa.activate(Forwarder(final))
    first = runtime.orb(0).poa.activate(Forwarder(middle))
    stub = runtime.orb(0).stub(first, ns.SpanGoldenStub)
    boxes = [outcome_of(runtime, lambda: stub.echo(4.0))]
    return record(runtime, boxes, since)


def case_cached_forward_dead_target():
    runtime, since = start()
    real = runtime.orb(2).poa.activate(GoldenImpl())
    agent = runtime.orb(1).poa.activate(Forwarder(real))
    stub = runtime.orb(0).stub(agent, ns.SpanGoldenStub)
    boxes = [outcome_of(runtime, lambda: stub.echo(6.0))]
    runtime.sim.run(until=runtime.sim.now + 1.0)
    runtime.orb(2).shutdown()
    boxes.append(outcome_of(runtime, lambda: stub.echo(7.0)))
    return record(runtime, boxes, since)


def case_timeout_cancels_request():
    runtime, since = start(OrbConfig(request_timeout=0.5))
    _, stub = pair(runtime)
    boxes = [outcome_of(runtime, lambda: stub.grind(0.3))]
    result = record(runtime, boxes, since)
    assert runtime.orb(1).requests_cancelled == 1
    return result


def case_server_crash_mid_servant():
    runtime, since = start()
    _, stub = pair(runtime)
    boxes = [outcome_of(runtime, lambda: stub.grind(0.01))]
    after(runtime, 0.5, runtime.cluster.host(1).crash)
    return record(runtime, boxes, since)


# The echo timeline at 1/100 speed: client marshal ≈ 5.0 ms, the request
# in flight to ≈ 5.5 ms, the server's dispatch and reply marshal to
# ≈ 20.6 ms: at 10 ms the client waits for its reply.


def case_client_crash_while_waiting():
    runtime, since = start()
    _, stub = pair(runtime, client=2)
    boxes = [outcome_of(runtime, lambda: stub.echo(1.0))]
    after(runtime, 0.010, runtime.cluster.host(2).crash)
    return record(runtime, boxes, since)


CASES = {
    name[len("case_"):]: function
    for name, function in sorted(globals().items())
    if name.startswith("case_")
}

GOLDEN: dict = {
    "cached_forward_dead_target": {
        "calls": [
            (6.0, '0x1.9fa556663e229p+1'),
            ('COMM_FAILURE', '0x1.0e9a8db55fc8bp+2'),
        ],
        "spans": [
            (
                'serve:echo|000000000004|00000008|00000007|0x1.9b97ea6cf0c42p+1|'
                '0x1.9c3cdead9fe0ep+1|ws01|ws01/orb@ws01:serve:echo|ok|None|'
                "kind='server',reply_bytes=68,reply_marshal_work=0x1.a64853abcea57p-15"
            ),
            (
                'call:echo|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.9cf27f0dfd18dp+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:echo|000000000005|0000000a|00000009|0x1.9e4ceb6b1d856p+1|'
                '0x1.9ef0e4034a377p+1|ws02|ws02/orb@ws02:serve:echo|ok|None|'
                "kind='server',reply_bytes=8,reply_marshal_work=0x1.a3c414ed4cf50p-15"
            ),
            (
                'call:echo|000000000005|00000009|None|0x1.9cf27f0dfd18dp+1|'
                '0x1.9fa556663e229p+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=3,target='ws02',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15,'
                'unmarshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'call:echo|000000000006|0000000b|None|0x1.0d1ec918e325dp+2|'
                '0x1.0d2f703013c3fp+2|ws00|ws00/call:echo|error|COMM_FAILURE|'
                "kind='client',request_id=4,target='ws02',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:echo|000000000007|0000000d|0000000c|0x1.0ddc9c4da9003p+2|'
                '0x1.0e2f166e008e9p+2|ws01|ws01/orb@ws01:serve:echo|ok|None|'
                "kind='server',reply_bytes=68,reply_marshal_work=0x1.a64853abcea57p-15"
            ),
            (
                'call:echo|000000000007|0000000c|None|0x1.0d2f703013c3fp+2|'
                '0x1.0e89e69e2f2a9p+2|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=5,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'call:echo|000000000008|0000000e|None|0x1.0e89e69e2f2a9p+2|'
                '0x1.0e9a8db55fc8bp+2|ws00|ws00/call:echo|error|COMM_FAILURE|'
                "kind='client',request_id=6,target='ws02',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=echo}=5.0',
            'orb_requests_served_total{host=ws01,operation=echo}=2.0',
            'orb_dispatch_seconds{host=ws01,operation=echo}=2',
            'orb_requests_served_total{host=ws02,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws02,operation=echo}=1',
            'orb_call_latency_seconds{host=ws00,operation=echo}=2',
            'network_dropped_total{reason=unbound}=2.0',
            'orb_call_failures_total{host=ws00,operation=echo}=1.0',
        ],
    },
    "client_crash_while_waiting": {
        "calls": [('ProcessKilled', '0x1.9ae147ae147aep+1')],
        "spans": [
            (
                'call:echo|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.9ae147ae147aep+1|ws02|ws02/call:echo|error|ProcessKilled|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:echo|000000000004|00000008|00000007|0x1.9b97fe8ee6b84p+1|'
                '0x1.9c3bf727136a5p+1|ws01|ws01/orb@ws01:serve:echo|ok|None|'
                "kind='server',reply_bytes=8,reply_marshal_work=0x1.a3c414ed4cf50p-15"
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws02,operation=echo}=1.0',
            'host_crashes_total{host=ws02}=1.0',
            'orb_call_latency_seconds{host=ws02,operation=echo}=1',
            'orb_call_failures_total{host=ws02,operation=echo}=1.0',
            'orb_requests_served_total{host=ws01,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=echo}=1',
            'network_dropped_total{reason=host-down}=1.0',
        ],
    },
    "forward_chained": {
        "calls": [(4.0, '0x1.a23a01838dbebp+1')],
        "spans": [
            (
                'serve:echo|000000000004|00000008|00000007|0x1.9b87ce95faa8bp+1|'
                '0x1.9c2cb20fb224bp+1|ws00|ws00/orb@ws00:serve:echo|ok|None|'
                "kind='server',reply_bytes=64,reply_marshal_work=0x1.a61d608e0a445p-15"
            ),
            (
                'call:echo|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.9cd23d4f15e7dp+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=2,target='ws00',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:echo|000000000005|0000000a|00000009|0x1.9e2c958a40604p+1|'
                '0x1.9ed189caef7d0p+1|ws01|ws01/orb@ws01:serve:echo|ok|None|'
                "kind='server',reply_bytes=68,reply_marshal_work=0x1.a64853abcea57p-15"
            ),
            (
                'call:echo|000000000005|00000009|None|0x1.9cd23d4f15e7dp+1|'
                '0x1.9f872a2b4cb4fp+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=3,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:echo|000000000006|0000000c|0000000b|0x1.a0e196886d218p+1|'
                '0x1.a1858f2099d39p+1|ws02|ws02/orb@ws02:serve:echo|ok|None|'
                "kind='server',reply_bytes=8,reply_marshal_work=0x1.a3c414ed4cf50p-15"
            ),
            (
                'call:echo|000000000006|0000000b|None|0x1.9f872a2b4cb4fp+1|'
                '0x1.a23a01838dbebp+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=4,target='ws02',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15,'
                'unmarshal_work=0x1.a3c414ed4cf50p-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=echo}=3.0',
            'orb_requests_served_total{host=ws00,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws00,operation=echo}=1',
            'orb_requests_served_total{host=ws01,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=echo}=1',
            'orb_requests_served_total{host=ws02,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws02,operation=echo}=1',
            'orb_call_latency_seconds{host=ws00,operation=echo}=1',
        ],
    },
    "forward_single": {
        "calls": [(3.0, '0x1.9fa556663e229p+1')],
        "spans": [
            (
                'serve:echo|000000000004|00000008|00000007|0x1.9b97ea6cf0c42p+1|'
                '0x1.9c3cdead9fe0ep+1|ws01|ws01/orb@ws01:serve:echo|ok|None|'
                "kind='server',reply_bytes=68,reply_marshal_work=0x1.a64853abcea57p-15"
            ),
            (
                'call:echo|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.9cf27f0dfd18dp+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:echo|000000000005|0000000a|00000009|0x1.9e4ceb6b1d856p+1|'
                '0x1.9ef0e4034a377p+1|ws02|ws02/orb@ws02:serve:echo|ok|None|'
                "kind='server',reply_bytes=8,reply_marshal_work=0x1.a3c414ed4cf50p-15"
            ),
            (
                'call:echo|000000000005|00000009|None|0x1.9cf27f0dfd18dp+1|'
                '0x1.9fa556663e229p+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=3,target='ws02',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15,'
                'unmarshal_work=0x1.a3c414ed4cf50p-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=echo}=2.0',
            'orb_requests_served_total{host=ws01,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=echo}=1',
            'orb_requests_served_total{host=ws02,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws02,operation=echo}=1',
            'orb_call_latency_seconds{host=ws00,operation=echo}=1',
        ],
    },
    "oneway": {
        "calls": [(None, '0x1.9a3d9231c64bbp+1')],
        "spans": [
            (
                'call:note|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.9a3d9231c64bbp+1|ws00|ws00/call:note|ok|None|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15,oneway=True'
            ),
            (
                'serve:note|000000000004|00000008|00000007|0x1.9b97fe8ee6b84p+1|'
                '0x1.9b97fe8ee6b84p+1|ws01|ws01/orb@ws01:serve:note|ok|None|'
                "kind='server',reply_bytes=0"
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=note}=1.0',
            'orb_call_latency_seconds{host=ws00,operation=note}=1',
            'orb_requests_served_total{host=ws01,operation=note}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=note}=1',
        ],
    },
    "plain": {
        "calls": [(1.5, '0x1.9cf0698a07557p+1')],
        "spans": [
            (
                'serve:echo|000000000004|00000008|00000007|0x1.9b97fe8ee6b84p+1|'
                '0x1.9c3bf727136a5p+1|ws01|ws01/orb@ws01:serve:echo|ok|None|'
                "kind='server',reply_bytes=8,reply_marshal_work=0x1.a3c414ed4cf50p-15"
            ),
            (
                'call:echo|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.9cf0698a07557p+1|ws00|ws00/call:echo|ok|None|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15,'
                'unmarshal_work=0x1.a3c414ed4cf50p-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=echo}=1.0',
            'orb_requests_served_total{host=ws01,operation=echo}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=echo}=1',
            'orb_call_latency_seconds{host=ws00,operation=echo}=1',
        ],
    },
    "server_crash_mid_servant": {
        "calls": [('COMM_FAILURE', '0x1.d9a9fbe76c8b5p+1')],
        "spans": [
            (
                'serve:grind|000000000004|00000008|00000007|0x1.9b97fe8ee6b84p+1|'
                '0x1.d99999999999ap+1|ws01|ws01/orb@ws01:serve:grind|error|'
                "ProcessKilled|kind='server'"
            ),
            (
                'call:grind|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.d9a9fbe76c8b5p+1|ws00|ws00/call:grind|error|COMM_FAILURE|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=grind}=1.0',
            'orb_requests_served_total{host=ws01,operation=grind}=1.0',
            'host_crashes_total{host=ws01}=1.0',
            'orb_call_latency_seconds{host=ws00,operation=grind}=1',
            'orb_call_failures_total{host=ws00,operation=grind}=1.0',
        ],
    },
    "system_exception": {
        "calls": [
            ('BAD_PARAM', '0x1.a0276097198ccp+1'),
            ('UNKNOWN', '0x1.a0280501c7807p+1'),
        ],
        "spans": [
            (
                'serve:fault|000000000004|0000000a|00000007|0x1.9d850f9ed9748p+1|'
                '0x1.9ece15a228b46p+1|ws01|ws01/orb@ws01:serve:fault|ok|None|'
                "kind='server',reply_bytes=41,reply_marshal_work=0x1.a5266aa2e1161p-15"
            ),
            (
                'serve:bug|000000000005|00000009|00000008|0x1.9d84e75aed8c5p+1|'
                '0x1.9ece556308e3dp+1|ws01|ws01/orb@ws01:serve:bug|ok|None|'
                "kind='server',reply_bytes=61,reply_marshal_work=0x1.a5fd2a37b6fb8p-15"
            ),
            (
                'call:fault|000000000004|00000007|None|0x1.9ae147ae147aep+1|'
                '0x1.a0276097198ccp+1|ws00|ws00/call:fault|error|BAD_PARAM|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a36e2eb1c432dp-15'
            ),
            (
                'call:bug|000000000005|00000008|None|0x1.9ae147ae147aep+1|'
                '0x1.a0280501c7807p+1|ws00|ws00/call:bug|error|UNKNOWN|'
                "kind='client',request_id=3,target='ws01',"
                'request_marshal_work=0x1.a36e2eb1c432dp-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=fault}=1.0',
            'orb_requests_sent_total{host=ws00,operation=bug}=1.0',
            'orb_requests_served_total{host=ws01,operation=bug}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=bug}=1',
            'orb_requests_served_total{host=ws01,operation=fault}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=fault}=1',
            'orb_call_latency_seconds{host=ws00,operation=fault}=1',
            'orb_call_failures_total{host=ws00,operation=fault}=1.0',
            'orb_call_latency_seconds{host=ws00,operation=bug}=1',
            'orb_call_failures_total{host=ws00,operation=bug}=1.0',
        ],
    },
    "timeout_cancels_request": {
        "calls": [('TIMEOUT', '0x1.da3d9231c64bbp+1')],
        "spans": [
            (
                'call:grind|000000000004|00000007|None|0x1.9a3d9231c64bbp+1|'
                '0x1.da3d9231c64bbp+1|ws00|ws00/call:grind|error|TIMEOUT|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a3c414ed4cf50p-15'
            ),
            (
                'serve:grind|000000000004|00000008|00000007|0x1.9b97fe8ee6b84p+1|'
                '0x1.da4dfe9094376p+1|ws01|ws01/orb@ws01:serve:grind|error|'
                "ProcessKilled|kind='server'"
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=grind}=1.0',
            'orb_requests_served_total{host=ws01,operation=grind}=1.0',
            'orb_call_latency_seconds{host=ws00,operation=grind}=1',
            'orb_call_failures_total{host=ws00,operation=grind}=1.0',
        ],
    },
    "user_exception": {
        "calls": [('Refused', '0x1.9cf0f3f382433p+1')],
        "spans": [
            (
                'serve:refuse|000000000004|00000008|00000007|0x1.9b97b4bd0b8ebp+1|'
                '0x1.9c3c0dcd481cdp+1|ws01|ws01/orb@ws01:serve:refuse|ok|None|'
                "kind='server',reply_bytes=31,reply_marshal_work=0x1.a4bb0ad876235p-15"
            ),
            (
                'call:refuse|000000000004|00000007|None|0x1.9a3d70a3d70a4p+1|'
                '0x1.9cf0f3f382433p+1|ws00|ws00/call:refuse|error|Refused|'
                "kind='client',request_id=2,target='ws01',"
                'request_marshal_work=0x1.a36e2eb1c432dp-15'
            ),
        ],
        "open": [],
        "instruments": [
            'orb_requests_sent_total{host=ws00,operation=refuse}=1.0',
            'orb_requests_served_total{host=ws01,operation=refuse}=1.0',
            'orb_dispatch_seconds{host=ws01,operation=refuse}=1',
            'orb_call_latency_seconds{host=ws00,operation=refuse}=1',
            'orb_call_failures_total{host=ws00,operation=refuse}=1.0',
        ],
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_call_spans_are_pinned(name):
    assert CASES[name]() == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":  # print the record of every case
    import pprint

    pprint.pprint({name: case() for name, case in CASES.items()}, width=100)
