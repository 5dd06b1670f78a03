"""Call-count gates for ``any`` marshalling, for one null invocation and
for one Complex Box worker solve, and how many times one fault-tolerant
call marshals its state.

Counts, not times: they read the same on a noisy box, and they fail loudly
if a refactor drops the bulk lane of ``sequence<any>`` or the one-dispatch
``any`` lanes, starts rebuilding typecodes per element again, puts a frame
back under every CDR primitive, kernel event or CPU change, puts NumPy's
reduction wrappers back into the optimizer's hot loop, or marshals a
captured state again instead of forwarding its image.  Each gate is the
shipped value plus 5 %, except the worker solve's (1 %: the NumPy form was
only 2 % above) and the null invocation's (the shipped value rounded up).
"""

import numpy as np
import pytest

from repro.core import Runtime, RuntimeConfig
from repro.ft import FtPolicy
from repro.ft.checkpointable import CHECKPOINTABLE_IDL
from repro.obs.metrics import MetricsRegistry
from repro.orb import cdr, compile_idl
from repro.opt import DecomposedRosenbrock
from repro.orb.cdr import decode_any, encode_any
from repro.sim.randomness import rng_stream

ns = compile_idl("interface Budgeted { double total(); };", name="call-budget")


class BudgetedImpl(ns.BudgetedSkeleton):
    def total(self):
        return 2.5


@pytest.fixture
def roundtrip_calls(count_calls):
    """Calls one ``decode_any(encode_any(value))`` makes once its plans
    are compiled."""

    def _calls(value) -> int:
        assert decode_any(encode_any(value)) == value
        return count_calls(lambda: decode_any(encode_any(value)))

    return _calls


def test_bulk_checkpoint_state_costs_calls_per_list_not_per_element(roundtrip_calls):
    # the shape FT proxies checkpoint in benchmarks/e2e: 1 + 512 doubles
    state = {"total": 1.5, "weights": [0.5 * i for i in range(512)]}
    # 27 224 walking the list element by element; 494 with the lane;
    # 373 with one frame per CDR primitive; 110 with one dispatch per value
    assert roundtrip_calls(state) <= 115


def test_mixed_dict_costs_no_more_calls_than_before_the_lanes(roundtrip_calls):
    # 1 + 6 fields of different types: nothing here is long enough for a
    # lane, so this is the per-element path every small state takes
    mixed = {
        "best": 1.25,
        "iters": 300,
        "name": "w3",
        "ok": True,
        "block": [1.0, 2.0, 3.0],
        "note": None,
    }
    # 1 249 at the parent of the change that added the lanes
    # (Python 3.11: 756 Python-level + 493 C-level); 915 after it;
    # 686 with one frame per CDR primitive; 222 with one dispatch per value
    assert roundtrip_calls(mixed) <= 233


def test_member_envelope_round_trip_budget(roundtrip_calls):
    # what a warm-passive group ships: the bulk state and a 20-entry
    # reply cache in a member envelope
    envelope = {
        "__ft_member_state__": 1,
        "state": {"total": 6.0, "weights": [0.5 * i for i in range(512)]},
        "replies": {f"acc:{i}": 1.5 * i for i in range(1, 21)},
    }
    # 2 236 through typecodes and plans; 720 with one dispatch per value
    assert roundtrip_calls(envelope) <= 756


def warm_null_calls():
    """``(runtime, reads)``: back-to-back ``total()`` calls between two ORBs
    of a 3-host runtime, 20 of them already made; ``reads(n, took)`` is a
    client generator making ``n`` more, appending each one's simulated time
    to the list ``took`` if one is given."""
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=7)).start()
    ior = runtime.orb(1).poa.activate(BudgetedImpl())
    runtime.settle()
    stub = runtime.orb(2).stub(ior, ns.BudgetedStub)
    sim = runtime.sim

    def reads(count, took=None):
        for _ in range(count):
            started = sim.now
            assert (yield stub.total()) == 2.5
            if took is not None:
                took.append(sim.now - started)

    runtime.run(reads(20))
    return runtime, reads


def test_null_call_budget(count_calls):
    """Python + C calls per warm back-to-back ``total()``: everything an
    invocation costs the host — stub, ORB, GIOP/CDR, network, the call and
    dispatch activities, four CPU charges, the kernel events under them,
    tracing and metrics."""
    runtime, reads = warm_null_calls()
    reads_counted = 50
    calls = (
        count_calls(lambda: runtime.run(reads(reads_counted)))
        / reads_counted
    )
    # 992.6 before the kernel, CDR and CPU call stacks were flattened
    # (four frames per event, four per primitive, three scans per change);
    # 567.68 while each histogram observation also read a clock; 565.68
    # while each CPU charge scanned the task table and re-armed the
    # completion; 537.66 with one attained-service clock; 434.44 with the
    # call and the dispatch as activities instead of spawned processes;
    # 342.44 with slotted GIOP messages, request infos and trace contexts,
    # Request/Reply codecs built from struct runs and each instrument
    # bound once per ORB and operation; 336.96 with spans that hold their
    # ids in slots and no TraceContext, span and activity names bound
    # once per ORB and operation, and a server span under the open client
    # span's own id strings; 334.96 with finished spans appended to the
    # span log as rows (packing 256 rows into a segment is 5 more calls,
    # +0.04 a read, and falls outside these 50 reads); 306.96 with the
    # call and the dispatch writing their own spans (no interceptor
    # chain, request-info records or open-span lookup at the reply), and
    # 307.04 in the full suite, where the garbage the CDR lane tests leave
    # brings a cyclic collection into the counted reads
    assert calls <= 308


def record_lookups(monkeypatch) -> list:
    """Names of the instruments looked up in any registry from now on."""
    looked_up = []
    real = MetricsRegistry._get

    def counting(self, cls, name, labels):
        looked_up.append(name)
        return real(self, cls, name, labels)

    monkeypatch.setattr(MetricsRegistry, "_get", counting)
    return looked_up


def test_null_call_binds_its_instruments_once(monkeypatch):
    """A warm ``total()`` looks up no instrument: the traced ORB's sent and
    served counters, the call-latency histogram and the dispatch-time
    histogram are bound once per ORB and operation, at its first call, and
    the Winner load-report round that falls into the window feeds series
    each node manager and the system manager bound at their first
    report."""
    runtime, reads = warm_null_calls()
    looked_up = record_lookups(monkeypatch)
    runtime.run(reads(50))
    assert looked_up == []


def test_null_call_events():
    """Kernel events scheduled per warm back-to-back ``total()``: the
    marshal, dispatch, reply-marshal and unmarshal charges, the two
    deliveries and the caller's wakeup — nothing that only passes control
    on.  Every read still takes the simulated time it took when a call
    was two processes (16.10 events per read then)."""
    runtime, reads = warm_null_calls()
    sim = runtime.sim
    took = []
    reads_counted = 50
    scheduled = sim._seq
    runtime.run(reads(reads_counted, took))
    events = (sim._seq - scheduled) / reads_counted
    assert events <= 7.1
    assert {t.hex() for t in took} == {"0x1.4b848dc3cd800p-10"}


def test_worker_solve_call_budget(count_calls):
    """Python + C calls of one worker-0 solve of the paper's 100/7 layout at
    the bench iteration cap (96): 214 objective evaluations."""
    problem = DecomposedRosenbrock(100, 7)
    coupling = np.full(problem.manager_dimension, 0.5)

    def solve():
        return problem.solve_worker(0, coupling, rng_stream(7, "worker-solve"), 96)

    assert solve().evaluations == 214
    # 5 583 with the NumPy engine and objective (np.sum / np.clip /
    # np.argmax wrappers per step); 5 470 with the plain-float objective,
    # whose list appends are C calls too; 5 469 with the starting complex
    # drawn in one call from the in-repo stream
    assert count_calls(solve) <= 5520


# -- how often one FT call marshals its state ----------------------------------------

accumulator_ns = compile_idl(
    CHECKPOINTABLE_IDL
    + """
interface BudgetAccumulator : FT::Checkpointable {
    double add(in double amount);
};
""",
    name="call-budget-accumulator",
)


class BudgetAccumulator(accumulator_ns.BudgetAccumulatorSkeleton):
    """The e2e ``ft_state_stream`` state: a running total beside 512
    doubles."""

    def __init__(self):
        self._total = 0.0
        self._weights = [0.5 * i for i in range(STATE_DOUBLES)]

    def add(self, amount):
        self._total += amount
        return self._total

    def get_checkpoint(self):
        return {"total": self._total, "weights": list(self._weights)}

    def restore_from(self, state):
        self._total = float(state["total"])
        self._weights = [float(w) for w in state["weights"]]


STATE_DOUBLES = 512


def state_encodes(monkeypatch, runtime, proxy) -> int:
    """State encodes during one ``add`` after a warm-up call: every
    encoding of the state — bare or inside a member envelope, by any
    stream on any host — writes its 512 weights once, through the
    sequence<any> writer."""
    writes = []
    real = cdr._write_any_seq

    def counting(stream, value):
        if len(value) == STATE_DOUBLES:
            writes.append(len(stream))
        real(stream, value)

    def call():
        yield proxy.add(1.0)

    runtime.run(call())
    cdr.clear_plan_cache()  # plans compiled from now on see the counter
    monkeypatch.setattr(cdr, "_write_any_seq", counting)
    runtime.run(call())
    return len(writes)


def ft_runtime():
    runtime = Runtime(RuntimeConfig(num_hosts=6, seed=7, winner_interval=0.5)).start()
    runtime.register_type("BudgetAccumulator", BudgetAccumulator)
    return runtime


def test_warm_passive_call_encodes_its_envelope_once(monkeypatch):
    """The primary marshals its reply; the client hashes that image and
    sends it to both standbys as is, and each standby hashes the request
    body it received (six envelope encodes before images)."""
    runtime = ft_runtime()
    proxy = runtime.ft_proxy(
        accumulator_ns.BudgetAccumulatorStub,
        runtime.orb(1).poa.activate(BudgetAccumulator()),
        key="acc",
        type_name="BudgetAccumulator",
        policy=FtPolicy(ft_mode="warm-passive", replication_factor=3),
        with_store=False,
    )
    runtime.settle(3.0)
    assert state_encodes(monkeypatch, runtime, proxy) == 1
    assert proxy._ft.group.snapshot()["state_ships_full"] == 4


def test_sync_checkpoint_call_encodes_its_state_at_most_three_times(monkeypatch):
    """The servant's reply, the store request (its any sits at body offset
    12, so the reply's image does not fit) and the store's own record."""
    runtime = ft_runtime()
    proxy = runtime.ft_proxy(
        accumulator_ns.BudgetAccumulatorStub,
        runtime.orb(1).poa.activate(BudgetAccumulator()),
        key="acc",
        type_name="BudgetAccumulator",
        policy=FtPolicy(),
    )
    runtime.settle(3.0)
    assert state_encodes(monkeypatch, runtime, proxy) <= 3


def test_warm_sync_checkpoint_call_binds_its_instruments_once(monkeypatch):
    """A warm ``add`` through a synchronous checkpointing proxy — the call,
    the state fetch, the store round trip and the Winner report rounds
    under them — looks up no instrument."""
    runtime = ft_runtime()
    proxy = runtime.ft_proxy(
        accumulator_ns.BudgetAccumulatorStub,
        runtime.orb(1).poa.activate(BudgetAccumulator()),
        key="acc",
        type_name="BudgetAccumulator",
        policy=FtPolicy(),
    )
    runtime.settle(3.0)

    def calls(count):
        for _ in range(count):
            yield proxy.add(1.0)

    runtime.run(calls(3))
    looked_up = record_lookups(monkeypatch)
    runtime.run(calls(20))
    assert proxy._ft.checkpoints_taken == 23
    assert looked_up == []
