"""Call-count gates for ``any`` marshalling, for one null invocation and
for one Complex Box worker solve.

Counts, not times: they read the same on a noisy box, and they fail loudly
if a refactor drops the bulk lane of ``sequence<any>``, starts rebuilding
typecodes per element again, puts a frame back under every CDR
primitive, kernel event or CPU change, or puts NumPy's reduction wrappers
back into the optimizer's hot loop.  Each gate is the shipped value plus
5 %, except the worker solve's (1 %: the NumPy form was only 2 % above).
"""

import numpy as np
import pytest

from repro.core import Runtime, RuntimeConfig
from repro.orb import compile_idl
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
    # 373 with one frame per CDR primitive
    assert roundtrip_calls(state) <= 391


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
    # 686 with one frame per CDR primitive
    assert roundtrip_calls(mixed) <= 720


def test_null_call_budget(count_calls):
    """Python + C calls per back-to-back ``total()`` between two ORBs of a
    3-host runtime, warm: everything an invocation costs the host — stub,
    ORB, GIOP/CDR, network, two spawned processes, four CPU charges, the
    kernel events under them, tracing and metrics."""
    runtime = Runtime(RuntimeConfig(num_hosts=3, seed=7)).start()
    ior = runtime.orb(1).poa.activate(BudgetedImpl())
    runtime.settle()
    stub = runtime.orb(2).stub(ior, ns.BudgetedStub)

    def reads(count):
        for _ in range(count):
            assert (yield stub.total()) == 2.5

    runtime.run(reads(20))
    reads_counted = 50
    calls = count_calls(lambda: runtime.run(reads(reads_counted))) / reads_counted
    # 992.6 before the kernel, CDR and CPU call stacks were flattened
    # (four frames per event, four per primitive, three scans per change)
    assert calls <= 596


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
    # whose list appends are C calls too
    assert count_calls(solve) <= 5525
