"""End-to-end static-invocation tests through the full ORB stack."""

import numpy as np
import pytest

from repro.errors import (
    BAD_OPERATION,
    INV_OBJREF,
    MARSHAL,
    NO_IMPLEMENT,
    OBJ_ADAPTER,
    OBJECT_NOT_EXIST,
    UNKNOWN,
)
from repro.orb import compile_idl
from repro.orb.ior import IOR

CALC_IDL = """
exception DivByZero { string detail; };
interface Calc {
    double add(in double a, in double b);
    double div(in double a, in double b) raises (DivByZero);
    sequence<double> scale(in sequence<double> xs, in double k);
    long bump();
    string whoami();
};
"""

ns = compile_idl(CALC_IDL, name="calc-test")


class CalcImpl(ns.CalcSkeleton):
    def __init__(self, tag="calc"):
        self.tag = tag
        self.calls = 0

    def add(self, a, b):
        return a + b

    def div(self, a, b):
        if b == 0.0:
            raise ns.DivByZero(detail=f"{a}/0")
        return a / b

    def scale(self, xs, k):
        return np.asarray(xs) * k

    def bump(self):
        self.calls += 1
        return self.calls

    def whoami(self):
        return self.tag


def setup_pair(world):
    server_orb = world.orb(1)
    client_orb = world.orb(0)
    impl = CalcImpl()
    ior = server_orb.poa.activate(impl)
    stub = client_orb.stub(ior, ns.CalcStub)
    return impl, ior, stub


def test_simple_call_returns_result(world):
    _, _, stub = setup_pair(world)

    def client():
        return (yield stub.add(2.0, 3.5))

    assert world.run(client()) == 5.5


def test_call_takes_network_and_cpu_time(world):
    _, _, stub = setup_pair(world)

    def client():
        yield stub.add(1.0, 1.0)
        return world.sim.now

    elapsed = world.run(client())
    # two network latencies plus marshalling/dispatch work, all > 1 ms.
    assert 1e-3 < elapsed < 0.1


def test_sequence_parameters_roundtrip_vectorized(world):
    _, _, stub = setup_pair(world)

    def client():
        return (yield stub.scale([1.0, 2.0, 3.0], 2.0))

    result = world.run(client())
    np.testing.assert_array_equal(result, [2.0, 4.0, 6.0])


def test_user_exception_propagates_with_fields(world):
    _, _, stub = setup_pair(world)

    def client():
        try:
            yield stub.div(4.0, 0.0)
        except ns.DivByZero as exc:
            return exc.detail
        return None

    assert world.run(client()) == "4.0/0"


def test_server_state_persists_across_calls(world):
    impl, _, stub = setup_pair(world)

    def client():
        first = yield stub.bump()
        second = yield stub.bump()
        return (first, second)

    assert world.run(client()) == (1, 2)
    assert impl.calls == 2


def test_concurrent_clients_interleave(world):
    server_orb = world.orb(1)
    impl = CalcImpl()
    ior = server_orb.poa.activate(impl)
    stub_a = world.orb(0).stub(ior, ns.CalcStub)
    stub_b = world.orb(2).stub(ior, ns.CalcStub)
    results = []

    def client(stub, tag):
        value = yield stub.add(1.0, 2.0)
        results.append((tag, value))

    proc_a = world.sim.spawn(client(stub_a, "a"))
    proc_b = world.sim.spawn(client(stub_b, "b"))
    world.sim.run_until_done(world.sim.all_of([proc_a, proc_b]))
    assert sorted(results) == [("a", 3.0), ("b", 3.0)]


def test_two_servants_same_orb_distinct_keys(world):
    server_orb = world.orb(1)
    ior_a = server_orb.poa.activate(CalcImpl("first"))
    ior_b = server_orb.poa.activate(CalcImpl("second"))
    assert ior_a.object_key != ior_b.object_key
    stub_a = world.orb(0).stub(ior_a, ns.CalcStub)
    stub_b = world.orb(0).stub(ior_b, ns.CalcStub)

    def client():
        a = yield stub_a.whoami()
        b = yield stub_b.whoami()
        return (a, b)

    assert world.run(client()) == ("first", "second")


def test_local_call_same_host(world):
    orb = world.orb(1)
    ior = orb.poa.activate(CalcImpl())
    stub = orb.stub(ior, ns.CalcStub)

    def client():
        return (yield stub.add(1.0, 1.0))

    assert world.run(client()) == 2.0


def test_deactivated_object_raises_object_not_exist(world):
    server_orb = world.orb(1)
    impl = CalcImpl()
    ior = server_orb.poa.activate(impl)
    stub = world.orb(0).stub(ior, ns.CalcStub)
    server_orb.poa.deactivate(impl)

    def client():
        try:
            yield stub.add(1.0, 1.0)
        except OBJECT_NOT_EXIST:
            return "gone"

    assert world.run(client()) == "gone"


def test_narrowing_type_checked(world):
    server_orb = world.orb(1)
    ior = server_orb.poa.activate(CalcImpl())
    other = compile_idl("interface Other { void nop(); };", name="other-test")
    with pytest.raises(INV_OBJREF):
        world.orb(0).stub(ior, other.OtherStub)


def test_wrong_argument_count_rejected_locally(world):
    _, _, stub = setup_pair(world)
    with pytest.raises(MARSHAL):
        stub._invoke("add", (1.0,))


def test_unmarshallable_argument_rejected(world):
    _, _, stub = setup_pair(world)

    def client():
        try:
            yield stub.add(1.0, "not-a-double")
        except MARSHAL:
            return "rejected"

    assert world.run(client()) == "rejected"


def test_unknown_operation_rejected(world):
    _, _, stub = setup_pair(world)
    with pytest.raises(BAD_OPERATION):
        stub._invoke("nonsense", ())


def test_servant_python_error_maps_to_unknown(world):
    server_orb = world.orb(1)

    class Buggy(ns.CalcSkeleton):
        def add(self, a, b):
            raise ValueError("bug in servant")

    ior = server_orb.poa.activate(Buggy())
    stub = world.orb(0).stub(ior, ns.CalcStub)

    def client():
        try:
            yield stub.add(1.0, 1.0)
        except UNKNOWN as exc:
            return str(exc)

    assert "ValueError" in world.run(client())


def test_unimplemented_operation_maps_to_no_implement(world):
    server_orb = world.orb(1)
    ior = server_orb.poa.activate(ns.CalcSkeleton())  # abstract skeleton
    stub = world.orb(0).stub(ior, ns.CalcStub)

    def client():
        try:
            yield stub.add(1.0, 1.0)
        except NO_IMPLEMENT:
            return "abstract"

    assert world.run(client()) == "abstract"


def test_servant_this_returns_activated_ior(world):
    server_orb = world.orb(1)
    impl = CalcImpl()
    with pytest.raises(OBJ_ADAPTER):
        impl._this()
    ior = server_orb.poa.activate(impl)
    assert impl._this() == ior


def test_double_activation_rejected(world):
    server_orb = world.orb(1)
    impl = CalcImpl()
    server_orb.poa.activate(impl)
    with pytest.raises(OBJ_ADAPTER):
        server_orb.poa.activate(impl)


def test_ior_to_unknown_host_fails(world):
    _, ior, _ = setup_pair(world)
    bogus = IOR(ior.type_id, "nowhere", ior.port, ior.object_key, ior.incarnation)
    stub = world.orb(0).stub(bogus, ns.CalcStub)

    def client():
        try:
            yield stub.add(1.0, 1.0)
        except INV_OBJREF:
            return "bad-host"

    assert world.run(client()) == "bad-host"


def test_large_payload_pays_bandwidth(world):
    """Wire size drives transfer time: a megabyte-scale argument takes
    visibly longer than a scalar over the 10 MB/s LAN."""
    _, _, stub = setup_pair(world)
    big = np.zeros(500_000)  # ~4 MB on the wire

    def timed(call_args):
        def client():
            start = world.sim.now
            yield stub.scale(*call_args)
            return world.sim.now - start

        return world.run(client())

    small_time = timed(([1.0, 2.0], 2.0))
    big_time = timed((big, 2.0))
    # 4 MB request + 4 MB reply at 10 MB/s ~ 0.8 s of transfer.
    assert big_time > small_time + 0.5
