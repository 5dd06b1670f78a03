"""Property-style tests for the CDR plan cache (seeded random typecodes).

The cache compiles a TypeCode tree into nested encoder/decoder closures.
The contract under test: the plans (``CdrOutputStream`` /
``CdrInputStream``) and the per-element reference they were compiled from
(``ReferenceOutputStream`` / ``ReferenceInputStream``) produce identical
wire bytes and decoded values — the plans are a pure performance
optimization, never a semantic one.  The same holds for randomized values
of every type a live IDL document declares, and end to end: a DII request
and a generated stub get the same reply at the same simulated time.
"""

import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CdrError
from repro.orb import cdr
from repro.orb import typecodes as tc
from repro.orb.cdr import (
    CdrInputStream,
    CdrOutputStream,
    ReferenceInputStream,
    ReferenceOutputStream,
    clear_plan_cache,
    decode_any,
    encode_any,
    plan_cache_stats,
    values_equal,
)
from repro.orb.idl import compile_idl
from repro.orb.ior import IOR

#: (output stream, input stream) of the two sides of every parity check
PLAN = (CdrOutputStream, CdrInputStream)
REFERENCE = (ReferenceOutputStream, ReferenceInputStream)


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    """Each test starts with an empty cache and zeroed counters."""
    clear_plan_cache()
    yield
    clear_plan_cache()


# -- seeded typecode / value generator ----------------------------------------

_LEAVES = (
    tc.TC_BOOLEAN,
    tc.TC_OCTET,
    tc.TC_SHORT,
    tc.TC_USHORT,
    tc.TC_LONG,
    tc.TC_ULONG,
    tc.TC_LONGLONG,
    tc.TC_ULONGLONG,
    tc.TC_FLOAT,
    tc.TC_DOUBLE,
    tc.TC_STRING,
    tc.TC_OCTETS,
)

_INT_RANGES = {
    tc.TCKind.OCTET: (0, 255),
    tc.TCKind.SHORT: (-(2**15), 2**15 - 1),
    tc.TCKind.USHORT: (0, 2**16 - 1),
    tc.TCKind.LONG: (-(2**31), 2**31 - 1),
    tc.TCKind.ULONG: (0, 2**32 - 1),
    tc.TCKind.LONGLONG: (-(2**63), 2**63 - 1),
    tc.TCKind.ULONGLONG: (0, 2**64 - 1),
}


def random_typecode(rng: random.Random, depth: int = 0) -> tc.TypeCode:
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(_LEAVES)
    if rng.random() < 0.5:
        return tc.sequence(random_typecode(rng, depth + 1))
    fields = [
        (f"f{i}", random_typecode(rng, depth + 1))
        for i in range(rng.randint(1, 4))
    ]
    return tc.struct(f"S{rng.randrange(10_000)}", fields)


def random_any_value(rng: random.Random, depth: int = 0):
    """Natural Python values for the self-describing ``any`` path, where
    ``infer_typecode`` picks the wire type (ints must fit longlong)."""
    if depth >= 3 or rng.random() < 0.45:
        return rng.choice(
            (
                rng.random() < 0.5,
                rng.randint(-(2**62), 2**62),
                rng.uniform(-1e9, 1e9),
                "s" * rng.randint(0, 8),
                bytes(rng.randrange(256) for _ in range(rng.randint(0, 8))),
            )
        )
    if rng.random() < 0.5:
        return [random_any_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        f"k{i}": random_any_value(rng, depth + 1)
        for i in range(rng.randint(0, 4))
    }


def random_value(rng: random.Random, typecode: tc.TypeCode):
    """A random value for ``typecode``; structs and enums come as their
    registered class when there is one (what IDL-typed code passes) and as
    a dict / index otherwise."""
    kind = typecode.kind
    if kind in (tc.TCKind.VOID, tc.TCKind.NULL):
        return None
    if kind is tc.TCKind.BOOLEAN:
        return rng.random() < 0.5
    if kind in _INT_RANGES:
        return rng.randint(*_INT_RANGES[kind])
    if kind is tc.TCKind.FLOAT:
        # single precision: pick values that survive the narrowing
        return float(np.float32(rng.uniform(-1e6, 1e6)))
    if kind is tc.TCKind.DOUBLE:
        return rng.uniform(-1e12, 1e12)
    if kind is tc.TCKind.STRING:
        length = rng.randint(0, 12)
        return "".join(rng.choice("abcXYZ äöü 0189") for _ in range(length))
    if kind is tc.TCKind.OCTETS:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 16)))
    if kind is tc.TCKind.SEQUENCE:
        return [
            random_value(rng, typecode.content)
            for _ in range(rng.randint(0, 5))
        ]
    if kind in (tc.TCKind.STRUCT, tc.TCKind.EXCEPTION):
        cls = cdr._STRUCT_REGISTRY.get(typecode.name)
        fields = {name: random_value(rng, ftc) for name, ftc in typecode.fields}
        return cls(**fields) if cls is not None else fields
    if kind is tc.TCKind.ENUM:
        cls = cdr._ENUM_REGISTRY.get(typecode.name)
        index = rng.randrange(len(typecode.members))
        return cls(index) if cls is not None else index
    if kind is tc.TCKind.ANY:
        return random_any_value(rng)
    if kind is tc.TCKind.OBJREF:
        return IOR(
            type_id="IDL:CgParity/Ref:1.0",
            host=f"ws{rng.randrange(10):02d}",
            port=rng.randrange(1, 2**16),
            object_key=bytes(rng.randrange(256) for _ in range(8)),
            incarnation=rng.randrange(4),
        )
    raise AssertionError(f"generator does not cover {kind}")


def encode_with(streams, typecode: tc.TypeCode, value) -> bytes:
    out = streams[0]()
    out.write_value(typecode, value)
    return out.getvalue()


def decode_with(streams, typecode: tc.TypeCode, data: bytes):
    stream = streams[1](data)
    value = stream.read_value(typecode)
    assert stream.remaining() == 0
    return value


def assert_plan_matches_reference(typecode: tc.TypeCode, value) -> None:
    cached_bytes = encode_with(PLAN, typecode, value)
    plain_bytes = encode_with(REFERENCE, typecode, value)
    assert cached_bytes == plain_bytes, typecode.name

    cached_value = decode_with(PLAN, typecode, cached_bytes)
    plain_value = decode_with(REFERENCE, typecode, plain_bytes)
    # Decoded values may hold ndarrays (numeric sequences) and
    # GenericStructs, so compare through their canonical re-encoding.
    assert (
        encode_with(REFERENCE, typecode, cached_value)
        == encode_with(REFERENCE, typecode, plain_value)
        == plain_bytes
    ), typecode.name


# -- plan vs reference parity -------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_random_roundtrip_cache_parity(seed):
    rng = random.Random(1000 + seed)
    typecode = random_typecode(rng)
    assert_plan_matches_reference(typecode, random_value(rng, typecode))


@pytest.mark.parametrize("seed", range(10))
def test_any_roundtrip_cache_parity(seed):
    rng = random.Random(2000 + seed)
    value = {"state": random_any_value(rng), "round": seed}

    cached_bytes = encode_any(value)
    plain_bytes = any_at_offset(REFERENCE, value, 0)
    assert cached_bytes == plain_bytes

    cached_value = decode_any(cached_bytes)
    plain_value = any_from_offset(REFERENCE, plain_bytes, 0)
    assert values_equal(cached_value, plain_value)
    # Re-encoding what either side decoded reproduces the same wire bytes.
    assert encode_any(cached_value) == encode_any(plain_value)


# -- homogeneous-run lanes of sequence<any> --------------------------------------
#
# The plan for sequence<any> writes/reads an all-float or all-int list as
# one structured array.  The per-element reference is the same call on
# the reference streams (``_write_value_slow`` / ``_read_value_slow``).

_RUN_MIN = cdr._ANY_RUN_MIN


def any_at_offset(streams, value, offset: int) -> bytes:
    """``value`` as an ``any`` written ``offset`` octets into a stream."""
    out = streams[0]()
    for _ in range(offset):
        out.write_octet(0xEE)
    out.write_any(value)
    return out.getvalue()


def any_from_offset(streams, data: bytes, offset: int):
    stream = streams[1](data)
    stream.read_raw(offset)
    value = stream.read_any()
    assert stream.remaining() == 0
    return value


def same_values_same_types(a, b) -> bool:
    """Equality that tells ``1`` from ``1.0`` from ``True``, ``0.0`` from
    ``-0.0`` and one NaN payload from another."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_values_same_types, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(
            same_values_same_types(a[k], b[k]) for k in a
        )
    return a == b


def assert_lane_parity(value) -> None:
    """At every stream offset: plan bytes == reference bytes, and both
    decoders give back equal values of equal Python types."""
    for offset in range(8):
        planned = any_at_offset(PLAN, value, offset)
        reference = any_at_offset(REFERENCE, value, offset)
        assert planned == reference, f"bytes differ at offset {offset}"
        got = any_from_offset(PLAN, planned, offset)
        expected = any_from_offset(REFERENCE, planned, offset)
        assert same_values_same_types(got, expected), f"offset {offset}"


_bit_pattern_floats = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack(">d", struct.pack(">Q", bits))[0]
)
_int64s = st.integers(-(2**63), 2**63 - 1)
_run_lengths = st.one_of(
    st.integers(0, 2 * _RUN_MIN + 2), st.integers(0, 2_000)
)


@st.composite
def homogeneous_lists(draw):
    elements = draw(st.sampled_from((_bit_pattern_floats, _int64s)))
    length = draw(_run_lengths)
    return draw(st.lists(elements, min_size=length, max_size=length))


@settings(max_examples=60, deadline=None)
@given(homogeneous_lists())
@example([0.5 * i for i in range(_RUN_MIN - 1)])
@example([0.5 * i for i in range(_RUN_MIN)])
@example([-(2**63)] * _RUN_MIN + [2**63 - 1])
def test_homogeneous_run_parity(values):
    assert_lane_parity(values)
    # a tuple is the same sequence<any> on the wire
    assert any_at_offset(PLAN, tuple(values), 0) == any_at_offset(PLAN, values, 0)


_TRAP_VALUES = (
    True,                 # a bool among ints is a BOOLEAN, not a LONGLONG
    np.float64(2.5),      # not exactly float: goes through infer_typecode
    np.int64(7),
    None,
    "s",
    1.5,
    3,
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((0.25, 9)),
    st.integers(_RUN_MIN, 40),
    st.data(),
)
def test_run_broken_at_element_k_parity(filler, length, data):
    """One foreign element anywhere in the run sends the whole list down
    the per-element loop — and the decoder, which sees a run of matching
    kind bytes up to it, must not take the lane either."""
    k = data.draw(st.integers(0, length - 1))
    trap = data.draw(st.sampled_from(_TRAP_VALUES))
    values = [filler] * length
    values[k] = trap
    assert_lane_parity(values)


def test_float_run_keeps_every_bit_pattern():
    quiet_nan = struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0]
    payload_nan = struct.unpack(">d", bytes.fromhex("7ff00000deadbeef"))[0]
    values = [0.0, -0.0, float("inf"), float("-inf"), quiet_nan, payload_nan] * 3
    assert_lane_parity(values)
    decoded = decode_any(encode_any(values))
    assert [struct.pack(">d", v) for v in decoded] == [
        struct.pack(">d", v) for v in values
    ]


def test_int_beyond_longlong_raises_the_reference_error():
    values = list(range(_RUN_MIN * 2)) + [2**63]
    with pytest.raises(CdrError) as planned:
        any_at_offset(PLAN, values, 0)
    with pytest.raises(CdrError) as reference:
        any_at_offset(REFERENCE, values, 0)
    assert str(planned.value) == str(reference.value)
    assert "out of range" in str(planned.value)


def test_checkpoint_shape_takes_the_lane_with_identical_bytes():
    """A list nested as a dict value — the shape FT proxies checkpoint."""
    state = {"total": 3.5, "weights": [0.5 * i for i in range(512)], "ids": list(range(40))}
    assert_lane_parity(state)
    hits_before = plan_cache_stats()["encoder_plan_hits"]
    encode_any(state)
    # no per-element plan look-ups: a handful for the dict, none per float
    assert plan_cache_stats()["encoder_plan_hits"] - hits_before < 40


def test_decode_lane_rejects_a_forged_kind_byte_like_the_reference():
    """Records whose kind byte is not the run's are decoded one by one."""
    values = [1.5] * (_RUN_MIN + 3)
    data = bytearray(encode_any(values))
    # the third element's kind byte: LONGLONG instead of DOUBLE
    records = len(data) - 16 * (len(values) - 1)
    data[records + 16] = int(tc.TCKind.LONGLONG)
    decoded = any_from_offset(PLAN, bytes(data), 0)
    reference = any_from_offset(REFERENCE, bytes(data), 0)
    assert same_values_same_types(decoded, reference)
    assert type(decoded[2]) is int and type(decoded[1]) is float


# -- every type a live IDL document declares ------------------------------------

# Enum, exception and any members in one document; unique
# Cg* names so it displaces no live document's classes in the name-keyed
# registries.
NS = compile_idl(
    """
    enum CgColor { CG_RED, CG_GREEN, CG_BLUE };
    struct CgInner { string label; double weight; octet flag; };
    typedef sequence<double> CgDoubles;
    typedef sequence<string> CgStrings;
    struct CgOuter {
        CgInner inner;
        sequence<CgInner> items;
        CgDoubles weights;
        CgStrings names;
        CgColor color;
        boolean on;
        long long big;
        any payload;
        sequence<octet> blob;
    };
    exception CgBroken { string why; long code; };
    interface CgService {
        CgOuter roundtrip(in CgOuter value);
        long boom(in long x) raises (CgBroken);
    };
    """,
    name="cg-parity",
)


def declared_typecodes(*namespaces) -> list:
    """The typecode of every class and of every operation parameter and
    result in the compiled IDL ``namespaces``, once each."""
    found: dict = {}
    for namespace in namespaces:
        for value in vars(namespace).values():
            if not isinstance(value, type):
                continue
            if getattr(value, "__tc__", None) is not None:
                found[value.__tc__] = None
            for info in getattr(value, "__operations__", {}).values():
                found[info.result] = None
                found.update((param_tc, None) for _, param_tc in info.params)
    return list(found)


@pytest.mark.parametrize("seed", range(5))
def test_every_live_idl_type_plan_matches_reference(seed):
    from repro.ft import checkpointable, factory
    from repro.opt import worker
    from repro.services import checkpoint, trader
    from repro.services.naming import idl as naming_idl
    from repro.winner import service

    typecodes = declared_typecodes(
        naming_idl.ns, checkpoint.ns, trader.ns,
        checkpointable.ns, factory.ns, service.idl, worker.worker_idl, NS,
    )
    names = {typecode.name for typecode in typecodes}
    assert "Checkpointing::BadDeltaBase" in names, names
    assert {tc.TCKind.ENUM, tc.TCKind.EXCEPTION} <= {
        typecode.kind for typecode in typecodes
    }
    assert len(typecodes) >= 30, names

    rng = random.Random(8000 + seed)
    for typecode in typecodes:
        assert_plan_matches_reference(typecode, random_value(rng, typecode))


def _run_cg_service(use_dii: bool) -> dict:
    from repro.cluster import Cluster, ClusterConfig
    from repro.orb import Orb
    from repro.sim import Simulator

    sim = Simulator(seed=11)
    cluster = Cluster(sim, ClusterConfig(num_hosts=2))
    orbs = [Orb(host, cluster.network) for host in cluster]

    class CgServant(NS.CgServiceSkeleton):
        def roundtrip(self, value):
            value.big += 1
            return value

        def boom(self, x):
            raise NS.CgBroken(why=f"boom {x}", code=x)

    stub = orbs[0].stub(orbs[1].poa.activate(CgServant()), NS.CgServiceStub)
    rng = random.Random(123)
    outer = random_value(rng, NS.CgOuter.__tc__)
    outer.big = min(outer.big, 2**62)
    out = {}

    def client():
        if use_dii:
            echoed = yield stub._create_request("roundtrip", (outer,)).invoke()
        else:
            echoed = yield stub.roundtrip(outer)
        try:
            yield stub.boom(7)
        except NS.CgBroken as exc:
            out["exc"] = (exc.why, exc.code)
        out["echoed"] = encode_with(REFERENCE, NS.CgOuter.__tc__, echoed)

    sim.run_until_done(sim.spawn(client()))
    out["time"] = sim.now
    return out


def test_dii_request_matches_the_generated_stub():
    """Same reply and same simulated time whichever way the request was
    built: both marshal through the one plan path."""
    stub_reply = _run_cg_service(use_dii=False)
    dii_reply = _run_cg_service(use_dii=True)
    assert stub_reply["exc"] == ("boom 7", 7)
    assert dii_reply == stub_reply


# -- cache mechanics ----------------------------------------------------------


def test_plans_compile_once_then_hit():
    typecode = tc.struct("Pt", [("x", tc.TC_DOUBLE), ("y", tc.TC_DOUBLE)])
    for _ in range(5):
        data = encode_with(PLAN, typecode, {"x": 1.0, "y": 2.0})
        decode_with(PLAN, typecode, data)
    stats = plan_cache_stats()
    # one compile per distinct typecode tree (Pt and its double leaf),
    # every later use a hit
    assert stats["encoder_plans_compiled"] == stats["decoder_plans_compiled"]
    assert stats["encoder_plan_hits"] >= 4
    assert stats["decoder_plan_hits"] >= 4


def test_reference_streams_never_enter_the_plan_cache():
    """Nested values, sequence elements and ``any`` payloads all recurse
    through the reference's own ``write_value`` / ``read_value``."""
    typecode = tc.struct(
        "Ref", [("ids", tc.sequence(tc.TC_STRING)), ("payload", tc.TC_ANY)]
    )
    value = {"ids": ["a", "b"], "payload": {"weights": [0.5] * 20, "n": [1, "x"]}}
    data = encode_with(REFERENCE, typecode, value)
    decoded = decode_with(REFERENCE, typecode, data)
    assert decoded.ids == ["a", "b"] and decoded.payload == value["payload"]
    assert all(count == 0 for count in plan_cache_stats().values())


def test_clear_plan_cache_resets_stats():
    encode_with(PLAN, tc.TC_DOUBLE_SEQ, [1.0])
    assert plan_cache_stats()["encoder_plans_compiled"] > 0
    clear_plan_cache()
    assert all(v == 0 for v in plan_cache_stats().values())


# -- values_equal ---------------------------------------------------------------


def test_values_equal_edge_cases():
    assert values_equal([1, 2], (1, 2))  # wire format can't tell them apart
    assert values_equal([1.0, 2.0], (1.0, 2.0))
    assert not values_equal([1, 2], [1, 2, 3])
    assert not values_equal(np.array([1.0]), [1.0])
    assert values_equal({"a": np.array([1.0, 2.0])}, {"a": np.array([1.0, 2.0])})
    assert not values_equal({"a": 1}, {"b": 1})


@pytest.mark.parametrize(
    "a, b",
    [
        (1, 1.0),
        (1, True),
        (1.0, True),
        (0.0, -0.0),
        ([1, 2], (1.0, 2.0)),
        ({"x": 1}, {"x": 1.0}),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        (np.array([0.0]), np.array([-0.0])),
    ],
)
def test_values_equal_means_same_wire_bytes(a, b):
    """Values whose ``any`` encodings differ are not equal, however
    Python's ``==`` sees them."""
    assert encode_any(a) != encode_any(b)
    assert not values_equal(a, b)
    assert values_equal(a, a) and values_equal(b, b)


def test_values_equal_tells_nan_payloads_apart_but_not_nan_objects():
    quiet = struct.unpack(">d", bytes.fromhex("7ff8000000000000"))[0]
    payload = struct.unpack(">d", bytes.fromhex("7ff00000deadbeef"))[0]
    assert values_equal([quiet], [float("nan")])  # same bits, other objects
    assert not values_equal([quiet], [payload])


def test_values_equal_of_values_no_any_carries():
    thing = object()
    assert values_equal(thing, thing)
    assert not values_equal(thing, object())
    assert not values_equal(np.array(["x"]), np.array(["x"]))
