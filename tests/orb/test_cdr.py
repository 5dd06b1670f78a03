"""Tests for CDR marshalling, including property-based round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MARSHAL, CdrError
from repro.orb import cdr, compile_idl
from repro.orb import typecodes as tc
from repro.orb.cdr import (
    CdrInputStream,
    CdrOutputStream,
    GenericStruct,
    ReferenceInputStream,
    decode_any,
    encode_any,
    infer_typecode,
)
from repro.orb.ior import IOR
from repro.orb.stubs import OpInfo


def roundtrip(typecode, value):
    out = CdrOutputStream()
    out.write_value(typecode, value)
    stream = CdrInputStream(out.getvalue())
    result = stream.read_value(typecode)
    assert stream.remaining() == 0
    return result


# -- primitives --------------------------------------------------------------


@pytest.mark.parametrize(
    "typecode,value",
    [
        (tc.TC_BOOLEAN, True),
        (tc.TC_BOOLEAN, False),
        (tc.TC_OCTET, 255),
        (tc.TC_SHORT, -32768),
        (tc.TC_USHORT, 65535),
        (tc.TC_LONG, -(2**31)),
        (tc.TC_ULONG, 2**32 - 1),
        (tc.TC_LONGLONG, -(2**63)),
        (tc.TC_ULONGLONG, 2**64 - 1),
        (tc.TC_DOUBLE, 3.141592653589793),
        (tc.TC_STRING, "héllo wörld"),
        (tc.TC_STRING, ""),
        (tc.TC_OCTETS, b"\x00\x01\xff"),
    ],
)
def test_primitive_roundtrip(typecode, value):
    assert roundtrip(typecode, value) == value


#: method suffix -> (struct format, size, value strategy); the formats are
#: written out here on purpose: this is the oracle for the coder table.
PRIMITIVES = {
    "octet": (">B", 1, st.integers(0, 2**8 - 1)),
    "short": (">h", 2, st.integers(-(2**15), 2**15 - 1)),
    "ushort": (">H", 2, st.integers(0, 2**16 - 1)),
    "long": (">i", 4, st.integers(-(2**31), 2**31 - 1)),
    "ulong": (">I", 4, st.integers(0, 2**32 - 1)),
    "longlong": (">q", 8, st.integers(-(2**63), 2**63 - 1)),
    "ulonglong": (">Q", 8, st.integers(0, 2**64 - 1)),
    "float": (">f", 4, st.floats(width=32, allow_nan=False)),
    "double": (">d", 8, st.floats(allow_nan=False)),
}


@pytest.mark.parametrize("name", PRIMITIVES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_primitive_methods_match_struct_pack_at_every_offset(name, data):
    fmt, size, values = PRIMITIVES[name]
    value = data.draw(values)
    packed = struct.pack(fmt, value)
    for offset in range(8):
        lead = bytes(range(1, offset + 1))
        out = CdrOutputStream()
        out.write_raw(lead)
        getattr(out, f"write_{name}")(value)
        encoded = out.getvalue()
        assert encoded == lead + b"\0" * (-offset % size) + packed
        stream = CdrInputStream(encoded, offset)
        assert getattr(stream, f"read_{name}")() == struct.unpack(fmt, packed)[0]
        assert stream.remaining() == 0
        for cut in range(offset, len(encoded)):
            with pytest.raises(CdrError, match="buffer underrun"):
                getattr(CdrInputStream(encoded[:cut], offset), f"read_{name}")()


def test_boolean_methods_are_one_unaligned_octet():
    for offset in range(8):
        for value in (True, False):
            out = CdrOutputStream(b"\7" * offset)
            out.write_boolean(value)
            assert out.getvalue() == b"\7" * offset + struct.pack(">B", value)
            assert CdrInputStream(out.getvalue(), offset).read_boolean() is value
        with pytest.raises(CdrError, match="buffer underrun"):
            CdrInputStream(b"\7" * offset, offset).read_boolean()


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_methods_reject_what_struct_rejects(name):
    fmt, _, _ = PRIMITIVES[name]
    for bad in ("x", None, 2**70 if fmt[1] not in "fd" else "1.0"):
        with pytest.raises(CdrError, match=f"cannot encode .* as {name.upper()}"):
            getattr(CdrOutputStream(), f"write_{name}")(bad)


def test_float_roundtrip_is_single_precision():
    assert roundtrip(tc.TC_FLOAT, 1.5) == 1.5
    assert roundtrip(tc.TC_FLOAT, 0.1) == pytest.approx(0.1, rel=1e-6)


def test_integer_range_checked():
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(tc.TC_OCTET, 256)
    with pytest.raises(CdrError):
        out.write_value(tc.TC_LONG, 2**31)
    with pytest.raises(CdrError):
        out.write_value(tc.TC_ULONG, -1)


def test_bool_is_not_an_integer():
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(tc.TC_LONG, True)


def test_alignment_rules():
    out = CdrOutputStream()
    out.write_octet(1)  # offset 0
    out.write_double(2.0)  # should align to 8
    data = out.getvalue()
    assert len(data) == 16
    assert data[1:8] == b"\x00" * 7


def test_underrun_detected():
    stream = CdrInputStream(b"\x00\x01")
    with pytest.raises(CdrError, match="underrun"):
        stream.read_double()


def test_string_must_be_nul_terminated():
    out = CdrOutputStream()
    out.write_ulong(3)
    out.write_raw(b"abc")  # no NUL
    with pytest.raises(CdrError):
        CdrInputStream(out.getvalue()).read_string()


# -- sequences -----------------------------------------------------------------


def test_double_sequence_roundtrips_as_ndarray():
    seq = tc.sequence(tc.TC_DOUBLE)
    result = roundtrip(seq, [1.0, 2.5, -3.0])
    assert isinstance(result, np.ndarray)
    assert result.dtype == np.float64
    np.testing.assert_array_equal(result, [1.0, 2.5, -3.0])


def test_numpy_input_fast_path_matches_list_input():
    seq = tc.sequence(tc.TC_DOUBLE)
    out1 = CdrOutputStream()
    out1.write_value(seq, [1.0, 2.0])
    out2 = CdrOutputStream()
    out2.write_value(seq, np.array([1.0, 2.0]))
    assert out1.getvalue() == out2.getvalue()


def test_sequence_of_strings():
    seq = tc.sequence(tc.TC_STRING)
    assert roundtrip(seq, ["a", "bb", ""]) == ["a", "bb", ""]


def test_sequence_of_octet_is_bytes():
    seq = tc.sequence(tc.TC_OCTET)
    assert seq is tc.TC_OCTETS
    assert roundtrip(seq, b"abc") == b"abc"


def test_nested_sequences():
    seq = tc.sequence(tc.sequence(tc.TC_LONG))
    result = roundtrip(seq, [[1, 2], [3]])
    assert [list(map(int, row)) for row in result] == [[1, 2], [3]]


def test_multidim_array_rejected_for_flat_sequence():
    seq = tc.sequence(tc.TC_DOUBLE)
    out = CdrOutputStream()
    with pytest.raises(CdrError, match="1-D"):
        out.write_value(seq, np.zeros((2, 2)))


# -- structs / enums --------------------------------------------------------------


POINT_TC = tc.struct("test::Point", (("x", tc.TC_DOUBLE), ("y", tc.TC_DOUBLE)))


def test_struct_roundtrip_from_dict():
    result = roundtrip(POINT_TC, {"x": 1.0, "y": -2.0})
    assert isinstance(result, GenericStruct)
    assert result.x == 1.0 and result.y == -2.0


def test_struct_roundtrip_from_object():
    class Point:
        def __init__(self):
            self.x, self.y = 4.0, 5.0

    result = roundtrip(POINT_TC, Point())
    assert (result.x, result.y) == (4.0, 5.0)


def test_struct_missing_field_rejected():
    out = CdrOutputStream()
    with pytest.raises(CdrError, match="missing field"):
        out.write_value(POINT_TC, {"x": 1.0})


COLOR_TC = tc.enum_tc("test::Color", ("RED", "GREEN", "BLUE"))


def test_enum_roundtrip_by_name_and_index():
    assert roundtrip(COLOR_TC, "GREEN") == "GREEN"
    assert roundtrip(COLOR_TC, 2) == "BLUE"


def test_enum_bad_member_rejected():
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        out.write_value(COLOR_TC, "PURPLE")
    with pytest.raises(CdrError):
        out.write_value(COLOR_TC, 3)


# -- object references ----------------------------------------------------------------


def test_objref_roundtrip():
    ior = IOR("IDL:X:1.0", "ws03", 21000, b"key", 7)
    assert roundtrip(tc.TC_OBJREF, ior) == ior


# -- any --------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -42,
        2**40,
        1.5,
        "text",
        b"bytes",
        [1, 2.0, "three", None],
        {"a": 1, "b": [True, "x"]},
        {"nested": {"deep": [1, [2, [3]]]}},
    ],
)
def test_any_roundtrip(value):
    assert decode_any(encode_any(value)) == value


def test_any_ndarray_roundtrip_preserves_shape():
    arr = np.arange(12.0).reshape(3, 4)
    result = decode_any(encode_any(arr))
    assert isinstance(result, np.ndarray)
    assert result.shape == (3, 4)
    np.testing.assert_array_equal(result, arr)


def test_any_ior_roundtrip():
    ior = IOR("IDL:X:1.0", "h", 1, b"k", 0)
    assert decode_any(encode_any(ior)) == ior


def test_any_unsupported_type_rejected():
    with pytest.raises(CdrError, match="cannot infer"):
        encode_any(object())


def test_infer_typecode_numpy_scalars():
    assert infer_typecode(np.int64(4))[0] is tc.TC_LONGLONG
    assert infer_typecode(np.float64(4.0))[0] is tc.TC_DOUBLE
    assert infer_typecode(np.bool_(True))[0] is tc.TC_BOOLEAN


# -- hostile bytes ------------------------------------------------------------------
#
# Whatever arrives off the wire, ``decode_any`` answers with CdrError
# (MARSHAL at the ORB boundary) in bounded time — on the plan path and on
# the per-element reference path alike.

K = tc.TCKind
#: kind octets of IDL arrays and unions, which this ORB does not decode
ARRAY, UNION = 14, 21

#: ``any`` values with an array or union typecode, top level and as a
#: struct member, as an ORB that marshals those kinds writes them
#: (``long[3]`` and ``union U switch (long) { case 1: long a; default:
#: string b; }``).
FORGED_KINDS = {
    "array of long": "0e06000000000003000000010000000200000003",
    "union switch long": (
        "150000000000000255000600000000010000000208000000000000000000000100"
        "000002610006000000000262000c000000000100000007"
    ),
    "array in a struct": (
        "0f000000000000025300000000000001000000026d000e0600000003000000010000"
        "000200000003"
    ),
    "union in a struct": (
        "0f0000000000000253000000000000010000000275001500000000025500060000"
        "000001000000020800000000000000000000000000000100000002610006000000"
        "000262000c000000000100000007"
    ),
}


def reference_decode_any(data: bytes):
    return ReferenceInputStream(data).read_any()


@pytest.fixture(params=[decode_any, reference_decode_any], ids=["plans", "reference"])
def either_decoder(request):
    return request.param


def _ndarray_with_wrong_shape() -> bytes:
    good = encode_any(np.arange(6.0).reshape(2, 3))
    at = good.index(struct.pack(">Q", 3))
    return good[:at] + struct.pack(">Q", 4) + good[at + 8 :]


def _dict_with_unhashable_key() -> bytes:
    good = encode_any({"k": 1})
    # the key's any: STRING "k" -> sequence<any> of no elements (same size)
    at = good.index(bytes([K.STRING]) + b"\0\0\0" + struct.pack(">I", 2) + b"k\0")
    forged = bytes([K.SEQUENCE, K.ANY]) + b"\0\0" + struct.pack(">I", 0) + b"\0\0"
    return good[:at] + forged + good[at + len(forged) :]


HOSTILE = {
    "fifty million nulls in six bytes": (
        bytes([K.SEQUENCE, K.NULL]) + b"\0\0" + struct.pack(">I", 50_000_000)
    ),
    "fifty million null array elements": (
        bytes([ARRAY, K.NULL]) + b"\0\0" + struct.pack(">I", 50_000_000)
    ),
    "zero-width arrays multiplied by nesting": (
        bytes([ARRAY, ARRAY, ARRAY, K.NULL]) + struct.pack(">III", 1000, 1000, 1000)
    ),
    "more any elements than bytes": (
        bytes([K.SEQUENCE, K.ANY]) + b"\0\0" + struct.pack(">I", 50_000_000)
    ),
    "ndarray whose shape disagrees with its data": _ndarray_with_wrong_shape(),
    "five thousand nested sequence typecodes": bytes([K.SEQUENCE]) * 5000,
    "five thousand nested any lists": (
        (bytes([K.SEQUENCE, K.ANY]) + b"\0\0" + struct.pack(">I", 1)) * 5000
    ),
    "string that is not UTF-8": (
        bytes([K.STRING]) + b"\0\0\0" + struct.pack(">I", 3) + b"\xff\xfe\0"
    ),
    "dict with an unhashable key": _dict_with_unhashable_key(),
    "unknown kind byte": b"\xee",
    **{name: bytes.fromhex(image) for name, image in FORGED_KINDS.items()},
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_any_raises_cdr_error_quickly(either_decoder, count_calls, name):
    def rejected():
        with pytest.raises(CdrError):
            either_decoder(HOSTILE[name])

    # "quickly" as a call count: the deepest case (five thousand nested any
    # lists) takes about 1 500 calls; fifty million elements would not fit
    assert count_calls(rejected) <= 5000


any_sink_ns = compile_idl("interface AnySink { void put(in any v); };", name="any-sink")


class AnySink(any_sink_ns.AnySinkSkeleton):
    def put(self, v):
        pass


@pytest.mark.parametrize("name", FORGED_KINDS)
def test_forged_kind_in_a_request_is_marshal_at_the_server(world, name):
    """The request body is the forged ``any``, written as raw octets by a
    client whose signature for ``put`` is a struct of octets."""
    image = bytes.fromhex(FORGED_KINDS[name])
    raw = tc.struct("Raw", [(f"b{i}", tc.TC_OCTET) for i in range(len(image))])
    body = {f"b{i}": octet for i, octet in enumerate(image)}
    put = OpInfo("put", (("v", raw),))
    ior = world.orb(1).poa.activate(AnySink())

    def client():
        try:
            yield world.orb(0).invoke(ior, put, (body,))
        except MARSHAL as exc:
            return str(exc)

    assert "unknown TypeCode kind byte" in world.run(client())


def test_distinct_wire_typecodes_leave_bounded_plan_tables():
    """A peer can name a new struct in every ``any`` it sends; each one
    compiles a plan, and the tables must not keep them all."""
    for i in range(20_000):
        name = f"Evil{i}".encode() + b"\0"
        empty_struct = bytes([K.STRUCT]) + b"\0\0\0" + struct.pack(">I", len(name)) + name
        empty_struct += b"\0" * (-len(empty_struct) % 4) + struct.pack(">I", 0)
        assert decode_any(empty_struct) == GenericStruct(f"Evil{i}")
        CdrOutputStream().write_value(tc.struct(f"Evil{i}", []), {})
    assert len(cdr._DECODER_PLANS) <= cdr._MAX_CACHED_PLANS
    assert len(cdr._ENCODER_PLANS) <= cdr._MAX_CACHED_PLANS
    # the tables were emptied along the way; everyday values are unaffected
    assert decode_any(encode_any({"total": 1.5, "ids": [1, 2, 3]})) == {
        "total": 1.5,
        "ids": [1, 2, 3],
    }


VALID_ANYS = [
    {"total": 1.5, "weights": [0.5 * i for i in range(24)]},   # float lane
    list(range(-12, 12)),                                       # int lane
    [1.5, 2, None, "x", True, b"b", [1.0] * 9],
    {"a": np.arange(6.0).reshape(2, 3), "ior": IOR("IDL:X:1.0", "h", 1, b"k", 0)},
]


@pytest.mark.parametrize("value", VALID_ANYS, ids=["floats", "ints", "mixed", "structs"])
def test_every_truncation_of_an_any_raises_cdr_error(either_decoder, value):
    data = encode_any(value)
    either_decoder(data)
    for cut in range(len(data)):
        with pytest.raises(CdrError):
            either_decoder(data[:cut])


def test_any_nesting_is_capped_on_both_sides():
    """What the decoder would refuse, the encoder refuses first — a
    checkpoint that cannot be restored is never stored."""
    shallow = 0.5
    for _ in range(60):
        shallow = [shallow]
    assert decode_any(encode_any(shallow)) == shallow
    deep = shallow
    for _ in range(20):
        deep = [deep]
    with pytest.raises(CdrError, match="nested deeper"):
        encode_any(deep)
    # a refused value leaves no depth behind on the stream
    out = CdrOutputStream()
    with pytest.raises(CdrError, match="nested deeper"):
        out.write_any(deep)
    out.write_any(shallow)


def test_legitimate_zero_width_values_still_decode():
    assert decode_any(encode_any([None] * 5000)) == [None] * 5000
    empty = tc.struct("Empty", [])
    assert len(roundtrip(tc.sequence(empty), [{}] * 100)) == 100


# -- property-based round trips -------------------------------------------------------------

any_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=30)
    | st.binary(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(any_values)
def test_any_roundtrip_property(value):
    assert decode_any(encode_any(value)) == value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_double_sequence_roundtrip_property(values):
    result = roundtrip(tc.sequence(tc.TC_DOUBLE), values)
    np.testing.assert_array_equal(result, np.asarray(values, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_string_roundtrip_property(text):
    assert roundtrip(tc.TC_STRING, text) == text


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
def test_mixed_stream_alignment_property(i, f, s):
    out = CdrOutputStream()
    out.write_long(i)
    out.write_string(s)
    out.write_double(f)
    out.write_long(i)
    stream = CdrInputStream(out.getvalue())
    assert stream.read_long() == i
    assert stream.read_string() == s
    assert stream.read_double() == f
    assert stream.read_long() == i
