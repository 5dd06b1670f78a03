"""The one-dispatch ``any`` lanes and wire images against the generic path.

``CdrOutputStream.write_any`` / ``CdrInputStream.read_any`` dispatch once
per value to a lane; ``ReferenceOutputStream`` / ``ReferenceInputStream``
take the generic path (``infer_typecode`` → ``write_typecode`` →
kind-dispatch, and back).  The contract: the same bytes at every start
offset, the same decoded values of the same Python types, and — for bytes
off the wire — the same ``CdrError`` text.  An :class:`AnyImage` is
spliced in verbatim only where its bytes are exactly what encoding its
value would write.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MARSHAL, CdrError
from repro.ft.checkpointable import CAPTURE_CHECKPOINT, CHECKPOINTABLE_IDL
from repro.orb import cdr, compile_idl
from repro.orb.cdr import (
    TC_ANY_IMAGE,
    AnyImage,
    CdrInputStream,
    CdrOutputStream,
    decoder_plan,
    encode_any,
)

from tests.orb.cdr_oracle import ReferenceInputStream, ReferenceOutputStream
from tests.orb.test_wire_golden import ACCUMULATOR_STATE, member_envelope

PLAN = (CdrOutputStream, CdrInputStream)
REFERENCE = (ReferenceOutputStream, ReferenceInputStream)

LONGLONG_MIN, LONGLONG_MAX = -(2**63), 2**63 - 1


def canonical(value):
    """A comparable form that tells ``1`` from ``1.0`` from ``True``,
    ``0.0`` from ``-0.0``, one NaN payload from another, a list from a
    tuple and an ndarray's shape from its data."""
    kind = type(value)
    if kind is float:
        return ("float", struct.pack(">d", value))
    if kind in (list, tuple):
        return (kind.__name__, tuple(map(canonical, value)))
    if kind is dict:
        return ("dict", tuple((canonical(k), canonical(v)) for k, v in value.items()))
    if kind is np.ndarray:
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if kind is cdr.GenericStruct:  # a mutated typecode that is no longer reserved
        return ("struct", tuple((k, canonical(v)) for k, v in vars(value).items()))
    return (kind.__name__, value)


def outcome(run):
    """``("ok", result)`` or ``("error", type name, message)``."""
    try:
        return ("ok", run())
    except (CdrError, TypeError, ValueError, OverflowError) as exc:
        return ("error", type(exc).__name__, str(exc))


def encode_at(streams, value, offset: int):
    def run():
        out = streams[0]()
        for _ in range(offset):
            out.write_octet(0xEE)
        out.write_any(value)
        return out.getvalue()

    return outcome(run)


def decode_at(streams, data: bytes, offset: int):
    def run():
        stream = streams[1](data)
        stream.read_raw(offset)
        value = stream.read_any()
        return canonical(value), stream.remaining()

    return outcome(run)


def assert_lane_parity(value) -> None:
    """At all eight start offsets: the lanes write the reference's bytes
    (or raise its error), and both decoders read those bytes back to the
    same value of the same types."""
    for offset in range(8):
        planned = encode_at(PLAN, value, offset)
        assert planned == encode_at(REFERENCE, value, offset), f"offset {offset}"
        if planned[0] == "ok":
            data = planned[1]
            got = decode_at(PLAN, data, offset)
            assert got == decode_at(REFERENCE, data, offset), f"offset {offset}"
            assert got[0] == "ok", got


# -- the whole any domain ------------------------------------------------------------

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, float("inf"), float("-inf"), float("nan"))),
    st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack(">d", struct.pack(">Q", bits))[0]
    ),
)
_ints = st.one_of(
    st.integers(LONGLONG_MIN, LONGLONG_MAX),
    st.sampled_from(
        (LONGLONG_MIN, LONGLONG_MAX, LONGLONG_MIN - 1, LONGLONG_MAX + 1, 0, -1)
    ),
)
_ndarrays = st.one_of(
    st.lists(_floats, max_size=12).map(np.array),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda shape: np.arange(shape[0] * shape[1], dtype=np.float64).reshape(shape)
    ),
    st.just(np.array(2.5)),  # zero-dimensional
    st.just(np.arange(4, dtype=np.int32)),  # coerced to doubles
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from((np.float64(1.5), np.int64(-3), np.bool_(True))),
    _ndarrays,
)
_keys = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(LONGLONG_MIN, LONGLONG_MAX),
    _floats,
    st.text(max_size=6),
    st.binary(max_size=4),
)
any_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=5),
        # long enough for the homogeneous-run lane of sequence<any>
        st.lists(_floats, min_size=5, max_size=40),
        st.lists(st.integers(LONGLONG_MIN, LONGLONG_MAX), min_size=5, max_size=40),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(any_values)
@example(member_envelope())
@example({"x": 1, "y": 1.0, "z": True, "w": -0.0, None: b"", 2: [1, 2.0]})
@example([LONGLONG_MAX + 1])
@example({"big": LONGLONG_MIN - 1})
@example(np.zeros((0, 3)))
def test_lanes_match_the_reference_at_every_offset(value):
    assert_lane_parity(value)


def test_checkpoint_shapes_match_the_reference_at_every_offset():
    sizes = (14, 14, 14, 13, 13, 13, 13)
    worker = {
        "evaluations": 1498,
        "solve_calls": 7,
        "best": {
            str(w): {"fun": 0.25 * w, "block": np.full(n, 0.5), "coupling": np.ones(6)}
            for w, n in enumerate(sizes)
        },
    }
    for value in (ACCUMULATOR_STATE, member_envelope(), worker):
        assert_lane_parity(value)


def test_lanes_take_no_plan_look_up():
    cdr.clear_plan_cache()
    value = member_envelope()
    CdrInputStream(encode_any(value)).read_any()
    assert cdr.plan_cache_stats() == dict.fromkeys(cdr.plan_cache_stats(), 0)


# -- bytes off the wire ----------------------------------------------------------------

#: dict- and ndarray-bearing encodings whose every byte is mutated
MUTATED = {
    "mixed dict": {"a": 1.5, 7: [1, 2.5, "x"], None: True, b"k": -(2**40)},
    "ndarray": np.arange(6.0).reshape(2, 3),
    "envelope": {
        "__ft_member_state__": 1,
        "state": {"total": 2.0, "weights": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]},
        "replies": {"acc:1": 1.0, "acc:2": 2.0},
    },
    "worker": {"fun": 0.5, "block": np.full(3, 0.25), "coupling": np.ones(2)},
}


def _mutations(data: bytes, offset: int):
    for at in range(offset, len(data)):
        original = data[at]
        for new in {original ^ 0x01, original ^ 0x80, 0xFF, 0x00, 0x0F}:
            if new != original:
                yield data[:at] + bytes([new]) + data[at + 1 :]
    for end in range(offset, len(data)):
        yield data[:end]


@pytest.mark.parametrize("offset", [0, 4])
@pytest.mark.parametrize("name", sorted(MUTATED))
def test_mutated_and_truncated_bytes_decode_like_the_reference(name, offset):
    kind, data = encode_at(PLAN, MUTATED[name], offset)
    assert kind == "ok"
    decodes = 0
    for forged in _mutations(data, offset):
        got = decode_at(PLAN, forged, offset)
        assert got == decode_at(REFERENCE, forged, offset), forged.hex()
        decodes += 1
    assert decodes > 100


def _nested(depth: int):
    value = 1.5
    for _ in range(depth):
        value = {"k": value}
    return value


@pytest.mark.parametrize("depth", [cdr._MAX_ANY_DEPTH - 1, cdr._MAX_ANY_DEPTH])
def test_nesting_through_the_dict_lane_raises_as_before(depth, monkeypatch):
    value = _nested(depth)
    planned = encode_at(PLAN, value, 0)
    assert planned == encode_at(REFERENCE, value, 0)
    if depth < cdr._MAX_ANY_DEPTH:
        assert planned[0] == "ok"
        assert decode_at(PLAN, planned[1], 0) == decode_at(REFERENCE, planned[1], 0)
        return
    assert planned == ("error", "CdrError", "any nested deeper than 64 levels")
    # bytes nested one level deeper than the decoders accept
    monkeypatch.setattr(cdr, "_MAX_ANY_DEPTH", cdr._MAX_ANY_DEPTH + 1)
    _, data = encode_at(REFERENCE, value, 0)
    monkeypatch.undo()
    refused = decode_at(PLAN, data, 0)
    assert refused == ("error", "CdrError", "any nested deeper than 64 levels")
    assert refused == decode_at(REFERENCE, data, 0)


# -- the checks above catch a wrong lane ------------------------------------------------


def test_a_write_lane_mutant_fails_parity(monkeypatch):
    """A dict lane that ignores the start offset of its typecode bytes."""

    def misaligned_dict(stream, value):
        stream._buffer += cdr._DICT_HEADS[0]
        stream._buffer += struct.pack(">I", len(value))
        for key, item in value.items():
            stream.write_any(key)
            stream.write_any(item)

    lanes = dict(CdrOutputStream._any_lanes)
    lanes[dict] = misaligned_dict
    monkeypatch.setattr(CdrOutputStream, "_any_lanes", lanes)
    with pytest.raises(AssertionError):
        assert_lane_parity({"a": 1.0})


def test_a_read_lane_mutant_fails_parity(monkeypatch):
    """A double lane that forgets the padding before the value."""

    def unaligned_double(stream, data, pos):
        stream._pos = pos + 9
        return struct.unpack_from(">d", data, pos + 1)[0]

    lanes = dict(CdrInputStream._any_lanes)
    lanes[int(cdr.TCKind.DOUBLE)] = unaligned_double
    monkeypatch.setattr(CdrInputStream, "_any_lanes", lanes)
    with pytest.raises(AssertionError):
        assert_lane_parity([1.5])


# -- images ------------------------------------------------------------------------------


def image_of(value, offset: int = 0) -> AnyImage:
    out = CdrOutputStream(bytes(offset))
    out.write_any(value)
    return AnyImage(out.getvalue()[offset:], value, offset % 8)


@pytest.mark.parametrize("value", [ACCUMULATOR_STATE, member_envelope(), [1, "x"]])
def test_an_image_is_spliced_only_where_it_is_the_values_bytes(value):
    image = image_of(value)
    for offset in range(16):
        # where it fits, the image *is* those bytes; elsewhere the value is
        # encoded — either way, the reference's bytes for the value
        assert encode_at(PLAN, image, offset) == encode_at(REFERENCE, value, offset)
    for nested, unwrapped in (
        ([image], [value]),
        ({"s": image}, {"s": value}),
        ((1, image), (1, value)),
    ):
        assert encode_at(PLAN, nested, 0) == encode_at(REFERENCE, unwrapped, 0)


def test_a_nested_image_counts_toward_the_depth_limit():
    deep = _nested(cdr._MAX_ANY_DEPTH - 1)  # as a top-level any it just fits
    image = image_of(deep)
    assert encode_at(PLAN, image, 0) == ("ok", image.data)
    # one level down (and at a matching offset) the value is one too deep
    assert encode_at(PLAN, [image], 0) == encode_at(REFERENCE, [deep], 0)
    assert encode_at(PLAN, [image], 0)[0] == "error"


def test_an_aligned_top_level_image_is_appended_verbatim():
    image = AnyImage(b"forged", ACCUMULATOR_STATE, 4)
    out = CdrOutputStream(bytes(12))
    out.write_any(image)
    assert out.getvalue() == bytes(12) + b"forged"


def test_an_image_is_formed_only_from_a_whole_body():
    reader = decoder_plan(TC_ANY_IMAGE)
    data = encode_any(member_envelope())
    image = reader(CdrInputStream(data))
    assert type(image) is AnyImage
    assert (image.data, image.offset) == (data, 0)
    assert canonical(image.value) == canonical(member_envelope())
    # anything after the value: no image, just the value
    followed = reader(CdrInputStream(data + b"\0"))
    assert canonical(followed) == canonical(member_envelope())
    # from an offset: the image remembers it
    _, shifted = encode_at(PLAN, ACCUMULATOR_STATE, 4)
    stream = CdrInputStream(shifted)
    stream.read_raw(4)
    image = reader(stream)
    assert (image.data, image.offset) == (shifted[4:], 4)


def test_an_image_is_immutable():
    image = image_of(1.5)
    with pytest.raises(AttributeError):
        image.value = 2.5


checkpointable_ns = compile_idl(
    CHECKPOINTABLE_IDL + "interface ImageHolder : FT::Checkpointable {};",
    name="any-lanes-images",
)
forged_ns = compile_idl(
    "interface ForgedCheckpoint { long get_checkpoint(); };", name="any-lanes-forged"
)


class ImageHolder(checkpointable_ns.ImageHolderSkeleton):
    def get_checkpoint(self):
        return ACCUMULATOR_STATE

    def restore_from(self, state):
        pass


class ForgedCheckpoint(forged_ns.ForgedCheckpointSkeleton):
    def get_checkpoint(self):
        return 0x7F000000  # a kind octet no typecode has


def _capture(world, servant):
    ior = world.orb(1).poa.activate(servant)

    def client():
        try:
            return ("ok", (yield world.orb(0).invoke(ior, CAPTURE_CHECKPOINT, ())))
        except MARSHAL as exc:
            return ("marshal", str(exc))

    return world.run(client())


def test_the_capture_call_returns_the_reply_body_as_an_image(world):
    kind, image = _capture(world, ImageHolder())
    assert kind == "ok" and type(image) is AnyImage
    assert (image.data, image.offset) == (encode_any(ACCUMULATOR_STATE), 0)
    assert canonical(image.value) == canonical(ACCUMULATOR_STATE)


def test_a_forged_capture_reply_still_fails_with_marshal(world):
    kind, message = _capture(world, ForgedCheckpoint())
    assert kind == "marshal"
    assert "bad reply body for get_checkpoint" in message
