"""Tests for GIOP message encoding."""

import pytest

from repro.errors import COMM_FAILURE, CompletionStatus, MARSHAL, UNKNOWN
from repro.orb import giop


def test_request_roundtrip():
    msg = giop.RequestMessage(
        request_id=42,
        response_expected=True,
        object_key=b"Calc:000001",
        operation="solve",
        target_incarnation=3,
        reply_host="ws00",
        reply_port=20001,
        body=b"\x01\x02\x03",
    )
    assert giop.decode_message(giop.encode_message(msg)) == msg


def test_reply_roundtrip_each_status():
    for status in giop.ReplyStatus:
        msg = giop.ReplyMessage(7, status, b"body")
        assert giop.decode_message(giop.encode_message(msg)) == msg


def test_locate_messages_roundtrip():
    req = giop.LocateRequestMessage(1, b"k", 2, "ws01", 9)
    assert giop.decode_message(giop.encode_message(req)) == req
    for status in giop.LocateStatus:
        rep = giop.LocateReplyMessage(1, status)
        assert giop.decode_message(giop.encode_message(rep)) == rep


def test_reset_roundtrip():
    msg = giop.ResetMessage(9, "peer gone")
    assert giop.decode_message(giop.encode_message(msg)) == msg


def test_bad_magic_rejected():
    with pytest.raises(MARSHAL, match="magic"):
        giop.decode_message(b"XXXX" + b"\x00" * 16)


def test_truncated_message_rejected():
    raw = giop.encode_message(giop.ResetMessage(1, "x"))
    with pytest.raises(Exception):
        giop.decode_message(raw[:6])


def test_system_exception_roundtrip():
    exc = COMM_FAILURE(
        "link died", minor=5, completed=CompletionStatus.COMPLETED_MAYBE
    )
    decoded = giop.decode_system_exception(giop.encode_system_exception(exc))
    assert isinstance(decoded, COMM_FAILURE)
    assert decoded.minor == 5
    assert decoded.completed is CompletionStatus.COMPLETED_MAYBE
    assert "link died" in str(decoded)


def test_unknown_exception_type_maps_to_unknown():
    class Custom(COMM_FAILURE):
        pass

    decoded = giop.decode_system_exception(
        giop.encode_system_exception(Custom("odd"))
    )
    # Custom subclass name is not a standard system exception -> UNKNOWN.
    assert isinstance(decoded, UNKNOWN)


def test_wire_size_scales_with_body():
    small = giop.encode_message(
        giop.RequestMessage(1, True, b"k", "op", 0, "h", 1, b"")
    )
    big = giop.encode_message(
        giop.RequestMessage(1, True, b"k", "op", 0, "h", 1, b"\x00" * 1000)
    )
    assert len(big) >= len(small) + 1000


# -- every byte of every message kind is untrusted -----------------------------------

ONE_OF_EACH = [
    giop.RequestMessage(
        request_id=42,
        response_expected=True,
        object_key=b"Calc:000001",
        operation="solve",
        target_incarnation=3,
        reply_host="ws00",
        reply_port=20001,
        body=b"\x01\x02\x03",
        service_contexts=((7, b"ctx"),),
    ),
    giop.ReplyMessage(42, giop.ReplyStatus.NO_EXCEPTION, b"\x00" * 8),
    giop.CancelRequestMessage(42),
    giop.LocateRequestMessage(42, b"Calc:000001", 3, "ws00", 20001),
    giop.LocateReplyMessage(42, giop.LocateStatus.OBJECT_HERE),
    giop.ConnectMessage(42, "ws00", 20001),
    giop.ConnectAckMessage(42),
    giop.ResetMessage(42, "peer gone"),
]


def decodes_or_raises_marshal(data: bytes) -> None:
    try:
        message = giop.decode_message(data)
    except MARSHAL:
        return
    assert type(message) in {type(m) for m in ONE_OF_EACH}


@pytest.mark.parametrize("message", ONE_OF_EACH, ids=lambda m: type(m).__name__)
def test_every_single_byte_mutation_decodes_or_raises_marshal(message):
    raw = giop.encode_message(message)
    assert giop.decode_message(raw) == message
    for at in range(len(raw)):
        for value in range(256):
            if value != raw[at]:
                decodes_or_raises_marshal(
                    raw[:at] + bytes([value]) + raw[at + 1 :]
                )


@pytest.mark.parametrize("message", ONE_OF_EACH, ids=lambda m: type(m).__name__)
def test_every_truncation_decodes_or_raises_marshal(message):
    raw = giop.encode_message(message)
    for length in range(len(raw)):
        decodes_or_raises_marshal(raw[:length])


def test_out_of_range_status_octets_raise_marshal():
    reply = bytearray(giop.encode_message(ONE_OF_EACH[1]))
    reply[12] = 9
    with pytest.raises(MARSHAL, match="9 is not a valid ReplyStatus"):
        giop.decode_message(bytes(reply))
    locate_reply = bytearray(giop.encode_message(ONE_OF_EACH[4]))
    locate_reply[12] = 9
    with pytest.raises(MARSHAL, match="9 is not a valid LocateStatus"):
        giop.decode_message(bytes(locate_reply))
    body = bytearray(giop.encode_system_exception(COMM_FAILURE("x")))
    body[-1] = 9
    with pytest.raises(MARSHAL, match="9 is not a valid CompletionStatus"):
        giop.decode_system_exception(bytes(body))
