"""Golden wire-format tests.

Freeze the byte-level CDR/GIOP encodings with literal hex so accidental
format changes (alignment, field order, header layout) are caught even
when both encoder and decoder change together."""

import binascii

import pytest

from repro.orb import giop
from repro.orb import typecodes as tc
from repro.orb.cdr import CdrOutputStream, encode_any
from repro.orb.ior import IOR


def hexdump(data: bytes) -> str:
    return binascii.hexlify(data).decode("ascii")


def test_primitive_alignment_golden():
    out = CdrOutputStream()
    out.write_octet(0x01)
    out.write_short(0x0203)      # aligned to 2
    out.write_long(0x04050607)   # aligned to 4
    out.write_double(1.0)        # aligned to 8
    assert hexdump(out.getvalue()) == (
        "01" "00" "0203"        # octet + 1 pad + short
        "04050607"              # long (already at offset 4)
        "3ff0000000000000"      # double lands at offset 8: no padding
    )


def test_string_encoding_golden():
    out = CdrOutputStream()
    out.write_string("hi")
    # ulong length 3 (includes NUL), 'h', 'i', NUL.
    assert hexdump(out.getvalue()) == "00000003" "6869" "00"


def test_sequence_double_golden():
    out = CdrOutputStream()
    out.write_value(tc.sequence(tc.TC_DOUBLE), [1.0, -2.0])
    assert hexdump(out.getvalue()) == (
        "00000002"
        "00000000"  # pad to 8
        "3ff0000000000000"
        "c000000000000000"
    )


def test_ior_encoding_golden():
    ior = IOR("IDL:T:1.0", "ws01", 20000, b"k", 3)
    out = CdrOutputStream()
    out.write_ior(ior)
    expected = (
        "0000000a" + hexdump(b"IDL:T:1.0") + "00"  # type_id string
        + "0000"                                   # pad to 4
        + "00000005" + hexdump(b"ws01") + "00"     # host string
        + "000000"                                 # pad to 4
        + "00004e20"                               # port 20000
        + "00000001" + hexdump(b"k")               # object key octets
        + "000000"                                 # pad to 4
        + "00000003"                               # incarnation
    )
    assert hexdump(out.getvalue()) == expected


def test_giop_header_golden():
    raw = giop.encode_message(giop.ResetMessage(7, "x"))
    assert raw.startswith(b"sGIO")
    assert raw[4:6] == b"\x01\x00"  # version 1.0
    assert raw[6] == giop.MsgType.RESET
    assert hexdump(raw[8:12]) == "00000007"  # request id (aligned to 4)


def test_request_message_stable_size():
    message = giop.RequestMessage(
        request_id=1,
        response_expected=True,
        object_key=b"Calc:000001",
        operation="solve",
        target_incarnation=2,
        reply_host="ws00",
        reply_port=20000,
        body=b"\x00" * 16,
    )
    raw = giop.encode_message(message)
    # Frozen: header(7) + pad + id(4) + flag(1) + pad(3) + key(4+11) +
    # pad(1) + op(4+6) + pad(2) + incarnation(4) + host(4+5) + pad(3) +
    # port(4) + service-context count(4) + body(4+16).
    assert len(raw) == 88


def test_request_service_context_golden():
    """Service contexts ride between the fixed header and the body."""
    message = giop.RequestMessage(
        request_id=1,
        response_expected=True,
        object_key=b"k",
        operation="op",
        target_incarnation=1,
        reply_host="ws00",
        reply_port=20000,
        body=b"",
        service_contexts=((0x54524358, b"1:2"),),
    )
    raw = giop.encode_message(message)
    assert (
        "00000001"            # one service context
        "54524358"            # context id 'TRCX'
        "00000003" + hexdump(b"1:2")  # context data octets
    ) in hexdump(raw)
    decoded = giop.decode_message(raw)
    assert decoded.service_contexts == ((0x54524358, b"1:2"),)
    assert decoded.body == b""


def test_any_encoding_golden_for_int():
    # kind byte LONGLONG (8), pad to 8, value.
    assert hexdump(encode_any(5)) == "08" "00000000000000" "0000000000000005"


def test_any_checkpoint_state_golden():
    """The checkpoint shape — a scalar beside a list of doubles — byte for
    byte.  Six weights: long enough that the bulk lane of sequence<any>
    writes the list, which pins the lane to the per-element format."""
    state = {"total": 1.5, "weights": [0.5, 1.0, -2.0, 0.0, 4.0, 8.0]}
    any_double = "0b" "00000000000000"  # kind DOUBLE, pad to 8
    assert hexdump(encode_any(state)) == (
        # typecode: struct __dict__ { sequence<struct __dict_item__> items; }
        "0f" "000000" "00000009" + hexdump(b"__dict__") + "00" "000000"
        "00000001" "00000006" + hexdump(b"items") + "00"
        "0d"                                      # sequence<
        "0f" "0000000e" + hexdump(b"__dict_item__") + "00" "0000"
        "00000002"                                # { any key; any value; }
        "00000004" + hexdump(b"key") + "00" "12" "000000"
        "00000006" + hexdump(b"value") + "00" "12" "00"
        # value: two items
        "00000002"
        "0c" "000000" "00000006" + hexdump(b"total") + "00"
        "0b" "00" "3ff8000000000000"
        "0c" "000000" "00000008" + hexdump(b"weights") + "00"
        "0d" "12" "0000" "00000006"               # any: sequence<any>, 6 elements
        + any_double + "3fe0000000000000"
        + any_double + "3ff0000000000000"
        + any_double + "c000000000000000"
        + any_double + "0000000000000000"
        + any_double + "4010000000000000"
        + any_double + "4020000000000000"
    )
