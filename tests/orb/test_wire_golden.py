"""Golden wire-format tests.

Freeze the byte-level CDR/GIOP encodings with literal hex so accidental
format changes (alignment, field order, header layout) are caught even
when both encoder and decoder change together."""

import binascii
import struct

import numpy as np
import pytest

from repro.ft.checkpointable import CheckpointableStub
from repro.orb import giop
from repro.orb import typecodes as tc
from repro.orb.cdr import CdrOutputStream, encode_any
from repro.orb.ior import IOR
from repro.services.checkpoint import CheckpointStoreStub
from tests.orb.test_giop import ONE_OF_EACH


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


#: every GIOP message kind of ``tests/orb/test_giop.py::ONE_OF_EACH``, field
#: by field; the prefix is magic "sGIO", version 1.0 and the kind octet.
ONE_OF_EACH_HEX = [
    (
        "7347494f" "0100" "00" "00"              # prefix REQUEST, pad to 8
        "0000002a" "01" "000000"                 # id 42, response expected, pad
        "0000000b" + hexdump(b"Calc:000001") + "00"  # object key, pad
        "00000006" + hexdump(b"solve") + "00" "0000"  # operation, pad
        "00000003"                               # target incarnation
        "00000005" + hexdump(b"ws00") + "00" "000000"  # reply host, pad
        "00004e21"                               # reply port 20001
        "00000001" "00000007"                    # one context, id 7
        "00000003" + hexdump(b"ctx") + "00"      # its data, pad
        "00000003" "010203"                      # body
    ),
    (
        "7347494f" "0100" "01" "00"              # prefix REPLY, pad
        "0000002a" "00" "000000"                 # id 42, NO_EXCEPTION, pad
        "00000008" "0000000000000000"            # body
    ),
    "7347494f" "0100" "02" "00" "0000002a",      # CANCEL_REQUEST 42
    (
        "7347494f" "0100" "03" "00" "0000002a"   # LOCATE_REQUEST 42
        "0000000b" + hexdump(b"Calc:000001") + "00"  # object key, pad
        "00000003"                               # target incarnation
        "00000005" + hexdump(b"ws00") + "00" "000000"  # reply host, pad
        "00004e21"                               # reply port
    ),
    "7347494f" "0100" "04" "00" "0000002a" "01",  # LOCATE_REPLY OBJECT_HERE
    (
        "7347494f" "0100" "08" "00" "0000002a"   # CONNECT 42
        "00000005" + hexdump(b"ws00") + "00" "000000"  # reply host, pad
        "00004e21"                               # reply port
    ),
    "7347494f" "0100" "09" "00" "0000002a",      # CONNECT_ACK 42
    (
        "7347494f" "0100" "07" "00" "0000002a"   # RESET 42
        "0000000a" + hexdump(b"peer gone") + "00"  # reason
    ),
]


@pytest.mark.parametrize(
    "index", range(len(ONE_OF_EACH)), ids=lambda i: type(ONE_OF_EACH[i]).__name__
)
def test_every_message_kind_golden(index):
    message = ONE_OF_EACH[index]
    raw = giop.encode_message(message)
    assert hexdump(raw) == ONE_OF_EACH_HEX[index]
    assert giop.decode_message(raw) == message


def test_request_pads_golden():
    """A oneway request whose key, operation and context data are of odd
    length, with two service contexts: every pad a Request can carry."""
    message = giop.RequestMessage(
        request_id=0x01020304,
        response_expected=False,
        object_key=b"Acc:00001",
        operation="solve",
        target_incarnation=5,
        reply_host="ws1",
        reply_port=20003,
        body=b"\x01\x02\x03",
        service_contexts=((0x54524358, b"1:2"), (7, b"abcde")),
    )
    raw = giop.encode_message(message)
    assert hexdump(raw) == (
        "7347494f" "0100" "00" "00"              # prefix REQUEST, pad to 8
        "01020304" "00" "000000"                 # id, oneway, pad 3
        "00000009" + hexdump(b"Acc:00001") + "000000"  # object key, pad 3
        "00000006" + hexdump(b"solve") + "00" "0000"  # operation, pad 2
        "00000005"                               # target incarnation
        "00000004" + hexdump(b"ws1") + "00"      # reply host, no pad
        "00004e23"                               # reply port 20003
        "00000002"                               # two contexts
        "54524358" "00000003" + hexdump(b"1:2") + "00"  # 'TRCX', pad 1
        "00000007" "00000005" + hexdump(b"abcde") + "000000"  # id 7, pad 3
        "00000003" "010203"                      # body
    )
    assert giop.decode_message(raw) == message


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


# -- FT state bodies --------------------------------------------------------------
#
# The four message bodies the fault-tolerance paths carry, byte for byte: the
# reply to ``get_checkpoint``, a ``restore_from`` request carrying a member
# envelope, a ``store`` request (whose any sits at body offset 12) and the
# Table 1 worker state.  A list of 512 doubles is a kind octet, padding and
# the value for its first element and a 16-byte record (kind DOUBLE, seven
# zero octets, the value) for every later one.

#: the e2e Accumulator's state: a running total beside 512 doubles
ACCUMULATOR_WEIGHTS = [0.5 * i for i in range(512)]
ACCUMULATOR_STATE = {"total": 6.0, "weights": ACCUMULATOR_WEIGHTS}
WEIGHT_RECORDS = "".join(
    "0b" "00000000000000" + struct.pack(">d", value).hex()
    for value in ACCUMULATOR_WEIGHTS[1:]
)


def op_body(info, args) -> bytes:
    """A request body as the ORB marshals it: the parameters in order."""
    out = CdrOutputStream()
    for (_, typecode), value in zip(info.params, args):
        out.write_value(typecode, value)
    return out.getvalue()


def reply_body(info, result) -> bytes:
    out = CdrOutputStream()
    out.write_value(info.result, result)
    return out.getvalue()


def member_envelope() -> dict:
    """A warm-passive member envelope with a 20-entry reply cache."""
    return {
        "__ft_member_state__": 1,
        "state": ACCUMULATOR_STATE,
        "replies": {f"acc:{i}": 1.5 * i for i in range(1, 21)},
    }


def table1_worker_state() -> dict:
    """A worker state of the paper's 100/7 layout: seven subproblems, each
    with its best objective value, block (14 or 13) and coupling (6)."""
    sizes = (14, 14, 14, 13, 13, 13, 13)
    return {
        "evaluations": 1498,
        "solve_calls": 7,
        "best": {
            str(w): {
                "fun": 0.25 * (w + 1),
                "block": np.array([w + 0.125 * j for j in range(n)]),
                "coupling": np.full(6, 0.5),
            }
            for w, n in enumerate(sizes)
        },
    }


def test_get_checkpoint_reply_golden():
    info = CheckpointableStub.__operations__["get_checkpoint"]
    data = reply_body(info, ACCUMULATOR_STATE)
    assert len(data) == 8328
    expected = (
        "0f000000000000095f5f646963745f5f0000000000000001000000066974656d"
        "73000d0f0000000e5f5f646963745f6974656d5f5f0000000000000200000004"
        "6b657900120000000000000676616c7565001200000000020c00000000000006"
        "746f74616c000b0040180000000000000c000000000000087765696768747300"
        "0d120000000002000b000000000000000000000000000000"
        + WEIGHT_RECORDS
    )
    assert hexdump(data) == expected


def test_restore_from_member_envelope_golden():
    info = CheckpointableStub.__operations__["restore_from"]
    data = op_body(info, (member_envelope(),))
    assert len(data) == 9056
    expected = (
        "0f000000000000095f5f646963745f5f0000000000000001000000066974656d"
        "73000d0f0000000e5f5f646963745f6974656d5f5f0000000000000200000004"
        "6b657900120000000000000676616c7565001200000000030c00000000000014"
        "5f5f66745f6d656d6265725f73746174655f5f00080000000000000000000001"
        "0c000000000000067374617465000f00000000095f5f646963745f5f00000000"
        "00000001000000066974656d73000d0f0000000e5f5f646963745f6974656d5f"
        "5f00000000000002000000046b657900120000000000000676616c7565001200"
        "000000020c00000000000006746f74616c000b00000000004018000000000000"
        "0c0000000000000877656967687473000d120000000002000b00000000000000"
        "0000000000000000"
        + WEIGHT_RECORDS
        + "0c000000000000087265706c696573000f000000000000095f5f646963745f5f"
        "0000000000000001000000066974656d73000d0f0000000e5f5f646963745f69"
        "74656d5f5f00000000000002000000046b657900120000000000000676616c75"
        "65001200000000140c000000000000066163633a31000b003ff8000000000000"
        "0c000000000000066163633a32000b0040080000000000000c00000000000006"
        "6163633a33000b0040120000000000000c000000000000066163633a34000b00"
        "40180000000000000c000000000000066163633a35000b00401e000000000000"
        "0c000000000000066163633a36000b0040220000000000000c00000000000006"
        "6163633a37000b0040250000000000000c000000000000066163633a38000b00"
        "40280000000000000c000000000000066163633a39000b00402b000000000000"
        "0c000000000000076163633a3130000b402e0000000000000c00000000000007"
        "6163633a3131000b40308000000000000c000000000000076163633a3132000b"
        "40320000000000000c000000000000076163633a3133000b4033800000000000"
        "0c000000000000076163633a3134000b40350000000000000c00000000000007"
        "6163633a3135000b40368000000000000c000000000000076163633a3136000b"
        "40380000000000000c000000000000076163633a3137000b4039800000000000"
        "0c000000000000076163633a3138000b403b0000000000000c00000000000007"
        "6163633a3139000b403c8000000000000c000000000000076163633a3230000b"
        "403e000000000000"
    )
    assert hexdump(data) == expected


def test_store_request_golden():
    info = CheckpointStoreStub.__operations__["store"]
    data = op_body(info, ("acc", 3, ACCUMULATOR_STATE))
    assert len(data) == 8344
    # key "acc" and version 3 take 12 octets: the any starts 4 mod 8
    assert hexdump(data[:12]) == "00000004" + hexdump(b"acc") + "00" "00000003"
    expected = (
        "0000000461636300000000030f000000000000095f5f646963745f5f00000000"
        "00000001000000066974656d73000d0f0000000e5f5f646963745f6974656d5f"
        "5f00000000000002000000046b657900120000000000000676616c7565001200"
        "000000020c00000000000006746f74616c000b00000000004018000000000000"
        "0c0000000000000877656967687473000d120000000002000b00000000000000"
        "0000000000000000"
        + WEIGHT_RECORDS
    )
    assert hexdump(data) == expected


def test_table1_worker_state_golden():
    info = CheckpointableStub.__operations__["get_checkpoint"]
    data = reply_body(info, table1_worker_state())
    assert len(data) == 3360
    expected = (
        "0f000000000000095f5f646963745f5f0000000000000001000000066974656d"
        "73000d0f0000000e5f5f646963745f6974656d5f5f0000000000000200000004"
        "6b657900120000000000000676616c7565001200000000030c0000000000000c"
        "6576616c756174696f6e73000800000000000000000005da0c0000000000000c"
        "736f6c76655f63616c6c73000800000000000000000000070c00000000000005"
        "62657374000f0000000000095f5f646963745f5f000000000000000100000006"
        "6974656d73000d0f0000000e5f5f646963745f6974656d5f5f00000000000002"
        "000000046b657900120000000000000676616c7565001200000000070c000000"
        "0000000230000f00000000095f5f646963745f5f000000000000000100000006"
        "6974656d73000d0f0000000e5f5f646963745f6974656d5f5f00000000000002"
        "000000046b657900120000000000000676616c7565001200000000030c000000"
        "0000000466756e000b000000000000003fd00000000000000c00000000000006"
        "626c6f636b000f000000000c5f5f6e6461727261795f5f000000000200000006"
        "7368617065000d090000000564617461000d0b0000000001000000000000000e"
        "0000000e0000000000000000000000003fc00000000000003fd0000000000000"
        "3fd80000000000003fe00000000000003fe40000000000003fe8000000000000"
        "3fec0000000000003ff00000000000003ff20000000000003ff4000000000000"
        "3ff60000000000003ff80000000000003ffa0000000000000c00000000000009"
        "636f75706c696e67000f00000000000c5f5f6e6461727261795f5f0000000002"
        "000000067368617065000d090000000564617461000d0b000000000100000000"
        "000000000000000600000006000000003fe00000000000003fe0000000000000"
        "3fe00000000000003fe00000000000003fe00000000000003fe0000000000000"
        "0c0000000000000231000f00000000095f5f646963745f5f0000000000000001"
        "000000066974656d73000d0f0000000e5f5f646963745f6974656d5f5f000000"
        "00000002000000046b657900120000000000000676616c756500120000000003"
        "0c0000000000000466756e000b0000003fe00000000000000c00000000000006"
        "626c6f636b000f000000000c5f5f6e6461727261795f5f000000000200000006"
        "7368617065000d090000000564617461000d0b0000000001000000000000000e"
        "0000000e000000003ff00000000000003ff20000000000003ff4000000000000"
        "3ff60000000000003ff80000000000003ffa0000000000003ffc000000000000"
        "3ffe000000000000400000000000000040010000000000004002000000000000"
        "4003000000000000400400000000000040050000000000000c00000000000009"
        "636f75706c696e67000f00000000000c5f5f6e6461727261795f5f0000000002"
        "000000067368617065000d090000000564617461000d0b000000000100000000"
        "000000000000000600000006000000003fe00000000000003fe0000000000000"
        "3fe00000000000003fe00000000000003fe00000000000003fe0000000000000"
        "0c0000000000000232000f00000000095f5f646963745f5f0000000000000001"
        "000000066974656d73000d0f0000000e5f5f646963745f6974656d5f5f000000"
        "00000002000000046b657900120000000000000676616c756500120000000003"
        "0c0000000000000466756e000b0000003fe80000000000000c00000000000006"
        "626c6f636b000f000000000c5f5f6e6461727261795f5f000000000200000006"
        "7368617065000d090000000564617461000d0b0000000001000000000000000e"
        "0000000e00000000400000000000000040010000000000004002000000000000"
        "4003000000000000400400000000000040050000000000004006000000000000"
        "400700000000000040080000000000004009000000000000400a000000000000"
        "400b000000000000400c000000000000400d0000000000000c00000000000009"
        "636f75706c696e67000f00000000000c5f5f6e6461727261795f5f0000000002"
        "000000067368617065000d090000000564617461000d0b000000000100000000"
        "000000000000000600000006000000003fe00000000000003fe0000000000000"
        "3fe00000000000003fe00000000000003fe00000000000003fe0000000000000"
        "0c0000000000000233000f00000000095f5f646963745f5f0000000000000001"
        "000000066974656d73000d0f0000000e5f5f646963745f6974656d5f5f000000"
        "00000002000000046b657900120000000000000676616c756500120000000003"
        "0c0000000000000466756e000b0000003ff00000000000000c00000000000006"
        "626c6f636b000f000000000c5f5f6e6461727261795f5f000000000200000006"
        "7368617065000d090000000564617461000d0b0000000001000000000000000d"
        "0000000d0000000040080000000000004009000000000000400a000000000000"
        "400b000000000000400c000000000000400d000000000000400e000000000000"
        "400f000000000000401000000000000040108000000000004011000000000000"
        "401180000000000040120000000000000c00000000000009636f75706c696e67"
        "000f00000000000c5f5f6e6461727261795f5f00000000020000000673686170"
        "65000d090000000564617461000d0b0000000001000000000000000000000006"
        "00000006000000003fe00000000000003fe00000000000003fe0000000000000"
        "3fe00000000000003fe00000000000003fe00000000000000c00000000000002"
        "34000f00000000095f5f646963745f5f0000000000000001000000066974656d"
        "73000d0f0000000e5f5f646963745f6974656d5f5f0000000000000200000004"
        "6b657900120000000000000676616c7565001200000000030c00000000000004"
        "66756e000b0000003ff40000000000000c00000000000006626c6f636b000f00"
        "0000000c5f5f6e6461727261795f5f0000000002000000067368617065000d09"
        "0000000564617461000d0b0000000001000000000000000d0000000d00000000"
        "4010000000000000401080000000000040110000000000004011800000000000"
        "4012000000000000401280000000000040130000000000004013800000000000"
        "4014000000000000401480000000000040150000000000004015800000000000"
        "40160000000000000c00000000000009636f75706c696e67000f00000000000c"
        "5f5f6e6461727261795f5f0000000002000000067368617065000d0900000005"
        "64617461000d0b00000000010000000000000000000000060000000600000000"
        "3fe00000000000003fe00000000000003fe00000000000003fe0000000000000"
        "3fe00000000000003fe00000000000000c0000000000000235000f0000000009"
        "5f5f646963745f5f0000000000000001000000066974656d73000d0f0000000e"
        "5f5f646963745f6974656d5f5f00000000000002000000046b65790012000000"
        "0000000676616c7565001200000000030c0000000000000466756e000b000000"
        "3ff80000000000000c00000000000006626c6f636b000f000000000c5f5f6e64"
        "61727261795f5f0000000002000000067368617065000d090000000564617461"
        "000d0b0000000001000000000000000d0000000d000000004014000000000000"
        "4014800000000000401500000000000040158000000000004016000000000000"
        "4016800000000000401700000000000040178000000000004018000000000000"
        "401880000000000040190000000000004019800000000000401a000000000000"
        "0c00000000000009636f75706c696e67000f00000000000c5f5f6e6461727261"
        "795f5f0000000002000000067368617065000d090000000564617461000d0b00"
        "0000000100000000000000000000000600000006000000003fe0000000000000"
        "3fe00000000000003fe00000000000003fe00000000000003fe0000000000000"
        "3fe00000000000000c0000000000000236000f00000000095f5f646963745f5f"
        "0000000000000001000000066974656d73000d0f0000000e5f5f646963745f69"
        "74656d5f5f00000000000002000000046b657900120000000000000676616c75"
        "65001200000000030c0000000000000466756e000b0000003ffc000000000000"
        "0c00000000000006626c6f636b000f000000000c5f5f6e6461727261795f5f00"
        "00000002000000067368617065000d090000000564617461000d0b0000000001"
        "000000000000000d0000000d0000000040180000000000004018800000000000"
        "40190000000000004019800000000000401a000000000000401a800000000000"
        "401b000000000000401b800000000000401c000000000000401c800000000000"
        "401d000000000000401d800000000000401e0000000000000c00000000000009"
        "636f75706c696e67000f00000000000c5f5f6e6461727261795f5f0000000002"
        "000000067368617065000d090000000564617461000d0b000000000100000000"
        "000000000000000600000006000000003fe00000000000003fe0000000000000"
        "3fe00000000000003fe00000000000003fe00000000000003fe0000000000000"
    )
    assert hexdump(data) == expected
