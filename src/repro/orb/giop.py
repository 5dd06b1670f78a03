"""GIOP-style inter-ORB messages.

A small General Inter-ORB Protocol: Request, Reply, CancelRequest,
LocateRequest, LocateReply, Connect, ConnectAck and Reset messages, each
encoded to real CDR bytes so the simulated network charges realistic
transfer times.  A message starts with GIOP's magic, version and message
type; its fields follow, aligned as CDR aligns them.

Each kind is a ``__slots__`` record (one base class gives them value
equality, a hash and a repr) with one encoder and one decoder.  A coder
packs or unpacks each run of fixed-width fields with one precompiled
``struct.Struct`` straight on the buffer, so an invocation's Request and
Reply cost a handful of C calls each, not one stream call per primitive.
Bytes off the wire are not trusted: every length is checked against the
buffer, strings against their NUL and UTF-8, status octets against their
enum, and whatever is malformed raises ``MARSHAL`` (a ``CdrError`` where
the CDR streams would raise one) — never ``struct.error`` or
``IndexError``.
"""

from __future__ import annotations

import enum
import struct as _struct
from typing import Callable, Union

from repro.errors import (
    CdrError,
    CompletionStatus,
    MARSHAL,
    SystemException,
)
from repro import errors as _errors
from repro.orb.cdr import CdrInputStream, CdrOutputStream, _underrun

MAGIC = b"sGIO"  # "simulated GIOP"
VERSION = (1, 0)


class MsgType(enum.IntEnum):
    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    RESET = 7  # synthesized on behalf of dead endpoints (TCP RST analogue)
    CONNECT = 8  # connection-setup handshake (TCP SYN analogue)
    CONNECT_ACK = 9


class ReplyStatus(enum.IntEnum):
    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    OBJECT_UNKNOWN = 3
    LOCATION_FORWARD = 4  # body carries the IOR to retry at


class LocateStatus(enum.IntEnum):
    UNKNOWN_OBJECT = 0
    OBJECT_HERE = 1


class _Message:
    """Base of the eight message records.

    A record is its ``__slots__``: building one is one slot write per
    field.  Equality, hash and repr run over the fields in slot order, as
    a frozen dataclass's do; no code changes a record once it is built.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"


class RequestMessage(_Message):
    """An invocation.  ``service_contexts`` are GIOP service contexts:
    ``(context_id, data)`` pairs riding along with the request —
    out-of-band metadata such as the propagated observability trace
    context (see ``repro.obs.trace``)."""

    __slots__ = (
        "request_id",
        "response_expected",
        "object_key",
        "operation",
        "target_incarnation",
        "reply_host",
        "reply_port",
        "body",
        "service_contexts",
    )

    def __init__(
        self,
        request_id: int,
        response_expected: bool,
        object_key: bytes,
        operation: str,
        target_incarnation: int,
        reply_host: str,
        reply_port: int,
        body: bytes,
        service_contexts: tuple = (),
    ) -> None:
        self.request_id = request_id
        self.response_expected = response_expected
        self.object_key = object_key
        self.operation = operation
        self.target_incarnation = target_incarnation
        self.reply_host = reply_host
        self.reply_port = reply_port
        self.body = body
        self.service_contexts = service_contexts


class ReplyMessage(_Message):
    __slots__ = ("request_id", "status", "body")

    def __init__(self, request_id: int, status: ReplyStatus, body: bytes) -> None:
        self.request_id = request_id
        self.status = status
        self.body = body


class LocateRequestMessage(_Message):
    __slots__ = (
        "request_id",
        "object_key",
        "target_incarnation",
        "reply_host",
        "reply_port",
    )

    def __init__(
        self,
        request_id: int,
        object_key: bytes,
        target_incarnation: int,
        reply_host: str,
        reply_port: int,
    ) -> None:
        self.request_id = request_id
        self.object_key = object_key
        self.target_incarnation = target_incarnation
        self.reply_host = reply_host
        self.reply_port = reply_port


class LocateReplyMessage(_Message):
    __slots__ = ("request_id", "status")

    def __init__(self, request_id: int, status: LocateStatus) -> None:
        self.request_id = request_id
        self.status = status


class CancelRequestMessage(_Message):
    """Client notice that it no longer awaits ``request_id`` (GIOP
    CancelRequest): the server may abort the in-flight dispatch."""

    __slots__ = ("request_id",)

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id


class ConnectMessage(_Message):
    """One leg of connection setup: the client asks the server endpoint to
    accept a connection; the server answers with :class:`ConnectAckMessage`.
    Each configured handshake round trip is one such exchange, so drops and
    partitions affect connection *setup* exactly like they affect requests."""

    __slots__ = ("request_id", "reply_host", "reply_port")

    def __init__(self, request_id: int, reply_host: str, reply_port: int) -> None:
        self.request_id = request_id
        self.reply_host = reply_host
        self.reply_port = reply_port


class ConnectAckMessage(_Message):
    __slots__ = ("request_id",)

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id


class ResetMessage(_Message):
    """Connection-reset notice: the request with ``request_id`` can never be
    answered because its destination endpoint is gone."""

    __slots__ = ("request_id", "reason")

    def __init__(self, request_id: int, reason: str) -> None:
        self.request_id = request_id
        self.reason = reason


GiopMessage = Union[
    RequestMessage,
    ReplyMessage,
    CancelRequestMessage,
    LocateRequestMessage,
    LocateReplyMessage,
    ConnectMessage,
    ConnectAckMessage,
    ResetMessage,
]


# -- one encoder and one decoder per message kind ---------------------------------
#
# Every message starts with the same seven bytes but for the last: magic,
# version, message type.  They are written, and recognised, as one
# constant per kind.  The fields after them are CDR-aligned from the
# message's first byte, and each run of fixed-width fields — the prefix
# or a pad, the ulongs and octets up to the next variable-length field,
# and that field's length — is packed and unpacked by one precompiled
# ``struct.Struct`` straight on the buffer.  A value a run cannot pack,
# and a buffer too short for a run, raise ``struct.error``, which
# encode_message and decode_message turn into CdrError.

_PREFIX_SIZE = len(MAGIC) + len(VERSION) + 1

#: the first run of each kind: prefix, pad to 8, request id, then
_HEAD = _struct.Struct(">7sxI")
#: ... the length of the first variable-length field
_HEAD_LENGTH = _struct.Struct(">7sxII")
#: ... a status octet (LocateReply)
_HEAD_STATUS = _struct.Struct(">7sxIB")
#: ... a status octet, pad, the body's length (Reply)
_HEAD_STATUS_LENGTH = _struct.Struct(">7sxIB3xI")
#: ... ``response_expected``, pad, the object key's length (Request)
_HEAD_FLAG_LENGTH = _struct.Struct(">7sxI?3xI")
#: a pad of 0-3 octets, indexed by its size, then one ulong / two ulongs
_PAD_ULONG = tuple(_struct.Struct(f">{pad}xI") for pad in range(4))
_PAD_ULONG2 = tuple(_struct.Struct(f">{pad}xII") for pad in range(4))

#: octet -> enum member, total over what the wire can carry: a miss is a
#: malformed message (MARSHAL), never a ``ValueError`` out of ``IntEnum()``.
_REPLY_STATUSES = {int(status): status for status in ReplyStatus}
_LOCATE_STATUSES = {int(status): status for status in LocateStatus}
_COMPLETION_STATUSES = {status.value: status for status in CompletionStatus}


def _octets(value) -> bytes:
    """The bytes of an octet-sequence field, checked as ``write_octets``
    checks them."""
    if type(value) is bytes:
        return value
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise CdrError(f"expected bytes, got {type(value).__name__}")
    return bytes(value)


def _text(value) -> bytes:
    """The bytes of a string field — UTF-8, then the NUL — checked as
    ``write_string`` checks them."""
    if type(value) is not str and not isinstance(value, str):
        raise CdrError(f"expected str, got {type(value).__name__}")
    return value.encode("utf-8") + b"\x00"


def _octets_at(data: bytes, pos: int, length: int) -> bytes:
    end = pos + length
    if end > len(data):
        raise _underrun(length, pos, len(data))
    return data[pos:end]


def _string_at(data: bytes, pos: int, length: int) -> str:
    """The string of ``length`` bytes, its NUL included, at ``pos``."""
    if length == 0:
        raise CdrError("string length 0 is invalid (must include NUL)")
    end = pos + length
    if end > len(data):
        raise _underrun(length, pos, len(data))
    if data[end - 1] != 0:
        raise CdrError("string is not NUL-terminated")
    try:
        return str(data[pos : end - 1], "utf-8")
    except UnicodeDecodeError as exc:
        raise CdrError(f"string is not valid UTF-8: {exc}") from exc


def _encode_request(prefix: bytes, message: RequestMessage) -> bytearray:
    key = _octets(message.object_key)
    operation = _text(message.operation)
    host = _text(message.reply_host)
    contexts = message.service_contexts
    out = bytearray(
        _HEAD_FLAG_LENGTH.pack(
            prefix, message.request_id, message.response_expected, len(key)
        )
    )
    out += key
    out += _PAD_ULONG[-len(out) & 3].pack(len(operation))
    out += operation
    out += _PAD_ULONG2[-len(out) & 3].pack(message.target_incarnation, len(host))
    out += host
    out += _PAD_ULONG2[-len(out) & 3].pack(message.reply_port, len(contexts))
    for context_id, data in contexts:
        data = bytes(data)
        out += _PAD_ULONG2[-len(out) & 3].pack(context_id, len(data))
        out += data
    body = _octets(message.body)
    out += _PAD_ULONG[-len(out) & 3].pack(len(body))
    out += body
    return out


def _decode_request(data: bytes) -> RequestMessage:
    _, request_id, response_expected, length = _HEAD_FLAG_LENGTH.unpack_from(data)
    pos = _HEAD_FLAG_LENGTH.size
    object_key = _octets_at(data, pos, length)
    pos += length
    run = _PAD_ULONG[-pos & 3]
    (length,) = run.unpack_from(data, pos)
    pos += run.size
    operation = _string_at(data, pos, length)
    pos += length
    run = _PAD_ULONG2[-pos & 3]
    target_incarnation, length = run.unpack_from(data, pos)
    pos += run.size
    reply_host = _string_at(data, pos, length)
    pos += length
    run = _PAD_ULONG2[-pos & 3]
    reply_port, count = run.unpack_from(data, pos)
    pos += run.size
    contexts = []
    for _ in range(count):
        run = _PAD_ULONG2[-pos & 3]
        context_id, length = run.unpack_from(data, pos)
        pos += run.size
        contexts.append((context_id, _octets_at(data, pos, length)))
        pos += length
    run = _PAD_ULONG[-pos & 3]
    (length,) = run.unpack_from(data, pos)
    pos += run.size
    return RequestMessage(
        request_id,
        response_expected,
        object_key,
        operation,
        target_incarnation,
        reply_host,
        reply_port,
        _octets_at(data, pos, length),
        tuple(contexts),
    )


def _encode_reply(prefix: bytes, message: ReplyMessage) -> bytearray:
    body = _octets(message.body)
    out = bytearray(
        _HEAD_STATUS_LENGTH.pack(prefix, message.request_id, message.status, len(body))
    )
    out += body
    return out


def _decode_reply(data: bytes) -> ReplyMessage:
    _, request_id, octet, length = _HEAD_STATUS_LENGTH.unpack_from(data)
    status = _REPLY_STATUSES.get(octet)
    if status is None:
        raise MARSHAL(f"{octet} is not a valid ReplyStatus")
    return ReplyMessage(
        request_id, status, _octets_at(data, _HEAD_STATUS_LENGTH.size, length)
    )


def _encode_request_id(
    prefix: bytes, message: Union[CancelRequestMessage, ConnectAckMessage]
) -> bytes:
    return _HEAD.pack(prefix, message.request_id)


def _decode_cancel(data: bytes) -> CancelRequestMessage:
    return CancelRequestMessage(_HEAD.unpack_from(data)[1])


def _encode_locate_request(prefix: bytes, message: LocateRequestMessage) -> bytearray:
    key = _octets(message.object_key)
    host = _text(message.reply_host)
    out = bytearray(_HEAD_LENGTH.pack(prefix, message.request_id, len(key)))
    out += key
    out += _PAD_ULONG2[-len(out) & 3].pack(message.target_incarnation, len(host))
    out += host
    out += _PAD_ULONG[-len(out) & 3].pack(message.reply_port)
    return out


def _decode_locate_request(data: bytes) -> LocateRequestMessage:
    _, request_id, length = _HEAD_LENGTH.unpack_from(data)
    pos = _HEAD_LENGTH.size
    object_key = _octets_at(data, pos, length)
    pos += length
    run = _PAD_ULONG2[-pos & 3]
    target_incarnation, length = run.unpack_from(data, pos)
    pos += run.size
    reply_host = _string_at(data, pos, length)
    pos += length
    (reply_port,) = _PAD_ULONG[-pos & 3].unpack_from(data, pos)
    return LocateRequestMessage(
        request_id, object_key, target_incarnation, reply_host, reply_port
    )


def _encode_locate_reply(prefix: bytes, message: LocateReplyMessage) -> bytes:
    return _HEAD_STATUS.pack(prefix, message.request_id, message.status)


def _decode_locate_reply(data: bytes) -> LocateReplyMessage:
    _, request_id, octet = _HEAD_STATUS.unpack_from(data)
    status = _LOCATE_STATUSES.get(octet)
    if status is None:
        raise MARSHAL(f"{octet} is not a valid LocateStatus")
    return LocateReplyMessage(request_id, status)


def _encode_connect(prefix: bytes, message: ConnectMessage) -> bytearray:
    host = _text(message.reply_host)
    out = bytearray(_HEAD_LENGTH.pack(prefix, message.request_id, len(host)))
    out += host
    out += _PAD_ULONG[-len(out) & 3].pack(message.reply_port)
    return out


def _decode_connect(data: bytes) -> ConnectMessage:
    _, request_id, length = _HEAD_LENGTH.unpack_from(data)
    pos = _HEAD_LENGTH.size
    reply_host = _string_at(data, pos, length)
    pos += length
    (reply_port,) = _PAD_ULONG[-pos & 3].unpack_from(data, pos)
    return ConnectMessage(request_id, reply_host, reply_port)


def _decode_connect_ack(data: bytes) -> ConnectAckMessage:
    return ConnectAckMessage(_HEAD.unpack_from(data)[1])


def _encode_reset(prefix: bytes, message: ResetMessage) -> bytes:
    reason = _text(message.reason or "-")
    return _HEAD_LENGTH.pack(prefix, message.request_id, len(reason)) + reason


def _decode_reset(data: bytes) -> ResetMessage:
    _, request_id, length = _HEAD_LENGTH.unpack_from(data)
    return ResetMessage(request_id, _string_at(data, _HEAD_LENGTH.size, length))


def _prefix(msg_type: MsgType) -> bytes:
    return MAGIC + bytes(VERSION) + bytes([msg_type])


#: message class -> (message type, encoder, decoder)
_CODECS: dict[type, tuple[MsgType, Callable, Callable]] = {
    RequestMessage: (MsgType.REQUEST, _encode_request, _decode_request),
    ReplyMessage: (MsgType.REPLY, _encode_reply, _decode_reply),
    CancelRequestMessage: (
        MsgType.CANCEL_REQUEST,
        _encode_request_id,
        _decode_cancel,
    ),
    LocateRequestMessage: (
        MsgType.LOCATE_REQUEST,
        _encode_locate_request,
        _decode_locate_request,
    ),
    LocateReplyMessage: (
        MsgType.LOCATE_REPLY,
        _encode_locate_reply,
        _decode_locate_reply,
    ),
    ConnectMessage: (MsgType.CONNECT, _encode_connect, _decode_connect),
    ConnectAckMessage: (
        MsgType.CONNECT_ACK,
        _encode_request_id,
        _decode_connect_ack,
    ),
    ResetMessage: (MsgType.RESET, _encode_reset, _decode_reset),
}
#: message class -> (its seven-byte prefix, encoder)
_ENCODERS = {
    cls: (_prefix(msg_type), encode) for cls, (msg_type, encode, _) in _CODECS.items()
}
#: seven-byte prefix -> decoder
_DECODERS = {_prefix(msg_type): decode for msg_type, _, decode in _CODECS.values()}


def encode_message(message: GiopMessage) -> bytes:
    codec = _ENCODERS.get(type(message))
    if codec is None:
        raise MARSHAL(f"unknown GIOP message type {type(message).__name__}")
    prefix, encode = codec
    try:
        return bytes(encode(prefix, message))
    except _struct.error as exc:
        raise CdrError(f"cannot encode {type(message).__name__}: {exc}") from exc


def decode_message(data: bytes) -> GiopMessage:
    decode = _DECODERS.get(data[:_PREFIX_SIZE])
    if decode is None:
        raise _bad_prefix(data)
    try:
        return decode(data)
    except _struct.error as exc:
        raise CdrError(f"truncated GIOP message: {exc}") from exc


def _bad_prefix(data: bytes) -> MARSHAL:
    """What is wrong with the first seven bytes, field by field."""
    stream = CdrInputStream(data)
    if stream.read_raw(len(MAGIC)) != MAGIC:
        return MARSHAL("bad GIOP magic")
    major, minor = stream.read_octet(), stream.read_octet()
    if (major, minor) != VERSION:
        return MARSHAL(f"unsupported GIOP version {major}.{minor}")
    return MARSHAL(
        f"unknown GIOP message type: {stream.read_octet()} is not a valid MsgType"
    )


# -- system-exception bodies -------------------------------------------------------

_SYSTEM_EXCEPTION_NAMES = (
    "COMM_FAILURE",
    "OBJECT_NOT_EXIST",
    "BAD_OPERATION",
    "BAD_PARAM",
    "MARSHAL",
    "NO_IMPLEMENT",
    "TRANSIENT",
    "TIMEOUT",
    "OBJ_ADAPTER",
    "INV_OBJREF",
    "UNKNOWN",
)


def encode_system_exception(exc: SystemException) -> bytes:
    """Reply body for ``SYSTEM_EXCEPTION`` status."""
    stream = CdrOutputStream()
    name = type(exc).__name__
    if name not in _SYSTEM_EXCEPTION_NAMES:
        name = "UNKNOWN"
    stream.write_string(name)
    stream.write_string(str(exc.args[0]) if exc.args else "")
    stream.write_ulong(exc.minor)
    stream.write_octet(exc.completed.value)
    return stream.getvalue()


def decode_system_exception(body: bytes) -> SystemException:
    stream = CdrInputStream(body)
    name = stream.read_string()
    message = stream.read_string()
    minor = stream.read_ulong()
    octet = stream.read_octet()
    completed = _COMPLETION_STATUSES.get(octet)
    if completed is None:
        raise MARSHAL(f"{octet} is not a valid CompletionStatus")
    cls = getattr(_errors, name, None)
    if cls is None or not issubclass(cls, SystemException):
        cls = _errors.UNKNOWN
    return cls(message, minor=minor, completed=completed)
