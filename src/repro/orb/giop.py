"""GIOP-style inter-ORB messages.

A small General Inter-ORB Protocol: Request, Reply, LocateRequest,
LocateReply and Reset messages, each encoded to real bytes with CDR so the
simulated network charges realistic transfer times.  The header mirrors
GIOP's (magic, version, message type, body length).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Union

from repro.errors import (
    CdrError,
    CompletionStatus,
    MARSHAL,
    SystemException,
)
from repro import errors as _errors
from repro.orb.cdr import CdrInputStream, CdrOutputStream

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


@dataclass(frozen=True)
class RequestMessage:
    request_id: int
    response_expected: bool
    object_key: bytes
    operation: str
    target_incarnation: int
    reply_host: str
    reply_port: int
    body: bytes
    #: GIOP service contexts: ``(context_id, data)`` pairs riding along
    #: with the request — out-of-band metadata such as the propagated
    #: observability trace context (see ``repro.obs.trace``).
    service_contexts: tuple = ()


@dataclass(frozen=True)
class ReplyMessage:
    request_id: int
    status: ReplyStatus
    body: bytes


@dataclass(frozen=True)
class LocateRequestMessage:
    request_id: int
    object_key: bytes
    target_incarnation: int
    reply_host: str
    reply_port: int


@dataclass(frozen=True)
class LocateReplyMessage:
    request_id: int
    status: LocateStatus


@dataclass(frozen=True)
class CancelRequestMessage:
    """Client notice that it no longer awaits ``request_id`` (GIOP
    CancelRequest): the server may abort the in-flight dispatch."""

    request_id: int


@dataclass(frozen=True)
class ConnectMessage:
    """One leg of connection setup: the client asks the server endpoint to
    accept a connection; the server answers with :class:`ConnectAckMessage`.
    Each configured handshake round trip is one such exchange, so drops and
    partitions affect connection *setup* exactly like they affect requests."""

    request_id: int
    reply_host: str
    reply_port: int


@dataclass(frozen=True)
class ConnectAckMessage:
    request_id: int


@dataclass(frozen=True)
class ResetMessage:
    """Connection-reset notice: the request with ``request_id`` can never be
    answered because its destination endpoint is gone."""

    request_id: int
    reason: str


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
# constant per kind; the body coders below start at offset 7.

_PREFIX_SIZE = len(MAGIC) + len(VERSION) + 1

#: octet -> enum member, total over what the wire can carry: a miss is a
#: malformed message (MARSHAL), never a ``ValueError`` out of ``IntEnum()``.
_REPLY_STATUSES = {int(status): status for status in ReplyStatus}
_LOCATE_STATUSES = {int(status): status for status in LocateStatus}
_COMPLETION_STATUSES = {status.value: status for status in CompletionStatus}


def _encode_request(stream: CdrOutputStream, message: RequestMessage) -> None:
    stream.write_ulong(message.request_id)
    stream.write_boolean(message.response_expected)
    stream.write_octets(message.object_key)
    stream.write_string(message.operation)
    stream.write_ulong(message.target_incarnation)
    stream.write_string(message.reply_host)
    stream.write_ulong(message.reply_port)
    stream.write_ulong(len(message.service_contexts))
    for context_id, data in message.service_contexts:
        stream.write_ulong(context_id)
        stream.write_octets(bytes(data))
    stream.write_octets(message.body)


def _decode_request(stream: CdrInputStream) -> RequestMessage:
    request_id = stream.read_ulong()
    response_expected = stream.read_boolean()
    object_key = stream.read_octets()
    operation = stream.read_string()
    target_incarnation = stream.read_ulong()
    reply_host = stream.read_string()
    reply_port = stream.read_ulong()
    service_contexts = tuple(
        [
            (stream.read_ulong(), stream.read_octets())
            for _ in range(stream.read_ulong())
        ]
    )
    return RequestMessage(
        request_id=request_id,
        response_expected=response_expected,
        object_key=object_key,
        operation=operation,
        target_incarnation=target_incarnation,
        reply_host=reply_host,
        reply_port=reply_port,
        body=stream.read_octets(),
        service_contexts=service_contexts,
    )


def _encode_reply(stream: CdrOutputStream, message: ReplyMessage) -> None:
    stream.write_ulong(message.request_id)
    stream.write_octet(message.status)
    stream.write_octets(message.body)


def _decode_reply(stream: CdrInputStream) -> ReplyMessage:
    request_id = stream.read_ulong()
    octet = stream.read_octet()
    status = _REPLY_STATUSES.get(octet)
    if status is None:
        raise MARSHAL(f"{octet} is not a valid ReplyStatus")
    return ReplyMessage(request_id, status, stream.read_octets())


def _encode_request_id(
    stream: CdrOutputStream, message: Union[CancelRequestMessage, ConnectAckMessage]
) -> None:
    stream.write_ulong(message.request_id)


def _decode_cancel(stream: CdrInputStream) -> CancelRequestMessage:
    return CancelRequestMessage(stream.read_ulong())


def _encode_locate_request(
    stream: CdrOutputStream, message: LocateRequestMessage
) -> None:
    stream.write_ulong(message.request_id)
    stream.write_octets(message.object_key)
    stream.write_ulong(message.target_incarnation)
    stream.write_string(message.reply_host)
    stream.write_ulong(message.reply_port)


def _decode_locate_request(stream: CdrInputStream) -> LocateRequestMessage:
    return LocateRequestMessage(
        request_id=stream.read_ulong(),
        object_key=stream.read_octets(),
        target_incarnation=stream.read_ulong(),
        reply_host=stream.read_string(),
        reply_port=stream.read_ulong(),
    )


def _encode_locate_reply(stream: CdrOutputStream, message: LocateReplyMessage) -> None:
    stream.write_ulong(message.request_id)
    stream.write_octet(message.status)


def _decode_locate_reply(stream: CdrInputStream) -> LocateReplyMessage:
    request_id = stream.read_ulong()
    octet = stream.read_octet()
    status = _LOCATE_STATUSES.get(octet)
    if status is None:
        raise MARSHAL(f"{octet} is not a valid LocateStatus")
    return LocateReplyMessage(request_id, status)


def _encode_connect(stream: CdrOutputStream, message: ConnectMessage) -> None:
    stream.write_ulong(message.request_id)
    stream.write_string(message.reply_host)
    stream.write_ulong(message.reply_port)


def _decode_connect(stream: CdrInputStream) -> ConnectMessage:
    return ConnectMessage(
        request_id=stream.read_ulong(),
        reply_host=stream.read_string(),
        reply_port=stream.read_ulong(),
    )


def _decode_connect_ack(stream: CdrInputStream) -> ConnectAckMessage:
    return ConnectAckMessage(stream.read_ulong())


def _encode_reset(stream: CdrOutputStream, message: ResetMessage) -> None:
    stream.write_ulong(message.request_id)
    stream.write_string(message.reason or "-")


def _decode_reset(stream: CdrInputStream) -> ResetMessage:
    return ResetMessage(request_id=stream.read_ulong(), reason=stream.read_string())


def _prefix(msg_type: MsgType) -> bytes:
    return MAGIC + bytes(VERSION) + bytes([msg_type])


#: message class -> (message type, body encoder, body decoder)
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
#: message class -> (its seven-byte prefix, body encoder)
_ENCODERS = {
    cls: (_prefix(msg_type), encode) for cls, (msg_type, encode, _) in _CODECS.items()
}
#: seven-byte prefix -> body decoder
_DECODERS = {_prefix(msg_type): decode for msg_type, _, decode in _CODECS.values()}


def encode_message(message: GiopMessage) -> bytes:
    codec = _ENCODERS.get(type(message))
    if codec is None:
        raise MARSHAL(f"unknown GIOP message type {type(message).__name__}")
    prefix, encode_body = codec
    stream = CdrOutputStream(prefix)
    encode_body(stream, message)
    return stream.getvalue()


def decode_message(data: bytes) -> GiopMessage:
    decode_body = _DECODERS.get(data[:_PREFIX_SIZE])
    if decode_body is None:
        raise _bad_prefix(data)
    return decode_body(CdrInputStream(data, _PREFIX_SIZE))


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
