"""Common Data Representation (CDR) marshalling.

Big-endian, aligned encoding of typed values, as GIOP messages carry them.
The byte counts produced here are *the* message sizes the simulated network
charges for, so marshalling is implemented for real rather than mocked.

Two layers:

* primitive streams (:class:`CdrOutputStream` / :class:`CdrInputStream`)
  with CDR alignment rules;
* typed value coding (:meth:`CdrOutputStream.write_value` /
  :meth:`CdrInputStream.read_value`) driven by
  :class:`~repro.orb.typecodes.TypeCode`, including a self-describing
  ``any`` (:func:`encode_any` / :func:`decode_any`).

Numeric sequences take a vectorized NumPy fast path: a ``sequence<double>``
is written as one buffer, not element-by-element — the optimization guides'
"vectorize the hot loop" rule applied to marshalling, which *is* the hot
loop of an ORB.

The same rule covers bulk state inside an ``any``: a Python list that is
all ``float`` or all ``int`` is a ``sequence<any>`` whose elements, after
the first, are identical 16-byte records, and the plan for
``sequence<any>`` writes and reads such a homogeneous run as one NumPy
structured array (:func:`_write_any_seq` / :func:`_read_any_seq`) — the
same bytes as the per-element loop, which every other list still takes.

Two caches take re-walking out of the hot loop:

* **encoder/decoder plans** — :class:`TypeCode` is a frozen dataclass
  whose hash is computed once at construction, so the kind-dispatch over
  a typecode tree can be compiled once into nested closures and memoized
  per typecode (:func:`encoder_plan` / :func:`decoder_plan`).
  ``write_value`` / ``read_value`` always run the plan; the per-element
  kind-dispatch it was compiled from (``_write_value_slow`` /
  ``_read_value_slow``) stays as the oracle the parity tests reach
  through :class:`ReferenceOutputStream` / :class:`ReferenceInputStream`.
  Both plan tables are bounded (:data:`_MAX_CACHED_PLANS`): a peer can
  put any number of distinct typecodes on the wire.  Typecodes read off
  the wire come back as the module's own objects where they can — a
  singleton per parameterless kind, and the reserved structs/sequences
  ``infer_typecode`` produces — so decoding an ``any`` builds no
  typecode and its plan look-up hits on identity;
* **:class:`AnyEncodeMemo`** — callers that repeatedly encode the same
  logical value (the checkpoint path encodes the server state after
  every call, and most calls barely change it) get the previous bytes
  back after a structural equality check instead of a full re-encode.

Bytes off the wire are not trusted: element counts are checked against
what is left of the buffer (zero-width elements against a small cap),
the nesting of ``any`` values and of typecodes is capped, and whatever is
malformed raises :class:`~repro.errors.CdrError` (``MARSHAL`` at the ORB
boundary) — never ``IndexError``, ``ValueError`` or ``RecursionError``.
"""

from __future__ import annotations

import struct as _struct
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import CdrError
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    PARAMETERLESS_TYPECODES,
    TCKind,
    TypeCode,
    TC_ANY,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_LONGLONG,
    TC_NULL,
    TC_OCTETS,
    TC_STRING,
    sequence,
)

_PRIMITIVE_FORMATS: dict[TCKind, tuple[str, int]] = {
    TCKind.BOOLEAN: (">B", 1),
    TCKind.OCTET: (">B", 1),
    TCKind.SHORT: (">h", 2),
    TCKind.USHORT: (">H", 2),
    TCKind.LONG: (">i", 4),
    TCKind.ULONG: (">I", 4),
    TCKind.LONGLONG: (">q", 8),
    TCKind.ULONGLONG: (">Q", 8),
    TCKind.FLOAT: (">f", 4),
    TCKind.DOUBLE: (">d", 8),
}

_NUMPY_SEQ_DTYPES: dict[TCKind, str] = {
    TCKind.SHORT: ">i2",
    TCKind.USHORT: ">u2",
    TCKind.LONG: ">i4",
    TCKind.ULONG: ">u4",
    TCKind.LONGLONG: ">i8",
    TCKind.ULONGLONG: ">u8",
    TCKind.FLOAT: ">f4",
    TCKind.DOUBLE: ">f8",
}

_ZEROS = tuple(b"\x00" * n for n in range(8))


def _underrun(count: int, pos: int, have: int) -> CdrError:
    return CdrError(f"buffer underrun: need {count} bytes at {pos}, have {have}")


def _primitive_writer(kind: TCKind) -> Callable[["CdrOutputStream", Any], None]:
    """``write_<kind>``: align, pack, append — one frame per primitive."""
    fmt, size = _PRIMITIVE_FORMATS[kind]
    pack = _struct.Struct(fmt).pack
    mask = size - 1
    name = kind.name

    def write(self: "CdrOutputStream", value: Any) -> None:
        buffer = self._buffer
        pad = -len(buffer) & mask
        if pad:
            buffer += _ZEROS[pad]
        try:
            buffer += pack(value)
        except (_struct.error, TypeError) as exc:
            raise CdrError(f"cannot encode {value!r} as {name}: {exc}") from exc

    write.__name__ = f"write_{name.lower()}"
    write.__qualname__ = f"CdrOutputStream.{write.__name__}"
    return write


def _primitive_reader(kind: TCKind) -> Callable[["CdrInputStream"], Any]:
    """``read_<kind>``: align, bounds check, unpack — one frame per primitive."""
    fmt, size = _PRIMITIVE_FORMATS[kind]
    unpack_from = _struct.Struct(fmt).unpack_from
    mask = size - 1

    def read(self: "CdrInputStream") -> Any:
        data = self._data
        pos = self._pos
        pos += -pos & mask
        end = pos + size
        if end > len(data):
            self._pos = pos
            raise _underrun(size, pos, len(data))
        self._pos = end
        return unpack_from(data, pos)[0]

    read.__name__ = f"read_{kind.name.lower()}"
    read.__qualname__ = f"CdrInputStream.{read.__name__}"
    return read


#: the one coder per primitive kind: the streams' ``write_*``/``read_*``
#: methods, ``write_primitive``/``read_primitive`` and the plans all use it.
_WRITERS = {kind: _primitive_writer(kind) for kind in _PRIMITIVE_FORMATS}
_READERS = {kind: _primitive_reader(kind) for kind in _PRIMITIVE_FORMATS}

#: struct/enum/union classes registered by generated IDL code, keyed by
#: type name, so decoding can rebuild the user-visible Python objects.
_STRUCT_REGISTRY: dict[str, type] = {}
_ENUM_REGISTRY: dict[str, type] = {}
_UNION_REGISTRY: dict[str, type] = {}


def register_struct_class(name: str, cls: type) -> None:
    _STRUCT_REGISTRY[name] = cls


def register_enum_class(name: str, cls: type) -> None:
    _ENUM_REGISTRY[name] = cls


def register_union_class(name: str, cls: type) -> None:
    _UNION_REGISTRY[name] = cls


class GenericUnion:
    """Decoded union whose Python class is not registered locally."""

    def __init__(self, __tc_name__: str, discriminator, value) -> None:
        self.__tc_name__ = __tc_name__
        self.discriminator = discriminator
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GenericUnion)
            and self.__tc_name__ == other.__tc_name__
            and self.discriminator == other.discriminator
            and self.value == other.value
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.__tc_name__}(discriminator={self.discriminator!r}, "
            f"value={self.value!r})"
        )


class GenericStruct:
    """Decoded struct whose Python class is not registered locally."""

    def __init__(self, __tc_name__: str, **fields: Any) -> None:
        self.__tc_name__ = __tc_name__
        self.__dict__.update(fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GenericStruct) and self.__dict__ == other.__dict__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            f"{k}={v!r}" for k, v in self.__dict__.items() if k != "__tc_name__"
        )
        return f"{self.__tc_name__}({body})"


class CdrOutputStream:
    """An aligned big-endian output buffer, optionally starting out with
    ``initial`` bytes already written."""

    def __init__(self, initial: bytes = b"") -> None:
        self._buffer = bytearray(initial)
        #: how deep the ``any`` being written is nested
        self._any_depth = 0

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    # -- primitives --------------------------------------------------------

    def align(self, boundary: int) -> None:
        pad = (-len(self._buffer)) % boundary
        if pad:
            self._buffer.extend(b"\x00" * pad)

    def write_raw(self, data: bytes) -> None:
        self._buffer.extend(data)

    def write_primitive(self, kind: TCKind, value: Any) -> None:
        _WRITERS[kind](self, value)

    def write_boolean(self, value: bool) -> None:
        self._buffer.append(1 if value else 0)  # an octet: no alignment

    write_octet = _WRITERS[TCKind.OCTET]
    write_short = _WRITERS[TCKind.SHORT]
    write_ushort = _WRITERS[TCKind.USHORT]
    write_long = _WRITERS[TCKind.LONG]
    write_ulong = _WRITERS[TCKind.ULONG]
    write_longlong = _WRITERS[TCKind.LONGLONG]
    write_ulonglong = _WRITERS[TCKind.ULONGLONG]
    write_float = _WRITERS[TCKind.FLOAT]
    write_double = _WRITERS[TCKind.DOUBLE]

    def write_string(self, value: str) -> None:
        """CDR string: ulong byte length including NUL, bytes, NUL."""
        if not isinstance(value, str):
            raise CdrError(f"expected str, got {type(value).__name__}")
        data = value.encode("utf-8")
        self.write_ulong(len(data) + 1)
        buffer = self._buffer
        buffer += data
        buffer.append(0)

    def write_octets(self, value: bytes) -> None:
        if type(value) is not bytes:
            if not isinstance(value, (bytes, bytearray, memoryview)):
                raise CdrError(f"expected bytes, got {type(value).__name__}")
            value = bytes(value)
        self.write_ulong(len(value))
        self._buffer += value

    def write_ior(self, ior: IOR) -> None:
        if not isinstance(ior, IOR):
            raise CdrError(f"expected IOR, got {type(ior).__name__}")
        self.write_string(ior.type_id)
        self.write_string(ior.host)
        self.write_ulong(ior.port)
        self.write_octets(ior.object_key)
        self.write_ulong(ior.incarnation)

    # -- typed values -----------------------------------------------------------

    def write_value(self, tc: TypeCode, value: Any) -> None:
        encoder_plan(tc)(self, value)

    def _write_value_slow(self, tc: TypeCode, value: Any) -> None:
        kind = tc.kind
        if kind in (TCKind.NULL, TCKind.VOID):
            if value is not None:
                raise CdrError(f"{kind.name} carries no value, got {value!r}")
            return
        if kind is TCKind.BOOLEAN:
            self.write_boolean(bool(value))
            return
        if kind in _PRIMITIVE_FORMATS:
            if tc.is_integer:
                self._check_int(tc, value)
            self.write_primitive(kind, value)
            return
        if kind is TCKind.STRING:
            self.write_string(value)
            return
        if kind is TCKind.OCTETS:
            self.write_octets(value)
            return
        if kind is TCKind.SEQUENCE:
            self._write_sequence(tc, value)
            return
        if kind is TCKind.ARRAY:
            self._write_array(tc, value)
            return
        if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            self._write_struct(tc, value)
            return
        if kind is TCKind.ENUM:
            self._write_enum(tc, value)
            return
        if kind is TCKind.UNION:
            self._write_union(tc, value)
            return
        if kind is TCKind.OBJREF:
            self.write_ior(value)
            return
        if kind is TCKind.ANY:
            self.write_any(value)
            return
        raise CdrError(f"cannot encode TypeCode kind {kind.name}")

    def _check_int(self, tc: TypeCode, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise CdrError(f"expected integer for {tc!r}, got {value!r}")
        lo, hi = tc.integer_bounds()
        if not lo <= int(value) <= hi:
            raise CdrError(f"{value} out of range for {tc!r} [{lo}, {hi}]")

    def _write_sequence(self, tc: TypeCode, value: Any) -> None:
        assert tc.content is not None
        dtype = _NUMPY_SEQ_DTYPES.get(tc.content.kind)
        if dtype is not None:
            arr = np.asarray(value)
            if arr.ndim != 1:
                raise CdrError(
                    f"sequence<{tc.content!r}> expects a 1-D value, got shape {arr.shape}"
                )
            self.write_ulong(arr.shape[0])
            _, size = _PRIMITIVE_FORMATS[tc.content.kind]
            self.align(size)
            try:
                self._buffer.extend(arr.astype(dtype, copy=False).tobytes())
            except (TypeError, ValueError) as exc:
                raise CdrError(f"bad element in sequence: {exc}") from exc
            return
        items = list(value)
        self.write_ulong(len(items))
        for item in items:
            self.write_value(tc.content, item)

    def _write_array(self, tc: TypeCode, value: Any) -> None:
        assert tc.content is not None
        items = list(value)
        if len(items) != tc.length:
            raise CdrError(
                f"array of length {tc.length} got {len(items)} elements"
            )
        for item in items:
            self.write_value(tc.content, item)

    def _write_struct(self, tc: TypeCode, value: Any) -> None:
        for name, field_tc in tc.fields:
            if isinstance(value, dict):
                if name not in value:
                    raise CdrError(f"struct {tc.name} value missing field {name!r}")
                field_value = value[name]
            else:
                try:
                    field_value = getattr(value, name)
                except AttributeError:
                    raise CdrError(
                        f"struct {tc.name} value {value!r} missing field {name!r}"
                    ) from None
            self.write_value(field_tc, field_value)

    def _write_enum(self, tc: TypeCode, value: Any) -> None:
        if isinstance(value, str):
            try:
                index = tc.members.index(value)
            except ValueError:
                raise CdrError(f"{value!r} is not a member of enum {tc.name}") from None
        elif hasattr(value, "value") and isinstance(getattr(value, "value"), int):
            index = value.value
        elif isinstance(value, (int, np.integer)):
            index = int(value)
        else:
            raise CdrError(f"cannot encode {value!r} as enum {tc.name}")
        if not 0 <= index < len(tc.members):
            raise CdrError(f"enum {tc.name} index {index} out of range")
        self.write_ulong(index)

    def _write_union(self, tc: TypeCode, value: Any) -> None:
        try:
            discriminator = value.discriminator
            member = value.value
        except AttributeError:
            raise CdrError(
                f"union {tc.name} value needs .discriminator/.value, "
                f"got {value!r}"
            ) from None
        case_index = _union_case_index(tc, discriminator)
        if case_index is None:
            raise CdrError(
                f"discriminator {discriminator!r} matches no case of union "
                f"{tc.name} and there is no default"
            )
        assert tc.content is not None
        self.write_value(tc.content, discriminator)
        self.write_value(tc.fields[case_index][1], member)

    # -- any -------------------------------------------------------------------

    def write_typecode(self, tc: TypeCode) -> None:
        kind = tc.kind
        self._buffer.append(kind)  # an octet: no alignment
        if kind in PARAMETERLESS_TYPECODES:
            return
        if kind is TCKind.SEQUENCE:
            assert tc.content is not None
            self.write_typecode(tc.content)
        elif kind is TCKind.ARRAY:
            assert tc.content is not None
            self.write_typecode(tc.content)
            self.write_ulong(tc.length)
        elif kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            self.write_string(tc.name)
            self.write_ulong(len(tc.fields))
            for name, field_tc in tc.fields:
                self.write_string(name)
                self.write_typecode(field_tc)
        elif kind is TCKind.ENUM:
            self.write_string(tc.name)
            self.write_ulong(len(tc.members))
            for member in tc.members:
                self.write_string(member)
        elif kind is TCKind.OBJREF:
            self.write_string(tc.name)
        elif kind is TCKind.UNION:
            self.write_string(tc.name)
            assert tc.content is not None
            self.write_typecode(tc.content)
            self.write_long(tc.default_index)
            self.write_ulong(len(tc.fields))
            for (field_name, field_tc), label in zip(tc.fields, tc.labels):
                self.write_any(label)
                self.write_string(field_name)
                self.write_typecode(field_tc)

    def write_any(self, value: Any) -> None:
        depth = self._any_depth
        if depth >= _MAX_ANY_DEPTH:
            # what the decoder would refuse is refused here, before a
            # checkpoint that cannot be restored is stored
            raise _any_depth_error()
        self._any_depth = depth + 1
        try:
            tc, coerced = infer_typecode(value)
            self.write_typecode(tc)
            self.write_value(tc, coerced)
        finally:
            self._any_depth = depth


class CdrInputStream:
    """Aligned big-endian reader over a bytes buffer, from offset ``pos``
    (alignment counts from the start of the buffer)."""

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos
        #: how deep the ``any`` being read is nested (capped: hostile bytes
        #: must not be able to exhaust the Python stack)
        self._any_depth = 0

    def remaining(self) -> int:
        return len(self._data) - self._pos

    # -- primitives ---------------------------------------------------------

    def align(self, boundary: int) -> None:
        self._pos += (-self._pos) % boundary

    def read_raw(self, count: int) -> bytes:
        pos = self._pos
        end = pos + count
        if end > len(self._data):
            raise _underrun(count, pos, len(self._data))
        self._pos = end
        return self._data[pos:end]

    def read_primitive(self, kind: TCKind) -> Any:
        return _READERS[kind](self)

    def read_boolean(self) -> bool:
        data = self._data
        pos = self._pos
        if pos >= len(data):
            raise _underrun(1, pos, len(data))
        self._pos = pos + 1
        return data[pos] != 0

    read_octet = _READERS[TCKind.OCTET]
    read_short = _READERS[TCKind.SHORT]
    read_ushort = _READERS[TCKind.USHORT]
    read_long = _READERS[TCKind.LONG]
    read_ulong = _READERS[TCKind.ULONG]
    read_longlong = _READERS[TCKind.LONGLONG]
    read_ulonglong = _READERS[TCKind.ULONGLONG]
    read_float = _READERS[TCKind.FLOAT]
    read_double = _READERS[TCKind.DOUBLE]

    def read_string(self) -> str:
        length = self.read_ulong()
        if length == 0:
            raise CdrError("string length 0 is invalid (must include NUL)")
        data = self._data
        pos = self._pos
        end = pos + length
        if end > len(data):
            raise _underrun(length, pos, len(data))
        self._pos = end
        if data[end - 1] != 0:
            raise CdrError("string is not NUL-terminated")
        try:
            return str(data[pos : end - 1], "utf-8")
        except UnicodeDecodeError as exc:
            raise CdrError(f"string is not valid UTF-8: {exc}") from exc

    def read_octets(self) -> bytes:
        length = self.read_ulong()
        pos = self._pos
        end = pos + length
        if end > len(self._data):
            raise _underrun(length, pos, len(self._data))
        self._pos = end
        return self._data[pos:end]

    def read_ior(self) -> IOR:
        type_id = self.read_string()
        host = self.read_string()
        port = self.read_ulong()
        object_key = self.read_octets()
        incarnation = self.read_ulong()
        return IOR(type_id, host, port, object_key, incarnation)

    # -- typed values ------------------------------------------------------------

    def read_value(self, tc: TypeCode) -> Any:
        return decoder_plan(tc)(self)

    def _read_value_slow(self, tc: TypeCode) -> Any:
        kind = tc.kind
        if kind in (TCKind.NULL, TCKind.VOID):
            return None
        if kind is TCKind.BOOLEAN:
            return self.read_boolean()
        if kind in _PRIMITIVE_FORMATS:
            return self.read_primitive(kind)
        if kind is TCKind.STRING:
            return self.read_string()
        if kind is TCKind.OCTETS:
            return self.read_octets()
        if kind is TCKind.SEQUENCE:
            return self._read_sequence(tc)
        if kind is TCKind.ARRAY:
            assert tc.content is not None
            return [self.read_value(tc.content) for _ in range(tc.length)]
        if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            return self._read_struct(tc)
        if kind is TCKind.ENUM:
            return self._read_enum(tc)
        if kind is TCKind.UNION:
            return self._read_union(tc)
        if kind is TCKind.OBJREF:
            return self.read_ior()
        if kind is TCKind.ANY:
            return self.read_any()
        raise CdrError(f"cannot decode TypeCode kind {kind.name}")

    def _read_sequence(self, tc: TypeCode) -> Any:
        assert tc.content is not None
        length = self.read_ulong()
        dtype = _NUMPY_SEQ_DTYPES.get(tc.content.kind)
        if dtype is not None:
            _, size = _PRIMITIVE_FORMATS[tc.content.kind]
            self.align(size)
            raw = self.read_raw(length * size)
            # Native byte order for downstream numerics.
            return np.frombuffer(raw, dtype=dtype).astype(dtype[1:], copy=True)
        _count_checker(tc.content)(self, length)
        return [self.read_value(tc.content) for _ in range(length)]

    def _read_struct(self, tc: TypeCode) -> Any:
        fields = {name: self.read_value(ftc) for name, ftc in tc.fields}
        cls = _STRUCT_REGISTRY.get(tc.name)
        if cls is not None:
            return cls(**fields)
        return GenericStruct(tc.name, **fields)

    def _read_enum(self, tc: TypeCode) -> Any:
        index = self.read_ulong()
        if not 0 <= index < len(tc.members):
            raise CdrError(f"enum {tc.name} index {index} out of range")
        cls = _ENUM_REGISTRY.get(tc.name)
        if cls is not None:
            return cls(index)
        return tc.members[index]

    def _read_union(self, tc: TypeCode) -> Any:
        assert tc.content is not None
        discriminator = self.read_value(tc.content)
        case_index = _union_case_index(tc, discriminator)
        if case_index is None:
            raise CdrError(
                f"wire discriminator {discriminator!r} matches no case of "
                f"union {tc.name}"
            )
        value = self.read_value(tc.fields[case_index][1])
        cls = _UNION_REGISTRY.get(tc.name)
        if cls is not None:
            return cls(discriminator, value)
        return GenericUnion(tc.name, discriminator, value)

    # -- any ----------------------------------------------------------------------

    def read_typecode(self, depth: int = 0) -> TypeCode:
        data = self._data
        pos = self._pos
        if pos >= len(data):
            self.read_raw(1)  # raises the canonical underrun error
        byte = data[pos]
        self._pos = pos + 1
        simple = PARAMETERLESS_TYPECODES.get(byte)
        if simple is not None:
            return simple
        try:
            kind = TCKind(byte)
        except ValueError as exc:
            raise CdrError(f"unknown TypeCode kind byte: {exc}") from exc
        if depth >= _MAX_TYPECODE_DEPTH:
            raise CdrError(
                f"TypeCode nested deeper than {_MAX_TYPECODE_DEPTH} levels"
            )
        return self._read_parameterized_typecode(kind, depth + 1)

    def _read_parameterized_typecode(self, kind: TCKind, depth: int) -> TypeCode:
        if kind is TCKind.SEQUENCE:
            content = self.read_typecode(depth)
            return _INFERRED_SEQUENCES.get(content) or TypeCode(
                kind, content=content
            )
        if kind is TCKind.ARRAY:
            content = self.read_typecode(depth)
            length = self.read_ulong()
            if not _min_encoded_size(content):
                # Elements with bytes run into the end of the buffer;
                # elements without are bounded here, where the length
                # comes off the wire.
                _count_checker(content)(self, length)
            return TypeCode(kind, content=content, length=length)
        if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            name = self.read_string()
            count = self.read_ulong()
            fields = tuple(
                (self.read_string(), self.read_typecode(depth))
                for _ in range(count)
            )
            reserved = _RESERVED_STRUCTS.get(name)
            if (
                reserved is not None
                and reserved.kind is kind
                and reserved.fields == fields
            ):
                return reserved
            return TypeCode(kind, name=name, fields=fields)
        if kind is TCKind.ENUM:
            name = self.read_string()
            count = self.read_ulong()
            members = tuple(self.read_string() for _ in range(count))
            return TypeCode(kind, name=name, members=members)
        if kind is TCKind.OBJREF:
            return TypeCode(kind, name=self.read_string())
        # UNION is the only kind left.
        name = self.read_string()
        discriminator = self.read_typecode(depth)
        default_index = self.read_long()
        count = self.read_ulong()
        labels = []
        fields = []
        for _ in range(count):
            labels.append(self.read_any())
            field_name = self.read_string()
            fields.append((field_name, self.read_typecode(depth)))
        return TypeCode(
            kind,
            name=name,
            content=discriminator,
            fields=tuple(fields),
            labels=tuple(labels),
            default_index=default_index,
        )

    def read_any(self) -> Any:
        depth = self._any_depth
        if depth >= _MAX_ANY_DEPTH:
            raise _any_depth_error()
        self._any_depth = depth + 1
        try:
            tc = self.read_typecode()
            return _postprocess_any(tc, self.read_value(tc))
        finally:
            self._any_depth = depth


class ReferenceOutputStream(CdrOutputStream):
    """The per-element reference encoder: ``write_value`` *is* the
    uncompiled kind-dispatch, so nested values, sequence elements and
    ``any`` payloads recurse through it too and no plan or lane ever runs.
    Parity tests compare its bytes with :class:`CdrOutputStream`'s."""

    write_value = CdrOutputStream._write_value_slow


class ReferenceInputStream(CdrInputStream):
    """The per-element reference decoder (see :class:`ReferenceOutputStream`)."""

    read_value = CdrInputStream._read_value_slow


def _union_case_index(tc: TypeCode, discriminator: Any) -> Optional[int]:
    """The case index a discriminator selects (explicit label before the
    default branch), or None."""
    for index, label in enumerate(tc.labels):
        if index == tc.default_index:
            continue
        if label == discriminator:
            return index
    if tc.default_index >= 0:
        return tc.default_index
    return None


# -- dynamic typing for any -------------------------------------------------------

_NDARRAY_TC = TypeCode(
    TCKind.STRUCT,
    name="__ndarray__",
    fields=(
        ("shape", sequence(TypeCode(TCKind.ULONGLONG))),
        ("data", sequence(TC_DOUBLE)),
    ),
)

_DICT_ITEM_TC = TypeCode(
    TCKind.STRUCT,
    name="__dict_item__",
    fields=(("key", TC_ANY), ("value", TC_ANY)),
)

_DICT_TC = TypeCode(
    TCKind.STRUCT,
    name="__dict__",
    fields=(("items", sequence(_DICT_ITEM_TC)),),
)

_ANY_SEQ_TC = sequence(TC_ANY)

# Everything infer_typecode can put on the wire is one of the objects
# above; read_typecode hands the same objects back (content -> sequence,
# name -> struct) instead of building equal ones, so the plan look-up that
# follows hits on identity.
_INFERRED_SEQUENCES: dict[TypeCode, TypeCode] = {
    seq.content: seq
    for seq in (
        _ANY_SEQ_TC,
        _NDARRAY_TC.fields[0][1],
        _NDARRAY_TC.fields[1][1],
        _DICT_TC.fields[0][1],
    )
}
_RESERVED_STRUCTS: dict[str, TypeCode] = {
    tc.name: tc for tc in (_NDARRAY_TC, _DICT_ITEM_TC, _DICT_TC)
}

#: Deepest nesting of ``any`` values (written or read) and of a TypeCode
#: read off the wire.  A level of dict costs 9 Python frames to decode and
#: a level of typecode 3, so together they stay inside the default
#: recursion limit.
_MAX_ANY_DEPTH = 64
_MAX_TYPECODE_DEPTH = 32
#: Most decode steps accepted for a sequence/array whose elements occupy
#: no bytes (NULL/VOID content): nothing in the buffer bounds such a count.
_MAX_ZERO_WIDTH_STEPS = 1024


def _any_depth_error() -> CdrError:
    return CdrError(f"any nested deeper than {_MAX_ANY_DEPTH} levels")


def _min_encoded_size(tc: TypeCode) -> int:
    """Fewest bytes one encoded value of ``tc`` occupies (padding aside)."""
    kind = tc.kind
    primitive = _PRIMITIVE_FORMATS.get(kind)
    if primitive is not None:
        return primitive[1]
    if kind is TCKind.ANY:
        return 1  # the kind byte of a NULL
    if kind in (TCKind.OCTETS, TCKind.SEQUENCE, TCKind.ENUM):
        return 4
    if kind is TCKind.STRING:
        return 5  # length + NUL
    if kind is TCKind.OBJREF:
        return 22  # two strings, port, key length, incarnation
    if kind is TCKind.ARRAY:
        assert tc.content is not None
        return tc.length * _min_encoded_size(tc.content)
    if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        return sum(_min_encoded_size(field_tc) for _, field_tc in tc.fields)
    if kind is TCKind.UNION:
        assert tc.content is not None
        return _min_encoded_size(tc.content)
    return 0  # NULL, VOID


def _zero_width_steps(tc: TypeCode) -> int:
    """Decode steps one value of a zero-width ``tc`` costs: arrays
    multiply, so nesting must not get round the cap."""
    if tc.kind is TCKind.ARRAY:
        assert tc.content is not None
        return tc.length * _zero_width_steps(tc.content)
    return 1 + sum(_zero_width_steps(field_tc) for _, field_tc in tc.fields)


def _count_checker(content: TypeCode) -> Callable[["CdrInputStream", int], None]:
    """A check for an element count read off the wire: the elements must
    fit in what is left of the buffer, or — when they occupy no bytes —
    stay under :data:`_MAX_ZERO_WIDTH_STEPS`."""
    width = _min_encoded_size(content)
    if width:

        def check_fits(stream, count):
            if count * width > len(stream._data) - stream._pos:
                raise CdrError(
                    f"buffer underrun: {count} elements of at least {width} "
                    f"bytes at {stream._pos}, have {len(stream._data)}"
                )

        return check_fits
    limit = _MAX_ZERO_WIDTH_STEPS // _zero_width_steps(content)

    def check_zero_width(stream, count):
        if count > limit:
            raise CdrError(
                f"{count} zero-width elements of {content!r} (limit {limit})"
            )

    return check_zero_width


def infer_typecode(value: Any) -> tuple[TypeCode, Any]:
    """Choose a TypeCode for an arbitrary Python value.

    Returns ``(typecode, coerced_value)`` — e.g. an int-dtype ndarray is
    coerced to ``sequence<longlong>`` element values.
    """
    if value is None:
        return TC_NULL, None
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return TC_BOOLEAN, bool(value)
    if isinstance(value, (int, np.integer)):
        return TC_LONGLONG, int(value)
    if isinstance(value, (float, np.floating)):
        return TC_DOUBLE, float(value)
    if isinstance(value, str):
        return TC_STRING, value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return TC_OCTETS, bytes(value)
    if isinstance(value, IOR):
        return TypeCode(TCKind.OBJREF, name=value.type_id), value
    if isinstance(value, np.ndarray):
        flat = np.ascontiguousarray(value, dtype=np.float64).reshape(-1)
        return _NDARRAY_TC, {"shape": list(value.shape), "data": flat}
    if isinstance(value, dict):
        items = [{"key": k, "value": v} for k, v in value.items()]
        return _DICT_TC, {"items": items}
    if isinstance(value, (list, tuple)):
        return _ANY_SEQ_TC, list(value)
    raise CdrError(
        f"cannot infer a TypeCode for {type(value).__name__}; "
        "supported: None, bool, int, float, str, bytes, IOR, ndarray, "
        "dict, list, tuple"
    )


def _postprocess_any(tc: TypeCode, value: Any) -> Any:
    """Rebuild native Python objects for the reserved struct encodings."""
    name = tc.name
    if not name:
        return value
    try:
        if name == "__ndarray__":
            shape = tuple(int(s) for s in np.asarray(value.shape).reshape(-1))
            return np.asarray(value.data, dtype=np.float64).reshape(shape)
        if name == "__dict__":
            return {item.key: item.value for item in value.items}
    except (AttributeError, TypeError, ValueError) as exc:
        # a wire typecode that borrows a reserved name with other fields,
        # a shape that disagrees with the data, an unhashable key
        raise CdrError(f"malformed {name} value: {exc}") from exc
    return value


def encode_any(value: Any) -> bytes:
    """Encode an arbitrary value self-describingly (used by the checkpoint
    storage service to hold "arbitrary values")."""
    stream = CdrOutputStream()
    stream.write_any(value)
    return stream.getvalue()


def decode_any(data: bytes) -> Any:
    stream = CdrInputStream(data)
    value = stream.read_any()
    if stream.remaining():
        raise CdrError(f"{stream.remaining()} trailing bytes after any value")
    return value


# -- encoder/decoder plan cache ---------------------------------------------------
#
# A plan is the kind-dispatch over one TypeCode tree compiled into nested
# closures: sub-typecode plans are resolved once at compile time, so writing
# a struct of sequences touches no dispatch table per element.  TypeCode is
# a frozen dataclass, hence hashable, hence a cache key.

#: Most plans either table holds.  ``read_any`` compiles a plan for every
#: typecode a peer sends, so without a bound hostile input grows the table
#: for the life of the process; a full table is emptied and refilled on
#: demand (a plan is a pure function of its typecode, so only host time
#: changes).  The four ``benchmarks/e2e`` workloads together hold 17.
_MAX_CACHED_PLANS = 1024
_ENCODER_PLANS: dict[TypeCode, Callable] = {}
_DECODER_PLANS: dict[TypeCode, Callable] = {}
_PLAN_STATS = {
    "encoder_plans_compiled": 0,
    "decoder_plans_compiled": 0,
    "encoder_plan_hits": 0,
    "decoder_plan_hits": 0,
    "any_memo_hits": 0,
    "any_memo_misses": 0,
}


def clear_plan_cache() -> None:
    """Drop every compiled plan and zero the statistics."""
    _ENCODER_PLANS.clear()
    _DECODER_PLANS.clear()
    for key in _PLAN_STATS:
        _PLAN_STATS[key] = 0


def plan_cache_stats() -> dict:
    """A snapshot of plan-cache and any-memo counters."""
    return dict(_PLAN_STATS)


def encoder_plan(tc: TypeCode) -> Callable[[CdrOutputStream, Any], None]:
    plan = _ENCODER_PLANS.get(tc)
    if plan is None:
        plan = _compile_encoder(tc)
        if len(_ENCODER_PLANS) >= _MAX_CACHED_PLANS:
            _ENCODER_PLANS.clear()
        _ENCODER_PLANS[tc] = plan
        _PLAN_STATS["encoder_plans_compiled"] += 1
    else:
        _PLAN_STATS["encoder_plan_hits"] += 1
    return plan


def decoder_plan(tc: TypeCode) -> Callable[[CdrInputStream], Any]:
    plan = _DECODER_PLANS.get(tc)
    if plan is None:
        plan = _compile_decoder(tc)
        if len(_DECODER_PLANS) >= _MAX_CACHED_PLANS:
            _DECODER_PLANS.clear()
        _DECODER_PLANS[tc] = plan
        _PLAN_STATS["decoder_plans_compiled"] += 1
    else:
        _PLAN_STATS["decoder_plan_hits"] += 1
    return plan


# -- homogeneous runs in sequence<any> -----------------------------------------------
#
# An ``any`` holding a double is a kind octet, padding to 8 and the eight
# value bytes.  The first element of a ``sequence<any>`` leaves the stream
# 8-aligned, so from the second element on every double (or longlong) is
# the same fixed 16-byte record: kind, 7 zero bytes, big-endian value.  A
# list that is all ``float`` or all ``int`` is therefore written, and read
# back, as one NumPy structured array — the bytes are those the
# per-element loop produces, in time proportional to their number.


def _any_run_record(value_dtype: str) -> np.dtype:
    return np.dtype([("kind", "u1"), ("pad", "V7"), ("value", value_dtype)])


#: exact Python type -> (kind octet, record layout, native dtype).  Exact
#: types only: ``bool`` is an ``int`` and ``np.float64`` a ``float`` to
#: ``isinstance``, and both take another road through ``infer_typecode``.
_ANY_RUN_BY_TYPE: dict[type, tuple[int, np.dtype, type]] = {
    float: (int(TCKind.DOUBLE), _any_run_record(">f8"), np.float64),
    int: (int(TCKind.LONGLONG), _any_run_record(">i8"), np.int64),
}
_ANY_RUN_BY_KIND: dict[int, np.dtype] = {
    kind: record for kind, record, _ in _ANY_RUN_BY_TYPE.values()
}
#: Shortest list the lanes take; below it the per-element loop is as fast
#: (measured crossover, see EXPERIMENTS.md "Bulk any marshal").
_ANY_RUN_MIN = 5


_check_any_count = _count_checker(TC_ANY)


def _write_any_seq(stream: CdrOutputStream, value: Any) -> None:
    items = list(value)
    count = len(items)
    stream.write_ulong(count)
    if count >= _ANY_RUN_MIN:
        lane = _ANY_RUN_BY_TYPE.get(type(items[0]))
        if lane is not None and len(set(map(type, items))) == 1:
            kind, record, native = lane
            try:
                values = np.array(items, dtype=native)
            except OverflowError:
                # an int beyond longlong: the loop below raises the
                # canonical error at the element that has it
                pass
            else:
                stream.write_any(items[0])  # leaves the stream 8-aligned
                run = np.zeros(count - 1, dtype=record)
                run["kind"] = kind
                run["value"] = values[1:]
                stream._buffer += run.tobytes()
                return
    for item in items:
        stream.write_any(item)


def _read_any_seq(stream: CdrInputStream) -> list:
    count = stream.read_ulong()
    _check_any_count(stream, count)  # so there is a kind octet to look at
    if count >= _ANY_RUN_MIN:
        data = stream._data
        kind = data[stream._pos]
        record = _ANY_RUN_BY_KIND.get(kind)
        if record is not None:
            first = stream.read_any()  # leaves the stream 8-aligned
            start = stream._pos
            end = start + (count - 1) * record.itemsize
            if end <= len(data):
                run = np.frombuffer(data, dtype=record, count=count - 1, offset=start)
                if (run["kind"] == kind).all():
                    stream._pos = end
                    values = run["value"].tolist()
                    values.insert(0, first)
                    return values
            rest = [stream.read_any() for _ in range(count - 1)]
            rest.insert(0, first)
            return rest
    return [stream.read_any() for _ in range(count)]


def _compile_encoder(tc: TypeCode) -> Callable[[CdrOutputStream, Any], None]:
    kind = tc.kind
    if kind in (TCKind.NULL, TCKind.VOID):

        def write_null(stream, value, _kind=kind):
            if value is not None:
                raise CdrError(f"{_kind.name} carries no value, got {value!r}")

        return write_null
    if kind is TCKind.BOOLEAN:
        return CdrOutputStream.write_boolean
    if kind in _PRIMITIVE_FORMATS:
        write = _WRITERS[kind]
        if not tc.is_integer:
            return write
        lo, hi = tc.integer_bounds()

        def write_int(stream, value, _tc=tc, _write=write, _lo=lo, _hi=hi):
            if type(value) is not int or not _lo <= value <= _hi:
                # raises the canonical error, or lets a numpy integer by
                stream._check_int(_tc, value)
            _write(stream, value)

        return write_int
    if kind is TCKind.STRING:
        return CdrOutputStream.write_string
    if kind is TCKind.OCTETS:
        return CdrOutputStream.write_octets
    if kind is TCKind.SEQUENCE:
        assert tc.content is not None
        content = tc.content
        dtype = _NUMPY_SEQ_DTYPES.get(content.kind)
        if dtype is not None:
            _, size = _PRIMITIVE_FORMATS[content.kind]

            def write_numeric_seq(
                stream, value, _content=content, _dtype=dtype, _size=size
            ):
                arr = np.asarray(value)
                if arr.ndim != 1:
                    raise CdrError(
                        f"sequence<{_content!r}> expects a 1-D value, "
                        f"got shape {arr.shape}"
                    )
                stream.write_ulong(arr.shape[0])
                stream.align(_size)
                try:
                    stream._buffer.extend(arr.astype(_dtype, copy=False).tobytes())
                except (TypeError, ValueError) as exc:
                    raise CdrError(f"bad element in sequence: {exc}") from exc

            return write_numeric_seq
        if content.kind is TCKind.ANY:
            return _write_any_seq
        item_plan = encoder_plan(content)

        def write_seq(stream, value, _item_plan=item_plan):
            items = list(value)
            stream.write_ulong(len(items))
            for item in items:
                _item_plan(stream, item)

        return write_seq
    if kind is TCKind.ARRAY:
        assert tc.content is not None
        item_plan = encoder_plan(tc.content)

        def write_array(stream, value, _item_plan=item_plan, _length=tc.length):
            items = list(value)
            if len(items) != _length:
                raise CdrError(
                    f"array of length {_length} got {len(items)} elements"
                )
            for item in items:
                _item_plan(stream, item)

        return write_array
    if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        field_plans = tuple(
            (name, encoder_plan(field_tc)) for name, field_tc in tc.fields
        )

        def write_struct(stream, value, _plans=field_plans, _name=tc.name):
            if isinstance(value, dict):
                for field_name, field_plan in _plans:
                    if field_name not in value:
                        raise CdrError(
                            f"struct {_name} value missing field {field_name!r}"
                        )
                    field_plan(stream, value[field_name])
                return
            for field_name, field_plan in _plans:
                try:
                    field_value = getattr(value, field_name)
                except AttributeError:
                    raise CdrError(
                        f"struct {_name} value {value!r} missing field "
                        f"{field_name!r}"
                    ) from None
                field_plan(stream, field_value)

        return write_struct
    if kind is TCKind.ENUM:
        return lambda stream, value, _tc=tc: stream._write_enum(_tc, value)
    if kind is TCKind.UNION:
        # Case selection depends on the runtime discriminator; the member
        # write below re-enters write_value and hits the member's plan.
        return lambda stream, value, _tc=tc: stream._write_union(_tc, value)
    if kind is TCKind.OBJREF:
        return CdrOutputStream.write_ior
    if kind is TCKind.ANY:
        return CdrOutputStream.write_any

    def write_unsupported(stream, value, _kind=kind):
        raise CdrError(f"cannot encode TypeCode kind {_kind.name}")

    return write_unsupported


def _compile_decoder(tc: TypeCode) -> Callable[[CdrInputStream], Any]:
    kind = tc.kind
    if kind in (TCKind.NULL, TCKind.VOID):
        return lambda stream: None
    if kind is TCKind.BOOLEAN:
        return CdrInputStream.read_boolean
    if kind in _PRIMITIVE_FORMATS:
        return _READERS[kind]
    if kind is TCKind.STRING:
        return CdrInputStream.read_string
    if kind is TCKind.OCTETS:
        return CdrInputStream.read_octets
    if kind is TCKind.SEQUENCE:
        assert tc.content is not None
        content = tc.content
        dtype = _NUMPY_SEQ_DTYPES.get(content.kind)
        if dtype is not None:
            _, size = _PRIMITIVE_FORMATS[content.kind]

            def read_numeric_seq(stream, _dtype=dtype, _size=size):
                length = stream.read_ulong()
                stream.align(_size)
                raw = stream.read_raw(length * _size)
                return np.frombuffer(raw, dtype=_dtype).astype(
                    _dtype[1:], copy=True
                )

            return read_numeric_seq
        if content.kind is TCKind.ANY:
            return _read_any_seq
        item_plan = decoder_plan(content)
        check_count = _count_checker(content)

        def read_seq(stream, _item_plan=item_plan, _check_count=check_count):
            count = stream.read_ulong()
            _check_count(stream, count)
            return [_item_plan(stream) for _ in range(count)]

        return read_seq
    if kind is TCKind.ARRAY:
        assert tc.content is not None
        item_plan = decoder_plan(tc.content)

        def read_array(stream, _item_plan=item_plan, _length=tc.length):
            return [_item_plan(stream) for _ in range(_length)]

        return read_array
    if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
        field_plans = tuple(
            (name, decoder_plan(field_tc)) for name, field_tc in tc.fields
        )

        def read_struct(stream, _plans=field_plans, _name=tc.name):
            fields = {name: plan(stream) for name, plan in _plans}
            # Class lookup stays at decode time: registration may happen
            # after the plan was compiled.
            cls = _STRUCT_REGISTRY.get(_name)
            if cls is not None:
                return cls(**fields)
            return GenericStruct(_name, **fields)

        return read_struct
    if kind is TCKind.ENUM:
        return lambda stream, _tc=tc: stream._read_enum(_tc)
    if kind is TCKind.UNION:
        return lambda stream, _tc=tc: stream._read_union(_tc)
    if kind is TCKind.OBJREF:
        return CdrInputStream.read_ior
    if kind is TCKind.ANY:
        return CdrInputStream.read_any

    def read_unsupported(stream, _kind=kind):
        raise CdrError(f"cannot decode TypeCode kind {_kind.name}")

    return read_unsupported


# -- unchanged-payload fast path ---------------------------------------------------


def values_equal(a: Any, b: Any) -> bool:
    """Structural equality over the value domain ``any`` can carry.

    ndarray-aware (``==`` on arrays yields an array, so plain comparison
    is unusable), recursive over dicts and sequences; list/tuple compare
    equal element-wise because the wire format does not distinguish them.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if isinstance(a, dict):
        if not isinstance(b, dict) or len(a) != len(b):
            return False
        for key, value in a.items():
            if key not in b or not values_equal(value, b[key]):
                return False
        return True
    if isinstance(a, (list, tuple)):
        if not isinstance(b, (list, tuple)) or len(a) != len(b):
            return False
        return all(values_equal(x, y) for x, y in zip(a, b))
    try:
        return bool(a == b)
    # analysis: ignore[EXC002]: exotic __eq__ is treated as unequal — forces a full store, which is always safe
    except Exception:  # noqa: BLE001 - exotic __eq__, treat as unequal
        return False


class AnyEncodeMemo:
    """Memoized :func:`encode_any` for a caller that repeatedly encodes
    the same logical value — the checkpoint path, where consecutive
    server states are often identical or nearly so.

    Holds the last ``(value, bytes)`` pair; a structural-equality hit
    returns the previous bytes without re-walking the value.  The caller
    must not mutate a value after encoding it (checkpoint states are
    fresh objects decoded off the wire, so the proxy path is safe).
    """

    def __init__(self) -> None:
        self._value: Any = None
        self._data: Optional[bytes] = None
        self.hits = 0
        self.misses = 0

    def encode(self, value: Any) -> bytes:
        if self._data is not None and values_equal(self._value, value):
            self.hits += 1
            _PLAN_STATS["any_memo_hits"] += 1
            return self._data
        self.misses += 1
        _PLAN_STATS["any_memo_misses"] += 1
        self._value = value
        self._data = encode_any(value)
        return self._data
