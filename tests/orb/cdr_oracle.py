"""The per-element CDR reference streams: what the compiled plans and the
``any`` lanes of :mod:`repro.orb.cdr` are held to.

``CdrOutputStream.write_value`` / ``CdrInputStream.read_value`` run a plan
compiled once per typecode, and ``write_any`` / ``read_any`` take a lane
per value.  This is the form they replace — a kind-dispatch walked for
every value, and an ``any`` with no lanes, so nested values, sequence
elements and ``any`` payloads recurse through the generic path
(``infer_typecode`` → ``write_typecode`` → kind-dispatch) and no plan,
lane or image splice ever runs — kept here, outside the product code, so
``tests/orb/test_cdr_plan_cache.py``, ``tests/orb/test_cdr_any_lanes.py``
and ``tests/orb/test_cdr.py`` can compare bytes and values with it.  The
enum arms are the product's own (the plans call them), so both sides
share them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import CdrError
from repro.orb.cdr import (
    _NUMPY_SEQ_DTYPES,
    _PRIMITIVE_FORMATS,
    _READERS,
    _STRUCT_REGISTRY,
    _WRITERS,
    CdrInputStream,
    CdrOutputStream,
    GenericStruct,
    _count_checker,
)
from repro.orb.typecodes import TCKind, TypeCode


class ReferenceOutputStream(CdrOutputStream):
    """The per-element reference encoder.  Parity tests compare its bytes
    with :class:`~repro.orb.cdr.CdrOutputStream`'s."""

    def write_primitive(self, kind: TCKind, value: Any) -> None:
        _WRITERS[kind](self, value)

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
        if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            self._write_struct(tc, value)
            return
        if kind is TCKind.ENUM:
            self._write_enum(tc, value)
            return
        if kind is TCKind.OBJREF:
            self.write_ior(value)
            return
        if kind is TCKind.ANY:
            self.write_any(value)
            return
        raise CdrError(f"cannot encode TypeCode kind {kind.name}")

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

    write_value = _write_value_slow
    _any_lanes: dict = {}


class ReferenceInputStream(CdrInputStream):
    """The per-element reference decoder (see :class:`ReferenceOutputStream`)."""

    def read_primitive(self, kind: TCKind) -> Any:
        return _READERS[kind](self)

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
        if kind in (TCKind.STRUCT, TCKind.EXCEPTION):
            return self._read_struct(tc)
        if kind is TCKind.ENUM:
            return self._read_enum(tc)
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

    read_value = _read_value_slow
    _any_lanes: dict = {}
