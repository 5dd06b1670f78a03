"""TypeCodes: runtime descriptions of IDL types.

A :class:`TypeCode` tells the CDR streams how to marshal a value.  The IDL
compiler maps every declared type to a TypeCode; the ``any`` type carries
its TypeCode on the wire (self-describing values), which is what the
checkpoint storage service uses to hold "arbitrary values" as the paper's
proof-of-concept service does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import CdrError


class TCKind(enum.IntEnum):
    """TypeCode kinds (numbering local to this ORB)."""

    NULL = 0
    VOID = 1
    BOOLEAN = 2
    OCTET = 3
    SHORT = 4
    USHORT = 5
    LONG = 6
    ULONG = 7
    LONGLONG = 8
    ULONGLONG = 9
    FLOAT = 10
    DOUBLE = 11
    STRING = 12
    SEQUENCE = 13
    ARRAY = 14
    STRUCT = 15
    ENUM = 16
    EXCEPTION = 17
    ANY = 18
    OBJREF = 19
    OCTETS = 20  # sequence<octet> fast path (bytes)
    UNION = 21


_INTEGER_BOUNDS = {
    TCKind.OCTET: (0, 2**8 - 1),
    TCKind.SHORT: (-(2**15), 2**15 - 1),
    TCKind.USHORT: (0, 2**16 - 1),
    TCKind.LONG: (-(2**31), 2**31 - 1),
    TCKind.ULONG: (0, 2**32 - 1),
    TCKind.LONGLONG: (-(2**63), 2**63 - 1),
    TCKind.ULONGLONG: (0, 2**64 - 1),
}


@dataclass(frozen=True)
class TypeCode:
    """Immutable type descriptor.

    ``name``/``fields``/``members`` are populated per kind:

    * SEQUENCE/ARRAY: ``content`` (element TypeCode), ARRAY also ``length``;
    * STRUCT/EXCEPTION: ``name`` (repository id suffix) and ``fields`` as
      ``(field_name, TypeCode)`` pairs;
    * ENUM: ``name`` and ``members`` (value names in declaration order);
    * OBJREF: ``name`` holds the expected repository id ("" = any object).

    TypeCodes key the marshal plan caches, so the hash is computed once at
    construction (children contribute their stored hash, so a tree hashes
    in O(nodes) when built and O(1) per look-up afterwards).
    """

    kind: TCKind
    name: str = ""
    content: Optional["TypeCode"] = None
    length: int = 0
    fields: Tuple[Tuple[str, "TypeCode"], ...] = ()
    members: Tuple[str, ...] = ()
    #: UNION only: one case-label value per entry in ``fields``; the entry
    #: at ``default_index`` (if >= 0) is the default branch.
    labels: Tuple = ()
    default_index: int = -1

    def __post_init__(self) -> None:
        if self.kind in (TCKind.SEQUENCE, TCKind.ARRAY) and self.content is None:
            raise CdrError(f"{self.kind.name} TypeCode requires a content type")
        if self.kind is TCKind.ARRAY and self.length <= 0:
            raise CdrError("ARRAY TypeCode requires a positive length")
        if self.kind in (TCKind.STRUCT, TCKind.EXCEPTION, TCKind.UNION) and not self.name:
            raise CdrError(f"{self.kind.name} TypeCode requires a name")
        if self.kind is TCKind.ENUM and not self.members:
            raise CdrError("ENUM TypeCode requires members")
        if self.kind is TCKind.UNION:
            if self.content is None:
                raise CdrError("UNION TypeCode requires a discriminator type")
            if len(self.labels) != len(self.fields):
                raise CdrError("UNION needs one label per case")
            if not -1 <= self.default_index < len(self.fields):
                raise CdrError("UNION default_index out of range")
        try:
            digest = hash(
                (
                    self.kind,
                    self.name,
                    self.content,
                    self.length,
                    self.fields,
                    self.members,
                    self.labels,
                    self.default_index,
                )
            )
        except TypeError as exc:
            raise CdrError(f"{self.kind.name} TypeCode is not hashable: {exc}") from exc
        object.__setattr__(self, "_hash", digest)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    # convenient predicates -------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.kind in _INTEGER_BOUNDS

    def integer_bounds(self) -> tuple[int, int]:
        return _INTEGER_BOUNDS[self.kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is TCKind.SEQUENCE:
            return f"sequence<{self.content!r}>"
        if self.kind is TCKind.ARRAY:
            return f"{self.content!r}[{self.length}]"
        if self.kind in (TCKind.STRUCT, TCKind.EXCEPTION, TCKind.ENUM, TCKind.UNION):
            return f"{self.kind.name.lower()} {self.name}"
        if self.kind is TCKind.OBJREF:
            return f"Object<{self.name or '*'}>"
        return self.kind.name.lower()


# -- singletons ---------------------------------------------------------------

TC_NULL = TypeCode(TCKind.NULL)
TC_VOID = TypeCode(TCKind.VOID)
TC_BOOLEAN = TypeCode(TCKind.BOOLEAN)
TC_OCTET = TypeCode(TCKind.OCTET)
TC_SHORT = TypeCode(TCKind.SHORT)
TC_USHORT = TypeCode(TCKind.USHORT)
TC_LONG = TypeCode(TCKind.LONG)
TC_ULONG = TypeCode(TCKind.ULONG)
TC_LONGLONG = TypeCode(TCKind.LONGLONG)
TC_ULONGLONG = TypeCode(TCKind.ULONGLONG)
TC_FLOAT = TypeCode(TCKind.FLOAT)
TC_DOUBLE = TypeCode(TCKind.DOUBLE)
TC_STRING = TypeCode(TCKind.STRING)
TC_ANY = TypeCode(TCKind.ANY)
TC_OBJREF = TypeCode(TCKind.OBJREF)
TC_OCTETS = TypeCode(TCKind.OCTETS)

#: kind byte -> the singleton of every kind that carries no parameters on
#: the wire; decoding one of these constructs nothing.
PARAMETERLESS_TYPECODES: dict[int, TypeCode] = {
    int(_tc.kind): _tc
    for _tc in (
        TC_NULL,
        TC_VOID,
        TC_BOOLEAN,
        TC_OCTET,
        TC_SHORT,
        TC_USHORT,
        TC_LONG,
        TC_ULONG,
        TC_LONGLONG,
        TC_ULONGLONG,
        TC_FLOAT,
        TC_DOUBLE,
        TC_STRING,
        TC_ANY,
        TC_OCTETS,
    )
}


# -- constructors ---------------------------------------------------------------


def sequence(content: TypeCode) -> TypeCode:
    """``sequence<content>`` — unbounded."""
    if content.kind is TCKind.OCTET:
        return TC_OCTETS
    return TypeCode(TCKind.SEQUENCE, content=content)


def array(content: TypeCode, length: int) -> TypeCode:
    """Fixed-length ``content[length]``."""
    return TypeCode(TCKind.ARRAY, content=content, length=length)


def struct(name: str, fields: Sequence[tuple[str, TypeCode]]) -> TypeCode:
    return TypeCode(TCKind.STRUCT, name=name, fields=tuple(fields))


def exception(name: str, fields: Sequence[tuple[str, TypeCode]] = ()) -> TypeCode:
    return TypeCode(TCKind.EXCEPTION, name=name, fields=tuple(fields))


def enum_tc(name: str, members: Sequence[str]) -> TypeCode:
    return TypeCode(TCKind.ENUM, name=name, members=tuple(members))


def union(
    name: str,
    discriminator: TypeCode,
    cases: Sequence[tuple[object, str, TypeCode]],
    default_index: int = -1,
) -> TypeCode:
    """Discriminated union: ``cases`` are (label, field_name, type)."""
    return TypeCode(
        TCKind.UNION,
        name=name,
        content=discriminator,
        fields=tuple((field_name, tc) for _, field_name, tc in cases),
        labels=tuple(label for label, _, _ in cases),
        default_index=default_index,
    )


def objref(repo_id: str = "") -> TypeCode:
    if not repo_id:
        return TC_OBJREF
    return TypeCode(TCKind.OBJREF, name=repo_id)


#: convenient aliases matching IDL spellings
TC_DOUBLE_SEQ = sequence(TC_DOUBLE)
TC_LONG_SEQ = sequence(TC_LONG)
TC_STRING_SEQ = sequence(TC_STRING)
