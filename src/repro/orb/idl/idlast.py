"""Abstract syntax tree of the IDL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union


# -- type references -----------------------------------------------------------


@dataclass(frozen=True)
class BasicType:
    """A builtin type: boolean/octet/short/long/longlong/ushort/ulong/
    ulonglong/float/double/string/any/Object/void."""

    name: str


@dataclass(frozen=True)
class ScopedName:
    """A possibly-qualified user type name, e.g. ``CosNaming::Name``."""

    parts: Tuple[str, ...]
    absolute: bool = False  # leading ::

    def __str__(self) -> str:
        prefix = "::" if self.absolute else ""
        return prefix + "::".join(self.parts)


@dataclass(frozen=True)
class SequenceType:
    element: "TypeRef"


TypeRef = Union[BasicType, ScopedName, SequenceType]


# -- declarations -------------------------------------------------------------


@dataclass
class ParamDecl:
    direction: str  # 'in' | 'out' | 'inout'
    type: TypeRef
    name: str


@dataclass
class OperationDecl:
    name: str
    returns: TypeRef
    params: List[ParamDecl]
    raises: List[ScopedName] = field(default_factory=list)
    oneway: bool = False


@dataclass
class StructDecl:
    name: str
    members: List[Tuple[TypeRef, str]] = field(default_factory=list)


@dataclass
class EnumDecl:
    name: str
    members: List[str] = field(default_factory=list)


@dataclass
class TypedefDecl:
    type: TypeRef
    name: str


@dataclass
class ExceptionDecl:
    name: str
    members: List[Tuple[TypeRef, str]] = field(default_factory=list)


@dataclass
class InterfaceDecl:
    name: str
    bases: List[ScopedName] = field(default_factory=list)
    body: List[object] = field(default_factory=list)
    forward: bool = False


@dataclass
class ModuleDecl:
    name: str
    body: List[object] = field(default_factory=list)


@dataclass
class Specification:
    """A whole IDL compilation unit."""

    body: List[object] = field(default_factory=list)


Declaration = Union[
    ModuleDecl,
    InterfaceDecl,
    StructDecl,
    EnumDecl,
    TypedefDecl,
    ExceptionDecl,
]
